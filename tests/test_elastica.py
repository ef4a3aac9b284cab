"""Closed-form extremal: the elliptic primitives, the samples and the stop times.

The primitives are checked against scipy.special, and the closed-form
extremal against a fixed-step RK4 integration of the parameterized system
that lives only in this file.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import special

import fitguide.extremals
from fitguide.extremals import (
    AdjointParams,
    _agm,
    _collinear_brackets,
    _collinear_phase,
    _descend,
    command,
    effort,
    ellipk,
    evaluate,
    propagate_param,
    range_look_angle,
    terminal_time,
)

# beta over the oracle's whole range, with the near-separatrix end (beta -> 0,
# modulus -> 1) drawn log-uniformly so that it is actually exercised
betas = st.one_of(
    st.floats(1e-9, math.pi - 1e-9),
    st.floats(math.log(1e-9), 0.0).map(math.exp),
)


def moduli(beta):
    return math.cos(0.5 * beta), math.sin(0.5 * beta)


def ellipe(k, kc):
    """Complete elliptic integral of the second kind, E = K * (E/K) from one AGM."""
    a, _, e_over_k = _agm(np.asarray(k, dtype=float), np.asarray(kc, dtype=float))
    return 0.5 * np.pi / a[-1] * e_over_k


def ellipj(u, k, kc):
    """Jacobi elliptic functions (sn, cn, dn, am) of u at modulus k, as the extremal forms them."""
    a, c, _ = _agm(np.asarray(k, dtype=float), np.asarray(kc, dtype=float))
    am, _ = _descend(np.asarray(u, dtype=float), a, c)
    sn, cn = np.sin(am), np.cos(am)
    # dn**2 = 1 - k**2 sn**2 = cn**2 + kc**2 sn**2, accurate near dn = kc
    return sn, cn, np.hypot(cn, kc * sn), am


@settings(max_examples=200, deadline=None)
@given(beta=betas)
def test_complete_integrals_match_scipy(beta):
    k, kc = moduli(beta)
    # ellipkm1 takes the complementary parameter, exact for k -> 1
    assert ellipk(k, kc) == pytest.approx(special.ellipkm1(kc * kc), rel=1e-13)
    assert ellipe(k, kc) == pytest.approx(special.ellipe(k * k), rel=1e-13)


# scipy takes the parameter m = k**2; the comparison draws m and builds both
# moduli from it, so that both sides see the same modulus.  Its complement
# p = 1 - m goes down to 1e-9, below which scipy's ellipj switches to an
# approximation valid only near u = 0; the endpoint test covers that end.
parameters = st.one_of(st.floats(1e-9, 1.0), st.floats(-9.0, 0.0).map(lambda e: 10.0**e))


def moduli_from_complement(p):
    m = 1.0 - p
    return m, math.sqrt(m), math.sqrt(1.0 - m)


@settings(max_examples=300, deadline=None)
@given(p=parameters, frac=st.floats(-1.0, 1.0))
def test_jacobi_functions_match_scipy(p, frac):
    m, k, kc = moduli_from_complement(p)
    u = 4.0 * ellipk(k, kc) * frac
    sn, cn, dn, am = ellipj(u, k, kc)
    sn_r, cn_r, dn_r, am_r = special.ellipj(u, m)
    tol = 1e-12 * (1.0 + abs(u))
    assert abs(sn - sn_r) <= tol
    assert abs(cn - cn_r) <= tol
    assert abs(dn - dn_r) <= tol
    assert abs(am - am_r) <= tol
    assert sn * sn + cn * cn == pytest.approx(1.0, abs=1e-15)


def incomplete_e_of_am(u, k, kc):
    """(am u, E(am u)) with E(am u) = (E/K) u + Z(u), the form the extremal uses (A&S 17.6)."""
    a, c, e_over_k = _agm(np.asarray(k), np.asarray(kc))
    am, zeta = _descend(np.asarray(u), a, c)
    return am, e_over_k * u + zeta


def incomplete_e_reference(phi, m):
    """E(phi | m) from Carlson's symmetric integrals (DLMF §19.25), as a reference.

    phi is reduced to [-pi/2, pi/2] by E(phi + n pi) = E(phi) + 2 n E(m).
    scipy's ellipeinc is no reference next to m = 1: at phi = 1.4349465391126786,
    m = 1 - 10**-3.45703125 it returns 1.4915, above phi, where 40-digit mpmath
    gives 0.99108246575108516, and it is as far off on about one point in
    eleven of that parameter range at u = K/2.
    """
    n = round(phi / math.pi)
    s, c = math.sin(phi - n * math.pi), math.cos(phi - n * math.pi)
    x, y = c * c, c * c + (1.0 - m) * s * s  # y = 1 - m s**2, without cancelling next to m = 1
    return s * special.elliprf(x, y, 1.0) - m / 3.0 * s**3 * special.elliprd(x, y, 1.0) + 2.0 * n * special.ellipe(m)


@settings(max_examples=300, deadline=None)
@given(p=parameters, frac=st.floats(-2.5, 2.5))
@example(p=10.0**-3.45703125, frac=0.125)  # where scipy's ellipeinc is off by 0.5
def test_incomplete_e_matches_scipy(p, frac):
    m, k, kc = moduli_from_complement(p)
    u = 4.0 * ellipk(k, kc) * frac
    am, e = incomplete_e_of_am(u, k, kc)
    assert abs(e - incomplete_e_reference(float(am), m)) <= 1e-13 * (1.0 + abs(u))


def test_incomplete_e_reduction_and_parity():
    # Z is odd and 2K-periodic with Z(K) = 0, so E(am(u + 2K)) = E(am u) + 2E(k)
    k, kc = moduli(0.7)
    quarter, e = ellipk(k, kc), ellipe(k, kc)
    assert incomplete_e_of_am(quarter, k, kc)[1] == pytest.approx(e, rel=1e-15)
    assert incomplete_e_of_am(5.0 * quarter, k, kc)[1] == pytest.approx(5.0 * e, rel=1e-14)
    assert incomplete_e_of_am(-1.2, k, kc)[1] == -incomplete_e_of_am(1.2, k, kc)[1]


def rk4_reference(alpha, beta, t, dtau=0.004):
    """Cross and dot products of line of sight and heading at t, by RK4.

    Integrates in the time tau = sqrt(alpha) * t, where the system has unit
    costate magnitude, and scales lengths back by 1/sqrt(alpha).  Returns
    (R sin Sigma, R cos Sigma) with Sigma the folded look angle.
    """
    s = math.sqrt(alpha)
    tau = s * t
    n = max(1, math.ceil(tau / dtau))
    h = tau / n
    cb, sb = math.cos(beta), math.sin(beta)
    x = y = th = 0.0

    def f(x, y, th):
        return -math.cos(th), -math.sin(th), -(y * cb - x * sb)

    for _ in range(n):
        k1 = f(x, y, th)
        k2 = f(x + 0.5 * h * k1[0], y + 0.5 * h * k1[1], th + 0.5 * h * k1[2])
        k3 = f(x + 0.5 * h * k2[0], y + 0.5 * h * k2[1], th + 0.5 * h * k2[2])
        k4 = f(x + h * k3[0], y + h * k3[1], th + h * k3[2])
        x += h / 6.0 * (k1[0] + 2.0 * (k2[0] + k3[0]) + k4[0])
        y += h / 6.0 * (k1[1] + 2.0 * (k2[1] + k3[1]) + k4[1])
        th += h / 6.0 * (k1[2] + 2.0 * (k2[2] + k3[2]) + k4[2])
    cross = y * math.cos(th) - x * math.sin(th)
    dot = -(x * math.cos(th) + y * math.sin(th))
    return abs(cross) / s, dot / s


def polar_to_products(r, sigma):
    return r * math.sin(sigma), r * math.cos(sigma)


def _endpoint(alpha, beta, t_go):
    """(R, Sigma) of the parameterized system at t_go, in closed form; even in beta."""
    X, Y, Theta, _ = evaluate(alpha, beta, t_go)
    return range_look_angle(X, Y, Theta)


@settings(max_examples=60, deadline=None)
@given(
    log_alpha=st.floats(math.log(1e-6), math.log(1e2)),
    beta=betas,
    frac=st.floats(1e-3, 1.0),
)
def test_endpoint_matches_rk4(log_alpha, beta, frac):
    alpha = math.exp(log_alpha)
    s = math.sqrt(alpha)
    k, kc = moduli(beta)
    quarter = ellipk(k, kc)
    t = frac * 3.0 * quarter / s
    r, sigma = _endpoint(alpha, beta, t)
    # the path has unit speed, so it cannot end farther than t from the origin
    assert 0.0 <= sigma <= math.pi
    assert r <= t * (1.0 + 1e-12)
    got = polar_to_products(r, sigma)
    want = rk4_reference(alpha, beta, t)
    # Compared in the unit-costate frame, where the path has length tau.
    # Near the separatrix a double-precision integration loses the extremal
    # once it swings back up toward the upright position: its rounding moves
    # the turning point, to which the endpoint is sensitive as 1/kc**2.  The
    # tolerance carries that conditioning; the pinned high-precision points
    # below cover beta -> 0 there.
    tau = s * t
    conditioning = 1.0 if tau <= 1.5 * quarter else 1.0 + 1e-3 / kc**2
    tol = 1e-9 * (1.0 + tau) * conditioning
    assert abs(got[0] - want[0]) * s <= tol
    assert abs(got[1] - want[1]) * s <= tol


def test_endpoint_near_separatrix_regression():
    # The oracle salvo's interceptor 2 drives Newton to the beta clamp.  There
    # cos(beta/2) is exactly 1.0, so any form that builds the complementary
    # modulus as sqrt(1 - k**2) divides by zero.
    alpha, beta, t = 0.0011118674459065887, 1e-9, 100.0
    r, sigma = _endpoint(alpha, beta, t)
    assert r == pytest.approx(100.0, rel=1e-14)
    # 50-digit evaluation of the elastica: Sigma = 9.8467957830149e-09
    assert sigma == pytest.approx(9.8467957830149e-09, rel=1e-6)
    want = rk4_reference(alpha, beta, t)
    got = polar_to_products(r, sigma)
    assert got[0] == pytest.approx(want[0], rel=1e-6)
    assert got[1] == pytest.approx(want[1], rel=1e-12)


# (alpha, beta, t, R, Sigma) near the separatrix, where the RK4 reference
# above cannot follow the extremal: a 30-digit Taylor integration of the
# parameterized system (mpmath.odefun), rounded to 17 digits.
SEPARATRIX_POINTS = [
    (1.0, 3.789807346431179e-09, 63.4513315884365, 58.954884433458092, 1.4402352496321978),
    (2.5e-05, 1e-09, 9121.082951450495, 8321.0829514504949, 1.0000000000000005e-09),
    (37.0, 2e-07, 8.345341575012661, 7.6692879830653603, 0.67346918021843312),
    (1.0, 1e-06, 39.7373802491127, 35.737379777084967, 0.0013746412992043907),
]


@pytest.mark.parametrize("alpha, beta, t, r_ref, sigma_ref", SEPARATRIX_POINTS)
def test_endpoint_near_separatrix_matches_high_precision(alpha, beta, t, r_ref, sigma_ref):
    r, sigma = _endpoint(alpha, beta, t)
    assert r == pytest.approx(r_ref, rel=1e-13)
    assert sigma == pytest.approx(sigma_ref, rel=1e-6, abs=1e-12)


def test_endpoint_symmetries():
    r, sigma = _endpoint(0.02, 1.3, 17.0)
    assert _endpoint(0.02, -1.3, 17.0) == (r, sigma)  # mirrored extremal
    # scale invariance: alpha -> alpha / lam**2, t -> lam * t scales R by lam
    r2, sigma2 = _endpoint(0.02 / 4.0, 1.3, 34.0)
    assert r2 == pytest.approx(2.0 * r, rel=1e-13)
    assert sigma2 == pytest.approx(sigma, abs=1e-13)
    assert _endpoint(0.5, 0.0, 3.0) == (3.0, 0.0)  # costate along the path: straight line


alphas = st.floats(math.log(1e-6), math.log(1e2)).map(math.exp)


def cross_at_phase(beta, tau):
    """Cross product of line of sight and heading at phase tau = sqrt(alpha) t, times sqrt(alpha)."""
    X, Y, Theta, _ = evaluate(1.0, beta, tau)
    return Y * np.cos(Theta) - X * np.sin(Theta)


def test_collinear_brackets_nest():
    """Each rescan's bracket lies in the last one's, to a rounding of hi: what lets _admissible stop early."""
    rng = np.random.default_rng(11)
    beta = np.concatenate([rng.uniform(1e-9, math.pi - 1e-9, 200), np.exp(rng.uniform(math.log(1e-9), 0.0, 200)), [0.86027439]])
    his = []
    for k, (degenerate, lo, hi) in enumerate(_collinear_brackets(beta)):
        assert not degenerate.any() and (lo <= hi).all()
        if k:
            assert (lo >= last_lo).all()
            assert (hi <= np.min(his, axis=0) * (1.0 + 1e-12)).all()
        last_lo = lo
        his.append(hi)
    assert len(his) == 9
    assert np.array_equal(his[-1], _collinear_phase(beta))
    # one beta at a time scans the same brackets
    assert [float(_collinear_phase(b)) for b in beta[::40]] == his[-1][::40].tolist()


@settings(max_examples=100, deadline=None)
@given(alpha=alphas, alpha2=alphas, beta=betas)
# the figure-eight elastica, where c and its derivative -U*d vanish together
@example(alpha=1.0, alpha2=37.0, beta=0.86027439)
def test_terminal_time_is_first_sign_change_of_cross_product(alpha, alpha2, beta):
    tau = terminal_time(AdjointParams(alpha, beta), t_bar=math.inf) * math.sqrt(alpha)
    # the collinearity phase depends on beta alone
    assert terminal_time(AdjointParams(alpha2, beta), t_bar=math.inf) * math.sqrt(alpha2) == pytest.approx(tau, rel=1e-13)
    # the cross product changes sign there: from negative after departure to
    # positive, transversally except at the figure-eight elastica, where it is
    # flat but still of opposite signs a millionth to either side
    assert cross_at_phase(beta, tau * (1.0 - 1e-6)) < 0.0 < cross_at_phase(beta, tau * (1.0 + 1e-6))
    # and does not change sign earlier: a dense scan stays negative up to
    # rounding (c is O(tau**3) at departure)
    scan = np.linspace(0.0, tau * (1.0 - 1e-6), 4001)[1:]
    assert np.max(cross_at_phase(beta, scan)) < 1e-13


@settings(max_examples=60, deadline=None)
@given(alpha=alphas, beta=betas)
def test_first_command_sign_change_brackets_two_quarter_periods(alpha, beta):
    s = math.sqrt(alpha)
    t_zero = 2.0 * ellipk(*moduli(beta)) / s
    params = AdjointParams(alpha, beta)
    # only extremals that are still collinearity-free at the command zero
    assume(terminal_time(params, t_bar=math.inf) > 1.02 * t_zero)
    traj = propagate_param(params, t_end=1.02 * t_zero, dt=t_zero / 500.0)
    # the command leaves zero positive; i is the first sample where it is not
    i = 1 + int(np.argmax(traj.U[1:] <= 0.0))
    assert traj.U[i] <= 0.0 < traj.U[i - 1]
    assert traj.t[i - 1] <= t_zero * (1.0 + 1e-12) and t_zero <= traj.t[i] * (1.0 + 1e-12)


@settings(max_examples=40, deadline=None)
@given(alpha=alphas, beta=betas, frac=st.floats(1e-3, 1.0))
def test_propagated_samples_match_rk4(alpha, beta, frac):
    s = math.sqrt(alpha)
    t_end = frac * 1.5 * ellipk(*moduli(beta)) / s
    traj = propagate_param(AdjointParams(alpha, beta), t_end=t_end, dt=t_end / 20.0)
    for i in (len(traj) // 2, len(traj) - 1):
        if i == 0:
            continue
        t = float(traj.t[i])
        got = polar_to_products(traj.R[i], traj.Sigma[i])
        want = rk4_reference(alpha, beta, t)
        # compared in the unit-costate frame, as in test_endpoint_matches_rk4
        tol = 1e-9 * (1.0 + s * t)
        assert abs(got[0] - want[0]) * s <= tol
        assert abs(got[1] - want[1]) * s <= tol


@settings(max_examples=100, deadline=None)
@given(
    log_alpha=st.floats(math.log(1e-4), math.log(1e2)),
    beta=st.one_of(st.floats(1e-6, math.pi - 1e-6), st.floats(math.log(1e-6), 0.0).map(math.exp)),
    frac=st.floats(0.0, 1.0, exclude_min=True),
)
@example(log_alpha=math.log(1e-4), beta=1e-6, frac=0.6)
@example(log_alpha=math.log(1e2), beta=math.pi - 1e-6, frac=1.0)
@example(log_alpha=math.log(1e2), beta=1e-6, frac=0.05)
@example(log_alpha=0.0, beta=1e-6, frac=1e-6)
def test_effort_matches_trapezoid_of_the_command(log_alpha, beta, frac):
    # t runs over (0, t*], t* the collinearity time.  The closed form takes
    # a difference of terms of order 2 s tau and reads Z at tau + K, so it
    # is exact to the rounding of 2 s (tau + K); relative to J that is 1e-9
    # from 0.6 t* on, but early on an extremal close to the separatrix J is
    # orders below 2 s tau (2e-3 relative at 0.05 t*, beta = 1e-6)
    alpha = math.exp(log_alpha)
    t_end = frac * terminal_time(AdjointParams(alpha, beta), t_bar=math.inf)
    t = np.linspace(0.0, t_end, 200_001)
    _, _, Theta, U = evaluate(alpha, beta, t)
    # the trapezoid's own error, -h**2/12 [f'(t_end) - f'(0)] with f = U**2/2,
    # U' = alpha sin(beta - Theta) and U(0) = 0, reaches 1e-9 near the
    # separatrix, where U grows like exp(s t); take it out
    h = t[1]
    reference = np.trapezoid(0.5 * U * U, t) - h * h / 12.0 * U[-1] * alpha * math.sin(beta - Theta[-1])
    got = float(effort(alpha, beta, t_end))
    s = math.sqrt(alpha)
    assert abs(got - reference) <= 1e-12 * 2.0 * s * (s * t_end + ellipk(*moduli(beta)))
    if frac >= 0.6:
        assert got == pytest.approx(reference, rel=1e-9, abs=0.0)
    assert effort(alpha, -beta, t_end) == effort(alpha, beta, t_end)


def bits(*values):
    """Shapes and bytes of arrays, so that two results compare equal only to the bit (signed zeros too)."""
    return [(np.shape(v), np.asarray(v, dtype=float).tobytes()) for v in values]


signed_betas = st.one_of(betas, betas.map(lambda b: -b), st.sampled_from([0.0, -0.0, math.pi, -math.pi, 1e-300, -1e-300]))


@settings(max_examples=200, deadline=None)
@given(
    alpha=alphas,
    beta=st.lists(signed_betas, min_size=1, max_size=4),
    t=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 60.0)), min_size=1, max_size=5),
)
@example(alpha=1.0, beta=[0.0], t=[0.0])
@example(alpha=2.0, beta=[math.pi], t=[0.0, 1.0])
@example(alpha=2.0, beta=[-math.pi, 1e-300], t=[0.0, 30.0])
@example(alpha=0.5, beta=[-1.2, 0.0, math.pi], t=[0.0, 0.3, 9.0])
def test_command_equals_evaluates_u_to_the_bit(alpha, beta, t):
    # scalar beta against scalar and row times, then evaluate's documented
    # broadcast: a column of betas against a row of times
    for b in beta:
        assert bits(command(alpha, b, t[0])) == bits(evaluate(alpha, b, t[0])[3])
        assert bits(command(alpha, b, t)) == bits(evaluate(alpha, b, t)[3])
    column = np.array(beta)[:, None]
    assert bits(command(alpha, column, t)) == bits(evaluate(alpha, column, t)[3])


def test_agm_memo_changes_no_result(monkeypatch):
    """A scalar modulus' kept AGM rows give the bits of a fresh AGM: cold, warm, across shapes and after another modulus."""
    t = np.linspace(0.0, 3.0, 7)
    calls = [
        lambda: evaluate(2.0, -0.7, t),
        lambda: (command(2.0, 0.7, t), command(2.0, 0.7, 1.3)),
        lambda: evaluate([2.0], [0.7], 1.3),
        lambda: (effort(2.0, 0.7, 1.3), effort([2.0], [0.7], 1.3)),
        lambda: (_collinear_phase(0.7), ellipk(*moduli(0.7)), ellipk(*(np.array([m]) for m in moduli(0.7)))),
        lambda: evaluate(1.0, 2.1, 0.5),  # another modulus
    ]
    cold = []
    for call in calls:
        monkeypatch.setattr(fitguide.extremals, "_last_modulus", (b"", None))
        cold.append(bits(*call()))
    # warm, in both orders, and each call right after the other modulus
    for order in (calls, calls[::-1], [c for call in calls for c in (calls[-1], call)]):
        for call in order:
            assert bits(*call()) == cold[calls.index(call)]
    # the rows of a one-element modulus are read-only, fresh or kept, and
    # copies: changing the caller's k afterwards changes no kept row
    k, kc = np.array([math.cos(0.35)]), np.array([math.sin(0.35)])
    for _ in range(2):
        a, c, e_over_k = _agm(k, kc)
        assert not any(r.flags.writeable for r in (*a, *c, e_over_k))
    k[0] = 0.5
    assert _agm(np.array([math.cos(0.35)]), kc)[1][0][0] == math.cos(0.35)
    # a many-element call leaves them in place
    kept = fitguide.extremals._last_modulus
    evaluate(1.0, [0.3, 0.4], 1.0)
    assert fitguide.extremals._last_modulus is kept
