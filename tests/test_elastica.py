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

from fitguide.extremals import (
    AdjointParams,
    _agm,
    _collinear_brackets,
    _collinear_phase,
    _descend,
    _float_command,
    _float_effort,
    _float_endpoints,
    command,
    effort,
    ellipk,
    evaluate,
    propagate_param,
    range_look_angle,
    sweep_cells,
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
    (R sin Sigma, R cos Sigma) with Sigma the signed look angle.
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
    return -cross / s, dot / s


def polar_to_products(r, sigma):
    return r * math.sin(sigma), r * math.cos(sigma)


def _endpoint(alpha, beta, t_go):
    """(R, Sigma) of the parameterized system at t_go, in closed form; Sigma is odd in beta."""
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
    assert -math.pi <= sigma <= math.pi
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
    # Newton met this extremal on the oracle salvo's interceptor 2, when it
    # still clamped beta to 1e-9.  There, as for every beta below about 2e-8,
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


# (alpha, beta, t, R, |Sigma|) near the separatrix, where the RK4 reference
# above cannot follow the extremal: a 30-digit Taylor integration of the
# parameterized system (mpmath.odefun), rounded to 17 digits.  Each t lies
# past the extremal's first collinearity, where Sigma < 0.
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
    assert abs(sigma) == pytest.approx(sigma_ref, rel=1e-6, abs=1e-12)


def test_endpoint_symmetries():
    r, sigma = _endpoint(0.02, 1.3, 17.0)
    assert _endpoint(0.02, -1.3, 17.0) == (r, -sigma)  # mirrored extremal
    # scale invariance: alpha -> alpha / lam**2, t -> lam * t scales R by lam
    r2, sigma2 = _endpoint(0.02 / 4.0, 1.3, 34.0)
    assert r2 == pytest.approx(2.0 * r, rel=1e-13)
    assert sigma2 == pytest.approx(sigma, abs=1e-13)
    assert _endpoint(0.5, 0.0, 3.0) == (3.0, 0.0)  # costate along the path: straight line
    # the mirror negates Sigma exactly, before and past the first collinearity
    rng = np.random.default_rng(5)
    alpha = np.exp(rng.uniform(math.log(1e-6), math.log(1e2), 50_000))
    beta = np.concatenate([rng.uniform(1e-9, math.pi, 25_000), np.exp(rng.uniform(math.log(1e-300), 0.0, 25_000))])
    t = rng.uniform(0.0, 3.0, 50_000) * ellipk(np.cos(0.5 * beta), np.sin(0.5 * beta)) / np.sqrt(alpha)
    (r, sigma), (r_mirror, sigma_mirror) = _endpoint(alpha, beta, t), _endpoint(alpha, -beta, t)
    assert np.array_equal(r_mirror, r) and np.array_equal(sigma_mirror, -sigma)


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
    t=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 60.0), st.floats(-60.0, 0.0)), min_size=1, max_size=5),
    near=st.lists(st.floats(-1e-9, 1e-9), max_size=3),
)
@example(alpha=1.0, beta=[0.0], t=[0.0], near=[])
@example(alpha=2.0, beta=[math.pi], t=[0.0, 1.0], near=[])
@example(alpha=2.0, beta=[-math.pi, 1e-300], t=[0.0, 30.0], near=[])
@example(alpha=0.5, beta=[-1.2, 0.0, math.pi], t=[0.0, 0.3, 9.0], near=[])
@example(alpha=0.5, beta=[2.0, math.pi], t=[-1.0, 4.0], near=[0.0, -1e-9, 1e-10])
def test_command_equals_evaluates_u_to_the_bit(alpha, beta, t, near):
    # scalar beta against scalar and row times, then evaluate's documented
    # broadcast: a column of betas against a row of times.  command skips the
    # descent's top row where |phi_N| >= 2 for every time: negative times, and
    # those within 1e-9 of -K/s, where the phase w = s t + K is near 0, keep it
    rows = list(t)
    for b in beta:
        k, kc = moduli(abs(b))
        # the straight line (kc = 0) has no finite K
        times = list(t) + ([-float(ellipk(k, kc)) / math.sqrt(alpha) + d for d in near] if kc else [])
        rows += times[len(t):]
        assert bits(command(alpha, b, times[0])) == bits(evaluate(alpha, b, times[0])[3])
        assert bits(command(alpha, b, times)) == bits(evaluate(alpha, b, times)[3])
        assert bits(command(alpha, b, times[-1])) == bits(evaluate(alpha, b, times[-1])[3])
    column = np.array(beta)[:, None]
    assert bits(command(alpha, column, rows)) == bits(evaluate(alpha, column, rows)[3])


def test_results_do_not_depend_on_call_order():
    """One modulus' results are the same bits whatever was called before: alone, in any order, after another modulus."""
    t = np.linspace(0.0, 3.0, 7)
    calls = [
        lambda: evaluate(2.0, -0.7, t),
        lambda: (command(2.0, 0.7, t), command(2.0, 0.7, 1.3)),
        lambda: evaluate([2.0], [0.7], 1.3),
        lambda: (effort(2.0, 0.7, 1.3), effort([2.0], [0.7], 1.3)),
        lambda: (_collinear_phase(0.7), ellipk(*moduli(0.7)), ellipk(*(np.array([m]) for m in moduli(0.7)))),
        lambda: evaluate(1.0, 2.1, 0.5),  # another modulus
    ]
    first = [bits(*call()) for call in calls]
    # again, in both orders, and each call right after the other modulus
    for order in (calls, calls[::-1], [c for call in calls for c in (calls[-1], call)]):
        for call in order:
            assert bits(*call()) == first[calls.index(call)]


@pytest.mark.parametrize("beta", [1e-300, 0.86027439, math.pi, 0.0])
@pytest.mark.parametrize("shape", [(), (1,), (1, 1)])
def test_one_element_modulus_equals_a_batch_of_its_copies(beta, shape):
    # a one-element modulus runs on floats: the same bits, in the caller's shape, as each of five copies on arrays
    k, kc = moduli(beta)
    one, five = np.full(shape, beta), np.full(5, beta)

    def alike(got, batch):
        assert bits(got) == bits(np.reshape(batch[0], shape))
        assert bits(*batch) == bits(batch[0]) * len(batch)

    a1, c1, e1 = _agm(np.full(shape, k), np.full(shape, kc))
    a5, c5, e5 = _agm(np.full(5, k), np.full(5, kc))
    assert (len(a1), len(c1)) == (len(a5), len(c5))
    for got, batch in zip([*a1, *c1, e1], [*a5, *c5, e5]):
        alike(got, batch)
    quarter = ellipk(np.full(5, k), np.full(5, kc))
    alike(ellipk(np.full(shape, k), np.full(shape, kc)), quarter)
    for f in (command, effort, lambda alpha, b, t: evaluate(alpha, b, t)[0], lambda alpha, b, t: evaluate(alpha, b, t)[1]):
        alike(f(2.0, one, 1.3), f(2.0, five, 1.3))
        alike(f(2.0, -one, 1.3), f(2.0, -five, 1.3))
    phase = _collinear_phase(five)
    alike(_collinear_phase(one), phase)
    # sweep_cells solves one distinct beta as a one-element modulus
    alphas = np.array([0.5, 2.0, 9.0])
    sweep = sweep_cells(alphas, np.full(3, beta), 10.0, 0.01)
    zero = np.where(np.isinf(phase), np.inf, 2.0 * quarter)
    assert bits(sweep.t_collinear, sweep.t_control_zero) == bits(phase[0] / np.sqrt(alphas), zero[0] / np.sqrt(alphas))


def test_ellipk_is_infinite_at_k_one():
    # kc = 0: K(1) diverges, where the AGM of (1, 0) would stop at its row cap; ellipkm1 takes kc**2
    assert ellipk(1.0, 0.0) == special.ellipkm1(0.0) == math.inf
    k, kc = moduli(0.86027439)
    got = ellipk([1.0, k], [0.0, kc])
    assert got[0] == math.inf and bits(got[1]) == bits(ellipk(k, kc))
    assert bits(ellipk(np.array([1.0]), np.array([0.0]))) == bits(np.array([math.inf]))


# The float kernel's domain in the oracle: ln q over the root table's range
# (-0.21 to 13.0), beta from 1e-300 up to Newton's clamp at pi and its
# difference step past it, both signs, and the straight line.
kernel_ln_q = st.floats(-0.5, 13.5)
kernel_betas = st.one_of(
    st.floats(math.log(1e-300), math.log(math.pi) + 1e-6).map(math.exp),
    st.floats(math.log(1e-300), math.log(math.pi) + 1e-6).map(lambda ln_b: -math.exp(ln_b)),
    st.sampled_from([0.0, -0.0, math.pi, -math.pi, 1e-300, 0.86027439]),
)
kernel_times = st.one_of(st.sampled_from([1.0, 0.0]), st.floats(0.01, 60.0))


def _arrays_at(alpha, betas, t):
    """(R, Sigma, U) of each beta from ``evaluate`` and ``range_look_angle`` on one array of betas."""
    X, Y, Theta, U = evaluate(alpha, np.array(betas), t)
    R, Sigma = range_look_angle(X, Y, Theta)
    return [(R[i], Sigma[i], U[i]) for i in range(len(betas))]


@settings(max_examples=300, deadline=None)
@given(ln_q=kernel_ln_q, beta=kernel_betas, t=kernel_times)
@example(ln_q=13.0, beta=1e-300, t=1.0)
@example(ln_q=-0.21, beta=math.pi, t=1.0)
@example(ln_q=2.0, beta=0.0, t=1.0)
def test_float_effort_and_command_equal_the_array_formula_to_the_bit(ln_q, beta, t):
    # alpha = q / t**2 puts the extremal's phase sqrt(alpha) t at about sqrt(q), as the oracle scales it;
    # the oracle takes one root's effort and one command, of a one-element and a 0-d modulus
    alpha = math.exp(ln_q) / (t * t) if t else math.exp(ln_q)
    assert bits(_float_effort(alpha, beta, t)) == bits(effort(alpha, beta, t)) == bits(effort([alpha], [beta], t)[0])
    assert bits(_float_command(alpha, beta, t)) == bits(command(alpha, beta, t)) == bits(command([alpha], [beta], t)[0])


@settings(max_examples=300, deadline=None)
@given(ln_q=kernel_ln_q, betas=st.lists(kernel_betas, min_size=1, max_size=3), t=kernel_times)
@example(ln_q=1.0, betas=[1.0, 1e-300], t=1.0)
@example(ln_q=5.0, betas=[1e-300, 2.5], t=1.0)
@example(ln_q=0.3, betas=[math.pi, math.pi * math.exp(1e-6)], t=1.0)
def test_float_endpoints_equal_the_array_formula_to_the_bit(ln_q, betas, t):
    got = _float_endpoints(math.exp(ln_q), betas, t)
    assert [bits(*p) for p in got] == [bits(*p) for p in _arrays_at(math.exp(ln_q), betas, t)]


def test_float_endpoints_run_a_pair_that_meets_at_different_rows_as_evaluate_does():
    # beta = 1e-300 meets after 15 AGM rows, beta = 1 after 7; evaluate runs both to 15,
    # and those rows move the last bits of X and Y on some draws, so the pair's kernel runs them too
    alone = [len(_agm(*(np.array([m]) for m in moduli(b)))[0]) for b in (1.0, 1e-300)]
    assert alone == [7, 15]
    rng = np.random.default_rng(23)
    moved = 0
    for ln_q, beta in zip(rng.uniform(-0.2, 13.0, 200), rng.uniform(0.01, 3.1, 200)):
        q, beta = math.exp(ln_q), float(beta)
        for pair in ([beta, 1e-300], [1e-300, beta]):
            got = _float_endpoints(q, pair, 1.0)
            assert [bits(*p) for p in got] == [bits(*p) for p in _arrays_at(q, pair, 1.0)]
        moved += bits(*_float_endpoints(q, [beta], 1.0)[0]) != bits(*got[1])
    assert moved  # the extra rows do show, so sharing them is not vacuous


def test_float_kernels_equal_the_array_formula_on_a_seeded_sweep():
    # a last-bit slip of one transcendental (math.asin for numpy's arcsin, say) shows in about
    # 1 draw in 1,000 of effort and command, too rarely for the properties above to catch alone
    rng = np.random.default_rng(37)
    n = 5000
    ln_q = rng.uniform(-0.5, 13.5, n)
    beta = np.exp(rng.uniform(math.log(1e-300), math.log(math.pi), n)) * rng.choice([-1.0, 1.0], n)
    t = rng.choice([1.0, 0.5, 7.0], n)
    slips = []
    for q, b, t_i in zip(np.exp(ln_q).tolist(), beta.tolist(), t.tolist()):
        alpha = q / (t_i * t_i)
        if bits(_float_effort(alpha, b, t_i)) != bits(effort(alpha, b, t_i)):
            slips.append(("effort", alpha, b, t_i))
        if bits(_float_command(alpha, b, t_i)) != bits(command(alpha, b, t_i)):
            slips.append(("command", alpha, b, t_i))
        pair = [b, b * math.exp(1e-6)]
        if [bits(*p) for p in _float_endpoints(alpha, pair, t_i)] != [bits(*p) for p in _arrays_at(alpha, pair, t_i)]:
            slips.append(("endpoints", alpha, b, t_i))
    assert slips == []
