import functools
import importlib
import importlib.util
import io
import math
import os
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import fitguide.guidance
import fitguide.mlp
import fitguide.sim
from fitguide import (
    CartesianState,
    GuidanceError,
    GuidanceQuery,
    PolarState,
    Scenario,
    command_nn,
    command_oracle,
    pn_command,
    simulate,
    solve_ocp,
    step_cartesian,
    terminal_time,
)
from fitguide.extremals import AdjointParams, _collinear_phase, effort, evaluate, propagate_param, range_look_angle, sweep_cells
from fitguide.guidance import (
    LN_BETA_STEP,
    NEWTON_TOL,
    ROOT_TABLE,
    ROOT_TABLE_RHO,
    ROOT_TABLE_SIGMA,
    _admissible,
    _endpoint_jacobian,
    _newton,
    _seeds,
    warm_check,
)
from fitguide.kinematics import cartesian_to_polar

CASE_A = dict(r=10000.0, t_go=25.0, speed=500.0)


def _endpoint(alpha, beta, t_go):
    """(R, Sigma) of the parameterized system at t_go, in closed form; broadcasts like ``evaluate``, Sigma odd in beta."""
    X, Y, Theta, _ = evaluate(alpha, beta, t_go)
    return range_look_angle(X, Y, Theta)


def test_query_validation():
    with pytest.raises(ValueError):
        GuidanceQuery(r=-1.0, sigma=0.2, t_go=1.0, speed=1.0)
    with pytest.raises(ValueError):
        GuidanceQuery(r=1.0, sigma=4.0, t_go=1.0, speed=1.0)
    with pytest.raises(GuidanceError, match="unreachable"):
        GuidanceQuery(r=10.0, sigma=0.2, t_go=1.0, speed=1.0)
    GuidanceQuery(r=1.0, sigma=0.0, t_go=1.0, speed=1.0)  # exactly reachable is fine


def test_command_nn_zero_on_collision_course(model):
    q = GuidanceQuery(r=500.0 * 20.0, sigma=0.0, t_go=20.0, speed=500.0)
    assert command_nn(model, q) == 0.0


def test_command_nn_mirror_exact(model):
    rng = np.random.default_rng(3)
    for _ in range(25):
        t_go = rng.uniform(0.5, 30.0)
        speed = rng.uniform(100.0, 900.0)
        r = rng.uniform(0.2, 0.99) * speed * t_go
        sigma = rng.uniform(1e-3, math.pi - 1e-3)
        u_pos = command_nn(model, GuidanceQuery(r, sigma, t_go, speed))
        u_neg = command_nn(model, GuidanceQuery(r, -sigma, t_go, speed))
        assert u_pos == -u_neg  # bitwise odd symmetry by construction


def test_step_law_is_bound_once_and_evaluated_every_measured_step(model, monkeypatch):
    # the step loop binds its law through fitguide.sim.bind_law once per
    # engagement, and evaluates it at every step it measures (r >= 2 V dt)
    binds, evals = [], []
    real_bind = fitguide.sim.bind_law

    def bind(*args):
        law = real_bind(*args)
        binds.append(args[0])
        return lambda *step: evals.append(step) or law(*step)

    monkeypatch.setattr(fitguide.sim, "bind_law", bind)
    for law in ("nn", "pn"):
        binds.clear()
        evals.clear()
        sc = Scenario(CartesianState(-10000.0, 0.0, math.pi / 3), 500.0, 25.0, guidance=law)
        res = simulate(sc, model)
        r = [math.hypot(x, y) for x, y in zip(res.x[: len(res.u)].tolist(), res.y[: len(res.u)].tolist())]
        measured = [v for v in r if v >= 2.0 * sc.speed * sc.dt]
        assert binds == [law]
        assert [step[0] for step in evals] == measured
        assert len(measured) > 2000
    with pytest.raises(ValueError, match="no step law"):
        real_bind("oracle", model, 500.0)


def _bits(v):
    return np.float64(v).tobytes()


@settings(max_examples=300, deadline=None)
@given(
    ratio=st.floats(1e-3, 1.0),
    look=st.floats(0.0, math.pi),
    t_go=st.floats(0.05, 80.0),
    speed=st.floats(50.0, 1000.0),
)
@example(ratio=1.0, look=0.0, t_go=20.0, speed=500.0)  # the collision course
@example(ratio=0.6, look=0.0, t_go=20.0, speed=500.0)  # head-on, short of it
@example(ratio=0.6, look=1.2, t_go=60.0, speed=500.0)  # t_go > kappa t_bar: the network's horizon is capped
@example(ratio=0.6, look=math.pi, t_go=2.0, speed=500.0)  # the look angle's end, where sin rounds to 1.2e-16
def test_bound_laws_equal_the_public_laws(model, ratio, look, t_go, speed):
    # bound once, the network and PN laws give the public one-shot commands to the bit
    r = ratio * speed * t_go
    nn, pn = (fitguide.guidance.bind_law(law, model, speed) for law in ("nn", "pn"))
    for sigma in (look, -look):
        assert _bits(nn(r, sigma, t_go)) == _bits(command_nn(model, GuidanceQuery(r, sigma, t_go, speed)))
        assert _bits(pn(r, sigma, t_go)) == _bits(pn_command(PolarState(r, sigma), speed))
    if look > 0.0:  # exact odd symmetry; sigma = 0 turns to the positive side
        assert nn(r, -look, t_go) == -nn(r, look, t_go)
    if ratio == 1.0 and look == 0.0:
        assert nn(r, look, t_go) == 0.0


def test_benchmark_trace_targets_resolve_on_the_package(monkeypatch):
    # the benchmark's tracer patches these attributes by name; one that the
    # package drops (an unused import, say) must fail here, not only in a
    # traced benchmark run
    benchmarks = Path(__file__).resolve().parents[1] / "benchmarks"
    monkeypatch.syspath_prepend(str(benchmarks))
    metrics = importlib.import_module("metrics")
    assert Path(metrics.__file__).resolve().parent == benchmarks
    missing = [f"{module}.{attr}" for module, attr, *_ in metrics.TRACE_TARGETS
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


def test_command_nn_close_to_oracle_case_a(model):
    q = GuidanceQuery(r=10000.0, sigma=math.pi / 3, t_go=25.0, speed=500.0)
    u_nn = command_nn(model, q)
    u_star = command_oracle(q).command
    assert u_nn == pytest.approx(u_star, rel=0.03)


def test_oracle_degenerate_collision_course():
    sol = command_oracle(GuidanceQuery(r=20.0, sigma=0.0, t_go=20.0, speed=1.0))
    assert sol.command == 0.0
    assert sol.effort == 0.0
    assert sol.params == AdjointParams(1.0, 0.0)


def test_oracle_case_a_effort():
    # published effort for the 25 s engagement, within 1 %
    sol = command_oracle(GuidanceQuery(sigma=-math.pi / 3, **CASE_A))
    J = sol.effort * CASE_A["speed"] ** 2
    assert J == pytest.approx(2.1350e4, rel=0.01)
    assert abs(sol.residual[0]) <= 1e-9 * (1 + CASE_A["r"] / CASE_A["speed"])
    assert abs(sol.residual[1]) <= 1e-9
    # the mirrored start turns clockwise back toward the target
    assert sol.params.beta < 0.0 and sol.command < 0.0


@settings(max_examples=20, deadline=None)
@given(
    t_go=st.floats(15.0, 50.0),
    ratio=st.floats(0.45, 0.8),
    look=st.floats(0.3, 1.1),
)
def test_oracle_mirror_antisymmetry(t_go, ratio, look):
    # the mirrored query's plan is the mirrored extremal, to the bit
    try:
        pos, neg = (command_oracle(GuidanceQuery(ratio * t_go, sign * look, t_go, 1.0)) for sign in (1.0, -1.0))
    except GuidanceError:
        assume(False)
    assert neg.params == AdjointParams(pos.params.alpha, -pos.params.beta)
    assert neg.roots == tuple((a, -b, j, ok) for a, b, j, ok in pos.roots)
    assert neg.command == -pos.command
    assert (neg.effort, neg.residual) == (pos.effort, pos.residual)


def scalar_warm_rule(solution, r_norm, sigma, t_go):
    """One query at a time: the warm test ``command_oracle`` once made itself, as a reference.

    Returns (hit, (dR, dSigma), U) of the signed extremal, all NaN and no hit
    past the solved time-to-go.
    """
    p = solution.params
    if not solution.normalized_t_go >= t_go:
        return False, (math.nan, math.nan), math.nan
    X, Y, Theta, U = evaluate(p.alpha, p.beta, t_go)
    r_end, s_end = range_look_angle(X, Y, Theta)
    f = (float(r_end) - r_norm, float(s_end) - sigma)
    hit = abs(f[0]) <= 1e-5 * (1.0 + r_norm) and abs(f[1]) <= 1e-5
    return hit, f, float(U)


def _assert_warm_check_is_the_scalar_rule(solution, r_norm, sigma, t_go):
    hit, f, U = warm_check(solution, r_norm, sigma, t_go)
    for k, query in enumerate(zip(r_norm, sigma, t_go)):
        want_hit, want_f, want_U = scalar_warm_rule(solution, *map(float, query))
        assert hit[k] == want_hit
        # the same closed form, evaluated on an array and on a scalar
        np.testing.assert_array_equal([f[0][k], f[1][k], U[k]], [*want_f, want_U])
    return hit, f, U


def test_warm_check_hits_the_solved_query():
    # the solved query lies on its extremal, with the solution's own command
    q = GuidanceQuery(r=9000.0, sigma=0.9, t_go=22.0, speed=450.0)
    sol = command_oracle(q)
    r, s, t = np.array([[q.r / q.speed], [q.sigma], [q.t_go]])
    hit, f, U = _assert_warm_check_is_the_scalar_rule(sol, r, s, t)
    assert hit[0]
    assert (f[0][0], f[1][0]) == pytest.approx(sol.residual, abs=1e-12)
    assert U[0] == pytest.approx(sol.command, rel=1e-9)


def test_warm_check_reads_the_extremal_command():
    # later points of a solved (mirrored) extremal are hits with no residual;
    # the command is the closed form's at the new time-to-go, and it agrees
    # with the costate form sampled on a 5.5 ms grid
    first = command_oracle(GuidanceQuery(r=9000.0, sigma=-0.9, t_go=22.0, speed=450.0))
    p, horizon = first.params, first.normalized_t_go
    traj = propagate_param(p, horizon, min(0.01, max(0.0025, horizon / 4000.0)))
    grid = [3818, 2431, 764]  # about 21, 13.37 and 4.2 s
    t_go = traj.t[grid]
    r_end, s_end = range_look_angle(*evaluate(p.alpha, p.beta, t_go)[:3])
    hit, f, U = _assert_warm_check_is_the_scalar_rule(first, r_end, s_end, t_go)
    assert hit.all() and not np.any(f)
    assert np.allclose(U, traj.U[grid], rtol=1e-9, atol=0.0)


def test_oracle_roots_end_with_the_one_admissible_root_case_c():
    # case C: t_f = 50 s at 600 m/s from (-20 km, -10 km), heading 45 degrees
    speed = 600.0
    polar = cartesian_to_polar(CartesianState(-20000.0, -10000.0, math.pi / 4))
    query = GuidanceQuery(polar.r, polar.sigma, 50.0, speed)
    sol = command_oracle(query)
    assert sol.effort * speed**2 == pytest.approx(2.9158e4, rel=0.01)
    assert sol.roots[-1] == (sol.params.alpha, sol.params.beta, sol.effort, True)
    assert [ok for *_, ok in sol.roots].count(True) == 1
    # the paper's locally-optimal branch: collinear at 46.85 s, before the
    # impact time, so it is not admissible.  It ends on the query's range and
    # on the mirror of its look angle, so it is no root of the signed endpoint
    t_go = query.t_go
    q, b = 26.42632942934203, 2.0389234664336717  # at unit time-to-go, a root of the folded look angle
    r1, sigma1 = _endpoint(q, b, 1.0)
    assert r1 == pytest.approx(query.r / (speed * t_go), abs=1e-10)
    assert sigma1 == pytest.approx(-abs(query.sigma), abs=1e-9)  # beta > 0 solves |sigma| = 0.32175
    assert not _admissible(q, b)
    assert float(effort(q, b, 1.0)) / t_go * speed**2 == pytest.approx(5.0572e4, rel=1e-4)
    assert terminal_time(AdjointParams(q / t_go**2, b), t_bar=t_go) == pytest.approx(46.85, abs=0.05)
    # from the seed that once reached the branch, Newton reaches the answer
    ln_q, ln_b, _ = _newton(query.r / (speed * t_go), abs(query.sigma), math.log(0.0106 * t_go**2), math.log(2.04))
    assert (math.exp(ln_q) / t_go**2, -math.exp(ln_b)) == pytest.approx((sol.params.alpha, sol.params.beta), rel=1e-8)


def test_cold_solve_checks_collinearity_once_per_root(monkeypatch):
    import fitguide.extremals

    calls = {"scan": 0, "sampled": 0, "newton": 0}

    def counting(module, name, key):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    def entering(module):
        original = module._collinear_brackets

        def scan(*args, **kwargs):
            calls["scan"] += 1  # on entry: a scan that yields no bracket is not counted
            yield from original(*args, **kwargs)

        monkeypatch.setattr(module, "_collinear_brackets", scan)

    # every collinearity scan, the early-stopping check and tau* alike, runs this one loop
    entering(fitguide.extremals)
    entering(fitguide.guidance)
    # a solve returns its extremal and samples nothing, under either name
    counting(fitguide.guidance, "propagate_param", "sampled")
    counting(fitguide.extremals, "propagate_param", "sampled")
    counting(fitguide.guidance, "_newton", "newton")
    admissible = fitguide.guidance._admissible

    def rejecting_the_first(q, beta):
        ok = admissible(q, beta)
        return ok and (query is not several_roots or calls["newton"] > 1)

    monkeypatch.setattr(fitguide.guidance, "_admissible", rejecting_the_first)
    case_c = cartesian_to_polar(CartesianState(-20000.0, -10000.0, math.pi / 4))
    straight = GuidanceQuery(9000.0, 0.0, 20.0, 450.0)  # met head-on: the degenerate solution
    # the cell's seed reaches one admissible root; rejecting it makes the solve go on to the next seeds
    several_roots = GuidanceQuery(0.4, 3.138, 1.0, 1.0)
    for query in (several_roots, GuidanceQuery(case_c.r, case_c.sigma, 50.0, 600.0), straight):
        calls.update(scan=0, sampled=0, newton=0)
        sol = command_oracle(query)
        # one scan per root reached, and no seed is tried after the admissible one
        assert len(sol.roots) == calls["scan"] == calls["newton"]
        assert [ok for *_, ok in sol.roots] == [False] * (len(sol.roots) - 1) + [True] * bool(sol.roots)
        assert calls["sampled"] == 0
        if query is several_roots:
            assert len(sol.roots) >= 2
    assert sol.params == AdjointParams(1.0, 0.0) and sol.roots == ()


ADMISSIBLE_DELTAS = (0.0, 1e-15, 1e-12, NEWTON_TOL, 2 * NEWTON_TOL, 1e-3, 0.3)


def _admissible_agrees_with_terminal_time(beta, delta):
    """_admissible at q = (tau*(1 + delta))^2 against the full scan's tau*/sqrt(q) >= 1 - NEWTON_TOL."""
    q = (float(_collinear_phase(beta)) * (1.0 + delta)) ** 2
    assert _admissible(q, beta) == (terminal_time(AdjointParams(q, beta), t_bar=1.0) >= 1.0 - NEWTON_TOL)


def test_admissible_decides_as_the_full_scan():
    betas = np.concatenate([np.geomspace(1e-9, 1.0, 24), np.linspace(1e-9, math.pi - 1e-9, 24), [0.86027439]])
    for beta in betas:
        for delta in ADMISSIBLE_DELTAS:
            _admissible_agrees_with_terminal_time(beta, delta)
            _admissible_agrees_with_terminal_time(beta, -delta)
    # beta = pi is the straight line, collinear throughout
    for q in (1e-12, 1.0, 100.0):
        assert terminal_time(AdjointParams(q, math.pi), t_bar=1.0) == 0.0
        assert _admissible(q, math.pi) is False


@settings(max_examples=100, deadline=None)
@given(
    beta=st.one_of(st.floats(1e-9, math.pi - 1e-9), st.floats(math.log(1e-9), 0.0).map(math.exp)),
    delta=st.one_of(st.floats(-0.3, 0.3), st.floats(-1e-8, 1e-8), st.sampled_from(ADMISSIBLE_DELTAS)),
)
@example(beta=0.86027439, delta=-NEWTON_TOL)
def test_admissible_decides_as_the_full_scan_everywhere(beta, delta):
    _admissible_agrees_with_terminal_time(beta, delta)


def _sequential_newton(rho, sigma_abs, ln_q0, ln_b0, tol_r, tol_sigma, max_iter=40):
    """The damped Newton in (ln q, ln beta) at unit time-to-go with a forward-difference Jacobian in both columns, as a reference."""

    def residual(ln_q, ln_b):
        r, s = _endpoint(np.exp(ln_q), np.exp(ln_b), 1.0)
        return np.array([r - rho, s - sigma_abs])

    def size(f):
        return float(np.hypot(f[0] / rho, f[1]))

    def converged(f):
        return abs(f[0]) <= tol_r * rho and abs(f[1]) <= tol_sigma

    a, b = ln_q0, ln_b0
    f = residual(a, b)
    h = 1e-6
    for _ in range(max_iter):
        if converged(f):
            return a, b, f
        f3 = residual(np.array([a, a + h, a]), np.array([b, b, b + h]))
        f = f3[:, 0]
        jac = (f3[:, 1:] - f[:, None]) / h
        try:
            step = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            return None
        norm0 = size(f)
        lam = 1.0
        while lam > 1.0 / 64.0:
            a_new = a + lam * step[0]
            b_new = min(b + lam * step[1], math.log(math.pi))
            if max(abs(a_new), abs(b_new)) < -math.log(2.0**-1022):  # q and beta stay normal doubles
                f_new = residual(a_new, b_new)
                if size(f_new) < norm0:
                    a, b, f = a_new, b_new, f_new
                    break
            lam *= 0.5
        else:
            return None
    return (a, b, f) if converged(f) else None


def _array_endpoint_jacobian(ln_q, ln_b):
    """``_endpoint_jacobian`` on numpy arrays: ``evaluate`` and ``range_look_angle`` of the pair, its reference."""
    X, Y, Theta, U = evaluate(math.exp(ln_q), np.exp([ln_b, ln_b + LN_BETA_STEP]), 1.0)
    (r, r_b), (s, s_b) = range_look_angle(X, Y, Theta)
    rate = U[0] - math.sin(s) / r
    return r, s, np.array([[(math.cos(s) - r) / 2.0, (r_b - r) / LN_BETA_STEP],
                           [rate / 2.0, math.remainder(s_b - s, math.tau) / LN_BETA_STEP]])


@settings(max_examples=300, deadline=None)
@given(
    ln_q=st.floats(-0.5, 13.5),  # the root table's ln q runs from -0.21 to 13.0
    ln_b=st.floats(math.log(1e-300), math.log(math.pi)),  # up to Newton's clamp, where the step's beta passes pi
)
@example(ln_q=0.0, ln_b=math.log(math.pi))
@example(ln_q=13.0, ln_b=math.log(1e-300))
@example(ln_q=1.0, ln_b=math.log(0.86027439))  # the figure-eight elastica
def test_endpoint_jacobian_equals_the_array_formula_to_the_bit(ln_q, ln_b):
    r, s, jac = _endpoint_jacobian(ln_q, ln_b)
    r_ref, s_ref, jac_ref = _array_endpoint_jacobian(ln_q, ln_b)
    assert (np.float64(r).tobytes(), np.float64(s).tobytes(), jac.tobytes()) == (r_ref.tobytes(), s_ref.tobytes(), jac_ref.tobytes())


@settings(max_examples=200, deadline=None)
@given(
    log_alpha=st.floats(-4.0, 1.0),
    beta=st.floats(1e-9, math.pi),
    t=st.floats(0.01, 50.0),
)
# the worst cases of a 60,000-draw sweep, in R and next to the separatrix in Sigma,
# and a case next to pi where the difference is 1 % off in Sigma
@example(log_alpha=math.log10(1.4463678787556693), beta=0.8553418598915584, t=34.78740627591285)
@example(log_alpha=math.log10(8.093951276339098), beta=1.510202555799848e-08, t=49.4565283674443)
@example(log_alpha=math.log10(0.0007608442216573759), beta=3.141592652306007, t=37.94122663581753)
def test_exact_q_column_matches_central_difference(log_alpha, beta, t):
    # the extremal (alpha, beta) at time t is (q, beta) at unit time, rescaled;
    # the column is d/d ln q, differenced in ln q
    ln_q = math.log(10.0**log_alpha * t**2)
    q, h = math.exp(ln_q), 1e-5
    X, Y, Theta, _ = evaluate(np.exp(ln_q + np.array([-2.0, -1.0, 1.0, 2.0]) * h), beta, 1.0)
    R, S = range_look_angle(X, Y, Theta)
    S = np.unwrap(S)  # the signed look angle is smooth but for its jump of 2 pi at the seam +-pi
    r, _, jac = _endpoint_jacobian(ln_q, math.log(beta))
    # the difference's own error: its truncation, gauged by the difference in
    # step 2h, and its rounding.  evaluate sums terms of size 1 + 2/sqrt(q),
    # and over this domain its endpoints are good to about 2**-40 of them
    rounding = 2.0**-38 * (1.0 + 2.0 / math.sqrt(q)) / h
    for F, exact, floor in ((R, jac[0, 0], rounding), (S, jac[1, 0], rounding / r)):
        diff, diff_2h = (F[2] - F[1]) / (2.0 * h), (F[3] - F[0]) / (4.0 * h)
        assert abs(exact - diff) <= abs(diff - diff_2h) + floor


@settings(max_examples=40, deadline=None)
@given(
    ratio=st.floats(0.45, 0.8),
    look=st.floats(0.3, 1.1),
)
def test_newton_matches_finite_difference_reference_over_engage_domain(ratio, look):
    # the benchmark's engagement draw domain, scale-free: rho = r / (speed t_go)
    seeds = list(_seeds(ratio, look))
    got = [_newton(ratio, look, ln_q, ln_b) for ln_q, ln_b in seeds]
    want = [_sequential_newton(ratio, look, ln_q, ln_b, 1e-9, 1e-9) for ln_q, ln_b in seeds]
    assert [g is None for g in got] == [w is None for w in want]
    for g, w in zip(got, want):
        if w is not None:  # in ln q and ln beta: relative in q and beta
            assert abs(g[0] - w[0]) <= 1e-9
            assert abs(g[1] - w[1]) <= 1e-9


def _assert_collinearity_free(query, sol):
    if sol.params.beta != 0.0:  # the straight line has no collinearity time
        assert terminal_time(sol.params, t_bar=query.t_go) == query.t_go


@settings(max_examples=40, deadline=None)
@given(
    t_go=st.floats(15.0, 50.0),
    speed=st.floats(300.0, 600.0),
    ratio=st.floats(0.45, 0.8),
    look=st.floats(0.3, 1.1),
    sign=st.sampled_from([-1.0, 1.0]),
)
def test_oracle_roots_collinearity_free_over_engage_domain(t_go, speed, ratio, look, sign):
    # the benchmark's engagement draw domain, solved cold
    query = GuidanceQuery(ratio * speed * t_go, sign * look, t_go, speed)
    try:
        sol = command_oracle(query)
    except GuidanceError:
        assume(False)
    _assert_collinearity_free(query, sol)


def test_oracle_roots_collinearity_free_in_closed_loop(monkeypatch):
    # every solve of receding-horizon engagements, the first and each
    # re-solve, is collinearity-free and depends on its query alone
    solves = []
    solve = fitguide.sim.command_oracle

    def recorded(query):
        sol = solve(query)
        solves.append((query, sol))
        return sol

    monkeypatch.setattr(fitguide.sim, "command_oracle", recorded)
    # a coarse step drifts off the replayed plan, so each run re-solves
    for start, speed, t_f in (
        (CartesianState(-10000.0, 0.0, math.pi / 3), 500.0, 25.0),
        (CartesianState(-20000.0, -10000.0, math.pi / 4), 600.0, 50.0),
    ):
        first = len(solves)
        simulate(Scenario(start, speed, t_f, guidance="oracle", dt=0.2))
        assert len(solves) > first + 1
    for query, sol in solves:
        _assert_collinearity_free(query, sol)
        fresh = solve(query)
        assert (sol.params, sol.command, sol.effort, sol.roots) == (fresh.params, fresh.command, fresh.effort, fresh.roots)


@pytest.mark.parametrize(
    "ratio, look, t_go, j_ref",
    [
        (0.9796, 0.6821, 31.298, 0.0296234895),   # root at beta 0.00789
        (0.9435, 1.3632, 32.362, 0.138268905),    # root at beta 0.00137
        (0.9443, 1.0654, 29.563, 0.0694279675),   # root at beta 0.0265
        (0.9443, -1.0654, 29.563, 0.0694279675),  # its mirror
    ],
)
def test_oracle_solves_small_beta_queries(ratio, look, t_go, j_ref):
    # the admissible roots lie below beta = pi/48, where a (q, beta) seed
    # grid that starts there finds none; efforts from a dense brute-force polish
    sol = command_oracle(GuidanceQuery(ratio * t_go, look, t_go, 1.0))
    assert sol.effort == pytest.approx(j_ref, rel=1e-7)
    assert terminal_time(sol.params, t_bar=t_go) == t_go
    assert (sol.params.beta < 0.0) == (look < 0.0)


@pytest.mark.parametrize(
    "ratio, look, t_go, beta",
    [
        (0.908761, 2.962632, 42.148999, 1.66e-8),
        (0.921595, 2.277771, 33.940034, 2.05e-6),
        (0.881739, 3.031936, 35.649709, 9.31e-7),
        (0.8934, 2.4314, 31.442, 3.03e-5),
        (0.9101, 3.141, 1.0, 1.84e-9),  # refused while Newton clamped beta to 1e-9
    ],
)
def test_oracle_solves_roots_next_to_the_separatrix(ratio, look, t_go, beta):
    # roots at betas below a fixed 1e-6 difference step in beta, which Newton missed
    sol = command_oracle(GuidanceQuery(ratio * t_go, look, t_go, 1.0))
    assert sol.params.beta == pytest.approx(beta, rel=0.01)
    assert terminal_time(sol.params, t_bar=t_go) == t_go


@settings(max_examples=30, deadline=None)
@given(
    t_go=st.floats(15.0, 50.0),
    ratio=st.floats(0.45, 0.8),
    look=st.floats(0.3, 1.1),
    sign=st.sampled_from([-1.0, 1.0]),
    points=st.lists(
        st.tuples(st.floats(0.05, 1.02), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)), min_size=1, max_size=8
    ),
)
def test_warm_check_agrees_with_the_scalar_warm_rule(t_go, ratio, look, sign, points):
    # points on a solved extremal, moved off it by up to three warm tolerances
    # in range and look angle, and up to 2 % past its horizon
    sol = command_oracle(GuidanceQuery(ratio * t_go, sign * look, t_go, 1.0))
    p = sol.params
    frac, c_r, c_s = (np.array(v) for v in zip(*points))
    t = frac * t_go
    r_end, s_end = range_look_angle(*evaluate(p.alpha, p.beta, t)[:3])
    r = r_end + c_r * 1e-5 * (1.0 + r_end)
    s = np.clip(s_end + c_s * 1e-5, -math.pi, math.pi)
    _assert_warm_check_is_the_scalar_rule(sol, r, s, t)


@functools.cache
def _dense_chart():
    """(ln q, ln beta) and endpoints of a 240 x 240 chart of admissible extremals at unit time-to-go.

    rho = sqrt(q) / tau*(beta) runs linearly over (0, 1]; a third of the
    betas run geometrically from 1e-10 to 0.2, the rest linearly to pi - 1e-3.
    """
    n = 240
    rho = np.linspace(1.0 / n, 1.0, n)[:, None]
    beta = np.concatenate([np.geomspace(1e-10, 0.2, n // 3), np.linspace(0.2, math.pi - 1e-3, n - n // 3 + 1)[1:]])
    tau = sweep_cells(np.ones(n), beta, 1.0, 1.0).t_collinear
    q = (rho * tau) ** 2
    return (np.log(q), np.broadcast_to(np.log(beta), q.shape), *_endpoint(q, beta, 1.0))


def _brute_force_efforts(r_norm, sigma_abs, t_go):
    """Efforts of the admissible roots Newton polishes from the dense chart.

    Newton starts from every local minimum of the residual on the chart and
    from one corner of every cell around which the residual winds.
    """
    ln_q, ln_b, r1, s1 = _dense_chart()
    rho = r_norm / t_go
    fr, fs = (r1 - rho) / rho, s1 - sigma_abs
    res = np.hypot(fr, fs)
    pad = np.pad(res, 1, constant_values=np.inf)
    n0, n1 = res.shape
    around = [pad[1 + i : 1 + i + n0, 1 + j : 1 + j + n1] for i in (-1, 0, 1) for j in (-1, 0, 1) if i or j]
    seeds = res <= np.min(around, axis=0)
    phase = np.arctan2(fs, fr)
    corners = [phase[:-1, :-1], phase[1:, :-1], phase[1:, 1:], phase[:-1, 1:]]
    turn = sum(np.mod(c1 - c0 + math.pi, 2.0 * math.pi) - math.pi for c0, c1 in zip(corners, corners[1:] + corners[:1]))
    seeds[:-1, :-1] |= np.abs(turn) > math.pi
    idx = np.flatnonzero(seeds)
    hits = [_newton(rho, sigma_abs, ln_q.flat[k], ln_b.flat[k]) for k in idx]
    roots = [(math.exp(lq), math.exp(lb)) for lq, lb, _ in filter(None, hits)]
    return [float(effort(q, beta, 1.0)) / t_go for q, beta in roots if _admissible(q, beta)]


@settings(max_examples=40, deadline=None)
@given(
    t_go=st.floats(1.0, 50.0),
    ratio=st.floats(0.02, 0.88),
    look=st.floats(1e-3, math.pi - 0.01),
    sign=st.sampled_from([-1.0, 1.0]),
)
# short range near the look angle's far end: the brute force finds the root
# that the winding scan's seeds missed
@example(t_go=10.028600563008792, ratio=0.07709738018718164, look=3.128781045839048, sign=1.0)
# the box's far corner, next to the small-beta strip; from r/t_go 0.885 on,
# at look angles above 2, Newton misses a few queries in a thousand
@example(t_go=1.0, ratio=0.88, look=math.pi - 0.01, sign=1.0)
@example(t_go=50.0, ratio=0.88, look=math.pi - 0.01, sign=-1.0)
# roots with beta below 1e-4 at short horizons: Newton reaches them only with
# a scale-invariant merit
@example(t_go=1.0, ratio=0.83, look=2.5956, sign=1.0)
@example(t_go=1.0, ratio=0.85, look=2.5956, sign=-1.0)
@example(t_go=1.0, ratio=0.849609375, look=2.71875, sign=1.0)
@example(t_go=1.0, ratio=0.85, look=2.7997, sign=-1.0)
@example(t_go=1.5, ratio=0.85, look=2.7997, sign=1.0)
def test_oracle_returns_the_one_admissible_root_of_the_brute_force(t_go, ratio, look, sign):
    # the admissible chart maps one-to-one (test_admissible_chart_jacobian_keeps_one_sign),
    # so no search finds a second admissible root, and the oracle stops at the first
    efforts = _distinct(_brute_force_efforts(ratio * t_go, look, t_go))
    assert len(efforts) <= 1, efforts
    rho = ratio * t_go / t_go  # as the oracle forms it
    seeded = filter(None, (_newton(rho, look, *seed) for seed in _seeds(rho, look)))
    reached = [(math.exp(ln_q), math.exp(ln_b)) for ln_q, ln_b, _ in seeded]
    assert len(_distinct([float(effort(q, b, 1.0)) for q, b in reached if _admissible(q, b)])) <= 1
    try:
        sol = command_oracle(GuidanceQuery(ratio * t_go, sign * look, t_go, 1.0))
    except GuidanceError:
        assert not efforts, "the brute force finds an admissible root"
        return
    if efforts:
        assert sol.effort == pytest.approx(efforts[0], rel=1e-7)


def _distinct(efforts):
    """The distinct roots among efforts: two that agree to 1e-7 relative are one root."""
    out = []
    for j in sorted(efforts):
        if not out or j > (1.0 + 1e-7) * out[-1]:
            out.append(j)
    return out


@functools.cache
def _root_table_builder():
    """tools/build_root_table.py, loaded as a module."""
    path = Path(__file__).resolve().parents[1] / "tools" / "build_root_table.py"
    spec = importlib.util.spec_from_file_location("build_root_table", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@functools.cache
def _rebuilt_root_table():
    return _root_table_builder().build()


# another libm may walk a node's Newton to another point within NEWTON_TOL:
# seen 1.8e-7 relative between the chart's and the table's seeds
ROOT_TABLE_REBUILD_TOL = 1e-6  # absolute, in ln q and ln beta


def test_root_table_rebuild_matches_the_committed_file():
    rebuilt, committed = np.loadtxt(io.StringIO(_rebuilt_root_table())), np.loadtxt(ROOT_TABLE)
    assert rebuilt.shape == committed.shape == (len(ROOT_TABLE_RHO) * len(ROOT_TABLE_SIGMA), 2)
    refused = np.isnan(committed)
    assert np.array_equal(refused[:, 0], refused[:, 1])
    assert np.array_equal(np.isnan(rebuilt), refused)
    assert np.max(np.abs(rebuilt - committed)[~refused]) <= ROOT_TABLE_REBUILD_TOL


@pytest.mark.skipif(
    not os.environ.get("FITGUIDE_EXACT_TABLE"),
    reason="the committed table's bytes hold for this build's libm and numpy "
    "(set FITGUIDE_EXACT_TABLE=1 to run)",
)
def test_root_table_rebuild_is_byte_exact():
    assert _rebuilt_root_table() == ROOT_TABLE.read_text()


def _table_query(rho, look):
    """The oracle's answer at unit time-to-go and speed, or None where it refuses."""
    try:
        return command_oracle(GuidanceQuery(rho, look, 1.0, 1.0))
    except GuidanceError:
        return None


# nodes (i, j) of the 60 x 60 grid rho = linspace(0.01, 0.99, 60),
# |sigma| = linspace(0, pi, 60) that the winding scan of a 64 x 64 chart,
# the oracle's former fallback and table builder, left refused
@pytest.mark.parametrize("i, j", [(1, 1), (1, 56), (2, 1), (53, 49), (54, 42), (56, 35)])
def test_table_seed_solves_what_the_chart_refuses(i, j):
    rho, look = np.linspace(0.01, 0.99, 60)[i].item(), np.linspace(0.0, math.pi, 60)[j].item()
    efforts = _brute_force_efforts(rho, look, 1.0)
    assert efforts and _table_query(rho, look).effort == pytest.approx(min(efforts), rel=1e-7)


def _wrapped(d):
    """Differences d of signed look angles wrapped into [-pi, pi]: d itself, to the bit, where |d| <= pi."""
    return np.where(np.abs(d) > math.pi, d - np.copysign(math.tau, d), d)


def _chart_jacobian(rho_c, beta, eps=1e-4):
    """R1, Sigma1 and det d(R1, Sigma1)/d(log q, log beta), with its error bound, on a chart at unit time-to-go.

    The chart is rho_c (rows) by beta (columns), q = (rho_c tau*(beta))**2.
    The q column is exact (``_endpoint_jacobian``).  The beta column is a
    central difference in log beta at steps eps and 2 eps, Richardson
    extrapolated; its error is bounded by the two differences' gap plus a
    rounding floor (evaluate's endpoints are good to about 2**-40 of its
    terms, of size 1 + 2/sqrt(q)).
    """
    q = (rho_c[:, None] * _collinear_phase(beta)) ** 2
    X, Y, Theta, U = evaluate(q, beta, 1.0)
    r, s = range_look_angle(X, Y, Theta)
    q_col = ((np.cos(s) - r) / 2.0, (U - np.sin(s) / r) / 2.0)
    far_m, near_m, near_p, far_p = (range_look_angle(*evaluate(q, beta * math.exp(k * eps), 1.0)[:3]) for k in (-2, -1, 1, 2))
    floor = 2.0**-40 * (1.0 + 2.0 / np.sqrt(q)) / eps
    beta_col = []
    for i, scale in ((0, 1.0), (1, r)):
        # Sigma's differences wrap at +-pi, as math.remainder(d, 2 pi) does; R's lie far inside it
        near = _wrapped(near_p[i] - near_m[i]) / (2.0 * eps)
        far = _wrapped(far_p[i] - far_m[i]) / (4.0 * eps)
        beta_col.append(((4.0 * near - far) / 3.0, np.abs(near - far) + floor / scale))
    (r_b, r_err), (s_b, s_err) = beta_col
    det = q_col[0] * s_b - q_col[1] * r_b
    return r, s, det, np.abs(q_col[0]) * s_err + np.abs(q_col[1]) * r_err + r_err * s_err


# rho_c in (0, 1) by beta; the betas run geometrically to pi/16, then linearly to pi(1 - 1/256)
CERTIFIED_CHARTS = {
    "whole": (np.linspace(0.01, 0.995, 300), np.concatenate([
        np.geomspace(1e-30, math.pi / 16.0, 150), np.linspace(math.pi / 16.0, math.pi * (1.0 - 1.0 / 256.0), 151)[1:]])),
    "figure-eight": (np.linspace(0.01, 0.995, 400), np.linspace(0.84, 0.88, 400)),  # around beta* = 0.86027439
    "small-beta": (np.linspace(0.01, 0.995, 300), np.geomspace(1e-300, 1e-9, 300)),
}


@pytest.mark.parametrize("chart", CERTIFIED_CHARTS)
def test_admissible_chart_jacobian_keeps_one_sign(chart):
    # the endpoint map (rho_c, beta) -> (R1, Sigma1) is a local diffeomorphism
    # wherever this determinant keeps its sign, and with the edges of
    # test_admissible_chart_edges_map_to_the_boundary it is one-to-one
    # (Hadamard's global inverse function theorem): one admissible root per query
    r, s, det, err = _chart_jacobian(*CERTIFIED_CHARTS[chart])
    resolved = np.abs(det) > err
    print(f"{chart}: {resolved.sum()} cells resolved, {(det[resolved] < 0).sum()} of them negative, {(~resolved).sum()} not")
    if not resolved.all():
        gap, look = 1.0 - r[~resolved], s[~resolved]
        print(f"  unresolved: 1 - R1 in [{gap.min():.3g}, {gap.max():.3g}], Sigma1 in [{look.min():.3g}, {look.max():.3g}]")
    assert np.all(det[resolved] > 0.0)
    # only cells next to the (1, 0) corner or the rho = 1 edge lie below resolution
    inner = (1.0 - r > 1e-4) & (s > 1e-4) & (s < math.pi - 1e-4)
    assert np.all(resolved[inner])


def test_admissible_chart_edges_map_to_the_boundary():
    # the chart's edges map onto the edges of the reachable set {0 < rho < 1, 0 < sigma < pi}
    beta = np.concatenate([np.geomspace(1e-300, 1e-9, 50), np.linspace(1e-9, math.pi * (1.0 - 1.0 / 256.0), 200)])
    tau = _collinear_phase(beta)
    # rho_c -> 0: the point (1, 0)
    r, s = _endpoint((1e-6 * tau) ** 2, beta, 1.0)
    assert np.all(1.0 - r <= 2e-10) and np.all(s <= 1e-10)
    # rho_c -> 1: the collinear edges sigma = 0 and sigma = pi, both reached
    r, s = _endpoint(((1.0 - 1e-12) * tau) ** 2, beta, 1.0)
    assert np.all(np.minimum(s, math.pi - s) <= 2e-9)
    assert np.any(s < 1.0) and np.any(s > 2.0)
    rho_c = np.linspace(0.001, 0.999, 999)
    # beta -> pi: the point (1, 0) again, linearly in pi - beta
    for gap in (1e-6, 1e-9, 1e-12):
        r, s = _endpoint((rho_c * _collinear_phase(math.pi - gap)) ** 2, math.pi - gap, 1.0)
        assert np.all(1.0 - r <= 3e-12) and np.all(s <= 1.1 * gap)
    # beta -> 0: the column's nearest point to the target approaches rho = 1
    nearest = [_endpoint((rho_c * _collinear_phase(b)) ** 2, b, 1.0)[0].min() for b in (1e-9, 1e-30, 1e-100, 1e-300)]
    assert nearest == sorted(nearest)
    assert nearest == pytest.approx([0.9144, 0.9739, 0.9934, 0.9988], abs=1e-4)


# (rho, |sigma|) of the small-beta strip next to rho = 1, the root (q, beta)
# and effort that the oracle returns there at unit time-to-go and speed, and
# R1, Sigma1 and the effort of that extremal at unit time from a 60-digit
# Taylor integration of the parameterized system with its effort integrand
# (mpmath.odefun), rounded to 17 digits.  Newton reached none of them while it
# clamped beta to 1e-9.  The last two, next to the corner (1, pi), it reached
# only once the look angle was signed; their references are a 30-digit
# mpmath.odefun integration for R1 and Sigma1 and mpmath.quad of its U**2/2.
STRIP_ROOTS = [
    (0.98, 2.0, 2112.3314638922116, 4.897831803318307e-20, 0.97999999999998174, 2.0000000000004657, 43.726986501467188),
    (0.95, 2.5, 749.5819291467969, 7.723166213711936e-12, 0.94999999999935076, 2.5000000000097626, 39.421889545462168),
    (0.93, 2.9, 631.2831407185322, 9.064547792878604e-11, 0.92999999999998952, 2.9000000000001447, 46.331179043640572),
    (0.988, 3.05, 25292.595285362742, 6.566013559041026e-69, 0.98799999999617897, 3.0500000005791930, 305.53237008103572),
    (0.995, 3.0, 138164.6191911946, 2.7800632998141845e-161, 0.99499999999904717, 3.0000000002653792, 692.82385380990659),
]


@pytest.mark.parametrize("rho, look, q, beta, r_ref, sigma_ref, j_ref", STRIP_ROOTS, ids=[f"{r[0]}-{r[1]}" for r in STRIP_ROOTS])
def test_oracle_solves_the_small_beta_strip(rho, look, q, beta, r_ref, sigma_ref, j_ref):
    sol = command_oracle(GuidanceQuery(rho, look, 1.0, 1.0))
    assert sol.params.alpha == pytest.approx(q, rel=1e-6)
    assert sol.params.beta == pytest.approx(beta, rel=1e-4)
    assert sol.effort == pytest.approx(j_ref, rel=1e-6)
    assert terminal_time(sol.params, t_bar=1.0) == 1.0
    # the closed form at the root: its endpoint and its effort, whose two terms
    # cancel at small beta (extremals.effort), were 1.3e-14 relative off or
    # better up to q = 2112.  At the two corner roots the phase sqrt(q) carries
    # a few ulps of itself into Sigma1 (2.0e-14 and 8.3e-14 relative seen), and
    # the effort's terms, of size q, a few ulps of q (2.4e-14 and 1.2e-13)
    r, sigma = _endpoint(q, beta, 1.0)
    assert r == pytest.approx(r_ref, rel=1e-13)
    assert sigma == pytest.approx(sigma_ref, rel=1e-13, abs=2.0**-50 * math.sqrt(q))
    assert float(effort(q, beta, 1.0)) == pytest.approx(j_ref, rel=1e-13, abs=2.0**-49 * q)


# the rho of np.linspace(0.05, 0.95, 19) that the oracle may still refuse at
# unit time-to-go and speed, by |sigma|: none
SMALL_LOOK_REFUSALS = {0.0: set(), 1e-9: set(), 1e-3: set(), 3e-3: set(), 1e-2: set(), 3e-2: set()}
# the ones that the winding scan's seeds left refused, although the brute
# force finds an admissible root next to the collinearity fold
SMALL_LOOK_SOLVED_SINCE_THE_CHART = {
    0.0: {0.05},
    1e-9: {0.05},
    1e-3: {0.05, 0.1, 0.15, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6, 0.65, 0.85},
    3e-3: {0.05, 0.1},
    1e-2: {0.05, 0.1},
    3e-2: set(),
}


@pytest.mark.parametrize("look", SMALL_LOOK_REFUSALS)
def test_oracle_small_look_angle_map(look):
    refused = set()
    for rho in np.linspace(0.05, 0.95, 19).tolist():
        try:
            sol = command_oracle(GuidanceQuery(rho, look, 1.0, 1.0))
        except GuidanceError:
            refused.add(round(rho, 2))
            continue
        if round(rho, 2) in SMALL_LOOK_SOLVED_SINCE_THE_CHART[look]:
            efforts = _distinct(_brute_force_efforts(rho, look, 1.0))
            assert len(efforts) == 1 and sol.effort == pytest.approx(efforts[0], rel=1e-7), rho
        # a head-on root is collinear at the time-to-go itself, and one that is
        # collinear a hair before it is admitted within Newton's tolerance:
        # it must be the brute force's admissible root
        elif look <= 1e-9 and terminal_time(sol.params, t_bar=1.0) < 1.0:
            efforts = _brute_force_efforts(rho, look, 1.0)
            assert efforts and sol.effort <= (1.0 + 1e-7) * min(efforts), rho
    assert refused <= SMALL_LOOK_REFUSALS[look]


def test_oracle_refuses_only_next_to_the_small_beta_strip():
    # a coarse scale-free map: every refusal lies past the root table's last
    # row, rho = 0.997.  Of 8,000 uniform draws (rho 0.005-0.999) 7 are
    # refused, all at rho >= 0.9978
    refused = []
    for rho in np.linspace(0.01, 0.99, 30).tolist():
        for look in np.linspace(0.0, math.pi, 30).tolist():
            if _table_query(rho, look) is None:
                refused.append((rho, look))
    print(f"{len(refused)} of 900 refused")
    assert [(rho, look) for rho, look in refused if rho < ROOT_TABLE_RHO[-1]] == []


@pytest.mark.parametrize("rho, look, reached", [(0.9985, 2.1229, 0), (0.988, 3.05, 4)])
def test_oracle_refusal_says_which_kind(rho, look, reached, monkeypatch):
    # past the table's last row no seed converges.  No query is known where
    # Newton converges only to roots collinear before the time-to-go, so
    # that kind is made here by rejecting every root it reaches
    if reached:
        monkeypatch.setattr(fitguide.guidance, "_admissible", lambda q, beta: False)
    message = f"no admissible extremal found: Newton reached {reached} root(s), none collinearity-free"
    with pytest.raises(GuidanceError) as refusal:
        command_oracle(GuidanceQuery(rho, look, 1.0, 1.0))
    assert str(refusal.value) == message


def test_pn_command_conventions():
    assert pn_command(PolarState(1000.0, 0.0), speed=300.0) == 0.0
    u_polar = pn_command(PolarState(2000.0, 0.5), speed=300.0)
    assert u_polar == pytest.approx(3.0 * 300.0 * math.sin(0.5) / 2000.0)
    with pytest.raises(ValueError):
        pn_command(PolarState(0.0, 0.0), speed=300.0)


def test_solve_ocp_straight_line():
    sol = solve_ocp(CartesianState(-5000.0, 0.0, 0.0), speed=250.0, t_f=20.0)
    assert sol.effort == pytest.approx(0.0, abs=1e-9)
    assert sol.miss <= 1e-6 * 5000.0
    assert np.all(sol.u == 0.0)


def test_solve_ocp_straight_line_off_axis_is_warning_free():
    start = CartesianState(3000.0, -4000.0, math.atan2(4000.0, -3000.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_ocp(start, speed=250.0, t_f=20.0)
    assert sol.oracle.params == AdjointParams(1.0, 0.0)
    assert np.all(sol.u == 0.0) and sol.effort == 0.0 and sol.miss == 0.0
    # flown straight down the line of sight at constant heading
    assert np.allclose(sol.r, 250.0 * (20.0 - sol.t), rtol=0.0, atol=1e-6)
    assert np.allclose(sol.theta, start.theta, rtol=0.0, atol=1e-12)


def _held_command_flight(initial, speed, t_f, sol, dt=0.01):
    """Fly the oracle's extremal, sampled in costate form, step by step as an independent reference.

    The command is interpolated on the sampled extremal at each step's
    midpoint time-to-go and held over the step, so the flight carries the
    interpolation and hold errors that the closed form does not.
    """
    t_go = sol.normalized_t_go
    traj = propagate_param(sol.params, t_go, min(0.01, max(0.0025, t_go / 4000.0)))
    xs, ys, us = [initial.x], [initial.y], []
    state, t = initial, 0.0
    for _ in range(int(math.ceil(t_f / dt - 1e-9))):
        h = min(dt, t_f - t)
        u = float(np.interp(max(t_f - t - 0.5 * h, 0.0), traj.t, traj.U))
        us.append(u)
        state = step_cartesian(state, u, h, speed)
        t += h
        xs.append(state.x)
        ys.append(state.y)
    return np.array(xs), np.array(ys), np.array(us)


@settings(max_examples=30, deadline=None)
@given(
    t_f=st.floats(20.0, 60.0),
    speed=st.floats(100.0, 900.0),
    ratio=st.floats(0.45, 0.9),
    los=st.floats(-math.pi, math.pi),
    look=st.floats(0.05, 2.0),
    sign=st.sampled_from([-1.0, 1.0]),
)
def test_solve_ocp_matches_held_command_flight(t_f, speed, ratio, los, look, sign):
    r0 = ratio * speed * t_f
    start = CartesianState(r0 * math.cos(los), r0 * math.sin(los), math.pi + los - sign * look)
    try:
        sol = solve_ocp(start, speed, t_f)
    except GuidanceError:
        assume(False)
    x, y, u = _held_command_flight(start, speed, t_f, sol.oracle)
    assert sol.x.shape == x.shape and sol.u.shape == u.shape
    assert np.max(np.hypot(sol.x - x, sol.y - y)) <= 1e-6 * r0
    assert np.max(np.abs(sol.u - u)) <= 1e-6


def test_solve_ocp_case_a_published_efforts():
    for t_f, j_ref in ((30.0, 3.0563e4), (50.0, 3.9625e4)):
        sol = solve_ocp(CartesianState(-10000.0, 0.0, math.pi / 3), 500.0, t_f)
        assert sol.effort == pytest.approx(j_ref, rel=0.01)
        assert sol.miss <= 5.0


def test_solve_ocp_infeasible_rejected():
    with pytest.raises(GuidanceError, match="unreachable"):
        solve_ocp(CartesianState(-10000.0, 0.0, 0.1), speed=100.0, t_f=5.0)


@pytest.mark.parametrize("dt", [0.0, -0.01, math.inf, math.nan])
def test_solve_ocp_rejects_a_non_finite_or_non_positive_dt(dt):
    with pytest.raises(ValueError, match="dt must be finite and positive"):
        solve_ocp(CartesianState(-10000.0, 0.0, math.pi / 3), 500.0, 25.0, dt=dt)


def test_terminal_command_vanishes():
    sol = solve_ocp(CartesianState(-10000.0, 0.0, math.pi / 3), 500.0, 25.0)
    alpha = sol.oracle.params.alpha
    dt = sol.t[1] - sol.t[0]
    assert abs(sol.u[-1]) <= 10.0 * alpha * 500.0 * dt


def test_solve_ocp_look_angle_interior():
    sol = solve_ocp(CartesianState(-10000.0, 0.0, math.pi / 3), 500.0, 40.0)
    inner = np.abs(sol.sigma[1:-1])
    assert np.all(inner > 0.0)
    assert np.all(inner < math.pi)


# the look angles of a solve_ocp path, flown from the extremal's own state,
# against the extremal's: the path is rotated and scaled off the extremal, and
# kinematics forms its look angle from other arithmetic (2.3e-15 at most seen
# over 1,039 such paths)
LOOK_ANGLE_PATH_TOL = 1e-13


@settings(max_examples=40, deadline=None)
@given(
    log_alpha=st.floats(math.log(1e-3), math.log(1e1)),
    beta=st.one_of(st.floats(1e-9, math.pi - 1e-9), st.floats(math.log(1e-9), 0.0).map(math.exp)),
    # below about 1e-5 of the collinearity phase, c is O(tau**3) and its rounding may take either sign
    frac=st.floats(1e-2, 1.0 - 1e-6),
    sign=st.sampled_from([-1.0, 1.0]),
)
def test_signed_look_angle_is_one_convention(log_alpha, beta, frac, sign):
    alpha = math.exp(log_alpha)
    t = frac * float(_collinear_phase(beta)) / math.sqrt(alpha)
    X, Y, Theta, _ = evaluate(alpha, sign * beta, t)
    r, sigma = range_look_angle(X, Y, Theta)
    # before the first collinearity Sigma has beta's sign, and its magnitude
    # is the folded look angle atan2(|c|, dot) to the bit
    cross, dot = Y * np.cos(Theta) - X * np.sin(Theta), -(X * np.cos(Theta) + Y * np.sin(Theta))
    assert sign * sigma > 0.0
    assert abs(sigma) == np.arctan2(np.abs(cross), dot)
    # kinematics signs the look angle the same way: solve from the extremal's
    # state at t, and each interior node's look angle is the plan's Sigma
    try:
        path = solve_ocp(CartesianState(-float(r), 0.0, -float(sigma)), 1.0, t, dt=t / 100.0)
    except GuidanceError:
        assume(False)
    p = path.oracle.params
    _, planned = range_look_angle(*evaluate(p.alpha, p.beta, t - path.t[1:-1])[:3])
    assert np.array_equal(np.sign(path.sigma[1:-1]), np.sign(planned))
    assert np.max(np.abs(path.sigma[1:-1] - planned)) <= LOOK_ANGLE_PATH_TOL


@pytest.mark.skipif(
    not os.environ.get("FITGUIDE_PAPER_SCALE"),
    reason="needs a paper-scale model (full grid, MSE<=1e-4); the desk-scale "
    "reduced model measures median 3.6%, p95 47.5% over this draw "
    "(set FITGUIDE_PAPER_SCALE=1 to run)",
)
def test_network_tracks_oracle_over_domain(model):
    rng = np.random.default_rng(42)
    rel = []
    while len(rel) < 1000:
        t_go = rng.uniform(0.3, 0.9 * model.t_bar)
        sigma = rng.uniform(0.05, math.pi - 0.2)
        r = rng.uniform(0.25, 0.98) * t_go
        try:
            q = GuidanceQuery(r, sigma, t_go, 1.0)
            u_star = command_oracle(q).command
        except GuidanceError:
            continue
        if abs(u_star) < 1e-6:
            continue
        rel.append(abs(command_nn(model, q) - u_star) / abs(u_star))
    rel = np.array(rel)
    assert np.median(rel) <= 0.02
    assert np.percentile(rel, 95) <= 0.10


@settings(max_examples=50, deadline=None)
@given(
    t_go=st.floats(15.0, 50.0),
    ratio=st.floats(0.45, 0.8),
    look=st.floats(0.3, 1.1),
    sign=st.sampled_from([-1.0, 1.0]),
)
# t_go**2 (C pow) rounds apart from t_go * t_go here, which broke the alpha scaling
@example(t_go=20.282809473863487, ratio=0.5, look=1.0, sign=-1.0)
def test_oracle_is_scale_invariant(t_go, ratio, look, sign):
    # the oracle solves at unit time-to-go and t_go only scales its answer;
    # powers of two keep every rescaling exact in floating point, so the
    # scaled answers agree to the bit, out to hours of time-to-go
    r = ratio * t_go
    try:
        base = command_oracle(GuidanceQuery(r, sign * look, t_go, 1.0))
    except GuidanceError:
        base = None
    for lam in (0.25, 4.0, 256.0, 1024.0):
        query = GuidanceQuery(lam * r, sign * look, lam * t_go, 1.0)
        if base is None:
            with pytest.raises(GuidanceError, match="no admissible extremal"):
                command_oracle(query)
            continue
        sol = command_oracle(query)
        assert (sol.params.alpha * lam**2, sol.params.beta) == (base.params.alpha, base.params.beta)
        assert tuple((a * lam**2, b, j * lam, ok) for a, b, j, ok in sol.roots) == base.roots
        assert (sol.command * lam, sol.effort * lam) == (base.command, base.effort)
        assert sol.residual == (lam * base.residual[0], base.residual[1])


def _fresh_process_output(code):
    """What ``code`` prints, run in a fresh interpreter that imports this fitguide."""
    import subprocess
    import sys

    src = str(Path(fitguide.guidance.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout.split()


def test_import_builds_no_seed_table():
    code = "import sys, fitguide, fitguide.guidance as g; print(g._root_table.cache_info().currsize, 'scipy' in sys.modules)"
    assert _fresh_process_output(code) == ["0", "False"]
