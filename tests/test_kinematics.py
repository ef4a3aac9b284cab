import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fitguide import (
    CartesianState,
    PolarState,
    cartesian_to_polar,
    step_cartesian,
    wrap_angle,
)
from fitguide.kinematics import _bind_look_angle, _wrap_angles, fly_arcs, look_angles


def _substeps(dt, max_substep):
    n = max(1, int(math.ceil(dt / max_substep - 1e-12)))
    return n, dt / n


def cartesian_reference(state, u, dt, speed, max_substep=1e-3):
    """Classical RK4 on (x, y, theta) in substeps of at most max_substep."""
    x, y, th = state.x, state.y, state.theta
    n, h = _substeps(dt, max_substep)
    for _ in range(n):
        th2 = th + 0.5 * h * u
        th4 = th + h * u
        x += h / 6.0 * speed * (math.cos(th) + 4.0 * math.cos(th2) + math.cos(th4))
        y += h / 6.0 * speed * (math.sin(th) + 4.0 * math.sin(th2) + math.sin(th4))
        th = th4
    return CartesianState(x, y, wrap_angle(th))


def polar_reference(state, u, dt, speed, max_substep=0.005):
    """Classical RK4 on the polar rates (r, sigma) in substeps of at most max_substep."""
    if dt <= 0.0:
        raise ValueError("invalid state: dt must be positive")
    if speed <= 0.0:
        raise ValueError("invalid state: speed must be positive")
    if state.r <= speed * dt:
        raise ValueError("step crosses target")
    r, s = state.r, state.sigma
    n, h = _substeps(dt, max_substep)
    for _ in range(n):
        k1r = -speed * math.cos(s)
        k1s = speed * math.sin(s) / r - u
        r2 = r + 0.5 * h * k1r
        s2 = s + 0.5 * h * k1s
        k2r = -speed * math.cos(s2)
        k2s = speed * math.sin(s2) / r2 - u
        r3 = r + 0.5 * h * k2r
        s3 = s + 0.5 * h * k2s
        k3r = -speed * math.cos(s3)
        k3s = speed * math.sin(s3) / r3 - u
        r4 = r + h * k3r
        s4 = s + h * k3s
        k4r = -speed * math.cos(s4)
        k4s = speed * math.sin(s4) / r4 - u
        r += h / 6.0 * (k1r + 2.0 * k2r + 2.0 * k3r + k4r)
        s += h / 6.0 * (k1s + 2.0 * k2s + 2.0 * k3s + k4s)
    return PolarState(r, wrap_angle(s))


def _angle_gap(a, b):
    return abs(wrap_angle(a - b))


def test_wrap_angle_range():
    for a in np.linspace(-20, 20, 1001):
        w = wrap_angle(float(a))
        assert -math.pi < w <= math.pi
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)


# magnitudes up to 1e300 of either sign, and the edges of the wrap and of fmod
wrap_inputs = st.one_of(
    st.floats(-20.0, 20.0),
    st.builds(lambda sign, m, e: sign * m * 10.0**e, st.sampled_from((1.0, -1.0)), st.floats(1.0, 10.0),
              st.integers(-300, 299)),
    st.sampled_from((0.0, -0.0, math.pi, -math.pi, 2.0 * math.pi, -2.0 * math.pi, math.inf, -math.inf, math.nan)),
)


@settings(max_examples=300, deadline=None)
@given(angles=st.lists(wrap_inputs, min_size=1, max_size=40))
@example(angles=[0.0, -0.0, math.pi, -math.pi, 2.0 * math.pi, math.inf, -math.inf, math.nan, 1e300, -1e300])
def test_wrap_angles_equals_the_fmod_form(angles):
    # fmod runs only outside [0, 2 pi) after the shift by pi; inside it fmod(w, 2 pi) = w,
    # so every element has the bits of fmod on all of them, NaN and the signed zeros too
    a = np.array(angles)
    with np.errstate(invalid="ignore"):
        w = np.fmod(a + math.pi, 2.0 * math.pi)
        want = np.where(w <= 0.0, w + 2.0 * math.pi, w) - math.pi
        got = _wrap_angles(a)
    assert got.tobytes() == want.tobytes()
    for g, angle in zip(got.tolist(), angles):
        if math.isfinite(angle):
            assert g == wrap_angle(angle)


def test_straight_line_unit_speed():
    out = step_cartesian(CartesianState(0.0, 0.0, 0.0), u=0.0, dt=1.0, speed=1.0)
    assert out.x == pytest.approx(1.0, abs=1e-12)
    assert out.y == pytest.approx(0.0, abs=1e-12)
    assert out.theta == 0.0


def test_straight_line_north_fast():
    out = step_cartesian(CartesianState(0.0, 0.0, math.pi / 2), u=0.0, dt=2.0, speed=3.0)
    assert out.x == pytest.approx(0.0, abs=1e-12)
    assert out.y == pytest.approx(6.0, abs=1e-12)
    assert out.theta == pytest.approx(math.pi / 2)


def test_arc_matches_adaptive_integrator():
    # constant turn rate: closed form x = sin(dt), y = 1 - cos(dt), theta = dt
    out = step_cartesian(CartesianState(0.0, 0.0, 0.0), u=1.0, dt=0.1, speed=1.0)
    assert out.x == pytest.approx(0.09983341664682815, abs=1e-10)
    assert out.y == pytest.approx(0.0049958347219741794, abs=1e-10)
    assert out.theta == pytest.approx(0.1, abs=1e-12)


def test_step_cartesian_rejects_bad_input():
    with pytest.raises(ValueError):
        step_cartesian(CartesianState(0, 0, 0), u=0.0, dt=-1.0, speed=1.0)
    with pytest.raises(ValueError):
        step_cartesian(CartesianState(0, 0, 0), u=0.0, dt=1.0, speed=0.0)
    with pytest.raises(ValueError):
        step_cartesian(CartesianState(0, 0, 0), u=math.nan, dt=1.0, speed=1.0)
    with pytest.raises(ValueError):
        CartesianState(math.inf, 0.0, 0.0)


def test_polar_conversion_case_a_start():
    # look angle magnitude 60 deg; the adopted convention makes it negative
    # for this geometry (velocity counterclockwise of the line of sight)
    p = cartesian_to_polar(CartesianState(-10000.0, 0.0, math.pi / 3))
    assert p.r == pytest.approx(10000.0)
    assert abs(p.sigma) == pytest.approx(math.pi / 3)
    assert p.sigma == pytest.approx(-math.pi / 3)


def test_polar_conversion_rate_consistency():
    # finite-difference oracle: dr/dt = -V cos sigma, dsigma/dt = V sin sigma / r - u
    state = CartesianState(-10000.0, 0.0, math.pi / 3)
    u, speed = 0.3, 2.0
    eps = 1e-6
    p0 = cartesian_to_polar(state)
    p1 = cartesian_to_polar(step_cartesian(state, u, eps, speed))
    rdot = (p1.r - p0.r) / eps
    sdot = (p1.sigma - p0.sigma) / eps
    assert rdot == pytest.approx(-speed * math.cos(p0.sigma), abs=1e-4)
    assert sdot == pytest.approx(speed * math.sin(p0.sigma) / p0.r - u, abs=1e-4)


def test_polar_conversion_degenerate_directions():
    head_on = cartesian_to_polar(CartesianState(-1.0, 0.0, 0.0))
    assert head_on.r == pytest.approx(1.0)
    assert head_on.sigma == pytest.approx(0.0, abs=1e-15)
    away = cartesian_to_polar(CartesianState(-1.0, 0.0, math.pi))
    assert away.r == pytest.approx(1.0)
    assert abs(away.sigma) == pytest.approx(math.pi)


def test_polar_conversion_at_target_rejected():
    with pytest.raises(ValueError, match="look angle undefined"):
        cartesian_to_polar(CartesianState(0.0, 0.0, 1.0))


def test_step_polar_head_on_and_opening():
    closing = polar_reference(PolarState(10.0, 0.0), u=0.0, dt=1.0, speed=1.0)
    assert closing.r == pytest.approx(9.0, abs=1e-12)
    assert closing.sigma == pytest.approx(0.0, abs=1e-12)
    opening = polar_reference(PolarState(10.0, math.pi), u=0.0, dt=1.0, speed=1.0)
    assert opening.r == pytest.approx(11.0, abs=1e-12)
    assert abs(opening.sigma) == pytest.approx(math.pi)


def test_step_polar_rejects_target_crossing():
    with pytest.raises(ValueError, match="crosses target"):
        polar_reference(PolarState(0.5, 0.2), u=0.0, dt=1.0, speed=1.0)


def test_step_polar_matches_cartesian_path():
    # oracle: propagate in Cartesian coordinates and convert
    c = CartesianState(-5.0, 0.0, -math.pi / 4)           # (r, sigma) = (5, pi/4)
    p = cartesian_to_polar(c)
    assert p.sigma == pytest.approx(math.pi / 4)
    c1 = cartesian_to_polar(step_cartesian(c, 0.1, 0.01, 1.0))
    p1 = polar_reference(p, 0.1, 0.01, 1.0)
    assert p1.r == pytest.approx(c1.r, abs=1e-8)
    assert p1.sigma == pytest.approx(c1.sigma, abs=1e-8)


def test_long_horizon_consistency():
    # 100 steps, both representations, <=1e-6 relative agreement
    rng = np.random.default_rng(1)
    c = CartesianState(-8.0, 2.0, 0.4)
    p = cartesian_to_polar(c)
    for _ in range(100):
        u = float(rng.uniform(-0.5, 0.5))
        c = step_cartesian(c, u, 0.01, 1.0)
        p = polar_reference(p, u, 0.01, 1.0)
    ref = cartesian_to_polar(c)
    assert p.r == pytest.approx(ref.r, rel=1e-6)
    assert p.sigma == pytest.approx(ref.sigma, rel=1e-6, abs=1e-9)


def test_range_rate_sign_property():
    rng = np.random.default_rng(2)
    for _ in range(50):
        state = CartesianState(rng.uniform(-10, -1), rng.uniform(-5, 5), rng.uniform(-3, 3))
        speed = rng.uniform(0.5, 3.0)
        p0 = cartesian_to_polar(state)
        dt = 1e-4
        p1 = cartesian_to_polar(step_cartesian(state, 0.0, dt, speed))
        # forward difference carries an O(dt) bias bounded by the curvature term
        tol = 2.0 * speed**2 / p0.r * dt
        assert (p1.r - p0.r) / dt == pytest.approx(-speed * math.cos(p0.sigma), abs=tol)


def test_headings_stay_wrapped():
    state = CartesianState(-3.0, 1.0, 3.0)
    p = cartesian_to_polar(state)
    for _ in range(500):
        state = step_cartesian(state, 1.7, 0.05, 1.0)
        assert -math.pi < state.theta <= math.pi
    for _ in range(200):
        p = polar_reference(p, -0.9, 0.001, 1.0)
        assert -math.pi < p.sigma <= math.pi


coords = st.floats(-1e4, 1e4)
headings = st.floats(-math.pi, math.pi)
speeds = st.floats(1.0, 1000.0)


@settings(max_examples=200, deadline=None)
@given(x=coords, y=coords, th=headings, u=st.floats(-5.0, 5.0), dt=st.floats(1e-4, 1.0), speed=speeds)
def test_arc_step_matches_fine_rk4(x, y, th, u, dt, speed):
    start = CartesianState(x, y, th)
    out = step_cartesian(start, u, dt, speed)
    ref = cartesian_reference(start, u, dt, speed)
    tol = 1e-11 * (1.0 + abs(x) + abs(y) + speed * dt)
    assert out.x == pytest.approx(ref.x, abs=tol)
    assert out.y == pytest.approx(ref.y, abs=tol)
    assert _angle_gap(out.theta, ref.theta) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(x=coords, y=coords, th=headings, u=st.floats(-20.0, 20.0), dt=st.floats(1e-6, 10.0), speed=speeds)
def test_two_half_steps_equal_one_step(x, y, th, u, dt, speed):
    start = CartesianState(x, y, th)
    whole = step_cartesian(start, u, dt, speed)
    halves = step_cartesian(step_cartesian(start, u, dt / 2.0, speed), u, dt / 2.0, speed)
    tol = 1e-13 * (1.0 + abs(x) + abs(y) + speed * dt)
    assert halves.x == pytest.approx(whole.x, abs=tol)
    assert halves.y == pytest.approx(whole.y, abs=tol)
    assert _angle_gap(halves.theta, whole.theta) <= 1e-13 * (1.0 + abs(u * dt))


@settings(max_examples=300, deadline=None)
@given(
    x=coords, y=coords, th=headings, dt=st.floats(1e-3, 1.0), speed=speeds,
    log_turn=st.floats(-300.0, -20.0), sign=st.sampled_from((-1.0, 1.0)),
)
def test_straight_line_is_exact(x, y, th, dt, speed, log_turn, sign):
    start = CartesianState(x, y, th)
    line = step_cartesian(start, 0.0, dt, speed)
    assert line.x == x + speed * dt * math.cos(th)
    assert line.y == y + speed * dt * math.sin(th)
    assert line.theta == wrap_angle(th)
    if abs(th) >= 1e-3:
        # |u dt| <= 1e-20 is below half an ulp of the heading: the same bits
        assert step_cartesian(start, sign * 10.0**log_turn, dt, speed) == line


@settings(max_examples=200, deadline=None)
@given(
    points=st.lists(st.tuples(coords, coords, st.floats(-10.0, 10.0)), min_size=1, max_size=40),
)
# np.arctan2 and math.atan2 differ here in the last bit, which the sum
# with the heading magnifies to two ulps of 13
@example(points=[(-6006.347397116664, 9680.0, -8.0)])
def test_look_angles_match_wrap_angle(points):
    x, y, th = (np.array(v) for v in zip(*points))
    sigma = look_angles(x, y, th)
    for k, (xv, yv, tv) in enumerate(points):
        if xv == 0.0 and yv == 0.0:
            assert sigma[k] == 0.0
            continue
        # the wrap is wrap_angle's to the bit; np.arctan2 may differ from
        # math.atan2 in the last bit
        assert sigma[k] == wrap_angle(math.pi + float(np.arctan2(yv, xv)) - tv)
        assert _angle_gap(sigma[k], cartesian_to_polar(CartesianState(xv, yv, tv)).sigma) <= 2e-15
        assert -math.pi < sigma[k] <= math.pi


def test_look_angles_at_plus_minus_pi():
    # flying straight away from the target: sigma = pi, never -pi
    for x, y, th in ((-1.0, 0.0, math.pi), (-1.0, 0.0, -math.pi), (1.0, 0.0, 0.0), (0.0, -2.0, -math.pi / 2),
                     (-1.0, -0.0, math.pi), (3.0, 0.0, 2.0 * math.pi)):
        expected = cartesian_to_polar(CartesianState(x, y, th)).sigma
        assert look_angles([x], [y], [th])[0] == expected
        assert abs(expected) == pytest.approx(math.pi)
    assert look_angles([0.0], [0.0], [1.0])[0] == 0.0


# ±0.0 and magnitudes from 1e-300 to 1e300: very small and very large ranges
wide_coords = st.one_of(
    st.sampled_from((0.0, -0.0)),
    st.builds(lambda sign, m, e: sign * m * 10.0**e, st.sampled_from((1.0, -1.0)), st.floats(1.0, 10.0),
              st.integers(-300, 299)),
)


@settings(max_examples=300, deadline=None)
@given(poses=st.lists(st.tuples(wide_coords, wide_coords, st.floats(-10.0, 10.0)).filter(lambda p: p[:2] != (0.0, 0.0)),
                      min_size=1, max_size=40))
# x < 0 on y = ±0.0: the ±pi edge of arctan2 and of the wrap
@example(poses=[(-1.0, 0.0, math.pi), (-1.0, -0.0, math.pi), (-1.0, 0.0, -math.pi), (-1.0, -0.0, 0.0),
                (-3e-300, -0.0, 1.0), (-2e299, 0.0, 2.0 * math.pi), (0.0, -5.0, -math.pi / 2)])
@example(poses=[(-6006.347397116664, 9680.0, -8.0)])
def test_bound_look_angle_equals_look_angles(poses):
    # one binding serves every pose: its buffers carry nothing from one call to the next
    look_angle = _bind_look_angle()
    got = np.array([look_angle(*p) for p in poses])
    x, y, th = (np.array(v) for v in zip(*poses))
    assert got.tobytes() == look_angles(x, y, th).tobytes()
    assert got.tobytes() == np.array([cartesian_to_polar(CartesianState(*p)).sigma for p in poses]).tobytes()


@settings(max_examples=300, deadline=None)
@given(
    x=coords, y=coords, th=headings, speed=speeds,
    arcs=st.lists(st.tuples(st.floats(-5.0, 5.0), st.floats(1e-4, 0.5)), min_size=1, max_size=40),
)
@example(x=0.0, y=0.0, th=math.pi - 0.01, speed=1.0, arcs=[(0.5, 0.1)] * 40)
@example(x=0.0, y=0.0, th=-math.pi + 0.01, speed=1.0, arcs=[(-0.5, 0.1)] * 40)
def test_fly_arcs_matches_stepping(x, y, th, speed, arcs):
    u, h = (np.array(v) for v in zip(*arcs))
    fx, fy, fth = fly_arcs(x, y, th, u, h, speed)
    assert fx.shape == fy.shape == fth.shape == (len(arcs) + 1,)
    state = CartesianState(x, y, th)
    # the coordinates' own size sets the rounding of every addition to them
    tol = 1e-9 * (speed * h.sum() + abs(x) + abs(y))
    for k, (uk, hk) in enumerate(arcs):
        state = step_cartesian(state, uk, hk, speed)
        assert abs(fx[k + 1] - state.x) <= tol
        assert abs(fy[k + 1] - state.y) <= tol
        assert _angle_gap(fth[k + 1], state.theta) <= 1e-12
        assert -math.pi < fth[k + 1] <= math.pi


def test_fly_arcs_scalar_step_and_start_node():
    x, y, th = fly_arcs(-3.0, 1.0, 3.0, [1.7] * 500, 0.05, 1.0)
    assert (x[0], y[0], th[0]) == (-3.0, 1.0, 3.0)
    assert np.all((-math.pi < th) & (th <= math.pi))
    x, y, th = fly_arcs(2.0, -1.0, 0.5, [], 0.05, 1.0)
    assert x.tolist() == [2.0] and y.tolist() == [-1.0] and th.tolist() == [0.5]


@pytest.mark.parametrize("u, h, speed", [
    (0.0, -1.0, 1.0), (0.0, 0.0, 1.0), (0.0, 1.0, 0.0), (0.0, 1.0, -2.0),
    (math.nan, 1.0, 1.0), (math.inf, 1.0, 1.0), (0.0, math.inf, 1.0), (0.0, math.nan, 1.0),
    (0.0, 1.0, math.inf), (0.0, 1.0, math.nan),
])
def test_fly_arcs_rejects_what_step_cartesian_rejects(u, h, speed):
    with pytest.raises(ValueError) as stepped:
        step_cartesian(CartesianState(0.0, 0.0, 0.0), u, h, speed)
    with pytest.raises(ValueError) as flown:
        fly_arcs(0.0, 0.0, 0.0, [0.1, u], [0.1, h], speed)
    assert str(flown.value) == str(stepped.value)
    with pytest.raises(ValueError, match="non-finite Cartesian component"):
        fly_arcs(math.inf, 0.0, 0.0, [0.1], 0.1, 1.0)
