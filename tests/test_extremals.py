import math

import numpy as np
import pytest

from fitguide import AdjointParams, hamiltonian, propagate_param, terminal_time
from fitguide.extremals import ellipk, sweep_cells


def test_initial_sample_is_origin():
    traj = propagate_param(AdjointParams(3.0, 1.2), t_end=1.0, dt=0.005)
    assert traj.t[0] == 0.0
    assert traj.X[0] == 0.0 and traj.Y[0] == 0.0 and traj.Theta[0] == 0.0
    assert traj.U[0] == 0.0                     # transversality, exact
    assert math.isnan(traj.Sigma[0])            # look angle undefined at range zero
    assert np.all(np.diff(traj.t) > 0)


def test_propagation_matches_adaptive_integrator():
    # frozen endpoint from an adaptive high-order integrator (tol 1e-12)
    traj = propagate_param(AdjointParams(10.0, math.pi / 2), t_end=0.5, dt=0.005)
    assert traj.t[-1] == pytest.approx(0.5)
    assert traj.X[-1] == pytest.approx(-0.43085966878308585, abs=1e-8)
    assert traj.Y[-1] == pytest.approx(0.183698698315875, abs=1e-8)
    assert traj.Theta[-1] == pytest.approx(-1.189546357240338, abs=1e-8)


def test_command_identity_every_sample():
    params = AdjointParams(4.0, 2.0)
    traj = propagate_param(params, t_end=1.5, dt=0.01)
    expected = params.alpha * (
        traj.Y * math.cos(params.beta) - traj.X * math.sin(params.beta)
    )
    assert np.array_equal(traj.U, expected)


def test_last_sample_lands_on_the_horizon():
    # engagement-scale horizons, step min(0.01, max(0.0025, t/4000));
    # alpha is small enough that no collinearity cuts the samples short
    params = AdjointParams(1e-4, 1.2)
    for t_end in np.random.default_rng(3).uniform(15.0, 50.0, 300):
        traj = propagate_param(params, t_end=t_end, dt=min(0.01, max(0.0025, t_end / 4000.0)))
        assert traj.terminal_time == t_end
        assert traj.t[-1] == t_end


def test_degenerate_costate_rejected():
    with pytest.raises(ValueError, match="degenerate costate"):
        propagate_param(AdjointParams(0.0, 1.0), t_end=1.0, dt=0.01)
    with pytest.raises(ValueError, match="degenerate costate"):
        terminal_time(AdjointParams(0.0, 1.0), t_bar=1.0)


@pytest.mark.parametrize("t_bar", [0.0, -1.0, -math.inf, math.nan])
def test_terminal_time_rejects_a_bad_horizon(t_bar):
    with pytest.raises(ValueError, match="t_bar"):
        terminal_time(AdjointParams(1.0, 1.0), t_bar=t_bar)


@pytest.mark.parametrize(
    "t_end, dt, name",
    [
        (math.inf, 0.01, "t_end"),
        (math.nan, 0.01, "t_end"),
        (-1.0, 0.01, "t_end"),
        (1.0, math.inf, "dt"),
        (1.0, math.nan, "dt"),
        (1.0, 0.0, "dt"),
    ],
)
def test_propagate_param_rejects_a_bad_horizon_or_step(t_end, dt, name):
    with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
        propagate_param(AdjointParams(1.0, 1.0), t_end=t_end, dt=dt)


@pytest.mark.parametrize(
    "alphas, t_end, h, name",
    [
        ([1.0, -2.0], 1.0, 0.01, "alphas"),
        ([1.0, 0.0], 1.0, 0.01, "alphas"),
        ([1.0, math.nan], 1.0, 0.01, "alphas"),
        ([1.0, math.inf], 1.0, 0.01, "alphas"),
        ([1.0, 2.0], -1.0, 0.01, "t_end"),
        ([1.0, 2.0], math.inf, 0.01, "t_end"),
        ([1.0, 2.0], 1.0, 0.0, "h"),
        ([1.0, 2.0], 1.0, math.nan, "h"),
    ],
)
def test_sweep_cells_rejects_bad_alphas_horizon_or_step(alphas, t_end, h, name):
    with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
        sweep_cells(np.array(alphas), np.array([0.8, 1.9]), t_end=t_end, h=h)


def test_terminal_time_matches_dense_scan():
    # frozen from a dense scan at dt/100 with bisection refinement
    t_hat = terminal_time(AdjointParams(10.0, math.pi / 2), t_bar=10.0)
    assert t_hat == pytest.approx(1.6343109487069098, abs=1e-4)


def test_terminal_time_cap_branch():
    # slow arc: first collinearity beyond the cap
    assert terminal_time(AdjointParams(0.05, 0.5), t_bar=5.0) == 5.0


def test_terminal_time_degenerate_straight_line():
    # beta = pi never leaves the collinear set
    assert terminal_time(AdjointParams(2.0, math.pi), t_bar=5.0) == 0.0


def test_trajectory_truncates_at_collinearity():
    params = AdjointParams(10.0, math.pi / 2)
    traj = propagate_param(params, t_end=5.0, dt=0.005)
    assert traj.terminal_time == pytest.approx(1.6343109487069098, abs=1e-4)
    assert traj.t[-1] <= traj.terminal_time


def test_hamiltonian_values():
    params = AdjointParams(5.0, 1.0)
    assert hamiltonian(0.0, 0.0, 0.0, params) == pytest.approx(5.0 * math.cos(1.0))
    p90 = AdjointParams(2.0, math.pi / 2)
    assert hamiltonian(0.0, 0.0, 0.0, p90) == pytest.approx(0.0, abs=1e-15)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            hamiltonian(np.array([0.0, bad]), np.zeros(2), np.zeros(2), params)


def test_hamiltonian_conserved_along_trajectory():
    params = AdjointParams(5.0, 1.0)
    traj = propagate_param(params, t_end=2.0, dt=0.005)
    h_ref = 5.0 * math.cos(1.0)
    h = hamiltonian(traj.X, traj.Y, traj.Theta, params)
    assert h.shape == traj.t.shape
    assert np.max(np.abs(h - h_ref)) <= 1e-6 * (1.0 + abs(h_ref))


def test_heading_rate_equals_minus_command():
    traj = propagate_param(AdjointParams(6.0, 2.2), t_end=1.0, dt=0.002)
    dtheta = np.gradient(traj.Theta, traj.t)
    # central differences match -U to O(dt^2) away from the ends
    assert np.max(np.abs(dtheta[2:-2] + traj.U[2:-2])) < 5e-4


def test_control_sign_structure_on_truncated_extremals():
    rng = np.random.default_rng(10)
    for _ in range(30):
        params = AdjointParams(rng.uniform(0.1, 10.0), rng.uniform(0.05, math.pi - 0.05))
        traj = propagate_param(params, t_end=10.0, dt=0.005)
        u = traj.U[1:]
        signs = np.sign(u[np.abs(u) > 1e-9])
        assert np.count_nonzero(np.diff(signs) != 0) <= 1


def test_vectorized_sweep_matches_scalar_propagation():
    alphas = np.array([2.0, 7.0, 9.5])
    betas = np.array([0.8, 1.9, 2.9])
    sweep = sweep_cells(alphas, betas, t_end=1.0, h=0.005)
    assert sweep.n_steps == 200 and sweep.h == 0.005
    for j, (a, b) in enumerate(zip(alphas, betas)):
        params = AdjointParams(float(a), float(b))
        traj = propagate_param(params, t_end=1.0, dt=0.005)
        assert traj.t[-1] == 1.0  # every cell stays collinearity-free to the horizon
        assert sweep.t_collinear[j] == pytest.approx(terminal_time(params, t_bar=math.inf), rel=1e-12)
        quarter = ellipk(math.cos(0.5 * b), math.sin(0.5 * b))
        assert sweep.t_control_zero[j] == pytest.approx(2.0 * quarter / math.sqrt(a), rel=1e-14)
