"""Turn-rate command generation for fixed-impact-time interception.

Three command sources share one convention (turn rate in rad/s, lateral
acceleration = speed * turn rate):

* ``command_nn``       — trained network, mirrored for negative look
  angles and rescaled to arbitrary speed / time-to-go.
* ``command_oracle``   — independent ground truth: solves the two-point
  boundary problem over the costate parameters (q, beta), q = alpha *
  t_go**2, so that the parameterized extremal matches the queried range
  and look angle at unit time-to-go, and returning the first root that is
  collinearity-free (first-collinearity time >= time-to-go, to Newton's
  tolerance): the admissible chart is one-to-one, so there is no other.
* ``pn_command``       — proportional navigation baseline, turn rate =
  3 * line-of-sight rate.

A closed loop binds the network or PN law once per engagement
(``bind_law``) and evaluates it on floats every step; ``command_nn`` and
``pn_command`` validate one query and make one such call.

Normalization: the oracle solves the scale-free problem at rho =
r / (speed * t_go) and unit time-to-go; t_go only scales its answer
(alpha = q / t_go**2, effort / t_go), and its command is a physical turn rate.
The network path additionally compresses time-to-go to a horizon g
inside the training domain; the command returned is
``(g / t_go) * C(r*g/(speed*t_go), |sigma|, g)`` with the sign restored
by the mirror rule.

Every extremal is an inflectional Euler elastica, and the oracle uses
its closed form throughout: Newton's endpoint, the exact collinearity
check of each root, each root's effort (``extremals.effort``) and the
command at the time-to-go.  A solve returns the winning extremal's
parameters, signed as ``evaluate`` takes them, and samples nothing: a
negative look angle mirrors the extremal (beta < 0), and the straight line
is (1, 0).  ``sim.solve_ocp`` and ``sim.simulate`` read the optimal path
off the same closed form instead of integrating it.
Newton is seeded from the committed table of admissible roots (ln q,
ln beta) at unit time-to-go on a regular (rho, |sigma|) grid (``ROOT_TABLE``,
read on first use), interpolated bilinearly in the query's cell.  Outside
the table's box, where a corner of the cell is refused (nan), or where the
table's seed reaches no admissible root, the seeds come from a 64x64 chart
of every admissible extremal, made on first use and cached for the life of
the process (``_seed_table``): each chart cell around which the query's
endpoint residual winds seeds Newton.  ``python tools/build_root_table.py``
rebuilds the table from the chart's seeds alone.  Each seed runs its own
damped Newton in (q, beta), one ``evaluate`` call per trial point with the
Jacobian's q column in closed form, until a root is admissible; every root
reached is reported in ``OracleSolution.roots`` with its effort and
whether it is admissible.

A closed loop keeps flying a solved extremal while its state stays on it:
``warm_check`` tests many states against one solution in one call, on the
extremal's side and within ``WARM_TOL``.  ``command_oracle`` keeps no
state: every call solves its query from the table and the chart, which
depend on rho and |sigma| alone, so its answer depends on the query alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import mlp
from .extremals import (
    AdjointParams,
    _collinear_brackets,
    command,
    effort,
    evaluate,
    propagate_param,  # not called here; benchmarks/metrics.py traces it under this name
    range_look_angle,
    sweep_cells,
    terminal_time,  # not called here; benchmarks/metrics.py traces it under this name
)
from .kinematics import PolarState

__all__ = [
    "GuidanceError",
    "GuidanceQuery",
    "OracleSolution",
    "bind_law",
    "command_nn",
    "command_oracle",
    "pn_command",
    "warm_check",
    "DEFAULT_KAPPA",
]

# Fraction of the trained horizon used as the network query time.  The
# sample density of the costate sweep peaks well inside the horizon (a
# cell stops contributing once its trajectory reaches collinearity), so
# querying deep inside the covered region is markedly more accurate than
# querying near the horizon edge.
DEFAULT_KAPPA = 0.35

# Newton stops once |R1 - rho| <= NEWTON_TOL * rho and |dSigma| <= NEWTON_TOL
# at unit time-to-go, and gives up after NEWTON_MAX_ITER steps.  A solved
# extremal still passes through a state within the looser WARM_TOL band: far
# below any effort or miss tolerance.
NEWTON_TOL = 1e-9
NEWTON_MAX_ITER = 40
WARM_TOL = 1e-5

# The root table's grid: ROOT_TABLE_N rho nodes over ROOT_TABLE_RHO by
# ROOT_TABLE_N |sigma| nodes over ROOT_TABLE_SIGMA, both evenly spaced
# (tools/build_root_table.py writes ROOT_TABLE from it).
ROOT_TABLE = Path(__file__).with_name("root_table.txt")
ROOT_TABLE_RHO = (0.02, 0.98)
ROOT_TABLE_SIGMA = (0.02, math.pi - 0.02)
ROOT_TABLE_N = 33


class GuidanceError(RuntimeError):
    """Raised when no admissible command can be produced for a query."""


@dataclass(frozen=True)
class GuidanceQuery:
    """Physical engagement state for a command request."""

    r: float
    sigma: float
    t_go: float
    speed: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.r, self.sigma, self.t_go, self.speed))):
            raise ValueError("non-finite query")
        if self.r <= 0.0 or self.t_go <= 0.0 or self.speed <= 0.0:
            raise ValueError("r, t_go and speed must be positive")
        if not -math.pi <= self.sigma <= math.pi:
            raise ValueError("sigma must lie in [-pi, pi]")
        if self.r > self.speed * self.t_go * (1.0 + 1e-12):
            raise GuidanceError("target unreachable by t_go")


@dataclass
class OracleSolution:
    """Converged boundary-value solution for one query."""

    params: AdjointParams        # as ``evaluate`` takes it: beta < 0 for sigma < 0; (1, 0) is the straight line
    residual: tuple              # (delta_r, delta_sigma) in normalized units
    normalized_t_go: float       # the time-to-go solved for: the extremal's horizon
    command: float               # the extremal's U at normalized_t_go, rad/s
    effort: float                # normalized effort integral U^2/2 over [0, t_go]
    # every root the solve reached, in seed order, as signed (alpha, beta,
    # effort, admissible), ending with the answer; () for the straight line met head-on
    roots: tuple = ()


def _on_collision_course(r, sigma, t_go, speed) -> bool:
    """Head-on and exactly reachable by t_go: the straight line, u = 0."""
    return abs(sigma) <= 1e-12 and abs(r / (speed * t_go) - 1.0) <= NEWTON_TOL


def bind_law(law: str, model, speed: float):
    """The network ("nn") or PN ("pn") law bound once: ``f(r, sigma, t_go) -> turn rate``.

    The bound law runs on floats and checks nothing: it takes what
    ``GuidanceQuery`` admits (PN reads no time-to-go), and a non-finite
    network input still raises in the network's own check.  ``command_nn``
    and ``pn_command`` validate one query and call it.
    """
    if law == "pn":
        return lambda r, sigma, t_go: 3.0 * (speed * math.sin(sigma) / r)
    if law != "nn":
        raise ValueError(f"no step law {law!r}")
    net = mlp.bind(model)
    horizon = DEFAULT_KAPPA * model.t_bar

    def network(r, sigma, t_go):
        if _on_collision_course(r, sigma, t_go, speed):
            return 0.0
        sign = -1.0 if sigma < 0.0 else 1.0
        g = min(t_go, horizon)
        return sign * (g / t_go) * net(r * g / (speed * t_go), abs(sigma), g)

    return network


def command_nn(model, query: GuidanceQuery) -> float:
    """Network-backed turn-rate command for an arbitrary-speed query.

    Zero on the collision course; elsewhere odd in sigma, with sigma = 0
    turning to the oracle's side, that of a positive look angle.
    """
    return bind_law("nn", model, query.speed)(query.r, query.sigma, query.t_go)


def pn_command(state: PolarState, speed: float) -> float:
    """Proportional navigation: turn rate = 3 * LOS rate (navigation gain 3)."""
    if state.r <= 0.0:
        raise ValueError("range must be positive")
    return bind_law("pn", None, speed)(state.r, state.sigma, math.nan)


# --- boundary-value oracle ---


def _endpoint(alpha, beta, t_go):
    """(R, Sigma) of the parameterized system at t_go, in closed form.

    Broadcasts like ``extremals.evaluate``.  R and Sigma are even in beta
    (beta -> -beta mirrors the extremal).
    """
    X, Y, Theta, _ = evaluate(alpha, beta, t_go)
    return range_look_angle(X, Y, Theta)


@functools.cache
def _seed_table():
    """Endpoints of a 64x64 chart of the admissible extremals at unit time-to-go.

    q = alpha * t_go**2 makes the extremal family scale-invariant: the cell
    (q, beta) swept to time-to-go t_go ends at range t_go * R1 and look
    angle Sigma1 of the unit-horizon cell.  It is collinearity-free up to
    t_go exactly when q <= tau*(beta)**2, so on the chart's axes
    rho = sqrt(q) / tau*(beta) in (0, 1] and beta every cell is admissible.
    The betas run geometrically from 1e-9 to pi/16 (tau* grows without
    bound as beta -> 0), then linearly to pi(1 - 1/128).  Returns the
    read-only arrays (q, beta, R1, Sigma1), indexed by (rho, beta).
    """
    n = 64
    rho = np.sin(0.5 * math.pi * np.arange(1, n + 1) / n)[:, None]
    beta = np.concatenate([
        np.geomspace(1e-9, math.pi / 16.0, n // 2),
        np.linspace(math.pi / 16.0, math.pi * (1.0 - 1.0 / 128.0), n // 2 + 1)[1:],
    ])
    tau = sweep_cells(np.ones(n), beta, 1.0, 1.0).t_collinear
    Q = (rho * tau) ** 2
    R, S = _endpoint(Q, beta, 1.0)  # one AGM per beta
    table = (Q, np.broadcast_to(beta, Q.shape), R, S)
    for arr in table:
        arr.flags.writeable = False
    return table


def _seed_candidates(rho, sigma_abs):
    """(q, beta) seeds for a scale-free query, from the chart cells that bracket a root.

    The residual is F = ((R1 - rho) / rho, Sigma1 - |sigma|) at unit
    time-to-go.  Every cell around whose corners F winds once holds a root
    and seeds Newton from its corner of least |F|; so does the chart's best
    cell.  Seeds come in order of |F|.
    """
    Q, B, R1, S1 = _seed_table()
    fr, fs = (R1 - rho) / rho, S1 - sigma_abs
    phase = np.arctan2(fs, fr)
    ring = [np.s_[:-1, :-1], np.s_[1:, :-1], np.s_[1:, 1:], np.s_[:-1, 1:]]  # each cell's corners, in turn
    steps = (phase[c1] - phase[c0] for c0, c1 in zip(ring, ring[1:] + ring[:1]))
    turn = sum(np.mod(d + math.pi, 2.0 * math.pi) - math.pi for d in steps)
    flat = np.arange(phase.size).reshape(phase.shape)
    cells = np.stack([flat[c][np.abs(turn) > math.pi] for c in ring])
    res = np.hypot(fr, fs).ravel()
    picks = cells[np.argmin(res[cells], axis=0), np.arange(cells.shape[1])]
    picks = np.append(picks, np.argmin(res))
    picks = picks[np.argsort(res[picks], kind="stable")]
    return [(float(Q.flat[k]), float(B.flat[k])) for k in dict.fromkeys(picks.tolist())]


@functools.cache
def _root_table():
    """The committed root table, read on first use: (ln q, ln beta) as two flat lists.

    Node (i, j), at the i-th rho and j-th |sigma| of the grid, is entry
    i * ROOT_TABLE_N + j; nan marks a node the chart-seeded oracle refuses.
    """
    ln_q, ln_b = np.loadtxt(ROOT_TABLE, unpack=True)
    return ln_q.tolist(), ln_b.tolist()


def _table_seed(rho, sigma_abs):
    """(q, beta) interpolated bilinearly in (ln q, ln beta) from the root table's cell around the query.

    None outside the table's box, or where a corner of the cell is refused.
    """
    n = ROOT_TABLE_N
    (r0, r1), (s0, s1) = ROOT_TABLE_RHO, ROOT_TABLE_SIGMA
    x, y = (rho - r0) / (r1 - r0) * (n - 1), (sigma_abs - s0) / (s1 - s0) * (n - 1)
    if not (0.0 <= x <= n - 1 and 0.0 <= y <= n - 1):
        return None
    i, j = min(int(x), n - 2), min(int(y), n - 2)
    fx, fy = x - i, y - j
    k = i * n + j
    w = ((1.0 - fx) * (1.0 - fy), (1.0 - fx) * fy, fx * (1.0 - fy), fx * fy)
    ln_q, ln_b = (w[0] * v[k] + w[1] * v[k + 1] + w[2] * v[k + n] + w[3] * v[k + n + 1] for v in _root_table())
    return None if math.isnan(ln_q + ln_b) else (math.exp(ln_q), math.exp(ln_b))  # a nan corner spreads


def _seeds(rho, sigma_abs):
    """Newton's seeds for a scale-free query: the root table's, then the chart's, built only if reached."""
    seed = _table_seed(rho, sigma_abs)
    if seed is not None:
        yield seed
    yield from _seed_candidates(rho, sigma_abs)


def _endpoint_jacobian(q, beta):
    """R1 and Sigma1 of the extremal (q, beta) at unit time, and their Jacobian in (q, beta).

    One ``evaluate`` call of the extremal and its beta step, min(1e-6, 1e-3 beta)
    (small beside small betas), gives the beta column as a forward difference.
    The q column is exact: the family is scale-invariant,
    R1 = R(beta, sqrt(q)) / sqrt(q) and Sigma1 = Sigma(beta, sqrt(q)) of the
    unit-alpha extremal, so dR1/dq = (cos Sigma - R1) / (2 q) and
    dSigma1/dq = Sigma' / (2 q), where Sigma' = -sgn(c) U - sin(Sigma) / R1 is
    the look angle's rate along the extremal and c the cross product of line
    of sight and heading.
    """
    db = min(1e-6, 1e-3 * beta)
    X, Y, Theta, U = evaluate(q, np.array([beta, beta + db]), 1.0)
    (r, r_b), (s, s_b) = range_look_angle(X, Y, Theta)
    turn = math.copysign(1.0, Y[0] * math.cos(Theta[0]) - X[0] * math.sin(Theta[0]))  # sgn(c)
    rate = -turn * U[0] - math.sin(s) / r  # Sigma'
    return r, s, np.array([[(math.cos(s) - r) / (2.0 * q), (r_b - r) / db],
                           [rate / (2.0 * q), (s_b - s) / db]])


def _newton(rho, sigma_abs, q, beta):
    """Damped Newton on the unit-horizon endpoint residual, from one seed (q, beta).

    Each trial point costs one ``_endpoint_jacobian`` call, which also gives
    the Jacobian of the next step.  A step is tried at 1, 1/2, ..., 1/32 of
    its length until the residual shrinks, measured with its range part
    relative to rho, the same measure as the convergence test.
    Returns (q, beta, residual), or None when the seed does not converge
    within NEWTON_MAX_ITER steps or meets a singular Jacobian.
    """

    def trial(q, b):
        r, s, jac = _endpoint_jacobian(q, b)
        f = np.array([r - rho, s - sigma_abs])
        return q, b, f, float(np.hypot(f[0] / rho, f[1])), jac

    def converged(f):
        return abs(f[0]) <= NEWTON_TOL * rho and abs(f[1]) <= NEWTON_TOL

    q, b, f, size, jac = trial(q, beta)
    for _ in range(NEWTON_MAX_ITER):
        if converged(f):
            return q, b, f
        try:
            step = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            return None
        for lam in (1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125):
            point = trial(max(q + lam * step[0], 1e-12), min(max(b + lam * step[1], 1e-9), math.pi))
            if point[3] < size:
                break
        else:
            return None
        q, b, f, size, jac = point
    return (q, b, f) if converged(f) else None


def _admissible(q, beta) -> bool:
    """Collinearity-free before unit time-to-go (a head-on root is collinear at it), to NEWTON_TOL.

    The first bracket of tau*(beta) clear of sqrt(q) decides: they nest, and hi is padded for the ulps it may yet rise.
    """
    s = math.sqrt(q)
    for degenerate, lo, hi in _collinear_brackets(beta):
        if degenerate or hi * (1.0 + 1e-12) / s < 1.0 - NEWTON_TOL:
            return False
        if lo / s >= 1.0 - NEWTON_TOL:
            return True
    return bool(hi / s >= 1.0 - NEWTON_TOL)


def warm_check(solution: OracleSolution, r_norm, sigma, t_go):
    """Whether the solved extremal still passes through each queried state.

    The queries (normalized range, signed look angle, time-to-go) broadcast.
    Returns (hit, (dR, dSigma), U) of the signed extremal, dSigma against the
    folded look angle: a hit lies on the extremal's side (sigma and beta not
    of opposite signs) and within WARM_TOL of it.  The straight line takes
    either side, as a straight flight's look angle rounds to about +-1e-15.
    Past the solved time-to-go it is evaluated at NaN times: dR and dSigma
    are NaN, and nothing hits.
    """
    p = solution.params
    X, Y, Theta, U = evaluate(p.alpha, p.beta, np.where(solution.normalized_t_go >= t_go, t_go, np.nan))
    r_end, s_end = range_look_angle(X, Y, Theta)
    f = (r_end - r_norm, s_end - np.abs(sigma))
    hit = (np.abs(f[0]) <= WARM_TOL * (1.0 + r_norm)) & (np.abs(f[1]) <= WARM_TOL)
    return hit & (sigma * p.beta >= 0.0), f, U


def command_oracle(query: GuidanceQuery) -> OracleSolution:
    """Solve the boundary problem for the optimal command at the query.

    The answer depends on the query alone: the solve runs on rho and |sigma|
    at unit time-to-go, and t_go only rescales it.  Newton runs from the
    root table's seed, then from the chart cells that bracket a root
    (``_seeds``), one seed after another, and each root it reaches gets one
    exact collinearity check (``_admissible``).  The first admissible root
    is the answer: the chart's Jacobian keeps one sign and its edges map to
    the reachable set's, so it is one-to-one
    (``test_admissible_chart_jacobian_keeps_one_sign``).
    ``roots`` lists the roots reached, with their efforts and beta negated
    for a negative look angle, and ends with ``params``; (1, 0) on the
    collision course.  The command is the closed form's U at the time-to-go,
    as ``simulate`` flies it and ``warm_check`` returns it.  Raises
    GuidanceError, saying how many roots Newton reached, when none is admissible.
    """
    r_norm = query.r / query.speed
    t_go = query.t_go
    if _on_collision_course(query.r, query.sigma, t_go, query.speed):
        return OracleSolution(AdjointParams(1.0, 0.0), (r_norm - t_go, 0.0), t_go, 0.0, 0.0)

    rho, sigma_abs = r_norm / t_go, abs(query.sigma)
    found = []  # (q, beta, residual, admissible) of each root reached, in seed order
    for q, b, f in filter(None, (_newton(rho, sigma_abs, *seed) for seed in _seeds(rho, sigma_abs))):
        found.append((q, b, f, _admissible(q, b)))
        if found[-1][3]:
            break
    else:
        raise GuidanceError(f"no admissible extremal found: Newton reached {len(found)} root(s), none collinearity-free")

    efforts = effort([q for q, *_ in found], [b for _, b, *_ in found], 1.0) / t_go
    side = -1.0 if query.sigma < 0.0 else 1.0  # a negative look angle mirrors the extremal
    roots = tuple((float(q) / (t_go * t_go), side * float(b), float(j), ok) for (q, b, _, ok), j in zip(found, efforts))
    a, b, j, _ = roots[-1]
    return OracleSolution(
        params=AdjointParams(a, b),
        residual=(float(f[0]) * t_go, float(f[1])),
        normalized_t_go=t_go,
        command=float(command(a, b, t_go)),
        effort=j,
        roots=roots,
    )
