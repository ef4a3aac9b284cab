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
check of each root, each root's effort and the command at the
time-to-go.  Newton's endpoints, the efforts and the command are
evaluated on Python floats (``extremals._float_endpoints``,
``_float_effort`` and ``_float_command``), equal to the bit to
``evaluate``, ``effort`` and ``command`` on arrays.  A solve returns the
winning extremal's parameters, signed as ``evaluate`` takes them, and
samples nothing: a negative look angle mirrors the extremal (beta < 0),
and the straight line is (1, 0).  ``sim.solve_ocp`` and ``sim.simulate``
read the optimal path off the same closed form instead of integrating it.
Newton seeds from the committed table of admissible roots (ln q, ln beta)
at unit time-to-go over the whole scale-free (rho, |sigma|) square
(``ROOT_TABLE``, read on first use; ``tools/build_root_table.py`` rebuilds
it by continuation): first the query's cell, interpolated bilinearly, then
the nearest solved nodes.  Each seed runs its own damped Newton in those
coordinates, whose reach is every beta that a normal double holds, one
endpoint evaluation per trial point, until a root is admissible; every root
reached is reported in ``OracleSolution.roots`` with its effort and
whether it is admissible.

A closed loop keeps flying a solved extremal while its state stays on it:
``warm_check`` tests many states against one solution in one call, within
``WARM_TOL`` of the extremal's range and signed look angle.
``command_oracle`` keeps no state: every call seeds its query from the
table, which depends on rho and |sigma| alone, so its answer depends on
the query alone.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import mlp
from .extremals import (
    AdjointParams,
    _collinear_brackets,
    _float_command,
    _float_effort,
    _float_endpoints,
    evaluate,
    propagate_param,  # not called here; benchmarks/metrics.py traces it under this name
    range_look_angle,
    sweep_cells,  # not called here; benchmarks/metrics.py traces it under this name
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

# Newton steps in (ln q, ln beta), differencing by LN_BETA_STEP in ln beta.  It
# stops once |R1 - rho| <= NEWTON_TOL * rho and |dSigma| <= NEWTON_TOL at unit
# time-to-go, and gives up after NEWTON_MAX_ITER steps; beta stays at most pi,
# and q and beta normal doubles, |ln| < LN_NORMAL.  A solved extremal still
# passes through a state within the looser WARM_TOL band: far below any effort
# or miss tolerance.
NEWTON_TOL = 1e-9
NEWTON_MAX_ITER = 40
LN_BETA_STEP = 1e-6
LN_NORMAL = -math.log(2.0**-1022)  # 2**-1022: the smallest normal double
WARM_TOL = 1e-5

# The root table's grid (tools/build_root_table.py writes ROOT_TABLE on it):
# rho rows evenly spaced below 0.9, then with 1 - rho geometric from 0.1 to
# 0.003, denser toward rho = 1 where beta changes by orders of magnitude, by
# |sigma| columns evenly spaced over [0, pi].  Where the bilinear seed fails,
# the ROOT_TABLE_NEAREST solved nodes nearest the query seed Newton.
ROOT_TABLE = Path(__file__).with_name("root_table.txt")
ROOT_TABLE_RHO = tuple(np.linspace(0.005, 0.9, 33, endpoint=False).tolist() + (1.0 - np.geomspace(0.1, 0.003, 33)).tolist())
ROOT_TABLE_SIGMA = tuple(np.linspace(0.0, math.pi, 49).tolist())
ROOT_TABLE_NEAREST = 8


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


@functools.cache
def _root_table():
    """The committed root table, read on first use: a read-only array of (ln q, ln beta) rows.

    Node (i, j) is row i * len(ROOT_TABLE_SIGMA) + j.
    """
    table = np.loadtxt(ROOT_TABLE)
    table.flags.writeable = False
    return table


def _grid_cell(nodes, v):
    """The cell of the ascending nodes that holds v, and v's fraction of the way across it, clamped to the nodes' ends."""
    k = min(max(bisect.bisect_right(nodes, v) - 1, 0), len(nodes) - 2)
    return k, min(max((v - nodes[k]) / (nodes[k + 1] - nodes[k]), 0.0), 1.0)


def _nearest_nodes(table, x, y, reach=math.inf):
    """The flat indices of a root table's ROOT_TABLE_NEAREST solved nodes nearest the fractional node index (x, y).

    Nearest first, ties in node order, and none more than reach index units away.
    """
    solved = np.flatnonzero(~np.isnan(table[:, 0]))
    i, j = np.divmod(solved, len(ROOT_TABLE_SIGMA))
    distance = np.hypot(i - x, j - y)
    near = np.argsort(distance, kind="stable")[:ROOT_TABLE_NEAREST]
    return solved[near[distance[near] <= reach]].tolist()


def _seeds(rho, sigma_abs):
    """Newton's seeds for a scale-free query, from the root table alone.

    First the bilinear interpolation in (ln q, ln beta) of the query's cell,
    then the table's nearest nodes.
    """
    table = _root_table()
    (i, fx), (j, fy) = _grid_cell(ROOT_TABLE_RHO, rho), _grid_cell(ROOT_TABLE_SIGMA, sigma_abs)
    n = len(ROOT_TABLE_SIGMA)
    k = i * n + j
    yield tuple((1.0 - fx) * ((1.0 - fy) * table.item(k, m) + fy * table.item(k + 1, m))
                + fx * ((1.0 - fy) * table.item(k + n, m) + fy * table.item(k + n + 1, m)) for m in (0, 1))
    for node in _nearest_nodes(table, i + fx, j + fy):
        yield table.item(node, 0), table.item(node, 1)


def _endpoint_jacobian(ln_q, ln_b):
    """R1 and Sigma1 of the extremal (q, beta) at unit time, and their Jacobian in (ln q, ln beta).

    One evaluation of the extremal and its step of LN_BETA_STEP in ln beta,
    on floats (``extremals._float_endpoints``: ``evaluate`` and
    ``range_look_angle`` of the pair, to the bit), gives the ln beta column
    as a forward difference.  The ln q column is exact: the family is
    scale-invariant, R1 = R(beta, sqrt(q)) / sqrt(q) and
    Sigma1 = Sigma(beta, sqrt(q)) of the unit-alpha extremal, so
    dR1/d ln q = (cos Sigma - R1) / 2 and dSigma1/d ln q = Sigma' / 2, where
    Sigma' = U - sin(Sigma) / R1 is the signed look angle's rate along the
    extremal.  The difference in Sigma1 wraps at +-pi.
    """
    betas = [float(np.exp(ln_b)), float(np.exp(ln_b + LN_BETA_STEP))]  # numpy's exp, as the array formula takes it
    (r, s, u), (r_b, s_b, _) = _float_endpoints(math.exp(ln_q), betas, 1.0)
    rate = u - math.sin(s) / r  # Sigma'
    return r, s, np.array([[(math.cos(s) - r) / 2.0, (r_b - r) / LN_BETA_STEP],
                           [rate / 2.0, math.remainder(s_b - s, math.tau) / LN_BETA_STEP]])


def _newton(rho, sigma_abs, ln_q, ln_b):
    """Damped Newton on the unit-horizon endpoint residual in (ln q, ln beta), from one seed.

    Each trial point costs one ``_endpoint_jacobian`` call, which also gives
    the Jacobian of the next step; the look angle's residual wraps at +-pi.
    A step is tried at 1, 1/2, ..., 1/32 of its length until the residual
    shrinks (its range part relative to rho, as in the convergence test) at
    a point of normal doubles with beta <= pi.
    Returns (ln q, ln beta, residual), or None when the seed does not
    converge within NEWTON_MAX_ITER steps or meets a singular Jacobian.
    """

    def trial(ln_q, ln_b):
        r, s, jac = _endpoint_jacobian(ln_q, ln_b)
        f = r - rho, math.remainder(s - sigma_abs, math.tau)
        return ln_q, ln_b, f, float(np.hypot(f[0] / rho, f[1])), jac

    def converged(f):
        return abs(f[0]) <= NEWTON_TOL * rho and abs(f[1]) <= NEWTON_TOL

    ln_q, ln_b, f, size, jac = trial(ln_q, ln_b)
    for _ in range(NEWTON_MAX_ITER):
        if converged(f):
            return ln_q, ln_b, f
        try:
            dq, db = np.linalg.solve(jac, [-f[0], -f[1]]).tolist()
        except np.linalg.LinAlgError:
            return None
        for lam in (1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125):
            ln_q1, ln_b1 = ln_q + lam * dq, min(ln_b + lam * db, math.log(math.pi))
            if max(abs(ln_q1), abs(ln_b1)) < LN_NORMAL and (point := trial(ln_q1, ln_b1))[3] < size:
                break
        else:
            return None
        ln_q, ln_b, f, size, jac = point
    return (ln_q, ln_b, f) if converged(f) else None


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
    Returns (hit, (dR, dSigma), U) of the signed extremal: a hit lies within
    WARM_TOL of it in range and in signed look angle, unwrapped, so a state
    across the +-pi seam from its plan misses.  Past the solved time-to-go
    it is evaluated at NaN times: dR and dSigma are NaN, and nothing hits.
    """
    p = solution.params
    X, Y, Theta, U = evaluate(p.alpha, p.beta, np.where(solution.normalized_t_go >= t_go, t_go, np.nan))
    r_end, s_end = range_look_angle(X, Y, Theta)
    f = (r_end - r_norm, s_end - sigma)
    return (np.abs(f[0]) <= WARM_TOL * (1.0 + r_norm)) & (np.abs(f[1]) <= WARM_TOL), f, U


def command_oracle(query: GuidanceQuery) -> OracleSolution:
    """Solve the boundary problem for the optimal command at the query.

    The answer depends on the query alone: the solve runs on rho and |sigma|
    at unit time-to-go, and t_go only rescales it.  Newton runs from the
    root table's seeds (``_seeds``), one seed after another, and each root
    it reaches gets one exact collinearity check (``_admissible``).  The
    first admissible root is the answer: the admissible chart's Jacobian
    keeps one sign and its edges map to the reachable set's, so it is
    one-to-one (``test_admissible_chart_jacobian_keeps_one_sign``).
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
    for ln_q, ln_b, f in filter(None, (_newton(rho, sigma_abs, *seed) for seed in _seeds(rho, sigma_abs))):
        q, b = math.exp(ln_q), math.exp(ln_b)
        found.append((q, b, f, _admissible(q, b)))
        if found[-1][3]:
            break
    else:
        raise GuidanceError(f"no admissible extremal found: Newton reached {len(found)} root(s), none collinearity-free")

    side = -1.0 if query.sigma < 0.0 else 1.0  # a negative look angle mirrors the extremal
    roots = tuple((q / (t_go * t_go), side * b, float(_float_effort(q, b, 1.0) / t_go), ok) for q, b, _, ok in found)
    a, b, j, _ = roots[-1]
    return OracleSolution(
        params=AdjointParams(a, b),
        residual=(float(f[0]) * t_go, float(f[1])),
        normalized_t_go=t_go,
        command=_float_command(a, b, t_go),
        effort=j,
        roots=roots,
    )
