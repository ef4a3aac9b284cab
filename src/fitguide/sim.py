"""Closed-loop engagement simulation, the open-loop optimum, and effort/miss metrics.

The simulator flies the Cartesian kinematics exactly (constant turn rate
over each step), and every law flies one step clock (``_node_times``):
nodes k dt, each rounded once, and last t_end itself, where t_end is t_f,
or for PN max(4 t_f, 60 s).  The network and the
proportional-navigation (gain 3) laws are bound once per engagement
(``guidance.bind_law``), then measure range and look angle and evaluate
their command every step on floats, with no query object.  Their step loop
keeps the pose in three float locals and writes the look angle, the exact
arc and heading wrap of ``step_cartesian`` and the clock out inline, equal
to the bit to ``cartesian_to_polar`` and ``step_cartesian``.  The
boundary-value oracle re-solves at nodes set once per engagement (node 0,
then the first node each second after the last), and its command depends on
time alone: it is the plan's, the latest solved extremal's, in closed form
at each step's midpoint time-to-go, read with ``extremals.command`` (U
alone, not the extremal's state).  So each plan is flown to the end in one
vectorized pass (``kinematics.fly_arcs``) and tested at all its coming
re-solve nodes in one ``guidance.warm_check`` call; the first node where
the flown state has drifted off it is re-solved and flown again from.
``command_oracle`` is called only there and at node 0, and solves each
query afresh.  While the range is too short to measure the look angle (two
steps' flight), the network and PN laws hold their last command, and the
oracle leaves a re-solve node out of its warm check; its plan flies on.
``SimResult.held_steps`` counts the network's and PN's held steps.
``solve_ocp`` is the oracle's first plan on the same clock, its state read
off the extremal instead of flown.

Termination: network/oracle runs stop at the prescribed impact time (or on
an early target crossing); PN ignores it and flies until intercept, or gives
up exactly at max(4 t_f, 60 s).  Miss distance and impact time are refined
by fitting a parabola to the squared range over the final integration nodes.
The effort is the exact integral of the commands flown: each step holds its
command u_k for its length h_k, so J = V^2/2 * sum of u_k^2 h_k.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .datagen import write_csv
from .extremals import command, evaluate
from .guidance import GuidanceError, GuidanceQuery, OracleSolution, bind_law, command_oracle, warm_check
from .guidance import command_nn, pn_command  # not called here: the benchmark tracer looks them up in sim
from .kinematics import CartesianState, _wrap_angles, cartesian_to_polar, fly_arcs, look_angles
from .kinematics import step_cartesian  # not called here: the benchmark tracer and the tests look it up in sim

__all__ = [
    "Scenario",
    "SimResult",
    "simulate",
    "solve_ocp",
    "salvo",
    "salvo_summary",
    "export_trajectory",
]

TRAJECTORY_HEADER = "t,x,y,theta,r,sigma,u,a"

GUIDANCE_LAWS = ("nn", "oracle", "pn")

RESOLVE_PERIOD = 1.0  # s, from one oracle re-solve node to the next


@dataclass(frozen=True)
class Scenario:
    """One engagement: interceptor initial state in the target frame, speed,
    prescribed impact time, guidance law and integration step.

    Nothing else is set per run: the oracle re-solves every
    ``RESOLVE_PERIOD`` (1 s), and PN has gain 3 and gives up at max(4 t_f, 60 s).
    """

    initial: CartesianState
    speed: float
    t_f: float
    guidance: str = "oracle"
    dt: float = 0.01

    def __post_init__(self):
        if self.guidance not in GUIDANCE_LAWS:
            raise ValueError(f"unknown guidance law {self.guidance!r}")
        if not all(0.0 < v < math.inf for v in (self.speed, self.t_f, self.dt)):
            raise ValueError("speed, t_f and dt must be finite and positive")


@dataclass
class SimResult:
    """Sampled closed-loop trajectory plus engagement metrics."""

    scenario: Scenario
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    theta: np.ndarray
    r: np.ndarray
    sigma: np.ndarray
    u: np.ndarray           # turn rate held over each step (len(t) - 1 entries)
    accel: np.ndarray       # lateral acceleration history (speed * u)
    effort: float           # J = speed^2/2 * sum of u^2 h over the steps, m^2/s^3
    miss: float
    impact_time: float
    resolves: int = 0           # oracle re-solve nodes warm-checked or solved at
    resolve_failures: int = 0   # oracle re-solves that raised; the last plan was replayed
    # longest time, s, from the solve that made an oracle plan to the start of the last
    # step it commanded; a node whose warm check passes, or whose re-solve fails, keeps the plan and its age
    plan_age_max: float = 0.0
    oracle: OracleSolution | None = None  # the oracle plan that flew the last step; None for the network and PN
    # network and PN steps that held the last command, the range being under two steps' flight; 0 for the oracle
    held_steps: int = 0


def _refine_miss(t_nodes, r_nodes, dt):
    """Parabola fit on r^2 over the last three nodes; returns (impact_time, miss).

    The fit runs in s = t - t_end, so no term of about (speed * t)^2 cancels.
    """
    if len(t_nodes) < 3:
        return float(t_nodes[-1]), float(r_nodes[-1])
    t_end = float(t_nodes[-1])
    s0, s1 = float(t_nodes[-3]) - t_end, float(t_nodes[-2]) - t_end
    q0, q1, q2 = (float(r) ** 2 for r in r_nodes[-3:])
    # quadratic through three points; fall back to the end node if degenerate
    denom = s0 * s1 * (s0 - s1)
    if denom == 0.0:
        return t_end, math.sqrt(q2)
    d0, d1 = q0 - q2, q1 - q2
    a = (s1 * d0 - s0 * d1) / denom
    if a <= 0.0:
        q, s = min((q0, s0), (q1, s1), (q2, 0.0))
        return t_end + s, math.sqrt(q)
    b = (s0 * s0 * d1 - s1 * s1 * d0) / denom
    s_v = min(max(-b / (2.0 * a), -2.0 * dt), dt)
    q_min = (a * s_v + b) * s_v + q2
    return t_end + s_v, math.sqrt(max(q_min, 0.0))


def _node_times(t_end: float, dt: float) -> np.ndarray:
    """The step clock of every law: nodes k dt for k < n and t_end for k = n, n = max(1, ceil(t_end / dt - 1e-9)).

    Each node is rounded once, so no rounding accumulates.  The last step
    ends on t_end: it is shorter than dt, or longer by at most 1e-9 dt where
    t_end / dt is a hair above a whole number.  Each step's length is
    ``np.diff`` of the nodes.
    """
    t = np.arange(max(1, math.ceil(t_end / dt - 1e-9)) + 1) * dt
    t[-1] = t_end
    return t


def _oracle_clock(scenario: Scenario):
    """The oracle's nodes to t_f, each step's length, and each step's midpoint time-to-go.

    A plan's command held over a step is its extremal's at the step's
    midpoint, which halves the hold bias.
    """
    nodes = _node_times(scenario.t_f, scenario.dt)
    h = np.diff(nodes)
    return nodes, h, scenario.t_f - nodes[:-1] - 0.5 * h


def _solve(state: CartesianState, t_go: float, speed: float):
    """``command_oracle`` at the state and time-to-go."""
    polar = cartesian_to_polar(state)
    return command_oracle(GuidanceQuery(polar.r, polar.sigma, t_go, speed))


def _fly_oracle(scenario: Scenario):
    """Node arrays ``(t, x, y, theta, u)`` of an oracle engagement, and its re-solve counts."""
    speed, dt, t_f = scenario.speed, scenario.dt, scenario.t_f
    # no re-solve in the terminal phase: the query degenerates toward a
    # collision course where the solve is ill conditioned, while the
    # replayed extremal is already exact
    t_lock = max(RESOLVE_PERIOD, 0.1 * t_f)
    nodes, h, t_eval = _oracle_clock(scenario)
    last = len(h)
    # the re-solve nodes: node 0, then each the first a period after the
    # last, before the lock; a node and its due time are rounded apart, so
    # a node within a hair of the due time is due, else that re-solve lands a step late;
    # bisect probes the array itself, a fraction of np.searchsorted's per-call set-up
    before_lock = int(np.count_nonzero(t_f - nodes > t_lock))
    due, j = [0], 0
    while (j := max(bisect.bisect_left(nodes, nodes[j] + RESOLVE_PERIOD * (1.0 - 1e-9)), j + 1)) < before_lock:
        due.append(j)
    u = np.empty(last)  # from the node a plan was solved at on, that plan's commands
    solved_at = np.empty(last)  # the node time of the solve that made each step's plan
    path = np.empty((3, last + 1))  # x, y, theta at each node
    path[:, 0] = scenario.initial.x, scenario.initial.y, scenario.initial.theta
    sol = None
    resolves, resolve_failures = 1, 0  # node 0 is solved at
    k = 0
    while True:
        # node 0, or the first re-solve node whose warm check failed
        try:
            new = _solve(CartesianState(*path[:, k]), max(t_f - nodes[k], math.hypot(*path[:2, k]) / speed), speed)
        except GuidanceError as err:
            if sol is None:
                raise GuidanceError(f"t={nodes[k]:.3f} s: {err}") from err
            # keep replaying the last verified plan; late-flight
            # re-solves are ill-conditioned near collision course
            resolve_failures += 1
        else:
            sol = new
            u[k:] = command(sol.params.alpha, sol.params.beta, t_eval[k:])
            solved_at[k:] = nodes[k]
        # fly the plan to t_f, or to the first node within half a step's flight
        flown = xs, ys, ths = fly_arcs(*path[:, k], u[k:], h[k:], speed)
        rr = np.hypot(xs, ys)
        near = np.flatnonzero(rr < speed * dt / 2.0)
        n = int(near[0]) if len(near) else last - k
        # test the plan at all the re-solve nodes on the way at once, but those
        # within two steps' flight, whose look angle is unreliable; the first
        # that drifts off the plan ends the flight and re-solves
        d = np.array([j - k for j in due if k < j < k + n and rr[j - k] >= 2.0 * speed * dt])
        cut = len(d)
        if len(d):
            r_d = rr[d] / speed
            ok = warm_check(sol, r_d, look_angles(xs[d], ys[d], ths[d]), np.maximum(t_f - nodes[k + d], r_d))[0]
            cut = int(np.argmin(np.append(ok, False)))
        resolves += min(cut + 1, len(d))
        if cut < len(d):
            n = int(d[cut])
        path[:, k + 1 : k + n + 1] = [a[1 : n + 1] for a in flown]
        k += n
        if cut == len(d):
            break
    plan_age_max = float(np.max(nodes[:k] - solved_at[:k], initial=0.0))
    counts = {"resolves": resolves, "resolve_failures": resolve_failures, "plan_age_max": plan_age_max, "oracle": sol}
    return (nodes[: k + 1], *path[:, : k + 1], u[:k]), counts


def _fly_steps(scenario: Scenario, model):
    """Node arrays ``(t, x, y, theta, u)`` of a network or PN engagement, one step at a time.

    The law is bound once per engagement, through this module's ``bind_law``,
    and each measured step evaluates it on the floats r, sigma and t_go.  The
    rest of a step is written out on three float locals x, y and theta: the
    look angle of ``kinematics._bind_look_angle`` (numpy's ``arctan2`` on
    one-element arrays allocated here), the exact arc of ``kinematics._arc``
    with ``wrap_angle``'s heading, and ``_node_times``' node k dt, with
    t_end the last.  Each equals its reference to the bit.  Its counts are the
    held steps (``SimResult.held_steps``).
    """
    law, speed, dt, t_f = scenario.guidance, scenario.speed, scenario.dt, scenario.t_f
    t_end = max(4.0 * t_f, 60.0) if law == "pn" else t_f
    nodes = _node_times(t_end, dt)
    n = len(nodes) - 1
    step_law = bind_law(law, model, speed)
    ys, xs, atan = np.empty(1), np.empty(1), np.empty(1)
    arctan2, hypot, sin, cos, fmod, isfinite = np.arctan2, math.hypot, math.sin, math.cos, math.fmod, math.isfinite
    pi, two_pi, near, measured = math.pi, 2.0 * math.pi, speed * dt / 2.0, 2.0 * speed * dt
    x, y, theta = scenario.initial.x, scenario.initial.y, scenario.initial.theta
    x_hist, y_hist, th_hist, u_hist = [x], [y], [theta], []
    u, held, t = 0.0, 0, 0.0
    for k in range(1, n + 1):
        if (r := hypot(x, y)) < near:
            break
        if r >= measured:
            # what GuidanceQuery would check holds here: r >= 2 V dt > 0; sigma is
            # wrap_angle's, in [-pi, pi]; t_go >= r / V is positive and reachable
            # (clamped, as command noise can make the terminal phase marginally
            # infeasible); a non-finite pose raises in the network's input check,
            # as a non-finite u below, or in the final pose check
            ys[0], xs[0] = y, x
            arctan2(ys, xs, atan)
            if (w := fmod(pi + atan.item() - theta + pi, two_pi)) <= 0.0:
                w += two_pi
            u = step_law(r, w - pi, max(t_f - t, r / speed))
            if not isfinite(u):
                raise ValueError("invalid state: non-finite step input")
        else:  # the range is too short to measure the look angle reliably: hold u
            held += 1
        t_next = k * dt if k < n else t_end
        h = t_next - t
        t = t_next
        half = 0.5 * u * h
        chord = speed * h if half == 0.0 else speed * h * (sin(half) / half)
        mid = theta + half
        x += chord * cos(mid)
        y += chord * sin(mid)
        if (w := fmod(theta + u * h + pi, two_pi)) <= 0.0:
            w += two_pi
        theta = w - pi
        x_hist.append(x)
        y_hist.append(y)
        th_hist.append(theta)
        u_hist.append(u)
    if not (isfinite(x) and isfinite(y) and isfinite(theta)):
        raise ValueError("invalid state: non-finite Cartesian component")
    flight = nodes[: len(x_hist)], np.array(x_hist), np.array(y_hist), np.array(th_hist), np.array(u_hist)
    return flight, {"held_steps": held}


def simulate(scenario: Scenario, model=None) -> SimResult:
    """Run one closed-loop engagement."""
    law = scenario.guidance
    if law == "nn" and model is None:
        raise ValueError("network guidance requires a model")
    speed, dt, t_f = scenario.speed, scenario.dt, scenario.t_f
    r0 = math.hypot(scenario.initial.x, scenario.initial.y)
    if law in ("nn", "oracle") and r0 > speed * t_f * (1.0 + 1e-12):
        raise GuidanceError("infeasible scenario: target unreachable by t_f")
    flight = _fly_oracle(scenario) if law == "oracle" else _fly_steps(scenario, model)
    (t_arr, x_arr, y_arr, th_arr, u_arr), counts = flight
    r_arr = np.hypot(x_arr, y_arr)
    effort = 0.5 * speed**2 * float(np.dot(u_arr * u_arr, np.diff(t_arr)))
    impact_time, miss = _refine_miss(t_arr, r_arr, dt)
    return SimResult(
        scenario=scenario,
        t=t_arr,
        x=x_arr,
        y=y_arr,
        theta=th_arr,
        r=r_arr,
        sigma=look_angles(x_arr, y_arr, th_arr),
        u=u_arr,
        accel=speed * u_arr,
        effort=effort,
        miss=miss,
        impact_time=impact_time,
        **counts,
    )


def solve_ocp(initial: CartesianState, speed: float, t_f: float, dt: float = 0.01) -> SimResult:
    """Solve one fixed-impact-time problem and read the optimal path off its extremal.

    This is the closed-loop oracle's first plan: the same solve at node 0,
    the same nodes and the same commands, so up to its first re-solve
    ``simulate`` flies them to the bit.  The state is read off the
    extremal, not flown: at time t it is the extremal's at time-to-go
    t_f - t, rotated onto the initial line of sight and scaled by the
    speed.  It ends on the target (miss 0, impact t_f), and the effort is
    the oracle's exact integral.  ``Scenario`` checks speed, t_f and dt.
    """
    scenario = Scenario(initial, speed, t_f, dt=dt)
    t, _, t_go = _oracle_clock(scenario)
    sol = _solve(initial, t_f, speed)
    alpha, beta = sol.params.alpha, sol.params.beta
    X, Y, Theta, _ = evaluate(alpha, beta, t_f - t)
    u = command(alpha, beta, t_go)
    phi = math.atan2(initial.y, initial.x) - math.atan2(Y[0], X[0])
    c, s = speed * math.cos(phi), speed * math.sin(phi)
    x, y = c * X - s * Y, s * X + c * Y
    x[-1] = y[-1] = 0.0  # the target, exactly
    theta = _wrap_angles(Theta + phi)
    return SimResult(
        scenario=scenario,
        t=t,
        x=x,
        y=y,
        theta=theta,
        r=np.hypot(x, y),
        sigma=look_angles(x, y, theta),
        u=u,
        accel=speed * u,
        effort=sol.effort * speed**2,
        miss=0.0,
        impact_time=t_f,
        resolves=1,
        oracle=sol,
    )


def salvo(scenarios, model=None) -> list:
    """Simulate several interceptors against the common target.

    All scenarios must share the same prescribed impact time.  A scenario
    that fails with GuidanceError or ValueError (infeasible geometry, no
    admissible extremal, invalid input) leaves the exception in its slot
    without aborting the remaining runs; any other exception propagates.
    """
    scenarios = list(scenarios)
    if not scenarios:
        return []
    t_fs = {s.t_f for s in scenarios}
    if len(t_fs) != 1:
        raise ValueError("salvo scenarios must share a common impact time")
    results = []
    for sc in scenarios:
        try:
            results.append(simulate(sc, model=model))
        except (GuidanceError, ValueError) as err:
            results.append(err)
    return results


def salvo_summary(results) -> dict:
    """Per-interceptor efforts and impact times plus the time spread."""
    efforts = [r.effort if isinstance(r, SimResult) else math.nan for r in results]
    impacts = [r.impact_time if isinstance(r, SimResult) else math.nan for r in results]
    ok = [x for x in impacts if not math.isnan(x)]
    return {
        "efforts": efforts,
        "impact_times": impacts,
        "impact_spread": (max(ok) - min(ok)) if ok else math.nan,
        "failures": [i for i, r in enumerate(results) if not isinstance(r, SimResult)],
    }


def export_trajectory(result, path) -> None:
    """Write the sampled trajectory as CSV (SI units, 17 digits).

    The command columns hold the value in effect on the step starting at
    each node; the final node repeats the last held command.
    """

    def held(v):
        return np.append(v, v[-1]) if len(v) else np.zeros(len(result.t))

    write_csv(path, TRAJECTORY_HEADER, np.column_stack([
        result.t, result.x, result.y, result.theta, result.r, result.sigma, held(result.u), held(result.accel),
    ]))
