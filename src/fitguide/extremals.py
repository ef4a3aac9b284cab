"""Costate-parameterized extremal trajectories for minimum-effort interception.

Every first-order-optimal interception trajectory with free final heading
is, after normalizing speed to one and translating the target to the
origin, the time reversal of a solution of

    dX/dt     = -cos(Theta)
    dY/dt     = -sin(Theta)
    dTheta/dt = -U,      U = alpha * (Y cos(beta) - X sin(beta))

started from (0, 0, 0), where ``alpha >= 0`` is the magnitude and
``beta`` the direction of the constant position costate.  Propagating
this system and reading off

    R     = hypot(X, Y)
    Sigma = arccos( -(X cos Theta + Y sin Theta) / R )
    U     = alpha * (Y cos beta - X sin beta)

yields, at parameter time t, the optimal state (range R, look angle
Sigma) and command U for a remaining flight time of t.

A trajectory stops being optimal the first time the velocity becomes
collinear with the line of sight (folded look angle touching 0 or pi).
Both touches are transversal zero crossings of the cross product
``c = Y cos Theta - X sin Theta``, so collinearity is detected by a sign
change of c between integration nodes and refined by bisection; a
threshold test on cos(Sigma) alone cannot see the crossing because
Sigma dips to zero only instantaneously.

The conserved Hamiltonian along any such trajectory is
``alpha*cos(Theta - beta) + U**2/2`` and equals ``alpha*cos(beta)``.

The family also has a closed form.  psi = Theta - beta + pi obeys
psi'' = -alpha sin(psi) with psi(0) = pi - beta and psi'(0) = 0, a
pendulum released from rest, so every extremal is an inflectional Euler
elastica of modulus k = cos(beta/2).  This module provides the Jacobi
elliptic functions and integrals that evaluate it (numpy and ``math``
only); the boundary-value oracle uses them for its endpoint, while the
propagators and the dataset sweep stay numerical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "AdjointParams",
    "ParamState",
    "ParamTrajectory",
    "propagate_param",
    "terminal_time",
    "hamiltonian",
    "ellipj",
    "ellipk",
    "ellipe",
    "ellipeinc",
    "EPS_COLLINEAR",
]

# Band half-width on cos(Sigma) used to decide whether a trajectory ever
# left the collinear set (degenerate beta in {0, pi} never does).
EPS_COLLINEAR = 1e-9


@dataclass(frozen=True)
class AdjointParams:
    """Polar form (magnitude, direction) of the constant position costate."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError("non-finite costate parameters")
        if self.alpha < 0.0:
            raise ValueError("alpha must be non-negative")
        if not -math.pi <= self.beta <= math.pi:
            raise ValueError("beta must lie in [-pi, pi]")


@dataclass(frozen=True)
class ParamState:
    """Instantaneous state of the parameterized system."""

    X: float
    Y: float
    Theta: float
    t: float


@dataclass
class ParamTrajectory:
    """Sampled parameterized trajectory with derived outputs.

    Arrays share a common length; ``Sigma[0]`` is NaN since the look
    angle is undefined at the origin.  ``terminal_time`` is the refined
    first collinearity time, the propagation horizon if no collinearity
    occurred, or 0.0 for degenerate parameters whose trajectory never
    leaves the collinear set.
    """

    params: AdjointParams
    t: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    Theta: np.ndarray
    R: np.ndarray
    Sigma: np.ndarray
    U: np.ndarray
    terminal_time: float

    def __len__(self):
        return len(self.t)

    def state_at(self, k: int) -> ParamState:
        return ParamState(float(self.X[k]), float(self.Y[k]), float(self.Theta[k]), float(self.t[k]))


def _rk4(x: float, y: float, th: float, h: float, alpha: float, cb: float, sb: float):
    """One RK4 step of the parameterized system (scalar fast path)."""
    k1x = -math.cos(th)
    k1y = -math.sin(th)
    k1t = -alpha * (y * cb - x * sb)
    x2 = x + 0.5 * h * k1x
    y2 = y + 0.5 * h * k1y
    t2 = th + 0.5 * h * k1t
    k2x = -math.cos(t2)
    k2y = -math.sin(t2)
    k2t = -alpha * (y2 * cb - x2 * sb)
    x3 = x + 0.5 * h * k2x
    y3 = y + 0.5 * h * k2y
    t3 = th + 0.5 * h * k2t
    k3x = -math.cos(t3)
    k3y = -math.sin(t3)
    k3t = -alpha * (y3 * cb - x3 * sb)
    x4 = x + h * k3x
    y4 = y + h * k3y
    t4 = th + h * k3t
    k4x = -math.cos(t4)
    k4y = -math.sin(t4)
    k4t = -alpha * (y4 * cb - x4 * sb)
    return (
        x + h / 6.0 * (k1x + 2.0 * (k2x + k3x) + k4x),
        y + h / 6.0 * (k1y + 2.0 * (k2y + k3y) + k4y),
        th + h / 6.0 * (k1t + 2.0 * (k2t + k3t) + k4t),
    )


def _cross(x: float, y: float, th: float) -> float:
    """Cross product of position and velocity direction; zero iff collinear."""
    return y * math.cos(th) - x * math.sin(th)


def _cos_sigma(x: float, y: float, th: float) -> float:
    r = math.hypot(x, y)
    return -(x * math.cos(th) + y * math.sin(th)) / r if r > 0.0 else 1.0


def _refine_crossing(xk, yk, thk, tk, h, alpha, cb, sb, tol):
    """Bisection on the collinearity cross product inside (tk, tk+h]."""
    lo, hi = 0.0, h
    c_lo = _cross(xk, yk, thk)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        xm, ym, thm = _rk4(xk, yk, thk, mid, alpha, cb, sb)
        if _cross(xm, ym, thm) * c_lo > 0.0:
            lo = mid
        else:
            hi = mid
    return tk + 0.5 * (lo + hi)


def propagate_param(params: AdjointParams, t_end: float, dt: float) -> ParamTrajectory:
    """Propagate the parameterized system from the origin.

    Returns samples at t = 0, dt, 2*dt, ... truncated at the first
    collinearity if one occurs before t_end.
    """
    if params.alpha <= 0.0:
        raise ValueError("degenerate costate")
    if t_end <= 0.0 or dt <= 0.0:
        raise ValueError("t_end and dt must be positive")
    alpha = params.alpha
    cb, sb = math.cos(params.beta), math.sin(params.beta)
    n = max(1, int(round(t_end / dt)))
    h = t_end / n
    ts = [0.0]
    xs = [0.0]
    ys = [0.0]
    ths = [0.0]
    x = y = th = 0.0
    departed = False
    prev_c = 0.0
    t_term = t_end
    for k in range(1, n + 1):
        x, y, th = _rk4(x, y, th, h, alpha, cb, sb)
        c = _cross(x, y, th)
        if not departed and _cos_sigma(x, y, th) < 1.0 - EPS_COLLINEAR:
            departed = True
        elif departed and c * prev_c < 0.0:
            t_term = _refine_crossing(
                xs[-1], ys[-1], ths[-1], ts[-1], h, alpha, cb, sb, h / 100.0
            )
            break
        ts.append(k * h)
        xs.append(x)
        ys.append(y)
        ths.append(th)
        prev_c = c
    if not departed:
        t_term = 0.0
    t_arr = np.array(ts)
    X = np.array(xs)
    Y = np.array(ys)
    Th = np.array(ths)
    R = np.hypot(X, Y)
    with np.errstate(invalid="ignore", divide="ignore"):
        cos_s = -(X * np.cos(Th) + Y * np.sin(Th)) / R
    Sigma = np.arccos(np.clip(cos_s, -1.0, 1.0))
    Sigma[0] = np.nan
    U = alpha * (Y * cb - X * sb)
    return ParamTrajectory(params, t_arr, X, Y, Th, R, Sigma, U, t_term)


def terminal_time(params: AdjointParams, t_bar: float, dt: float) -> float:
    """First collinearity time, capped at t_bar.

    Returns 0.0 for degenerate parameters (straight-line extremal that
    never leaves the collinear set).
    """
    if params.alpha <= 0.0:
        raise ValueError("degenerate costate")
    if t_bar <= 0.0:
        raise ValueError("t_bar must be positive")
    alpha = params.alpha
    cb, sb = math.cos(params.beta), math.sin(params.beta)
    n = max(1, int(round(t_bar / dt)))
    h = t_bar / n
    x = y = th = 0.0
    departed = False
    prev_c = 0.0
    for k in range(1, n + 1):
        x_new, y_new, th_new = _rk4(x, y, th, h, alpha, cb, sb)
        c = _cross(x_new, y_new, th_new)
        if not departed and _cos_sigma(x_new, y_new, th_new) < 1.0 - EPS_COLLINEAR:
            departed = True
        elif departed and c * prev_c < 0.0:
            return _refine_crossing(x, y, th, (k - 1) * h, h, alpha, cb, sb, h / 100.0)
        x, y, th = x_new, y_new, th_new
        prev_c = c
    return t_bar if departed else 0.0


def hamiltonian(state: ParamState, params: AdjointParams) -> float:
    """Conserved Hamiltonian; equals alpha*cos(beta) along any trajectory."""
    if not all(map(math.isfinite, (state.X, state.Y, state.Theta))):
        raise ValueError("non-finite state")
    u = params.alpha * (state.Y * math.cos(params.beta) - state.X * math.sin(params.beta))
    return params.alpha * math.cos(state.Theta - params.beta) + 0.5 * u * u


# --- Jacobi elliptic functions and integrals for the closed-form extremal ---
#
# Every routine takes the modulus k and its complement kc = sqrt(1 - k**2)
# as two arguments, and none of them forms 1 - k**2: the extremal family's
# modulus is cos(beta/2), which rounds to exactly 1.0 for beta below about
# 2e-8, while kc = sin(beta/2) keeps full relative precision.


def _agm(k: float, kc: float):
    """AGM scale a_N and the Landen ratios c_n / a_n, n = 1..N (A&S 16.4)."""
    a, b, c = 1.0, kc, k
    ratios = []
    # the cap only matters for kc = 0, where K is infinite and the AGM never meets
    while c > 2.0**-53 * a and len(ratios) < 64:
        c = 0.5 * (a - b)
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        ratios.append(c / a)
    return a, ratios


def ellipk(k: float, kc: float) -> float:
    """Complete elliptic integral of the first kind K(k) = pi / (2 AGM(1, kc))."""
    return 0.5 * math.pi / _agm(k, kc)[0]


def ellipj(u: float, k: float, kc: float):
    """Jacobi elliptic functions (sn, cn, dn, am) of u at modulus k.

    The amplitude comes from the descending Landen recursion (A&S 16.4.3).
    """
    a, ratios = _agm(k, kc)
    phi = 2.0 ** len(ratios) * a * u
    for r in reversed(ratios):
        phi = 0.5 * (phi + math.asin(r * math.sin(phi)))
    sn, cn = math.sin(phi), math.cos(phi)
    # dn**2 = 1 - k**2 sn**2 = cn**2 + kc**2 sn**2, accurate near dn = kc
    return sn, cn, math.hypot(cn, kc * sn), phi


def _carlson_rf(x: float, y: float, z: float) -> float:
    """Carlson's symmetric integral R_F by duplication (at most one zero argument)."""
    while True:
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * (sy + sz) + sy * sz
        x, y, z = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam)
        ave = (x + y + z) / 3.0
        dx, dy, dz = (ave - x) / ave, (ave - y) / ave, (ave - z) / ave
        if max(abs(dx), abs(dy), abs(dz)) <= 0.0025:
            break
    e2 = dx * dy - dz * dz
    e3 = dx * dy * dz
    return (1.0 + (e2 / 24.0 - 0.1 - 3.0 * e3 / 44.0) * e2 + e3 / 14.0) / math.sqrt(ave)


def _carlson_rd(x: float, y: float, z: float) -> float:
    """Carlson's symmetric integral R_D by duplication (z > 0, x + y > 0)."""
    total, fac = 0.0, 1.0
    while True:
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * (sy + sz) + sy * sz
        total += fac / (sz * (z + lam))
        fac *= 0.25
        x, y, z = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam)
        ave = 0.2 * (x + y + 3.0 * z)
        dx, dy, dz = (ave - x) / ave, (ave - y) / ave, (ave - z) / ave
        if max(abs(dx), abs(dy), abs(dz)) <= 0.0015:
            break
    ea = dx * dy
    eb = dz * dz
    ec = ea - eb
    ed = ea - 6.0 * eb
    ee = ed + 2.0 * ec
    c3 = 9.0 / 22.0
    c4 = 3.0 / 26.0
    series = 1.0 + ed * (-3.0 / 14.0 + 0.25 * c3 * ed - 1.5 * c4 * dz * ee) + dz * (
        ee / 6.0 + dz * (-c3 * ec + dz * c4 * ea)
    )
    return 3.0 * total + fac * series / (ave * math.sqrt(ave))


def _ellipe_reduced(phi: float, k: float, kc: float) -> float:
    """E(phi, k) for |phi| <= pi/2 from Carlson's R_F and R_D."""
    s, c = math.sin(phi), math.cos(phi)
    x, y = c * c, c * c + (kc * s) ** 2  # y = 1 - k**2 sin(phi)**2
    ks2 = (k * s) ** 2
    return s * (_carlson_rf(x, y, 1.0) - ks2 / 3.0 * _carlson_rd(x, y, 1.0))


def ellipe(k: float, kc: float) -> float:
    """Complete elliptic integral of the second kind E(k)."""
    return _ellipe_reduced(0.5 * math.pi, k, kc)


def ellipeinc(phi: float, k: float, kc: float) -> float:
    """Incomplete elliptic integral of the second kind E(phi, k), any real phi.

    Reduces by E(phi + n pi) = E(phi) + 2 n E(k) to |phi| <= pi/2.
    """
    n = round(phi / math.pi)
    e = _ellipe_reduced(phi - n * math.pi, k, kc)
    return e + 2.0 * n * ellipe(k, kc) if n else e


# --- vectorized multi-cell propagation (shared by dataset generation and
#     the boundary-value solver's seeding stage) ---


@dataclass
class CellSweep:
    """Result of propagating many (alpha, beta) cells on a common grid."""

    alphas: np.ndarray
    betas: np.ndarray
    h: float
    n_steps: int
    X: np.ndarray
    Y: np.ndarray
    Theta: np.ndarray
    t_collinear: np.ndarray    # grid-resolution first collinearity (inf if none)
    t_control_zero: np.ndarray  # grid-resolution first interior control zero (inf if none)
    departed: np.ndarray       # whether the cell ever left the collinear band
    effort: np.ndarray         # trapezoidal integral of U^2/2 up to the horizon
    series: dict = field(default_factory=dict)  # optional per-step R/Sigma/U arrays


def sweep_cells(
    alphas,
    betas,
    t_end: float,
    h: float,
    record_series: bool = False,
) -> CellSweep:
    """Propagate a batch of cells simultaneously with vectorized RK4.

    Crossing times are reported at grid resolution: the stored value is
    the midpoint of the bracketing interval.  ``record_series`` adds the
    full (n_steps+1, n_cells) R/Sigma/U history to the result.
    """
    a = np.ascontiguousarray(alphas, dtype=float)
    b = np.ascontiguousarray(betas, dtype=float)
    if a.shape != b.shape:
        raise ValueError("alphas and betas must have matching shapes")
    m = a.size
    cb, sb = np.cos(b), np.sin(b)
    n = max(1, int(round(t_end / h)))
    hh = t_end / n
    X = np.zeros(m)
    Y = np.zeros(m)
    Th = np.zeros(m)
    prev_c = np.zeros(m)
    prev_u = np.zeros(m)
    prev_u2 = np.zeros(m)
    t_col = np.full(m, np.inf)
    t_uz = np.full(m, np.inf)
    departed = np.zeros(m, dtype=bool)
    effort = np.zeros(m)
    series_R = series_S = series_U = None
    if record_series:
        series_R = np.zeros((n + 1, m))
        series_S = np.full((n + 1, m), np.nan)
        series_U = np.zeros((n + 1, m))
    for k in range(1, n + 1):
        cth, sth = np.cos(Th), np.sin(Th)
        k1x = -cth
        k1y = -sth
        k1t = -a * (Y * cb - X * sb)
        X2 = X + 0.5 * hh * k1x
        Y2 = Y + 0.5 * hh * k1y
        T2 = Th + 0.5 * hh * k1t
        c2, s2 = np.cos(T2), np.sin(T2)
        k2x = -c2
        k2y = -s2
        k2t = -a * (Y2 * cb - X2 * sb)
        X3 = X + 0.5 * hh * k2x
        Y3 = Y + 0.5 * hh * k2y
        T3 = Th + 0.5 * hh * k2t
        c3, s3 = np.cos(T3), np.sin(T3)
        k3x = -c3
        k3y = -s3
        k3t = -a * (Y3 * cb - X3 * sb)
        X4 = X + hh * k3x
        Y4 = Y + hh * k3y
        T4 = Th + hh * k3t
        c4, s4 = np.cos(T4), np.sin(T4)
        k4x = -c4
        k4y = -s4
        k4t = -a * (Y4 * cb - X4 * sb)
        X = X + hh / 6.0 * (k1x + 2.0 * (k2x + k3x) + k4x)
        Y = Y + hh / 6.0 * (k1y + 2.0 * (k2y + k3y) + k4y)
        Th = Th + hh / 6.0 * (k1t + 2.0 * (k2t + k3t) + k4t)
        cth, sth = np.cos(Th), np.sin(Th)
        c = Y * cth - X * sth
        u = a * (Y * cb - X * sb)
        R = np.hypot(X, Y)
        with np.errstate(invalid="ignore", divide="ignore"):
            cos_s = np.where(R > 0.0, -(X * cth + Y * sth) / np.where(R > 0.0, R, 1.0), 1.0)
        departed |= cos_s < 1.0 - EPS_COLLINEAR
        if k >= 2:
            t_mid = (k - 0.5) * hh
            col = departed & (c * prev_c < 0.0) & np.isinf(t_col)
            t_col[col] = t_mid
            uz = departed & (u * prev_u < 0.0) & np.isinf(t_uz)
            t_uz[uz] = t_mid
        u2 = u * u
        effort += 0.25 * (prev_u2 + u2) * hh
        if record_series:
            series_R[k] = R
            series_S[k] = np.arccos(np.clip(cos_s, -1.0, 1.0))
            series_U[k] = u
        prev_c = c
        prev_u = u
        prev_u2 = u2
    sweep = CellSweep(a, b, hh, n, X, Y, Th, t_col, t_uz, departed, effort)
    if record_series:
        sweep.series = {"R": series_R, "Sigma": series_S, "U": series_U}
    return sweep
