"""Costate-parameterized extremal trajectories for minimum-effort interception.

Every first-order-optimal interception trajectory with free final heading
is, after normalizing speed to one and translating the target to the
origin, the time reversal of a solution of

    dX/dt     = -cos(Theta)
    dY/dt     = -sin(Theta)
    dTheta/dt = -U,      U = alpha * (Y cos(beta) - X sin(beta))

started from (0, 0, 0), where ``alpha >= 0`` is the magnitude and
``beta`` the direction of the constant position costate.  Reading off

    R     = hypot(X, Y)
    Sigma = atan2(-c, -(X cos Theta + Y sin Theta)),   c = Y cos Theta - X sin Theta
    U     = alpha * (Y cos beta - X sin beta)

yields, at parameter time t, the optimal state (range R, look angle
Sigma) and command U for a remaining flight time of t.

A trajectory stops being optimal the first time the velocity becomes
collinear with the line of sight, where the cross product c changes sign:
for beta > 0, c < 0 and Sigma > 0 from departure until then, and the
mirror beta -> -beta negates Sigma, the sign ``kinematics`` gives it.

The conserved Hamiltonian along any such trajectory is
``alpha*cos(Theta - beta) + U**2/2`` and equals ``alpha*cos(beta)``.

The family has a closed form, and nothing here steps through time.
psi = Theta - beta + pi obeys psi'' = -alpha sin(psi) with
psi(0) = pi - beta and psi'(0) = 0, a pendulum released from rest, so
every extremal is an inflectional Euler elastica of modulus
k = cos(beta/2) (Love 1927, ch. XIX).  With s = sqrt(alpha),
w = s*t + K(k) and Z the Jacobi zeta function:

    psi = 2 atan2(k sn w, dn w)          U = -2 s k cn w
    A = t (2E/K - 1) + 2 Z(w) / s        B = 2 k cn(w) / s
    X = A cos beta + B sin beta          Y = A sin beta - B cos beta

``evaluate`` computes these for whole arrays from one arithmetic-geometric
mean and its descending Landen sequence (numpy only), ``command`` U alone,
and ``effort`` the effort integral of U**2/2 from the same two; the AGM of
the last one-element modulus is kept for the next call.  The stop times are
exact too: c * s depends only on the phase tau = s*t and on beta, so the
first collinearity falls at tau*(beta) / s, and the first interior zero
of the command at 2K / s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AdjointParams",
    "ParamTrajectory",
    "CellSweep",
    "evaluate",
    "command",
    "effort",
    "range_look_angle",
    "propagate_param",
    "terminal_time",
    "sweep_cells",
    "hamiltonian",
    "ellipk",
]


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


@dataclass
class ParamTrajectory:
    """Sampled parameterized trajectory with derived outputs.

    Arrays share a common length; ``Sigma[0]`` is NaN since the look
    angle is undefined at the origin.  ``terminal_time`` is the exact
    first collinearity time, the propagation horizon if no collinearity
    occurs before it, or 0.0 for degenerate parameters whose trajectory
    never leaves the collinear set.
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


# --- Jacobi elliptic functions by the arithmetic-geometric mean ---
#
# Every routine takes the modulus k and its complement kc = sqrt(1 - k**2)
# as two arguments, and none of them forms 1 - k**2: the extremal family's
# modulus is cos(beta/2), which rounds to exactly 1.0 for beta below about
# 2e-8, while kc = sin(beta/2) keeps full relative precision.  All of them
# broadcast over numpy arrays.


# (k and kc's bytes, read-only rows a_0..a_N, c_0..c_N, E/K) of the last one-element
# modulus: a solve reads its root's AGM in _admissible, effort, command and warm_check.
_last_modulus = (b"", None)


def _agm(k, kc):
    """AGM of (1, kc): its rows a_n and c_n, n = 0..N, c_0 = k, and E(k)/K(k).

    E/K = 1 - (1/2) sum 2**n c_n**2 (A&S 17.6.4).  The rows run until every
    element has met (c_N <= 2**-53 a_N); an element that meets early goes on
    with c_n at rounding level, and its extra rows can move the last bits of
    the descent: paired with beta = 1e-300 (15 rows against 7 at beta = 1),
    ``evaluate``'s X or Y moved in 432 of 2,000 draws (ln q uniform on
    [-6, 3], beta on [0.01, 3.1], t = 1), by up to 1.8e-11 relative where
    they pass near 0, and Theta and U in none.
    So an element's bits depend on the batch it runs in, and
    ``_float_endpoints`` runs a pair's rows alike.  A one-element modulus gets
    read-only rows, kept until the next one-element modulus that differs;
    many-element calls pass it by.
    """
    global _last_modulus
    one = k.size == 1 and k.shape == kc.shape
    last_key, rows = _last_modulus  # one read: another thread may replace it
    if one and last_key == (key := k.tobytes() + kc.tobytes()):
        rows = rows.reshape(-1, *k.shape)
    else:
        a, b, c = np.ones_like(k), kc, k
        rows_a, rows_c, total = [a], [c], k * k
        # the cap only matters for kc = 0, where K is infinite and the AGM never meets
        while (c > 2.0**-53 * a).any() and len(rows_a) <= 64:
            a, b, c = 0.5 * (a + b), np.sqrt(a * b), 0.5 * (a - b)
            total = total + 2.0 ** len(rows_c) * c * c
            rows_a.append(a)
            rows_c.append(c)
        if not one:
            return rows_a, rows_c, 1.0 - 0.5 * total
        rows = np.array([*rows_a, *rows_c, 1.0 - 0.5 * total])  # a copy: c_0 is the caller's k
        rows.flags.writeable = False
        _last_modulus = key, rows
    n = len(rows) // 2
    return list(rows[:n]), list(rows[n:-1]), rows[-1]


def _descend(u, a, c):
    """Amplitude am(u) and Jacobi zeta Z(u) from the AGM rows.

    The descending Landen recursion phi_N = 2**N a_N u,
    phi_{n-1} = (phi_n + asin(c_n / a_n sin phi_n)) / 2 ends at
    phi_0 = am(u) (A&S 16.4.3), and Z(u) = sum c_n sin phi_n (A&S 17.6).
    """
    n = len(a) - 1
    phi = 2.0**n * a[-1] * u
    zeta = 0.0
    for i in range(n, 0, -1):
        s = np.sin(phi)
        zeta = zeta + c[i] * s
        phi = 0.5 * (phi + np.arcsin(c[i] / a[i] * s))
    return phi, zeta


def _amplitude(u, a, c):
    """``_descend``'s am(u) alone, to the bit, in place on one buffer and the phase's own array.

    The top row is skipped where it cannot move phi: N >= 1, c_N <= 2**-53 a_N
    for every element and every |phi_N| >= 2.  Then |asin(c_N / a_N sin phi_N)|
    <= 2**-53 is below half an ulp of phi_N, so phi_N + asin(...) rounds to phi_N,
    and halving it is exact.  N = 0 (k at rounding level, beta = pi) has no row.
    """
    n = len(a) - 1
    phi = np.asarray(2.0**n * a[-1] * u)
    if n >= 1 and (c[n] <= 2.0**-53 * a[n]).all() and (np.abs(phi) >= 2.0).all():
        phi *= 0.5
        n -= 1
    s = np.empty_like(phi)
    for i in range(n, 0, -1):
        np.sin(phi, out=s)
        np.multiply(c[i] / a[i], s, out=s)
        np.arcsin(s, out=s)
        phi += s
        phi *= 0.5
    return phi


def ellipk(k, kc):
    """Complete elliptic integral of the first kind K(k) = pi / (2 AGM(1, kc))."""
    a, _, _ = _agm(np.asarray(k, dtype=float), np.asarray(kc, dtype=float))
    return 0.5 * np.pi / a[-1]


# --- the closed-form extremal ---


def _closed_form(alpha, beta, t, zeta=True):
    """The closed form up to U = -2 s k cn(w), w = s*t + K(k), for ``evaluate`` and ``command``.

    Returns (t, |beta|, sign of beta, k, kc, line (kc = 0: U = 0), s, E/K, am(w), Z(w), cn(w), U);
    with ``zeta`` false, Z(w) is None and am(w) comes from ``_amplitude``.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    t = np.asarray(t, dtype=float)
    b = np.abs(beta)
    k, kc = np.cos(0.5 * b), np.sin(0.5 * b)
    line = kc == 0.0
    a, c, e_over_k = _agm(k, np.where(line, 1.0, kc))
    s = np.sqrt(alpha)
    w = s * t + 0.5 * np.pi / a[-1]
    am, z = _descend(w, a, c) if zeta else (_amplitude(w, a, c), None)
    cn = np.cos(am)
    sign = np.copysign(1.0, beta)
    return t, b, sign, k, kc, line, s, e_over_k, am, z, cn, np.where(line, 0.0, -2.0 * sign * s * k * cn)


def evaluate(alpha, beta, t):
    """State (X, Y, Theta, U) of the extremal (alpha, beta) at time t.

    The arguments broadcast against each other, and the AGM runs once per
    element of ``beta``: a column of betas against a row of times shares
    it, and calls on one beta share the last one (``_agm``).  beta = 0 puts
    the costate along the path (psi rests on the upright equilibrium), a
    straight line; negative beta mirrors the extremal.  ``command`` returns
    U alone, to the bit.
    """
    t, b, sign, k, kc, line, s, e_over_k, am, zeta, cn, U = _closed_form(alpha, beta, t)
    sn = np.sin(am)
    dn = np.hypot(cn, kc * sn)
    big_a = t * (2.0 * e_over_k - 1.0) + 2.0 * zeta / s
    big_b = 2.0 * k * cn / s
    cos_b, sin_b = np.cos(b), np.sin(b)
    X = np.where(line, -t, big_a * cos_b + big_b * sin_b)
    Y = np.where(line, 0.0, sign * (big_a * sin_b - big_b * cos_b))
    Theta = np.where(line, 0.0, sign * (2.0 * np.arctan2(k * sn, dn) + b - np.pi))
    return X, Y, Theta, U


def command(alpha, beta, t):
    """Command U of the extremal (alpha, beta) at time t: ``evaluate(alpha, beta, t)[3]`` to the bit, alone."""
    return _closed_form(alpha, beta, t, zeta=False)[-1]


def effort(alpha, beta, t):
    """Normalized effort, the integral of U**2/2 over [0, t], of the extremal (alpha, beta).

    With s = sqrt(alpha), tau = s*t and kc = sin(beta/2),
    U**2/2 = 2 alpha (dn(w)**2 - kc**2), and dn**2 integrates to
    (E/K) w + Z(w) with Z(K) = 0, so

        J = 2 s [tau (E/K - kc**2) + Z(tau + K)].

    The AGM's c_n are re-formed as c_{n-1}**2 / (4 a_n), and E/K - kc**2 is
    summed as (k**2 - sum_{n>=1} 2**n c_n**2) / 2, so nothing cancels as
    k -> 0 (beta -> pi), where E/K and kc**2 both tend to 1.  The two terms
    in the bracket do cancel where J is far below s*tau, early on an
    extremal close to the separatrix; there J is exact only to the rounding
    of those terms.  Broadcasts like ``evaluate``; 0 on the straight line.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    t = np.asarray(t, dtype=float)
    b = np.abs(beta)
    k, kc = np.cos(0.5 * b), np.sin(0.5 * b)
    line = kc == 0.0
    a, _, _ = _agm(k, np.where(line, 1.0, kc))
    # the AGM's own c_1 = (1 - kc)/2 cancels as k -> 0
    c = [k]
    for a_n in a[1:]:
        c.append(c[-1] * c[-1] / (4.0 * a_n))
    s = np.sqrt(alpha)
    tau = s * t
    _, zeta = _descend(tau + 0.5 * np.pi / a[-1], a, c)
    tail = sum(2.0**n * c[n] * c[n] for n in range(1, len(c)))
    return np.where(line, 0.0, 2.0 * s * (0.5 * tau * (k * k - tail) + zeta))


def range_look_angle(X, Y, Theta):
    """Range R and signed look angle Sigma in [-pi, pi] of states (X, Y, Theta).

    Sigma is atan2 of the negated cross product and the dot product of line
    of sight and heading, which keeps it accurate near 0 and pi where arccos
    of the dot product does not.  It is positive on an extremal with
    beta > 0 until its first collinearity, and the mirror beta -> -beta
    negates it exactly.  It is undefined at the origin.
    """
    cos_t, sin_t = np.cos(Theta), np.sin(Theta)
    cross = Y * cos_t - X * sin_t
    dot = -(X * cos_t + Y * sin_t)
    return np.hypot(X, Y), np.arctan2(-cross, dot)


# --- the closed form on floats, for one query ---
#
# The oracle's one-query solve evaluates one or two moduli at one time, where
# numpy's set-up of one- and two-element arrays costs far more than their
# arithmetic.  The functions below are the closed form above on Python floats,
# equal to its array form to the bit, which stays the reference: + - * / and
# sqrt round correctly in both, and every transcendental still goes through
# numpy, a unary ufunc called on a float and a binary one on one-element
# buffers, so it runs numpy's own loop on one element.  math's asin, exp, atan2
# and hypot differ from numpy's in the last bit on some draws, and its sin and
# cos may on some hosts.  numpy's loops give an element the same bits whatever
# the array's length; tier-1 properties check the equality on each host.

_cos, _sin, _arcsin = np.cos, np.sin, np.arcsin


def _float_agm(k, kc, rows=1):
    """``_agm`` of one modulus on floats, run to at least ``rows`` rows: (a_n, c_n, E/K)."""
    a, b, c = 1.0, kc, k
    rows_a, rows_c, total = [a], [c], k * k
    while (c > 2.0**-53 * a or len(rows_a) < rows) and len(rows_a) <= 64:
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        total = total + 2.0 ** len(rows_c) * c * c
        rows_a.append(a)
        rows_c.append(c)
    return rows_a, rows_c, 1.0 - 0.5 * total


def _float_modulus(beta, rows=1):
    """(|beta|, k, kc, AGM of (1, kc) to at least ``rows`` rows) of one extremal; kc = 0 is the straight line."""
    b = abs(beta)
    k, kc = float(_cos(0.5 * b)), float(_sin(0.5 * b))
    return b, k, kc, _float_agm(k, 1.0 if kc == 0.0 else kc, rows)


def _float_descend(u, a, c):
    """``_descend`` on floats: am(u) and Z(u)."""
    n = len(a) - 1
    phi = 2.0**n * a[-1] * u
    zeta = 0.0
    for i in range(n, 0, -1):
        s = float(_sin(phi))
        zeta = zeta + c[i] * s
        phi = 0.5 * (phi + float(_arcsin(c[i] / a[i] * s)))
    return phi, zeta


def _float_closed_form(alpha, beta, t, modulus):
    """``_closed_form`` of one extremal at one time on floats, from its ``_float_modulus``: (s, am(w), Z(w), cn(w), U)."""
    _, k, kc, (a, c, _) = modulus
    s = math.sqrt(alpha)
    am, zeta = _float_descend(s * t + 0.5 * math.pi / a[-1], a, c)
    cn = float(_cos(am))
    return s, am, zeta, cn, 0.0 if kc == 0.0 else -2.0 * math.copysign(1.0, beta) * s * k * cn


def _float_command(alpha, beta, t):
    """``command(alpha, beta, t)`` of one extremal at one time, on floats, to the bit."""
    return _float_closed_form(alpha, beta, t, _float_modulus(beta))[-1]


def _float_effort(alpha, beta, t):
    """``effort(alpha, beta, t)`` of one extremal at one time, on floats, to the bit."""
    _, k, kc, (a, _, _) = _float_modulus(beta)
    if kc == 0.0:
        return 0.0
    c = [k]
    for a_n in a[1:]:
        c.append(c[-1] * c[-1] / (4.0 * a_n))
    s = math.sqrt(alpha)
    tau = s * t
    _, zeta = _float_descend(tau + 0.5 * math.pi / a[-1], a, c)
    tail = 0.0  # summed in order: Python 3.12's sum() compensates, numpy's additions do not
    for n in range(1, len(c)):
        tail = tail + 2.0**n * c[n] * c[n]
    return 2.0 * s * (0.5 * tau * (k * k - tail) + zeta)


def _float_endpoints(alpha, betas, t):
    """(R, Sigma, U) of the extremals (alpha, beta) at t, for each of a few betas, on floats.

    ``range_look_angle(*evaluate(alpha, betas, t)[:3])`` and ``evaluate``'s U,
    to the bit: as ``evaluate`` does, every beta's AGM runs as many rows as the
    slowest one's (``_agm``).
    """
    moduli = [_float_modulus(beta) for beta in betas]
    rows = max(len(m[-1][0]) for m in moduli)
    xs, ys, out = np.empty(1), np.empty(1), np.empty(1)

    def binary(ufunc, x, y):
        xs[0], ys[0] = x, y
        ufunc(xs, ys, out)
        return out.item()

    points = []
    for beta, m in zip(betas, moduli):
        if len(m[-1][0]) < rows:
            m = _float_modulus(beta, rows)
        b, k, kc, (_, _, e_over_k) = m
        s, am, zeta, cn, U = _float_closed_form(alpha, beta, t, m)
        if kc == 0.0:
            X, Y, Theta = -t, 0.0, 0.0
        else:
            sign = math.copysign(1.0, beta)
            sn = float(_sin(am))
            dn = binary(np.hypot, cn, kc * sn)
            big_a = t * (2.0 * e_over_k - 1.0) + 2.0 * zeta / s
            big_b = 2.0 * k * cn / s
            cos_b, sin_b = float(_cos(b)), float(_sin(b))
            X = big_a * cos_b + big_b * sin_b
            Y = sign * (big_a * sin_b - big_b * cos_b)
            Theta = sign * (2.0 * binary(np.arctan2, k * sn, dn) + b - math.pi)
        cos_t, sin_t = float(_cos(Theta)), float(_sin(Theta))
        cross = Y * cos_t - X * sin_t
        dot = -(X * cos_t + Y * sin_t)
        points.append((binary(np.hypot, X, Y), binary(np.arctan2, -cross, dot), U))
    return points


# Scan of the first collinearity: 64 phases per bracket, _LEVELS rescans.
# The first bracket spans [K/2, 3K]: for every beta in (0, pi), c < 0 from
# departure until the first collinearity, which lies between 1.0 K (beta -> 0)
# and 2.87 K (beta -> pi).  Each rescan narrows the bracket 63-fold, so nine
# reach the spacing of doubles.  hi is the first scanned phase where c >= 0.
# The brackets nest: lo never falls, as lo + (hi - lo)*f >= lo, and hi rises
# by at most an ulp a level.
_FRACTIONS = np.linspace(0.0, 1.0, 64)
_LEVELS = 9


def _collinear_brackets(beta):
    """Yield the brackets (degenerate, lo, hi) of tau* per beta, one per rescan; degenerate: beta in {0, pi}."""
    beta = np.abs(np.asarray(beta, dtype=float))
    degenerate = (beta == 0.0) | (beta >= math.pi)
    b = np.where(degenerate, 0.5 * math.pi, beta)[..., None]
    quarter = ellipk(np.cos(0.5 * b), np.sin(0.5 * b))
    lo, hi = 0.5 * quarter, 3.0 * quarter
    for _ in range(_LEVELS):
        tau = lo + (hi - lo) * _FRACTIONS
        X, Y, Theta, _ = evaluate(1.0, b, tau)
        flipped = Y * np.cos(Theta) - X * np.sin(Theta) >= 0.0
        flipped[..., -1] = True  # the bracket's upper end, by construction
        first = np.argmax(flipped[..., 1:], axis=-1)[..., None] + 1
        lo = np.take_along_axis(tau, first - 1, axis=-1)
        hi = np.take_along_axis(tau, first, axis=-1)
        yield degenerate, lo[..., 0], hi[..., 0]


def _collinear_phase(beta):
    """Phase tau* = sqrt(alpha) * t of the first collinearity per beta, within a few ulps; inf if degenerate."""
    *_, (degenerate, _, hi) = _collinear_brackets(beta)
    return np.where(degenerate, np.inf, hi)


def _require_finite_positive(**values):
    """Raise ValueError naming the first argument not finite and positive throughout."""
    for name, value in values.items():
        v = np.asarray(value, dtype=float)
        if v.size and not (v.min() > 0.0 and v.max() < math.inf):  # NaN fails both
            raise ValueError(f"{name} must be finite and positive")


def terminal_time(params: AdjointParams, t_bar: float) -> float:
    """First collinearity time, capped at t_bar (inf for no cap).

    Returns 0.0 for degenerate parameters (straight-line extremal that
    never leaves the collinear set).
    """
    if params.alpha <= 0.0:
        raise ValueError("degenerate costate")
    if not t_bar > 0.0:
        raise ValueError("t_bar must be positive or inf")
    tau = float(_collinear_phase(params.beta))
    if math.isinf(tau):
        return 0.0
    return min(t_bar, tau / math.sqrt(params.alpha))


def propagate_param(params: AdjointParams, t_end: float, dt: float) -> ParamTrajectory:
    """Sample the extremal at t = 0, h, 2h, ..., t_end, h = t_end / round(t_end / dt).

    The last sample is t_end exactly.  The samples stop before the first
    collinearity if it comes before t_end.
    """
    if params.alpha <= 0.0:
        raise ValueError("degenerate costate")
    _require_finite_positive(t_end=t_end, dt=dt)
    n = max(1, int(round(t_end / dt)))
    t = np.linspace(0.0, t_end, n + 1)
    t_term = terminal_time(params, t_end)
    if 0.0 < t_term < t_end:
        t = t[t < t_term]
    X, Y, Th, _ = evaluate(params.alpha, params.beta, t)
    X[0] = Y[0] = Th[0] = 0.0  # the origin, exactly
    R, Sigma = range_look_angle(X, Y, Th)
    Sigma[0] = np.nan
    # the command from the costate, as ``hamiltonian`` reads it
    U = params.alpha * (Y * math.cos(params.beta) - X * math.sin(params.beta))
    return ParamTrajectory(params, t, X, Y, Th, R, Sigma, U, t_term)


def hamiltonian(X, Y, Theta, params: AdjointParams):
    """Conserved Hamiltonian at states (X, Y, Theta); equals alpha*cos(beta) along any trajectory.

    The states broadcast like numpy arrays, so one call checks a whole
    trajectory.
    """
    X, Y, Theta = (np.asarray(v, dtype=float) for v in (X, Y, Theta))
    if not (np.isfinite(X).all() and np.isfinite(Y).all() and np.isfinite(Theta).all()):
        raise ValueError("non-finite state")
    u = params.alpha * (Y * math.cos(params.beta) - X * math.sin(params.beta))
    return params.alpha * np.cos(Theta - params.beta) + 0.5 * u * u


@dataclass
class CellSweep:
    """Exact stop times of many (alpha, beta) cells, and the horizon's sampling grid.

    ``t_collinear`` is the first collinearity time and ``t_control_zero``
    the first interior zero of the command, 2K(k)/sqrt(alpha); neither is
    capped at the horizon, and both are inf for a degenerate cell
    (beta in {0, pi}).  The horizon is ``n_steps`` steps of ``h``, the grid
    that dataset generation samples.
    """

    alphas: np.ndarray
    betas: np.ndarray
    h: float
    n_steps: int
    t_collinear: np.ndarray
    t_control_zero: np.ndarray


def sweep_cells(alphas, betas, t_end: float, h: float) -> CellSweep:
    """Exact stop times of a batch of cells, with the grid of [0, t_end] in steps of about h."""
    a = np.ascontiguousarray(alphas, dtype=float)
    b = np.ascontiguousarray(betas, dtype=float)
    if a.shape != b.shape:
        raise ValueError("alphas and betas must have matching shapes")
    _require_finite_positive(alphas=a, t_end=t_end, h=h)
    n = max(1, int(round(t_end / h)))
    # both stop phases depend on beta alone: solve once per distinct beta
    distinct, inverse = np.unique(np.abs(b), return_inverse=True)
    phase = _collinear_phase(distinct)
    zero_phase = np.where(np.isinf(phase), np.inf, 2.0 * ellipk(np.cos(0.5 * distinct), np.sin(0.5 * distinct)))
    s = np.sqrt(a)
    inverse = inverse.reshape(b.shape)
    return CellSweep(a, b, t_end / n, n, phase[inverse] / s, zero_phase[inverse] / s)
