"""Planar interceptor kinematics against a stationary target at the origin.

Two equivalent state descriptions are used throughout the toolkit:

* Cartesian ``(x, y, theta)`` — position in a target-centered East/North
  frame plus heading angle (counterclockwise from +x).
* Polar ``(r, sigma)`` — range to the target and look angle between the
  line of sight and the velocity vector.

Look-angle sign convention: ``sigma = wrap(pi + atan2(y, x) - theta)``,
i.e. sigma is positive when the velocity points clockwise of the line of
sight to the target.  Under this convention the polar rates are

    dr/dt     = -V cos(sigma)
    dsigma/dt =  V sin(sigma)/r - u

where ``u`` is the commanded turn rate (rad per unit time) and ``V`` the
(constant) speed.  The mirror image trajectory is obtained by negating
both sigma and u.

Under a constant turn rate the path is a circular arc, and
``step_cartesian`` advances it in closed form: one step of any length is
exact to rounding.  ``fly_arcs`` flies a whole sequence of such arcs at
once, and ``look_angles`` evaluates the look angle of a whole sampled
trajectory at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CartesianState",
    "PolarState",
    "wrap_angle",
    "step_cartesian",
    "fly_arcs",
    "cartesian_to_polar",
    "look_angles",
]


def wrap_angle(angle: float) -> float:
    """Reduce an angle into (-pi, pi]."""
    w = math.fmod(angle + math.pi, 2.0 * math.pi)
    if w <= 0.0:
        w += 2.0 * math.pi
    return w - math.pi


def _wrap_angles(angle) -> np.ndarray:
    """``wrap_angle`` of every element of an array.

    fmod(w, 2 pi) is w itself for w = angle + pi in [0, 2 pi), so fmod runs
    only on the elements outside that range (NaN among them): the same bits,
    in under half the time where most headings lie within it.
    """
    two_pi = 2.0 * math.pi
    w = np.add(angle, math.pi, out=np.empty(np.shape(angle)))
    np.fmod(w, two_pi, out=w, where=~((w >= 0.0) & (w < two_pi)))
    np.add(w, two_pi, out=w, where=w <= 0.0)
    w -= math.pi
    return w


@dataclass(frozen=True)
class CartesianState:
    """Interceptor pose in the target-centered frame."""

    x: float
    y: float
    theta: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.theta)):
            raise ValueError("invalid state: non-finite Cartesian component")


@dataclass(frozen=True)
class PolarState:
    """Range and look angle relative to the target."""

    r: float
    sigma: float

    def __post_init__(self):
        if not (math.isfinite(self.r) and math.isfinite(self.sigma)):
            raise ValueError("invalid state: non-finite polar component")
        if self.r < 0.0:
            raise ValueError("invalid state: negative range")


def step_cartesian(state: CartesianState, u: float, dt: float, speed: float) -> CartesianState:
    """Advance the Cartesian kinematics by dt under a constant turn rate.

    dx/dt = speed*cos(theta), dy/dt = speed*sin(theta), dtheta/dt = u.  The
    arc is stepped exactly: the chord of length speed*dt*sin(h)/h, with
    h = u*dt/2, points along the mean heading theta + h.
    """
    if dt <= 0.0:
        raise ValueError("invalid state: dt must be positive")
    if speed <= 0.0:
        raise ValueError("invalid state: speed must be positive")
    if not (math.isfinite(u) and math.isfinite(dt) and math.isfinite(speed)):
        raise ValueError("invalid state: non-finite step input")
    return CartesianState(*_arc(state.x, state.y, state.theta, u, dt, speed))


def _arc(x: float, y: float, theta: float, u: float, h: float, speed: float):
    """``step_cartesian``'s exact arc on floats, unchecked: the pose ``(x, y, theta)`` after h."""
    half = 0.5 * u * h
    chord = speed * h if half == 0.0 else speed * h * (math.sin(half) / half)
    mid = theta + half
    return x + chord * math.cos(mid), y + chord * math.sin(mid), wrap_angle(theta + u * h)


def fly_arcs(x0: float, y0: float, theta0: float, u, h, speed: float):
    """Node arrays ``(x, y, theta)`` of consecutive constant-turn-rate arcs.

    Step k holds the turn rate ``u[k]`` for ``h[k]`` (``h`` may be a
    scalar).  Each arc is ``step_cartesian``'s exact chord; node 0 is the
    start and every heading is wrapped into (-pi, pi].  Raises the same
    ValueErrors as ``step_cartesian`` and ``CartesianState``.
    """
    if not (math.isfinite(x0) and math.isfinite(y0) and math.isfinite(theta0)):
        raise ValueError("invalid state: non-finite Cartesian component")
    u, h = np.asarray(u, dtype=float), np.asarray(h, dtype=float)
    if (h <= 0.0).any():
        raise ValueError("invalid state: dt must be positive")
    if speed <= 0.0:
        raise ValueError("invalid state: speed must be positive")
    if not (np.isfinite(u).all() and np.isfinite(h).all() and math.isfinite(speed)):
        raise ValueError("invalid state: non-finite step input")
    n = len(u)
    half = 0.5 * u * h
    line = half == 0.0
    chord = speed * h * np.where(line, 1.0, np.sin(half) / np.where(line, 1.0, half))
    theta = np.empty(n + 1)
    theta[0] = theta0
    np.multiply(u, h, out=theta[1:])
    theta = _wrap_angles(np.cumsum(theta))
    mid = theta[:-1] + half
    xy = np.empty((2, n + 1))
    xy[:, 0] = x0, y0
    np.multiply(chord, np.cos(mid), out=xy[0, 1:])
    np.multiply(chord, np.sin(mid), out=xy[1, 1:])
    x, y = np.cumsum(xy, axis=1)
    if not (math.isfinite(x[-1]) and math.isfinite(y[-1])):
        raise ValueError("invalid state: non-finite Cartesian component")
    return x, y, theta


def cartesian_to_polar(state: CartesianState) -> PolarState:
    """Convert a Cartesian state to range / look angle.

    Raises ValueError at r = 0 where the look angle is undefined.
    """
    r = math.hypot(state.x, state.y)
    if r == 0.0:
        raise ValueError("look angle undefined at target")
    return PolarState(r, _bind_look_angle()(state.x, state.y, state.theta))


def _bind_look_angle():
    """``cartesian_to_polar``'s look angle bound once: ``f(x, y, theta) -> sigma`` on floats, unchecked.

    numpy's arctan2 runs on one-element arrays that the binding allocates,
    the loop it runs on two floats without their 0-d arrays and numpy
    scalar, so a bound look angle serves one caller at a time.
    """
    # numpy's arctan2, as in look_angles, never math.atan2.  numpy may dispatch it
    # to SIMD kernels: on a 2-core Intel Xeon whose numpy 2.4 lists AVX512_SKX to
    # AVX512_SPR in __cpu_features__, 15,397 of 200,000 uniform draws (x, y in
    # [-1e4, 1e4]) differ from math.atan2 in the last bit, which an unwrapped
    # heading magnifies, while numpy's 0-d, one-element and long-array results
    # agree on all of them.  So an engagement's bits may differ between hosts: a
    # bit test compares with a reference computed in the same process, never a pinned digest.
    ys, xs, atan = np.empty(1), np.empty(1), np.empty(1)
    arctan2 = np.arctan2

    def look_angle(x: float, y: float, theta: float) -> float:
        ys[0], xs[0] = y, x
        arctan2(ys, xs, out=atan)
        return wrap_angle(math.pi + atan.item() - theta)

    return look_angle


def look_angles(x, y, theta) -> np.ndarray:
    """Look angle of every sample of a trajectory, 0 where the range is 0.

    Vectorized ``cartesian_to_polar(...).sigma``, to the bit, with
    ``wrap_angle``'s (-pi, pi] convention.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    sigma = _wrap_angles(math.pi + np.arctan2(y, x) - theta)
    return np.where((x == 0.0) & (y == 0.0), 0.0, sigma)
