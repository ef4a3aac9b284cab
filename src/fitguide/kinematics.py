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
exact to rounding.  ``look_angles`` evaluates the look angle of a whole
sampled trajectory at once.
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
    "cartesian_to_polar",
    "look_angles",
]


def wrap_angle(angle: float) -> float:
    """Reduce an angle into (-pi, pi]."""
    w = math.fmod(angle + math.pi, 2.0 * math.pi)
    if w <= 0.0:
        w += 2.0 * math.pi
    return w - math.pi


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
    half = 0.5 * u * dt
    chord = speed * dt if half == 0.0 else speed * dt * (math.sin(half) / half)
    mid = state.theta + half
    return CartesianState(
        state.x + chord * math.cos(mid),
        state.y + chord * math.sin(mid),
        wrap_angle(state.theta + u * dt),
    )


def cartesian_to_polar(state: CartesianState) -> PolarState:
    """Convert a Cartesian state to range / look angle.

    Raises ValueError at r = 0 where the look angle is undefined.
    """
    r = math.hypot(state.x, state.y)
    if r == 0.0:
        raise ValueError("look angle undefined at target")
    sigma = wrap_angle(math.pi + math.atan2(state.y, state.x) - state.theta)
    return PolarState(r, sigma)


def look_angles(x, y, theta) -> np.ndarray:
    """Look angle of every sample of a trajectory, 0 where the range is 0.

    Vectorized ``cartesian_to_polar(...).sigma`` with ``wrap_angle``'s
    (-pi, pi] convention.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    w = np.fmod(math.pi + np.arctan2(y, x) - theta + math.pi, 2.0 * math.pi)
    sigma = np.where(w <= 0.0, w + 2.0 * math.pi, w) - math.pi
    return np.where((x == 0.0) & (y == 0.0), 0.0, sigma)
