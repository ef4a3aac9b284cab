"""Tour of the costate-parameterized extremal family.

Every minimum-effort interception with a prescribed impact time is the
time reversal of a trajectory from this two-parameter family.  This
script propagates a few (alpha, beta) cells, shows where each stops
being optimal (first velocity/line-of-sight collinearity), and checks
the conserved Hamiltonian along the way.
"""

import math

import numpy as np

from fitguide import AdjointParams, hamiltonian, propagate_param, terminal_time

print("terminal (first-collinearity) times across the parameter plane")
print(f"{'alpha':>7} {'beta':>7} {'T':>8} {'samples':>8} {'max look angle':>15}")
for alpha, beta in [(10.0, math.pi / 2), (10.0, math.pi / 4), (10.0, 3 * math.pi / 4),
                    (2.5, 2.0), (1.0, math.pi / 2), (0.2, 1.0)]:
    t_hat = terminal_time(AdjointParams(alpha, beta), t_bar=10.0)
    traj = propagate_param(AdjointParams(alpha, beta), t_end=min(t_hat, 10.0) or 0.01, dt=0.005)
    max_sigma = math.degrees(np.nanmax(traj.Sigma))
    print(f"{alpha:7.2f} {beta:7.3f} {t_hat:8.4f} {len(traj):8d} {max_sigma:13.1f} deg")

print()
print("scaling law: T(alpha/k^2, beta) = k * T(alpha, beta)")
base = terminal_time(AdjointParams(10.0, math.pi / 2), t_bar=40.0)
for k in (2.0, 4.0):
    scaled = terminal_time(AdjointParams(10.0 / k**2, math.pi / 2), t_bar=40.0)
    print(f"  k={k}: T(alpha/k^2)={scaled:.4f} vs k*T={k * base:.4f}")

print()
print("Hamiltonian conservation along one trajectory (should equal alpha*cos(beta))")
params = AdjointParams(5.0, 1.0)
traj = propagate_param(params, t_end=1.5, dt=0.005)
h_ref = params.alpha * math.cos(params.beta)
h = hamiltonian(traj.X, traj.Y, traj.Theta, params)
for k in (0, len(traj) // 2, len(traj) - 1):
    print(f"  t={traj.t[k]:5.2f}: H={h[k]:.12f} (drift {h[k] - h_ref:+.2e})")

print()
print("the command history U(t) starts at zero (free final heading) and is")
print("sign-constant up to the emission horizon used for dataset generation:")
print("  U samples:", np.array2string(traj.U[:: len(traj) // 8], precision=4))
