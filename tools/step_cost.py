"""Cost of one closed-loop step, network and PN: ``python tools/step_cost.py [--repeats 5]``.

Flies case A at 25 s (10 km out, look angle pi/3, 500 m/s, dt 0.01 s)
``--repeats`` times with each law and prints, for each, the best
``simulate`` call's wall time over its step count, in µs, as a Markdown
table.  The network is the one the network-engage benchmark trains:
``REDUCED_CONFIG``, four epochs, seed 0.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fitguide import REDUCED_CONFIG, CartesianState, Scenario, TrainConfig, generate_dataset, simulate, train  # noqa: E402


def step_us(scenario: Scenario, model, repeats: int) -> float:
    """The best of ``repeats`` ``simulate`` calls, in µs per step."""
    best, steps = math.inf, 0
    for _ in range(repeats):
        t0 = time.perf_counter()
        res = simulate(scenario, model=model)
        best, steps = min(best, time.perf_counter() - t0), len(res.u)
    return 1e6 * best / steps


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    model, _ = train(generate_dataset(REDUCED_CONFIG), TrainConfig(max_epochs=4, seed=0))
    start = CartesianState(-10000.0, 0.0, math.pi / 3)
    print(f"| case A at 25 s, best of {args.repeats} | µs per step |")
    print("|---|---|")
    for law in ("nn", "pn"):
        print(f"| {law} | {step_us(Scenario(start, 500.0, 25.0, guidance=law), model, args.repeats):.2f} |")


if __name__ == "__main__":
    main()
