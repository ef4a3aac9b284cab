"""Seeded inputs for the three benchmark workloads.

Inputs are plain tuples, dicts and lists, so that they can be generated,
compared and recorded without importing the package under test; the
runner turns them into package objects outside the timed region.

An engagement op is ``{"kind", "label", "members"}``: ``kind`` is
``"simulate"`` (one member, one ``simulate`` call) or ``"salvo"`` (one
``salvo`` call over all members); ``seeded`` tells drawn ops from the
published reference cases, and an op marked ``once`` runs in the first
pass only.  A member is
``{"start": (x, y, theta), "speed", "t_f", "guidance", "ref_effort",
"ref_impact"}``; the two ``ref_`` entries hold a published value or None.

Seeded draws are stratified: each draw takes its impact time from its own
slice of the range and the strata alternate the look-angle sign, so every
seed covers the range evenly and per-run figures do not hinge on a few
lucky or unlucky draws.  Draws are never filtered after the fact.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("oracle-engage", "network-engage", "dataset-pipeline")

# Published reference values (efforts in m^2/s^3, times in s).  They are
# kept here rather than read from fitguide.verification so that a change
# to the package cannot move the references it is checked against.
CASE_A_START = (-10000.0, 0.0, math.pi / 3)
CASE_A_SPEED = 500.0
CASE_A_EFFORT = {25.0: 2.1350e4, 30.0: 3.0563e4, 40.0: 3.8738e4, 50.0: 3.9625e4}
CASE_C_START = (-20000.0, -10000.0, math.pi / 4)
CASE_C_SPEED = 600.0
CASE_C_TF = 50.0
CASE_C_EFFORT = 2.9158e4
SALVO_STARTS = [
    ((-15000.0, 15000.0, -math.pi / 2), 300.0),
    ((-22000.0, -10000.0, -11 * math.pi / 18), 350.0),
    ((9000.0, -12000.0, math.pi / 2), 400.0),
    ((10000.0, 28000.0, -4 * math.pi / 5), 450.0),
]
SALVO_TF = 100.0
SALVO_EFFORT = [3.0916e3, 9.4638e3, 1.5813e4, 9.4364e3]
# The PN effort column cannot be reproduced from the stated law; its
# deviation is recorded but never gated.
SALVO_PN_EFFORT = [1.1610e3, 6.9592e3, 6.4474e3, 1.8474e3]
SALVO_PN_IMPACT = [75.40, 140.61, 39.11, 68.52]

# oracle-engage: one draw per (impact-time side of 40 s, look-angle sign).
ORACLE_DRAW_STRATA = ((30.0, 38.0, 1.0), (42.0, 50.0, -1.0), (30.0, 38.0, -1.0), (42.0, 50.0, 1.0))
# network-engage: seeded nn + pn salvos with impact times spread over this range.
NETWORK_SALVOS = 20
NETWORK_TF_RANGE = (15.0, 35.0)
# Draw domain shared by both engage workloads.
SPEED_RANGE = (300.0, 600.0)
RANGE_RATIO = (0.45, 0.8)        # initial range over speed * t_f
LOOK_ANGLE = (0.3, 1.1)          # |look angle| at launch, rad

# Network trained in set-up: the desk-scale grid with a short, fixed budget.
NETWORK_GRID = dict(alpha_bar=10.0, n_i=40, n_j=40, t_bar=4.0, h=0.01)
NETWORK_EPOCHS = 4
NETWORK_TRAIN_SEED = 0

# dataset-pipeline: every twentieth alpha row of the full grid (alpha = 2, 4,
# ..., 10 reproduce those rows bit for bit) with the full grid's beta count,
# horizon and step, so each sweep_cells call holds the full grid's working
# set.  Six epochs keep the validation error's spread over training seeds
# near 6 %.
DATASET_GRID = dict(alpha_bar=10.0, n_i=5, n_j=100, t_bar=10.0, h=0.005)
DATASET_EPOCHS = 6


def _wrap(angle: float) -> float:
    return (angle + math.pi) % (2.0 * math.pi) - math.pi


def _member(start, speed, t_f, guidance, ref_effort=None, ref_impact=None) -> dict:
    return {
        "start": tuple(float(v) for v in start),
        "speed": float(speed),
        "t_f": float(t_f),
        "guidance": guidance,
        "ref_effort": ref_effort,
        "ref_impact": ref_impact,
    }


def _draw(rng: random.Random, t_f: float, sign: float, guidance: str) -> dict:
    """One launch state with the given impact time and look-angle sign."""
    speed = rng.uniform(*SPEED_RANGE)
    r0 = rng.uniform(*RANGE_RATIO) * speed * t_f
    los = rng.uniform(-math.pi, math.pi)
    look = sign * rng.uniform(*LOOK_ANGLE)
    # look angle convention: sigma = wrap(pi + atan2(y, x) - theta)
    start = (r0 * math.cos(los), r0 * math.sin(los), _wrap(math.pi + los - look))
    return _member(start, speed, t_f, guidance)


def _case_a(guidance: str) -> list:
    return [
        {"kind": "simulate", "label": f"A{t_f:g}", "seeded": False,
         "members": [_member(CASE_A_START, CASE_A_SPEED, t_f, guidance, ref_effort=effort)]}
        for t_f, effort in CASE_A_EFFORT.items()
    ]


def _oracle_ops(rng: random.Random) -> list:
    ops = _case_a("oracle")
    ops.append({"kind": "simulate", "label": "C", "seeded": False,
                "members": [_member(CASE_C_START, CASE_C_SPEED, CASE_C_TF, "oracle", ref_effort=CASE_C_EFFORT)]})
    # the oracle salvo takes as long as all other ops together, so it is
    # flown in the first pass only
    ops.append({"kind": "salvo", "label": "salvo", "seeded": False, "once": True,
                "members": [_member(start, v, SALVO_TF, "oracle", ref_effort=effort)
                            for (start, v), effort in zip(SALVO_STARTS, SALVO_EFFORT)]})
    for k, (lo, hi, sign) in enumerate(ORACLE_DRAW_STRATA):
        ops.append({"kind": "simulate", "label": f"draw{k}", "seeded": True,
                    "members": [_draw(rng, rng.uniform(lo, hi), sign, "oracle")]})
    return ops


def _network_ops(rng: random.Random) -> list:
    ops = _case_a("nn")
    ops.append({"kind": "salvo", "label": "salvo-pn", "seeded": False,
                "members": [_member(start, v, SALVO_TF, "pn", ref_effort=effort, ref_impact=impact)
                            for (start, v), effort, impact in zip(SALVO_STARTS, SALVO_PN_EFFORT, SALVO_PN_IMPACT)]})
    lo, hi = NETWORK_TF_RANGE
    for k in range(NETWORK_SALVOS):
        t_f = lo + (hi - lo) * (k + rng.random()) / NETWORK_SALVOS
        sign = 1.0 if k % 2 == 0 else -1.0
        ops.append({"kind": "salvo", "label": f"salvo{k}", "seeded": True,
                    "members": [_draw(rng, t_f, sign, "nn"), _draw(rng, t_f, -sign, "pn")]})
    return ops


def make_inputs(workload: str, seed: int) -> dict:
    """Every input of one run, as plain data; equal seeds give equal inputs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}/{seed}")
    if workload == "oracle-engage":
        return {"ops": _oracle_ops(rng)}
    if workload == "network-engage":
        return {"ops": _network_ops(rng),
                "network": {"grid": dict(NETWORK_GRID), "epochs": NETWORK_EPOCHS, "train_seed": NETWORK_TRAIN_SEED}}
    return {"grid": dict(DATASET_GRID), "epochs": DATASET_EPOCHS, "train_seed": rng.randrange(2**31)}


def describe(inputs: dict) -> dict:
    """Workload parameters for the provenance record."""
    out = {}
    if "ops" in inputs:
        members = [m for op in inputs["ops"] for m in op["members"]]
        out["ops_per_pass"] = len(inputs["ops"])
        out["engagements_per_pass"] = len(members)
        out["seeded_ops_per_pass"] = sum(op["seeded"] for op in inputs["ops"])
        out["laws"] = sorted({m["guidance"] for m in members})
    for key in ("network", "grid", "epochs", "train_seed"):
        if key in inputs:
            out[key] = inputs[key]
    return out
