"""Metric catalogue and the arithmetic that turns measurements into metrics.

``END_TO_END`` is the gated set: every workload reports each of these, so
it holds only metrics that mean something on all three (``BENCHMARK.json``
mirrors it).  ``REPORT`` is the full end-to-end table, printed for the
workloads each row names.  ``PER_LAYER`` comes from the traced run.
"""

from __future__ import annotations

import math
import os
import statistics

from tracer import CallStats

ENGAGE = ("oracle-engage", "network-engage")
DATASET = ("dataset-pipeline",)
ALL = ENGAGE + DATASET

# name -> (unit, better, bound as a share of the parent's median).  The
# timing bounds are the widest allowed because the shared host this was
# written on runs identical code at full or half speed in phases; see
# README.md.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "op_ms_p50": ("ms", "lower", 0.25),
    "commands_per_s": ("1/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "rel_err": ("ratio", "lower", 0.2),
}

# name -> (unit, better, workloads that report it)
REPORT = {
    "setup_s": ("s", "lower", ALL),
    "peak_rss_mb": ("MB", "lower", ALL),
    "fail_frac": ("ratio", "lower", ALL),
    "op_ms_p50": ("ms", "lower", ALL),
    "op_ms_p90": ("ms", "lower", ("network-engage",)),
    "engage_per_s": ("1/s", "higher", ENGAGE),
    "commands_per_s": ("1/s", "higher", ALL),
    "effort_err_max": ("ratio", "lower", ENGAGE),
    "miss_m_max": ("m", "lower", ENGAGE),
    "impact_err_s_max": ("s", "lower", ENGAGE),
    "rows_per_s": ("1/s", "higher", DATASET),
    "train_rows_per_s": ("1/s", "higher", DATASET),
    "pipeline_s": ("s", "lower", DATASET),
    "dataset_rows": ("count", "equal", DATASET),
    "val_mse": ("ratio", "lower", DATASET),
    "rel_err": ("ratio", "lower", ALL),
    "wall_op_ms_p50": ("ms", "lower", ALL),
    "host_speed": ("ratio", "higher", ALL),
}

# Percentiles need at least ten samples beyond them.
P90_MIN_OPS = 100

# --- per-layer metrics (traced run) ---

# (module, attribute, trace name, record spans?) for every wrapped callable.
# The package resolves these attributes at call time; ``command_nn`` imports
# ``forward`` from ``fitguide.mlp`` inside each call, so patching the module
# attribute reaches it too.
TRACE_TARGETS = (
    ("fitguide.sim", "simulate", "sim.simulate", True),
    ("fitguide", "salvo", "sim.salvo", True),
    ("fitguide.sim", "command_oracle", "guidance.command_oracle", True),
    ("fitguide.sim", "command_nn", "guidance.command_nn", False),
    ("fitguide.sim", "pn_command", "guidance.pn_command", False),
    ("fitguide.sim", "step_cartesian", "kinematics.step_cartesian", False),
    ("fitguide.sim", "cartesian_to_polar", "kinematics.cartesian_to_polar", False),
    ("fitguide.guidance", "sweep_cells", "extremals.sweep_cells", True),
    ("fitguide.guidance", "propagate_param", "extremals.propagate_param", True),
    ("fitguide.guidance", "terminal_time", "extremals.terminal_time", True),
    ("fitguide.datagen", "sweep_cells", "extremals.sweep_cells", True),
    ("fitguide.mlp", "forward", "mlp.forward", False),
    ("fitguide.mlp", "forward_batch", "mlp.forward_batch", False),
    ("fitguide.mlp", "loss_and_gradients", "mlp.loss_and_gradients", False),
    ("fitguide.mlp", "train", "mlp.train", True),
    ("fitguide", "generate_dataset", "datagen.generate_dataset", True),
    ("fitguide", "write_dataset", "datagen.write_dataset", True),
    ("fitguide", "read_dataset", "datagen.read_dataset", True),
)

LAYERS = ("kinematics", "extremals", "guidance", "mlp", "datagen", "sim")

_PER_CALL = {
    "calls": ("count", "lower"),
    "self_s": ("s", "lower"),
    "self_us_mean": ("us", "lower"),
}

# name -> (unit, better)
PER_LAYER = {
    "kinematics.step_cartesian.calls": _PER_CALL["calls"],
    "kinematics.step_cartesian.self_us_mean": _PER_CALL["self_us_mean"],
    "kinematics.cartesian_to_polar.calls": _PER_CALL["calls"],
    "kinematics.cartesian_to_polar.self_us_mean": _PER_CALL["self_us_mean"],
    "extremals.sweep_cells.calls": _PER_CALL["calls"],
    "extremals.sweep_cells.cell_steps": ("count", "lower"),
    "extremals.sweep_cells.self_s": _PER_CALL["self_s"],
    "extremals.sweep_cells.cell_steps_per_s": ("1/s", "higher"),
    "extremals.propagate_param.calls": _PER_CALL["calls"],
    "extremals.propagate_param.self_s": _PER_CALL["self_s"],
    "extremals.terminal_time.calls": _PER_CALL["calls"],
    "extremals.terminal_time.self_s": _PER_CALL["self_s"],
    "guidance.command_oracle.calls": _PER_CALL["calls"],
    "guidance.command_oracle.self_s": _PER_CALL["self_s"],
    "guidance.command_oracle.warm_hits": ("count", "higher"),
    "guidance.command_oracle.warm_hit_ratio": ("ratio", "higher"),
    "guidance.command_oracle.cold_ms_p50": ("ms", "lower"),
    "guidance.command_oracle.warm_ms_p50": ("ms", "lower"),
    "guidance.command_oracle.errors": ("count", "lower"),
    "guidance.command_nn.calls": _PER_CALL["calls"],
    "guidance.command_nn.self_us_mean": _PER_CALL["self_us_mean"],
    "guidance.pn_command.calls": _PER_CALL["calls"],
    "guidance.pn_command.self_us_mean": _PER_CALL["self_us_mean"],
    "mlp.forward.calls": _PER_CALL["calls"],
    "mlp.forward.self_us_mean": _PER_CALL["self_us_mean"],
    "mlp.forward.us_mean": ("us", "lower"),
    "mlp.forward_batch.calls": _PER_CALL["calls"],
    "mlp.forward_batch.rows": ("count", "lower"),
    "mlp.forward_batch.self_s": _PER_CALL["self_s"],
    "mlp.loss_and_gradients.calls": _PER_CALL["calls"],
    "mlp.loss_and_gradients.rows": ("count", "lower"),
    "mlp.loss_and_gradients.self_s": _PER_CALL["self_s"],
    "mlp.loss_and_gradients.rows_per_s": ("1/s", "higher"),
    "mlp.train.self_s": _PER_CALL["self_s"],
    "mlp.train.epochs": ("count", "lower"),
    "datagen.generate_dataset.self_s": _PER_CALL["self_s"],
    "datagen.generate_dataset.rows": ("count", "higher"),
    "datagen.write_dataset.s": ("s", "lower"),
    "datagen.write_dataset.bytes": ("B", "lower"),
    "datagen.write_dataset.mb_per_s": ("MB/s", "higher"),
    "datagen.read_dataset.s": ("s", "lower"),
    "datagen.read_dataset.mb_per_s": ("MB/s", "higher"),
    "sim.simulate.calls": _PER_CALL["calls"],
    "sim.simulate.steps": ("count", "lower"),
    "sim.simulate.self_s": _PER_CALL["self_s"],
    "sim.simulate.self_us_per_step": ("us", "lower"),
    "sim.salvo.calls": _PER_CALL["calls"],
    **{f"{layer}.self_frac": ("ratio", "lower") for layer in LAYERS},
    "trace.overhead_frac": ("ratio", "lower"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0.0 else 0.0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _geometric_mean(values) -> float:
    positive = [v for v in values if v > 0]
    return statistics.geometric_mean(positive) if positive else 0.0


# Counters the hooks add to a name's CallStats.

def _count_sweep(stats, args, kwargs, result, seconds):
    stats.counts["cell_steps"] += result.alphas.size * result.n_steps


def _count_steps(stats, args, kwargs, result, seconds):
    stats.counts["steps"] += len(result.u)


def _count_oracle(stats, args, kwargs, result, seconds):
    warm = kwargs.get("warm_solution")
    if warm is None:
        stats.sample("cold", seconds)
        return
    stats.sample("warm", seconds)
    stats.counts["warm_calls"] += 1
    # a hit replays the warm solution's trajectory instead of solving again
    stats.counts["warm_hits"] += result.trajectory is warm.trajectory


def _count_rows_arg(stats, args, kwargs, result, seconds):
    stats.counts["rows"] += len(args[1])


def _count_rows_result(stats, args, kwargs, result, seconds):
    stats.counts["rows"] += len(result)


def _count_epochs(stats, args, kwargs, result, seconds):
    stats.counts["epochs"] += result[1].epochs_run


def _count_bytes(index):
    def hook(stats, args, kwargs, result, seconds):
        stats.counts["bytes"] += os.path.getsize(args[index])
    return hook


HOOKS = {
    "sim.simulate": _count_steps,
    "guidance.command_oracle": _count_oracle,
    "extremals.sweep_cells": _count_sweep,
    "mlp.forward_batch": _count_rows_arg,
    "mlp.loss_and_gradients": _count_rows_arg,
    "mlp.train": _count_epochs,
    "datagen.generate_dataset": _count_rows_result,
    "datagen.write_dataset": _count_bytes(1),
    "datagen.read_dataset": _count_bytes(0),
}


def trace_targets():
    """``Tracer.installed`` targets: TRACE_TARGETS with their counting hooks."""
    return [(module, attr, name, span, HOOKS.get(name)) for module, attr, name, span in TRACE_TARGETS]


def per_layer(stats: dict, traced_wall_s: float, overhead_frac: float) -> dict:
    """Every PER_LAYER metric from the traced run's aggregates (0 where a layer was idle)."""

    def get(name):
        return stats.get(name, CallStats())

    out = {}
    for name in {t[2] for t in TRACE_TARGETS}:
        s = get(name)
        out[f"{name}.calls"] = s.calls
        out[f"{name}.self_s"] = s.self_s
        out[f"{name}.self_us_mean"] = 1e6 * _ratio(s.self_s, s.calls)
    sweep = get("extremals.sweep_cells")
    out["extremals.sweep_cells.cell_steps"] = sweep.counts["cell_steps"]
    out["extremals.sweep_cells.cell_steps_per_s"] = _ratio(sweep.counts["cell_steps"], sweep.self_s)
    oracle = get("guidance.command_oracle")
    out["guidance.command_oracle.warm_hits"] = oracle.counts["warm_hits"]
    out["guidance.command_oracle.warm_hit_ratio"] = _ratio(oracle.counts["warm_hits"], oracle.counts["warm_calls"])
    out["guidance.command_oracle.cold_ms_p50"] = 1e3 * _median(oracle.samples.get("cold"))
    out["guidance.command_oracle.warm_ms_p50"] = 1e3 * _median(oracle.samples.get("warm"))
    out["guidance.command_oracle.errors"] = oracle.errors
    forward = get("mlp.forward")
    out["mlp.forward.us_mean"] = 1e6 * _ratio(forward.total_s, forward.calls)
    out["mlp.forward_batch.rows"] = get("mlp.forward_batch").counts["rows"]
    lg = get("mlp.loss_and_gradients")
    out["mlp.loss_and_gradients.rows"] = lg.counts["rows"]
    out["mlp.loss_and_gradients.rows_per_s"] = _ratio(lg.counts["rows"], lg.self_s)
    out["mlp.train.epochs"] = get("mlp.train").counts["epochs"]
    out["datagen.generate_dataset.rows"] = get("datagen.generate_dataset").counts["rows"]
    for stage in ("write_dataset", "read_dataset"):
        s = get(f"datagen.{stage}")
        out[f"datagen.{stage}.s"] = s.total_s
        out[f"datagen.{stage}.mb_per_s"] = _ratio(s.counts["bytes"] / 1e6, s.total_s)
    out["datagen.write_dataset.bytes"] = get("datagen.write_dataset").counts["bytes"]
    simulate = get("sim.simulate")
    out["sim.simulate.steps"] = simulate.counts["steps"]
    out["sim.simulate.self_us_per_step"] = 1e6 * _ratio(simulate.self_s, simulate.counts["steps"])
    for layer in LAYERS:
        layer_self = sum(s.self_s for name, s in stats.items() if name.startswith(layer + "."))
        out[f"{layer}.self_frac"] = _ratio(layer_self, traced_wall_s)
    out["trace.overhead_frac"] = overhead_frac
    return {name: out[name] for name in PER_LAYER}


def _per_op_median(op_seconds: list, op_index: list) -> dict:
    """Op index -> median over passes of that op's time."""
    by_op = {}
    for seconds, index in zip(op_seconds, op_index):
        by_op.setdefault(index, []).append(seconds)
    return {index: statistics.median(times) for index, times in by_op.items()}


def engage_metrics(op_seconds: list, op_index: list, op_outcomes: list, workload: str) -> dict:
    """REPORT metrics of an engage workload.

    ``op_seconds`` holds the nominal time (see pace.py) of every timed
    top-level call, ``op_index`` its position in the op list and
    ``op_outcomes`` its list of per-engagement dicts from
    ``bench.check_member``.  ``op_ms_p50`` and ``commands_per_s`` take
    each op's median over passes first, so that every op weighs the same
    however many passes it made.  ``commands_per_s`` is the geometric
    mean over ops of control steps over time: the op list mixes short and
    long engagements, and a median of the two clusters jumps between
    them with the seeded draws.  An op that delivered no command (a
    failed engagement, counted in ``failed``) is left out of it.
    """
    per_op = _per_op_median(op_seconds, op_index)
    first = {}
    for index, outcome in zip(op_index, op_outcomes):
        first.setdefault(index, outcome)
    outcomes = [o for op in op_outcomes for o in op]

    def worst(key):
        vals = [o[key] for o in outcomes if o.get(key) is not None]
        return max(vals) if vals else 0.0

    out = {
        "op_ms_p50": 1e3 * _median(list(per_op.values())),
        "engage_per_s": _ratio(len(outcomes), sum(op_seconds)),
        "commands_per_s": _geometric_mean([sum(o["steps"] for o in first[i]) / t for i, t in per_op.items()]),
        "effort_err_max": worst("effort_err"),
        "miss_m_max": worst("miss"),
        "impact_err_s_max": worst("impact_err"),
    }
    if workload == "network-engage" and len(op_seconds) >= P90_MIN_OPS:
        out["op_ms_p90"] = 1e3 * statistics.quantiles(op_seconds, n=10)[8]
    out["rel_err"] = out["effort_err_max"]
    return out


def dataset_metrics(passes: list) -> dict:
    """REPORT metrics of dataset-pipeline; one dict of nominal stage times per pipeline."""
    pipeline = _median([p["pipeline_s"] for p in passes])
    rows = passes[0]["rows"]
    val_mse = passes[0]["val_mse"]
    return {
        "op_ms_p50": 1e3 * pipeline,
        "pipeline_s": pipeline,
        "rows_per_s": rows / _median([p["generate_s"] for p in passes]),
        # each dataset row is one optimal turn-rate command
        "commands_per_s": rows / pipeline,
        "train_rows_per_s": rows * passes[0]["epochs"] / _median([p["train_s"] for p in passes]),
        "dataset_rows": rows,
        "val_mse": val_mse,
        # RMS command error on the validation rows over the command's spread
        "rel_err": math.sqrt(val_mse),
    }
