"""fitguide benchmark: closed-loop engagements and the dataset pipeline.

Run from the repository root, one workload at a time:

    python3 benchmarks/bench.py --workload oracle-engage --seed 1 --seconds 20 --trace 0

Workloads: oracle-engage, network-engage, dataset-pipeline (see
benchmarks/README.md for what each one stresses and why).  The load is a
closed loop: one process issues each top-level call only after the
previous one returned.  The run sets up three to nine times (``setup_s``
is the median), then makes as many whole passes over the seeded op list
as fit in ``--seconds`` (at least two), checking every op's outputs.
Every time it reports is scaled to a nominal host speed by a reference
kernel timed during and after each op (see pace.py); the wall times are
recorded too.
``--trace 1`` instead sets up once under the tracer, makes untraced passes
for half the time and the same number of traced passes, and reports the
per-layer metrics.

The run prints a table of every metric, writes the full record (with the
machine's provenance) to benchmarks/out/, and prints as its last line one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import metrics
import pace
import workloads
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

# Set up at least SETUP_REPEATS times, and more (up to SETUP_MAX_REPEATS)
# until SETUP_MIN_S of set-up has been timed, so that a cheap set-up still
# gets a steady median.
SETUP_REPEATS = 3
SETUP_MAX_REPEATS = 9
SETUP_MIN_S = 2.0

# Every untraced run times each op in at least two passes, and the timings
# take each op's median over its passes.
MIN_PASSES = 2

# Output checks.  The oracle and PN impact-time bounds are the paper's
# acceptance gates.  The network's were fixed from the parent commit's
# numbers for the set-up model: case A efforts within 9.4-24.4 % of the
# published values, misses below 0.06 m; 20 m is the package's own
# network acceptance gate.
ORACLE_EFFORT_TOL = 0.01      # relative, against the published effort
ORACLE_MISS_M = 5.0
IMPACT_TOL_S = 0.05           # |impact time - t_f| for oracle and network
NN_EFFORT_TOL = 0.30          # case A, relative to the published oracle effort
NN_MISS_M = 20.0
PN_IMPACT_TOL = 0.005         # relative, against the published PN impact times
PN_MISS_M = 5.0               # PN stops within speed * dt / 2 of the target
DATASET_ROWS_BAND = (150000, 185000)   # the parent commit gives 166,855
VAL_MSE_MAX = 0.03                      # the parent commit gives 0.012-0.019


def load_package():
    """Import fitguide from this checkout's src/, refusing any other copy."""
    if not (SRC / "fitguide" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'fitguide'}")
    sys.path.insert(0, str(SRC))
    import fitguide
    import fitguide.sim

    if Path(fitguide.__file__).resolve().parent != (SRC / "fitguide").resolve():
        raise SystemExit(f"error: imported fitguide from {fitguide.__file__}, not from {SRC}")
    return fitguide


def import_fresh() -> None:
    """Import the package in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import fitguide"], env=env, cwd=ROOT, check=True)


# --- engage workloads ---


def setup_engage(fg, inputs: dict) -> dict:
    model = None
    if "network" in inputs:
        net = inputs["network"]
        data = fg.generate_dataset(fg.DatagenConfig(**net["grid"]))
        model, _ = fg.mlp.train(data, fg.TrainConfig(max_epochs=net["epochs"], seed=net["train_seed"]))
    ops = []
    for op in inputs["ops"]:
        scenarios = [
            fg.Scenario(fg.CartesianState(*m["start"]), m["speed"], m["t_f"], guidance=m["guidance"])
            for m in op["members"]
        ]
        ops.append((op, scenarios))
    return {"model": model, "ops": ops}


def _fly(fg, op, scenarios, model):
    if op["kind"] == "salvo":
        return fg.salvo(scenarios, model=model)
    try:
        return [fg.sim.simulate(scenarios[0], model=model)]
    except (fg.GuidanceError, ValueError) as err:
        return [err]


def run_engage_op(fg, item, state):
    """One timed simulate or salvo call: (results, pace.Block)."""
    op, scenarios = item
    with state["reference"].timing() as block:
        results = _fly(fg, op, scenarios, state["model"])
    return results, block


def check_member(fg, member: dict, res) -> dict:
    """Check one engagement against its reference or the fixed bounds."""
    out = {"ok": False, "steps": 0, "miss": None, "effort_err": None, "impact_err": None,
           "pn_effort_dev": None, "error": None, "digest": None}
    if not isinstance(res, fg.SimResult):
        out["error"] = repr(res)
        return out
    values = (res.effort, res.miss, res.impact_time)
    out["digest"] = values
    out["steps"] = len(res.u)
    out["miss"] = res.miss
    if not all(map(math.isfinite, values)):
        out["error"] = "non-finite result"
        return out
    law, t_f = member["guidance"], member["t_f"]
    if law == "pn":
        ok = res.miss <= PN_MISS_M
        if member["ref_impact"] is not None:
            out["impact_err"] = abs(res.impact_time - member["ref_impact"])
            ok &= out["impact_err"] <= PN_IMPACT_TOL * member["ref_impact"]
            out["pn_effort_dev"] = abs(res.effort / member["ref_effort"] - 1.0)
    else:
        out["impact_err"] = abs(res.impact_time - t_f)
        ok = out["impact_err"] <= IMPACT_TOL_S
        ok &= res.miss <= (ORACLE_MISS_M if law == "oracle" else NN_MISS_M)
        if member["ref_effort"] is not None:
            out["effort_err"] = abs(res.effort / member["ref_effort"] - 1.0)
            ok &= out["effort_err"] <= (ORACLE_EFFORT_TOL if law == "oracle" else NN_EFFORT_TOL)
    out["ok"] = bool(ok)
    return out


def check_engage_op(fg, item, results, first_digests: dict, index: int):
    op, _ = item
    outcomes = [check_member(fg, m, r) for m, r in zip(op["members"], results)]
    digests = tuple(o["digest"] for o in outcomes)
    if first_digests.setdefault(index, digests) != digests:
        return False, outcomes, "result differs from the first pass"
    note = "; ".join(f"member {k}: {o['error'] or 'outside bounds'}" for k, o in enumerate(outcomes) if not o["ok"])
    return not note, outcomes, note


# --- dataset-pipeline ---


def setup_dataset(fg, inputs: dict) -> dict:
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.TemporaryDirectory(prefix="pipeline-", dir=OUT)
    return {
        "config": fg.DatagenConfig(**inputs["grid"]),
        "train": fg.TrainConfig(max_epochs=inputs["epochs"], seed=inputs["train_seed"]),
        "workdir": workdir,
        "ops": [({"label": "pipeline"}, None)],
    }


def run_pipeline(fg, item, state):
    """One grid-to-model pipeline: (outputs and nominal stage times, pace.Block).

    Each stage is its own timed block, so that each stage time is
    scaled by the host speed while that stage ran.
    """
    path = Path(state["workdir"].name) / "dataset.csv"
    out, blocks = {}, []

    def timed(key, stage, *args):
        with state["reference"].timing() as block:
            result = stage(*args)
        out[key] = block.nominal
        blocks.append(block)
        return result

    out["data"] = timed("generate_s", fg.generate_dataset, state["config"])
    timed("write_s", fg.write_dataset, out["data"], path)
    out["back"] = timed("read_s", fg.read_dataset, path)
    _, out["report"] = timed("train_s", fg.mlp.train, out["back"], state["train"])
    seconds = sum(b.seconds for b in blocks)
    return out, pace.Block(seconds, sum(b.nominal for b in blocks) / seconds)


def check_pipeline(fg, item, out, first_digests: dict, index: int):
    data, back, report = out.pop("data"), out.pop("back"), out.pop("report")
    digest = hashlib.sha256(data.tobytes()).hexdigest()
    problems = []
    if back.tobytes() != data.tobytes():
        problems.append("CSV round trip not bit-exact")
    if first_digests.setdefault(index, digest) != digest:
        problems.append("re-generation not byte-identical")
    rows = len(data)
    if not DATASET_ROWS_BAND[0] <= rows <= DATASET_ROWS_BAND[1]:
        problems.append(f"{rows} rows outside {DATASET_ROWS_BAND}")
    if not (math.isfinite(report.final_val_mse) and report.final_val_mse <= VAL_MSE_MAX):
        problems.append(f"val MSE {report.final_val_mse:.3g} above {VAL_MSE_MAX}")
    out.update(rows=rows, epochs=report.epochs_run, val_mse=report.final_val_mse, digest=digest,
               pipeline_s=out["generate_s"] + out["write_s"] + out["read_s"] + out["train_s"])
    return not problems, [out], "; ".join(problems)


WORKLOAD_FUNCS = {
    "oracle-engage": (setup_engage, run_engage_op, check_engage_op),
    "network-engage": (setup_engage, run_engage_op, check_engage_op),
    "dataset-pipeline": (setup_dataset, run_pipeline, check_pipeline),
}


# --- measurement ---


@dataclass
class Timings:
    """Every timed op of a run, in the order they ran."""

    seconds: list = field(default_factory=list)   # wall time of each op, less the sampler's
    index: list = field(default_factory=list)     # its position in the op list
    outcomes: list = field(default_factory=list)  # its list of checked outputs
    failures: list = field(default_factory=list)  # one note per op that failed its checks
    passes: int = 0
    scale: list = field(default_factory=list)     # its factor to nominal time (pace.Block)

    @property
    def nominal(self) -> list:
        """Each op's time scaled to the nominal host speed."""
        return [s * f for s, f in zip(self.seconds, self.scale)]

    def extend(self, other: "Timings") -> None:
        self.failures += other.failures
        self.seconds += other.seconds
        self.scale += other.scale
        self.index += other.index
        self.outcomes += other.outcomes


def measure(fg, workload, state, seconds=None, passes=None, min_passes=1, tracer=None) -> Timings:
    """Whole passes over the op list: ``passes`` of them, or as many as fit in ``seconds``.

    After ``min_passes``, a pass starts only while the mean pass so far
    still fits in the time left.  Ops marked ``once`` run in the first
    pass only.  Checks run outside the timed region.
    """
    _, run_op, check_op = WORKLOAD_FUNCS[workload]
    out = Timings()
    first_digests = state.setdefault("digests", {})
    start = time.perf_counter()
    while True:
        for index, item in enumerate(state["ops"]):
            if out.passes and item[0].get("once"):
                continue
            if tracer is not None:
                tracer.op_id = len(out.seconds)
            result, block = run_op(fg, item, state)
            out.seconds.append(block.seconds)
            out.scale.append(block.scale)
            out.index.append(index)
            ok, op_outcomes, note = check_op(fg, item, result, first_digests, index)
            out.outcomes.append(op_outcomes)
            if not ok:
                out.failures.append(f"pass {out.passes} op {item[0]['label']}: {note}")
        out.passes += 1
        if passes is not None:
            if out.passes >= passes:
                break
        elif out.passes >= min_passes and (time.perf_counter() - start) * (out.passes + 1) / out.passes > seconds:
            break
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def report_metrics(workload, timings: Timings, setup_s) -> dict:
    if workload == "dataset-pipeline":
        out = metrics.dataset_metrics([o for outcomes in timings.outcomes for o in outcomes])
    else:
        out = metrics.engage_metrics(timings.nominal, timings.index, timings.outcomes, workload)
    out["setup_s"] = setup_s
    out["wall_op_ms_p50"] = 1e3 * statistics.median(timings.seconds)
    out["host_speed"] = statistics.median(timings.scale)
    out["fail_frac"] = len(timings.failures) / len(timings.seconds)
    out["peak_rss_mb"] = peak_rss_mb()
    return out


# --- provenance ---


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def provenance(fg, workload: str, seed: int, inputs: dict) -> dict:
    import numpy as np

    cpu_model = ""
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / n) for n in ("level", "type", "size"))
        caches[f"L{level} {kind}"] = size
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "fitguide").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "workload_params": workloads.describe(inputs),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model or platform.processor(),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "fitguide_version": fg.__version__,
    }


# --- entry point ---


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    fg = load_package()
    inputs = workloads.make_inputs(workload, seed)
    setup = WORKLOAD_FUNCS[workload][0]
    record = {"provenance": provenance(fg, workload, seed, inputs), "trace": trace}
    ref = pace.Reference(during=not trace)
    if not trace:
        setup_times, setup_nominal, state = [], [], None
        while len(setup_times) < SETUP_REPEATS or (
            sum(setup_times) < SETUP_MIN_S and len(setup_times) < SETUP_MAX_REPEATS
        ):
            with ref.timing() as imported:
                import_fresh()
            with ref.timing() as prepared:
                fresh = setup(fg, inputs)
            setup_times.append(imported.seconds + prepared.seconds)
            setup_nominal.append(imported.nominal + prepared.nominal)
            if state is None:
                state = fresh
            elif "workdir" in fresh:
                fresh["workdir"].cleanup()
        state["reference"] = ref
        timings = measure(fg, workload, state, seconds=seconds, min_passes=MIN_PASSES)
        values = report_metrics(workload, timings, statistics.median(setup_nominal))
        record["setup_s_samples"] = setup_times
        record["setup_s_nominal_samples"] = setup_nominal
        names = metrics.END_TO_END
    else:
        tracer = Tracer()
        t0 = time.perf_counter()
        with tracer.installed(metrics.trace_targets()):
            state = setup(fg, inputs)
        traced_setup_s = time.perf_counter() - t0
        state["reference"] = ref
        timings = measure(fg, workload, state, seconds=seconds / 2.0)
        with tracer.installed(metrics.trace_targets()):
            traced = measure(fg, workload, state, passes=timings.passes, tracer=tracer)
        # the same ops in the same order, so compare them one by one; the
        # median ratio is robust to bursts of load from outside the process
        overhead = statistics.median(t / u for u, t in zip(timings.nominal, traced.nominal)) - 1.0
        values = metrics.per_layer(tracer.stats, traced_setup_s + sum(traced.seconds), overhead)
        timings.extend(traced)
        record["spans_file"] = write_spans(workload, seed, tracer)
        names = metrics.PER_LAYER
    if "workdir" in state:
        state["workdir"].cleanup()
    pn_devs = [o["pn_effort_dev"] for op in timings.outcomes for o in op if o.get("pn_effort_dev") is not None]
    record["pn_effort_dev_max"] = max(pn_devs) if pn_devs else None
    record["passes"] = timings.passes
    record["failures"] = timings.failures
    record["op_seconds"] = timings.seconds
    record["op_scale"] = timings.scale
    record["op_index"] = timings.index
    record["metrics"] = values
    record["result"] = {
        "correct": not timings.failures,
        "attempted": len(timings.seconds),
        "failed": len(timings.failures),
        "metrics": {name: {"value": values[name], "unit": names[name][0]} for name in names},
    }
    return record


def write_spans(workload: str, seed: int, tracer: Tracer) -> str:
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{workload}-seed{seed}-spans.jsonl"
    with open(path, "w", encoding="utf-8") as f:
        for span in tracer.span_records():
            f.write(json.dumps(span) + "\n")
    return str(path.relative_to(ROOT))


def print_table(workload: str, record: dict) -> None:
    prov = record["provenance"]
    print(f"fitguide benchmark: {workload}, seed {prov['seed']}, trace {int(record['trace'])}, "
          f"{record['passes']} pass(es), {len(record['op_seconds'])} ops")
    print(f"machine: {prov['nproc']} cpu(s), {prov['cpu_model']}, caches {prov['caches']}, "
          f"python {prov['python']}, numpy {prov['numpy']}, {prov['blas']} x{prov['blas_threads']} thread")
    print(f"source: commit {prov['git_commit']}, src sha256 {prov['src_sha256'][:16]}")
    print(f"workload params: {json.dumps(prov['workload_params'])}")
    if record["trace"]:
        rows = [(name, record["metrics"][name], unit, better) for name, (unit, better) in metrics.PER_LAYER.items()]
    else:
        rows = [(name, record["metrics"][name], unit, better)
                for name, (unit, better, where) in metrics.REPORT.items()
                if workload in where and name in record["metrics"]]
        skipped = [name for name, (_, _, where) in metrics.REPORT.items()
                   if workload in where and name not in record["metrics"]]
        if skipped:
            print(f"not reported (fewer than {metrics.P90_MIN_OPS} ops): {', '.join(skipped)}")
    for name, value, unit, better in rows:
        print(f"  {name:44s} {value:>16.6g} {unit:6s} ({better})")
    if record["pn_effort_dev_max"] is not None:
        print(f"  published PN effort column, max deviation (recorded, not gated): {record['pn_effort_dev_max']:.3f}")
    print(f"checks: {len(record['failures'])} failed of {len(record['op_seconds'])} ops")
    for line in record["failures"][:20]:
        print(f"  FAIL {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # One BLAS thread: the load is one serial process and the matrices are
    # 30 columns wide, too small to gain from threads.  numpy loads with
    # the package, after this.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print_table(args.workload, record)
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
