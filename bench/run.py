"""pointvector benchmark: one workload per process, checked outputs, one JSON result.

    python3 bench/run.py --workload train-l --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/`. With `--trace 0` the last line of stdout holds the end-to-end
metrics; with `--trace 1` it holds the per-layer metrics of a traced run.
See bench/README.md for the workloads and the metrics.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread, fixed before numpy loads: the workloads are elementwise
# numpy, so a second thread bought nothing on a 2-core machine, and one thread
# is less exposed to other load on the machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("train-l", "infer-s-8k", "fit-toy-ball")
SETUP_REPEATS = 3   # setups per untraced run; setup_s reports their median
MB = 1024.0 * 1024.0
# A shared host's speed drifts by up to half over minutes, and numpy loops
# slow roughly together. A fixed numpy loop, the canary, runs between
# operations, and the bounded timings are given at the speed of a machine on
# which the canary takes CANARY_REF_S: each wall time is divided by the mean
# of the canary runs around it and multiplied by CANARY_REF_S. See README.md,
# "Noise and bounds".
CANARY_REF_S = 0.040

# per-layer metrics read from the span table: (name, unit, phase); values
# of the timed phase are per traced operation, see README.md
SPAN_METRICS = [
    ("geometry.farthest_point_sample.ms", "ms", "ops"),
    ("geometry.farthest_point_sample.calls", "count", "ops"),
    ("geometry.knn.ms", "ms", "ops"),
    ("geometry.knn.calls", "count", "ops"),
    ("geometry.knn_points.ms", "ms", "ops"),
    ("geometry.knn_points.calls", "count", "ops"),
    ("geometry.ball_query.ms", "ms", "ops"),
    ("geometry.ball_query.calls", "count", "ops"),
    ("nnops.backward.ms", "ms", "ops"),
    ("nnops.batchnorm.ms", "ms", "ops"),
    ("nnops.batchnorm.bwd_ms", "ms", "ops"),
    ("nnops.linear.ms", "ms", "ops"),
    ("nnops.linear.bwd_ms", "ms", "ops"),
    ("nnops.gather_neighbors.bwd_ms", "ms", "ops"),
    ("nnops.gather_points.bwd_ms", "ms", "ops"),
    ("nnops.weighted_gather.bwd_ms", "ms", "ops"),
    ("vecenc.encode.ms", "ms", "ops"),
    ("vecenc.encode.bwd_ms", "ms", "ops"),
    ("vecenc.rotate_field3.ms", "ms", "ops"),
    ("vecenc.rotate_field3.bwd_ms", "ms", "ops"),
    ("setabs.aggregation_variant.ms", "ms", "ops"),
    ("setabs.aggregation_variant.bwd_ms", "ms", "ops"),
    ("setabs.sa_block.ms", "ms", "ops"),
    ("setabs.sa_block.self_ms", "ms", "ops"),
    ("setabs.sa_block.bwd_ms", "ms", "ops"),
    ("setabs.vpsa_block.ms", "ms", "ops"),
    ("setabs.vpsa_block.self_ms", "ms", "ops"),
    ("setabs.vpsa_block.bwd_ms", "ms", "ops"),
    ("setabs.feature_propagate.ms", "ms", "ops"),
    ("setabs.feature_propagate.bwd_ms", "ms", "ops"),
    ("model.Model.forward_seg.ms", "ms", "ops"),
    ("train.ce_label_smoothing.ms", "ms", "ops"),
    ("train.adamw_step.ms", "ms", "ops"),
    ("train.evaluate.ms", "ms", "ops"),
    ("model.save_checkpoint.ms", "ms", "ops"),
    ("dataio.make_segmentation_dataset.ms", "ms", "setup"),
    ("model.Model.ms", "ms", "setup"),
    ("setabs.sa_block.peak_mb", "MB", "setup-memory"),
    ("setabs.vpsa_block.peak_mb", "MB", "setup-memory"),
    ("setabs.feature_propagate.peak_mb", "MB", "setup-memory"),
    ("nnops.backward.peak_mb", "MB", "setup-memory"),
    ("model.Model.forward_seg.peak_mb", "MB", "setup-memory"),
]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pointvector" / "__init__.py").is_file():
        print(f"error: no pointvector package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    import_s = time.perf_counter() - T_START
    wl = workloads.make(args.workload, OUT_DIR)
    reference = workloads.load_reference(args.workload)
    run = Run(wl, reference)
    import_canary_s = run.last_canary_s
    if args.trace:
        return traced_run(run, args)
    return untraced_run(run, args, import_s, import_canary_s)


class Run:
    """Setup, the timed loop and the failure count of one workload in one process.

    The canary runs before the first setup and after every setup and call, so
    each one is bracketed by two canary runs.
    """

    def __init__(self, wl, reference):
        self.wl, self.reference = wl, reference
        self.attempted = self.failed = 0
        self.failures: list = []
        self.canaries_s: list = []
        self.last_canary_s = self.canary()

    def canary(self) -> float:
        """Run the canary once; returns its seconds and keeps them for the env record."""
        import workloads

        self.canaries_s.append(workloads.canary())
        return self.canaries_s[-1]

    def bracket(self) -> float:
        """Mean of the canary run before the last call and a new one after it."""
        before, self.last_canary_s = self.last_canary_s, self.canary()
        return (before + self.last_canary_s) / 2

    def setup(self) -> tuple[float, float]:
        """Build and warm up on the reference inputs; returns its seconds and canary."""
        t0 = time.perf_counter()
        samples, summary = self.wl.setup()
        elapsed = time.perf_counter() - t0
        canary_s = self.bracket()
        if self.reference is None:
            samples[0].failures.append(f"{self.wl.name}: no reference data")
        else:
            samples[0].failures += self.wl.check_reference(summary, self.reference)
        self.count(samples)
        return elapsed, canary_s

    def op(self, seed: int, i: int) -> list:
        """Run timed operation i; a call that raises fails all its operations."""
        try:
            samples = self.wl.op(seed, i)
        except Exception:  # the loop must go on; the failure is counted and shown
            traceback.print_exc()
            self.bracket()
            self.attempted += self.wl.ops_per_call
            self.failed += self.wl.ops_per_call
            self.failures.append(f"{self.wl.name}: operation {i} raised")
            return []
        canary_s = self.bracket()
        for s in samples:
            if math.isnan(s.canary_s):   # not bracketed more closely by the workload
                s.canary_s = canary_s
        self.count(samples)
        return samples

    def count(self, samples) -> None:
        for s in samples:
            self.attempted += 1
            if s.failures:
                self.failed += 1
                self.failures += s.failures

    def loop(self, seed: int, seconds: float, min_ops: int, context=None) -> list:
        """Closed loop until `seconds` pass; returns the samples of each call.

        `context(i)`, when given, is entered around call i.
        """
        calls = []
        t0 = time.perf_counter()
        i = 0
        while i < min_ops or time.perf_counter() - t0 < seconds:
            with context(i) if context is not None else contextlib.nullcontext():
                calls.append(self.op(seed, i))
            i += 1
        return calls

    def result(self, metrics: dict) -> dict:
        return {"correct": self.failed == 0, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def at_ref(seconds: float, canary_s: float) -> float:
    """A wall time in seconds at the reference speed, given the canary around it."""
    return seconds / canary_s * CANARY_REF_S


def untraced_run(run: Run, args, import_s: float, import_canary_s: float) -> int:
    setups = [run.setup() for _ in range(SETUP_REPEATS)]
    samples = [s for call in run.loop(args.seed, args.seconds, 1) for s in call]
    if not samples:
        print("error: every timed operation failed", file=sys.stderr)
        return 1
    walls = [s.wall_s for s in samples]
    setup_s = (at_ref(import_s, import_canary_s)
               + statistics.median(at_ref(s, c) for s, c in setups))
    norm_clouds_per_s = samples[0].clouds / statistics.median(
        at_ref(s.wall_s, s.canary_s) for s in samples)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "norm_clouds_per_s": {"value": norm_clouds_per_s, "unit": "1/s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    named = {"setup_s": (setup_s, "s"), "norm_clouds_per_s": (norm_clouds_per_s, "1/s"),
             "clouds_per_s": (samples[0].clouds / statistics.median(walls), "1/s"),
             **run.wl.report(samples),
             "peak_rss_mb": (peak_rss_mb, "MB"),
             "fail_fraction": (run.failed / run.attempted, "ratio")}
    print_header(run, args)
    print(f"setup: import {import_s:.3f} s + median of {len(setups)} setups "
          f"{', '.join(f'{s:.3f}' for s, _ in setups)} s; at the reference speed "
          f"{setup_s:.3f} s")
    print(f"timed operations: {len(walls)}; wall median {statistics.median(walls):.4f} s; "
          f"each: {' '.join(f'{w:.3f}' for w in walls)} s")
    print(f"canary around each: {' '.join(f'{s.canary_s * 1e3:.1f}' for s in samples)} ms "
          f"(reference {CANARY_REF_S * 1e3:g} ms)")
    for name in ("setup_s", "norm_clouds_per_s", "clouds_per_s", "train_clouds_per_s",
                 "eval_clouds_per_s", "peak_rss_mb", "val_miou", "fail_fraction"):
        if name in named:
            value, unit = named[name]
            print(f"  {name:<20} {value:12.4f} {unit}")
        else:
            print(f"  {name:<20} {'n/a':>12} (not measured by {run.wl.name})")
    print_failures(run)
    print(json.dumps(run.result(metrics)))
    return 0


def traced_run(run: Run, args) -> int:
    from tracer import Tracer

    tracer = Tracer()
    # set up twice: under tracemalloc for peak bytes, then for setup timings
    with tracer.recording("setup-memory", memory=True):
        run.setup()
    with tracer.recording("setup"):
        run.setup()
    # alternate untraced and traced calls; the difference is the tracing overhead
    calls = run.loop(args.seed, args.seconds, 2,
                     lambda i: tracer.recording(i) if i % 2 else contextlib.nullcontext())
    traced_ops = list(range(1, len(calls), 2))
    traced = [s for i in traced_ops for s in calls[i]]
    untraced = [s for i in range(0, len(calls), 2) for s in calls[i]]
    if not traced or not untraced:
        print("error: no traced or no untraced operation succeeded", file=sys.stderr)
        return 1

    n_ops = len(traced)
    wall_ms = sum(s.wall_s for s in traced) * 1e3
    table = tracer.table(traced_ops)
    tables = {"ops": (table, n_ops), "setup": (tracer.table(["setup"]), 1),
              "setup-memory": (tracer.table(["setup-memory"]), 1)}
    forwards = max(tracer.count(traced_ops, "forward"), 1)
    traced_med = statistics.median(s.wall_s for s in traced) * 1e3
    untraced_med = statistics.median(s.wall_s for s in untraced) * 1e3

    values = {}
    for name, unit, phase in SPAN_METRICS:
        span, stat = name.rsplit(".", 1)
        phase_table, per = tables[phase]
        values[name] = (phase_table[span][stat] / per, unit)
    slots = tracer.count(traced_ops, "ball_slots")
    values.update({
        "geometry.knn.dist_mb": (tracer.count(traced_ops, "knn_dist_bytes") / MB / n_ops, "MB"),
        "geometry.neighborhoods_per_step": (
            tracer.count(traced_ops, "neighborhoods") / forwards, "count"),
        "geometry.ball_query.pad_fraction": (
            tracer.count(traced_ops, "ball_pad") / slots if slots else 0.0, "ratio"),
        "nnops.tape_records": (tracer.count(traced_ops, "custom_op") / forwards, "count"),
        "geometry.share": (tracer.module_ms(traced_ops, "geometry") / wall_ms, "ratio"),
        "nnops.backward.share": (table["nnops.backward"]["ms"] / wall_ms, "ratio"),
        "model.Model.forward_seg.share": (table["model.Model.forward_seg"]["ms"] / wall_ms,
                                          "ratio"),
        "train.train_loop.val_miou": (
            statistics.median(s.extra["best_miou"] for s in traced)
            if "best_miou" in traced[0].extra else 0.0, "ratio"),
        "trace.overhead_ms": (traced_med - untraced_med, "ms"),
        "trace.overhead_ratio": ((traced_med - untraced_med) / untraced_med, "ratio"),
    })

    trace_path = OUT_DIR / f"trace-{run.wl.name}-seed{args.seed}.jsonl"
    tracer.write(trace_path)
    print_header(run, args)
    print(f"traced operations: {n_ops} (median {traced_med:.1f} ms); untraced: "
          f"{len(untraced)} (median {untraced_med:.1f} ms); spans: {len(tracer.spans)} "
          f"written to {trace_path.relative_to(ROOT)}")
    print(f"per traced operation, top spans by self time ({wall_ms / n_ops:.1f} ms wall):")
    print(f"  {'span':<36} {'calls':>7} {'ms':>10} {'self_ms':>10} {'bwd_ms':>10}")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_ms"])[:25]:
        print(f"  {name:<36} {row['calls'] / n_ops:7.1f} {row['ms'] / n_ops:10.2f} "
              f"{row['self_ms'] / n_ops:10.2f} {row['bwd_ms'] / n_ops:10.2f}")
    print_failures(run)
    print(json.dumps(run.result({k: {"value": v, "unit": u} for k, (v, u) in values.items()})))
    return 0


def print_header(run: Run, args) -> None:
    print(f"workload {run.wl.name} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print("env " + json.dumps(environment(run)))


def print_failures(run: Run) -> None:
    print(f"failed operations: {run.failed} of {run.attempted}")
    for f in run.failures[:20]:
        print(f"  FAILED {f}")


def environment(run: Run) -> dict:
    """Versions, BLAS configuration and threads, cores, and the run's canary median."""
    import numpy as np

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas.get("name"),
        "blas_config": blas.get("openblas configuration", blas.get("version")),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "canary_ms": statistics.median(run.canaries_s) * 1e3,
        "canary_runs": len(run.canaries_s),
    }


if __name__ == "__main__":
    sys.exit(main())
