"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its
``src`` directory. ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` is the separate traced run that prints the per-layer
metrics and the tracing overhead. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Inputs are written under ``.bench_work/`` and removed at exit. See
perfbench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# serve-small is not among them: see "Workloads" in perfbench/README.md
WORKLOADS = ("serve-vitb", "ingest", "train")
# end-to-end metrics printed by --trace 0, with their units
END_TO_END = {"setup_s": "s", "clips_per_s": "1/s", "latency_p50_ms": "ms",
              "peak_rss_mb": "MB"}
SETUP_REPEATS = 3
# one BLAS/OpenMP thread: OpenBLAS workers spin while they wait, so at two
# threads a ViT-B clip burns about twice the CPU time for 20% less wall time
MAX_THREADS = 1
# Operations and set-up are timed in CPU seconds of this process. On a
# shared host wall time also counts the time the host gives to others
# (steal) and the time other processes hold the cores; CPU time leaves
# both out. With one thread it equals wall time on an idle core, and it
# is what bounds throughput when every core is busy serving.
CLOCK = time.process_time


def bootstrap() -> dict:
    """Pin the thread count before numpy loads, then import the package
    from this checkout's ``src``. Returns the run environment."""
    if not (SRC / "sparsepatch" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source under {SRC}")
    nproc = len(os.sched_getaffinity(0))
    threads = min(nproc, MAX_THREADS)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    sys.path.insert(0, str(SRC))
    start = CLOCK()
    import workloads  # noqa: F401  imports numpy, scipy and every module
    import_s = CLOCK() - start
    import numpy
    import sparsepatch

    if Path(sparsepatch.__file__).resolve().parent != SRC / "sparsepatch":
        raise SystemExit(f"perfbench: imported {sparsepatch.__file__}, not {SRC}")
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": nproc, "threads": threads,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "import_s": import_s}


def timed(fn) -> float:
    start = CLOCK()
    fn()
    return CLOCK() - start


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Loop:
    """Closed loop, one client: the next operation starts when the last
    one has been checked."""

    def __init__(self, workload):
        self.workload = workload
        self.items: list = []
        self.latencies: list[float] = []  # CPU seconds
        self.wall: list[float] = []
        self.observations: list = []
        self.failures: list[str] = []

    def step(self, item) -> None:
        from workloads import Observation

        self.items.append(item)
        start, wall = CLOCK(), time.perf_counter()
        try:
            result = self.workload.operate(item)
        except Exception:  # a failed operation is counted, not fatal
            self.latencies.append(CLOCK() - start)
            self.wall.append(time.perf_counter() - wall)
            self.failures.append(f"{item}: {traceback.format_exc(limit=3)}")
            self.observations.append(Observation(passes=0, problems=["raised"]))
            return
        self.latencies.append(CLOCK() - start)
        self.wall.append(time.perf_counter() - wall)
        obs = self.workload.check(item, result)
        if obs.problems:
            self.failures.append(f"{item}: " + "; ".join(obs.problems))
        self.observations.append(obs)

    def run_passes(self, seconds: float) -> int:
        """Whole passes over the pool, so every run weighs light and heavy
        inputs alike: one, then another while the last one's duration
        still fits in ``seconds``, so a run takes at most ``seconds`` or
        one pass."""
        passes = 0
        end = time.perf_counter()
        deadline = end + seconds
        while True:
            begin = end
            for item in self.workload.pool:
                self.step(item)
            passes += 1
            end = time.perf_counter()
            if end + (end - begin) > deadline:
                return passes

    def passes(self) -> int:
        return sum(o.passes for o in self.observations)

    def clips_per_s(self, wall: bool = False) -> float:
        """Clips (training passes) per CPU second (wall second with
        ``wall``) of a median pass: each input's median latency, summed
        over the pool, so a slow spell weighs less than in a plain mean."""
        latencies: dict = {}
        passes: dict = {}
        times = self.wall if wall else self.latencies
        for item, latency, obs in zip(self.items, times, self.observations):
            latencies.setdefault(item, []).append(latency)
            passes[item] = max(passes.get(item, 0), obs.passes)
        return (sum(passes.values())
                / sum(statistics.median(v) for v in latencies.values()))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    env = bootstrap()
    import layers
    import spans
    import stats
    import workloads

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    wl = workloads.make(args.workload, args.seed, workdir)
    try:
        wl.prepare()
        setup_runs = [timed(wl.setup)]
        if args.trace:
            # the same passes twice, untraced then traced
            plain, traced = Loop(wl), Loop(wl)
            count = plain.run_passes(args.seconds / 2)
            recorder = spans.SpanRecorder(clock=CLOCK)
            with spans.installed(recorder, layers.targets()):
                for item in wl.pool * count:
                    traced.step(item)
                    recorder.op += 1
            loops = [plain, traced]
        else:
            loops = [Loop(wl)]
            loops[0].run_passes(args.seconds)
        # the repeats come after the measurement, which so always runs on
        # the process's first set-up, as a user's server would
        setup_runs += [timed(wl.setup) for _ in range(SETUP_REPEATS - 1)]
        setup_s = env["import_s"] + stats.median(setup_runs)
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still has its directory there
            pass

    observations = [o for lp in loops for o in lp.observations]
    latencies_ms = [1e3 * x for lp in loops for x in lp.latencies]
    failures = [f for lp in loops for f in lp.failures]
    attempted = len(observations)
    failed = sum(1 for o in observations if o.problems)
    samples = len(latencies_ms)
    tail = stats.tail_percentile(latencies_ms)
    values = {"setup_s": setup_s, "clips_per_s": loops[0].clips_per_s(),
              "latency_p50_ms": stats.median(latencies_ms),
              "peak_rss_mb": peak_rss_mb()}
    rows = [(name, values[name], unit) for name, unit in END_TO_END.items()]
    if args.trace:
        untraced, with_spans = plain.clips_per_s(), traced.clips_per_s()
        rows = [("trace.untraced_clips_per_s", untraced, "1/s"),
                ("trace.traced_clips_per_s", with_spans, "1/s"),
                ("trace.overhead_clips_per_s", untraced - with_spans, "1/s")]
        per_layer = layers.span_metrics(recorder.spans, recorder.counts,
                                        traced.passes())
        per_layer.update(layers.result_metrics(traced.observations))
        rows += [(name, per_layer[name], unit)
                 for name, unit in layers.per_layer_units().items()
                 if name not in layers.TRACE_METRICS]

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"nproc {env['nproc']}, BLAS/OpenMP threads {env['threads']}, "
          f"python {env['python']}, numpy {env['numpy']}, BLAS {env['blas']}")
    print(f"operations {attempted}, failed {failed}, failed_share "
          f"{failed / max(1, attempted):.4f}; latency samples {samples}; "
          f"setup runs {[round(x, 4) for x in setup_runs]} "
          f"+ import {env['import_s']:.4f} s (CPU)")
    wall_ms = [1e3 * x for lp in loops for x in lp.wall]
    print(f"wall clock, not a bounded metric: clips_per_s "
          f"{loops[0].clips_per_s(wall=True):.4f}, latency_p50_ms "
          f"{stats.median(wall_ms):.3f}")
    if tail is None:
        print(f"latency_tail_ms: not reported, {samples} samples leave fewer "
              f"than {stats.MIN_BEYOND} beyond the median")
    else:
        print(f"latency_tail_ms p{tail[0]:g}: {tail[1]:.3f} ms "
              f"({samples} samples)")
    if args.workload.startswith("serve"):
        gm = layers.result_metrics(observations)["gmacs_per_clip"]
        print(f"gmacs_per_clip (counted): {gm:.6f}")
    for name, value, unit in rows:
        print(f"  {name:<32} {value:>16.6f} {unit}")
    for line in failures[:10]:
        print("FAILED " + line, file=sys.stderr)

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, value, unit in rows}}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
