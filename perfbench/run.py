"""Run one benchmark workload and print its metrics (see README.md).

    python3 perfbench/run.py --workload exact-dp --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it runs the same units untraced and then traced, and reports
the per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 7  # fresh interpreters per run; setup_s is their median
WORKER_CHECK_UNIT = -1  # unit index of the worker-count check; timed units use 0, 1, ...


@dataclass
class Measurement:
    """Units run back to back: each unit's clock and checked outcome."""

    clocks: list = field(default_factory=list)
    outcomes: list = field(default_factory=list)

    def seconds(self, kind: str) -> float:
        """Summed unit seconds; ``kind`` is ``raw`` or ``calibrated`` (see Clock)."""
        return sum(getattr(c, kind) for c in self.clocks)

    def rate(self, kind: str) -> float:
        """Median over units of instances per second."""
        return statistics.median(
            o.instances / getattr(c, kind) for o, c in zip(self.outcomes, self.clocks)
        )

    def total(self, attr: str) -> int:
        return sum(getattr(o, attr) for o in self.outcomes)

    def digest(self) -> str:
        joined = "".join(o.digest() for o in self.outcomes)
        return hashlib.sha256(joined.encode()).hexdigest()


def measure(workload, seed: int, seconds: float | None = None, units: int | None = None):
    """Run units until ``seconds`` have passed, or exactly ``units`` units.

    Only ``workload.run`` is timed; ``workload.check`` runs after the clock
    stops.  A unit that raises counts all of its instances as failed.
    """
    from calibration import Clock
    from workloads import Outcome, unit_seed

    m = Measurement()
    start = time.perf_counter()
    while (len(m.outcomes) < units) if units is not None else (
        time.perf_counter() - start < seconds
    ):
        useed = unit_seed(workload.name, seed, len(m.outcomes))
        clock = Clock()
        try:
            try:
                result = workload.run(useed, clock.mark)
            finally:
                clock.mark()
            outcome = workload.check(result)
        except Exception:
            traceback.print_exc()
            size = workload.unit_size
            outcome = Outcome(size, size, 0, 0, (f"error in unit {useed}",))
        m.clocks.append(clock)
        m.outcomes.append(outcome)
    return m


def probe_setup(name: str) -> list:
    """Clocks from spawning a fresh interpreter until it has built the workload."""
    from calibration import Clock

    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--setup-probe"]
    clocks = []
    for i in range(SETUP_SAMPLES + 1):  # the first one warms the file caches; it is not counted
        clock = Clock()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            clock.lap()
        clock.sample()  # after the probe has exited, so that it does not compete
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        if i:
            clocks.append(clock)
    return clocks


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(args, digest: str) -> dict:
    import numpy
    import rspmetric
    import scipy

    return {
        "package": rspmetric.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "records_sha256": digest,
    }


def measured_run(cls, args) -> tuple[dict, bool, Measurement]:
    setup = probe_setup(args.workload)
    workload = cls()
    checks = {}
    if hasattr(workload, "workers_check"):
        from workloads import unit_seed

        useed = unit_seed(args.workload, args.seed, WORKER_CHECK_UNIT)
        checks["worker_count_digests_match"] = workload.workers_check(useed)
    workload.warmup()
    m = measure(workload, args.seed, seconds=args.seconds)
    metrics = {
        "instances_per_s": (m.rate("calibrated"), "1/s"),
        "setup_s": (statistics.median(c.calibrated for c in setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    attempted, failed = m.total("instances"), m.total("failed")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"  instances_per_s: median over {len(m.clocks)} units, {attempted} instances; "
          f"uncalibrated {m.rate('raw'):.6g} 1/s")
    print(f"  setup_s: median over {len(setup)} fresh interpreters; "
          f"uncalibrated {statistics.median(c.raw for c in setup):.6g} s")
    print(f"failed_frac = {failed / attempted:.6g} fraction ({failed} of {attempted})")
    for name, ok in checks.items():
        print(f"check {name}: {ok}")
    return metrics, all(checks.values()), m


def traced_run(cls, args) -> tuple[dict, bool, Measurement]:
    from tracer import MODULES, SPAN_NAMES, Tracer

    workload = cls()
    workload.warmup()
    plain = measure(workload, args.seed, seconds=args.seconds / 2)
    del workload
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        workload = cls()
        setup_wall = time.perf_counter() - t0
        setup_spans = len(tracer.spans)
        traced = measure(workload, args.seed, units=len(plain.outcomes))
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.write(str(OUT / f"spans-{args.workload}-{args.seed}.csv"))

    # set-up spans happen once per run, loop spans once per instance
    instances = traced.total("instances")
    setup_calls, setup_ns = tracer.self_times(0, setup_spans)
    loop_calls, loop_ns = tracer.self_times(setup_spans)
    metrics = {}
    for name in SPAN_NAMES:
        calls = setup_calls[name] + loop_calls[name] / instances
        self_ms = (setup_ns[name] + loop_ns[name] / instances) / 1e6
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_ms"] = (self_ms, "ms")
    wall_ns = (setup_wall + traced.seconds("raw")) * 1e9
    for mod in MODULES:
        names = [n for n in SPAN_NAMES if n.startswith(mod + ".")]
        once = sum(setup_ns[n] for n in names)
        looped = sum(loop_ns[n] for n in names)
        metrics[f"{mod}.self_ms"] = ((once + looped / instances) / 1e6, "ms")
        metrics[f"{mod}.share"] = ((once + looped) / wall_ns, "fraction")
    metrics["heuristics.two_opt.exchanges"] = (traced.total("exchanges") / instances, "count")
    metrics["lab.eligible_frac"] = (traced.total("eligible") / instances, "fraction")
    overhead = traced.seconds("calibrated") / plain.seconds("calibrated") - 1
    metrics["trace.overhead_frac"] = (overhead, "fraction")

    same = plain.digest() == traced.digest()
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"traced units: {len(traced.outcomes)}, instances: {instances}, spans: {len(tracer.spans)}")
    print(f"check traced_records_match_untraced: {same}")
    return metrics, same and plain.total("failed") == 0, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="rspmetric benchmark: one workload per run")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "rspmetric" / "__init__.py").is_file():
        print(f"error: no rspmetric package under {SRC}", file=sys.stderr)
        return 2
    # pinned before numpy loads, and inherited by the set-up probes
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import workloads

    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        cls()
        print("ready", flush=True)
        return 0

    run = traced_run if args.trace else measured_run
    metrics, checks_ok, m = run(cls, args)
    attempted, failed = m.total("instances"), m.total("failed")
    print("provenance " + json.dumps(provenance(args, m.digest()), sort_keys=True))
    result = {
        "correct": checks_ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
