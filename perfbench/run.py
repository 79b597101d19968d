#!/usr/bin/env python3
"""The repository benchmark: from a million-state check to the served path.

Run one workload from the root of a checkout::

    python3 perfbench/run.py --workload large-check --seed 1 --seconds 10 --trace 0

Workloads: ``large-check``, ``design-session``, ``sweep``, ``serve-mix``
(see ``perfbench/README.md``).  Each measured iteration and each set-up
probe runs in a fresh process (``workloads.py``).  ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` alternates untraced and traced
iterations and prints the per-layer metrics, including the tracing
overhead.  The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every verdict and state count is checked against ``answers.py``; a
mismatch counts as a failed operation and the exit code is 1.  Inputs,
host stamps, per-iteration figures and spans are written under
``.perfbench-runs/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

from inputs import WORKLOADS, digest, make_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench-runs"

#: Set-up-only processes per run; with each iteration's own set-up they
#: give the median ``setup_s``.
SETUP_PROBES = 4
#: Iterations per step: sweep alternates its sub-space base, so it runs
#: in pairs and every run holds both bases whatever the seed.
STEP = {"large-check": 1, "design-session": 1, "sweep": 2, "serve-mix": 1}
#: Fewest iterations per run, whatever ``--seconds`` says: medians need
#: several, and serve-mix rounds are short.  A traced run counts each
#: untraced-and-traced pair as two.
MIN_ITERATIONS = {"large-check": 2, "design-session": 5, "sweep": 2,
                  "serve-mix": 3}
#: No iteration starts if it could end after this many seconds of the run.
DEADLINE_S = 150.0

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "states_per_s": "states/s",
    "peak_rss_mb": "MB", "jobs_per_s": "jobs/s", "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
}

PER_LAYER = {
    "jit.graph_build_s": "s", "jit.programs_compiled": "count",
    "jit.compile_cache_hits": "count",
    "core.elaborate_s": "s", "core.model_reuse_ratio": "ratio",
    "engine.walk_s": "s", "engine.states": "count",
    "engine.transitions": "count", "engine.bytes_per_state": "B/state",
    "engine.memo_reuse_ratio": "ratio",
    "explore.reuse_s": "s", "explore.peak_frontier_bytes": "B",
    "ndfs.check_s": "s", "ndfs.states": "count",
    "por.check_s": "s", "por.reduction_ratio": "ratio",
    "gc.pause_s": "s", "gc.gen2_collections": "count",
    "design.cold_s": "s", "design.edit_s": "s", "design.warm_s": "s",
    "design.edit_hit_ratio": "ratio", "design.warm_hit_ratio": "ratio",
    "design.worker_rss_mb": "MB",
    "resilience.sweep_s": "s", "resilience.scenarios": "count",
    "resilience.states": "count", "resilience.serial_fallbacks": "count",
    "serve.submit_ms": "ms", "serve.warm_p50_ms": "ms",
    "serve.cold_p50_ms": "ms", "serve.queue_wait_ms": "ms",
    "serve.run_ms": "ms", "serve.computed": "count",
    "serve.cache_hits": "count", "serve.coalesced": "count",
    "serve.daemon_rss_mb": "MB", "serve.failed_jobs": "count",
    "trace.overhead_pct": "%",
}


class ChildFailed(RuntimeError):
    pass


def host_stamp() -> Dict[str, Any]:
    """CPU count, Python version and current CPU contention."""
    stamp: Dict[str, Any] = {"cpu_count": os.cpu_count(),
                             "python": platform.python_version(),
                             "loadavg": list(os.getloadavg())}
    try:
        stamp["cpu_pressure"] = (
            Path("/proc/pressure/cpu").read_text().splitlines()[0])
    except (OSError, IndexError):
        pass
    return stamp


class Runner:
    """Starts one fresh process per probe or iteration of a run."""

    def __init__(self, workload: str, inputs: Dict[str, Any],
                 run_dir: Path, started: float) -> None:
        self.workload = workload
        self.inputs = inputs
        self.run_dir = run_dir
        self.scratch = run_dir / "tmp"
        self.scratch.mkdir(parents=True)
        self.started = started
        self.count = 0

    def child(self, iteration: int, trace: bool,
              setup_only: bool = False) -> Dict[str, Any]:
        tag = f"{self.count:03d}"
        self.count += 1
        job = {"workload": self.workload, "inputs": self.inputs,
               "iteration": iteration, "trace": trace,
               "setup_only": setup_only, "scratch": str(self.scratch),
               "trace_id": f"{self.run_dir.name}/{tag}"}
        job_path = self.run_dir / f"{tag}.job.json"
        out_path = self.run_dir / f"{tag}.out.json"
        log_path = self.run_dir / f"{tag}.log"
        job_path.write_text(json.dumps(job))
        remaining = 175.0 - (time.monotonic() - self.started)
        with open(log_path, "w") as log:
            spawned_at = time.monotonic()
            # A session of its own, so a timeout stops the child's
            # daemon and workers along with it.
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "workloads.py"),
                 str(job_path), str(out_path), repr(spawned_at)],
                stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
                start_new_session=True)
            try:
                proc.wait(timeout=max(remaining, 1.0))
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise ChildFailed(f"{tag} ran past the run's time limit")
        if proc.returncode != 0:
            tail = log_path.read_text()[-2000:]
            raise ChildFailed(f"{tag} exited {proc.returncode}:\n{tail}")
        return json.loads(out_path.read_text())


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _p90(values: List[float]) -> float:
    # Inclusive: with few samples (four sweep jobs per iteration) the
    # estimate stays between the samples instead of extrapolating.
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(setups: List[float], iters: List[Dict[str, Any]]
               ) -> Dict[str, float]:
    # Latency percentiles are taken per iteration, then the median over
    # iterations.  Each iteration runs the same fixed set of jobs, so a
    # pooled quantile would sit on the few samples of one or two jobs
    # and move with whichever iteration the host slowed; the median of
    # per-iteration percentiles does not.
    latencies = [it["latencies_ms"] for it in iters]
    return {
        "setup_s": _median(setups),
        "wall_s": _median([it["wall_s"] for it in iters]),
        "states_per_s": _median([it["states"] / it["wall_s"] for it in iters]),
        "peak_rss_mb": _median([it["peak_rss_mb"] for it in iters]),
        "jobs_per_s": _median([len(it["latencies_ms"]) / it["wall_s"]
                               for it in iters]),
        "latency_p50_ms": _median([_median(x) for x in latencies]),
        "latency_p90_ms": _median([_p90(x) for x in latencies]),
    }


def per_layer(traced: List[Dict[str, Any]],
              untraced: List[Dict[str, Any]]) -> Dict[str, float]:
    out = {name: _median([it["layers"].get(name, 0.0) for it in traced])
           for name in PER_LAYER}
    plain = _median([it["wall_s"] for it in untraced])
    out["trace.overhead_pct"] = (
        (_median([it["wall_s"] for it in traced]) - plain) / plain * 100.0)
    return out


def _line(name: str, value: float, unit: str, note: str = "") -> str:
    return f"  {name:30s} {value:14.6g} {unit:9s}{note}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2

    inputs = make_inputs(args.workload, args.seed)
    input_digest = digest(inputs)
    run_dir = RUNS / (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                      f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    run_dir.mkdir(parents=True)
    (run_dir / "inputs.json").write_text(json.dumps(
        {"digest": input_digest, "seed": args.seed, "inputs": inputs},
        indent=1))
    host_before = host_stamp()

    runner = Runner(args.workload, inputs, run_dir, started)
    untraced: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    try:
        setups = [runner.child(0, False, setup_only=True)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        step = STEP[args.workload]
        iteration = 0
        measuring = time.monotonic()
        while True:
            t0 = time.monotonic()
            for _ in range(step):
                if args.trace:
                    # Alternate which side goes first, so drift in the
                    # host's load falls on both sides alike.
                    order = (False, True) if iteration % 2 == 0 else (True, False)
                    for trace in order:
                        (traced if trace else untraced).append(
                            runner.child(iteration, trace))
                else:
                    untraced.append(runner.child(iteration, False))
                iteration += 1
            now = time.monotonic()
            done = len(untraced) + len(traced)
            if (now - measuring >= args.seconds
                    and done >= MIN_ITERATIONS[args.workload]):
                break
            if now - started + (now - t0) * 1.2 > DEADLINE_S:
                break
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.scratch, ignore_errors=True)
    host_after = host_stamp()

    iters = untraced + traced
    setups += [it["setup_s"] for it in iters]
    checks = [c for it in iters for c in it["checks"]]
    # Same seed, same inputs: regenerate and compare digests.
    again = digest(make_inputs(args.workload, args.seed))
    checks.append({"what": "inputs/digest", "expected": input_digest,
                   "got": again, "ok": again == input_digest})
    failed = [c for c in checks if not c["ok"]]
    e2e = end_to_end(setups, untraced)
    layers = per_layer(traced, untraced) if args.trace else {}

    result = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "digest": input_digest,
              "host_before": host_before, "host_after": host_after,
              "setup_samples": setups, "end_to_end": e2e,
              "per_layer": layers, "attempted": len(checks),
              "failed": failed, "iterations": [
                  {k: v for k, v in it.items() if k not in ("spans",)}
                  for it in iters]}
    (run_dir / "result.json").write_text(json.dumps(result, indent=1))
    if traced:
        (run_dir / "spans.json").write_text(json.dumps(
            [s for it in traced for s in it["spans"]]))

    latencies = sum(len(it["latencies_ms"]) for it in untraced)
    print(f"perfbench {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"inputs sha256:{input_digest[:16]}  results {run_dir}")
    for when, stamp in (("before", host_before), ("after", host_after)):
        print(f"  host {when}: {stamp}")
    print(f"  {len(untraced)} untraced, {len(traced)} traced iterations; "
          f"{len(setups)} set-ups; {latencies} latency samples")
    for name, unit in END_TO_END.items():
        print(_line(name, e2e[name], unit))
    print(_line("failed_frac", len(failed) / len(checks), "ratio",
                f" ({len(failed)} of {len(checks)} operations)"))
    for name in layers:
        print(_line(name, layers[name], PER_LAYER[name]))
    for c in failed:
        print(f"  FAILED {c['what']}: expected {c['expected']!r}, "
              f"got {c['got']!r}", file=sys.stderr)

    metrics = layers if args.trace else e2e
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": not failed, "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
