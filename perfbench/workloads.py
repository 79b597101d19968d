"""One iteration of one workload, in a fresh process.

``run.py`` starts this file once per set-up probe and once per measured
iteration, so no workload inherits another's heap, JIT program cache or
peak RSS::

    python3 perfbench/workloads.py JOB.json OUT.json SPAWNED_AT

``JOB.json`` holds the workload name, its generated inputs, a scratch
directory, ``trace`` (record spans) and ``setup_only`` (stop after
set-up).  ``SPAWNED_AT`` is the parent's ``time.monotonic()`` just
before it started this process (the clock is system-wide), so set-up
time includes interpreter start and imports.  ``OUT.json`` receives
the iteration's figures.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, List, Optional

import answers
from tracing import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent

#: The daemon's per-job wall-clock limit.  Cold jobs take <= 1.5 s; a
#: forked job worker that hangs (see README, "Known defect") is killed
#: at this limit and its job ends as ERROR, so the run still ends.
SERVE_JOB_TIMEOUT_S = 8.0


def _rss_mb(field: str, pid: str = "self") -> float:
    """``VmRSS``/``VmHWM`` of a process, in MB (0.0 once it has gone)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _peak_rss_mb() -> float:
    """Own peak RSS or the largest reaped descendant's, whichever is higher."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


class Iteration:
    """What one iteration measured and checked."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.latencies_ms: List[float] = []
        self.checks: List[Dict[str, Any]] = []
        self.states = 0
        self.layers: Dict[str, float] = {}
        self.first_call: Optional[float] = None
        self.last_verdict: Optional[float] = None
        self.serve_jobs: List[Dict[str, Any]] = []

    @contextmanager
    def job(self, name: str, **attrs: Any):
        """Time one job of the workload: a latency sample inside a span."""
        with self.tracer.span(name, **attrs) as span_attrs:
            t0 = time.perf_counter()
            if self.first_call is None:
                self.first_call = t0
            try:
                yield span_attrs
            finally:
                t1 = time.perf_counter()
                self.last_verdict = t1
                self.latencies_ms.append((t1 - t0) * 1000.0)

    def check(self, what: str, expected: Any, got: Any) -> bool:
        ok = expected == got
        self.checks.append({"what": what, "ok": ok,
                            "expected": expected, "got": got})
        return ok

    def add(self, layer: str, value: float) -> None:
        self.layers[layer] = self.layers.get(layer, 0.0) + value


# ---------------------------------------------------------------------------
# large-check: one million-state safety check
# ---------------------------------------------------------------------------

def setup_large_check(inputs, scratch):
    import repro.mc  # noqa: F401 - imports are set-up, not wall time
    from repro.systems.gas_station import build_gas_station

    return {"arch": build_gas_station(customers=3, selective_delivery=True)}


def run_large_check(ctx, it: Iteration, baseline_mb: float) -> None:
    from repro.core import ModelLibrary
    from repro.mc import StateGraph, check_safety

    library = ModelLibrary()
    tr = it.tracer
    with it.job("large-check.check_safety"):
        with tr.span("core.elaborate"):
            system = ctx["arch"].to_system(library, fused=True)
        with tr.span("jit.graph_build"):
            graph = StateGraph(system)
        with tr.span("engine.walk"):
            result = check_safety(graph)
    stats = result.stats
    want = answers.LARGE_CHECK
    it.check("large-check", want,
             {"ok": result.ok, "states": stats.states_stored,
              "transitions": stats.transitions})
    it.states += stats.states_stored
    _graph_layers(it, graph, library.stats.hits, library.stats.misses)
    it.add("engine.states", stats.states_stored)
    it.add("engine.transitions", stats.transitions)
    it.layers["explore.peak_frontier_bytes"] = stats.peak_frontier_bytes
    it.layers["engine.bytes_per_state"] = (
        (_peak_rss_mb() - baseline_mb) * 1024 * 1024 / stats.states_stored)


def _graph_layers(it: Iteration, graph, hits: int, misses: int) -> None:
    compiled = graph.compile_stats or {}
    it.add("jit.programs_compiled", compiled.get("programs_compiled", 0))
    it.add("jit.compile_cache_hits", compiled.get("digest_hits", 0))
    it.add("core.models_reused", hits)
    it.add("core.models_built", misses)


# ---------------------------------------------------------------------------
# design-session: verify, then re-check on the kept graph, six designs
# ---------------------------------------------------------------------------

def _fueled_0_bounded(v) -> bool:
    return v.global_("fueled_0") in (0, 1)


def _delivered_at_most_1(v) -> bool:
    return v.global_("delivered") <= 1


def _design_table():
    """design -> (architecture, invariants, deadlock?, goal, LTL, props)."""
    from repro.mc import global_prop
    from repro.systems.abp import abp_delivery_prop, build_abp
    from repro.systems.bridge import (
        BridgeConfig,
        bridge_safety_prop,
        build_at_most_n_bridge,
        build_exactly_n_bridge,
        crash_prop,
        fix_exactly_n_bridge,
    )
    from repro.systems.gas_station import all_fueled_prop, build_gas_station

    bounded = {"b": global_prop("b", _fueled_0_bounded, "fueled_0")}
    safe = {"safe": bridge_safety_prop()}
    cfg = BridgeConfig(trips=1)
    return {
        "gas-plain": (build_gas_station(2, selective_delivery=False), [],
                      True, all_fueled_prop(2), "G b", bounded),
        "gas-selective": (build_gas_station(2, selective_delivery=True), [],
                          True, all_fueled_prop(2), "G b", bounded),
        "bridge-initial": (build_exactly_n_bridge(cfg), [bridge_safety_prop()],
                           False, crash_prop(), "G safe", safe),
        "bridge-fixed": (fix_exactly_n_bridge(build_exactly_n_bridge(cfg)),
                         [bridge_safety_prop()], True, crash_prop(), "G safe",
                         safe),
        "bridge-atmostn": (build_at_most_n_bridge(cfg), [bridge_safety_prop()],
                           True, crash_prop(), "G safe", safe),
        "abp": (build_abp(messages=1, max_sends=2, receiver_polls=2), [],
                False, abp_delivery_prop(1),
                "G d", {"d": global_prop("d", _delivered_at_most_1,
                                         "delivered")}),
    }


def setup_design_session(inputs, scratch):
    import repro.core  # noqa: F401 - imports are set-up, not wall time
    import repro.mc  # noqa: F401
    return {"designs": _design_table()}


def run_design_session(ctx, it: Iteration, baseline_mb: float) -> None:
    from repro.core import ModelLibrary, verify_safety
    from repro.mc import (
        StateGraph,
        check_ltl,
        check_safety_por,
        count_states,
        find_state,
    )

    library = ModelLibrary()
    tr = it.tracer
    reachable = follow_up_misses = por_states = largest = 0
    sessions = ctx["inputs"]["sessions"]
    for entry in sessions[ctx["inputs"]["iteration"] % len(sessions)]:
        name = entry["design"]
        arch, invariants, deadlock, goal, formula, props = ctx["designs"][name]
        want = answers.DESIGN_ANSWERS[name]
        # One job per design: verify, then the follow-up questions.
        with it.job("design", design=name):
            with tr.span("verify_safety", design=name):
                with tr.span("core.elaborate"):
                    hits0, misses0 = library.stats.hits, library.stats.misses
                    system = arch.to_system(library, fused=True)
                with tr.span("jit.graph_build"):
                    graph = StateGraph(system)
                with tr.span("engine.walk"):
                    report = verify_safety(arch, invariants=invariants,
                                           check_deadlock=deadlock,
                                           engine=graph, keep_engine=True)
            _graph_layers(it, graph, library.stats.hits - hits0,
                          library.stats.misses - misses0)
            res = report.result
            it.check(f"{name}/verify", want["verify"],
                     {"ok": res.ok, "kind": res.kind,
                      "states": res.stats.states_stored,
                      "transitions": res.stats.transitions})
            frontier = res.stats.peak_frontier_bytes
            misses0 = graph.cache.misses
            for check in entry["checks"]:
                if check == "find_state":
                    with tr.span("explore.find_state", design=name):
                        trace = find_state(graph, goal)
                    got = {"trace_steps": None if trace is None
                           else len(trace)}
                elif check == "count_states":
                    with tr.span("explore.count_states", design=name):
                        stats = count_states(graph)
                    got = {"states": stats.states_stored,
                           "transitions": stats.transitions}
                    reachable += stats.states_stored
                    frontier = max(frontier, stats.peak_frontier_bytes)
                    it.add("engine.states", stats.states_stored)
                    it.add("engine.transitions", stats.transitions)
                elif check == "check_ltl":
                    with tr.span("ndfs.check_ltl", design=name):
                        result = check_ltl(graph, formula, props)
                    got = {"ok": result.ok,
                           "states": result.stats.states_stored}
                    it.add("ndfs.states", result.stats.states_stored)
                else:
                    with tr.span("por.check_safety_por", design=name):
                        result = check_safety_por(graph, invariants=invariants,
                                                  check_deadlock=deadlock)
                    got = {"ok": result.ok,
                           "states": result.stats.states_stored}
                    por_states += result.stats.states_stored
                it.check(f"{name}/{check}", want[check], got)
            follow_up_misses += graph.cache.misses - misses0
            it.layers["explore.peak_frontier_bytes"] = max(
                it.layers.get("explore.peak_frontier_bytes", 0), frontier)
        it.states += len(graph.store)
        largest = max(largest, len(graph.store))
        # The architect moves on: drop this design's graph before the
        # next one is built, so the peak does not depend on the order.
        del graph, system, report, res
    # Share of the reachable graphs that the follow-up checks found
    # already memoized (1.0: no follow-up expanded a state afresh).
    it.layers["engine.memo_reuse_ratio"] = 1.0 - follow_up_misses / reachable
    it.layers["por.reduction_ratio"] = por_states / reachable
    # An upper bound: the peak may hold the next design's graph too.
    it.layers["engine.bytes_per_state"] = (
        (_peak_rss_mb() - baseline_mb) * 1024 * 1024 / largest)


# ---------------------------------------------------------------------------
# sweep: design-space exploration over the SQLite store, then resilience
# ---------------------------------------------------------------------------

def setup_sweep(inputs, scratch):
    import repro.core  # noqa: F401 - imports are set-up, not wall time
    from repro.design import DesignSpace
    from repro.systems.abp import build_abp
    from repro.systems.bridge import BridgeConfig, bridge_design_space

    full = bridge_design_space(BridgeConfig(trips=1))
    base = inputs["sub_bases"][inputs["iteration"] % 2]
    sub = DesignSpace(full.name, bases=[b for b in full.bases if b[0] == base],
                      axes=full.axes, constraints=full.constraints,
                      fused=full.fused)
    cache_dir = tempfile.mkdtemp(prefix="sweep-cache-", dir=scratch)
    return {"full": full, "sub": sub, "cache_dir": cache_dir,
            "abp": build_abp(messages=1, max_sends=2, receiver_polls=2)}


def run_sweep(ctx, it: Iteration, baseline_mb: float) -> None:
    from repro.core import ModelLibrary, verify_resilience
    from repro.design import explore, open_cache
    from repro.systems.abp import abp_delivery_prop, abp_fault_scenarios
    from repro.systems.bridge import bridge_fault_scenarios, bridge_safety_prop

    library = ModelLibrary()
    steps = (("cold", ctx["sub"], 2, 0), ("edit", ctx["full"], 2, 2),
             ("warm", ctx["full"], 0, 4))
    for step, space, misses, hits in steps:
        with it.job(f"design.{step}") as span:
            report = explore(space, invariants=[bridge_safety_prop()],
                             faults=bridge_fault_scenarios(),
                             library=library, jobs=2,
                             cache=open_cache(ctx["cache_dir"],
                                              backend="sqlite"))
            span["cache"] = report.cache_stats
        it.add(f"design.{step}_s", it.latencies_ms[-1] / 1000.0)
        cache = report.cache_stats
        got = {"hits": cache["hits"], "misses": cache["misses"],
               "warnings": report.warnings,
               "variants": {r["variant"]: {"verdict": r["verdict"],
                                           "states": r["states"]}
                            for r in report.results}}
        want = {"hits": hits, "misses": misses, "warnings": [],
                "variants": {r["variant"]: answers.SWEEP_VARIANTS[r["variant"]]
                             for r in report.results}}
        it.check(f"explore/{step}", want, got)
        it.states += sum(r["states"] for r in report.results
                         if not r["cached"])
        if step != "cold":
            it.layers[f"design.{step}_hit_ratio"] = (
                cache["hits"] / (cache["hits"] + cache["misses"]))
    it.layers["design.worker_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0)
    it.add("core.models_reused", library.stats.hits)
    it.add("core.models_built", library.stats.misses)

    with it.job("resilience.verify_resilience"):
        report = verify_resilience(
            ctx["abp"], faults=abp_fault_scenarios(),
            goal=abp_delivery_prop(messages=1), check_deadlock=False,
            library=library, fused=True, jobs=2)
    it.layers["resilience.sweep_s"] = it.latencies_ms[-1] / 1000.0
    scenario_states = {s.name: s.safety.stats.states_stored
                       for s in report.scenarios}
    it.check("resilience/abp", answers.RESILIENCE | {"warnings": []},
             {"worst": report.worst, "warnings": report.warnings,
              "scenarios": {s.name: {"verdict": s.verdict,
                                     "states": scenario_states[s.name]}
                            for s in report.scenarios}})
    it.states += sum(scenario_states.values())
    it.layers["resilience.scenarios"] = len(report.scenarios)
    it.layers["resilience.states"] = sum(scenario_states.values())
    it.layers["resilience.serial_fallbacks"] = len(report.warnings)


def teardown_sweep(ctx) -> None:
    shutil.rmtree(ctx["cache_dir"], ignore_errors=True)


# ---------------------------------------------------------------------------
# serve-mix: two closed-loop HTTP clients against a `repro serve` daemon
# ---------------------------------------------------------------------------

def setup_serve_mix(inputs, scratch):
    from repro.serve import ServeClient
    from repro.serve.client import ServiceError  # noqa: F401

    cache_dir = tempfile.mkdtemp(prefix="serve-cache-", dir=scratch)
    log_path = os.path.join(cache_dir, "daemon.log")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(log_path, "w") as log:
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--cache-dir", cache_dir, "--workers", "2",
             "--job-timeout", str(SERVE_JOB_TIMEOUT_S)],
            env=env, stdout=log, stderr=subprocess.STDOUT)
    ctx = {"daemon": daemon, "cache_dir": cache_dir}
    try:
        deadline = time.monotonic() + 60.0
        client = None
        while True:
            if client is None:
                with open(log_path) as fh:
                    line = fh.readline()
                if "listening on http://" in line:
                    url = line.split("listening on ", 1)[1].split()[0]
                    client = ServeClient(url, timeout=60.0)
            if client is not None:
                try:
                    if client.health().get("ok"):
                        break
                except OSError:
                    pass
            if daemon.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("daemon never answered /v1/health")
            time.sleep(0.005)
    except BaseException:
        teardown_serve_mix(ctx)
        raise
    ctx["client"] = client
    return ctx


def run_serve_mix(ctx, it: Iteration, baseline_mb: float) -> None:
    from repro.serve.client import ServiceError

    client = ctx["client"]
    results: List[List[Dict[str, Any]]] = []

    def loop(jobs: List[Dict[str, Any]], out: List[Dict[str, Any]]) -> None:
        for job in jobs:
            with it.tracer.span("serve.job", spec=job["name"]):
                t0 = time.perf_counter()
                try:
                    view = client.submit(job["spec"], wait=True, timeout=120)
                    error = None
                except (ServiceError, OSError) as exc:
                    view, error = None, repr(exc)
                t1 = time.perf_counter()
            out.append({"name": job["name"], "t0": t0, "t1": t1,
                        "view": view, "error": error})

    threads = []
    for jobs in ctx["inputs"]["clients"]:
        out: List[Dict[str, Any]] = []
        results.append(out)
        threads.append(threading.Thread(target=loop, args=(jobs, out)))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    done = [r for out in results for r in out]
    it.first_call = min(r["t0"] for r in done)
    it.last_verdict = max(r["t1"] for r in done)
    warm, cold, queue_wait, run, overhead = [], [], [], [], []
    for r in done:
        latency = (r["t1"] - r["t0"]) * 1000.0
        it.latencies_ms.append(latency)
        view = r["view"]
        want = answers.SERVE_ANSWERS[r["name"]]["verdict"]
        got = r["error"] if view is None else view["verdict"]
        if not it.check(f"serve/{r['name']}", want, got) or view is None:
            if view is not None:
                it.checks[-1]["view"] = view
            continue
        lifecycle = view["finished_at"] - view["submitted_at"]
        overhead.append(latency - lifecycle * 1000.0)
        if view["cached"]:
            warm.append(latency)
        else:
            cold.append(latency)
            queue_wait.append((view["started_at"] - view["submitted_at"])
                              * 1000.0)
            run.append((view["finished_at"] - view["started_at"]) * 1000.0)
            r["computed"] = True
        it.serve_jobs.append({"name": r["name"], "cached": view["cached"],
                              "latency_ms": latency,
                              "lifecycle_ms": lifecycle * 1000.0})

    # After the loop: the stored state counts of every computed job, and
    # the service's own counters.
    for r in done:
        if not r.get("computed"):
            continue
        try:
            states = client.report(
                r["view"]["job_id"])["run"]["statistics"]["states_stored"]
        except ServiceError as exc:
            states = repr(exc)
        if it.check(f"serve/{r['name']}/states",
                    answers.SERVE_ANSWERS[r["name"]]["states"], states):
            it.states += states
    counters = client.stats()["counters"]
    unique = len({json.dumps(r["view"]["spec"], sort_keys=True)
                  for r in done if r["view"] is not None})
    it.check("serve/counters",
             {"computed": unique, "cache_hits": len(done) - unique,
              "coalesced": 0, "failed": 0},
             {k: counters[k] for k in ("computed", "cache_hits", "coalesced",
                                       "failed")})
    it.layers.update({
        "serve.submit_ms": statistics.median(overhead) if overhead else 0.0,
        "serve.warm_p50_ms": statistics.median(warm) if warm else 0.0,
        "serve.cold_p50_ms": statistics.median(cold) if cold else 0.0,
        "serve.queue_wait_ms": statistics.median(queue_wait) if cold else 0.0,
        "serve.run_ms": statistics.median(run) if cold else 0.0,
        "serve.computed": counters["computed"],
        "serve.cache_hits": counters["cache_hits"],
        "serve.coalesced": counters["coalesced"],
        "serve.daemon_rss_mb": _rss_mb("VmHWM", str(ctx["daemon"].pid)),
        "serve.failed_jobs": counters["failed"],
    })


def teardown_serve_mix(ctx) -> None:
    daemon = ctx["daemon"]
    if daemon.poll() is None:
        daemon.send_signal(signal.SIGTERM)
        try:
            daemon.wait(timeout=60)
        except subprocess.TimeoutExpired:
            daemon.kill()
            daemon.wait()
    ctx["daemon_exit"] = daemon.returncode
    shutil.rmtree(ctx["cache_dir"], ignore_errors=True)


WORKLOADS: Dict[str, tuple] = {
    "large-check": (setup_large_check, run_large_check, None),
    "design-session": (setup_design_session, run_design_session, None),
    "sweep": (setup_sweep, run_sweep, teardown_sweep),
    "serve-mix": (setup_serve_mix, run_serve_mix, teardown_serve_mix),
}


def main(job_path: str, out_path: str, spawned_at: float) -> int:
    job = json.loads(Path(job_path).read_text())
    setup, run, teardown = WORKLOADS[job["workload"]]
    inputs = dict(job["inputs"], iteration=job["iteration"])
    ctx = setup(inputs, job["scratch"])
    ctx["inputs"] = inputs
    setup_s = time.monotonic() - spawned_at
    baseline_mb = _rss_mb("VmRSS")
    out: Dict[str, Any] = {"setup_s": setup_s, "baseline_rss_mb": baseline_mb}
    tracer = Tracer(job["trace_id"]) if job["trace"] else NullTracer()
    try:
        if not job["setup_only"]:
            it = Iteration(tracer)
            run(ctx, it, baseline_mb)
            out.update(wall_s=it.last_verdict - it.first_call,
                       latencies_ms=it.latencies_ms, checks=it.checks,
                       states=it.states, layers=it.layers)
            if it.serve_jobs:
                out["serve_jobs"] = it.serve_jobs
    finally:
        tracer.close()
        if teardown is not None:
            teardown(ctx)
    if "daemon_exit" in ctx and not job["setup_only"]:
        out["checks"].append({"what": "serve/drain", "ok":
                              ctx["daemon_exit"] == 0, "expected": 0,
                              "got": ctx["daemon_exit"]})
    out["peak_rss_mb"] = _peak_rss_mb()
    if job["setup_only"]:
        Path(out_path).write_text(json.dumps(out))
        return 0
    layers = out["layers"]
    reused = layers.pop("core.models_reused", 0)
    built = layers.pop("core.models_built", 0)
    if reused + built:
        layers["core.model_reuse_ratio"] = reused / (reused + built)
    if tracer.enabled:
        layers.update({name: tracer.total(span) for name, span in (
            ("core.elaborate_s", "core.elaborate"),
            ("jit.graph_build_s", "jit.graph_build"),
            ("engine.walk_s", "engine.walk"),
            ("ndfs.check_s", "ndfs.check_ltl"),
            ("por.check_s", "por.check_safety_por"))})
        layers["explore.reuse_s"] = (tracer.total("explore.find_state")
                                     + tracer.total("explore.count_states"))
        layers["gc.pause_s"] = tracer.gc_pause_s()
        layers["gc.gen2_collections"] = tracer.gen2_collections
        out["spans"] = tracer.spans
        out["self_times"] = tracer.self_times()
        out["gc_by_span"] = tracer.gc_by_span()
    Path(out_path).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    code = main(sys.argv[1], sys.argv[2], float(sys.argv[3]))
    # Every figure is written by now.  Skip interpreter teardown, which
    # frees large-check's million-state heap object by object and would
    # add seconds per iteration to the run without being measured.
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)
