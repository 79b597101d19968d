"""Sharded frontier exploration: BFS waves fanned out over worker processes.

The old parallel story forked *whole verification scenarios* through a
process pool — each worker rebuilt the system, re-explored the state
space from scratch, and threw its graph away.  On the bench machine
(1 CPU) that was pure overhead, and even on real multi-core boxes the
duplicated exploration capped the achievable speedup.

This module parallelizes one level down, inside a single exploration:

* the **parent** owns the interned :class:`~repro.mc.engine.StateStore`
  and :class:`~repro.mc.engine.TransitionCache` — exactly the shared
  artifacts every checker reuses;
* **workers** are stateless expanders: each holds a private compiled
  interpreter (built once, from the pickled system) and maps chunks of
  raw state tuples to successor lists;
* the frontier advances in BFS *waves*: the parent chunks the current
  wave across the pool, interns the returned targets (deterministic
  chunk order keeps id assignment reproducible), fills the transition
  cache, and the newly interned states form the next wave.

Workers never intern, so there is no id-remapping merge step and no
lock contention on the store; the hand-off unit is a chunk of frontier
states, per the paper's observation that design-iteration verification
is dominated by re-exploration, not by coordination.

When parallelism cannot pay — one CPU, an unpicklable system, a broken
pool — :func:`shard_explore` degrades to the serial
:meth:`~repro.mc.engine.StateGraph.explore` and says so in the returned
:class:`ShardReport` (``jobs == 1`` plus a human-readable ``note``).
Set ``REPRO_FORCE_PARALLEL=1`` to override the CPU-count gate (used by
the equivalence tests, which must exercise the pool even on 1-CPU CI
runners).

The filled graph is indistinguishable from a serially explored one:
successor lists are computed by the same deterministic interpreter, so
every downstream checker — safety, liveness, POR, resilience — sees
identical transitions, verdicts, and statistics (pinned by
``tests/mc/test_shard_explore.py``).
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Union

from ..psl.interp import Interpreter
from ..psl.state import State
from ..psl.system import System
from .engine import StateGraph, as_graph

__all__ = ["ShardReport", "parallel_worthwhile", "shard_explore"]

#: Frontier states handed to a worker per task.  Big enough to amortize
#: pickling, small enough to keep the pool busy on ragged waves.
DEFAULT_CHUNK = 256


def parallel_worthwhile() -> bool:
    """Whether fanning work out over processes can possibly pay here.

    On a single-CPU machine a worker pool only adds serialization and
    scheduling overhead, so parallel paths should degrade to serial —
    audibly, not silently.  ``REPRO_FORCE_PARALLEL=1`` overrides the
    gate (for equivalence tests on 1-CPU CI runners).
    """
    if os.environ.get("REPRO_FORCE_PARALLEL"):
        return True
    return (os.cpu_count() or 1) > 1


@dataclass
class ShardReport:
    """Outcome of one sharded exploration.

    ``jobs`` is the *effective* worker count — 1 means the run degraded
    to the serial path, and ``note`` says why.  ``waves`` counts BFS
    rounds (0 on the serial path).
    """

    states: int
    jobs: int
    waves: int = 0
    note: Optional[str] = None


# Per-worker interpreter, built once by the pool initializer.  Module
# global because ProcessPoolExecutor initializers cannot return state.
_WORKER_INTERP: Optional[Interpreter] = None


def _init_worker(payload: bytes) -> None:
    global _WORKER_INTERP
    from ..psl.jit import make_interpreter
    _WORKER_INTERP = make_interpreter(pickle.loads(payload))


def _expand_chunk(states: List[tuple]) -> List[List[tuple]]:
    """Map raw state tuples to successor triples (label, target, viol)."""
    interp = _WORKER_INTERP
    mk = State._make
    transitions = interp.transitions
    return [
        [(t.label, t.target, t.violation) for t in transitions(mk(s))]
        for s in states
    ]


def shard_explore(
    target: Union[System, Interpreter, StateGraph],
    jobs: int = 2,
    max_states: Optional[int] = None,
    chunk: int = DEFAULT_CHUNK,
    reporter=None,
) -> ShardReport:
    """Expand the reachable graph with a sharded frontier.

    Fills *target*'s shared store and transition cache exactly like
    :meth:`StateGraph.explore`, but fans each BFS wave out over
    ``jobs`` worker processes.  The graph stays lazily completable:
    ``max_states`` stops scheduling new waves once the store reaches
    the cap (the wave in flight may finish slightly past it — its
    results are valid cache entries either way).

    Degrades to the serial path (with an explanatory ``note``) when
    ``jobs <= 1``, when only one CPU is available (see
    :func:`parallel_worthwhile`), when the system does not pickle, or
    when the pool fails mid-run — partial results are kept, the serial
    sweep finishes the remainder, and the answer is identical.
    """
    graph = as_graph(target)

    def serial(note: Optional[str]) -> ShardReport:
        n = graph.explore(max_states=max_states, reporter=reporter)
        return ShardReport(states=n, jobs=1, note=note)

    if jobs <= 1:
        return serial(None)
    if not parallel_worthwhile():
        return serial(
            f"sharded exploration degraded to a serial run: only "
            f"{os.cpu_count() or 1} CPU is available, so a worker pool "
            f"is pure overhead (set REPRO_FORCE_PARALLEL=1 to override)")
    try:
        payload = pickle.dumps(graph.system)
    except Exception:
        return serial(
            "sharded exploration degraded to a serial run: the system "
            "does not pickle across the worker pool")

    obs = None
    if reporter is not None:
        from ..obs.events import RunInstrument
        obs = RunInstrument(reporter, "engine-explore", graph,
                            max_states=max_states)

    store = graph.store
    cache = graph.cache
    store_states = store._states
    intern = store.intern
    pending = [sid for sid in range(len(store_states))
               if not cache.is_expanded(sid)]
    waves = 0
    expanded = len(cache)
    ntrans = 0
    workers = max(2, min(jobs, os.cpu_count() or jobs))

    def finish(note: Optional[str]) -> ShardReport:
        if obs is not None:
            from .result import Statistics
            stats = Statistics(states_stored=len(store_states),
                               states_expanded=expanded,
                               transitions=ntrans)
            stats.apply_compile_stats(graph.compile_stats)
            stats.elapsed_seconds = obs.elapsed()
            obs.finish(ok=True, stats=stats)
        return ShardReport(states=len(store_states), jobs=workers,
                           waves=waves, note=note)

    try:
        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=_init_worker,
                                 initargs=(payload,)) as pool:
            while pending:
                if max_states is not None and \
                        len(store_states) >= max_states:
                    return finish("state budget reached; graph remains "
                                  "lazily completable")
                chunks = [pending[i:i + chunk]
                          for i in range(0, len(pending), chunk)]
                watermark = len(store_states)
                results = pool.map(
                    _expand_chunk,
                    [[tuple(store_states[sid]) for sid in c]
                     for c in chunks])
                for c, result in zip(chunks, results):
                    for sid, succs in zip(c, result):
                        cache.record(
                            sid,
                            [label for label, _, _ in succs],
                            [intern(tgt) for _, tgt, _ in succs],
                            {i: violation
                             for i, (_, _, violation) in enumerate(succs)
                             if violation})
                        expanded += 1
                        ntrans += len(succs)
                        if obs is not None:
                            obs.tick(len(store_states), expanded, ntrans,
                                     len(pending))
                waves += 1
                pending = list(range(watermark, len(store_states)))
    except Exception:
        # A broken pool (worker OOM, interpreter shutdown, ...) is not a
        # verification failure: cached waves are valid, the serial path
        # finishes the remainder, and the verdict cannot change.
        graph.explore(max_states=max_states)
        expanded = len(cache)
        ntrans = sum(cache.count)  # 0 for every unexpanded state
        workers = 1
        return finish("sharded exploration degraded to a serial run: "
                      "the worker pool failed mid-exploration")
    return finish(None)
