"""Exhaustive safety exploration: assertions, invariants, deadlocks.

This is the reproduction's stand-in for a SPIN safety run.  It performs a
breadth-first search over the reachable state space of a PSL system,
checking:

* **embedded assertions** — ``Assert`` statements inside process bodies
  (reported when the asserting transition executes);
* **invariants** — named :class:`~repro.mc.props.Prop` predicates that
  must hold in every reachable state;
* **deadlock** — a state with no outgoing transitions in which at least
  one process is not at a valid end location (Promela's "invalid end
  state").

BFS yields shortest counterexamples, mirroring SPIN's ``-i`` iterative
shortening in spirit.  Exploration stops at the first violation unless
``stop_at_first=False``, in which case all violations are collected and
the full space is swept.

All entry points accept an exploration budget (``max_states``,
``max_seconds``).  An exhausted budget stops the sweep where it is and
returns a *partial* result flagged ``incomplete=True``; passing
``raise_on_limit=True`` restores the historical hard
:class:`StateLimitExceeded` stop.

Every entry point also accepts a shared
:class:`~repro.mc.engine.StateGraph` in place of a system or
interpreter.  The graph memoizes successor generation, so running
several checks against the same graph pays the exploration cost once —
the state-space analogue of the paper's model reuse.
"""

from __future__ import annotations

import gc
import sys
import time
from array import array
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, List, Optional, Sequence, Union

from ..obs.events import RunInstrument
from ..obs.reporters import Reporter
from ..psl.interp import Interpreter
from ..psl.state import State
from ..psl.system import System
from .budget import (  # noqa: F401  (re-exported for backward compatibility)
    Budget,
    BudgetExceeded,
    StateLimitExceeded,
    TimeLimitExceeded,
)
from .engine import UNEXPANDED, StateGraph, as_graph
from .props import Prop, StateView
from .result import (
    Statistics,
    Trace,
    TraceStep,
    VerificationResult,
    VIOLATION_ASSERTION,
    VIOLATION_DEADLOCK,
    VIOLATION_INVARIANT,
)

#: Any object the safety checkers can explore.
Target = Union[System, Interpreter, StateGraph]


@dataclass
class SafetyReport:
    """Full report of a safety sweep (possibly multiple violations).

    ``incomplete``/``budget_exhausted`` mirror the flags on
    :class:`~repro.mc.result.VerificationResult`: set when the sweep
    stopped on an exhausted exploration budget.
    """

    results: List[VerificationResult] = field(default_factory=list)
    stats: Statistics = field(default_factory=Statistics)
    incomplete: bool = False
    budget_exhausted: Optional[str] = None

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results) if self.results else True


@contextmanager
def _gc_paused():
    """Pause the cyclic GC for the duration of a dense cold walk.

    States and memo rows are immutable tuples — acyclic by construction
    — so plain reference counting reclaims every dropped object; all the
    cyclic collector does during a walk is repeatedly re-scan the
    steadily growing retained graph (measured at ~30% of a cold sweep
    on the gas-station workload).  On exit the walk's survivors are
    moved straight into the oldest generation (``gc.freeze`` then
    ``gc.unfreeze``, both O(1)) before collection resumes: re-enabled
    with them still young, the first young collection after a
    million-state walk would traverse every one of them (seconds, billed
    to whatever runs next).  Full collections still visit the oldest
    generation, so user predicates that do build cycles are still
    reclaimed — just after the sweep instead of during it.  If the
    caller has frozen objects itself (say, before forking), the
    promotion is skipped: ``gc.unfreeze`` would thaw those too.
    """
    was_enabled = gc.isenabled()
    promote = gc.get_freeze_count() == 0
    if was_enabled:
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            if promote:
                gc.freeze()
                gc.unfreeze()
            gc.enable()


def _sample_frontier(stats: Statistics, queue: "deque[int]") -> None:
    """Record the frontier's approximate byte footprint at a new peak."""
    size = sys.getsizeof(queue)
    if queue:
        size += len(queue) * sys.getsizeof(queue[0])
    if size > stats.peak_frontier_bytes:
        stats.peak_frontier_bytes = size


def _sample_dense_frontier(stats: Statistics, max_frontier: int) -> None:
    """Record the footprint a deque frontier of *max_frontier* ids has.

    The dense walks keep their frontier as an id range, not a deque;
    this reports what the general loop's deque would have held at that
    peak, sized with one shared int (every int id in a deque costs the
    same ``sys.getsizeof``) instead of building the ids themselves.
    """
    if max_frontier > 1:
        _sample_frontier(stats, deque(repeat(0, max_frontier)))


#: Parent-map slot of a state not yet discovered.
_UNSEEN = -1


def _grow(parents: "array[int]", n: int) -> None:
    """Extend a parent map to cover state ids below *n* (as unseen)."""
    if len(parents) < n:
        parents.extend(repeat(_UNSEEN, n - len(parents)))


def _rebuild_trace(
    graph: StateGraph,
    initial: int,
    violating: int,
    parents: Sequence[int],
    extra: Optional[TraceStep] = None,
) -> Trace:
    """The BFS path to *violating*, from a map of parent state ids.

    Each step's label is the first edge of the parent's memoized row
    that targets the child — the edge the breadth-first walk discovered
    the child through — so the trace matches the walk label for label.
    """
    path: List[int] = []
    cur = violating
    while cur != initial:
        path.append(cur)
        cur = parents[cur]
    path.reverse()
    label_of = graph.cache.label_of
    steps: List[TraceStep] = []
    prev = initial
    for cur in path:
        steps.append(TraceStep(label_of(prev, cur), graph.state(cur)))
        prev = cur
    if extra is not None:
        steps.append(extra)
    return Trace(initial=graph.state(initial), steps=steps)


def check_safety(
    target: Target,
    invariants: Sequence[Prop] = (),
    check_deadlock: bool = True,
    check_assertions: bool = True,
    max_states: Optional[int] = None,
    max_seconds: Optional[float] = None,
    stop_at_first: bool = True,
    raise_on_limit: bool = False,
    reporter: Optional[Reporter] = None,
    stop: Optional[Callable[[], bool]] = None,
) -> VerificationResult:
    """Run a safety sweep and return the first (or only) result.

    When ``stop_at_first`` is false and several violations exist, the
    returned result is the first one found; use :func:`sweep_safety` for
    the full report.  ``reporter`` receives the run's engine events
    (see :mod:`repro.obs`).  ``stop`` is polled like a budget limit so
    an external interrupt (Ctrl-C in an exploration) yields a graceful
    partial result.
    """
    report = sweep_safety(
        target,
        invariants=invariants,
        check_deadlock=check_deadlock,
        check_assertions=check_assertions,
        max_states=max_states,
        max_seconds=max_seconds,
        stop_at_first=stop_at_first,
        raise_on_limit=raise_on_limit,
        reporter=reporter,
        stop=stop,
    )
    for r in report.results:
        if not r.ok:
            return r
    if report.incomplete:
        return VerificationResult(
            ok=True,
            message=(
                "exploration stopped early "
                f"({report.budget_exhausted} exhausted); "
                "no violations found so far"
            ),
            stats=report.stats,
            property_text=_property_text(invariants, check_deadlock),
            incomplete=True,
            budget_exhausted=report.budget_exhausted,
        )
    return VerificationResult(
        ok=True,
        message="no assertion, invariant, or deadlock violations",
        stats=report.stats,
        property_text=_property_text(invariants, check_deadlock),
    )


def _property_text(invariants: Sequence[Prop], check_deadlock: bool) -> str:
    parts = [f"invariant {p.name}" for p in invariants]
    if check_deadlock:
        parts.append("deadlock-freedom")
    return ", ".join(parts) if parts else "assertions"


def sweep_safety(
    target: Target,
    invariants: Sequence[Prop] = (),
    check_deadlock: bool = True,
    check_assertions: bool = True,
    max_states: Optional[int] = None,
    max_seconds: Optional[float] = None,
    stop_at_first: bool = True,
    raise_on_limit: bool = False,
    reporter: Optional[Reporter] = None,
    stop: Optional[Callable[[], bool]] = None,
) -> SafetyReport:
    """Breadth-first safety exploration; see :func:`check_safety`."""
    graph = as_graph(target)
    system = graph.system
    budget = Budget(max_states=max_states, max_seconds=max_seconds,
                    raise_on_limit=raise_on_limit, stop=stop)
    start = budget.started_at
    obs = None if reporter is None else RunInstrument(
        reporter, "safety-bfs", graph, max_states=max_states,
        max_seconds=max_seconds, started_at=start)

    initial = graph.initial_id
    queue: deque[int] = deque([initial])
    stats = Statistics(states_stored=1, max_frontier=1)
    stats.apply_compile_stats(graph.compile_stats)
    _sample_frontier(stats, queue)
    report = SafetyReport(stats=stats)

    # Statistics counters live in plain locals while the sweep runs —
    # dataclass attribute read-modify-write is measurable at ~100k
    # transitions/s — and ``flush`` publishes them whenever the stats
    # object escapes: on a violation, a budget stop, or completion.
    n_stored = stats.states_stored
    n_expanded = stats.states_expanded
    n_trans = stats.transitions
    max_frontier = stats.max_frontier

    def flush() -> None:
        stats.states_stored = n_stored
        stats.states_expanded = n_expanded
        stats.transitions = n_trans
        stats.max_frontier = max_frontier

    def done() -> SafetyReport:
        flush()
        if obs is not None:
            if report.budget_exhausted is not None:
                obs.budget(report.budget_exhausted, stats.states_stored)
            obs.finish(ok=report.ok, stats=stats,
                       incomplete=report.incomplete)
        return report

    def fail(kind: str, message: str, trace: Trace) -> bool:
        """Record a violation; return True if exploration should stop."""
        flush()
        stats.elapsed_seconds = time.perf_counter() - start
        report.results.append(
            VerificationResult(
                ok=False,
                kind=kind,
                message=message,
                trace=trace,
                stats=stats,
                property_text=_property_text(invariants, check_deadlock),
            )
        )
        if obs is not None:
            obs.counterexample(kind=kind, message=message,
                               trace_length=len(trace.steps))
        return stop_at_first

    # Check invariants on the initial state before exploring.
    for p in invariants:
        if not p.evaluate(system, graph.state(initial)):
            if fail(
                VIOLATION_INVARIANT,
                f"invariant {p.name!r} violated in the initial state",
                Trace(initial=graph.state(initial)),
            ):
                stats.elapsed_seconds = time.perf_counter() - start
                return done()

    # Hot-loop bindings: the BFS below visits every memoized edge of
    # every reachable state, so attribute lookups and delegation frames
    # are hoisted out of the loop and the memo's flat rows are read
    # directly, slot by slot (see TransitionCache).
    # ``unbounded`` budgets skip the per-state poll entirely —
    # ``Budget.exceeded`` can never fire without limits.  Parent maps
    # hold bare state ids; traces recover labels from the memo rows
    # (see :func:`_rebuild_trace`).
    cache = graph.cache
    expand = cache.expand
    starts, counts, tgt = cache.start, cache.count, cache.tgt
    violations = cache.violations
    store_states = graph.store._states
    state_of = graph.store.state
    unbounded = budget.unbounded
    inv_fns = [(p, p.fn) for p in invariants]
    popleft = queue.popleft
    push = queue.append

    def assertion(sid: int, index: int, message: str) -> bool:
        labels, targets = graph.row(sid)
        step = TraceStep(labels[index], state_of(targets[index]))
        trace = _rebuild_trace(graph, initial, sid, parents, extra=step)
        return fail(VIOLATION_ASSERTION, message, trace)

    def deadlock(sid: int) -> bool:
        blocked = ", ".join(i.name for i in graph.blocked_processes(sid))
        return fail(
            VIOLATION_DEADLOCK,
            f"invalid end state (deadlock); blocked processes: {blocked}",
            _rebuild_trace(graph, initial, sid, parents),
        )

    def violates_invariant(target: int) -> bool:
        for p, fn in inv_fns:
            if not fn(StateView(system, state_of(target))):
                trace = _rebuild_trace(graph, initial, target, parents)
                if fail(VIOLATION_INVARIANT,
                        f"invariant {p.name!r} violated", trace):
                    return True
        return False

    # Dense cold walk: on a *cold* store with a compiled driver, BFS
    # discovery order is exactly interning order — every newly seen
    # target receives the next dense id — so the frontier is the
    # integer range [expanded, stored), "is this target new?" is a
    # single integer comparison, and the parent map is an append-only
    # array.  The deque and the per-target probes disappear, and so do
    # the row reads: the targets a row discovered are exactly the ids
    # its expansion interned, in edge order, so only a row with a
    # violating edge is read back (to interleave assertion and
    # invariant failures in edge order).
    # Verdicts, traces, and statistics are identical to the general
    # loop below (the differential and cold≡warm suites pin this); the
    # general loop remains the only path for warm graphs (whose
    # interning order may stem from another checker's visit order),
    # budgeted runs, and instrumented runs.
    if (cache._drive is not None and obs is None and unbounded
            and len(store_states) == 1 and not len(cache)):
        parents = array("i", [initial])
        append_parent = parents.append
        sid = 0
        with _gc_paused():
            while sid < n_stored:
                n = expand(sid)
                n_trans += n
                n_expanded += 1
                if not n and check_deadlock \
                        and not graph.is_valid_end_state(sid) \
                        and deadlock(sid):
                    return done()
                viol = (violations.get(sid)
                        if violations and check_assertions else None)
                if viol is None:
                    for target in range(n_stored, len(store_states)):
                        append_parent(sid)
                        n_stored += 1
                        if inv_fns and violates_invariant(target):
                            return done()
                else:
                    first = starts[sid]
                    for i in range(n):
                        if i in viol and assertion(sid, i, viol[i]):
                            return done()
                        target = tgt[first + i]
                        if target >= n_stored:
                            append_parent(sid)
                            n_stored += 1
                            if inv_fns and violates_invariant(target):
                                return done()
                frontier = n_stored - sid - 1
                if frontier > max_frontier:
                    max_frontier = frontier
                sid += 1
        _sample_dense_frontier(stats, max_frontier)
        stats.elapsed_seconds = time.perf_counter() - start
        return done()

    parents = array("i", repeat(_UNSEEN, len(store_states)))
    parents[initial] = initial
    exhausted: Optional[str] = None
    while queue:
        # Check the budget *before* popping: an exhausted budget must not
        # silently discard a frontier state whose expansion would then be
        # missing from the partial statistics.
        if not unbounded:
            flush()
            exhausted = budget.exceeded(n_stored)
            if exhausted is not None:
                break
        sid = popleft()
        first = starts[sid] if sid < len(starts) else UNEXPANDED
        if first == UNEXPANDED:
            expand(sid)
            first = starts[sid]
            _grow(parents, len(store_states))
        n = counts[sid]
        n_trans += n
        n_expanded += 1
        if obs is not None:
            flush()
            obs.tick(n_stored, n_expanded, n_trans, len(queue))

        if not n and check_deadlock \
                and not graph.is_valid_end_state(sid) and deadlock(sid):
            return done()

        viol = violations.get(sid) if violations and check_assertions \
            else None
        for i in range(first, first + n):
            if viol is not None and i - first in viol \
                    and assertion(sid, i - first, viol[i - first]):
                return done()
            target = tgt[i]
            if parents[target] != _UNSEEN:
                continue
            parents[target] = sid
            n_stored += 1
            if not unbounded:
                flush()
                exhausted = budget.exceeded(n_stored)
                if exhausted is not None:
                    break
            if inv_fns and violates_invariant(target):
                return done()
            push(target)
            if len(queue) > max_frontier:
                max_frontier = len(queue)
                _sample_frontier(stats, queue)
        if exhausted is not None:
            break

    stats.elapsed_seconds = time.perf_counter() - start
    if exhausted is not None:
        report.incomplete = True
        report.budget_exhausted = exhausted
        stats.incomplete = True
        stats.budget_exhausted = exhausted
    return done()


def count_states(
    target: Target,
    max_states: Optional[int] = None,
    max_seconds: Optional[float] = None,
    raise_on_limit: bool = False,
    reporter: Optional[Reporter] = None,
) -> Statistics:
    """Count reachable states/transitions without checking anything.

    On an exhausted budget the partial tally is returned with
    ``stats.incomplete`` set (or :class:`StateLimitExceeded` /
    :class:`TimeLimitExceeded` raised in ``raise_on_limit`` mode).
    """
    graph = as_graph(target)
    budget = Budget(max_states=max_states, max_seconds=max_seconds,
                    raise_on_limit=raise_on_limit)
    start = budget.started_at
    obs = None if reporter is None else RunInstrument(
        reporter, "count-states", graph, max_states=max_states,
        max_seconds=max_seconds, started_at=start)
    initial = graph.initial_id
    seen = {initial}
    queue: deque[int] = deque([initial])
    stats = Statistics(states_stored=1, max_frontier=1)
    stats.apply_compile_stats(graph.compile_stats)
    _sample_frontier(stats, queue)
    cache = graph.cache
    expand = cache.expand
    starts, counts, tgt = cache.start, cache.count, cache.tgt
    store_states = graph.store._states
    unbounded = budget.unbounded
    popleft = queue.popleft
    push = queue.append
    seen_add = seen.add
    # Counters in locals; published to the dataclass after the walk.
    n_stored = stats.states_stored
    n_expanded = stats.states_expanded
    n_trans = stats.transitions
    max_frontier = stats.max_frontier
    # Dense cold walk (see sweep_safety): on a cold store BFS discovery
    # order is interning order, so counting needs no seen-set at all —
    # the stored count *is* the store's length.
    if (cache._drive is not None and obs is None and unbounded
            and len(store_states) == 1 and not len(cache)):
        sid = 0
        with _gc_paused():
            while sid < len(store_states):
                n_trans += expand(sid)
                n_expanded += 1
                frontier = len(store_states) - sid - 1
                if frontier > max_frontier:
                    max_frontier = frontier
                sid += 1
        n_stored = len(store_states)
        _sample_dense_frontier(stats, max_frontier)
        stats.states_stored = n_stored
        stats.states_expanded = n_expanded
        stats.transitions = n_trans
        stats.max_frontier = max_frontier
        stats.elapsed_seconds = time.perf_counter() - start
        return stats

    exhausted: Optional[str] = None
    while queue and exhausted is None:
        sid = popleft()
        first = starts[sid] if sid < len(starts) else UNEXPANDED
        if first == UNEXPANDED:
            expand(sid)
            first = starts[sid]
        n_expanded += 1
        if obs is not None:
            obs.tick(n_stored, n_expanded, n_trans, len(queue))
        for i in range(first, first + counts[sid]):
            target = tgt[i]
            n_trans += 1
            if target not in seen:
                seen_add(target)
                n_stored += 1
                if not unbounded:
                    exhausted = budget.exceeded(n_stored)
                    if exhausted is not None:
                        break
                push(target)
        if len(queue) > max_frontier:
            max_frontier = len(queue)
            _sample_frontier(stats, queue)
    stats.states_stored = n_stored
    stats.states_expanded = n_expanded
    stats.transitions = n_trans
    stats.max_frontier = max_frontier
    stats.elapsed_seconds = time.perf_counter() - start
    if exhausted is not None:
        stats.incomplete = True
        stats.budget_exhausted = exhausted
    if obs is not None:
        if exhausted is not None:
            obs.budget(exhausted, stats.states_stored)
        obs.finish(ok=True, stats=stats, incomplete=stats.incomplete)
    return stats


def reachable_states(
    target: Target,
    max_states: Optional[int] = None,
    max_seconds: Optional[float] = None,
) -> List[State]:
    """Materialize the reachable state set (testing/analysis helper).

    A silently truncated state list would be a trap, so this helper
    always raises on an exhausted budget.
    """
    graph = as_graph(target)
    budget = Budget(max_states=max_states, max_seconds=max_seconds,
                    raise_on_limit=True)
    initial = graph.initial_id
    seen = {initial}
    order = [initial]
    queue: deque[int] = deque([initial])
    span = graph.cache.span
    tgt = graph.cache.tgt
    while queue:
        first, n = span(queue.popleft())
        for i in range(first, first + n):
            target = tgt[i]
            if target not in seen:
                seen.add(target)
                order.append(target)
                budget.exceeded(len(seen))
                queue.append(target)
    return [graph.state(sid) for sid in order]


def find_state(
    target: Target,
    predicate: Prop,
    max_states: Optional[int] = None,
    max_seconds: Optional[float] = None,
    reporter: Optional[Reporter] = None,
) -> Optional[Trace]:
    """Search for a reachable state satisfying *predicate*.

    Returns the shortest trace to such a state, or ``None`` if no
    reachable state satisfies it.  This is the existential dual of an
    invariant check and is used by the Figure-4 scenario experiments
    ("there exists an execution where SEND_SUCC precedes delivery").

    ``None`` is a definite answer, so an exhausted budget always raises
    (:class:`StateLimitExceeded` / :class:`TimeLimitExceeded`) rather
    than degrading to a misleading "not found".
    """
    graph = as_graph(target)
    system = graph.system
    budget = Budget(max_states=max_states, max_seconds=max_seconds,
                    raise_on_limit=True)
    obs = None if reporter is None else RunInstrument(
        reporter, "find-state", graph, max_states=max_states,
        max_seconds=max_seconds, started_at=budget.started_at)
    initial = graph.initial_id
    if predicate.evaluate(system, graph.state(initial)):
        if obs is not None:
            obs.finish(ok=True, stats=Statistics(states_stored=1))
        return Trace(initial=graph.state(initial))
    queue: deque[int] = deque([initial])
    expanded = 0
    stored = 1

    def found(trace: Optional[Trace]) -> Optional[Trace]:
        if obs is not None:
            stats = Statistics(states_stored=stored,
                               states_expanded=expanded)
            stats.apply_compile_stats(graph.compile_stats)
            stats.elapsed_seconds = time.perf_counter() - budget.started_at
            obs.finish(ok=True, stats=stats)
        return trace

    cache = graph.cache
    expand = cache.expand
    starts, counts, tgt = cache.start, cache.count, cache.tgt
    store_states = graph.store._states
    state_of = graph.store.state
    unbounded = budget.unbounded
    pred_fn = predicate.fn

    # Dense cold walk (see sweep_safety): discovery order == interning
    # order on a cold store, so the frontier is an integer range, the
    # states an expansion interned are exactly its new targets, and the
    # parent map is an append-only array.
    if (cache._drive is not None and obs is None and unbounded
            and len(store_states) == 1 and not len(cache)):
        parents = array("i", [initial])
        append_parent = parents.append
        sid = 0
        with _gc_paused():
            while sid < stored:
                expand(sid)
                expanded += 1
                for target in range(stored, len(store_states)):
                    append_parent(sid)
                    stored += 1
                    if pred_fn(StateView(system, state_of(target))):
                        return found(
                            _rebuild_trace(graph, initial, target, parents))
                sid += 1
        return found(None)

    parents = array("i", repeat(_UNSEEN, len(store_states)))
    parents[initial] = initial
    popleft = queue.popleft
    push = queue.append
    while queue:
        sid = popleft()
        expanded += 1
        if obs is not None:
            obs.tick(stored, expanded, 0, len(queue))
        first = starts[sid] if sid < len(starts) else UNEXPANDED
        if first == UNEXPANDED:
            expand(sid)
            first = starts[sid]
            _grow(parents, len(store_states))
        for i in range(first, first + counts[sid]):
            target = tgt[i]
            if parents[target] != _UNSEEN:
                continue
            parents[target] = sid
            stored += 1
            if not unbounded:
                budget.exceeded(stored)
            if pred_fn(StateView(system, state_of(target))):
                return found(_rebuild_trace(graph, initial, target, parents))
            push(target)
    return found(None)
