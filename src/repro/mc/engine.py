"""The shared state-space engine: interned states and a memoized relation.

The paper's core pitch is *reuse across design iterations*, yet the
checkers historically threw all exploration work away between runs:
``check_safety``, ``find_state``, NDFS, fairness, and every resilience
scenario re-walked the state space from scratch, rebuilding every
:class:`~repro.psl.interp.Transition` per visit.  This module makes the
state space itself a reusable artifact, laid out to keep the kept
graph small (~290 B per state on the 2-customer gas station, component
tuples and their canonical tables included):

* :class:`StateStore` — interns :class:`~repro.psl.state.State` tuples
  to dense integer ids.  Each state is one object, used both as the id
  map's key and as the id-indexed list entry.  A state's (expensive)
  deep-tuple hash is computed once, at interning time; every downstream
  structure — BFS frontiers, parent maps, NDFS color sets, POR stacks —
  then keys on small ints whose hashes are free.  The store also
  hash-conses the state *components*, SPIN's collapse compression in
  Python form: one canonical table per component (``locs``, ``frames``,
  ``chans``, ``globals_``) maps each distinct value to the one instance
  every stored state points at.  A state stays a 4-tuple of pointers,
  but a value shared by many states exists once (the 2-customer gas
  station's 28,672 states share 17,356 location vectors, 1,563 frame
  vectors, 19 channel vectors and 9 global vectors).
* :class:`TransitionCache` — memoizes the transition relation as flat
  *rows*: every edge is one slot in two ``array('i')`` buffers, its
  target id in ``tgt`` and its label id in ``lbl``, and a state's row
  is the contiguous run of slots from ``start[sid]`` of length
  ``count[sid]``, in the interpreter's order.  Labels are interned once
  per cache into a label table, so a row costs 8 bytes per edge and 12
  per state, and none of it is a Python object the garbage collector
  has to visit.  The rare violating transitions (failed assertions)
  live in a side table keyed by state and row-relative edge index, so
  the rows carry no per-edge violation slot.
* :class:`StateGraph` — the façade the checkers share.  Build one per
  system, pass it to as many checkers as you like: checking N
  properties or N fault phases on the same architecture pays the
  exploration cost once.

All checkers in :mod:`repro.mc` accept a ``StateGraph`` wherever they
accept a ``System`` or ``Interpreter``; passing a plain system simply
builds a private graph, so single-shot calls behave exactly as before.
Transition order is the interpreter's deterministic order, which is why
cached and uncached runs produce identical verdicts, shortest
counterexamples, and statistics (see
``tests/mc/test_engine_equivalence.py``).  It is also why a BFS parent
map needs no labels: the edge that discovered a state is the first edge
in its parent's row that targets it (:meth:`TransitionCache.label_of`).
"""

from __future__ import annotations

from array import array
from itertools import repeat
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple, Union

from ..psl.interp import Interpreter, TransitionLabel
from ..psl.state import State
from ..psl.system import ProcessInstance, System

__all__ = ["CachedTransition", "StateGraph", "StateStore", "TransitionCache"]

#: Builds a :class:`State` from a 4-tuple without the NamedTuple's
#: Python-level ``__new__``.
_new_state = tuple.__new__


class StateStore:
    """Interns states to dense integer ids (hash once, compare by int).

    Every stored :class:`State` is built from *canonical* components:
    ``_locs``, ``_frames``, ``_chans`` and ``_globals`` map each
    distinct component value seen so far to its one stored instance
    (key and value are the same object).  An intern miss looks each
    component up there (``setdefault``) before building the state, so
    equal components of different states are one object, and a
    component read off a stored state is always the table's entry —
    which is what lets the JIT's engine-mode miss branch reuse an
    unchanged component as is (see
    :meth:`~repro.psl.jit.CompiledInterpreter.bind_engine`).  The
    tables cost ~23 B/state and take the components from ~210 to ~70
    B/state on the 2-customer gas station; they live and die with the
    store.
    """

    __slots__ = ("_ids", "_states", "_locs", "_frames", "_chans",
                 "_globals")

    def __init__(self) -> None:
        self._ids: Dict[State, int] = {}
        self._states: List[State] = []
        self._locs: Dict[tuple, tuple] = {}
        self._frames: Dict[tuple, tuple] = {}
        self._chans: Dict[tuple, tuple] = {}
        self._globals: Dict[tuple, tuple] = {}

    def intern(self, state: State) -> int:
        """The id of *state*, assigning the next free id on first sight.

        A first-seen state is stored as a new :class:`State` over the
        canonical instances of its components, so the caller's object
        (any 4-tuple of components) is not kept.
        """
        sid = self._ids.get(state)
        if sid is None:
            sid = len(self._states)
            locs, frames, chans, globals_ = state
            state = _new_state(State, (
                self._locs.setdefault(locs, locs),
                self._frames.setdefault(frames, frames),
                self._chans.setdefault(chans, chans),
                self._globals.setdefault(globals_, globals_)))
            self._ids[state] = sid
            self._states.append(state)
        return sid

    def id_of(self, state: State) -> Optional[int]:
        """The id of *state* if it has been interned, else ``None``."""
        return self._ids.get(state)

    def state(self, sid: int) -> State:
        """The state interned under *sid*."""
        return self._states[sid]

    def __len__(self) -> int:
        return len(self._states)

    def __contains__(self, state: State) -> bool:
        return state in self._ids


class CachedTransition(NamedTuple):
    """One memoized transition: like ``Transition`` but with an int target.

    The cache stores flat rows, not these;
    :meth:`TransitionCache.transitions` builds them on demand for tests
    and external callers.
    """

    label: TransitionLabel
    target: int
    violation: Optional[str]


#: A successor row as the public API returns it: labels and target ids,
#: edge for edge (built per call from the flat buffers).
Row = Tuple[Tuple[TransitionLabel, ...], Tuple[int, ...]]

#: ``start`` entry of a state whose row has not been computed.
UNEXPANDED = -1


def _label_interner(labels: List[TransitionLabel],
                    ids: Dict[TransitionLabel, int]):
    """A ``label -> id`` function over the label table *labels*/*ids*.

    A closure rather than a cache method: the JIT's namespaces hold it,
    and through a bound method they would hold the cache itself.
    """
    def label_id(label: TransitionLabel) -> int:
        lid = ids.get(label)
        if lid is None:
            lid = ids[label] = len(labels)
            labels.append(label)
        return lid
    return label_id


class TransitionCache:
    """Memoizes ``Interpreter.transitions`` over interned state ids.

    Successor rows are computed at most once per distinct state, in the
    interpreter's deterministic order, with targets interned into the
    shared :class:`StateStore`.  All rows live in two flat ``array('i')``
    buffers written edge for edge: ``tgt[i]`` is an edge's target id and
    ``lbl[i]`` its label id.  State *sid*'s row is the slots
    ``start[sid] .. start[sid] + count[sid] - 1`` (``start`` is an
    ``array('q')``, ``count`` an ``array('I')``, both sid-indexed);
    ``start[sid]`` is :data:`UNEXPANDED` (or *sid* is past the end of
    the array) until the row is computed.  Rows are appended in
    expansion order, so a row's slots are contiguous but rows need not
    follow sid order (the sharded explorer fills them wave by wave).

    Labels are interned once per cache: ``labels[lid]`` is the
    :class:`~repro.psl.interp.TransitionLabel` with id *lid*, and
    ``label_id(label)`` maps a label to its id by value.  The JIT driver
    registers its constant labels, memoized channel labels and
    rendezvous labels at bind time and writes bare ids; the tree-walk
    path and :meth:`record` intern by value.

    ``violations[sid]`` maps the row-relative edge index of each
    violating transition to its message, for the few rows that have
    one.  The JIT driver reports a violation at its absolute slot in the
    flat buffers; :meth:`expand` turns that into the row index.  A model
    error part-way through a row truncates both buffers back to the
    row's start, so the state stays unexpanded and the next
    :meth:`successors` on it raises again.

    Readers that walk many rows (the checkers in :mod:`repro.mc`) read
    ``start``/``count``/``tgt``/``lbl`` directly, index by index, and
    build no per-row object; :meth:`successors`, :meth:`row` and
    :meth:`transitions` build tuples per call for everyone else.
    """

    __slots__ = ("interp", "store", "tgt", "lbl", "start", "count",
                 "labels", "_label_ids", "label_id", "violations",
                 "_pending", "_drive", "_release", "misses")

    def __init__(self, interp: Interpreter, store: StateStore) -> None:
        self.interp = interp
        self.store = store
        self.tgt = array("i")
        self.lbl = array("i")
        self.start = array("q")
        self.count = array("I")
        self.labels: List[TransitionLabel] = []
        self._label_ids: Dict[TransitionLabel, int] = {}
        #: ``label_id(label)``: the id of *label* in ``labels`` (by value).
        self.label_id = _label_interner(self.labels, self._label_ids)
        self.violations: Dict[int, Dict[int, str]] = {}
        #: Number of distinct states actually expanded by the interpreter.
        self.misses = 0
        # A compiled interpreter provides a fused driver that appends
        # label and target ids straight onto the flat buffers (and any
        # violation's absolute slot to ``_pending``).
        self._pending: List[Tuple[int, str]] = []
        self._drive = self._release = None
        bind_engine = getattr(interp, "bind_engine", None)
        if bind_engine is not None:
            self._drive, self._release = bind_engine(
                store, self.tgt, self.lbl, self.label_id,
                self._pending.append)

    def __del__(self) -> None:
        # The driver's generated code sits in function <-> namespace
        # cycles that reference the store and the buffers; only a full
        # collection would free them.  Break them now, so a dropped
        # graph gives its memory back at once.
        if getattr(self, "_release", None) is not None:
            self._release()

    def expand(self, sid: int) -> int:
        """Compute and memoize *sid*'s row; return its edge count."""
        state = self.store._states[sid]
        tgt = self.tgt
        if self._drive is None:
            transitions = self.interp.transitions(state)
            intern = self.store.intern
            self.record(sid, [t.label for t in transitions],
                        [intern(t.target) for t in transitions],
                        {i: t.violation for i, t in enumerate(transitions)
                         if t.violation})
            return len(transitions)
        first = len(tgt)
        pending = self._pending
        try:
            self._drive(state)
        except BaseException:
            # A model error part-way through the row: drop its edges so
            # the buffers hold only complete rows.
            del tgt[first:]
            del self.lbl[first:]
            pending.clear()
            raise
        n = len(tgt) - first
        self._set_row(sid, first, n)
        if pending:
            self.violations[sid] = {i - first: message
                                    for i, message in pending}
            pending.clear()
        return n

    def _set_row(self, sid: int, first: int, n: int) -> None:
        start = self.start
        if sid == len(start):  # the dense walks' case
            start.append(first)
            self.count.append(n)
        else:
            short = sid + 1 - len(start)
            if short > 0:
                start.extend(repeat(UNEXPANDED, short))
                self.count.extend(repeat(0, short))
            start[sid] = first
            self.count[sid] = n
        self.misses += 1

    def record(self, sid: int, labels: Iterable[TransitionLabel],
               targets: Iterable[int],
               violations: Optional[Dict[int, str]] = None) -> None:
        """Store an expanded row (``violations``: edge index -> message)."""
        tgt = self.tgt
        first = len(tgt)
        tgt.extend(targets)
        self.lbl.extend(map(self.label_id, labels))
        self._set_row(sid, first, len(tgt) - first)
        if violations:
            self.violations[sid] = violations

    def is_expanded(self, sid: int) -> bool:
        return sid < len(self.start) and self.start[sid] != UNEXPANDED

    def span(self, sid: int) -> Tuple[int, int]:
        """``(first slot, edge count)`` of *sid*'s row, expanding it on first use."""
        start = self.start
        if sid >= len(start) or start[sid] == UNEXPANDED:
            self.expand(sid)
        return start[sid], self.count[sid]

    def successors(self, sid: int) -> Tuple[int, ...]:
        """The target ids of *sid*'s row, expanding it on first use."""
        first, n = self.span(sid)
        return tuple(self.tgt[first:first + n])

    def row(self, sid: int) -> Row:
        """``(labels, targets)`` of *sid*, expanding it on first use."""
        first, n = self.span(sid)
        labels = self.labels
        return (tuple([labels[lid] for lid in self.lbl[first:first + n]]),
                tuple(self.tgt[first:first + n]))

    def label_of(self, src: int, dst: int) -> TransitionLabel:
        """The label of the first edge of *src*'s row that targets *dst*.

        In a breadth-first walk that edge is the one that discovered
        *dst*, so a parent map of bare ids rebuilds traces exactly.
        """
        first = self.start[src]
        tgt = self.tgt
        for i in range(first, first + self.count[src]):
            if tgt[i] == dst:
                return self.labels[self.lbl[i]]
        raise ValueError(f"state {dst} is not a successor of {src}")

    def transitions(self, sid: int) -> Tuple[CachedTransition, ...]:
        """*sid*'s row as :class:`CachedTransition` tuples (built per call)."""
        labels, targets = self.row(sid)
        violations = self.violations.get(sid, {})
        return tuple([
            CachedTransition(label, target, violations.get(i))
            for i, (label, target) in enumerate(zip(labels, targets))
        ])

    def peek(self, sid: int) -> Optional[Tuple[CachedTransition, ...]]:
        """The cached successor list, or ``None`` without computing it."""
        return self.transitions(sid) if self.is_expanded(sid) else None

    def __len__(self) -> int:
        return self.misses


class StateGraph:
    """A system's state space, explored lazily and shared across checkers.

    Wraps an :class:`~repro.psl.interp.Interpreter` with a
    :class:`StateStore` and a :class:`TransitionCache`.  The graph is a
    *cache*, not a snapshot: checkers pull successor rows through
    :meth:`successors` and :meth:`row` and the first checker to visit a
    state pays for it; later checkers (or later visits) get memoized
    results.  Budgeted
    runs therefore stay budgeted — nothing is explored eagerly.
    """

    __slots__ = ("interp", "store", "cache", "initial_id")

    def __init__(self, target: Union[System, Interpreter],
                 jit: Optional[bool] = None) -> None:
        if isinstance(target, Interpreter):
            self.interp = target
        else:
            from ..psl.jit import make_interpreter
            self.interp = make_interpreter(target, jit=jit)
        self.store = StateStore()
        self.cache = TransitionCache(self.interp, self.store)
        self.initial_id = self.store.intern(self.interp.initial_state())

    # -- delegation ---------------------------------------------------------

    @property
    def system(self) -> System:
        return self.interp.system

    def state(self, sid: int) -> State:
        return self.store.state(sid)

    def transitions(self, sid: int) -> Tuple[CachedTransition, ...]:
        return self.cache.transitions(sid)

    def successors(self, sid: int) -> Tuple[int, ...]:
        return self.cache.successors(sid)

    def row(self, sid: int) -> Row:
        return self.cache.row(sid)

    def is_valid_end_state(self, sid: int) -> bool:
        return self.interp.is_valid_end_state(self.store.state(sid))

    def blocked_processes(self, sid: int) -> List[ProcessInstance]:
        return self.interp.blocked_processes(self.store.state(sid))

    # -- introspection ------------------------------------------------------

    @property
    def compile_stats(self) -> Optional[Dict[str, float]]:
        """JIT compilation counters, or ``None`` on the tree-walk path."""
        return getattr(self.interp, "compile_stats", None)

    @property
    def n_states_seen(self) -> int:
        """Distinct states interned so far (explored plus frontier)."""
        return len(self.store)

    @property
    def n_states_expanded(self) -> int:
        """Distinct states whose successor lists have been computed."""
        return len(self.cache)

    def explore(self, max_states: Optional[int] = None,
                reporter=None, jobs: Optional[int] = None) -> int:
        """Eagerly expand the whole reachable graph (pre-warming helper).

        Returns the number of distinct states interned.  ``max_states``
        caps the expansion; the graph stays usable (and lazily
        completable) either way.  ``reporter`` receives engine events
        for the warm-up sweep (see :mod:`repro.obs`).  ``jobs > 1``
        shards the BFS frontier across worker processes (see
        :mod:`repro.mc.shard`); the sharded path degrades to this
        serial walk — with a note on the returned report, which this
        convenience wrapper discards — when parallelism cannot pay.
        """
        if jobs is not None and jobs > 1:
            from .shard import shard_explore
            return shard_explore(self, jobs=jobs, max_states=max_states,
                                 reporter=reporter).states
        obs = None
        if reporter is not None:
            from ..obs.events import RunInstrument
            obs = RunInstrument(reporter, "engine-explore", self,
                                max_states=max_states)
        queue = [self.initial_id]
        seen = {self.initial_id}
        expanded = 0
        ntrans = 0

        def done() -> int:
            if obs is not None:
                from .result import Statistics
                stats = Statistics(states_stored=len(self.store),
                                   states_expanded=expanded,
                                   transitions=ntrans)
                stats.apply_compile_stats(self.compile_stats)
                stats.elapsed_seconds = obs.elapsed()
                obs.finish(ok=True, stats=stats)
            return len(self.store)

        span = self.cache.span
        tgt = self.cache.tgt
        while queue:
            sid = queue.pop()
            first, n = span(sid)
            expanded += 1
            ntrans += n
            if obs is not None:
                obs.tick(len(self.store), expanded, ntrans, len(queue))
            for i in range(first, first + n):
                target = tgt[i]
                if target not in seen:
                    seen.add(target)
                    if max_states is not None and len(seen) >= max_states:
                        return done()
                    queue.append(target)
        return done()


def as_graph(target: Union[System, Interpreter, StateGraph]) -> StateGraph:
    """Coerce any checker target to a :class:`StateGraph`."""
    if isinstance(target, StateGraph):
        return target
    return StateGraph(target)
