"""LTL model checking: product construction and nested depth-first search.

To check a system against an LTL formula φ we follow SPIN's automata-
theoretic recipe:

1. translate ¬φ to a Büchi automaton (:mod:`repro.mc.buchi`);
2. build the synchronous product of the system's transition system with
   that automaton on the fly;
3. search the product for a reachable *accepting cycle* with the nested
   depth-first search of Courcoubetis, Vardi, Wolper & Yannakakis (in
   the improved formulation of Schwoon & Esparza that detects cycles
   against the blue-DFS stack).

A reachable accepting cycle is a system execution violating φ; it is
reported as a *lasso* counterexample (stem + cycle).  If no accepting
cycle exists, φ holds on all (infinite) executions.

Finite executions are handled by *stutter extension*: a state with no
successors repeats itself forever, which is the standard way to give
LTL semantics to deadlocking runs (SPIN's "trailing stutter").
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass
from itertools import repeat
from typing import (Dict, Iterator, List, Mapping, Optional, Sequence, Set,
                    Tuple, Union)

from ..obs.events import RunInstrument
from ..obs.reporters import Reporter
from ..psl.interp import Interpreter, TransitionLabel
from ..psl.system import System
from .buchi import BuchiAutomaton, ltl_to_buchi
from .budget import Budget
from .engine import UNEXPANDED, StateGraph, as_graph
from .ltl import Formula, negate, parse_ltl
from .props import Prop
from .result import (
    Statistics,
    Trace,
    TraceStep,
    VerificationResult,
    VIOLATION_ACCEPTANCE_CYCLE,
)

#: A product node: ``sid * n_q + q`` for interned system state id
#: *sid* and Büchi state id *q* (``n_q`` Büchi states).
ProductNode = int

#: A product edge as the search keeps it: the memo's label id of the
#: system transition (:data:`STUTTER_ID` for a deadlock's stutter) and
#: the target node.  Labels are resolved only when a lasso is built.
ProductEdge = Tuple[int, ProductNode]

_STUTTER = TransitionLabel(
    pid=-1, process="(system)", kind="stutter", desc="deadlock stutter"
)

#: Label id of the stutter edge (outside the memo's label table).
STUTTER_ID = -1


class _BudgetHit(Exception):
    """Internal: unwinds the NDFS when a graceful budget runs out."""

    def __init__(self, marker: str) -> None:
        super().__init__(marker)
        self.marker = marker


class _Product:
    """On-the-fly product of a system with a state-labeled Büchi automaton.

    System states are handled as interned ids of a shared
    :class:`~repro.mc.engine.StateGraph`, and a product node is one int,
    ``sid * n_q + q``, so the search's color sets hold small ints and
    successor generation reads the graph's flat memo rows slot by slot.

    A system state's proposition values are one int bitmask (bit *k*
    for the *k*-th atom the automaton mentions), computed the first
    time the state is reached, in edge order — which keeps budgeted
    partial runs identical, since that is where the budget is polled.
    Each Büchi state's admissible successors are tabulated per bitmask
    the first time a state with that bitmask is valued.
    """

    def __init__(
        self,
        graph: StateGraph,
        automaton: BuchiAutomaton,
        props: Mapping[str, Prop],
        budget: Optional[Budget] = None,
        instrument: Optional[RunInstrument] = None,
    ) -> None:
        self.graph = graph
        self.automaton = automaton
        self.budget = budget
        self.instrument = instrument
        self.stats = Statistics()
        self.n_q = len(automaton.states)
        atoms = sorted({name for q in automaton.states
                        for name in q.positive | q.negative})
        bit = {name: 1 << k for k, name in enumerate(atoms)}
        #: (bit, prop) per atom the props bind (an unbound atom is false).
        self._atoms = [(bit[name], props[name]) for name in atoms
                       if name in props]
        #: (positive bits, negative bits) per Büchi state id.
        self._literals = [(0, 0)] * self.n_q
        self.accepting = [False] * self.n_q
        for q in automaton.states:
            self._literals[q.id] = (sum(bit[n] for n in q.positive),
                                    sum(bit[n] for n in q.negative))
            self.accepting[q.id] = q.accepting
        #: ``_next[q][mask]``: ids of q's successors a state with
        #: proposition bitmask *mask* admits, in automaton order.
        self._next: List[Dict[int, Tuple[int, ...]]] = [
            {} for _ in range(self.n_q)]
        self._tabled: Set[int] = set()
        #: Proposition bitmask per sid, -1 until the state is valued.
        self.masks = array("q") if len(atoms) < 63 else []
        #: Distinct system states valued so far (= stored states).
        self.n_valued = 0
        self._grow()

    def _grow(self) -> None:
        """Cover every interned state id in ``masks`` (as unvalued)."""
        short = len(self.graph.store) - len(self.masks)
        if short > 0:
            self.masks.extend(repeat(-1, short))

    def first_slot(self, sid: int) -> int:
        """The first slot of *sid*'s memo row, expanding it if need be."""
        starts = self.graph.cache.start
        first = starts[sid] if sid < len(starts) else UNEXPANDED
        if first == UNEXPANDED:
            self.graph.cache.expand(sid)
            self._grow()
            first = starts[sid]
        return first

    def _value(self, sid: int) -> int:
        """Compute, store and return *sid*'s proposition bitmask."""
        system = self.graph.system
        state = self.graph.store._states[sid]
        mask = 0
        for bit, prop in self._atoms:
            if prop.evaluate(system, state):
                mask |= bit
        self.masks[sid] = mask
        if mask not in self._tabled:
            self._tabled.add(mask)
            succ = self.automaton.successors
            for q in range(self.n_q):
                self._next[q][mask] = tuple([
                    r.id for r in succ[q] if self._admits(r.id, mask)])
        self.n_valued += 1
        if self.instrument is not None:
            stored = self.n_valued
            self.instrument.tick(stored, stored, self.stats.transitions, 0)
        if self.budget is not None:
            # Every distinct system state is valued exactly once, so
            # the valued count is the stored-state count.
            marker = self.budget.exceeded(self.n_valued)
            if marker is not None:
                raise _BudgetHit(marker)
        return mask

    def initial_nodes(self) -> List[ProductNode]:
        s0 = self.graph.initial_id
        self.stats.states_stored += 1
        mask = self.masks[s0]
        if mask < 0:
            mask = self._value(s0)
        return [s0 * self.n_q + q.id for q in self.automaton.initial
                if self._admits(q.id, mask)]

    def _admits(self, qid: int, mask: int) -> bool:
        """Does proposition bitmask *mask* satisfy Büchi state *qid*?"""
        pos, neg = self._literals[qid]
        return mask & pos == pos and not mask & neg

    def successors(self, node: ProductNode) -> Iterator[ProductEdge]:
        sid, q = divmod(node, self.n_q)
        cache = self.graph.cache
        first = self.first_slot(sid)
        n = cache.count[sid]
        self.stats.transitions += n
        nxt = self._next[q]
        n_q = self.n_q
        masks = self.masks
        if not n:  # stutter extension
            for q2 in nxt[masks[sid]]:
                yield STUTTER_ID, sid * n_q + q2
            return
        tgt, lbl = cache.tgt, cache.lbl
        for i in range(first, first + n):
            target = tgt[i]
            mask = masks[target]
            if mask < 0:
                mask = self._value(target)
            for q2 in nxt[mask]:
                yield lbl[i], target * n_q + q2

    def is_accepting(self, node: ProductNode) -> bool:
        return self.accepting[node % self.n_q]

    def sid_of(self, node: ProductNode) -> int:
        return node // self.n_q

    def label(self, lid: int) -> TransitionLabel:
        """The label behind a product edge's label id."""
        return _STUTTER if lid == STUTTER_ID else self.graph.cache.labels[lid]


@dataclass
class _Lasso:
    stem: List[ProductEdge]
    cycle: List[ProductEdge]


def _ndfs(product) -> Optional[_Lasso]:
    """Iterative nested DFS; returns a lasso if an accepting cycle exists.

    *product* is a :class:`_Product` or a
    :class:`~repro.mc.fairness.FairProduct`: int nodes,
    ``successors(node)`` yielding :data:`ProductEdge` pairs, and
    ``is_accepting(node)``.
    """
    blue: set = set()
    red: set = set()

    for init in product.initial_nodes():
        if init in blue:
            continue
        lasso = _blue_dfs(product, init, blue, red)
        if lasso is not None:
            return lasso
    return None


def _blue_dfs(
    product, root: ProductNode, blue: set, red: set
) -> Optional[_Lasso]:
    # Stack entries: (node, iterator over successors)
    cyan: set = {root}
    path: List[ProductEdge] = []  # edge into each node
    successors = product.successors
    accepting = product.is_accepting
    stack: List[Tuple[ProductNode, Iterator]] = [(root, successors(root))]

    while stack:
        node, it = stack[-1]
        advanced = False
        for lid, succ in it:
            if succ in cyan and (accepting(node) or accepting(succ)):
                # Early cycle detection against the blue stack.
                cycle = _cut_cycle(path, root, succ) + [(lid, succ)]
                stem = _cut_stem(path, root, succ)
                return _Lasso(stem=stem, cycle=cycle)
            if succ not in blue and succ not in cyan:
                cyan.add(succ)
                path.append((lid, succ))
                stack.append((succ, successors(succ)))
                advanced = True
                break
        if advanced:
            continue
        # Post-order on `node`.
        stack.pop()
        if accepting(node):
            hit = _red_dfs(product, node, cyan, red)
            if hit is not None:
                red_path, target = hit
                # stem: root -> node ; cycle: node ->(red) target ->(blue) node
                stem = list(path)
                back = _cut_cycle(path, root, target) if target != node else []
                # `back` walks target -> ... -> node along the blue stack.
                cycle = red_path + back
                return _Lasso(stem=stem, cycle=cycle)
        blue.add(node)
        cyan.discard(node)
        if path:
            path.pop()
    return None


def _cut_stem(
    path: List[ProductEdge], root: ProductNode, target: ProductNode
) -> List[ProductEdge]:
    """Prefix of the blue path from root up to (and including) target."""
    if target == root:
        return []
    out = []
    for lid, node in path:
        out.append((lid, node))
        if node == target:
            break
    return out


def _cut_cycle(
    path: List[ProductEdge], root: ProductNode, start: ProductNode
) -> List[ProductEdge]:
    """Suffix of the blue path strictly after `start` (start -> ... -> top)."""
    if start == root:
        return list(path)
    for i, (_, node) in enumerate(path):
        if node == start:
            return list(path[i + 1:])
    return list(path)


def _red_dfs(
    product, seed: ProductNode, cyan: set, red: set
) -> Optional[Tuple[List[ProductEdge], ProductNode]]:
    """Search from an accepting seed for the seed itself or any cyan node.

    Returns the red path (edges from seed) and the node hit, or None.
    """
    path: List[ProductEdge] = []
    on_path: set = {seed}
    successors = product.successors
    stack: List[Tuple[ProductNode, Iterator]] = [(seed, successors(seed))]
    visited: set = set()

    while stack:
        node, it = stack[-1]
        advanced = False
        for lid, succ in it:
            if succ == seed or succ in cyan:
                path.append((lid, succ))
                return path, succ
            if succ not in red and succ not in visited and succ not in on_path:
                visited.add(succ)
                on_path.add(succ)
                path.append((lid, succ))
                stack.append((succ, successors(succ)))
                advanced = True
                break
        if advanced:
            continue
        stack.pop()
        on_path.discard(node)
        red.add(node)
        if path:
            path.pop()
    return None


def check_ltl(
    target: Union[System, Interpreter, StateGraph],
    formula: Union[str, Formula],
    props: Union[Mapping[str, Prop], Sequence[Prop]],
    weak_fairness: bool = False,
    max_states: Optional[int] = None,
    max_seconds: Optional[float] = None,
    raise_on_limit: bool = False,
    reporter: Optional[Reporter] = None,
) -> VerificationResult:
    """Check that every execution of the system satisfies the LTL formula.

    ``props`` binds the formula's atomic propositions to state
    predicates; it may be a mapping ``name -> Prop`` or a sequence of
    props (bound by their own names).

    ``weak_fairness=True`` restricts attention to weakly fair runs — a
    process that is continuously enabled must eventually execute — via
    the counter construction of :mod:`repro.mc.fairness` (SPIN's ``-f``).
    This multiplies the product by roughly the process count; use it for
    liveness properties that an unfair scheduler could trivially defeat.

    ``max_states`` / ``max_seconds`` bound the search over distinct
    *system* states; an exhausted budget returns a partial
    ``incomplete=True`` result (no counterexample found so far) unless
    ``raise_on_limit`` is set.
    """
    graph = as_graph(target)
    parsed = parse_ltl(formula) if isinstance(formula, str) else formula
    prop_map = _as_prop_map(props)
    missing = parsed.atoms() - set(prop_map)
    if missing:
        raise KeyError(f"formula uses unbound propositions: {sorted(missing)}")

    budget: Optional[Budget] = None
    if max_states is not None or max_seconds is not None:
        budget = Budget(max_states=max_states, max_seconds=max_seconds,
                        raise_on_limit=raise_on_limit)
    start = time.perf_counter()
    obs = None if reporter is None else RunInstrument(
        reporter, "ltl-ndfs-fair" if weak_fairness else "ltl-ndfs", graph,
        max_states=max_states, max_seconds=max_seconds, started_at=start)
    automaton = ltl_to_buchi(negate(parsed))
    if weak_fairness:
        from .fairness import FairProduct
        product = FairProduct(graph, automaton, prop_map, budget=budget,
                              instrument=obs)
        plain = product._plain
    else:
        product = plain = _Product(graph, automaton, prop_map,
                                   budget=budget, instrument=obs)
    exhausted: Optional[str] = None
    try:
        lasso = _ndfs(product)
    except _BudgetHit as hit:
        lasso = None
        exhausted = hit.marker
    stats = product.stats
    stats.states_stored = plain.n_valued
    stats.elapsed_seconds = time.perf_counter() - start

    fairness_note = " (under weak fairness)" if weak_fairness else ""
    if exhausted is not None:
        stats.incomplete = True
        stats.budget_exhausted = exhausted
        if obs is not None:
            obs.budget(exhausted, stats.states_stored)
            obs.finish(ok=True, stats=stats, incomplete=True)
        return VerificationResult(
            ok=True,
            message=(f"search stopped early ({exhausted} exhausted); "
                     "no accepting cycle found so far" + fairness_note),
            stats=stats,
            property_text=str(parsed),
            incomplete=True,
            budget_exhausted=exhausted,
        )
    if lasso is None:
        if obs is not None:
            obs.finish(ok=True, stats=stats)
        return VerificationResult(
            ok=True,
            message=("no accepting cycle: property holds on all executions"
                     + fairness_note),
            stats=stats,
            property_text=str(parsed),
        )
    initial = graph.state(graph.initial_id)
    steps = [
        TraceStep(plain.label(lid), graph.state(product.sid_of(node)))
        for lid, node in lasso.stem + lasso.cycle
    ]
    trace = Trace(initial=initial, steps=steps, cycle_start=len(lasso.stem))
    if obs is not None:
        obs.counterexample(kind=VIOLATION_ACCEPTANCE_CYCLE,
                           message=f"execution violating {parsed} found",
                           trace_length=len(steps))
        obs.finish(ok=False, stats=stats)
    return VerificationResult(
        ok=False,
        kind=VIOLATION_ACCEPTANCE_CYCLE,
        message=(f"execution violating {parsed} found (lasso counterexample)"
                 + fairness_note),
        trace=trace,
        stats=stats,
        property_text=str(parsed),
    )


def _as_prop_map(
    props: Union[Mapping[str, Prop], Sequence[Prop]]
) -> Dict[str, Prop]:
    if isinstance(props, Mapping):
        return dict(props)
    return {p.name: p for p in props}
