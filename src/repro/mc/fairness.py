"""Weak fairness for LTL model checking (SPIN's ``-f`` option).

Without fairness, an LTL eventuality like ``F consumed`` fails on any
system where the scheduler can starve a process forever — e.g. a
consumer polling with a nonblocking receive can be scheduled in a tight
loop while a ready producer never runs.  *Weak fairness* rules such
runs out: a process that is continuously enabled from some point on
must eventually execute.

This module implements the standard counter ("Choueka flag")
construction SPIN uses: the Büchi product is unfolded into ``N + 1``
copies (one per process plus a reset copy).  A run is *fairly
accepting* iff the counter wraps around infinitely often, and a wrap
requires (a) passing a Büchi-accepting state and (b) every process
having either executed or been disabled at the moment the counter
pointed at it.  Acceptance is attached to the wrap itself via a flag
bit, so the nested DFS in :mod:`repro.mc.ndfs` works unchanged.

The construction multiplies the product size by about ``N + 1``; use it
for liveness properties on systems small enough to afford that.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Mapping, Optional, Tuple

from ..obs.events import RunInstrument
from ..psl.interp import TransitionLabel
from .buchi import BuchiAutomaton
from .budget import Budget
from .engine import StateGraph
from .ndfs import _Product, _STUTTER
from .props import Prop

#: A fair product node: (state id, Büchi state id, counter, wrap flag).
FairNode = Tuple[int, int, int, bool]


class FairProduct:
    """Weakly-fair synchronous product, NDFS-compatible.

    Wraps the plain :class:`~repro.mc.ndfs._Product` and unfolds it with
    the fairness counter.  Node layout: ``(s, q, i, wrapped)`` where
    ``i = 0`` is the reset copy, ``i = k`` (1-based) waits for process
    ``k - 1`` to execute or be disabled, and ``wrapped`` marks the
    single step on which a full fair round completed.  System states are
    interned :class:`~repro.mc.engine.StateGraph` ids, so the unfolded
    nodes stay small-int tuples.
    """

    def __init__(self, graph: StateGraph, automaton: BuchiAutomaton,
                 props: Mapping[str, Prop],
                 budget: Optional[Budget] = None,
                 instrument: Optional[RunInstrument] = None) -> None:
        self._plain = _Product(graph, automaton, props, budget=budget,
                               instrument=instrument)
        self.graph = graph
        self.interp = graph.interp
        self.automaton = automaton
        self.n_procs = len(graph.system.instances)
        self.stats = self._plain.stats
        self._enabled_cache: Dict[int, FrozenSet[int]] = {}

    # -- helpers ---------------------------------------------------------

    def _enabled_pids(self, sid: int) -> FrozenSet[int]:
        cached = self._enabled_cache.get(sid)
        if cached is None:
            pids = set()
            for label in self.graph.row(sid)[0]:
                pids.add(label.pid)
                if label.partner_pid is not None:
                    pids.add(label.partner_pid)
            cached = frozenset(pids)
            self._enabled_cache[sid] = cached
        return cached

    @staticmethod
    def _movers(label: TransitionLabel) -> FrozenSet[int]:
        if label is _STUTTER:
            return frozenset()
        if label.partner_pid is not None:
            return frozenset({label.pid, label.partner_pid})
        return frozenset({label.pid})

    # -- NDFS interface -----------------------------------------------------

    def initial_nodes(self) -> List[FairNode]:
        return [
            (s, qid, 0, False) for (s, qid) in self._plain.initial_nodes()
        ]

    def is_accepting(self, node: FairNode) -> bool:
        return node[3]

    def successors(self, node: FairNode) -> Iterator[
        Tuple[TransitionLabel, FairNode]
    ]:
        sid, qid, counter, _wrapped = node
        q_accepting = self._plain.by_id[qid].accepting
        enabled = self._enabled_pids(sid)
        for label, (target, q2) in self._plain.successors((sid, qid)):
            movers = self._movers(label)
            if counter == 0:
                # Start a fair round at each Büchi-accepting state.
                j = 1 if q_accepting else 0
                # A fresh round may be satisfied immediately by this very
                # step (or by disabled processes).
                j = self._advance(j, movers, enabled)
            else:
                j = self._advance(counter, movers, enabled)
            if j > self.n_procs:
                yield label, (target, q2, 0, True)
            else:
                yield label, (target, q2, j, False)

    def _advance(self, j: int, movers: FrozenSet[int],
                 enabled: FrozenSet[int]) -> int:
        """Advance the counter past every satisfied process index."""
        while 1 <= j <= self.n_procs:
            pid = j - 1
            if pid in movers or pid not in enabled:
                j += 1
            else:
                break
        return j
