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

from typing import Dict, Iterator, List, Mapping, Optional

from ..obs.events import RunInstrument
from .buchi import BuchiAutomaton
from .budget import Budget
from .engine import StateGraph
from .ndfs import STUTTER_ID, ProductEdge, _Product
from .props import Prop

#: A fair product node: ``(plain * (N + 1) + i) * 2 + wrapped`` for a
#: plain product node, counter *i* and wrap flag (``N`` processes).
FairNode = int


class FairProduct:
    """Weakly-fair synchronous product, NDFS-compatible.

    Wraps the plain :class:`~repro.mc.ndfs._Product` and unfolds it with
    the fairness counter.  A node packs ``(s, q, i, wrapped)`` into one
    int (see :data:`FairNode`), where ``i = 0`` is the reset copy,
    ``i = k`` (1-based) waits for process ``k - 1`` to execute or be
    disabled, and ``wrapped`` marks the single step on which a full
    fair round completed.  Process sets (the movers of a transition, the
    processes enabled in a state) are int bitmasks over pids.
    """

    def __init__(self, graph: StateGraph, automaton: BuchiAutomaton,
                 props: Mapping[str, Prop],
                 budget: Optional[Budget] = None,
                 instrument: Optional[RunInstrument] = None) -> None:
        self._plain = _Product(graph, automaton, props, budget=budget,
                               instrument=instrument)
        self.graph = graph
        self.automaton = automaton
        self.n_procs = len(graph.system.instances)
        #: Node stride of one plain node (counter values x wrap flag).
        self._width = 2 * (self.n_procs + 1)
        self.stats = self._plain.stats
        self._enabled_cache: Dict[int, int] = {}
        self._movers_cache: Dict[int, int] = {STUTTER_ID: 0}

    # -- helpers ---------------------------------------------------------

    def _movers(self, lid: int) -> int:
        """Bitmask of the processes a transition with label *lid* moves."""
        movers = self._movers_cache.get(lid)
        if movers is None:
            label = self.graph.cache.labels[lid]
            movers = 1 << label.pid
            if label.partner_pid is not None:
                movers |= 1 << label.partner_pid
            self._movers_cache[lid] = movers
        return movers

    def _enabled_pids(self, sid: int) -> int:
        """Bitmask of the processes with a transition enabled in *sid*."""
        cached = self._enabled_cache.get(sid)
        if cached is None:
            cache = self.graph.cache
            first = self._plain.first_slot(sid)
            lbl = cache.lbl
            cached = 0
            for i in range(first, first + cache.count[sid]):
                cached |= self._movers(lbl[i])
            self._enabled_cache[sid] = cached
        return cached

    # -- NDFS interface -----------------------------------------------------

    def initial_nodes(self) -> List[FairNode]:
        return [node * self._width for node in self._plain.initial_nodes()]

    def is_accepting(self, node: FairNode) -> bool:
        return bool(node & 1)

    def sid_of(self, node: FairNode) -> int:
        return self._plain.sid_of(node // self._width)

    def successors(self, node: FairNode) -> Iterator[ProductEdge]:
        plain_node, rest = divmod(node, self._width)
        counter = rest >> 1
        plain = self._plain
        sid, qid = divmod(plain_node, plain.n_q)
        q_accepting = plain.accepting[qid]
        enabled = self._enabled_pids(sid)
        n_procs = self.n_procs
        width = self._width
        for lid, succ in plain.successors(plain_node):
            movers = self._movers(lid)
            if counter == 0:
                # Start a fair round at each Büchi-accepting state.
                j = 1 if q_accepting else 0
                # A fresh round may be satisfied immediately by this very
                # step (or by disabled processes).
                j = self._advance(j, movers, enabled)
            else:
                j = self._advance(counter, movers, enabled)
            if j > n_procs:
                yield lid, succ * width + 1
            else:
                yield lid, (succ * width) + 2 * j

    def _advance(self, j: int, movers: int, enabled: int) -> int:
        """Advance the counter past every satisfied process index."""
        while 1 <= j <= self.n_procs:
            bit = 1 << (j - 1)
            if movers & bit or not enabled & bit:
                j += 1
            else:
                break
        return j
