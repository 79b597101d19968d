"""Memo rows written by the JIT driver ≡ rows written through ``record``.

The compiled driver appends label and target ids straight onto the
memo's flat buffers and reports violations at their absolute slot; the
tree-walk path computes ``Transition`` lists and stores them through
:meth:`~repro.mc.engine.TransitionCache.record`, interning labels by
value.  Both must leave the same rows behind: for every architecture
in ``repro.systems``, fused and composed, and for a model whose
violating edges sit deep in the flat buffers, every expanded state has
the same labels (by value), the same target ids and the same violating
edge indices on both paths.
"""

import pytest

from repro.mc import StateGraph
from repro.psl import (
    Assert,
    Assign,
    Branch,
    Do,
    DStep,
    Guard,
    ProcessDef,
    Seq,
    System,
    V,
)
from repro.systems.gas_station import build_gas_station

from tests.psl.test_compiled_equivalence import ARCHES

#: States expanded per case, in id order (ids are interning order, the
#: same on both paths when the rows agree).
CAP = 2000


def _asserting_system():
    """Two counters with asserts that fail at non-zero row positions."""
    s = System("asserts")
    s.add_global("g", 0)
    s.add_global("h", 0)
    s.spawn(ProcessDef("up", Seq([Do(
        Branch(Guard(V("g") < 4), Assign("g", V("g") + 1),
               Assert(V("g") < 3)),
    )])), "a")
    s.spawn(ProcessDef("step", Seq([Do(
        Branch(Guard(V("h") < 3), DStep([
            Assign("h", V("h") + 1), Assert(V("h") + V("g") < 4)])),
    )])), "b")
    return s


SYSTEMS = {
    f"{name}-{'fused' if fused else 'composed'}":
        (lambda name=name, fused=fused:
         ARCHES[name]().to_system(fused=fused))
    for name in ARCHES for fused in (True, False)
}
SYSTEMS["gas_plain-fused"] = lambda: build_gas_station(
    customers=2, selective_delivery=False).to_system(fused=True)
SYSTEMS["asserts"] = _asserting_system


def _rows(graph, cap=CAP):
    """``(state, labels, targets, violations)`` per expanded state."""
    cache = graph.cache
    rows = []
    sid = 0
    while sid < len(graph.store) and sid < cap:
        labels, targets = graph.row(sid)
        rows.append((graph.state(sid), labels, targets,
                     cache.violations.get(sid, {})))
        sid += 1
    return rows


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_jit_rows_match_recorded_rows(name):
    system = SYSTEMS[name]()
    compiled = StateGraph(system, jit=True)
    walked = StateGraph(system, jit=False)
    assert compiled.cache._drive is not None
    assert walked.cache._drive is None
    assert _rows(compiled) == _rows(walked)
    for graph in (compiled, walked):
        cache = graph.cache
        assert len(set(cache.labels)) == len(cache.labels)
        assert len(cache.tgt) == len(cache.lbl) == sum(cache.count)


def test_violations_at_row_indices():
    graph = StateGraph(_asserting_system(), jit=True)
    rows = _rows(graph)
    violating = [(sid, viol) for sid, (_, _, _, viol) in enumerate(rows)
                 if viol]
    assert len(violating) > 1
    cache = graph.cache
    assert max(cache.start[sid] for sid, _ in violating) > 0
    assert any(i > 0 for _, viol in violating for i in viol)
    for sid, viol in violating:
        labels, targets = graph.row(sid)
        for i, message in viol.items():
            assert message.startswith("assertion violated")
            assert labels[i].kind in ("assert", "dstep")
