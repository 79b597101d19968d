"""Footprint of the kept state graph, per state.

Graph-owned bytes per state on the fused 2-customer selective gas
station (28,672 states) after ``check_safety``, counted with
``sys.getsizeof`` and identity dedup over the store's id map and list,
the ``State`` objects, the sid ints, and the memo's lists and rows
(state component tuples and the shared labels excluded):

* 589 B — a raw tuple as the id-map key plus a second ``State`` object
  in the list, and one ``CachedTransition`` per edge in a dict memo;
* 307 B — one ``State`` object per state, flat label/target rows in
  sid-indexed lists.
"""

import sys

import pytest

from repro.mc import StateGraph, check_safety
from repro.systems.gas_station import build_gas_station

#: Ceiling on graph-owned bytes per state (measured 307 on CPython 3.11).
MAX_BYTES_PER_STATE = 350


def _graph_bytes(graph: StateGraph) -> int:
    seen = set()
    total = 0

    def add(obj) -> None:
        nonlocal total
        if id(obj) not in seen:
            seen.add(id(obj))
            total += sys.getsizeof(obj)

    store, cache = graph.store, graph.cache
    add(store._ids)
    add(store._states)
    for state, sid in store._ids.items():
        add(state)
        add(sid)
    for state in store._states:
        add(state)
    for rows in (cache.labels, cache.targets):
        add(rows)
        for row in rows:
            if row is not None:
                add(row)
    for targets in cache.targets:
        for sid in targets or ():
            add(sid)
    add(cache.violations)
    return total


@pytest.fixture(scope="module")
def graph():
    system = build_gas_station(customers=2, selective_delivery=True) \
        .to_system(fused=True)
    graph = StateGraph(system)
    assert check_safety(graph).ok
    return graph


def test_bytes_per_state_ceiling(graph):
    per_state = _graph_bytes(graph) / len(graph.store)
    assert per_state <= MAX_BYTES_PER_STATE, f"{per_state:.0f} B/state"


def test_one_object_per_state(graph):
    store = graph.store
    assert len(store._ids) == len(store._states) == 28_672
    for key, sid in store._ids.items():
        assert store._states[sid] is key
