"""Footprint of the kept state graph, per state.

Graph-owned bytes per state on the fused 2-customer selective gas
station (28,672 states) after ``check_safety``, counted with
``sys.getsizeof`` and identity dedup over the store's id map and list,
the ``State`` objects, the sid ints, and the memo (state component
tuples excluded).  The memo is now its flat ``array`` buffers of target
and label ids, its sid-indexed ``start``/``count`` arrays and its label
table (84 labels); before, it was its row lists and rows, the labels
uncounted:

* 589 B — a raw tuple as the id-map key plus a second ``State`` object
  in the list, and one ``CachedTransition`` per edge in a dict memo;
* 307 B — one ``State`` object per state, a label tuple and a target
  tuple per state in sid-indexed lists;
* 196 B — flat rows: 8 B per edge and 12 B per state in four arrays,
  the memo 153 → 41 B/state.

Counting the component tuples too (every tuple reachable from a
state's ``locs``/``frames``/``chans``/``globals_``, identity-deduped)
and the store's canonical component tables:

* 516 B — each state holding private copies of most components
  (209 B of component tuples);
* 400 B — hash-consed components, one object per distinct value
  (70 B of component tuples plus 23 B of canonical tables);
* 288 B — the same, over flat memo rows.

The 2-customer graph's 28,672 states hold only 17,356 distinct
location vectors, 1,563 frame vectors, 19 channel vectors and 9 global
vectors; with hash-consing, that is also how many objects there are.
"""

import gc
import sys
import weakref

import pytest

from repro.mc import StateGraph, check_safety, check_safety_por
from repro.systems.gas_station import build_gas_station

#: Ceiling on graph-owned bytes per state, component tuples excluded
#: (measured 196 on CPython 3.11; 307 with tuple rows).
MAX_BYTES_PER_STATE = 215

#: Ceiling on everything the graph owns per state, component tuples and
#: canonical tables included (measured 288 on CPython 3.11; 400 with
#: tuple rows, 516 before components were hash-consed).
MAX_TOTAL_BYTES_PER_STATE = 317

#: Distinct ``locs``, ``frames``, ``chans`` and ``globals_`` values.
DISTINCT_COMPONENTS = (17_356, 1_563, 19, 9)


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
    for buffer in (cache.tgt, cache.lbl, cache.start, cache.count):
        add(buffer)
    add(cache.labels)
    add(cache._label_ids)
    for label in cache.labels:
        add(label)
    add(cache.violations)
    return total


def _component_bytes(graph: StateGraph) -> int:
    """Bytes of every tuple reachable from stored states' components."""
    seen = set()
    total = 0
    stack = [component for state in graph.store._states
             for component in state]
    while stack:
        obj = stack.pop()
        if id(obj) not in seen:
            seen.add(id(obj))
            total += sys.getsizeof(obj)
            stack.extend(x for x in obj if isinstance(x, tuple))
    return total


def _tables(store):
    return (store._locs, store._frames, store._chans, store._globals)


def _system():
    return build_gas_station(customers=2, selective_delivery=True) \
        .to_system(fused=True)


@pytest.fixture(scope="module")
def graph():
    graph = StateGraph(_system())
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


def test_total_bytes_per_state_ceiling(graph):
    total = (_graph_bytes(graph) + _component_bytes(graph)
             + sum(sys.getsizeof(t) for t in _tables(graph.store)))
    per_state = total / len(graph.store)
    assert per_state <= MAX_TOTAL_BYTES_PER_STATE, f"{per_state:.0f} B/state"


@pytest.mark.parametrize("jit", [True, False], ids=["jit", "tree-walk"])
def test_components_shared(jit):
    graph = StateGraph(_system(), jit=jit)
    assert check_safety(graph).ok
    states = graph.store._states
    for k, distinct in enumerate(DISTINCT_COMPONENTS):
        assert len({state[k] for state in states}) == distinct
        assert len({id(state[k]) for state in states}) == distinct


def test_mixed_writers_store_canonical_components():
    # POR interns through ``StateStore.intern``; the fused JIT driver
    # then reuses the unchanged components of those states as is.
    graph = StateGraph(_system(), jit=True)
    assert check_safety_por(graph).ok
    por_states = len(graph.store)
    assert check_safety(graph).ok
    assert len(graph.store) > por_states
    tables = _tables(graph.store)
    for state in graph.store._states:
        for component, table in zip(state, tables):
            assert table[component] is component
    for k, table in enumerate(tables):
        assert len(table) == DISTINCT_COMPONENTS[k]


def test_dropped_graph_is_freed_without_a_collection():
    # The JIT driver's namespaces (function <-> globals cycles) reference
    # the memo and the store; dropping the graph must release them by
    # reference counting, not leave them for the next full collection.
    gc.disable()
    try:
        graph = StateGraph(_system())
        assert check_safety(graph, max_states=500).ok
        label = weakref.ref(graph.cache.labels[0])
        del graph
        assert label() is None
    finally:
        gc.enable()
