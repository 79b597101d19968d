"""Tests for repro.mc.explore: safety BFS, deadlocks, state counting."""

import gc
from collections import deque

import pytest

from repro.mc import (
    StateGraph,
    StateLimitExceeded,
    VIOLATION_ASSERTION,
    VIOLATION_DEADLOCK,
    VIOLATION_INVARIANT,
    check_safety,
    count_states,
    find_state,
    global_prop,
    reachable_states,
    sweep_safety,
)
from repro.mc.explore import (
    _gc_paused,
    _sample_dense_frontier,
    _sample_frontier,
)
from repro.mc.result import Statistics
from repro.psl.errors import ExecutionError
from repro.psl import (
    Assert,
    Assign,
    Branch,
    Do,
    DStep,
    EndLabel,
    Guard,
    ProcessDef,
    Seq,
    Skip,
    System,
    V,
)


def counter_system(limit, with_assert=None, end_label=True):
    """One process counting g up to `limit`."""
    body_stmts = []
    branch_stmts = [Guard(V("g") < limit), Assign("g", V("g") + 1)]
    if with_assert is not None:
        branch_stmts.append(Assert(with_assert))
    stmts = [Do(
        Branch(*branch_stmts),
        Branch(Guard(V("g") == limit), *( [EndLabel()] if end_label else [Skip()] )),
    )]
    s = System("counter")
    s.add_global("g", 0)
    s.spawn(ProcessDef("p", Seq(stmts)), "i")
    return s


class TestAssertionChecking:
    def test_violation_found(self):
        r = check_safety(counter_system(5, with_assert=(V("g") < 3)),
                         check_deadlock=False)
        assert not r.ok
        assert r.kind == VIOLATION_ASSERTION

    def test_violation_has_trace(self):
        r = check_safety(counter_system(5, with_assert=(V("g") < 3)),
                         check_deadlock=False)
        assert r.trace is not None
        assert len(r.trace) > 0

    def test_bfs_gives_shortest_counterexample(self):
        # the assert first fails when g reaches 3: guard,inc,assert x3 = 9 steps
        r = check_safety(counter_system(5, with_assert=(V("g") < 3)),
                         check_deadlock=False)
        assert len(r.trace) == 9

    def test_clean_system_passes(self):
        r = check_safety(counter_system(4, with_assert=(V("g") <= 4)),
                         check_deadlock=False)
        assert r.ok

    def test_assertions_can_be_disabled(self):
        r = check_safety(counter_system(5, with_assert=(V("g") < 3)),
                         check_assertions=False, check_deadlock=False)
        assert r.ok


class TestInvariantChecking:
    def test_invariant_violation(self):
        p = global_prop("small", lambda v: v.global_("g") < 3, "g")
        r = check_safety(counter_system(5), invariants=[p],
                         check_deadlock=False)
        assert not r.ok
        assert r.kind == VIOLATION_INVARIANT
        assert "small" in r.message

    def test_invariant_holds(self):
        p = global_prop("bounded", lambda v: v.global_("g") <= 5, "g")
        r = check_safety(counter_system(5), invariants=[p],
                         check_deadlock=False)
        assert r.ok

    def test_initial_state_violation(self):
        p = global_prop("never", lambda v: False)
        r = check_safety(counter_system(1), invariants=[p],
                         check_deadlock=False)
        assert not r.ok
        assert "initial state" in r.message
        assert len(r.trace) == 0

    def test_counterexample_ends_in_violating_state(self):
        p = global_prop("small", lambda v: v.global_("g") < 2, "g")
        r = check_safety(counter_system(5), invariants=[p],
                         check_deadlock=False)
        final = r.trace.final_state
        assert final.globals_[0] == 2


class TestDeadlockChecking:
    def test_blocked_process_is_deadlock(self):
        s = System("d")
        s.add_global("g", 0)
        s.spawn(ProcessDef("p", Guard(V("g") == 1)), "stuck")
        r = check_safety(s)
        assert not r.ok
        assert r.kind == VIOLATION_DEADLOCK
        assert "stuck" in r.message

    def test_end_label_makes_block_valid(self):
        s = System("d")
        s.add_global("g", 0)
        s.spawn(ProcessDef("p", Seq([EndLabel(), Guard(V("g") == 1)])), "idle")
        r = check_safety(s)
        assert r.ok

    def test_terminated_system_is_not_deadlock(self):
        s = System("d")
        s.add_global("g", 0)
        s.spawn(ProcessDef("p", Assign("g", 1)), "i")
        assert check_safety(s).ok

    def test_deadlock_check_can_be_disabled(self):
        s = System("d")
        s.add_global("g", 0)
        s.spawn(ProcessDef("p", Guard(V("g") == 1)), "stuck")
        assert check_safety(s, check_deadlock=False).ok


class TestSweep:
    def test_stop_at_first_collects_one(self):
        p = global_prop("never", lambda v: v.global_("g") < 1, "g")
        report = sweep_safety(counter_system(3), invariants=[p],
                              check_deadlock=False)
        assert len(report.results) == 1

    def test_full_sweep_collects_all(self):
        p1 = global_prop("lt1", lambda v: v.global_("g") < 1, "g")
        p2 = global_prop("lt2", lambda v: v.global_("g") < 2, "g")
        report = sweep_safety(counter_system(3), invariants=[p1, p2],
                              check_deadlock=False, stop_at_first=False)
        assert len(report.results) >= 2
        assert not report.ok

    def test_clean_sweep_ok(self):
        report = sweep_safety(counter_system(2))
        assert report.ok
        assert report.results == []


class TestCountAndLimits:
    def test_count_states_counter(self):
        stats = count_states(counter_system(4))
        # g=0..4, two locations... the loop-head location dominates;
        # exact count: g values 0..4 at head + intermediate locations
        assert stats.states_stored >= 5
        assert stats.transitions >= stats.states_stored - 1

    def test_state_limit_enforced(self):
        with pytest.raises(StateLimitExceeded):
            count_states(counter_system(1000), max_states=10,
                         raise_on_limit=True)

    def test_state_limit_graceful_by_default(self):
        stats = count_states(counter_system(1000), max_states=10)
        assert stats.incomplete
        assert stats.budget_exhausted == "state budget"
        assert stats.states_stored >= 10

    def test_reachable_states_contains_initial(self):
        s = counter_system(2)
        states = reachable_states(s)
        assert s.initial_state() == states[0]

    def test_reachable_states_always_raises_on_limit(self):
        with pytest.raises(StateLimitExceeded):
            reachable_states(counter_system(1000), max_states=10)

    def test_check_safety_respects_limit(self):
        with pytest.raises(StateLimitExceeded):
            check_safety(counter_system(1000), max_states=10,
                         raise_on_limit=True)

    def test_check_safety_partial_result_on_state_budget(self):
        r = check_safety(counter_system(1000), max_states=10)
        assert r.ok  # no violation found so far...
        assert r.incomplete  # ...but the space was not exhausted
        assert not r.proved
        assert r.budget_exhausted == "state budget"
        assert "incomplete" in r.summary()

    def test_check_safety_partial_result_on_time_budget(self):
        r = check_safety(counter_system(100000), max_seconds=0.0)
        assert r.ok and r.incomplete
        assert r.budget_exhausted == "time budget"

    def test_budget_does_not_mask_found_violation(self):
        # A violation discovered before the budget runs out is definitive.
        r = check_safety(counter_system(5, with_assert=(V("g") < 3)),
                         check_deadlock=False, max_states=10**6)
        assert not r.ok
        assert not r.incomplete


class TestBudgetAccounting:
    """Regression tests for the check-before-pop budget fix.

    Historically ``sweep_safety`` checked the budget *after* popping a
    frontier state, so the popped state was dropped unexpanded and the
    partial statistics undercounted its transitions.  The invariant
    pinned here: every state the sweep pops is fully expanded, so the
    graph's transition cache holds exactly ``states_expanded`` entries
    and the transition tally equals the sum of their out-degrees.
    """

    def test_partial_stats_match_expanded_states(self):
        graph = StateGraph(counter_system(1000))
        report = sweep_safety(graph, max_states=25, check_deadlock=False)
        assert report.incomplete
        stats = report.stats
        expanded = [sid for sid in range(len(graph.store))
                    if graph.cache.peek(sid) is not None]
        assert stats.states_expanded == len(expanded)
        assert stats.states_expanded == graph.n_states_expanded
        assert stats.transitions == sum(
            len(graph.cache.peek(sid)) for sid in expanded)

    def test_zero_time_budget_expands_nothing(self):
        # An immediately exhausted budget must not pop (and silently
        # drop) the initial frontier state.
        graph = StateGraph(counter_system(1000))
        report = sweep_safety(graph, max_seconds=0.0)
        assert report.incomplete
        assert report.budget_exhausted == "time budget"
        assert report.stats.states_expanded == 0
        assert report.stats.transitions == 0
        assert len(graph.cache) == 0

    def test_complete_sweep_expands_every_stored_state(self):
        report = sweep_safety(counter_system(30))
        assert not report.incomplete
        assert report.stats.states_expanded == report.stats.states_stored
        assert report.stats.states_expanded > 0


class TestFindState:
    def test_finds_reachable_state(self):
        p = global_prop("g3", lambda v: v.global_("g") == 3, "g")
        trace = find_state(counter_system(5), p)
        assert trace is not None
        assert trace.final_state.globals_[0] == 3

    def test_unreachable_returns_none(self):
        p = global_prop("g99", lambda v: v.global_("g") == 99, "g")
        assert find_state(counter_system(5), p) is None

    def test_initial_state_match_is_empty_trace(self):
        p = global_prop("g0", lambda v: v.global_("g") == 0, "g")
        trace = find_state(counter_system(5), p)
        assert trace is not None and len(trace) == 0

    def test_trace_is_shortest(self):
        p = global_prop("g1", lambda v: v.global_("g") == 1, "g")
        trace = find_state(counter_system(5), p)
        # guard then increment: two steps
        assert len(trace) == 2


class TestMemoAfterModelError:
    def test_failed_expansion_leaves_no_partial_row(self):
        # In the initial state `setter` has a transition and `broken`'s
        # d_step fails part-way (a model error raised mid-row).  The
        # next state's row must not inherit the failed row's edges.
        s = System("broken")
        s.add_global("g", 0)
        s.add_global("h", 0)
        s.spawn(ProcessDef("setter", Assign("g", 1)), "a")
        s.spawn(ProcessDef("broken", DStep([
            Guard(V("g") == 0), Assign("h", 1), Guard(V("h") == 99)])), "b")
        graph = StateGraph(s)
        with pytest.raises(ExecutionError, match="blocked"):
            graph.successors(graph.initial_id)
        assert len(graph.store) == 2  # the setter's target got interned
        assert graph.row(1) == ((), ())

    @pytest.mark.parametrize("jit", [True, False], ids=["jit", "tree-walk"])
    def test_failed_expansion_truncates_the_flat_buffers(self, jit):
        # The initial state expands cleanly (one edge); in the next
        # state `setter`'s edge is written before `broken`'s d_step
        # fails.  The buffers must drop that partial row, and the
        # failed state must stay unexpanded, raising again.
        s = System("broken")
        s.add_global("g", 0)
        s.add_global("h", 0)
        s.spawn(ProcessDef("setter", Seq([Assign("g", 1),
                                          Assign("g", 2)])), "a")
        s.spawn(ProcessDef("broken", DStep([
            Guard(V("g") == 1), Assign("h", 1), Guard(V("h") == 99)])), "b")
        graph = StateGraph(s, jit=jit)
        cache = graph.cache
        assert len(graph.successors(graph.initial_id)) == 1
        for _ in range(2):
            with pytest.raises(ExecutionError, match="blocked"):
                graph.successors(1)
            assert not cache.is_expanded(1)
            expanded = [sid for sid in range(len(graph.store))
                        if cache.is_expanded(sid)]
            assert expanded == [graph.initial_id]
            total = sum(cache.count[sid] for sid in expanded)
            assert len(cache.tgt) == len(cache.lbl) == total == 1
            assert not cache.violations
        # The driver interned the partial row's target before the error
        # (its edge was dropped); the tree-walk path raises first.
        assert len(graph.store) == (3 if jit else 2)


class TestDenseFrontierSample:
    @pytest.mark.parametrize("n", [0, 1, 2, 16, 63, 64, 65, 1_000, 26_017])
    def test_matches_a_deque_of_ids(self, n):
        # The dense walks once sized their peak frontier by building
        # ``deque(range(n))``; the sample must stay byte-identical.
        old = Statistics()
        if n > 1:
            _sample_frontier(old, deque(range(n)))
        new = Statistics()
        _sample_dense_frontier(new, n)
        assert new.peak_frontier_bytes == old.peak_frontier_bytes


class TestGcPause:
    def test_walk_objects_leave_the_young_generations(self):
        # A walk's survivors must not stay young: the first young
        # collection after a million-state walk would traverse them all.
        assert gc.isenabled()
        with _gc_paused():
            made = [[i] for i in range(1000)]
        assert gc.isenabled()
        young = {id(o) for gen in (0, 1) for o in gc.get_objects(gen)}
        assert not any(id(o) in young for o in made)
        assert id(made) not in young

    def test_caller_frozen_objects_stay_frozen(self):
        # Promoting the walk's objects through freeze/unfreeze would
        # thaw whatever the caller froze on purpose, so it is skipped.
        held = [[i] for i in range(100)]
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            with _gc_paused():
                [[i] for i in range(100)]
            assert gc.get_freeze_count() == frozen
            assert gc.isenabled()
        finally:
            gc.unfreeze()
        assert held


class TestResultFormatting:
    def test_summary_mentions_states(self):
        r = check_safety(counter_system(2))
        assert "states" in r.summary()
        assert "PASS" in r.summary()

    def test_fail_summary(self):
        p = global_prop("no", lambda v: v.global_("g") < 1, "g")
        r = check_safety(counter_system(3), invariants=[p],
                         check_deadlock=False)
        assert "FAIL" in r.summary()

    def test_bool_conversion(self):
        assert check_safety(counter_system(2))
        p = global_prop("no", lambda v: v.global_("g") < 1, "g")
        assert not check_safety(counter_system(3), invariants=[p],
                                check_deadlock=False)

    def test_trace_pretty_prints_steps(self):
        p = global_prop("no", lambda v: v.global_("g") < 1, "g")
        r = check_safety(counter_system(3), invariants=[p],
                         check_deadlock=False)
        text = r.trace.pretty()
        assert "1." in text

    def test_trace_pretty_truncation(self):
        p = global_prop("no", lambda v: v.global_("g") < 3, "g")
        r = check_safety(counter_system(5), invariants=[p],
                         check_deadlock=False)
        text = r.trace.pretty(max_steps=2)
        assert "more steps" in text
