"""Hand-pinned known answers for every generated benchmark input.

Provenance: each verdict and count below was produced once by the
compiled (JIT) engine and once more by the tree-walk interpreter
(``jit=False`` / ``REPRO_NO_JIT=1``), and the two agreed.  No number
was taken from the JIT alone.  A run whose output differs from this
table counts the operation as failed.

``states``/``transitions`` under ``verify`` are what the first check
stored before it stopped (at the first violation for FAIL designs);
``full_states``/``full_transitions`` are the whole reachable graph, as
``count_states`` reports it.
"""

LARGE_CHECK = {"ok": True, "states": 1_342_838, "transitions": 5_429_258}

#: design -> pinned results of each public call on it.
DESIGN_ANSWERS = {
    "gas-plain": {
        "verify": {"ok": False, "kind": "assertion", "states": 8_280,
                   "transitions": 26_655},
        "find_state": {"trace_steps": 90},
        "count_states": {"states": 21_496, "transitions": 74_362},
        "check_ltl": {"ok": True, "states": 21_496},
        "check_safety_por": {"ok": False, "states": 371},
    },
    "gas-selective": {
        "verify": {"ok": True, "kind": None, "states": 28_672,
                   "transitions": 99_402},
        "find_state": {"trace_steps": 92},
        "count_states": {"states": 28_672, "transitions": 99_402},
        "check_ltl": {"ok": True, "states": 28_672},
        "check_safety_por": {"ok": True, "states": 6_752},
    },
    "bridge-initial": {
        "verify": {"ok": False, "kind": "invariant", "states": 597,
                   "transitions": 1_671},
        "find_state": {"trace_steps": 12},
        "count_states": {"states": 59_190, "transitions": 251_173},
        "check_ltl": {"ok": False, "states": 56_472},
        "check_safety_por": {"ok": False, "states": 5_954},
    },
    "bridge-fixed": {
        "verify": {"ok": True, "kind": None, "states": 5_820,
                   "transitions": 20_656},
        "find_state": {"trace_steps": None},
        "count_states": {"states": 5_820, "transitions": 20_656},
        "check_ltl": {"ok": True, "states": 5_820},
        "check_safety_por": {"ok": True, "states": 218},
    },
    "bridge-atmostn": {
        "verify": {"ok": True, "kind": None, "states": 58_512,
                   "transitions": 205_676},
        "find_state": {"trace_steps": None},
        "count_states": {"states": 58_512, "transitions": 205_676},
        "check_ltl": {"ok": True, "states": 58_512},
        "check_safety_por": {"ok": True, "states": 15_186},
    },
    "abp": {
        "verify": {"ok": True, "kind": None, "states": 5_997,
                   "transitions": 15_091},
        "find_state": {"trace_steps": 22},
        "count_states": {"states": 5_997, "transitions": 15_091},
        "check_ltl": {"ok": True, "states": 5_997},
        "check_safety_por": {"ok": True, "states": 3_633},
    },
}

#: Variants of ``bridge_design_space(BridgeConfig(trips=1))``: the
#: paper's arc, async enter sends FAIL and sync ones PASS.
SWEEP_VARIANTS = {
    "exactly_n/send[BlueEnter]=asyn_blocking_send/send[RedEnter]=asyn_blocking_send":
        {"verdict": "FAIL", "states": 597},
    "exactly_n/send[BlueEnter]=syn_blocking_send/send[RedEnter]=syn_blocking_send":
        {"verdict": "PASS", "states": 5_820},
    "at_most_n/send[BlueEnter]=asyn_blocking_send/send[RedEnter]=asyn_blocking_send":
        {"verdict": "FAIL", "states": 338},
    "at_most_n/send[BlueEnter]=syn_blocking_send/send[RedEnter]=syn_blocking_send":
        {"verdict": "PASS", "states": 58_512},
}

#: ``verify_resilience`` on ABP (1 message, 2 sends, 2 polls), fused.
RESILIENCE = {
    "worst": "robust",
    "scenarios": {
        "baseline": {"verdict": "robust", "states": 5_997},
        "lossy data link": {"verdict": "robust", "states": 67_922},
        "duplicating data link": {"verdict": "robust", "states": 148_235},
        "reordering data link": {"verdict": "robust", "states": 86_644},
        "corrupting data link": {"verdict": "robust", "states": 146_086},
    },
}

#: Served verify jobs: the verdict, the states the check stored, and the
#: full reachable count (the floor for a ``max_states`` that keeps the
#: verdict complete).
SERVE_ANSWERS = {
    "gas-selective": {"verdict": "PASS", "states": 28_672,
                      "full_states": 28_672},
    "gas-plain": {"verdict": "FAIL", "states": 8_280, "full_states": 21_496},
    "bridge-fixed": {"verdict": "PASS", "states": 5_820, "full_states": 5_820},
    "bridge-initial": {"verdict": "FAIL", "states": 597,
                       "full_states": 59_190},
    "bridge-atmostn": {"verdict": "PASS", "states": 58_512,
                       "full_states": 58_512},
    "abp": {"verdict": "PASS", "states": 5_997, "full_states": 5_997},
}
