"""Seeded inputs for the four benchmark workloads.

The benchmark's seed stops here: the program under test receives only
the generated inputs (design order, check order, sub-space choice, the
serve job list), never the seed.  ``make_inputs`` is a pure function of
``(workload, seed)``; ``digest`` names the result so two runs can be
compared without diffing JSON.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Any, Dict, List, Optional

WORKLOADS = ("large-check", "design-session", "sweep", "serve-mix")

#: The six fused case-study designs of the design-session workload.
DESIGNS = ("gas-plain", "gas-selective", "bridge-initial", "bridge-fixed",
           "bridge-atmostn", "abp")

#: Follow-up checks run on each design's kept state graph.
FOLLOW_UPS = ("find_state", "count_states", "check_ltl", "check_safety_por")

#: Design-session orders drawn per run; iteration ``i`` runs order
#: ``i % SESSIONS``, so a run pools several orders and its figures lean
#: less on any one of them.
SESSIONS = 8

#: Bases of ``bridge_design_space``; the seed picks the sub-space's.
BRIDGE_BASES = ("exactly_n", "at_most_n")

#: Serve specs by name: (system, options).  Every one checks in <= 1.5 s.
SERVE_SPECS = {
    "gas-selective": ("gas", {"customers": 2, "selective": True}),
    "gas-plain": ("gas", {"customers": 2, "selective": False}),
    "bridge-fixed": ("bridge", {"variant": "fixed"}),
    "bridge-initial": ("bridge", {"variant": "initial"}),
    "bridge-atmostn": ("bridge", {"variant": "atmostn"}),
    "abp": ("abp", {}),
}

#: Specs each client submits once cold and then repeats warm.
SERVE_HOT = (("gas-selective", "bridge-fixed"), ("bridge-atmostn", "abp"))
#: Warm repeats of each hot spec.
SERVE_REPEATS = 12

#: Unique cold jobs per client, by spec.  The mix is fixed so the cold
#: class does not depend on the seed; only the order and the
#: ``max_states`` values do.  Per round: 48 warm and 12 cold jobs (4
#: fast, 5 gas-selective, 3 at-most-N), so p90 falls amid the
#: gas-selective cold jobs.
SERVE_COLD_PER_CLIENT = {"gas-selective": 2, "gas-plain": 1,
                         "bridge-atmostn": 1}


def _spec(name: str, max_states: Optional[int] = None) -> Dict[str, Any]:
    system, options = SERVE_SPECS[name]
    options = dict(options)
    if max_states is not None:
        options["max_states"] = max_states
    return {"name": name, "spec": {"kind": "verify", "system": system,
                                   "options": options}}


def _serve_jobs(rng: random.Random) -> List[List[Dict[str, Any]]]:
    from answers import SERVE_ANSWERS

    offsets = rng.sample(range(1, 100_000), len(SERVE_HOT) * sum(
        SERVE_COLD_PER_CLIENT.values()))
    clients = []
    for owned in SERVE_HOT:
        # Each client owns its hot specs, so a repeat never races its
        # first run (which would coalesce instead of hitting the cache).
        jobs = [_spec(name) for name in owned for _ in range(SERVE_REPEATS + 1)]
        for name, count in SERVE_COLD_PER_CLIENT.items():
            for _ in range(count):
                # A distinct budget above the full state count: a new
                # fingerprint, so a cold run, with a complete verdict.
                bound = SERVE_ANSWERS[name]["full_states"] + offsets.pop()
                jobs.append(_spec(name, max_states=bound))
        rng.shuffle(jobs)
        clients.append(jobs)
    return clients


def make_inputs(workload: str, seed: int) -> Dict[str, Any]:
    """The generated inputs of one run of *workload* under *seed*."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    if workload == "large-check":
        # Fixed input: the seed does not affect it.
        return {"workload": workload,
                "system": "gas_station(customers=3, selective, fused)"}
    if workload == "design-session":
        return {"workload": workload, "sessions": [
            [{"design": d, "checks": rng.sample(FOLLOW_UPS, len(FOLLOW_UPS))}
             for d in rng.sample(DESIGNS, len(DESIGNS))]
            for _ in range(SESSIONS)]}
    if workload == "sweep":
        first = rng.choice(BRIDGE_BASES)
        # Iterations alternate the sub-space base, so a run of an even
        # number of iterations holds both, whatever the seed.
        return {"workload": workload,
                "sub_bases": [first] + [b for b in BRIDGE_BASES if b != first]}
    return {"workload": workload, "clients": _serve_jobs(rng)}


def digest(inputs: Dict[str, Any]) -> str:
    """SHA-256 of the canonical JSON form of *inputs*."""
    text = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
