"""Supervised service jobs: sandboxes start from a fork server.

The fork server keeps the environment it started with, so a failpoint
set on the daemon afterwards must travel with the job itself.
"""

from repro.design.supervise import RetryPolicy
from repro.serve import JobManager


def _spec(n: int) -> dict:
    # Distinct budgets above the full state count: distinct
    # fingerprints (no warm hits between the jobs), complete verdicts.
    return {"kind": "verify", "system": "bridge",
            "options": {"max_states": 1_000_000 + n}}


def _run(manager: JobManager, n: int) -> dict:
    job_id = manager.submit(_spec(n))["job_id"]
    return manager.wait(job_id, timeout=120)


def test_failpoint_set_after_start_reaches_the_sandbox(tmp_path, inject,
                                                       monkeypatch):
    manager = JobManager(str(tmp_path / "cache"), workers=1,
                         retry=RetryPolicy(max_retries=0))
    try:
        view = _run(manager, 1)
        assert view["status"] == "done", view
        assert view["verdict"] == "PASS"

        inject("serve.run=raise")
        view = _run(manager, 2)
        assert view["status"] == "failed", view
        assert "injected failure at failpoint 'serve.run'" in view["error"]

        monkeypatch.delenv("REPRO_FAILPOINTS")
        view = _run(manager, 3)
        assert view["status"] == "done", view
    finally:
        manager.close()
