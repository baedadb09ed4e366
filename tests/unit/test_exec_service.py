"""The executor service: ordered gather, error capture, retry hook,
worker-death recovery and the degraded serial fallback."""

from __future__ import annotations

import os
import tempfile

import pytest

from repro import fault
from repro.exec import ExecutorService, TaskError, call_guarded
from repro.exec.service import _process_entry
from repro.observe.metrics import MetricsRegistry


def _square(n):
    return n * n


def _crash_on_three(n):
    if n == 3:
        raise ValueError("three is right out")
    return n


def test_call_guarded_ok_and_error():
    assert call_guarded(_square, 4) == ("ok", 16)
    status, detail = call_guarded(_crash_on_three, 3)
    assert status == "error"
    assert "three is right out" in detail


def test_process_entry_is_picklable():
    import pickle

    payload = pickle.loads(pickle.dumps((_square, 5)))
    assert _process_entry(payload) == ("ok", 25)


@pytest.mark.parametrize("jobs", [1, 4], ids=["serial", "process"])
def test_modes_agree_and_preserve_order(jobs):
    with ExecutorService(jobs=jobs) as service:
        assert service.mode == ("serial" if jobs == 1 else "process")
        assert service.map(_square, range(10)) == [
            n * n for n in range(10)
        ]


def test_jobs_one_collapses_to_serial():
    service = ExecutorService(jobs=1)
    assert service.mode == "serial"
    assert service._pool is None
    assert service.map(_square, [3]) == [9]


def test_error_without_hook_raises_task_error():
    with ExecutorService(jobs=2) as service:
        with pytest.raises(TaskError) as excinfo:
            service.map(_crash_on_three, [1, 2, 3], labels=["a", "b", "c"])
    assert excinfo.value.label == "c"
    assert "three is right out" in excinfo.value.detail
    # The error names where and how the task ran, not just that it died.
    assert excinfo.value.mode == "process"
    assert excinfo.value.attempts == 1
    assert "mode process" in str(excinfo.value)


def test_on_error_hook_recovers_inline():
    recovered = []

    def on_error(item, label, detail):
        # Runs in the coordinator, so it may close over local state.
        recovered.append((item, label, os.getpid()))
        return -item

    with ExecutorService(jobs=2) as service:
        results = service.map(
            _crash_on_three, [1, 3, 5], labels=["a", "b", "c"],
            on_error=on_error,
        )
    assert results == [1, -3, 5]
    assert recovered == [(3, "b", os.getpid())]


def test_process_mode_crosses_process_boundary():
    with ExecutorService(jobs=2) as service:
        pids = service.map(_pid, range(4))
    assert os.getpid() not in pids


def _pid(_):
    return os.getpid()


# -- worker death, stalls, and the degraded fallback -------------------------


def _die_once_then_succeed(marker):
    """Kill the worker on first sight of *marker*; succeed afterwards.

    The marker file records that the first attempt happened, so the
    retried slice -- on a fresh worker -- completes.  os._exit mimics an
    abrupt worker death (no exception, no result).
    """
    if not os.path.exists(marker):
        with open(marker, "w", encoding="ascii") as handle:
            handle.write("died here\n")
        os._exit(86)
    return "recovered"


def test_worker_death_retries_slice_on_fresh_worker():
    registry = MetricsRegistry()
    marker = os.path.join(tempfile.mkdtemp(), "died")
    with ExecutorService(jobs=2, metrics=registry) as service:
        results = service.map(
            _die_once_then_succeed, [marker, marker], labels=["p0", "p1"]
        )
    assert results == ["recovered", "recovered"]
    assert not service.last_map_degraded  # the retry succeeded, no fallback
    assert service.last_attempts == 2
    assert "worker died" in service.last_failure or "deadline" in (
        service.last_failure or ""
    )
    assert registry.counter_value("exec.worker_failures") >= 1
    assert registry.counter_value("exec.retries") >= 1


def _always_die(_):
    os._exit(86)


def test_repeated_worker_death_degrades_to_serial():
    # The task kills every pool worker on every attempt; the map must
    # still complete -- via the coordinator's serial fallback -- and
    # flag the degradation.  Serially, _always_die would kill the test
    # process itself, so degrade with a task that only dies in workers.
    registry = MetricsRegistry()
    with ExecutorService(jobs=2, metrics=registry) as service:
        fault.arm("exec.worker_kill", times=8)
        try:
            results = service.map(_square, [2, 3], labels=["p0", "p1"])
        finally:
            fault.reset()
    assert results == [4, 9]
    assert service.last_map_degraded and service.degraded
    assert service.last_attempts == service.max_attempts + 1
    assert registry.counter_value("exec.degraded") == 1


def _stall_forever(n):
    import time

    time.sleep(3600)
    return n


def test_stalled_worker_hits_the_deadline_and_degrades():
    with ExecutorService(
        jobs=2, task_timeout=0.5, max_attempts=1
    ) as service:
        # Tasks stall only in pool workers (guarded by pid), so the
        # serial fallback completes.
        marker = os.getpid()
        results = service.map(_stall_unless_pid, [marker, marker])
    assert results == ["ran", "ran"]
    assert service.last_map_degraded
    assert "deadline" in service.last_failure


def _stall_unless_pid(coordinator_pid):
    if os.getpid() != coordinator_pid:
        import time

        time.sleep(3600)
    return "ran"


def test_close_is_idempotent_after_pool_breakage():
    service = ExecutorService(jobs=2)
    fault.arm("exec.worker_kill", times=8)
    try:
        service.map(_square, [1, 2])
    finally:
        fault.reset()
    service.close()
    service.close()  # idempotent, including after breakage
    assert service._pool is None


def test_worker_kill_failpoint_never_fires_serially():
    # The failpoint site lives in the pool entry, not call_guarded: a
    # serial service with the point armed must complete untouched.
    fault.arm("exec.worker_kill", times=8)
    try:
        service = ExecutorService(jobs=1)
        assert service.map(_square, [4]) == [16]
    finally:
        fault.reset()


def test_process_pool_persists_across_maps():
    with ExecutorService(jobs=2) as service:
        first = set(service.map(_pid, range(4)))
        pool = service._pool
        second = set(service.map(_pid, range(4)))
        # Same executor both rounds (workers kept, not respawned per map),
        # and work really left the coordinator.
        assert service._pool is pool and pool is not None
        assert os.getpid() not in first | second
    assert service._pool is None  # close() reaped them
