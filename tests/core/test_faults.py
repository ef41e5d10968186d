"""Fault-injection tests for the chunk scheduler (repro.testing.faults).

Every scenario here injects a *deterministic* fault into a pooled run
and asserts two things: the scheduler's reaction (retry / speculate /
restart / policy) is visible in the ``parallel.*`` metrics, and the
results remain bit-for-bit equal to a clean serial run — fault handling
may never change an answer.
"""

import multiprocessing
import time

import numpy as np
import pytest

from repro import obs
from repro.core.parallel import (
    ChunkTimeoutError,
    FaultPolicy,
    ProcessPoolBackend,
    SerialBackend,
)
from repro.testing import FailItem, FaultyFn, KillWorker, SlowItem, item_key

pytestmark = pytest.mark.usefixtures("no_obs_session")


@pytest.fixture
def no_obs_session():
    obs.stop()
    yield
    obs.stop()


def _double(payload, item):
    obs.add("test.items")
    return item * 2


ITEMS = list(range(8))
SERIAL = SerialBackend().map(_double, ITEMS)


def pool(policy, jobs=2):
    # chunk_size=1: every item is its own chunk, so `on` targets one chunk.
    return ProcessPoolBackend(jobs, chunk_size=1, policy=policy)


class TestItemKey:
    def test_tuple_keys_on_first_element(self):
        assert item_key((7, "spec")) == 7
        assert item_key([3, 4]) == 3

    def test_scalar_is_its_own_key(self):
        assert item_key(5) == 5
        assert item_key(()) == ()


class TestWorkerExceptionsAreLoud:
    def test_worker_oserror_propagates(self):
        """The satellite fix: a worker-raised OSError must surface, not
        silently re-run the workload serially (the old pool.map path
        swallowed it via _POOL_UNAVAILABLE)."""
        fn = FaultyFn(_double, (FailItem(on=3, exc="OSError"),))
        with pytest.raises(OSError, match="injected fault"):
            pool(FaultPolicy(retries=0)).map(fn, ITEMS)

    def test_worker_importerror_propagates(self):
        fn = FaultyFn(_double, (FailItem(on=0, exc="ImportError"),))
        with pytest.raises(ImportError):
            pool(FaultPolicy(retries=0)).map(fn, ITEMS)

    def test_no_serial_fallback_warning_for_worker_errors(self):
        import warnings

        fn = FaultyFn(_double, (FailItem(on=3),))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(OSError):
                pool(FaultPolicy(retries=0)).map(fn, ITEMS)


class TestRetry:
    def test_transient_failure_retried_to_success(self, tmp_path):
        fn = FaultyFn(_double, (FailItem(on=3, flag=str(tmp_path / "once")),))
        with obs.observed("t") as session:
            results = pool(FaultPolicy(retries=2, backoff=0.0)).map(fn, ITEMS)
        assert results == SERIAL
        assert session.metrics.counter("parallel.chunk_retries").value >= 1

    def test_retry_exhaustion_fails(self):
        fn = FaultyFn(_double, (FailItem(on=3, exc="RuntimeError"),))
        with obs.observed("t") as session:
            with pytest.raises(RuntimeError, match="injected fault"):
                pool(FaultPolicy(retries=1, backoff=0.0)).map(fn, ITEMS)
        assert session.metrics.counter("parallel.chunk_retries").value == 1


def assert_no_workers_left(grace: float = 2.0) -> None:
    """No pool worker may outlive ``map`` — not even one still running
    a timed-out chunk (the sleeping straggler would last 8 s)."""
    deadline = time.monotonic() + grace
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert multiprocessing.active_children() == []


class TestStragglerTimeout:
    def test_speculative_resubmit_wins(self, tmp_path):
        """First attempt of one chunk sleeps past the deadline; the
        speculative twin computes the same bits and wins the race."""
        fn = FaultyFn(_double, (SlowItem(on=3, seconds=8.0, flag=str(tmp_path / "slow")),))
        with obs.observed("t") as session:
            results = pool(FaultPolicy(timeout=0.5, retries=2)).map(fn, ITEMS)
        assert results == SERIAL
        assert session.metrics.counter("parallel.chunk_timeouts").value >= 1
        assert_no_workers_left()

    def test_persistent_straggler_times_out(self):
        fn = FaultyFn(_double, (SlowItem(on=3, seconds=8.0),))
        with pytest.raises(ChunkTimeoutError, match="exceeded"):
            pool(FaultPolicy(timeout=0.3, retries=0)).map(fn, ITEMS)
        assert_no_workers_left()


class TestWorkerDeath:
    def test_pool_restart_keeps_completed_chunks(self, tmp_path):
        fn = FaultyFn(_double, (KillWorker(on=3, flag=str(tmp_path / "kill")),))
        with obs.observed("t") as session:
            results = pool(FaultPolicy()).map(fn, ITEMS)
        assert results == SERIAL
        assert session.metrics.counter("parallel.pool_restarts").value == 1
        # Worker obs blobs are absorbed exactly once per completed chunk:
        # resubmitted chunks recount, stale twins and dead pools do not.
        assert session.metrics.counter("test.items").value == len(ITEMS)
        assert session.metrics.counter("parallel.chunks_completed").value == len(ITEMS)

    def test_restart_budget_exhaustion_fails(self, tmp_path):
        from concurrent.futures.process import BrokenProcessPool

        fn = FaultyFn(_double, (KillWorker(on=3, flag=str(tmp_path / "kill")),))
        with pytest.raises(BrokenProcessPool):
            pool(FaultPolicy(max_pool_restarts=0)).map(fn, ITEMS)


class TestFailurePolicies:
    def test_skip_returns_none_rows(self):
        fn = FaultyFn(_double, (FailItem(on=3),))
        with obs.observed("t") as session:
            results = pool(FaultPolicy(retries=0, on_failure="skip")).map(fn, ITEMS)
        assert results == [None if i == 3 else i * 2 for i in ITEMS]
        assert session.metrics.counter("parallel.chunks_skipped").value == 1

    def test_degrade_reruns_chunk_in_parent(self):
        # worker_only: the fault fires in every pool worker but not in
        # the parent, so the degrade re-run succeeds.
        fn = FaultyFn(_double, (FailItem(on=3, worker_only=True),))
        with obs.observed("t") as session:
            results = pool(FaultPolicy(retries=0, on_failure="degrade")).map(fn, ITEMS)
        assert results == SERIAL
        assert session.metrics.counter("parallel.chunks_degraded").value == 1


class TestPolicyValidation:
    def test_bad_timeout(self):
        with pytest.raises(ValueError):
            FaultPolicy(timeout=0)

    def test_bad_retries(self):
        with pytest.raises(ValueError):
            FaultPolicy(retries=-1)

    def test_bad_backoff(self):
        with pytest.raises(ValueError):
            FaultPolicy(backoff=-0.1)

    def test_bad_on_failure(self):
        with pytest.raises(ValueError, match="on_failure"):
            FaultPolicy(on_failure="explode")

    def test_bad_max_pool_restarts(self):
        with pytest.raises(ValueError):
            FaultPolicy(max_pool_restarts=-1)
