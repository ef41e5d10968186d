"""Concurrency regression suite for the fixes the daemon flushed out.

These are the library-level races the serving work exposed: checkpoint
shards hammered from many threads, the metrics registry as a shared
sink, per-task obs sessions, and the per-build compile memo.  Each test
would flake (or deadlock) against the pre-fix implementations.
"""

import concurrent.futures as cf
import json
import threading

import pytest

from repro import obs
from repro.core import BuildConfig, build_graph, compiled_plan
from repro.core.checkpoint import CheckpointStore, ShardKey
from repro.obs.metrics import MetricsRegistry
from repro.mpisim import run
from tests.conftest import _ring_program


@pytest.fixture(scope="module")
def ring_build():
    trace = run(_ring_program, nprocs=4, seed=3).trace
    return build_graph(trace, BuildConfig())


class TestCheckpointStoreHammering:
    def test_concurrent_put_get_same_key_never_tears(self, tmp_path):
        """16 threads × 30 rounds of put+get on one key: every get sees
        either a miss or the complete row — never a torn/corrupt shard."""
        store = CheckpointStore(tmp_path)
        key = ShardKey(kind="mc", seed=1, signature="s", scale=1.0,
                       mode="additive", engine="compiled", context="c")
        row = [float(i) * 1.5 for i in range(64)]

        def hammer(worker):
            for _ in range(30):
                store.put(key, row)
                got = store.get(key)
                assert got is None or got == row
            return worker

        with cf.ThreadPoolExecutor(16) as ex:
            assert sorted(ex.map(hammer, range(16))) == list(range(16))
        assert store.get(key) == row
        # exactly one shard file, no leftover temp files
        leftovers = [p.name for p in tmp_path.iterdir() if ".tmp." in p.name]
        assert leftovers == []

    def test_concurrent_distinct_keys_all_land(self, tmp_path):
        store = CheckpointStore(tmp_path)

        def put_one(i):
            key = ShardKey(kind="mc", seed=i, signature="s", scale=1.0,
                           mode="additive", engine="streaming", context="c")
            store.put(key, [float(i)])
            return store.get(key)

        with cf.ThreadPoolExecutor(12) as ex:
            rows = list(ex.map(put_one, range(48)))
        assert rows == [[float(i)] for i in range(48)]


class TestMetricsRegistryAtomicity:
    def test_concurrent_increments_are_exact(self):
        reg = MetricsRegistry()

        def bump(_):
            for _ in range(1000):
                reg.counter("hits").inc()

        with cf.ThreadPoolExecutor(8) as ex:
            list(ex.map(bump, range(8)))
        assert reg.counter("hits").value == 8000

    def test_concurrent_merge_totals_match_serial(self):
        reg = MetricsRegistry()
        donor = MetricsRegistry()
        donor.counter("n").inc(5)
        donor.timer("t").observe(0.25)
        snapshot = donor.snapshot()

        def merge(_):
            for _ in range(100):
                reg.merge(snapshot)

        with cf.ThreadPoolExecutor(8) as ex:
            list(ex.map(merge, range(8)))
        assert reg.counter("n").value == 8 * 100 * 5
        assert reg.timer("t").count == 8 * 100


class TestSessionScopeIsolation:
    def test_parallel_task_sessions_do_not_cross_contaminate(self):
        """Threads with their own session_scope record only their own
        spans; the daemon-style absorb produces exact aggregate counts."""
        daemon = obs.Session("aggregate")
        barrier = threading.Barrier(6)

        def one_request(i):
            session = obs.Session(f"req{i}")
            with obs.session_scope(session=session):
                barrier.wait()
                for _ in range(i + 1):
                    with obs.span("work", worker=i):
                        pass
            daemon.absorb(session.drain())
            return len(session.completed_spans())

        with cf.ThreadPoolExecutor(6) as ex:
            counts = list(ex.map(one_request, range(6)))
        # each session saw exactly its own spans, nobody else's
        assert counts == [i + 1 for i in range(6)]
        spans = daemon.completed_spans()
        assert len(spans) == sum(range(1, 7))
        by_worker = {}
        for record in spans:
            by_worker.setdefault(record.attrs["worker"], 0)
            by_worker[record.attrs["worker"]] += 1
        assert by_worker == {i: i + 1 for i in range(6)}

    def test_global_start_race_yields_single_winner(self):
        obs.stop()
        barrier = threading.Barrier(8)
        sessions = []

        def racer(_):
            barrier.wait()
            sessions.append(obs.start("race"))

        threads = [threading.Thread(target=racer, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        try:
            assert len({id(s) for s in sessions}) == 1
        finally:
            obs.stop()


class TestCompileCoalescing:
    def test_threads_share_exactly_one_compile(self, ring_build):
        """8 threads demand the compiled plan of one build: the memo
        lock admits one compiler; everyone gets the same plan object."""
        obs.stop()
        session = obs.start("compile-race")
        try:
            barrier = threading.Barrier(8)

            def get_plan(_):
                barrier.wait()
                return compiled_plan(ring_build, coarsen="off")

            with cf.ThreadPoolExecutor(8) as ex:
                plans = list(ex.map(get_plan, range(8)))
            assert len({id(p) for p in plans}) == 1
            compiles = [r for r in session.completed_spans() if r.name == "compiled.compile"]
            assert len(compiles) == 1
        finally:
            obs.stop()

    def test_build_pickles_without_the_compile_lock(self, ring_build):
        import pickle

        compiled_plan(ring_build, coarsen="off")  # installs memo + lock
        clone = pickle.loads(pickle.dumps(ring_build))
        assert "_compiled_plans_lock" not in clone.__dict__
        # the clone can still compile (fresh lock on demand)
        assert compiled_plan(clone, coarsen="off") is not None


class TestResponseStability:
    def test_render_is_stable_across_json_round_trips(self):
        """The wire contract: a JSON round-trip never changes the bytes
        a render produces (shortest-repr float round-tripping)."""
        from repro.serve.client import render_analyze

        result = {"summary": {"mean": 1.0000000000000002e-16, "p95": 3.141592653589793},
                  "samples": [[0.1 + 0.2, 1e308, 5e-324]]}
        once = render_analyze(result)
        again = render_analyze(json.loads(once))
        assert once == again
