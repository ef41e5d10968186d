"""Tests for streaming trace readers."""

import pytest

from repro.trace.events import EventKind, EventRecord, TraceMeta
from repro.trace.reader import (
    MemoryTrace,
    RankStream,
    TraceReader,
    TraceSet,
    find_trace_files,
)
from repro.trace.writer import TraceSetWriter, TraceWriter


def make_events(rank, n):
    return [
        EventRecord(rank=rank, seq=i, kind=EventKind.RECV, t_start=float(i), t_end=float(i) + 0.25)
        for i in range(n)
    ]


def write_set(tmp_path, stem, nprocs, per_rank=4, binary=False):
    with TraceSetWriter(tmp_path, stem, nprocs=nprocs, binary=binary) as ws:
        for r in range(nprocs):
            for e in make_events(r, per_rank):
                ws.record(e)
    return ws.paths()


class TestTraceReader:
    def test_streams_lazily(self, tmp_path):
        path = write_set(tmp_path, "a", 1, per_rank=10)[0]
        reader = TraceReader(path)
        it = reader.events()
        first = next(it)
        assert first.seq == 0
        assert len(list(it)) == 9

    def test_multiple_iterations_independent(self, tmp_path):
        path = write_set(tmp_path, "a", 1)[0]
        reader = TraceReader(path)
        assert list(reader.events()) == list(reader.events())

    def test_binary_sniffing(self, tmp_path):
        # A binary trace with an unusual extension is still detected.
        meta = TraceMeta(rank=0, nprocs=1)
        odd = tmp_path / "weird.dat"
        with TraceWriter(odd, meta, binary=True) as w:
            w.record_all(make_events(0, 3))
        reader = TraceReader(odd)
        assert reader.binary
        assert len(list(reader.events())) == 3


class TestRankStream:
    def test_peek_does_not_consume(self):
        events = make_events(0, 3)
        s = RankStream(0, iter(events))
        assert s.peek() is events[0]
        assert s.peek() is events[0]
        assert s.consumed == 0

    def test_advance(self):
        events = make_events(0, 2)
        s = RankStream(0, iter(events))
        assert s.advance() is events[0]
        assert s.peek() is events[1]
        assert s.advance() is events[1]
        assert s.peek() is None
        assert s.exhausted
        assert s.consumed == 2

    def test_advance_past_end_raises(self):
        s = RankStream(0, iter([]))
        assert s.exhausted
        with pytest.raises(StopIteration):
            s.advance()


class TestTraceSet:
    def test_open_by_stem(self, tmp_path):
        write_set(tmp_path, "app", 3)
        ts = TraceSet.open(tmp_path, "app")
        assert ts.nprocs == 3
        assert [len(list(ts.events_of(r))) for r in range(3)] == [4, 4, 4]

    def test_open_binary(self, tmp_path):
        write_set(tmp_path, "b", 2, binary=True)
        ts = TraceSet.open(tmp_path, "b")
        assert ts.nprocs == 2

    def test_streams(self, tmp_path):
        write_set(tmp_path, "app", 2)
        ts = TraceSet.open(tmp_path, "app")
        streams = ts.streams()
        assert [s.rank for s in streams] == [0, 1]
        assert streams[0].peek().rank == 0

    def test_load_all(self, tmp_path):
        write_set(tmp_path, "app", 2, per_rank=3)
        ts = TraceSet.open(tmp_path, "app")
        all_events = ts.load_all()
        assert [len(evs) for evs in all_events] == [3, 3]

    def test_load_decodes_each_file_once(self, tmp_path):
        from repro import obs

        paths = write_set(tmp_path, "app", 3, per_rank=5, binary=True)
        ts = TraceSet.open(tmp_path, "app")
        expected = ts.load_all()
        with obs.session_scope() as session:
            assert ts.load() is ts
            ts.load()  # a second load is a no-op
            for _ in range(3):  # lint, validation, the build, ...
                assert ts.load_all() == expected
                assert [s.peek() for s in ts.streams()] == [evs[0] for evs in expected]
        metrics = session.metrics.as_dict()
        assert metrics["trace.files_read"] == 3
        assert metrics["trace.events_read"] == 15
        assert [r.path for r in ts.readers] == paths

    def test_missing_rank_rejected(self, tmp_path):
        paths = write_set(tmp_path, "app", 3)
        paths[1].unlink()
        with pytest.raises(ValueError, match="expected ranks"):
            TraceSet.open(tmp_path, "app")

    def test_nprocs_disagreement_rejected(self, tmp_path):
        write_set(tmp_path, "x", 2)
        # Forge a rank-1 file claiming nprocs=3.
        bogus = tmp_path / "x.rank0001.trace.jsonl"
        bogus.unlink()
        with TraceWriter(bogus, TraceMeta(rank=1, nprocs=3)) as w:
            w.record_all(make_events(1, 1))
        with pytest.raises(ValueError):
            TraceSet.open(tmp_path, "x")

    def test_no_files_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            TraceSet.open(tmp_path, "nothing")

    def test_find_trace_files_sorted(self, tmp_path):
        write_set(tmp_path, "app", 12)
        files = find_trace_files(tmp_path, "app")
        assert len(files) == 12
        assert "rank0000" in files[0].name and "rank0011" in files[-1].name

    def test_stem_isolation(self, tmp_path):
        write_set(tmp_path, "one", 2)
        write_set(tmp_path, "two", 3)
        assert TraceSet.open(tmp_path, "one").nprocs == 2
        assert TraceSet.open(tmp_path, "two").nprocs == 3


class TestMemoryTrace:
    def test_basic(self):
        mt = MemoryTrace([make_events(0, 2), make_events(1, 3)])
        assert mt.nprocs == 2
        assert len(list(mt.events_of(1))) == 3
        assert mt.meta(1).rank == 1

    def test_rejects_misfiled_events(self):
        with pytest.raises(ValueError, match="filed under"):
            MemoryTrace([make_events(1, 2)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            MemoryTrace([])

    def test_load_all_copies(self):
        mt = MemoryTrace([make_events(0, 2)])
        a = mt.load_all()
        a[0].clear()
        assert len(list(mt.events_of(0))) == 2
