"""The ``repro-serve`` daemon under a closed-loop request mix.

One load-generator process (the benchmark itself) runs two client
threads with no think time: each sends its next request only after the
previous response arrived and was validated.  Requests come in rounds
of a fixed, seeded mix; a round ends when both clients are idle, so a
round's wall time is the batch time of that mix.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import os
import queue
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from checks import check_envelope
from harness import BenchError, Workdir
from tracer import Tracer

CLIENTS = 2
HTTP_TIMEOUT = 120.0

# Per round: 14 requests on the hot trace sets (always built after the
# warm-up), 3 naming a cold trace set (rotating through more sets than
# the daemon's LRU holds, so each one is a fresh build that evicts
# another), and 3 shipping a hot set's files inline via ``upload``.
HOT_KINDS = ["analyze"] * 4 + ["sweep"] * 4 + ["diagnose"] * 2 + ["verify"] * 2 + ["metrics"] * 2
ENDPOINTS = ["diagnose", "verify", "metrics", "analyze", "sweep"]
UPLOADS_PER_ROUND = 3
COLD_PER_ROUND = 3
ANALYZE_REPLICATES = 2
SWEEP_SCALES = [0.0, 1.0, 2.0]


@dataclass(frozen=True)
class TraceSetRef:
    directory: str
    stem: str
    nprocs: int


@dataclass
class Request:
    kind: str
    source: str  # "hot" | "cold" | "upload"
    ref: TraceSetRef
    body: bytes
    expect: dict[str, Any]


@dataclass
class Record:
    kind: str
    source: str
    latency_s: float
    ok: bool


@dataclass
class RoundStats:
    records: list[Record] = field(default_factory=list)
    round_walls: list[float] = field(default_factory=list)
    start: float = 0.0
    wall_s: float = 0.0


def request_body(
    kind: str,
    ref: TraceSetRef,
    signature: dict,
    seed: int,
    upload: dict[str, str] | None = None,
) -> tuple[bytes, dict[str, Any]]:
    body: dict[str, Any] = {"schema": "repro-serve-request/1", "stem": ref.stem}
    if upload is None:
        body["traces"] = ref.directory
    else:
        body["upload"] = upload
    expect: dict[str, Any] = {"nprocs": ref.nprocs}
    params: dict[str, Any] = {}
    if kind in ("analyze", "sweep", "verify"):
        body["signature"] = signature
    if kind == "analyze":
        params = {"replicates": ANALYZE_REPLICATES, "seed": seed}
        expect["replicates"] = ANALYZE_REPLICATES
    elif kind == "sweep":
        params = {"scales": SWEEP_SCALES, "seed": seed}
        expect["scales"] = SWEEP_SCALES
    if params:
        body["params"] = params
    return json.dumps(body).encode(), expect


def read_upload(ref: TraceSetRef) -> dict[str, str]:
    d = Path(ref.directory)
    return {p.name: p.read_text() for p in sorted(d.glob(f"{ref.stem}.rank*.trace.*"))}


class Mix:
    """Deterministic request rounds for one seed."""

    def __init__(
        self, seed: int, hot: list[TraceSetRef], cold: list[TraceSetRef], signature: dict
    ):
        self.rng = random.Random(seed)
        # The send order is the same for every seed, so the seed moves
        # only the inputs and analysis seeds, not the queueing pattern.
        self.order = random.Random(0)
        self.hot = hot
        self.cold = cold
        self.signature = signature
        self.uploads = {ref: read_upload(ref) for ref in hot}
        self._cold_next = 0
        self._hot_next = 0
        self._upload_next = 0

    def _hot_ref(self) -> TraceSetRef:
        # Round-robin keeps every hot set recently used, so the LRU only
        # ever evicts cold sets.
        ref = self.hot[self._hot_next % len(self.hot)]
        self._hot_next += 1
        return ref

    def _request(self, kind: str, source: str, ref: TraceSetRef) -> Request:
        upload = self.uploads[ref] if source == "upload" else None
        body, expect = request_body(
            kind, ref, self.signature, self.rng.randrange(1 << 20), upload
        )
        return Request(kind, source, ref, body, expect)

    def next_round(self) -> list[Request]:
        """One round: the same composition every time (kinds and sources
        rotate deterministically) in a shuffled order; the seed picks the
        analysis seeds."""
        reqs = [self._request(kind, "hot", self._hot_ref()) for kind in HOT_KINDS]
        for _ in range(COLD_PER_ROUND):
            ref = self.cold[self._cold_next % len(self.cold)]
            kind = ENDPOINTS[self._cold_next % len(ENDPOINTS)]
            self._cold_next += 1
            reqs.append(self._request(kind, "cold", ref))
        for _ in range(UPLOADS_PER_ROUND):
            kind = ENDPOINTS[self._upload_next % len(ENDPOINTS)]
            self._upload_next += 1
            reqs.append(self._request(kind, "upload", self._hot_ref()))
        self.order.shuffle(reqs)
        return reqs


def http_call(port: int, method: str, path: str, body: bytes | None = None) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=HTTP_TIMEOUT)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=body, headers=headers)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def get_json(port: int, path: str) -> dict[str, Any]:
    status, data = http_call(port, "GET", path)
    if status != 200:
        raise BenchError(f"GET {path} returned {status}")
    return json.loads(data.decode())


def send(port: int, req: Request) -> tuple[Record, dict | None, list[str]]:
    t0 = time.perf_counter()
    try:
        status, data = http_call(port, "POST", f"/v1/{req.kind}", req.body)
    except OSError as exc:
        latency = time.perf_counter() - t0
        return Record(req.kind, req.source, latency, False), None, [f"HTTP: {exc}"]
    try:
        env, problems = check_envelope(data, req.kind, req.expect)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        env, problems = None, [f"malformed response ({type(exc).__name__}: {exc})"]
    if status != 200 and not problems:
        problems = [f"HTTP status {status}"]
    latency = time.perf_counter() - t0
    return Record(req.kind, req.source, latency, not problems), env, problems


def run_rounds(
    port: int,
    mix: Mix,
    seconds: float,
    min_requests: int,
    on_result,
    tracer: Tracer | None = None,
) -> RoundStats:
    """Closed loop: rounds until ``seconds`` have passed and at least
    ``min_requests`` were sent.  ``on_result(request, record, problems)``
    is called once per request."""
    stats = RoundStats()
    work: queue.Queue[Request | None] = queue.Queue()
    done = threading.Semaphore(0)
    lock = threading.Lock()

    def client() -> None:
        while True:
            req = work.get()
            if req is None:
                return
            if tracer is not None:
                with tracer.span(f"serve.{req.kind}", source=req.source):
                    rec, _, problems = send(port, req)
            else:
                rec, _, problems = send(port, req)
            with lock:
                stats.records.append(rec)
                on_result(req, rec, problems)
            done.release()

    threads = [threading.Thread(target=client, daemon=True) for _ in range(CLIENTS)]
    for t in threads:
        t.start()
    t_start = stats.start = time.perf_counter()
    try:
        while True:
            reqs = mix.next_round()
            r0 = time.perf_counter()
            for req in reqs:
                work.put(req)
            for _ in reqs:
                done.acquire()
            stats.round_walls.append(time.perf_counter() - r0)
            elapsed = time.perf_counter() - t_start
            if elapsed >= seconds and len(stats.records) >= min_requests:
                break
    finally:
        for _ in threads:
            work.put(None)
        for t in threads:
            t.join(timeout=HTTP_TIMEOUT)
    stats.wall_s = time.perf_counter() - t_start
    return stats


def _proc_status(pid: int) -> dict[str, str]:
    out = {}
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                out[key] = value.strip()
    except OSError:
        pass
    return out


def _kb(value: str | None) -> float:
    return float(value.split()[0]) if value else 0.0


def _children(pid: int) -> list[int]:
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as fh:
            return [int(x) for x in fh.read().split()]
    except OSError:
        return []


class Daemon:
    """``repro-serve`` as a child process on an ephemeral port, with a
    sampler thread tracking the RSS of the daemon plus its pool workers."""

    def __init__(self, work: Workdir, tag: str, jobs: int = 2):
        self.out_path = work.path / f"serve-{tag}.out"
        self.err_path = work.path / f"serve-{tag}.err"
        argv = [
            sys.executable,
            "-c",
            "import sys; from repro.cli import main_serve as m; sys.exit(m())",
            "--port",
            "0",
            "--jobs",
            str(jobs),
            "--trace-root",
            str(work.path),
        ]
        self._fo = open(self.out_path, "wb")
        self._fe = open(self.err_path, "wb")
        self.proc = subprocess.Popen(
            argv, stdout=self._fo, stderr=self._fe, env=work.env, cwd=work.path
        )
        try:
            self.port = self._wait_port()
        except BaseException:
            self.stop()
            raise
        self.peak_tree_mb = 0.0
        self._stop_sampler = threading.Event()
        self._sampler = threading.Thread(target=self._sample, daemon=True)
        self._sampler.start()

    def _wait_port(self, timeout: float = 60.0) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                break
            text = self.out_path.read_text(errors="replace")
            marker = "listening on http://127.0.0.1:"
            if marker in text:
                return int(text.split(marker, 1)[1].split()[0])
            time.sleep(0.02)
        raise BenchError(
            f"repro-serve did not come up: {self.err_path.read_text(errors='replace')[-400:]}"
        )

    def _sample(self) -> None:
        while not self._stop_sampler.wait(0.1):
            total = _kb(_proc_status(self.proc.pid).get("VmRSS"))
            for child in _children(self.proc.pid):
                total += _kb(_proc_status(child).get("VmRSS"))
            self.peak_tree_mb = max(self.peak_tree_mb, total / 1024.0)

    def peak_rss_mb(self) -> float:
        """Peak RSS of the daemon and its workers: the larger of the
        sampled tree total and the daemon's own high-water mark."""
        hwm = _kb(_proc_status(self.proc.pid).get("VmHWM")) / 1024.0
        return max(self.peak_tree_mb, hwm)

    def stop(self) -> None:
        """SIGINT (the daemon's clean shutdown), then SIGKILL if it
        hangs; any pool worker left behind is killed and waited for."""
        stopper = getattr(self, "_stop_sampler", None)
        if stopper is not None:
            stopper.set()
            self._sampler.join(timeout=5)
        orphans = _children(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=15)
        self._fo.close()
        self._fe.close()
        for pid in orphans:
            with contextlib.suppress(OSError):
                os.kill(pid, signal.SIGKILL)
        deadline = time.monotonic() + 10
        while any(Path(f"/proc/{pid}").exists() for pid in orphans):
            if time.monotonic() > deadline:
                raise BenchError(f"pool workers {orphans} outlived repro-serve")
            time.sleep(0.05)
