"""Deterministic fault injection for the execution backends.

Chaos that can be asserted on: every fault here is **deterministic**
(keyed to a specific work item) and **picklable** (plain dataclasses of
simple fields), so it crosses the process-pool boundary and reproduces
identically on every run.  The harness proves the
:class:`~repro.core.parallel.FaultPolicy` paths — worker death, chunk
retry, straggler timeout, checkpoint corruption, kill-and-resume — in
tests and in the CI chaos job.

Building blocks
---------------

:class:`FaultyFn`
    Wraps a backend work function ``fn(payload, item)``; before
    delegating, it offers the item to each configured fault.
:class:`KillWorker` / :class:`FailItem` / :class:`SlowItem`
    The faults: die via ``os._exit`` (→ ``BrokenProcessPool``), raise a
    chosen exception, or sleep past the chunk deadline.

"Exactly once" across retries needs state that survives the worker
process being replaced, so one-shot faults are armed with a **flag
file**: the first process to atomically create it fires the fault;
every retry finds the flag and proceeds cleanly.  That is what makes
"kill the worker on chunk N, then the retry succeeds" a reproducible
scenario instead of a crash loop.

CLI-level chaos rides an environment hook instead:
``REPRO_FAULT_KILL_AFTER_SHARDS=N`` makes the
:class:`~repro.core.checkpoint.CheckpointStore` call
:func:`checkpoint_write_hook`'s closure after every shard write and
``os._exit(73)`` once N shards are on disk — the "sweep killed
mid-flight, resumed with ``--resume``" acceptance scenario.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

__all__ = [
    "FAULT_EXIT_CODE",
    "FailItem",
    "FaultyFn",
    "KillWorker",
    "SlowItem",
    "checkpoint_write_hook",
    "corrupt_checkpoints",
    "item_key",
]

#: Exit status used by injected kills, distinguishable from ordinary
#: crashes (1) and signal deaths (>= 128).
FAULT_EXIT_CODE = 73

_EXCEPTIONS = {
    "OSError": OSError,
    "ImportError": ImportError,
    "RuntimeError": RuntimeError,
    "ValueError": ValueError,
}


def item_key(item) -> object:
    """The addressable identity of a backend work item.

    Replicate items are ``(seed, spec)`` tuples and compiled batches are
    seed lists — both key on the first seed; scalar items key on
    themselves.  Faults match on this key.
    """
    if isinstance(item, (tuple, list)) and item:
        return item[0]
    return item


def _claim(flag: str | None) -> bool:
    """Atomically claim a one-shot flag file; None = fire every time.

    ``O_CREAT | O_EXCL`` makes exactly one claimant win across any
    number of concurrent worker processes and retries.
    """
    if flag is None:
        return True
    try:
        fd = os.open(flag, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


@dataclass(frozen=True)
class KillWorker:
    """``os._exit`` the worker processing item ``on`` — once.

    The pool observes a vanished worker as ``BrokenProcessPool``; the
    backend must restart the pool, keep completed chunks, and re-run
    only the remainder (where this fault, now disarmed via ``flag``,
    lets the item through).
    """

    on: object
    flag: str
    exit_code: int = FAULT_EXIT_CODE

    def fire(self, key) -> None:
        if key == self.on and _claim(self.flag):
            os._exit(self.exit_code)


@dataclass(frozen=True)
class FailItem:
    """Raise ``exc`` while processing item ``on``.

    ``flag=None`` fires on every attempt (exercises retry exhaustion and
    the ``on_failure`` policies); a flag path fires once (exercises
    retry-then-succeed).  ``worker_only=True`` fires only outside the
    pid that constructed the fault, so ``on_failure="degrade"``'s
    in-parent re-run succeeds.
    """

    on: object
    exc: str = "OSError"
    message: str = "injected fault"
    flag: str | None = None
    worker_only: bool = False
    parent_pid: int = field(default_factory=os.getpid)

    def fire(self, key) -> None:
        if key != self.on:
            return
        if self.worker_only and os.getpid() == self.parent_pid:
            return
        if _claim(self.flag):
            raise _EXCEPTIONS[self.exc](f"{self.message} (item {key!r})")


@dataclass(frozen=True)
class SlowItem:
    """Sleep ``seconds`` while processing item ``on`` (a straggler).

    With a per-chunk timeout below ``seconds``, the scheduler must
    speculatively resubmit; ``flag`` makes only the first attempt slow,
    so the twin wins the race.
    """

    on: object
    seconds: float
    flag: str | None = None

    def fire(self, key) -> None:
        if key == self.on and _claim(self.flag):
            time.sleep(self.seconds)


@dataclass(frozen=True)
class FaultyFn:
    """A backend work function with faults spliced in front.

    Picklable as long as ``fn`` is a module-level callable and every
    fault is one of the dataclasses above — exactly the contract
    :class:`~repro.core.parallel.ExecutionBackend` already imposes.
    """

    fn: Callable
    faults: tuple

    def __call__(self, payload, item):
        key = item_key(item)
        for fault in self.faults:
            fault.fire(key)
        return self.fn(payload, item)


def corrupt_checkpoints(root: str | Path, n: int | None = None) -> list[Path]:
    """Overwrite the first ``n`` checkpoint shards (all, if None) with
    garbage, deliberately *without* an atomic write — the reader must
    detect the damage via its digest check and recompute."""
    shards = sorted(Path(root).glob("*.json"))
    victims = shards if n is None else shards[:n]
    for path in victims:
        path.write_text('{"schema": "repro-checkpoint-shard/2", "result": [corrupt')
    return list(victims)


def checkpoint_write_hook() -> Callable[[int], None]:
    """The ``REPRO_FAULT_KILL_AFTER_SHARDS`` closure (module docstring).

    Reads the limit once at arm time; the returned hook kills the
    process with :data:`FAULT_EXIT_CODE` when the store's write count
    reaches it.
    """
    from repro.core.checkpoint import KILL_AFTER_SHARDS_ENV

    limit = int(os.environ[KILL_AFTER_SHARDS_ENV])

    def hook(writes: int) -> None:
        if writes >= limit:
            sys.stderr.write(
                f"repro.testing.faults: injected kill after {writes} checkpoint shard(s)\n"
            )
            sys.stderr.flush()
            os._exit(FAULT_EXIT_CODE)

    return hook
