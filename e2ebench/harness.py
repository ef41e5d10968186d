"""Shared plumbing: checkout paths, the per-run work directory, timed
CLI subprocesses, percentiles, the environment stamp, and the result
line."""

from __future__ import annotations

import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".e2ebench_runs"

# The console scripts in pyproject.toml are ``repro.cli:main_*``; a
# child started this way runs exactly what the installed script runs.
_LAUNCH = "import sys; from repro.cli import {entry} as m; sys.exit(m())"
CLI_TIMEOUT = 170.0


class BenchError(RuntimeError):
    """The benchmark cannot run (missing program, set-up failure)."""


def require_program() -> None:
    if not (SRC / "repro" / "cli.py").is_file():
        raise BenchError(f"program sources not found under {SRC}; run from a full checkout")


def log(msg: str) -> None:
    print(f"[e2ebench] {msg}", file=sys.stderr, flush=True)


@dataclass
class CliRun:
    argv: list[str]
    rc: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str


class Workdir:
    """A scratch directory inside the checkout, removed when the run ends.

    Children get ``PYTHONPATH`` pointing at the checkout's sources and
    their caches and temp files redirected here, so a run reads and
    writes nothing outside the checkout.
    """

    def __init__(self, tag: str):
        self.path = RUNS / f"work-{tag}-{os.getpid()}"
        if self.path.exists():
            shutil.rmtree(self.path)
        (self.path / "tmp").mkdir(parents=True)
        (self.path / "cache").mkdir()
        self._seq = 0
        self.env = {
            k: v for k, v in os.environ.items() if not k.startswith(("REPRO_", "PYTHON"))
        }
        self.env.update(
            PYTHONPATH=str(SRC),
            TMPDIR=str(self.path / "tmp"),
            XDG_CACHE_HOME=str(self.path / "cache"),
            REPRO_TABLES_CACHE=str(self.path / "cache" / "repro"),
        )

    def adopt_env(self) -> None:
        """Point this process's own caches and temp files here too (the
        traced run calls the program in-process)."""
        import tempfile

        for key in ("TMPDIR", "XDG_CACHE_HOME", "REPRO_TABLES_CACHE"):
            os.environ[key] = self.env[key]
        tempfile.tempdir = self.env["TMPDIR"]
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))

    def sub(self, name: str) -> Path:
        p = self.path / name
        p.mkdir(parents=True, exist_ok=True)
        return p

    def run(self, argv: list[str], timeout: float = CLI_TIMEOUT) -> CliRun:
        """Run one child to completion; wall time and peak RSS measured
        from outside (``wait4`` rusage of that child alone)."""
        self._seq += 1
        out_path = self.path / f"child{self._seq}.out"
        err_path = self.path / f"child{self._seq}.err"
        with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=fo, stderr=fe, env=self.env, cwd=self.path)
            watchdog = threading.Timer(timeout, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                os.waitpid(proc.pid, 0)
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        run = CliRun(
            argv=argv,
            rc=proc.returncode,
            wall_s=wall,
            rss_mb=usage.ru_maxrss / 1024.0,
            stdout=out_path.read_text(errors="replace"),
            stderr=err_path.read_text(errors="replace"),
        )
        out_path.unlink()
        err_path.unlink()
        return run

    def cli(self, entry: str, args: list[str], timeout: float = CLI_TIMEOUT) -> CliRun:
        """One fresh ``repro-*`` CLI process (``entry`` = ``main_analyze`` ...)."""
        return self.run([sys.executable, "-c", _LAUNCH.format(entry=entry), *args], timeout)

    def helper(self, script: str, spec: dict[str, Any], timeout: float = CLI_TIMEOUT) -> CliRun:
        """Run one of this directory's helper scripts on a JSON spec."""
        self._seq += 1
        spec_path = self.path / f"spec{self._seq}.json"
        spec_path.write_text(json.dumps(spec))
        return self.run([sys.executable, str(HERE / script), str(spec_path)], timeout)

    def cleanup(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile (numpy's default method)."""
    if not values:
        raise ValueError("quantile of no values")
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return quantile(values, 0.5)


@dataclass
class Tally:
    """Operations attempted and failed, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{what}: {'; '.join(problems)}")
            log(f"FAILED {what}: {'; '.join(problems)}")
        return not problems


def cli_problems(run: CliRun, what: str) -> list[str]:
    if run.rc != 0:
        tail = run.stderr.strip().splitlines()[-3:]
        return [f"{what} exited {run.rc}: {' | '.join(tail)}"]
    return []


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def env_stamp(seed: int, sizes: dict[str, Any]) -> dict[str, Any]:
    def version(pkg: str) -> str:
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "missing"

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": _git_commit(),
        "seed": seed,
        "sizes": sizes,
    }


def emit(tally: Tally, metrics: dict[str, tuple[float, str]], stamp: dict[str, Any]) -> None:
    """Print the environment stamp, then the result object as the last line."""
    print(json.dumps({"env": stamp, "failures": tally.reasons}), flush=True)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
