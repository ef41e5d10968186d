"""PERF — cold start: what a fresh interpreter pays before and during one analysis.

The paper's workflow runs the analyzer once per trace and signature, so
every invocation starts a new interpreter.  This bench measures, in
fresh subprocesses:

* the wall time of ``import repro.cli`` and how many modules it loads
  (``scipy`` should not be among them);
* the wall time and peak RSS of ``repro-analyze --replicates 3`` with
  the default empirical ``noisy`` signature on a 16-rank stencil1d
  trace of ~5k events.

Both times are medians over ``REPEATS`` runs; the peak RSS is the
largest over those runs.  The regression guard
(``check_regression.py``) compares ``import_s`` and ``analyze_s`` with
the committed baseline.
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from benchmarks._common import emit, table
from repro.cli import main_microbench, main_trace
from repro.trace import TraceSet

REPEATS = 5
NPROCS = 16
ITERATIONS = 60
REPLICATES = 3
SRC = Path(__file__).resolve().parents[1] / "src"

ANALYZE = "import sys; from repro.cli import main_analyze; sys.exit(main_analyze(sys.argv[1:]))"
COUNT_MODULES = (
    "import json, sys, repro.cli; "
    "print(json.dumps([len(sys.modules), sum(m.split('.')[0] == 'scipy' for m in sys.modules)]))"
)


def run_fresh(*argv: str) -> tuple[float, float, str]:
    """``(wall_s, peak_rss_mb, stdout)`` of one fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with tempfile.TemporaryFile() as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], stdout=out, stderr=subprocess.DEVNULL, env=env
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read().decode()
    assert proc.returncode == 0, f"{argv!r} exited {proc.returncode}"
    return wall, usage.ru_maxrss / 1024.0, stdout


def test_cold_start(tmp_path):
    assert main_trace(
        ["--app", "stencil1d", "--nprocs", str(NPROCS), "--param", f"iterations={ITERATIONS}",
         "--out", str(tmp_path), "--stem", "st1d", "--seed", "1", "--quiet"]
    ) == 0
    sig = tmp_path / "sig.json"
    assert main_microbench(["--machine", "noisy", "--seed", "1", "--out", str(sig), "--quiet"]) == 0

    _, _, counts = run_fresh("-c", COUNT_MODULES)
    modules, scipy_modules = json.loads(counts)
    import_walls = [run_fresh("-c", "import repro.cli")[0] for _ in range(REPEATS)]

    argv = ["-c", ANALYZE, "--traces", str(tmp_path), "--stem", "st1d",
            "--signature", str(sig), "--replicates", str(REPLICATES), "--seed", "1", "--quiet"]
    runs = [run_fresh(*argv) for _ in range(REPEATS)]
    events = sum(map(len, TraceSet.open(tmp_path, "st1d").load_all()))
    assert all("monte carlo:" in out for _, _, out in runs)

    import_s = statistics.median(import_walls)
    analyze_s = statistics.median(wall for wall, _, _ in runs)
    peak_mb = max(rss for _, rss, _ in runs)
    rows = [
        ("import repro.cli", f"{import_s:.3f} s", f"{modules} modules, {scipy_modules} scipy"),
        (
            f"repro-analyze --replicates {REPLICATES}",
            f"{analyze_s:.3f} s",
            f"{peak_mb:.0f} MB peak",
        ),
    ]
    body = table(["fresh interpreter", "median wall", "notes"], rows, widths=[34, 12, 26])
    summary = (
        f"stencil1d p={NPROCS}, {events:,} events, empirical noisy signature; "
        f"{REPEATS} runs each, {os.cpu_count()} cores"
    )
    emit(
        "perf_cold_start",
        body + "\n" + summary,
        params={
            "nprocs": NPROCS,
            "iterations": ITERATIONS,
            "replicates": REPLICATES,
            "repeats": REPEATS,
            "cores": os.cpu_count(),
        },
        timings={"import_s": import_s, "analyze_s": analyze_s},
        metrics={
            "modules_loaded": modules,
            "scipy_modules": scipy_modules,
            "analyze_peak_rss_mb": peak_mb,
            "events": events,
        },
    )
    assert scipy_modules == 0
