"""Cold start: each command loads only the modules its own path runs.

A fresh interpreter pays for every import before any analysis starts,
and the analyzer is run once per trace and signature.  ``scipy.stats``
alone takes about a second; the simulator, bundled apps and
microbenchmarks are only needed to produce traces and signatures.
These tests run each check in a fresh subprocess, since the test
runner itself has long since imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main_analyze, main_microbench, main_trace
from repro.noise import Gamma, MachineSignature, Normal, TruncatedNormal

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Run one CLI entry point, then dump the loaded module names to argv[1].
RUN_ENTRY = (
    "import json, sys\n"
    "from repro import cli\n"
    "rc = getattr(cli, sys.argv[2])(sys.argv[3:])\n"
    "json.dump(sorted(sys.modules), open(sys.argv[1], 'w'))\n"
    "sys.exit(rc)\n"
)


def fresh_python(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def run_entry(tmp_path: Path, entry: str, argv: list[str]) -> tuple[str, list[str]]:
    """(stdout, loaded modules) of one entry point in a fresh interpreter."""
    dump = tmp_path / f"{entry}.modules.json"
    proc = fresh_python("-c", RUN_ENTRY, str(dump), entry, *argv)
    return proc.stdout, json.loads(dump.read_text())


def scipy_modules(modules: list[str]) -> list[str]:
    return [m for m in modules if m == "scipy" or m.startswith("scipy.")]


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("cold")
    assert main_trace(
        ["--app", "stencil1d", "--nprocs", "4", "--param", "iterations=3",
         "--out", str(out), "--stem", "st", "--seed", "1", "--quiet"]
    ) == 0
    assert main_microbench(
        ["--machine", "noisy", "--seed", "0", "--out", str(out / "empirical.json"), "--quiet"]
    ) == 0
    MachineSignature(
        os_noise=TruncatedNormal(20.0, 30.0),
        latency=Gamma(1.5, 40.0),
        per_byte=Normal(0.01, 0.005),
        name="parametric",
    ).save(out / "parametric.json")
    return out


def test_import_cli_loads_no_heavy_modules():
    proc = fresh_python("-c", "import json, sys, repro.cli; print(json.dumps(sorted(sys.modules)))")
    modules = json.loads(proc.stdout)
    assert scipy_modules(modules) == []
    heavy = ("repro.apps", "repro.mpisim", "repro.microbench", "repro.machines")
    assert [m for m in modules if m.startswith(heavy)] == []


@pytest.mark.parametrize(
    "entry,extra",
    [
        ("main_analyze", ["--replicates", "3"]),
        ("main_diagnose", ["--format", "json", "--fail-on", "never"]),
        ("main_verify", ["--format", "json", "--fail-on", "never"]),
    ],
)
def test_empirical_signature_loads_no_scipy(traced, tmp_path, entry, extra):
    argv = ["--traces", str(traced), "--stem", "st",
            "--signature", str(traced / "empirical.json"), "--quiet", *extra]
    _, modules = run_entry(tmp_path, entry, argv)
    assert scipy_modules(modules) == []


def test_parametric_analyze_stdout_unchanged(traced, tmp_path, capsys):
    """A fresh interpreter that loads scipy late prints what this one,
    with ``scipy.stats`` and everything else already loaded, prints."""
    argv = ["--traces", str(traced), "--stem", "st",
            "--signature", str(traced / "parametric.json"),
            "--replicates", "3", "--verify", "--seed", "2", "--quiet"]
    stdout, modules = run_entry(tmp_path, "main_analyze", argv)
    import scipy.stats  # noqa: F401  (the in-process run has it loaded)

    assert main_analyze(argv) == 0
    assert stdout == capsys.readouterr().out
    # Normal/Gamma/TruncatedNormal need scipy.special; only fitting needs scipy.stats.
    assert "scipy.special" in modules
    assert "scipy.stats" not in modules


def test_fitting_exports_resolve_lazily():
    proc = fresh_python(
        "-c",
        "import sys\n"
        "import repro.noise\n"
        "assert 'repro.noise.fitting' not in sys.modules\n"
        "from repro.noise import FitResult, fit_best\n"
        "from repro.noise import fitting\n"
        "assert fit_best is fitting.fit_best and FitResult is fitting.FitResult\n"
        "print('ok')\n",
    )
    assert proc.stdout.strip() == "ok"
