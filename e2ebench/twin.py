"""Reference outputs for the serve byte-identity check, and input sizes.

Usage: ``python3 e2ebench/twin.py SPEC.json`` with ``PYTHONPATH`` set to
the checkout's ``src``.  Prints one JSON object:

* ``"cli"``: for each ``[kind, entry, argv]`` in SPEC's ``cli`` list, the
  bytes the CLI tool wrote to its ``--out`` file (diagnose, verify and
  metrics have a JSON CLI twin);
* ``"library"``: analyze and sweep have no JSON CLI twin, so their
  reference is the library call the endpoint promises to equal
  (``monte_carlo`` samples, ``sweep_scales`` delays), serialised the way
  :func:`checks.render_like_cli` serialises the response;
* ``"sizes"``: ranks, events, nodes and edges of each ``[dir, stem]`` in
  SPEC's ``sizes`` list.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main(spec_path: str) -> int:
    import repro.cli
    from repro.core import BuildConfig, PerturbationSpec, build_graph, monte_carlo, sweep_scales
    from repro.noise import MachineSignature
    from repro.trace import TraceSet

    spec = json.loads(Path(spec_path).read_text())
    out: dict = {"cli": {}, "library": {}, "sizes": []}
    for kind, entry, argv in spec.get("cli", []):
        rc = getattr(repro.cli, entry)(argv)
        target = argv[argv.index("--out") + 1]
        out["cli"][kind] = Path(target).read_text() if rc == 0 else None
    lib = spec.get("library")
    if lib:
        traces = TraceSet.open(lib["traces"], lib["stem"])
        sig = MachineSignature.load(lib["signature"])
        build = build_graph(traces, BuildConfig())
        a = lib["analyze"]
        dist = monte_carlo(
            build, PerturbationSpec(sig, seed=a["seed"]), replicates=a["replicates"], jobs=0
        )
        out["library"]["analyze"] = json.dumps(
            {
                "seeds": [int(s) for s in dist.seeds],
                "samples": [[float(v) for v in row] for row in dist.samples],
            },
            sort_keys=True,
        )
        s = lib["sweep"]
        sweep_spec = PerturbationSpec(sig, seed=s["seed"])
        sweep = sweep_scales(traces, sweep_spec, s["scales"], build=build)
        out["library"]["sweep"] = json.dumps(
            [[float(d) for d in p.delays] for p in sweep.points], sort_keys=True
        )
    for directory, stem in spec.get("sizes", []):
        traces = TraceSet.open(directory, stem)
        build = build_graph(traces, BuildConfig())
        g = build.graph.stats()
        out["sizes"].append(
            {
                "ranks": g["nprocs"],
                "events": sum(len(r) for r in traces.load_all()),
                "nodes": g["nodes"],
                "edges": g["edges"],
            }
        )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
