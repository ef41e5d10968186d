"""Set-up helper: run a list of ``repro-*`` entry points in one process.

Usage: ``python3 e2ebench/gen.py SPEC.json`` with ``PYTHONPATH`` set to
the checkout's ``src``.  SPEC is ``{"calls": [["main_trace", [argv...]],
...]}``; each call is exactly what the console script of that name runs,
so a set-up that makes many trace sets pays the interpreter start once.
Exits with the first non-zero return code.
"""

from __future__ import annotations

import json
import sys


def main(spec_path: str) -> int:
    import repro.cli

    with open(spec_path) as fh:
        spec = json.load(fh)
    for entry, argv in spec["calls"]:
        rc = getattr(repro.cli, entry)(argv)
        if rc:
            print(f"{entry} {' '.join(argv)} exited {rc}", file=sys.stderr)
            return int(rc)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
