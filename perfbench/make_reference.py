"""Record the reference outputs of every CLI op the benchmark can issue.

Usage (from the repository root): python3 perfbench/make_reference.py

Writes perfbench/reference.json: for each command line, the sha256 and
byte length of its stdout.  Run it only at a commit whose outputs are
known good; the benchmark counts every later difference as a failed op.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import REFERENCE_FILE, WORKLOADS, argv_key, cli_observable, cli_variants, run_cli  # noqa: E402


def main() -> int:
    reference = {}
    for workload in WORKLOADS:
        for argv in cli_variants(workload):
            code, out = run_cli(argv)
            if code != 0:
                sys.stderr.write(f"qpb {argv_key(argv)} exited {code}\n")
                return 1
            reference[argv_key(argv)] = cli_observable(out)
    REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    print(f"{len(reference)} reference outputs written to {REFERENCE_FILE.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
