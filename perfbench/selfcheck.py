"""Self-check: every workload, untraced and traced, on one seed.

    python3 perfbench/selfcheck.py --seed 7 --seconds 10

Prints every metric by name and unit, lists each reference miss, and exits 1
if any run fails or reports a value its reference pool does not expect.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("thinned_scan", "deep_gap", "cli_jobs")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=10)
    args = p.parse_args(argv)
    bad = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
                 str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=HERE.parent, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            print(f"== {workload} trace={trace} exit={proc.returncode}")
            print("\n".join(line for line in lines[:-1] if not line.startswith("# facts")))
            if proc.stderr.strip():
                print(proc.stderr.strip())
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                result = {"correct": False}
            if proc.returncode != 0 or not result["correct"]:
                bad.append(f"{workload} trace={trace}")
    if bad:
        print("SELF-CHECK FAILED: " + ", ".join(bad), file=sys.stderr)
        return 1
    print("self-check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
