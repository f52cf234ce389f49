"""Self-test of the benchmark's correctness gate.

    python3 bench/selftest.py

Plants a wrong answer (one pivot moved in pivots.txt, one entry changed in
final.cmx) into a short small-cli run and requires the run to count it as a
failed job and to exit with code 1. Exits 0 when the gate caught every
planted fault.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def main():
    ok = True
    for fault in ("pivot", "final"):
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", "small-cli", "--seed", "1",
             "--seconds", "0", "--trace", "0", "--plant", fault],
            capture_output=True, text=True, timeout=600, check=False)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        caught = (proc.returncode == 1 and result.get("failed", 0) >= 1
                  and result.get("correct") is False)
        print(f"{'caught' if caught else 'MISSED'} planted {fault} fault: "
              f"exit {proc.returncode}, failed {result.get('failed')}")
        ok = ok and caught
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
