"""Write bench/expected.json: the outputs the benchmark checks against.

    python3 bench/record.py

Runs one untraced pass of every workload at the default seed and stores
the digest of every output, the known failures, and for matrix_kernel
the facts that must hold at every seed. Run it only on a commit whose
outputs are trusted; the benchmark then holds later commits to them.
"""

from __future__ import annotations

import json
import sys

from run import BENCH, _worker
import workloads
from worker import INVARIANT_FACTS


def main() -> int:
    expected = {}
    for name in workloads.WORKLOADS:
        _, res = _worker(["--workload", name, "--seed", str(workloads.DEFAULT_SEED)], 600)
        entry = {"seed": workloads.DEFAULT_SEED, "digests": res["digests"],
                 "known_failures": sorted(res["failures"])}
        if name == "matrix_kernel":
            entry["facts"] = {code: {k: v for k, v in facts.items() if k in INVARIANT_FACTS}
                              for code, facts in res["facts"].items()}
        expected[name] = entry
        print(f"{name}: {len(res['digests'])} outputs, {len(res['failures'])} failures")
    (BENCH / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
