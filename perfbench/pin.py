"""Pin the report digests the benchmark checks against.

    python3 perfbench/pin.py

Runs every realization of workload seeds 0..31 and of each workload's
default seed once and rewrites digests.json, one digest over all the
reports of a call per scenario seed.  Pin only from a commit whose
reports are known to be right: a later change that alters output on
purpose re-pins and says why.
"""

import json
import sys

import run
from workloads import WORKLOADS

SEEDS = range(32)


def main() -> int:
    program = run.import_program()
    pinned = {}
    for w in WORKLOADS.values():
        digests = {}
        for seed in sorted(set(SEEDS) | {w.default_seed}):
            bench = run.Bench(w, seed, program)
            bench.expected = {}  # digests pinned before do not count
            for j in range(w.realizations):
                bench.call(j)
            if bench.failed:
                print(f"{w.name} seed {seed}: a call failed; nothing pinned", file=sys.stderr)
                return 1
            digests.update(bench.expected)
        pinned[w.name] = {str(s): digests[s] for s in sorted(digests)}
        print(f"{w.name}: pinned {len(digests)} scenario seeds")
    run.DIGESTS.write_text(json.dumps(pinned, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
