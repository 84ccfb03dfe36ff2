"""Print every benchmark metric by name with its unit, for every workload.

    python3 perfbench/report.py [--seconds N] [--write]

Runs run.py once per workload and pass (--trace 0, then --trace 1) at
each workload's default seed, one run at a time, and prints one line per
metric.  --write also saves the numbers to baseline.json together with
the Python version and CPU count they were measured with.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

import run
from workloads import WORKLOADS


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seconds", type=float,
                   default=json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    p.add_argument("--write", action="store_true", help="save baseline.json")
    args = p.parse_args()

    results = {}
    for w in WORKLOADS.values():
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(run.BENCH / "run.py"), "--workload", w.name,
                 "--seed", str(w.default_seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, timeout=600, check=False,
            )
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            results.setdefault(w.name, {})[f"trace{trace}"] = result
            for name, m in result["metrics"].items():
                print(f"{w.name:17} {name:38} {m['value']:>16.6g} {m['unit']}")
            print(f"{w.name:17} {'failed_ops':38} {result['failed']:>7}/{result['attempted']} calls")

    if args.write:
        baseline = {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "seconds": args.seconds,
            "seeds": {w.name: w.default_seed for w in WORKLOADS.values()},
            "scenario_seeds": {w.name: w.scenario_seeds(w.default_seed)
                               for w in WORKLOADS.values()},
            "results": results,
        }
        (run.BENCH / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
