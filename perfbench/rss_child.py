"""Run one qcs-sim command in this fresh process; print its peak RSS.

    python3 perfbench/rss_child.py --scenario S --out DIR [--sweep IDS]

The last line of standard output is ``{"exit": <code>, "maxrss_kib": <n>}``.
"""

import contextlib
import io
import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from qcs_sim import cli  # noqa: E402

if __name__ == "__main__":
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(sys.argv[1:])
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    print(json.dumps({"exit": code, "maxrss_kib": rss}))
