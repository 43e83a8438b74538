"""End-to-end benchmark entry point.

Usage (from the checkout root)::

    python3 e2ebench/run.py --workload figures_4k --seed 1 \
        --seconds 8 --trace 0

Runs the workload in a fresh interpreter (``worker.py``) with a pinned
``PYTHONHASHSEED`` and the checkout's ``src/`` on the path, relays its
output and exits with its status.  The last line printed is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  Without the program's sources next to the benchmark it
exits non-zero without printing a result.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from common import WORKLOADS  # noqa: E402

#: Pinned hash seed for every workload process.
HASH_SEED = "0"

#: Hard limit on one workload process, seconds.
TIMEOUT_S = 175.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"e2ebench: program sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPATH"] = str(ROOT / "src")
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(command, cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, timeout=TIMEOUT_S,
                              text=True)
    except subprocess.TimeoutExpired as exc:
        # subprocess.run kills and reaps the child before raising.
        sys.stdout.write(exc.stdout or "")
        print(f"e2ebench: {args.workload} exceeded {TIMEOUT_S:.0f} s",
              file=sys.stderr)
        return 3
    sys.stdout.write(done.stdout)
    if done.returncode != 0:
        print(f"e2ebench: {args.workload} exited with {done.returncode}",
              file=sys.stderr)
        # A failed worker may have printed partial output; make sure the
        # last line is not mistaken for a result.
        print("e2ebench: no result")
        return done.returncode if done.returncode > 0 else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
