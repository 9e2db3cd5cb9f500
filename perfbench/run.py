"""spinequant benchmark entry point.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload chain_default --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

Each workload runs in a fresh child process (``bench.py``) with
``OMP_NUM_THREADS``, ``OPENBLAS_NUM_THREADS`` and ``MKL_NUM_THREADS`` pinned
to 1 and the checkout's ``src`` as the only ``PYTHONPATH``.  The child's
report is relayed; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end metrics,
or per-layer metrics with ``--trace 1``).  With ``--workload all`` the
metric names are prefixed with the workload.  Full results, and the spans of
a traced run, are written under ``.perfbench/results``.

Exits with 2, printing no result, when the checkout has no ``src/spinequant``
or a child fails or overruns.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("chain_default", "cli_oracle", "rescore_eval")
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def run_child(workload: str, args) -> dict | None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               **{var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "bench.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: no result within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        print(f"{workload}: exited with {proc.returncode}", file=sys.stderr)
        return None
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="spinequant benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "spinequant" / "__init__.py").is_file():
        print(f"no spinequant sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = run_child(name, args)
        if result is None:
            return 2
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
