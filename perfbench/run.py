"""carpetdim benchmark: one workload run.

    python3 perfbench/run.py --workload restricted --seed 1 --seconds 25 --trace 0

Run from the root of a checkout that holds ``src/carpetdim``.  The
inputs are made from the seed, written as spec documents and printed.
Set-up time is the median of several fresh processes that import
carpetdim and write, load and validate those documents.  The workload
itself runs in one more fresh process, under an address-space cap and a
wall-clock timeout, and calls ``carpetdim.cli.main`` in-process.  The
last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_RUNS = 9  # measured fresh set-up processes; one more warms the caches
RUN_LIMIT_S = 170  # the whole run, set-up included, must end well within 180 s
SETUP_LIMIT_S = 30
ADDRESS_SPACE_B = 2 << 30  # a runaway job hits MemoryError, never the OOM killer


def _limit_child():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_B, ADDRESS_SPACE_B))
    resource.setrlimit(resource.RLIMIT_CORE, (0, 0))


def _worker(args, timeout, capture, pycache):
    # A fixed hash seed lays out dicts, which argparse and json lean on,
    # the same way in every run.  The bytecode cache is the run's own:
    # the warm-up set-up fills it, so every measured set-up reads the
    # same cache, whatever the checkout's __pycache__ holds.
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPYCACHEPREFIX=pycache)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        cwd=ROOT,
        env=env,
        preexec_fn=_limit_child,
        timeout=timeout,
        check=True,
        stdout=subprocess.PIPE if capture else None,
        text=True,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "carpetdim", "cli.py")):
        print(f"error: no carpetdim sources under {ROOT}/src", file=sys.stderr)
        return 2

    started = time.monotonic()
    plan = workloads.PLANS[args.workload](args.seed)
    for name, doc in plan["specs"].items():
        print("spec", name, json.dumps(doc, sort_keys=True, separators=(",", ":")))
    os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(HERE, "_work"))
    try:
        plan_path = os.path.join(work, "plan.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(plan, fh)
        spec_dir = os.path.join(work, "specs")
        os.mkdir(spec_dir)
        pycache = os.path.join(work, "pycache")
        setups = []
        for _ in range(SETUP_RUNS + 1):
            done = _worker(["setup", plan_path, spec_dir], SETUP_LIMIT_S, True, pycache)
            setups.append(float(done.stdout.strip().splitlines()[-1]))
        result_path = os.path.join(work, "result.json")
        sys.stdout.flush()
        left = RUN_LIMIT_S - (time.monotonic() - started)
        _worker(["run", plan_path, spec_dir, str(args.seconds), str(args.trace), result_path],
                left, False, pycache)
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in result.pop("log"):
        print(line)
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups[1:]), "unit": "s"}
        result["metrics"]["passed_share"] = {
            "value": (result["attempted"] - result["failed"]) / result["attempted"],
            "unit": "ratio",
        }
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        print(f"error: metrics {sorted(got.items())} differ from BENCHMARK.json {sorted(want.items())}",
              file=sys.stderr)
        return 1
    for name, m in result["metrics"].items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    print(f"failed_share {result['failed'] / result['attempted']!r} "
          f"({result['failed']}/{result['attempted']}) correct {result['correct']}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
