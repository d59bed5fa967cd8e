"""robustq benchmark: wall time of ``robustq.cli.run`` on fixed workloads.

    python3 perfbench/run.py --workload scan --seed 12345 --seconds 24 --trace 0

Run from the root of a checkout.  One client issues the workload's configs
back to back (a closed loop) in a fresh interpreter with ROBUSTQ_THREADS=2
and the BLAS/OpenMP thread variables set to 1.  ``--trace 0`` prints the
end-to-end metrics declared in BENCHMARK.json, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last line of standard output is the
result object; the line before it records the environment.  Every output is
checked (pinned digests, repeat bytes, gates); a failed check counts as a
failed call.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

THREADS = "2"  # nproc of the 2-CPU reference machine the bounds were set on
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_SPAWNS = 5
TIME_LIMIT_S = 170.0
SETUP_CODE = ("import json, sys\n"
              "import robustq.cli as cli\n"
              "for config in json.loads(sys.argv[1]):\n"
              "    cli.validate_config(config)\n")


def pinned_env() -> dict:
    env = dict(os.environ)
    env["ROBUSTQ_THREADS"] = THREADS
    for name in THREAD_VARS:
        env[name] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def measure_setup(configs, env) -> float:
    """Median wall time of a fresh interpreter that imports robustq.cli and
    validates the workload's configs.  The first spawn is not counted: it
    byte-compiles the sources, which an installed copy has already done."""
    times = []
    for spawn in range(SETUP_SPAWNS + 1):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", SETUP_CODE, json.dumps(configs)],
            env=env, cwd=ROOT, stdout=subprocess.DEVNULL)
        # a blocking wait: Popen.wait(timeout) polls in steps of up to 50 ms,
        # which would quantise the measurement
        watchdog = threading.Timer(60.0, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        if code != 0:
            raise RuntimeError(f"set-up interpreter exited with {code}")
        if spawn:
            times.append(time.perf_counter() - start)
    return statistics.median(times)


def source_record() -> dict:
    """The git commit when the checkout is a repository, and a digest of the
    package sources either way."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    commit = None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: BENCHMARK.json's "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "robustq" / "cli.py").is_file():
        print(f"perfbench: no robustq sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    started = time.perf_counter()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"]
                for m in bench["per_layer" if args.trace else "end_to_end"]}
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])
    env = pinned_env()
    entries = workloads.build(args.workload, args.seed)

    metrics = {}
    if not args.trace:
        metrics["setup_s"] = measure_setup([e.config for e in entries], env)
    out_root = ROOT / ".bench_out"
    out_root.mkdir(exist_ok=True)
    worker = subprocess.run(
        [sys.executable, str(HERE / "worker.py"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out", str(out_root / f"run-{os.getpid()}")],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, TIME_LIMIT_S - (time.perf_counter() - started)))
    if worker.returncode != 0:
        print(f"perfbench: worker exited with {worker.returncode}",
              file=sys.stderr)
        return 1
    result = json.loads(worker.stdout.strip().splitlines()[-1])
    metrics.update(result["metrics"])
    if set(metrics) != set(declared):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(declared))} "
              "printed but not declared, or declared but not printed",
              file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    for problem in result["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    for label, seconds in result["experiments"].items():
        print(f"perfbench: {args.workload}: {label}_s = {seconds:.6f} s "
              f"(median of {result['passes']})", file=sys.stderr)
    print(f"perfbench: {args.workload}: cli.fail_ratio = {failed}/{attempted}",
          file=sys.stderr)

    record = dict(result["env"], nproc=os.cpu_count(), workload=args.workload,
                  seed=args.seed, seconds=args.seconds, trace=args.trace,
                  passes=result["passes"], **source_record(),
                  **{name: env[name] for name in ("ROBUSTQ_THREADS",)
                     + THREAD_VARS})
    print(json.dumps({"env": record}))
    print(json.dumps({
        "correct": failed == 0 and not result["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
