"""vsmsim benchmark: one workload, one client, closed loop.

    python3 bench/run.py --workload {distribution,sampling,tangle,cli} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
``src/``.  The script measures set-up time (a fresh interpreter
importing ``vsmsim.cli``, median of several spawns), then starts
``worker.py`` as a child process, which runs the workload and checks
every output.  The child's peak RSS is read with ``os.wait4`` on that
child alone.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  The line before it holds the details of the run
(environment, sample count, failures, layer shares), and ``bench/out/``
receives the full record, including every generated input and, when
traced, every span.  See ``NOTES.md`` for why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("distribution", "sampling", "tangle", "cli")

# BLAS threads of every process the benchmark starts; at most nproc, and
# one keeps a single client from competing with itself on a shared host.
BLAS_THREADS = "1"
SETUP_SPAWNS = 3
WORKER_TIMEOUT_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def measure_setup(env: dict, spawns: int) -> list[float]:
    """Seconds for a fresh interpreter to import vsmsim.cli, once per spawn.

    The wait blocks in the kernel: a wait with a timeout polls, and its
    sleeps would round the times up to 50 ms steps.
    """
    argv = [sys.executable, "-c", "import vsmsim.cli"]
    times = []
    for _ in range(spawns):
        start = time.perf_counter()
        code = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL).wait()
        times.append(time.perf_counter() - start)
        if code != 0:
            raise RuntimeError(f"importing vsmsim.cli exited with code {code}")
    return times


def run_worker(args, env: dict, import_ms: float, result_path: Path):
    """Run worker.py to completion; return its exit code and resource usage."""
    argv = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--import-ms", repr(import_ms), "--outdir", str(OUT), "--result", str(result_path),
    ]
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return proc.returncode, usage
            if time.monotonic() > deadline:
                raise TimeoutError(f"worker still running after {WORKER_TIMEOUT_S} s")
            time.sleep(0.05)
    finally:
        if proc.returncode is None:
            # Terminate first, so the worker can stop its own subprocess.
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


def _stop(signum, frame):
    raise SystemExit(128 + signum)


def main() -> int:
    signal.signal(signal.SIGTERM, _stop)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be non-negative and --seconds positive")

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "vsmsim" / "cli.py").is_file() or not spec_path.is_file():
        print(f"bench: no vsmsim source tree with BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))

    env = child_env()
    OUT.mkdir(exist_ok=True)
    # The first spawn compiles bytecode and is not timed.  Half the timed
    # spawns run before the worker and half after, so the median samples
    # the host at two moments a run apart.
    measure_setup(env, 1)
    before = measure_setup(env, SETUP_SPAWNS)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = OUT / f"{tag}.json"
    code, usage = run_worker(args, env, 1e3 * statistics.median(before), result_path)
    if code != 0:
        print(f"bench: worker exited with code {code}", file=sys.stderr)
        return 1
    setup_times = before + measure_setup(env, SETUP_SPAWNS)
    setup_s = statistics.median(setup_times)
    result = json.loads(result_path.read_text(encoding="utf-8"))

    base = result["loop"]
    if args.trace:
        traced = result["traced_loop"]
        attempted = base["ops"] + traced["ops"]
        failed = base["failed"] + traced["failed"]
        values = {m["name"]: result["layers"].get(m["name"], 0.0) for m in spec["per_layer"]}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        attempted, failed = base["ops"], base["failed"]
        peak_kb = result.get("children_peak_rss_kb", usage.ru_maxrss)
        values = {
            "ops_per_s": base["ops_per_s"],
            "op_p50_ms": base["op_p50_ms"],
            "op_p90_ms": base["op_p90_ms"],
            "peak_rss_mb": peak_kb / 1024.0,
            "setup_s": setup_s,
            "ok_frac": (attempted - failed) / attempted,
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    result["setup_spawns_s"] = setup_times
    result_path.write_text(json.dumps(result), encoding="utf-8")
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": result["env"],
        "samples": base["ops"],
        "timed_s": base["timed_s"],
        "setup_spawns": len(setup_times),
        "failures": (base["failures"] + result.get("traced_loop", {}).get("failures", []))[:5],
        "shares": result.get("shares"),
        "record": str(result_path.relative_to(ROOT)),
    }
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
