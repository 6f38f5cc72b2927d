"""Benchmark worker: runs one workload in a closed loop and writes its result.

Started by ``run.py`` as a child process, so that its peak RSS belongs
to the workload alone.  One client sends the next operation only after
the previous one has finished and been checked; only the operation
itself is timed.  A run repeats whole cycles until at least ``--seconds``
of operation time and at least ``MIN_OPS`` operations are done, so p90
has at least ten samples beyond it.

With ``--trace 1`` the same loop runs twice: once plain, then with the
spans of ``spans.py`` installed.  The ratio of the two rates is the
tracing overhead; the traced loop gives the per-layer numbers.  The
``cli`` workload calls ``vsmsim.cli.main`` in-process in both loops of a
traced run, and spawns one interpreter per operation otherwise.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import signal
import statistics
import tempfile
import time

import numpy as np

from spans import LAYERS, Tracer
from workloads import WORKLOADS, CheckError, CliRunner, make_cycle

MIN_OPS = 100
# Idle pause before each operation, outside the timed region.  On a shared
# VM the host's contention state otherwise persists from one operation to
# the next (lag-1 autocorrelation 0.86 for back-to-back 10 ms complex
# matmuls); after a 20 ms pause it fell to 0.37, so a run averages over
# many host states instead of riding one.
THINK_S = 0.02

# Self time of these spans is the work each workload was designed to
# stress; a name ending in "." covers a whole layer.
DESIGN_TARGETS = {
    "distribution": ("pauli.", "protocol.MeasurementModel", "protocol.kraus_closed_form",
                     "protocol.povm", "protocol.outcome_distribution"),
    "sampling": ("statevec.", "meter.", "protocol.couple", "protocol.sample",
                 "protocol.sample_signs", "protocol.combine_outcomes"),
    "tangle": ("meter.", "entanglement."),
    "cli": ("cli.main",),
}


def _matches(name: str, targets) -> bool:
    return any(name.startswith(t) if t.endswith(".") else name == t for t in targets)


def _execute(op, tracer: Tracer | None, index: int) -> tuple[float, str | None]:
    """Run one operation (timed), then check its output (untimed)."""
    time.sleep(THINK_S)
    if tracer is not None:
        tracer.op = index
        tracer.active = True
    start = time.perf_counter()
    try:
        out = op.run()
        error = None
    except Exception as exc:  # an operation that raises is a counted failure
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.active = False
    if error is None:
        try:
            op.check(out)
        except CheckError as exc:
            error = f"check failed: {exc}"
        except Exception as exc:  # a malformed output is a counted failure
            error = f"check raised {type(exc).__name__}: {exc}"
    return elapsed, error


def run_loop(name: str, seed: int, seconds: float, runner, tracer: Tracer | None = None) -> dict:
    rng = np.random.default_rng(seed)
    if runner is not None:
        runner.artifact_bytes = 0
    latencies: list[float] = []
    inputs: list[dict] = []
    failures: list[dict] = []
    while sum(latencies) < seconds or len(latencies) < MIN_OPS:
        for op in make_cycle(name, rng, runner):
            elapsed, error = _execute(op, tracer, len(latencies))
            if error is not None:
                failures.append({"op": len(latencies), "kind": op.kind, "error": error})
            latencies.append(elapsed)
            inputs.append({"kind": op.kind, **op.inputs})
    timed = sum(latencies)
    return {
        "ops": len(latencies),
        "failed": len(failures),
        "timed_s": timed,
        "ops_per_s": len(latencies) / timed,
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_p90_ms": 1e3 * statistics.quantiles(latencies, n=10)[8],
        "failures": failures,
        "latencies_s": latencies,
        "inputs": inputs,
    }


def layer_metrics(name: str, tracer: Tracer, loop: dict, base: dict, runner,
                  import_ms: float) -> tuple[dict, dict]:
    """Per-operation layer numbers of a traced loop, and each layer's share of op time."""
    stats, top = tracer.summary()
    ops = loop["ops"]
    metrics: dict[str, float] = {}
    for span_name, (calls, self_s, errors, nbytes) in stats.items():
        metrics[f"{span_name}.calls"] = calls / ops
        metrics[f"{span_name}.self_ms"] = 1e3 * self_s / ops
        metrics[f"{span_name}.errors"] = errors / ops
        metrics[f"{span_name}.bytes"] = nbytes / ops
    op_s = loop["timed_s"]
    layer_self = {layer: sum(v[1] for k, v in stats.items() if k.startswith(layer + "."))
                  for layer in LAYERS}
    for layer, self_s in layer_self.items():
        metrics[f"{layer}.self_ms"] = 1e3 * self_s / ops
    glue_s = op_s - sum(top.values())
    metrics["bench.self_ms"] = 1e3 * glue_s / ops
    metrics["cli.artifact_bytes"] = runner.artifact_bytes / ops if runner else 0.0
    metrics["cli.import_ms"] = import_ms

    target_s = sum(v[1] for k, v in stats.items() if _matches(k, DESIGN_TARGETS[name]))
    total_s = op_s
    if name == "cli":
        # Each subprocess invocation also pays a fresh interpreter's import.
        target_s += ops * import_ms / 1e3
        total_s += ops * import_ms / 1e3
    metrics["design.target_share"] = target_s / total_s
    metrics["trace.ops"] = ops
    metrics["trace.ops_per_s"] = loop["ops_per_s"]
    metrics["trace.untraced_ops_per_s"] = base["ops_per_s"]
    metrics["trace.overhead_frac"] = base["ops_per_s"] / loop["ops_per_s"] - 1.0
    shares = {layer: s / op_s for layer, s in layer_self.items()}
    shares["bench"] = glue_s / op_s
    return metrics, shares


def _read_first(path: str, prefix: str = "") -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[-1].strip()
    except OSError:
        pass
    return "unknown"


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, if it can be found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _read_first("/proc/cpuinfo", "model name"),
        "l3_cache": _read_first("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": _blas_threads(),
    }


def _stop(signum, frame):
    raise SystemExit(128 + signum)


def main() -> None:
    # A termination request unwinds normally, so a running CLI subprocess
    # is killed and the scratch directory removed.
    signal.signal(signal.SIGTERM, _stop)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--import-ms", type=float, required=True,
                        help="median fresh-interpreter import time, measured by run.py")
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    result: dict = {"env": environment()}
    workdir = tempfile.mkdtemp(prefix="cli-", dir=args.outdir)
    try:
        runner = CliRunner(workdir, in_process=bool(args.trace)) if args.workload == "cli" else None
        base = run_loop(args.workload, args.seed, args.seconds, runner)
        result["loop"] = base
        if runner is not None:
            result["children_peak_rss_kb"] = runner.peak_rss_kb
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_loop(args.workload, args.seed, args.seconds, runner, tracer)
            finally:
                tracer.uninstall()
            result["traced_loop"] = traced
            result["layers"], result["shares"] = layer_metrics(
                args.workload, tracer, traced, base, runner, args.import_ms)
            result["spans_file"] = os.path.join(
                args.outdir, f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
            tracer.write(result["spans_file"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
