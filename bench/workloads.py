"""Seeded workloads: input generators, operations and their output checks.

Every workload is a fixed cycle of (N, K) grid points.  A run repeats
whole cycles, so the mix of sizes, and with it the latency percentiles,
is the same on every seed; the seed only draws the contents (Pauli
sets, angles, states, sampler seeds).  Each operation is a closure that
calls vsmsim through module attributes (``protocol.sample``, not a
name imported into this file), so the span wrappers of ``spans.py``
see every call.  Checks run outside the timed region.

Inputs come only from the benchmark's own generators: Pauli sets are
built and verified with the symplectic/GF(2) test below, never with
``vsmsim.pauli``, so a later change to the library's validation cannot
change what the workload asks for.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from io import StringIO
from typing import Callable

import numpy as np

from vsmsim import cli, entanglement, meter, protocol, statevec
from vsmsim.pauli import ObservableSet

# Absolute tolerance of every probability and residual check.
ATOL = 1e-10
# The library's strength-tangle tolerance, restated so the check does not
# depend on the code under test.
TANGLE_ATOL = 1e-8
# Two-sided tail probability of a 5-sigma normal deviation.  Tallies are
# tested against the exact binomial tail at this level, so outcomes with
# small probabilities are not flagged by the skew of their tail.
FIVE_SIGMA_TAIL = math.erfc(5.0 / math.sqrt(2.0))

SHOTS = 1000


class CheckError(Exception):
    """An operation returned, but its output is wrong."""


@dataclass
class Op:
    """One closed-loop operation: recorded inputs, timed call, untimed check."""

    kind: str
    inputs: dict
    run: Callable[[], object]
    check: Callable[[object], None]


# ---------------------------------------------------------------- inputs

_LETTER_BITS = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}


def _symplectic(word: str) -> tuple[int, int]:
    """X and Z bitmasks of a Pauli word (site 1 on the high bit)."""
    x = z = 0
    for letter in word:
        bx, bz = _LETTER_BITS[letter]
        x = (x << 1) | bx
        z = (z << 1) | bz
    return x, z


def _commute(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return ((a[0] & b[1]).bit_count() + (a[1] & b[0]).bit_count()) % 2 == 0


def _reduce(vec: int, basis: list[int]) -> int:
    """Reduce a GF(2) vector against a basis kept sorted by leading bit."""
    for b in basis:
        vec = min(vec, vec ^ b)
    return vec


def random_commuting_set(rng: np.random.Generator, n: int, k: int) -> str:
    """K commuting, independent, full-weight Pauli words on N sites.

    Greedy draws with a bounded number of tries per member and a bounded
    number of restarts, so the generator always terminates: it raises
    instead of looping when (N, K) admits no such set (K > N does not).
    """
    if not 1 <= k <= n:
        raise ValueError(f"no independent commuting set of {k} words on {n} sites")
    for _ in range(50):
        words: list[str] = []
        vecs: list[tuple[int, int]] = []
        basis: list[int] = []
        for _ in range(200 * k):
            word = "".join("XYZ"[i] for i in rng.integers(0, 3, size=n))
            vec = _symplectic(word)
            reduced = _reduce((vec[0] << n) | vec[1], basis)
            if reduced and all(_commute(vec, v) for v in vecs):
                words.append(word)
                vecs.append(vec)
                basis = sorted(basis + [reduced], reverse=True)
                if len(words) == k:
                    return ",".join(words)
    raise RuntimeError(f"no commuting independent set found for N={n}, K={k}")


def random_state(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-random n-qubit amplitudes (normalized complex Gaussian)."""
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return amps / np.linalg.norm(amps)


def random_theta(rng: np.random.Generator) -> float:
    return float(rng.uniform(0.0, math.pi / 2))


# ---------------------------------------------------------------- checks


def _binomial_tail(count: int, shots: int, p: float) -> float:
    """Probability of a tally at least as far from the mean, on its side."""
    if p <= 0.0 or p >= 1.0:
        return 1.0 if count == round(p * shots) else 0.0
    def log_pmf(i):
        return (math.lgamma(shots + 1) - math.lgamma(i + 1) - math.lgamma(shots - i + 1)
                + i * math.log(p) + (shots - i) * math.log1p(-p))
    side = range(0, count + 1) if count <= shots * p else range(count, shots + 1)
    return sum(math.exp(log_pmf(i)) for i in side)


def _check_distribution(dist: dict, n_outcomes: int) -> None:
    if len(dist) != n_outcomes:
        raise CheckError(f"{len(dist)} outcomes, expected {n_outcomes}")
    low = min(dist.values())
    if low < -ATOL:
        raise CheckError(f"negative probability {low!r}")
    total = sum(dist.values())
    if abs(total - 1.0) > ATOL:
        raise CheckError(f"probabilities sum to {total!r}")


def _bruteforce_distribution(model, ket) -> dict:
    """Outcome probabilities from the literal-circuit Kraus oracle."""
    kraus = protocol.kraus_bruteforce(model)
    amps = ket.amplitudes
    return {
        s: kraus.multiplicity * float(np.vdot(m @ amps, m @ amps).real)
        for s, m in kraus.operators.items()
    }


# ---------------------------------------------------------------- distribution
#
# Why: closed-form outcome probabilities of a random commuting set on a
# random state.  Validation (``pauli.validate_set``) and the dense joint
# projectors, built three times per call, do about three quarters of
# the work; the coupling circuit and the sampler are never run.  This
# is the workload a symplectic Pauli core must speed up.  N stops at 9
# because N = 10 already costs seconds per operation.  Every (N, K) with
# N from 4 to 9 and K from 1 to 3 runs once per cycle; (8, 1) runs eight
# times and (8, 2), (8, 3) twice.  The median then lands on (8, 1), a
# 256 x 256 operation, rather than on the millisecond ones below it, whose
# latency moved by up to 40% between runs on a shared host; p90 lands on
# (8, 3).

DISTRIBUTION_GRID = (
    [(n, k) for n in range(4, 10) for k in (1, 2, 3)]
    + [(8, 1)] * 7
    + [(8, 2), (8, 3)]
)
# The brute-force oracle is affordable up to this many system qubits.
BRUTEFORCE_MAX_N = 4


def distribution_op(rng: np.random.Generator, n: int, k: int) -> Op:
    obs = random_commuting_set(rng, n, k)
    theta = random_theta(rng)
    amps = random_state(rng, n)

    def run():
        model = protocol.MeasurementModel(ObservableSet.from_string(obs), theta)
        ket = statevec.Ket(amps)
        return model, ket, protocol.outcome_distribution(model, ket)

    def check(out):
        model, ket, dist = out
        _check_distribution(dist, 1 << k)
        if n <= BRUTEFORCE_MAX_N:
            oracle = _bruteforce_distribution(model, ket)
            worst = max(abs(dist[s] - oracle[s]) for s in oracle)
            if worst > ATOL:
                raise CheckError(f"differs from the brute-force oracle by {worst:.3e}")

    return Op("distribution", {"N": n, "K": k, "obs": obs, "theta": theta}, run, check)


# ---------------------------------------------------------------- sampling
#
# Why: the coupling circuit on the dense N(K+1)-qubit register, the
# X-basis readout transform and the sampler (``meter``, ``statevec.tensor``,
# ``statevec.apply_controlled``, ``protocol.couple/sample/sample_signs``).
# Grid points favour K >= 2 at small N, so validation (``pauli``) stays a
# small share.  Every grid point runs once as a 1000-shot tally and once
# as a single shot with post-state, so a sampler change that helps one
# kind and hurts the other shows.  The three small points cover the low
# end of the range; the 15- to 20-qubit points run twice per cycle so
# the median lands on operations that do real coupling work.  The
# register stops at 20 qubits (about 0.5 s and 140 MB per operation;
# 24 would take 13 s and 1.3 GB).

SAMPLING_GRID = [(3, 1), (6, 1), (2, 2)] + [(5, 2), (4, 3), (6, 2), (5, 3)] * 2


def sampling_op(rng: np.random.Generator, n: int, k: int, tally: bool) -> Op:
    obs = random_commuting_set(rng, n, k)
    theta = random_theta(rng)
    amps = random_state(rng, n)
    seed = int(rng.integers(0, 2**32))

    def run():
        model = protocol.MeasurementModel(ObservableSet.from_string(obs), theta)
        ket = statevec.Ket(amps)
        if tally:
            return model, ket, protocol.sample_signs(model, ket, SHOTS, seed)
        return model, ket, protocol.sample(model, ket, seed)

    def check(out):
        model, ket, result = out
        dist = protocol.outcome_distribution(model, ket)
        if tally:
            total = sum(result.values())
            if total != SHOTS:
                raise CheckError(f"tallies sum to {total}, not {SHOTS}")
            for signs, count in result.items():
                tail = _binomial_tail(count, SHOTS, dist[signs])
                if tail < FIVE_SIGMA_TAIL / 2:
                    raise CheckError(
                        f"tally {count} for {signs} is beyond 5 sigma of p={dist[signs]!r}"
                    )
            return
        norm = float(np.linalg.norm(result.post_state.amplitudes))
        if abs(norm - 1.0) > ATOL:
            raise CheckError(f"post-state norm {norm!r}")
        if dist[result.signs] <= ATOL:
            raise CheckError(f"sampled signs {result.signs} have probability {dist[result.signs]!r}")

    kind = "sample_signs" if tally else "sample"
    return Op(kind, {"N": n, "K": k, "obs": obs, "theta": theta, "seed": seed}, run, check)


# ---------------------------------------------------------------- tangle
#
# Why: the dense 2^(KN) meter register (``meter.kfold_meter``) and the
# n-tangle evaluators (``entanglement``); ``pauli`` and ``protocol`` are
# not used.  Five points take the literal contraction (K*N <= 8) and
# eleven the spin-flip path (K*N from 17 to 22), with odd and even N and
# every K from 1 to 3.  Spin-flip sizes from 9 to 16 qubits are left
# out: they take a few ms, are mostly interpreter overhead, and their
# latency moved by half between runs on a shared host; without them the
# median lands on 17-18 qubit operations, which moved by about 15%.
# Each operation tabulates tangle against strength^2 on a three-angle
# grid and adds the reduced two-block pairing.

TANGLE_GRID = [(5, 1), (8, 1), (2, 2), (3, 2), (2, 3)] + [
    (n, k) for k in (1, 2, 3) for n in range(1, 23) if 17 <= n * k <= 22
]
TANGLE_THETAS = 3


def _odd_site_tangle(k: int, theta: float) -> float:
    """README closed form of the meter tangle for odd N and K >= 2."""
    d = (1 << k) - 1
    beta = math.cos(theta) - math.sin(theta) / math.sqrt(d)
    return 4.0 * math.sin(theta) ** 2 * beta**2 / d


def tangle_op(rng: np.random.Generator, n: int, k: int) -> Op:
    thetas = [random_theta(rng) for _ in range(TANGLE_THETAS)]

    def run():
        specs = [meter.MeterSpec(rounds=k, n_sites=n, theta=t) for t in thetas]
        reports = entanglement.verify_strength_tangle(specs)
        return reports, entanglement.meter_tangle_simplified(specs[0])

    def check(out):
        reports, simplified = out
        for theta, report in zip(thetas, reports):
            if k == 1 or n % 2 == 0:
                if not report.residual < TANGLE_ATOL:
                    raise CheckError(f"residual {report.residual!r} at theta={theta!r}")
            else:
                expected = _odd_site_tangle(k, theta)
                if abs(report.tau - expected) > TANGLE_ATOL:
                    raise CheckError(f"tau {report.tau!r} differs from closed form {expected!r}")
        if abs(simplified - reports[0].tau) > TANGLE_ATOL:
            raise CheckError(f"simplified tangle {simplified!r} differs from {reports[0].tau!r}")

    return Op("tangle", {"N": n, "K": k, "thetas": thetas}, run, check)


# ---------------------------------------------------------------- cli
#
# Why: what a command-line user pays.  One subprocess at a time runs the
# eight README examples, then the three heavy commands: an 8-qubit POVM
# (dense effects, about 8 MB of JSON), a 3-round meter on 18 qubits
# (about 6 MB) and a 20-qubit sweep.  The small commands are mostly
# interpreter start plus import; the heavy ones add parsing, MB-sized
# serialization and the dense POVM path that ``distribution`` skips.
# Artifacts are checked by content, not by hash, because planned
# changes alter their bytes on purpose.  The seed draws the input state,
# the sampler seed and the heavy commands' angles.


class CliRunner:
    """Runs one CLI invocation, as a subprocess or through ``cli.main``."""

    def __init__(self, workdir: str, in_process: bool):
        self.workdir = workdir
        self.in_process = in_process
        self.peak_rss_kb = 0
        self.artifact_bytes = 0

    def __call__(self, argv: list[str]) -> tuple[int, str]:
        if self.in_process:
            err = StringIO()
            with redirect_stdout(StringIO()), redirect_stderr(err):
                code = cli.main(argv)
            return code, err.getvalue()
        err_path = os.path.join(self.workdir, "stderr.txt")
        with open(err_path, "w", encoding="utf-8") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "vsmsim.cli", *argv],
                stdout=subprocess.DEVNULL, stderr=err,
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        with open(err_path, encoding="utf-8") as err:
            return proc.returncode, err.read()


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _matrix(entry: dict) -> np.ndarray:
    return np.asarray(entry["re"]) + 1j * np.asarray(entry["im"])


def _check_complete(effects: list[np.ndarray]) -> None:
    total = sum(effects)
    residual = float(np.max(np.abs(total - np.eye(total.shape[0]))))
    if residual > ATOL:
        raise CheckError(f"POVM completeness residual {residual:.3e}")


def _check_meter(path: str, n_qubits: int) -> None:
    state = _load_json(path)["state"]
    amps = np.asarray(state["re"]) + 1j * np.asarray(state["im"])
    if state["n"] != n_qubits or abs(np.linalg.norm(amps) - 1.0) > ATOL:
        raise CheckError(f"meter state is not a unit vector on {n_qubits} qubits")


def _check_povm(path: str) -> None:
    _check_complete([_matrix(e) for e in _load_json(path)["effects"].values()])


def _check_qudit(path: str) -> None:
    _check_complete([_matrix(e) for e in _load_json(path)["effects"]])


def _csv_rows(path: str) -> list[list[str]]:
    """Data rows of a CSV artifact: no comment lines, no header."""
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line and not line.startswith("#")]
    return [line.split(",") for line in lines[1:]]


def _check_distribution_csv(path: str) -> None:
    _check_distribution({signs: float(p) for signs, p in _csv_rows(path)}, 4)


def _check_counts(path: str) -> None:
    total = sum(_load_json(path)["counts"].values())
    if total != SHOTS:
        raise CheckError(f"sample counts sum to {total}, not {SHOTS}")


def _check_sweep_csv(path: str, points: int) -> None:
    rows = _csv_rows(path)
    if len(rows) != points or any(not float(r[3]) < TANGLE_ATOL for r in rows):
        raise CheckError(f"sweep table is not {points} rows with residual < {TANGLE_ATOL}")


def _check_ok(path: str) -> None:
    if _load_json(path).get("ok") is not True:
        raise CheckError("artifact reports ok=false")


def _check_tangle(path: str) -> None:
    artifact = _load_json(path)
    if not artifact["report"]["residual"] < TANGLE_ATOL:
        raise CheckError(f"tangle residual {artifact['report']['residual']!r}")
    if abs(artifact["simplified"] - artifact["report"]["tau"]) > TANGLE_ATOL:
        raise CheckError("simplified tangle differs from the report")


def cli_cycle(rng: np.random.Generator, runner: CliRunner) -> list[Op]:
    """The eight README examples, then the three heavy commands, in order."""
    state_path = os.path.join(runner.workdir, "state.json")
    amps = random_state(rng, 2)
    with open(state_path, "w", encoding="utf-8") as fh:
        json.dump({"n": 2, "re": amps.real.tolist(), "im": amps.imag.tolist()}, fh)
    sample_seed = int(rng.integers(0, 2**31))
    heavy_theta = f"{random_theta(rng):.6f}"
    commands = [
        ("meter --K 2 --N 3 --theta 0", lambda p: _check_meter(p, 6)),
        ("povm --obs XX,ZZ --theta 30deg --kraus --barycentric", _check_povm),
        (f"distribution --obs XX,ZZ --theta 0.5 --state {state_path}", _check_distribution_csv),
        (f"sample --obs XX,ZZ --theta 0.5 --state {state_path} --seed {sample_seed} "
         f"--samples {SHOTS}", _check_counts),
        ("sweep --K 1 --N 2 --grid 0:90deg:25 --format csv", lambda p: _check_sweep_csv(p, 25)),
        ("bell-demo --theta 30deg --samples 100000 --seed 42", _check_ok),
        ("tangle --K 2 --N 2 --theta 0.3", _check_tangle),
        ("qudit --d 4 --theta 0.5236", _check_qudit),
        (f"povm --obs XXXXXXXX,ZZZZZZZZ --theta {heavy_theta}", _check_povm),
        (f"meter --K 3 --N 6 --theta {heavy_theta}", lambda p: _check_meter(p, 18)),
        ("sweep --K 2 --N 10 --grid 0:90deg:5 --format json", _check_ok),
    ]
    out_path = os.path.join(runner.workdir, "artifact.out")
    ops = []
    for command, check_artifact in commands:
        argv = command.split() + ["--out", out_path]

        def check(out, check_artifact=check_artifact):
            code, stderr = out
            try:
                if code != 0:
                    raise CheckError(f"exit code {code}: {stderr.strip()[-200:]}")
                runner.artifact_bytes += os.path.getsize(out_path)
                check_artifact(out_path)
            finally:
                if os.path.exists(out_path):
                    os.remove(out_path)

        ops.append(Op(command.split()[0], {"argv": command}, lambda argv=argv: runner(argv), check))
    return ops


# ---------------------------------------------------------------- cycles


def make_cycle(name: str, rng: np.random.Generator, runner: CliRunner | None = None) -> list[Op]:
    """One cycle of a workload, shuffled by the seed except for ``cli``."""
    if name == "cli":
        return cli_cycle(rng, runner)
    if name == "distribution":
        ops = [distribution_op(rng, n, k) for n, k in DISTRIBUTION_GRID]
    elif name == "sampling":
        ops = [sampling_op(rng, n, k, tally) for n, k in SAMPLING_GRID for tally in (True, False)]
    elif name == "tangle":
        ops = [tangle_op(rng, n, k) for n, k in TANGLE_GRID]
    else:
        raise ValueError(f"unknown workload {name!r}")
    return [ops[i] for i in rng.permutation(len(ops))]


WORKLOADS = ("distribution", "sampling", "tangle", "cli")
