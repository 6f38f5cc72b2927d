"""Command-line front end emitting deterministic JSON/CSV artifacts.

Subcommands
-----------
meter         entangled meter state for K rounds of N sites at angle theta
povm          POVM effects (optionally Kraus operators) of a measurement model
distribution  outcome probabilities for a given input state
sample        sampled shot record(s) for a given input state and seed
sweep         strength-tangle identity table over a theta grid
bell-demo     four Bell inputs measured with {XX, ZZ}, frequencies vs theory
tangle        n-tangle report for a meter spec or an arbitrary state
qudit         mod-d shift variable-strength measurement reference model

Artifacts are byte-identical across runs of the same configuration: no
timestamps, fixed key order, shortest round-trip floats in JSON and 17
significant digits in CSV.  Every artifact embeds the tool version, the
seed (null when no randomness is involved), and the qubit-ordering
convention.  The artifact goes to --out when given (summary line on
stdout), otherwise to stdout (summary line on stderr).

The JSON layout is exactly that of ``json.dumps(artifact, indent=2)``.
``_indented_json`` writes it without json's slow pure-Python indenting
encoder: each list of plain ints and floats is one call of the C
encoder, whose ", " separators are rewritten into the indented line
breaks, and only dicts and the other lists recurse in Python.

Exit codes: 0 success, 1 usage or validation error, 2 verification
failure (a sweep or tangle residual at or above 1e-8, or a bell-demo
frequency more than 4 sigma from theory).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .entanglement import (
    STRENGTH_TANGLE_ATOL,
    meter_tangle_simplified,
    state_tangle_report,
    verify_strength_tangle,
)
from .errors import ParseError, VsmError
from .meter import MeterSpec, kfold_meter, parse_angle
from .pauli import ObservableSet
from .protocol import (
    RNG_ALGORITHM,
    MeasurementModel,
    effects_to_json,
    kraus_closed_form,
    matrix_to_json,
    outcome_distribution,
    qudit_vsm,
    sample,
    sample_signs,
    sign_string,
)
from .statevec import Ket, check_size

QUBIT_ORDER_NOTE = "qubit 1 = most significant bit"

# A bell-demo frequency this many sigmas from theory is a failure.
BELL_Z_LIMIT = 4.0

_BELL_STATES = (
    ("phi+", (1, 1), np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)),
    ("phi-", (-1, 1), np.array([1.0, 0.0, 0.0, -1.0]) / math.sqrt(2.0)),
    ("psi+", (1, -1), np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0)),
    ("psi-", (-1, -1), np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)),
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _meta(seed=None) -> dict:
    return {
        "tool": "vsmsim",
        "version": __version__,
        "rng": RNG_ALGORITHM,
        "seed": seed,
        "qubit_order": QUBIT_ORDER_NOTE,
    }


def _csv_meta(seed=None) -> list[str]:
    seed_text = "none" if seed is None else str(seed)
    return [
        f"# vsmsim {__version__}",
        f"# rng={RNG_ALGORITHM} seed={seed_text}",
        f"# qubit_order={QUBIT_ORDER_NOTE}",
    ]


def _fmt(value: float) -> str:
    """CSV number rendering: 17 significant digits, '.' decimal separator."""
    return f"{value:.17g}"


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _emit(args, payload: str, summary: str) -> None:
    if getattr(args, "out", None):
        Path(args.out).write_text(payload, encoding="utf-8")
        print(summary)
    else:
        sys.stdout.write(payload)
        print(summary, file=sys.stderr)


def _json_payload(artifact: dict) -> str:
    return _indented_json(artifact, "") + "\n"


def _indented_json(value, indent: str) -> str:
    """``json.dumps(value, indent=2)`` for a value starting at ``indent``.

    json's pure-Python encoder, which ``indent`` selects, is slow on
    MB-sized arrays.  Containers recurse here, but a list of plain ints
    and floats is written by one call of the C encoder, whose ", "
    separators (never part of a number) become line breaks.
    """
    inner = indent + "  "
    if isinstance(value, dict) and value:
        # json.dumps({key: 0}) spells the key as json does for any key type.
        items = (
            f"{json.dumps({k: 0})[1:-4]}: {_indented_json(v, inner)}" for k, v in value.items()
        )
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if isinstance(value, (list, tuple)) and value:
        if set(map(type, value)) <= {int, float}:
            body = json.dumps(value)[1:-1].replace(", ", ",\n" + inner)
        else:
            body = (",\n" + inner).join(_indented_json(v, inner) for v in value)
        return "[\n" + inner + body + "\n" + indent + "]"
    return json.dumps(value)


def _load_state(text: str, n_expected: int | None = None) -> Ket:
    """Read a ket from inline JSON or from a file path.

    Accepts either the bare ket object or a meter/sample artifact that
    wraps one under 'state', 'post_state', or 'record.post_state'.
    """
    raw = text.strip()
    if not raw.startswith("{"):
        path = Path(raw)
        if not path.exists():
            raise ParseError(f"state file {raw!r} does not exist")
        raw = path.read_text(encoding="utf-8")
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid state JSON: {exc}") from exc
    if isinstance(data, dict) and "re" not in data:
        for path in (("state",), ("post_state",), ("record", "post_state")):
            inner = data
            for key in path:
                if not (isinstance(inner, dict) and key in inner):
                    break
                inner = inner[key]
            else:
                data = inner
                break
    ket = Ket.from_json(data)
    if n_expected is not None and ket.n != n_expected:
        raise ParseError(f"state has {ket.n} qubits, the model needs {n_expected}")
    return ket


def _model_from_args(args) -> MeasurementModel:
    obs = ObservableSet.from_string(args.obs)
    order: tuple[int, ...] = ()
    if getattr(args, "order", None):
        try:
            order = tuple(int(p) for p in args.order.split(","))
        except ValueError as exc:
            raise ParseError(f"invalid coupling order {args.order!r}") from exc
    return MeasurementModel(observables=obs, theta=args.theta, coupling_order=order)


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ParseError(f"grid {text!r} must be 'start:end:points'")
    start = parse_angle(parts[0])
    end = parse_angle(parts[1])
    try:
        points = int(parts[2])
    except ValueError as exc:
        raise ParseError(f"grid point count {parts[2]!r} is not an integer") from exc
    if points < 2:
        raise ParseError(f"grid needs at least 2 points, got {points}")
    check_size((points - 1).bit_length(), "the theta grid")
    return np.linspace(start, end, points)


def _cmd_meter(args) -> int:
    spec = MeterSpec(rounds=args.K, n_sites=args.N, theta=args.theta)
    state = kfold_meter(spec)
    artifact = {
        "meta": _meta(),
        "kind": "meter",
        "K": spec.rounds,
        "N": spec.n_sites,
        "theta": spec.theta,
        "strength": spec.strength,
        "vsm_compliant": spec.vsm_compliant,
        "state": state.to_json(),
    }
    summary = (
        f"meter K={spec.rounds} N={spec.n_sites} theta={_fmt(spec.theta)} "
        f"strength={_fmt(spec.strength)} vsm_compliant={_bool(spec.vsm_compliant)}"
    )
    _emit(args, _json_payload(artifact), summary)
    return 0


def _cmd_povm(args) -> int:
    model = _model_from_args(args)
    # One projector stack serves the Kraus set and the barycentric coordinates.
    pvm = model.pvm()
    kraus = kraus_closed_form(model, pvm)
    effects = kraus.povm().effects
    artifact = {
        "meta": _meta(),
        "kind": "povm",
        "model": model.to_json(),
        "strength": model.strength,
        "vsm_compliant": model.vsm_compliant,
        "multiplicity": model.multiplicity,
        "effects": effects_to_json(effects),
    }
    if args.kraus:
        artifact["kraus"] = effects_to_json(kraus.operators)
    if args.barycentric:
        coords = {}
        for signs, effect in effects.items():
            coords[sign_string(signs)] = [
                float(np.real(np.trace(effect @ proj))) / pvm.rank
                for proj in pvm.projectors.values()
            ]
        artifact["barycentric"] = coords
    summary = (
        f"povm obs={model.observables} theta={_fmt(model.theta)} "
        f"strength={_fmt(model.strength)} vsm_compliant={_bool(model.vsm_compliant)}"
    )
    _emit(args, _json_payload(artifact), summary)
    return 0


def _cmd_distribution(args) -> int:
    model = _model_from_args(args)
    state = _load_state(args.state, model.n_sites)
    dist = outcome_distribution(model, state)
    if args.format == "json":
        artifact = {
            "meta": _meta(),
            "kind": "distribution",
            "model": model.to_json(),
            "probabilities": {sign_string(s): p for s, p in dist.items()},
        }
        payload = _json_payload(artifact)
    else:
        lines = _csv_meta() + ["signs,probability"]
        lines += [f"{sign_string(s)},{_fmt(p)}" for s, p in dist.items()]
        payload = "\n".join(lines) + "\n"
    total = sum(dist.values())
    summary = f"distribution obs={model.observables} theta={_fmt(model.theta)} total={_fmt(total)}"
    _emit(args, payload, summary)
    return 0


def _cmd_sample(args) -> int:
    model = _model_from_args(args)
    state = _load_state(args.state, model.n_sites)
    if args.samples == 1:
        record = sample(model, state, args.seed)
        artifact = {
            "meta": _meta(seed=args.seed),
            "kind": "sample",
            "model": model.to_json(),
            "record": record.to_json(),
        }
        summary = f"sample signs={sign_string(record.signs)} probability={_fmt(record.probability)}"
    else:
        counts = sample_signs(model, state, args.samples, args.seed)
        artifact = {
            "meta": _meta(seed=args.seed),
            "kind": "sample-counts",
            "model": model.to_json(),
            "samples": args.samples,
            "counts": {sign_string(s): c for s, c in counts.items()},
        }
        summary = f"sample counts over {args.samples} shots"
    _emit(args, _json_payload(artifact), summary)
    return 0


def _cmd_sweep(args) -> int:
    if args.grid is not None:
        thetas = [float(t) for t in _parse_grid(args.grid)]
    elif args.theta is not None:
        thetas = [args.theta]
    else:
        raise _UsageError("sweep needs --grid or --theta")
    specs = [MeterSpec(rounds=args.K, n_sites=args.N, theta=t) for t in thetas]
    reports = verify_strength_tangle(specs)
    rows = []
    for spec, report in zip(specs, reports):
        rows.append(
            {
                "theta": spec.theta,
                "strength": spec.strength,
                "tau": report.tau,
                "residual": report.residual,
                "vsm_compliant": spec.vsm_compliant,
            }
        )
    ok = all(r["residual"] < STRENGTH_TANGLE_ATOL for r in rows)
    if args.format == "json":
        artifact = {
            "meta": _meta(),
            "kind": "sweep",
            "K": args.K,
            "N": args.N,
            "rows": rows,
            "ok": ok,
        }
        payload = _json_payload(artifact)
    else:
        lines = _csv_meta() + ["theta,strength,tau,residual,vsm_compliant"]
        for r in rows:
            lines.append(
                f"{_fmt(r['theta'])},{_fmt(r['strength'])},{_fmt(r['tau'])},"
                f"{_fmt(r['residual'])},{_bool(r['vsm_compliant'])}"
            )
        payload = "\n".join(lines) + "\n"
    worst = max(r["residual"] for r in rows)
    summary = (
        f"sweep K={args.K} N={args.N} points={len(rows)} "
        f"max_residual={_fmt(worst)} ok={_bool(ok)}"
    )
    _emit(args, payload, summary)
    return 0 if ok else 2


def _cmd_bell_demo(args) -> int:
    model = MeasurementModel(
        observables=ObservableSet.from_string("XX,ZZ"), theta=args.theta
    )
    p_correct = math.cos(args.theta) ** 2
    p_other = math.sin(args.theta) ** 2 / 3.0
    child_seeds = np.random.SeedSequence(args.seed).spawn(len(_BELL_STATES))
    states = []
    ok = True
    for (name, expected, amps), child in zip(_BELL_STATES, child_seeds):
        ket = Ket(amps)
        counts = sample_signs(model, ket, args.samples, child)
        theory = {s: (p_correct if s == expected else p_other) for s in counts}
        z_scores: dict[str, float | None] = {}
        max_abs_z = 0.0
        for s, count in counts.items():
            p = theory[s]
            sigma = math.sqrt(p * (1.0 - p) * args.samples)
            if sigma == 0.0:
                exact = count == int(round(p * args.samples))
                z_scores[sign_string(s)] = 0.0 if exact else None
                if not exact:
                    ok = False
            else:
                z = (count - p * args.samples) / sigma
                z_scores[sign_string(s)] = z
                max_abs_z = max(max_abs_z, abs(z))
                if abs(z) >= BELL_Z_LIMIT:
                    ok = False
        states.append(
            {
                "name": name,
                "expected": sign_string(expected),
                "counts": {sign_string(s): c for s, c in counts.items()},
                "frequencies": {
                    sign_string(s): c / args.samples for s, c in counts.items()
                },
                "theory": {sign_string(s): theory[s] for s in counts},
                "z": z_scores,
                "max_abs_z": max_abs_z,
            }
        )
    artifact = {
        "meta": _meta(seed=args.seed),
        "kind": "bell-demo",
        "model": model.to_json(),
        "strength": model.strength,
        "samples": args.samples,
        "states": states,
        "ok": ok,
    }
    summary = (
        f"bell-demo theta={_fmt(args.theta)} samples={args.samples} ok={_bool(ok)}"
    )
    _emit(args, _json_payload(artifact), summary)
    return 0 if ok else 2


def _cmd_tangle(args) -> int:
    if args.state is not None:
        state = _load_state(args.state)
        report = state_tangle_report(state)
        artifact = {
            "meta": _meta(),
            "kind": "tangle",
            "source": "state",
            "report": report.to_json(),
        }
        summary = f"tangle n={report.n} tau={_fmt(report.tau)} method={report.method}"
        _emit(args, _json_payload(artifact), summary)
        return 0
    if args.K is None or args.N is None or args.theta is None:
        raise _UsageError("tangle needs either --state or all of --K/--N/--theta")
    spec = MeterSpec(rounds=args.K, n_sites=args.N, theta=args.theta)
    report = verify_strength_tangle([spec])[0]
    artifact = {
        "meta": _meta(),
        "kind": "tangle",
        "source": "meter",
        "K": spec.rounds,
        "N": spec.n_sites,
        "theta": spec.theta,
        "simplified": meter_tangle_simplified(spec),
        "report": report.to_json(),
    }
    assert report.residual is not None
    ok = report.residual < STRENGTH_TANGLE_ATOL
    summary = (
        f"tangle K={spec.rounds} N={spec.n_sites} theta={_fmt(spec.theta)} "
        f"tau={_fmt(report.tau)} residual={_fmt(report.residual)} ok={_bool(ok)}"
    )
    _emit(args, _json_payload(artifact), summary)
    return 0 if ok else 2


def _cmd_qudit(args) -> int:
    result = qudit_vsm(args.d, args.theta)
    artifact = {
        "meta": _meta(),
        "kind": "qudit-vsm",
        "d": result.d,
        "theta": result.theta,
        "strength": result.strength,
        "effects": [matrix_to_json(e) for e in result.effects],
        "kraus": [matrix_to_json(k) for k in result.kraus],
    }
    summary = f"qudit d={result.d} theta={_fmt(result.theta)} strength={_fmt(result.strength)}"
    _emit(args, _json_payload(artifact), summary)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="vsmsim", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"vsmsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", help="output file path (default: artifact to stdout)")

    def add_format(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="artifact format (default csv)")

    p = sub.add_parser("meter", help="emit the entangled meter state")
    p.add_argument("--K", type=int, required=True, help="number of rounds")
    p.add_argument("--N", type=int, required=True, help="sites per round")
    p.add_argument("--theta", type=parse_angle, required=True,
                   help="mixing angle (radians, or e.g. 30deg)")
    add_out(p)
    p.set_defaults(func=_cmd_meter)

    p = sub.add_parser("povm", help="emit POVM effects of a measurement model")
    p.add_argument("--obs", required=True, help="comma-separated products, e.g. XX,ZZ")
    p.add_argument("--theta", type=parse_angle, required=True)
    p.add_argument("--order", help="coupling order, e.g. 2,1")
    p.add_argument("--kraus", action="store_true", help="include Kraus operators")
    p.add_argument("--barycentric", action="store_true",
                   help="include projector-basis coordinates of each effect")
    add_out(p)
    p.set_defaults(func=_cmd_povm)

    p = sub.add_parser("distribution", help="outcome probabilities for an input state")
    p.add_argument("--obs", required=True)
    p.add_argument("--theta", type=parse_angle, required=True)
    p.add_argument("--order")
    p.add_argument("--state", required=True, help="ket JSON (inline or file path)")
    add_out(p)
    add_format(p)
    p.set_defaults(func=_cmd_distribution)

    p = sub.add_parser("sample", help="sample measurement shots")
    p.add_argument("--obs", required=True)
    p.add_argument("--theta", type=parse_angle, required=True)
    p.add_argument("--order")
    p.add_argument("--state", required=True)
    p.add_argument("--samples", type=int, default=1)
    p.add_argument("--seed", type=int, required=True)
    add_out(p)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("sweep", help="strength-tangle identity over a theta grid")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--grid", help="theta grid start:end:points (angles may use deg)")
    p.add_argument("--theta", type=parse_angle, help="single-point sweep")
    add_out(p)
    add_format(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("bell-demo", help="Bell states measured jointly with XX,ZZ")
    p.add_argument("--theta", type=parse_angle, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    add_out(p)
    p.set_defaults(func=_cmd_bell_demo)

    p = sub.add_parser("tangle", help="n-tangle report")
    p.add_argument("--K", type=int)
    p.add_argument("--N", type=int)
    p.add_argument("--theta", type=parse_angle)
    p.add_argument("--state", help="ket JSON (inline or file path)")
    add_out(p)
    p.set_defaults(func=_cmd_tangle)

    p = sub.add_parser("qudit", help="mod-d shift VSM reference model")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--theta", type=parse_angle, required=True)
    add_out(p)
    p.set_defaults(func=_cmd_qudit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"vsmsim: error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"vsmsim: error: {exc}", file=sys.stderr)
        return 1
    except (VsmError, ValueError, OSError) as exc:
        print(f"vsmsim: error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
