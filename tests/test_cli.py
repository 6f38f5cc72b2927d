"""End-to-end tests of the command line driver.

Each invocation goes through main(argv) so exit codes, artifact bytes,
and the stdout/stderr split are all exercised exactly as a shell user
would see them.
"""

import json
import math
import random
import sys

import numpy as np
import pytest

from projectors import pvm_of

from vsmsim import cli, protocol
from vsmsim.cli import _json_payload, main
from vsmsim.meter import strength
from vsmsim.pauli import ObservableSet
from vsmsim.protocol import MeasurementModel, outcome_distribution
from vsmsim.statevec import Ket


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GHZ2_JSON = json.dumps(
    {"n": 2, "re": [2 ** -0.5, 0.0, 0.0, 2 ** -0.5], "im": [0.0, 0.0, 0.0, 0.0]}
)


class TestMeter:
    def test_artifact_schema(self, capsys):
        code, out, err = run(
            capsys, "meter", "--K", "2", "--N", "2", "--theta", "0.5"
        )
        assert code == 0
        artifact = json.loads(out)
        assert artifact["kind"] == "meter"
        assert artifact["K"] == 2 and artifact["N"] == 2
        assert artifact["strength"] == pytest.approx(strength(2, 0.5))
        assert artifact["meta"]["tool"] == "vsmsim"
        assert artifact["meta"]["seed"] is None
        assert "sampler" not in artifact["meta"]
        assert "qubit 1" in artifact["meta"]["qubit_order"]
        amps = np.array(artifact["state"]["re"]) + 1j * np.array(artifact["state"]["im"])
        assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-12)
        assert "meter K=2 N=2" in err

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run(capsys, "meter", "--K", "1", "--N", "3", "--theta", "0.7")
        _, second, _ = run(capsys, "meter", "--K", "1", "--N", "3", "--theta", "0.7")
        assert first == second

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "meter.json"
        code, out, err = run(
            capsys, "meter", "--K", "1", "--N", "2", "--theta", "30deg",
            "--out", str(target),
        )
        assert code == 0
        assert err == ""
        assert "meter K=1 N=2" in out
        artifact = json.loads(target.read_text())
        assert artifact["theta"] == pytest.approx(math.pi / 6, rel=1e-15)

    def test_csv_not_supported(self, capsys):
        code, _, err = run(
            capsys, "meter", "--K", "1", "--N", "2", "--theta", "0.5",
            "--format", "csv",
        )
        assert code == 1
        assert "error" in err

    def test_format_not_offered(self, capsys):
        code, _, err = run(
            capsys, "meter", "--K", "1", "--N", "2", "--theta", "0.5", "--format", "json"
        )
        assert code == 1
        assert "unrecognized arguments: --format" in err

    def test_bad_theta(self, capsys):
        code, _, err = run(capsys, "meter", "--K", "1", "--N", "2", "--theta", "2.0")
        assert code == 1
        assert "error" in err

    def test_register_over_qubit_cap(self, capsys, monkeypatch):
        # 64 qubits: refused before the 2**64 amplitudes are requested.
        monkeypatch.delenv("VSM_MAX_QUBITS", raising=False)
        code, _, err = run(capsys, "meter", "--K", "4", "--N", "16", "--theta", "0.3")
        assert code == 1
        assert "above the limit of 24" in err


class TestPovm:
    def test_strong_limit_effects_are_projectors(self, capsys):
        code, out, _ = run(capsys, "povm", "--obs", "XX,ZZ", "--theta", "0")
        assert code == 0
        artifact = json.loads(out)
        pvm = pvm_of(ObservableSet.from_string("XX,ZZ"))
        for signs, proj in pvm.projectors.items():
            key = "".join("+" if s > 0 else "-" for s in signs)
            entry = artifact["effects"][key]
            mat = np.array(entry["re"]) + 1j * np.array(entry["im"])
            np.testing.assert_allclose(mat, proj, atol=1e-12)
        assert "kraus" not in artifact

    @pytest.mark.parametrize(
        "obs, message",
        [
            ("XX,ZZ,YY", "set XX,ZZ,YY is dependent: members [1, 2, 3] multiply to -I"),
            ("X,X", "set X,X is dependent: members [1, 2] multiply to +I"),
        ],
    )
    def test_dependent_set_exits_1(self, capsys, obs, message):
        code, out, err = run(capsys, "povm", "--obs", obs, "--theta", "0.3")
        assert code == 1
        assert out == ""
        assert err == f"vsmsim: error: {message}\n"

    def test_kraus_included_on_request(self, capsys):
        code, out, _ = run(
            capsys, "povm", "--obs", "ZZ", "--theta", "0.4", "--kraus"
        )
        assert code == 0
        artifact = json.loads(out)
        assert set(artifact["kraus"]) == {"+", "-"}

    def test_barycentric_coordinates(self, capsys):
        theta = 0.5
        code, out, _ = run(
            capsys, "povm", "--obs", "XX,ZZ", "--theta", str(theta), "--barycentric"
        )
        assert code == 0
        coords = json.loads(out)["barycentric"]
        order = ["++", "+-", "-+", "--"]
        for row, key in enumerate(order):
            for col, value in enumerate(coords[key]):
                expected = (
                    math.cos(theta) ** 2 if col == row else math.sin(theta) ** 2 / 3
                )
                assert value == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize(
        "flags",
        [[], ["--kraus"], ["--barycentric"], ["--kraus", "--barycentric"]],
        ids=["plain", "kraus", "barycentric", "kraus-barycentric"],
    )
    def test_povm_scatters_once(self, capsys, monkeypatch, flags):
        # The one dense kernel runs once, and what it builds is the Kraus set, not projectors.
        stacks = []
        real_scatter = protocol.scatter

        def spied(*args, **kwargs):
            stacks.append(real_scatter(*args, **kwargs))
            return stacks[-1]

        monkeypatch.setattr(protocol, "scatter", spied)
        code, out, _ = run(capsys, "povm", "--obs", "XYZ,ZZZ", "--theta", "0.3", *flags)
        assert code == 0
        assert {"kraus", "barycentric"} & set(json.loads(out)) == {f[2:] for f in flags}
        assert len(stacks) == 1
        model = MeasurementModel(ObservableSet.from_string("XYZ,ZZZ"), 0.3)
        brute = protocol.kraus_bruteforce(model).operators.values()
        np.testing.assert_allclose(stacks[0], list(brute), rtol=0, atol=1e-12)

    def test_noncommuting_rejected(self, capsys):
        code, _, err = run(capsys, "povm", "--obs", "XX,ZX", "--theta", "0.3")
        assert code == 1
        assert "error" in err

    def test_projector_stack_over_qubit_cap(self, capsys, monkeypatch):
        # Two projectors of 16 x 16 entries count as 2N + K = 9 qubits.
        monkeypatch.setenv("VSM_MAX_QUBITS", "8")
        code, _, err = run(capsys, "povm", "--obs", "XXXX", "--theta", "0.3")
        assert code == 1
        assert "above the limit of 8" in err

    @pytest.mark.parametrize("command", ["povm", "distribution"])
    def test_subset_products_over_qubit_cap(self, capsys, monkeypatch, command):
        # The set is refused while validated, before its 2^4 subset products exist.
        # distribution first compares the set with its 2-qubit state, so its set has 2 sites.
        monkeypatch.setenv("VSM_MAX_QUBITS", "3")
        obs, state = {
            "povm": ("ZXXX,XZXX,XXZX,XXXZ", []),
            "distribution": ("XX,ZZ,YY,XX", ["--state", GHZ2_JSON]),
        }[command]
        code, out, err = run(capsys, command, "--obs", obs, "--theta", "0.3", *state)
        assert (code, out) == (1, "")
        assert "the 2^K subset products needs 2^4 entries, above the limit of 3" in err


class TestDistribution:
    def test_csv_default(self, capsys):
        code, out, _ = run(
            capsys, "distribution", "--obs", "XX,ZZ", "--theta", "0.5",
            "--state", GHZ2_JSON,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# vsmsim")
        header = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header] == "signs,probability"
        rows = {r.split(",")[0]: float(r.split(",")[1]) for r in lines[header + 1:]}
        model = MeasurementModel(
            observables=ObservableSet.from_string("XX,ZZ"), theta=0.5
        )
        dist = outcome_distribution(model, Ket.from_json(json.loads(GHZ2_JSON)))
        for signs, p in dist.items():
            key = "".join("+" if s > 0 else "-" for s in signs)
            assert rows[key] == pytest.approx(p, abs=1e-15)

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "distribution", "--obs", "ZZ", "--theta", "0", "--format", "json",
            "--state", GHZ2_JSON,
        )
        assert code == 0
        probs = json.loads(out)["probabilities"]
        assert probs["+"] == pytest.approx(1.0)
        assert probs["-"] == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize(
        "command",
        [
            ["distribution"],
            ["sample", "--seed", "1"],
            ["sample", "--seed", "1", "--samples", "100"],
        ],
        ids=["distribution", "sample", "sample-counts"],
    )
    def test_wrong_qubit_count(self, capsys, monkeypatch, command):
        # The state is compared with the parsed set before the set's 2^K products are formed.
        calls = []
        validate = protocol.validate_set
        monkeypatch.setattr(protocol, "validate_set", lambda obs: calls.append(obs) or validate(obs))
        code, out, err = run(
            capsys, *command, "--obs", "XYZ", "--theta", "0.2", "--state", GHZ2_JSON
        )
        assert (code, out, calls) == (1, "", [])
        assert "vsmsim: error: system has 2 qubits, model needs 3" in err
        # The spy does see the validation of a set that fits the state.
        code, _, _ = run(capsys, *command, "--obs", "XX,ZZ", "--theta", "0.2", "--state", GHZ2_JSON)
        assert code == 0
        assert [str(obs) for obs in calls] == ["XX,ZZ"]


class TestSample:
    def test_single_record(self, capsys):
        code, out, _ = run(
            capsys, "sample", "--obs", "XX,ZZ", "--theta", "0.3",
            "--state", GHZ2_JSON, "--seed", "42",
        )
        assert code == 0
        artifact = json.loads(out)
        assert artifact["kind"] == "sample"
        assert artifact["meta"]["seed"] == 42
        assert artifact["meta"]["sampler"] == "records"
        record = artifact["record"]
        assert set(record["signs"]) <= {"+", "-"}
        assert len(record["raw"]) == 4
        assert 0.0 <= record["probability"] <= 1.0

    def test_deterministic(self, capsys):
        args = (
            "sample", "--obs", "ZZ", "--theta", "0.8",
            "--state", GHZ2_JSON, "--seed", "7",
        )
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_counts_mode(self, capsys):
        code, out, _ = run(
            capsys, "sample", "--obs", "XX,ZZ", "--theta", "0.5",
            "--state", GHZ2_JSON, "--seed", "3", "--samples", "250",
        )
        assert code == 0
        artifact = json.loads(out)
        assert artifact["kind"] == "sample-counts"
        assert artifact["meta"]["sampler"] == "multinomial"
        assert sum(artifact["counts"].values()) == 250

    def test_zero_samples(self, capsys):
        code, _, err = run(
            capsys, "sample", "--obs", "XX,ZZ", "--theta", "0.5",
            "--state", GHZ2_JSON, "--seed", "3", "--samples", "0",
        )
        assert code == 1
        assert "shots must be positive, got 0" in err

    def test_tally_below_register_cap(self, capsys, monkeypatch):
        # XX,ZZ couples 2 + 4 qubits, but a tally holds only 2**(2 + 2) pattern entries.
        monkeypatch.setenv("VSM_MAX_QUBITS", "5")
        args = ("sample", "--obs", "XX,ZZ", "--theta", "0.5", "--state", GHZ2_JSON, "--seed", "3")
        code, out, _ = run(capsys, *args, "--samples", "20")
        assert code == 0
        assert sum(json.loads(out)["counts"].values()) == 20
        code, _, err = run(capsys, *args)
        assert code == 1
        assert "coupled register needs 2^6" in err

    def test_shots_over_qubit_cap(self, capsys, monkeypatch):
        # Five draws need 2^3 entries; the two-qubit circuit itself fits.
        monkeypatch.setenv("VSM_MAX_QUBITS", "2")
        state = json.dumps({"n": 1, "re": [1.0, 0.0], "im": [0.0, 0.0]})
        code, _, err = run(
            capsys, "sample", "--obs", "Z", "--theta", "0.3",
            "--state", state, "--seed", "1", "--samples", "5",
        )
        assert code == 1
        assert "above the limit of 2" in err


class TestSweep:
    def test_identity_holds_two_sites(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        code, out, _ = run(
            capsys, "sweep", "--K", "1", "--N", "2", "--grid", "0:90deg:7",
            "--out", str(target),
        )
        assert code == 0
        assert "ok=true" in out
        lines = target.read_text().splitlines()
        header = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header] == "theta,strength,tau,residual,vsm_compliant"
        assert len(lines) == header + 1 + 7

    def test_identity_fails_three_sites_two_rounds(self, capsys):
        code, out, err = run(
            capsys, "sweep", "--K", "2", "--N", "3", "--grid", "0:1.2:5",
            "--format", "json",
        )
        assert code == 2
        artifact = json.loads(out)
        assert artifact["ok"] is False
        assert "ok=false" in err

    def test_single_theta(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--K", "2", "--N", "2", "--theta", "0.4",
            "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == 1
        assert rows[0]["residual"] < 1e-9

    def test_needs_grid_or_theta(self, capsys):
        code, _, err = run(capsys, "sweep", "--K", "1", "--N", "2")
        assert code == 1
        assert "error" in err

    def test_grid_needs_two_points(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--K", "1", "--N", "2", "--grid", "0:1:1"
        )
        assert code == 1
        assert "error" in err

    def test_grid_points_over_cap(self, capsys, monkeypatch):
        # 2^40 points: refused before np.linspace allocates anything.
        monkeypatch.delenv("VSM_MAX_QUBITS", raising=False)
        code, _, err = run(
            capsys, "sweep", "--K", "1", "--N", "2", "--grid", "0:1:1099511627776"
        )
        assert code == 1
        assert "the theta grid needs 2^40 entries, above the limit of 24 qubits" in err

    def test_register_beyond_dense_reach(self, capsys, monkeypatch):
        # 80 meter qubits: only the 4 block-pattern amplitudes are built.
        monkeypatch.delenv("VSM_MAX_QUBITS", raising=False)
        code, out, _ = run(
            capsys, "sweep", "--K", "2", "--N", "40", "--theta", "0.3",
            "--format", "json",
        )
        assert code == 0
        [row] = json.loads(out)["rows"]
        assert row["residual"] < 1e-12

    def test_patterns_over_cap(self, capsys, monkeypatch):
        monkeypatch.delenv("VSM_MAX_QUBITS", raising=False)
        code, _, err = run(capsys, "sweep", "--K", "25", "--N", "1", "--theta", "0.3")
        assert code == 1
        assert "block patterns needs 2^25 entries, above the limit of 24 qubits" in err


class TestBellDemo:
    def test_strong_limit_exact(self, capsys):
        code, out, _ = run(
            capsys, "bell-demo", "--theta", "0", "--samples", "200", "--seed", "9",
        )
        assert code == 0
        artifact = json.loads(out)
        assert artifact["ok"] is True
        assert artifact["meta"]["sampler"] == "multinomial"
        for state in artifact["states"]:
            assert state["frequencies"][state["expected"]] == pytest.approx(1.0)

    def test_moderate_angle(self, capsys):
        code, out, _ = run(
            capsys, "bell-demo", "--theta", "30deg", "--samples", "20000",
            "--seed", "2024",
        )
        assert code == 0
        artifact = json.loads(out)
        for state in artifact["states"]:
            assert state["max_abs_z"] < 4.0
            assert state["theory"][state["expected"]] == pytest.approx(0.75)

    def test_deterministic(self, capsys):
        args = ("bell-demo", "--theta", "0.4", "--samples", "500", "--seed", "5")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second


class TestTangle:
    def test_meter_mode_identity_ok(self, capsys):
        code, out, _ = run(capsys, "tangle", "--K", "1", "--N", "2", "--theta", "0.3")
        assert code == 0
        artifact = json.loads(out)
        assert artifact["report"]["method"] == "patterns"
        assert artifact["report"]["residual"] < 1e-9
        assert artifact["simplified"] == pytest.approx(
            artifact["report"]["tau"], abs=1e-10
        )

    def test_meter_mode_over_qubit_cap(self, capsys, monkeypatch):
        # The simplified cross-check still needs the dense 80-qubit meter.
        monkeypatch.delenv("VSM_MAX_QUBITS", raising=False)
        code, _, err = run(
            capsys, "tangle", "--K", "2", "--N", "40", "--theta", "0.3"
        )
        assert code == 1
        assert "the meter register needs 2^80 entries" in err

    def test_meter_mode_identity_violated(self, capsys):
        code, out, _ = run(
            capsys, "tangle", "--K", "2", "--N", "3", "--theta", "30deg"
        )
        assert code == 2
        report = json.loads(out)["report"]
        assert report["tau"] == pytest.approx(1.0 / 9.0, abs=1e-12)
        assert report["strength_squared"] == pytest.approx(4.0 / 9.0, abs=1e-12)

    def test_state_over_qubit_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("VSM_MAX_QUBITS", "3")
        state = json.dumps({"n": 4, "re": [1.0], "im": [0.0]})
        code, _, err = run(capsys, "tangle", "--state", state)
        assert code == 1
        assert "above the limit of 3" in err

    def test_state_mode_inline(self, capsys):
        code, out, _ = run(capsys, "tangle", "--state", GHZ2_JSON)
        assert code == 0
        report = json.loads(out)["report"]
        assert report["method"] == "spinflip"
        assert report["tau"] == pytest.approx(1.0, abs=1e-12)
        assert report["strength_squared"] is None

    def test_state_mode_from_meter_artifact(self, capsys, tmp_path):
        target = tmp_path / "meter.json"
        run(capsys, "meter", "--K", "1", "--N", "2", "--theta", "0.25",
            "--out", str(target))
        code, out, _ = run(capsys, "tangle", "--state", str(target))
        assert code == 0
        report = json.loads(out)["report"]
        assert report["tau"] == pytest.approx(math.cos(0.5) ** 2, abs=1e-12)

    def test_state_mode_from_sample_artifact(self, capsys, tmp_path):
        target = tmp_path / "shot.json"
        run(capsys, "sample", "--obs", "XX,ZZ", "--theta", "0.5",
            "--state", GHZ2_JSON, "--seed", "12", "--out", str(target))
        code, out, _ = run(capsys, "tangle", "--state", str(target))
        assert code == 0
        assert json.loads(out)["report"]["n"] == 2

    def test_needs_arguments(self, capsys):
        code, _, err = run(capsys, "tangle")
        assert code == 1
        assert "error" in err

    def test_missing_state_file(self, capsys):
        code, _, err = run(capsys, "tangle", "--state", "no_such_file.json")
        assert code == 1
        assert "error" in err


class TestBadStateFile:
    """Ket files that parse as JSON but are not a valid state exit 1."""

    STATES = {
        "nan-amplitude": {"n": 2, "re": [math.nan, 0, 0, 0], "im": [0, 0, 0, 0]},
        "float-n": {"n": 2.5, "re": [1, 0, 0, 0], "im": [0, 0, 0, 0]},
        "bool-n": {"n": True, "re": [1, 0], "im": [0, 0]},
        "string-n": {"n": "2", "re": [1, 0, 0, 0], "im": [0, 0, 0, 0]},
        "string-amplitudes": {"n": 1, "re": ["1", "0"], "im": [False, "0"]},
        "bool-amplitude": {"n": 1, "re": [True, 0], "im": [0, 0]},
    }
    COMMANDS = {
        "distribution": ["distribution", "--obs", "XX,ZZ", "--theta", "0.3"],
        "tangle": ["tangle"],
    }

    @pytest.mark.parametrize("state", sorted(STATES))
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_exits_1(self, capsys, tmp_path, command, state):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(self.STATES[state]))
        code, out, err = run(capsys, *self.COMMANDS[command], "--state", str(path))
        assert code == 1
        assert out == ""
        assert "vsmsim: error: ket JSON" in err


class TestQudit:
    def test_artifact(self, capsys):
        code, out, _ = run(capsys, "qudit", "--d", "3", "--theta", "0.6")
        assert code == 0
        artifact = json.loads(out)
        assert artifact["d"] == 3
        assert len(artifact["effects"]) == 3
        total = sum(
            np.array(e["re"]) + 1j * np.array(e["im"]) for e in artifact["effects"]
        )
        np.testing.assert_allclose(total, np.eye(3), atol=1e-12)

    def test_invalid_dimension(self, capsys):
        code, _, err = run(capsys, "qudit", "--d", "1", "--theta", "0.2")
        assert code == 1
        assert "error" in err

    def test_over_qubit_cap(self, capsys, monkeypatch):
        # 8 Kraus operators and 8 effects of 64 entries each: 2^10 entries.
        monkeypatch.setenv("VSM_MAX_QUBITS", "3")
        code, _, err = run(capsys, "qudit", "--d", "8", "--theta", "0.2")
        assert code == 1
        assert "above the limit of 3" in err


class TestTopLevel:
    def test_version(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0
        assert "vsmsim" in out

    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1
        assert "error" in err

    def test_no_command(self, capsys):
        code, _, err = run(capsys)
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("argv, code", [(["--version"], 0), (["frobnicate"], 1)])
    def test_console_entry_point(self, monkeypatch, argv, code):
        # The installed ``vsmsim`` script calls console_main, which reads sys.argv.
        monkeypatch.setattr(sys, "argv", ["vsmsim", *argv])
        with pytest.raises(SystemExit) as exit_info:
            cli.console_main()
        assert exit_info.value.code == code


class TestJsonLayout:
    """The artifact writer reproduces ``json.dumps(value, indent=2)`` exactly."""

    FLOATS = [
        math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1e-7, 0.1,
        2.5e300, -1.7976931348623157e308, 123456789.125,
    ]
    STRINGS = ["", "a, b", ", ", 'say "hi"', "naïve ψ €", "back\\slash", "tab\tnew\nline",
               "[1, 2]", "{}", "1e16"]

    def number(self, rng):
        pick = rng.random()
        if pick < 0.3:
            return rng.choice(self.FLOATS)
        if pick < 0.6:
            return rng.choice([rng.randint(-10**6, 10**6), 2**70, -(2**64), 0])
        return rng.uniform(-1, 1) * 10.0 ** rng.randint(-320, 300)

    def numeric_list(self, rng):
        values = [self.number(rng) for _ in range(rng.randint(1, 12))]
        pick = rng.random()
        if pick < 0.4:
            # One intruder that json spells differently or that nests.
            intruder = rng.choice(
                [True, False, None, rng.choice(self.STRINGS), [], {}, [1.5, 2], {"k": 1},
                 np.float64(0.25), (3, 4.5)]
            )
            values.insert(rng.randint(0, len(values)), intruder)
        return tuple(values) if rng.random() < 0.2 else values

    def value(self, rng, depth):
        pick = rng.random()
        if depth == 0 or pick < 0.2:
            return rng.choice(
                [self.number(rng), rng.choice(self.STRINGS), True, False, None, [], {}, ()]
            )
        if pick < 0.45:
            return self.numeric_list(rng)
        if pick < 0.7:
            return [self.value(rng, depth - 1) for _ in range(rng.randint(0, 4))]
        keys = self.STRINGS + ["re", "im", "ψ", 'q"uote']
        return {rng.choice(keys): self.value(rng, depth - 1) for _ in range(rng.randint(0, 5))}

    def test_matches_indent_2_on_random_artifacts(self):
        rng = random.Random(20261018)
        for _ in range(500):
            artifact = {"meta": {"seed": None}, "data": self.value(rng, 5)}
            assert _json_payload(artifact) == json.dumps(artifact, indent=2) + "\n"

    @pytest.mark.parametrize(
        "value",
        [
            {}, [], (), "a, b", 1e16, -0.0, math.nan,
            {"": {"": []}}, [[[]]], [{}, [], ()], [True, 1], [1, None], [1.0, "x, y"],
            {7: "int key", 2.5: "float key", True: "bool key", None: "none key"},
            [[1, 2], [3, 4]], (1.5, -math.inf, 5e-324),
        ],
    )
    def test_matches_indent_2_on_edge_cases(self, value):
        assert _json_payload(value) == json.dumps(value, indent=2) + "\n"

    # Float64 arrays, as the artifacts hand them over, against their tolist().
    SPECIALS = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16]
    ARRAYS = {
        "leading-zeros": [0.0, 0.0, 0.0, 1.5, -2.25],
        "trailing-zeros": [1.5, 0.1, 0.0, 0.0],
        "inner-runs": [0.0, 1.0, 0.0, 0.0, 2.0, 3.0, 0.0, 4.0, 0.0],
        "specials-among-zeros": [0.0, -0.0, 0.0, math.nan, math.inf, 0.0, -math.inf, 5e-324, 1e16],
        "all-zero": [0.0] * 7,
        "no-zero": [0.5, -1.0, 2e-300, 1e16, 3.0],
        "single-zero": [0.0],
        "single-nonzero": [-0.0],
        "empty": [],
        "matrix-row-crossing-runs": [
            [1.0, 0.0, 0.0], [0.0, 0.0, 2.0], [0.0, 0.0, 0.0], [0.0, 3.0, 0.0]
        ],
        "matrix-last-column": [[0.0, 0.0, 1.0], [2.0, 0.0, 3.0], [0.0, 4.0, 5.0]],
        "matrix-all-zero": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
        "matrix-no-zero": [[1.0, -2.0], [math.nan, 0.25]],
        "matrix-specials": [[-0.0, 0.0, math.inf], [0.0, -math.inf, 0.0], [5e-324, 0.0, 1e16]],
        "matrix-single-zero": [[0.0]],
        "matrix-single-nonzero": [[7.5]],
        "matrix-one-row": [[0.0, 0.0, 1.0, 0.0]],
        "matrix-one-column": [[0.0], [1.0], [0.0], [-0.0]],
        "matrix-no-rows": np.zeros((0, 3)),
        "matrix-no-columns": np.zeros((3, 0)),
    }

    @staticmethod
    def nest(value, depth):
        for _ in range(depth):
            value = {"k": [value]}
        return value

    def assert_array_layout(self, arr, depths=(0, 1, 3)):
        assert arr.dtype == np.float64
        for depth in depths:
            expected = json.dumps(self.nest(arr.tolist(), depth), indent=2) + "\n"
            assert _json_payload(self.nest(arr, depth)) == expected

    @pytest.mark.parametrize("name", ARRAYS)
    def test_float_array_matches_tolist(self, name):
        self.assert_array_layout(np.array(self.ARRAYS[name], dtype=np.float64))

    def test_float_array_views_match_tolist(self):
        # matrix_to_json hands over the strided real and imaginary parts of a complex matrix.
        mat = np.zeros((5, 4), dtype=np.complex128)
        mat[0, 3], mat[2, 0], mat[2, 1], mat[4, 2] = 1 + 2j, -0.5, 3j, complex(-0.0, 1e16)
        for arr in (mat.real, mat.imag, mat.T.real, mat.real[:, 1:3], mat.real.reshape(-1)):
            self.assert_array_layout(arr)

    def test_float_array_random_sparse(self):
        rng = np.random.default_rng(20261018)
        pool = np.array([0.0] * 12 + self.SPECIALS + [0.1, -3.5, 2.5e300, 123456789.125])
        for _ in range(300):
            shape = tuple(rng.integers(1, 9, size=rng.integers(1, 3)))
            arr = rng.choice(pool, size=shape)
            if rng.random() < 0.3:
                arr = np.where(rng.random(shape) < rng.random(), arr, 0.0)
            self.assert_array_layout(arr, depths=(int(rng.integers(0, 4)),))

    def test_other_arrays_follow_tolist(self):
        for arr in (np.arange(6).reshape(2, 3), np.zeros((2, 2, 2)), np.float32([0.5, 0.0])):
            assert _json_payload({"a": arr}) == json.dumps({"a": arr.tolist()}, indent=2) + "\n"

    @pytest.mark.parametrize(
        "argv, paths",
        [
            (["meter", "--K", "2", "--N", "2", "--theta", "0.3"], [("state",)]),
            (["povm", "--obs", "XX,ZZ", "--theta", "0.3", "--kraus"],
             [("effects", "++"), ("effects", "--"), ("kraus", "+-")]),
            (["qudit", "--d", "3", "--theta", "0.3"], [("effects", 0), ("kraus", 2)]),
        ],
        ids=["meter", "povm", "qudit"],
    )
    def test_dense_arrays_reach_the_writer(self, capsys, monkeypatch, argv, paths):
        # A .tolist() between the model and the writer would cost the array path its speed.
        seen = []
        real_payload = cli._json_payload

        def spy(artifact):
            seen.append(artifact)
            return real_payload(artifact)

        monkeypatch.setattr(cli, "_json_payload", spy)
        code, _, _ = run(capsys, *argv)
        assert code == 0
        [artifact] = seen
        for path in paths:
            matrix = artifact
            for key in path:
                matrix = matrix[key]
            for part in ("re", "im"):
                assert isinstance(matrix[part], np.ndarray)
                assert matrix[part].dtype == np.float64
