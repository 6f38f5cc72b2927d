"""SHA-256 goldens of deterministic CLI artifacts.

Each invocation writes its artifact with ``--out`` and the file's hash
is compared with a pinned value, so any change to artifact bytes
(layout, float rendering, RNG stream, numerics) fails here and must be
deliberate.  The first nine are the README examples plus an 8-qubit
POVM; the next three cover the MB-sized meter, a Y-containing POVM with
Kraus operators and barycentric coordinates, and a JSON sweep.  The last
is a single shot, whose post-state is written from ``Ket.to_json``
lists rather than from float64 arrays.
"""

import hashlib
import json

import pytest

from vsmsim.cli import main

BELL = {"n": 2, "re": [0.7071067811865476, 0, 0, 0.7071067811865476], "im": [0, 0, 0, 0]}

GOLDENS = [
    ("meter --K 2 --N 3 --theta 0",
     "1f35b8fd9ee40aee930c5c18164cb64b7ce8759c64f34c0031190445a277bdb0"),
    ("povm --obs XX,ZZ --theta 30deg --kraus --barycentric",
     "befa95b94449df53842c00d5b20185a9d9d09ec5f0b1a3e31ff5e2694c79617d"),
    ("distribution --obs XX,ZZ --theta 0.5 --state {bell}",
     "3153f44809101f479e8e8527c658e34dd02b0c2d87197b4400f86c7875d32305"),
    ("sample --obs XX,ZZ --theta 0.5 --state {bell} --seed 7 --samples 1000",
     "2570a297bda7836484dcd03fa405c832f13746d5bddb25a85cd5af2041d4d820"),
    ("sweep --K 1 --N 2 --grid 0:90deg:25 --format csv",
     "88d5a0f7eccefe02eafd85a74c8ab4ed99546082f62d4ddaec54454578cf24f8"),
    ("bell-demo --theta 30deg --samples 100000 --seed 42",
     "5ad2458f34102bd21a374178ffcfc0011b8f1e5c194c8224f83598e0d2f30c01"),
    ("tangle --K 2 --N 2 --theta 0.3",
     "5746319266317dc108c8487053942f30df189e3bca8d95a26e65ecc2b8e59368"),
    ("qudit --d 4 --theta 0.5236",
     "8f3f9cd4a93f56ae35de55158049673752a5418c21ee4eafe1be7d7d9dfa4f0d"),
    ("povm --obs XXXXXXXX,ZZZZZZZZ --theta 0.4",
     "492e4814ae9f018782271b697faef9b50f9ee6feb021ff832115a4fbf5022ca5"),
    ("meter --K 3 --N 6 --theta 0.4",
     "5ad5c1406731c8ab77aa9aaad6ef6c3072ebaf000b4c96702a605ab1742937c0"),
    ("povm --obs XYZ,ZZZ --theta 0.3 --kraus --barycentric",
     "6ad8ee21c0a24483accd52cb76c30ff314aa30e68edcee1ca411f9aa0476b634"),
    ("sweep --K 2 --N 10 --grid 0:90deg:5 --format json",
     "7f29fd40972a5f40273a62be71fd633d815c1c595bc05fa5eb09e7224ceb0de8"),
    ("sample --obs XX,ZZ --theta 0.5 --state {bell} --seed 7",
     "2e7ff6c4fddc001a6fc8fab340979568132140913835c70e574399c0b57c7ec9"),
]


@pytest.mark.parametrize("command, digest", GOLDENS, ids=[c for c, _ in GOLDENS])
def test_artifact_hash(command, digest, tmp_path, capsys):
    bell = tmp_path / "bell.json"
    bell.write_text(json.dumps(BELL), encoding="utf-8")
    out = tmp_path / "artifact"
    code = main(command.format(bell=bell).split() + ["--out", str(out)])
    capsys.readouterr()
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
