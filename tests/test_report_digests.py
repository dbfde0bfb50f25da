"""Byte gate: sha256 digests of the bundled reports and of the shipped bench families.

Each case is an exit status and the bytes a report renders to, so a
refactor that must keep report bytes can be checked against these digests.
``certify`` and ``integrate`` are pinned under the default rule and under
both rules on the nodes.  They pin the bytes that one CPU with one numpy
and BLAS build writes: the integrals are BLAS sums, whose order may differ
on another CPU or BLAS build, and on long inputs with the BLAS thread count
(the bundled inputs have at most 257 nodes).  Row sums and norms follow
numpy's order through the row kernels of ``hilbert``.  The digests hold
until ROADMAP item 3 lands fixed-order sums, which is expected to move the
last bits of some reports.
"""

import hashlib
import importlib.util
import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from bochner_bounds.cli import RunConfig, main, run
from bochner_bounds.gridfn import QuadratureRule
from bochner_bounds.hilbert import OrthonormalFamily
from bochner_bounds.hypotheses import Cone, Orthonormal, UnitVector, hypothesis_to_dict
from bochner_bounds.jsonio import dumps, dumps_csv
from bochner_bounds.witness import tightness

ROOT = Path(__file__).resolve().parents[1]
INPUTS = ROOT / "inputs"
FAMILY_TRIALS = 5


def _commands(doc: dict) -> tuple:
    if "function" in doc:
        return "check", "certify", "integrate"
    return ("bench",) if "generator" in doc else ("witness",)


CASES = [(command, path.name) for path in sorted(INPUTS.glob("*.json"))
         for command in _commands(json.loads(path.read_text(encoding="utf-8")))]

DIGESTS = {
    "bench bench_cone.json": "b2bd1e10bda9e80f4a16f0d4b1295a95e1995b30f3a1bb91166500f88ceed15d",
    "check cone_pi6_pi3.json": "90b73280e2868dd8bdbfee2a461352174d8ad517396423f4052a07307ddb1ced",
    "certify cone_pi6_pi3.json": "770a315e49a2ec490b90a5ce62dd40cab69c29cb86da631c585792ce43196af9",
    "integrate cone_pi6_pi3.json": "489ec6bdef329a147eb862b851b301b52ecc43ab5f3f64a20cc6b987942a4de8",
    "check disk_lens.json": "254af8cf670cbab30f6f9ec15f25d1373bead7d37495ffe6ab887731f629e58b",
    "certify disk_lens.json": "d5f50dbc5eee7a2e1c8a3d032a27b5925d2059b3be0b458a91746dc86429383c",
    "integrate disk_lens.json": "e5aadf5eef9c871a0284c2169bffac58184b01b487f60e422e1cfec2b6141ee8",
    "check failing_unit_vector.json": "d632e74209e9f2d2d9be78c81c17a4451b9d7c585217e87b22532f3e10002893",
    "certify failing_unit_vector.json": "d86daa4d14efaa214bb0a14724576ef549595942e587d6975b066b877e50a78d",
    "integrate failing_unit_vector.json": "8ae6aded68885d216f8d88c4a5f7d3d61f4f70c71c40a2b9040e64ef0a64734e",
    "witness witness_unit_vector.json": "2cf2721a8cf1eb78431fb2e41b53b93f6a57134e3711c69137ebd96fbeb53d7f",
    "bench csv bench_cone.json": "e8912b4399f8e3e470f5dec06ddbba15619590e3f3f6ebd3278b7193fc9566aa",
    "families": "4d8f948de50d61a9afec482d50a151f7e7b1a73fb89532fc29a4546c85865d33",
}

ON_NODE_RULES = ("composite-simpson", "trapezoid-on-nodes")  # each with refinement 1
ON_NODE_CASES = [(command, name, kind) for kind in ON_NODE_RULES for command, name in CASES
                 if command in ("certify", "integrate")]

ON_NODE_DIGESTS = {
    "certify cone_pi6_pi3.json composite-simpson":
        "0988f15ad4f5ef0a1929211d9e5306278ff3b3d2800d9d4a336523aedbd4fb7b",
    "integrate cone_pi6_pi3.json composite-simpson":
        "ad2d94e5f3494767c61afe971c1f789fc8d591c8c5aa67951878520f5ef0401e",
    "certify disk_lens.json composite-simpson":
        "9ff6850b0150e3296163a08022f7fcb62e5248e388e373e513d0773f0dc71fca",
    "integrate disk_lens.json composite-simpson":
        "52fd0ef7c6564ff47c9c8def4a7d44b0deb33230df159d612acdca8f9268de94",
    "certify failing_unit_vector.json composite-simpson":
        "ea9b2a3249992abee85250682223fe8cfbbf3eb2a33dcfca571116b20966e6b4",
    "integrate failing_unit_vector.json composite-simpson":
        "fbaaa8b312f964699f1a57113ba37c4ba38255ed600e737f357a35c506711707",
    "certify cone_pi6_pi3.json trapezoid-on-nodes":
        "356bcc90edb721cfc4c050239f023d9bfe81f525bc472d3ce1ad0168f6fd6769",
    "integrate cone_pi6_pi3.json trapezoid-on-nodes":
        "14c826f6bb065773b97285c531ae118ad9ee3ef395cd49f6f17ba0a577e197b6",
    "certify disk_lens.json trapezoid-on-nodes":
        "587652a35cc74caac6ec60813018cc8d831d5507e745aa66383f91d00249514f",
    "integrate disk_lens.json trapezoid-on-nodes":
        "2ec84b4478a67075553b50eb0afff0090296e648faab8de1437e144fce4ffbb9",
    "certify failing_unit_vector.json trapezoid-on-nodes":
        "d86daa4d14efaa214bb0a14724576ef549595942e587d6975b066b877e50a78d",
    "integrate failing_unit_vector.json trapezoid-on-nodes":
        "8ae6aded68885d216f8d88c4a5f7d3d61f4f70c71c40a2b9040e64ef0a64734e",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("command, name", CASES, ids=[f"{c} {n}" for c, n in CASES])
def test_bundled_report_bytes(command, name):
    status, doc = run(RunConfig(command=command, input_path=str(INPUTS / name)))
    assert _sha256(f"{status}\n{dumps(doc)}") == DIGESTS[f"{command} {name}"]


@pytest.mark.parametrize("command, name, kind", ON_NODE_CASES,
                         ids=[" ".join(case) for case in ON_NODE_CASES])
def test_bundled_report_bytes_on_the_nodes(command, name, kind):
    config = RunConfig(command=command, input_path=str(INPUTS / name), quad=QuadratureRule(kind, 1))
    status, doc = run(config)
    assert _sha256(f"{status}\n{dumps(doc)}") == ON_NODE_DIGESTS[f"{command} {name} {kind}"]


def _document_io_family() -> OrthonormalFamily:
    """Two orthonormal vectors in C^4, drawn as ``perfbench/workloads.document_io`` draws them."""
    rng = np.random.Generator(np.random.PCG64([1, 1]))
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    return OrthonormalFamily(q[:, :2].T)


E1 = np.array([1.0 + 0j])
LARGE_WITNESSES = {
    # the equality surfaces of test_acceptance.WITNESS_SURFACES
    "unit_vector": UnitVector(E1, 0.6, 0.8),
    "orthonormal": Orthonormal(OrthonormalFamily(np.eye(2, dtype=complex)), ks=(0.5, 0.5),
                               hs=(0.5, 0.5)),
    "cone": Cone(math.pi / 4, math.pi / 4),
    "orthonormal d=4": Orthonormal(_document_io_family(), ks=(0.5, 0.5), hs=(0.5, 0.5)),
    "unit_vector with zeros": UnitVector(np.array([1.0 + 0j, 0j]), 0.6, 0.8),
}

LARGE_WITNESS_DIGESTS = {
    "unit_vector": "a17ac4dcf8301af501a9c0d228f7653c0b0d7e96b8e261853b14f5017cd7d2ed",
    "orthonormal": "9bcfc951fe36cfaf04f6e7820e6413bd6f5e0ca34a8f9537a46ed524f8ae8abe",
    "cone": "7f6c1f3026de0a30b5052131591e32edb2c376b098d6e960fd2cb970d2c82dfe",
    "orthonormal d=4": "148978b18b254355fce40b6d13401213c483d570301fa3bc12e97c971b010c95",
    "unit_vector with zeros": "ca302373d67115ec02686500c0d0b3ee5186fe6b5a8b817895238192918f4c57",
}


@pytest.mark.parametrize("name", LARGE_WITNESSES)
def test_large_witness_bytes(tmp_path, name):
    # every row of a witness's values is the same, and its nodes all differ
    request = {"schema": "bochner-bounds/1", "hypothesis": hypothesis_to_dict(LARGE_WITNESSES[name]),
               "node_count": 10_000}
    path = tmp_path / "request.json"
    path.write_text(json.dumps(request), encoding="utf-8")
    status, doc = run(RunConfig(command="witness", input_path=str(path)))
    assert _sha256(f"{status}\n{dumps(doc)}") == LARGE_WITNESS_DIGESTS[name]


def test_bench_csv_bytes(tmp_path):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--input", str(INPUTS / "bench_cone.json"), "--output", str(out)]) == 0
    assert _sha256(out.read_text(encoding="utf-8")) == DIGESTS["bench csv bench_cone.json"]


def _script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_make_inputs_reproduces_the_bundled_inputs(tmp_path, capsys):
    assert _script("make_inputs").main([str(tmp_path)]) == 0
    names = sorted(path.name for path in INPUTS.iterdir())
    assert sorted(path.name for path in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (INPUTS / name).read_bytes(), name


def test_shipped_family_bench_bytes():
    families = _script("tightness_report").shipped_families(0)
    assert len(families) == 10
    text = "".join(dumps_csv(asdict(tightness(FAMILY_TRIALS, spec, spec.hypothesis)))
                   for spec in families)
    assert _sha256(text) == DIGESTS["families"]
