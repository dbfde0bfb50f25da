"""Byte gate: sha256 digests of the bundled reports and of the shipped bench families.

Each case is an exit status and the bytes a report renders to, so a
refactor that must keep report bytes can be checked against these digests.
``certify`` and ``integrate`` are pinned under the default rule and under
both rules on the nodes.  Every sum behind a report is taken in the one
order of ``hilbert.row_sums``, in real arithmetic and without BLAS, so the
digests do not depend on the CPU, the BLAS build or its thread count;
``test_cross_kernel.py`` runs this file under several of them.
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
    "bench bench_cone.json": "7caaec404571d912d171188ca0db692825467be74f45ce3c5eaef263dcdb5699",
    "check cone_pi6_pi3.json": "17a8e4122164a310ba3eb8c48f3def7dbf9a63034fc3005f11e7b911e6a8983c",
    "certify cone_pi6_pi3.json": "d3f24762e8e2048f594a4724c2a1d42f2e93f6fe62aa29347685694c9b907fbd",
    "integrate cone_pi6_pi3.json": "6859aa36d33b66999ffa73ac8f7dd2cc6f3575e4b4d59f97d75a2f932d9a6f0d",
    "check disk_lens.json": "254af8cf670cbab30f6f9ec15f25d1373bead7d37495ffe6ab887731f629e58b",
    "certify disk_lens.json": "587652a35cc74caac6ec60813018cc8d831d5507e745aa66383f91d00249514f",
    "integrate disk_lens.json": "2ec84b4478a67075553b50eb0afff0090296e648faab8de1437e144fce4ffbb9",
    "check failing_unit_vector.json": "d632e74209e9f2d2d9be78c81c17a4451b9d7c585217e87b22532f3e10002893",
    "certify failing_unit_vector.json": "d86daa4d14efaa214bb0a14724576ef549595942e587d6975b066b877e50a78d",
    "integrate failing_unit_vector.json": "8ae6aded68885d216f8d88c4a5f7d3d61f4f70c71c40a2b9040e64ef0a64734e",
    "witness witness_unit_vector.json": "2cf2721a8cf1eb78431fb2e41b53b93f6a57134e3711c69137ebd96fbeb53d7f",
    "bench csv bench_cone.json": "51a07574896810a9041d85e963f5d36f9183741ec396a48b4ebc9ff423091967",
    "families": "1f263bd942bab94efd9fe890e44eb0aef6328a464111f7d2c20a446cfdf8cacd",
}

ON_NODE_RULES = ("composite-simpson", "trapezoid-on-nodes")  # each with refinement 1
ON_NODE_CASES = [(command, name, kind) for kind in ON_NODE_RULES for command, name in CASES
                 if command in ("certify", "integrate")]

ON_NODE_DIGESTS = {
    "certify cone_pi6_pi3.json composite-simpson":
        "0988f15ad4f5ef0a1929211d9e5306278ff3b3d2800d9d4a336523aedbd4fb7b",
    "integrate cone_pi6_pi3.json composite-simpson":
        "c3b44123fa44b7c42b041dd19a219adcdacc2440357ea096783c7a04b975672e",
    "certify disk_lens.json composite-simpson":
        "5c7d96f9e60eef759b951a2e7220e30925412e8f894e29e8ffa046698b3a12f7",
    "integrate disk_lens.json composite-simpson":
        "9cdcf6ce10a8d3cd78b03a53d0065ba6897450ba98cfcb8898343891405765dd",
    "certify failing_unit_vector.json composite-simpson":
        "ea9b2a3249992abee85250682223fe8cfbbf3eb2a33dcfca571116b20966e6b4",
    "integrate failing_unit_vector.json composite-simpson":
        "fbaaa8b312f964699f1a57113ba37c4ba38255ed600e737f357a35c506711707",
    "certify cone_pi6_pi3.json trapezoid-on-nodes":
        "a0f9bde2efc7e5e43ef6ee16b99b4a87635e61d89827e4343e681bf9883415ed",
    "integrate cone_pi6_pi3.json trapezoid-on-nodes":
        "01f6b6ecb13624c83cbeae322f402d86337e5eb64a7a0316c62628c2768ac574",
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


# ``perfbench/workloads.document_io``'s family at seed 1, pinned: the LAPACK QR
# that draws it rounds differently on another BLAS kernel
DOCUMENT_IO_FAMILY = (
    (("-0x1.9bad39d11fb48p-3", "-0x1.52d3667f24eeep-3"), ("-0x1.b65db08432855p-3", "0x1.3aca95ec9adeap-2"),
     ("-0x1.dfe900a896410p-3", "0x1.471c8a0397d0ap-1"), ("-0x1.7359bd912ea47p-2", "-0x1.c6d83fba4e8e8p-2")),
    (("0x1.06d7592e375bap-1", "0x1.990a1c765bce0p-2"), ("-0x1.c75940774cdc0p-5", "-0x1.43409e9755897p-4"),
     ("-0x1.ed7a715103f0cp-2", "0x1.ea19404237676p-3"), ("-0x1.32aedab2916c6p-2", "0x1.bc704d740ba14p-2")),
)


def _document_io_family() -> OrthonormalFamily:
    """Two orthonormal vectors in C^4, as ``perfbench/workloads.document_io`` draws them."""
    return OrthonormalFamily([[complex(float.fromhex(re), float.fromhex(im)) for re, im in row]
                              for row in DOCUMENT_IO_FAMILY])


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
