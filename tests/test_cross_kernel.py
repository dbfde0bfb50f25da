"""Report bytes under other BLAS kernels, BLAS thread counts and numpy CPU dispatch.

Each setting runs ``test_report_digests.py`` and this file's triangle-slack
test in a fresh process with one environment variable set, one process at a
time.  numpy and its BLAS read the variables when they load, so a setting
cannot be changed inside the test process.  The settings are a second BLAS
thread, two other OpenBLAS kernels (Haswell, with AVX2 and FMA, and
Prescott, with SSE3 only), and numpy's dispatched CPU features switched off
down to its baseline.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bochner_bounds
from bochner_bounds.cli import RunConfig, run
from bochner_bounds.gridfn import QuadratureRule

HERE = Path(__file__).resolve().parent
INPUTS = HERE.parent / "inputs"
FUNCTION_INPUTS = sorted(path.name for path in INPUTS.glob("*.json")
                         if "function" in json.loads(path.read_text(encoding="utf-8")))
RULES = {
    "default": QuadratureRule(),
    "refinement 1": QuadratureRule(refinement=1),
    "trapezoid-on-nodes": QuadratureRule("trapezoid-on-nodes", 1),
}
VARIABLES = ("OPENBLAS_NUM_THREADS", "OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")
SETTINGS = ("OPENBLAS_NUM_THREADS=1", "OPENBLAS_NUM_THREADS=2", "OPENBLAS_CORETYPE=Haswell",
            "OPENBLAS_CORETYPE=Prescott", "NPY_DISABLE_CPU_FEATURES=<dispatched>")


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("name", FUNCTION_INPUTS)
def test_integrate_triangle_slack_is_nonnegative(name, rule):
    status, doc = run(RunConfig(command="integrate", input_path=str(INPUTS / name), quad=RULES[rule]))
    assert status == 0
    assert doc["triangle_slack"] >= 0.0, doc


def _cpu() -> dict:
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return {"dispatch": umath.__cpu_dispatch__, "features": umath.__cpu_features__}


def _value_or_skip(setting: str) -> str:
    """The value to set, or a skip naming why this machine cannot run the setting."""
    variable, value = setting.split("=")
    if variable == "NPY_DISABLE_CPU_FEATURES":
        cpu = _cpu()
        on = [name for name in cpu["dispatch"] if cpu["features"].get(name)]
        if not on:
            pytest.skip("numpy runs its baseline code already: no dispatched CPU feature is on")
        return " ".join(on)
    if variable == "OPENBLAS_CORETYPE":
        try:
            blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError):  # a numpy that cannot report its BLAS build
            pytest.skip("numpy does not report its BLAS build")
        if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
            pytest.skip(f"the BLAS ({blas.get('name')}) is not an OpenBLAS built with "
                        "DYNAMIC_ARCH, so it ignores OPENBLAS_CORETYPE")
        needs = {"Haswell": ("AVX2", "FMA3"), "Prescott": ("SSE3",)}[value]
        if not all(_cpu()["features"].get(name) for name in needs):
            pytest.skip(f"this CPU cannot run OpenBLAS's {value} kernel")
    return value


@pytest.mark.parametrize("setting", SETTINGS)
def test_report_bytes_hold_under_another_kernel(setting):
    variable = setting.split("=")[0]
    env = {key: val for key, val in os.environ.items() if key not in VARIABLES}
    env[variable] = _value_or_skip(setting)
    package_root = str(Path(bochner_bounds.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    tests = [str(HERE / "test_report_digests.py"),
             f"{Path(__file__).resolve()}::test_integrate_triangle_slack_is_nonnegative"]
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests],
                          cwd=HERE.parent, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, f"{variable}={env[variable]}\n{proc.stdout[-4000:]}{proc.stderr[-2000:]}"
