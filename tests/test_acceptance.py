"""Acceptance suite: every criterion at its contract tolerance.

Each test runs one criterion as ``chaingeo verify --suite <key>`` prints
it (seed 0), asserts its verdict and exit code, compares the text byte for
byte with ``golden/verify-<key>.json``, and prints a PASS/FAIL line with
the headline numbers, so a bare ``pytest -s tests/test_acceptance.py``
doubles as the verification report.  The run is ``conftest.cli_run``'s,
which ``tests/test_golden.py`` shares, so each criterion runs once per
pytest run; ``tests/test_golden.py`` also regenerates the files.
"""

import json
from pathlib import Path

from conftest import cli_run

GOLDEN = Path(__file__).resolve().parent / "golden"


def _run(key):
    code, text = cli_run("verify", "--suite", key)
    result = json.loads(text)["results"][key]
    status = "PASS" if result["passed"] else "FAIL"
    detail = {k: v for k, v in result.items() if k not in ("name", "passed")}
    print(f"[{status}] {result['name']}: {detail}")
    assert text == (GOLDEN / f"verify-{key}.json").read_text(), text
    assert code == (0 if result["passed"] else 2)
    return result


def test_01_cartan_cocycle_identity_and_invariance():
    r = _run("cartan-cocycle")
    assert r["passed"], r


def test_02_chain_extremality():
    r = _run("chain-extremality")
    assert r["passed"], r


def test_03_ideal_triangle_normalization():
    r = _run("ideal-triangle")
    assert r["passed"], r


def test_04_area_cartan_agreement():
    r = _run("area-cartan")
    assert r["passed"], r


def test_05_busemann_machinery():
    r = _run("busemann")
    assert r["passed"], r


def test_06_delta_form_norm_bound():
    r = _run("delta-form-bound")
    assert r["passed"], r


def test_07_closedness_of_pullback():
    r = _run("closedness")
    assert r["passed"], r


def test_08_toledo_surface_groups():
    r = _run("toledo")
    assert r["passed"], r


def test_09_chain_formula_equivariant():
    r = _run("chain-formula")
    assert r["passed"], r


def test_10_complete_quadrilateral_exact():
    r = _run("quadrilateral")
    assert r["passed"], r


def test_11_affine_recovery():
    r = _run("affine-recovery")
    assert r["passed"], r


def test_12_boundary_reconstruction():
    r = _run("reconstruction")
    assert r["passed"], r


def test_13_appendix_exactness():
    r = _run("appendix-exactness")
    assert r["passed"], r


def test_14_fibered_product_counting():
    r = _run("fibered-counting")
    assert r["passed"], r
