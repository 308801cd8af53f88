"""Seeded CLI outputs compared byte for byte with committed golden files.

Each case runs one ``chaingeo`` command in process, with CHAINGEO_SEED
unset, and compares its exit code and stdout with ``golden/<name>.json``.
The commands run through ``conftest.cli_run``, which caches each one.
``tests/test_acceptance.py`` compares the ``verify-<key>.json`` file of
every criterion; the ten criteria that take under 2 s each have a case
here as well, and it reads the same cached run, so no criterion runs
twice in one pytest run.  The input
files under ``golden/inputs`` are fixed data: the points of ``cartan`` and
``chain`` are visual-measure samples (seed 1), and each ``reconstruct``
input is ``verify._planted_sample_map(np.random.default_rng(1), 2, q, 152)``
with ``conjugate`` or ``scramble`` set as its name says.

A change that alters a golden file on purpose regenerates them with
``PYTHONPATH=src python tests/test_golden.py`` and lists every changed
field, with its size, in CHANGES.md.
"""

import sys
from pathlib import Path

import pytest

from chaingeo.verify import ALL_CRITERIA

from conftest import cli_run

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"

# the verify criteria that take under 2 s each
FAST_CRITERIA = (
    "cartan-cocycle",
    "chain-extremality",
    "ideal-triangle",
    "area-cartan",
    "busemann",
    "toledo",
    "chain-formula",
    "quadrilateral",
    "affine-recovery",
    "fibered-counting",
)

# (golden file stem, argv, exit code)
CASES = [
    ("cartan", ["cartan", "--p", "2", "--points", str(INPUTS / "cartan_points.json")], 0),
    ("chain", ["chain", "--p", "2", "--points", str(INPUTS / "chain_points.json")], 0),
    ("toledo-fuchsian-demo", ["toledo", "--fuchsian-demo"], 0),
    ("delta-form", ["delta-form", "--samples", "20000", "--seed", "1"], 0),
    ("finite-model-S4", ["finite-model", "--preset", "S4"], 0),
] + [
    (
        f"reconstruct-{name}",
        ["reconstruct", "--samples", str(INPUTS / f"reconstruct_{name}.json"), "--seed", "1"],
        code,
    )
    for name, code in (
        ("planted_2_2", 0),
        ("planted_2_3", 0),
        ("conjugated_2_2", 0),
        ("scrambled_2_2", 2),
    )
] + [(f"verify-{key}", ["verify", "--suite", key], 0) for key in FAST_CRITERIA]

# the slower criteria, whose files only ``tests/test_acceptance.py`` compares
VERIFY_CASES = [
    (f"verify-{key}", ["verify", "--suite", key], 0)
    for key in ALL_CRITERIA
    if key not in FAST_CRITERIA
]


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_golden_output(name, argv, code):
    got, out = cli_run(*argv)
    assert got == code
    assert out == (GOLDEN / f"{name}.json").read_text()


if __name__ == "__main__":
    for name, argv, code in CASES + VERIFY_CASES:
        got, out = cli_run(*argv)
        if got != code:
            sys.exit(f"{name}: exit code {got}, expected {code}")
        (GOLDEN / f"{name}.json").write_text(out)
