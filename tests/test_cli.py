import json

import numpy as np
import pytest

from chaingeo.cli import main
from chaingeo.serialization import (
    dumps,
    json_to_matrix,
    json_to_point,
    matrix_to_json,
    point_to_json,
)
from chaingeo.verify import _planted_sample_map

from conftest import random_boundary, run_python


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_serialization_roundtrip(plane2, rng):
    b = random_boundary(plane2, rng)
    back = json_to_point(point_to_json(b), plane2)
    assert back.same_point_as(b) and back.kind == b.kind
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.allclose(json_to_matrix(matrix_to_json(m)), m)


def test_dumps_canonical():
    assert dumps({"b": 1, "a": 2}) == '{"a":2,"b":1}\n'


def test_cli_cartan(tmp_path, capsys, plane2, rng):
    pts = [random_boundary(plane2, rng) for _ in range(4)]
    path = tmp_path / "points.json"
    path.write_text(json.dumps({"points": [point_to_json(p) for p in pts]}))
    code, data = run_cli(capsys, ["cartan", "--p", "2", "--points", str(path)])
    assert code == 0
    assert len(data["values"]) == 4  # C(4,3) triples
    for row in data["values"]:
        assert abs(row["c"]) <= 1.0


def test_cli_chain(tmp_path, capsys, plane2, rng):
    pts = [random_boundary(plane2, rng) for _ in range(3)]
    path = tmp_path / "points.json"
    path.write_text(json.dumps({"points": [point_to_json(p) for p in pts]}))
    code, data = run_cli(capsys, ["chain", "--p", "2", "--points", str(path)])
    assert code == 0
    assert len(data["samples"]) == 8
    assert data["membership"][0]["on_chain"] is False


def test_cli_toledo_demo(capsys, tmp_path):
    rep_path = tmp_path / "octagon.json"
    code, data = run_cli(
        capsys,
        ["toledo", "--fuchsian-demo", "--target-q", "1", "--emit-rep", str(rep_path)],
    )
    assert code == 0
    assert abs(data["i_rho"] - 1.0) < 1e-3
    assert data["mw_ok"] is True
    # the emitted representation file feeds back through --rep
    code2, data2 = run_cli(
        capsys, ["toledo", "--rep", str(rep_path), "--target-q", "1"]
    )
    assert code2 == 0 and abs(data2["i_rho"] - 1.0) < 1e-3


def test_cli_byte_identical(capsys):
    code1 = main(["toledo", "--fuchsian-demo", "--target-q", "1", "--seed", "3"])
    out1 = capsys.readouterr().out
    code2 = main(["toledo", "--fuchsian-demo", "--target-q", "1", "--seed", "3"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0 and out1 == out2


def test_cli_verify_byte_identical_across_processes():
    # no wall-clock field may reach the payload; the budgets stay in "passed"
    argv = ["-m", "chaingeo.cli", "verify", "--suite", "cartan-cocycle,toledo"]
    out1 = run_python(*argv).stdout
    out2 = run_python(*argv).stdout
    assert json.loads(out1)["passed"] is True
    assert out1 == out2


def test_cli_delta_form(capsys):
    code, data = run_cli(
        capsys, ["delta-form", "--p", "2", "--q", "3", "--samples", "20000", "--seed", "2"]
    )
    assert code == 0
    assert abs(data["estimate"]) <= data["bound"] + 3 * data["stderr"]
    assert data["N"] == 20000 and data["seed"] == 2


def test_cli_chain_rejects_json_list(tmp_path, capsys, plane2, rng):
    pts = [random_boundary(plane2, rng) for _ in range(3)]
    path = tmp_path / "points.json"
    path.write_text(json.dumps([point_to_json(p) for p in pts]))
    code = main(["chain", "--p", "2", "--points", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == "" and captured.err.startswith("error:")


# (argv ending in the input-file flag, builder of that file's object from
# four boundary points; or argv alone and None)
BAD_INPUTS = {
    "chain-one-point": (["chain", "--p", "2", "--points"], lambda pts: {"points": pts[:1]}),
    "cartan-points-not-list": (
        ["cartan", "--p", "2", "--points"],
        lambda pts: {"points": pts[0]},
    ),
    "cartan-point-not-object": (
        ["cartan", "--p", "2", "--points"],
        lambda pts: {"points": [1, 2, 3]},
    ),
    "cartan-index-too-large": (
        ["cartan", "--p", "2", "--points"],
        lambda pts: {"points": pts, "triples": [[0, 1, 7]]},
    ),
    "cartan-index-negative": (
        ["cartan", "--p", "2", "--points"],
        lambda pts: {"points": pts, "triples": [[0, 1, -1]]},
    ),
    "reconstruct-pair-of-numbers": (
        ["reconstruct", "--samples"],
        lambda pts: {"p": 2, "q": 2, "pairs": [[1, 2]]},
    ),
    "reconstruct-pair-not-list": (
        ["reconstruct", "--samples"],
        lambda pts: {"p": 2, "q": 2, "pairs": [pts[:2], 5]},
    ),
    "finite-model-zero-denominator": (["finite-model", "--weights", "1/0,1"], None),
    "finite-model-table-not-list": (
        ["finite-model", "--table"],
        lambda pts: {"mul": 5, "H": [0], "Q": [0]},
    ),
    "finite-model-table-entry-out-of-range": (
        ["finite-model", "--table"],
        lambda pts: {"mul": [[0, 1, 2], [1, 0, 5], [2, 5, 0]], "H": [0], "Q": [0]},
    ),
    "finite-model-table-entry-not-integer": (
        ["finite-model", "--table"],
        lambda pts: {"mul": [[0, 1], [1, 0.5]], "H": [0, 1], "Q": [0]},
    ),
    "finite-model-H-index-out-of-range": (
        ["finite-model", "--table"],
        lambda pts: {"mul": [[0, 1], [1, 0]], "H": [0, 7], "Q": [0]},
    ),
    "finite-model-H-not-list": (
        ["finite-model", "--table"],
        lambda pts: {"mul": [[0, 1], [1, 0]], "H": 5, "Q": [0]},
    ),
    "finite-model-Q-not-integer": (
        ["finite-model", "--table"],
        lambda pts: {"mul": [[0, 1], [1, 0]], "H": [0, 1], "Q": [0.0]},
    ),
    "finite-model-table-not-associative": (
        ["finite-model", "--table"],
        lambda pts: {
            "mul": [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]],
            "H": [0],
            "Q": [0],
        },
    ),
    "delta-form-10-samples": (["delta-form", "--samples", "10"], None),
    "delta-form-0-samples": (["delta-form", "--samples", "0"], None),
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_cli_bad_input_is_an_error(case, tmp_path, capsys, plane2, rng):
    argv, build = BAD_INPUTS[case]
    if build is not None:
        pts = [point_to_json(p) for p in random_boundary(plane2, rng, n=4)]
        path = tmp_path / "input.json"
        path.write_text(json.dumps(build(pts)))
        argv = argv + [str(path)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == "" and captured.err.startswith("error:")


def _samples_file(tmp_path, pairs):
    path = tmp_path / "samples.json"
    path.write_text(
        json.dumps(
            {"p": 2, "q": 2, "pairs": [[point_to_json(a), point_to_json(b)] for a, b in pairs]}
        )
    )
    return str(path)


def test_cli_reconstruct_roundtrip(tmp_path, capsys, rng):
    smap, _, _ = _planted_sample_map(rng, 2, 2, 152)
    code, data = run_cli(capsys, ["reconstruct", "--samples", _samples_file(tmp_path, smap.pairs)])
    assert code == 0
    assert data["fit"]["rejected"] is False
    assert data["fit"]["fraction_verified"] == 1.0


def test_cli_reconstruct_rejects_scramble(tmp_path, capsys, rng):
    smap, _, _ = _planted_sample_map(rng, 2, 2, 152, scramble=True)
    code, data = run_cli(capsys, ["reconstruct", "--samples", _samples_file(tmp_path, smap.pairs)])
    assert code == 2
    assert data["fit"]["rejected"] is True


def test_cli_reconstruct_rejects_collapsed_map(tmp_path, capsys, rng):
    smap, _, _ = _planted_sample_map(rng, 2, 2, 152)
    first = smap.pairs[0][1]
    pairs = [(x, first) for x, _ in smap.pairs]
    code, data = run_cli(capsys, ["reconstruct", "--samples", _samples_file(tmp_path, pairs)])
    assert code == 2
    assert data["fit"]["rejected"] is True
    assert data["compatibility"]["image_cochain_fraction"] == 0.0


def test_cli_finite_model(capsys):
    code, data = run_cli(
        capsys, ["finite-model", "--preset", "S3", "--weights", "1/3,2/3"]
    )
    assert code == 0
    assert all(v["ok"] for v in data["verdicts"])


@pytest.mark.parametrize("name", ["Z2", None])
def test_cli_finite_model_reports_table_name(name, tmp_path, capsys):
    table = {"mul": [[0, 1], [1, 0]], "H": [0, 1], "Q": [0]}
    if name is not None:
        table["name"] = name
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    code, data = run_cli(capsys, ["finite-model", "--table", str(path)])
    assert code == 0
    assert data["preset"] == (name or "custom") and data["order"] == 2


def test_cli_verify_subset(capsys):
    code, data = run_cli(capsys, ["verify", "--suite", "fibered-counting"])
    assert code == 0
    assert data["passed"] is True


def test_cli_malformed_input(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code = main(["cartan", "--p", "2", "--points", str(path)])
    assert code == 1


def test_cli_unknown_command():
    assert main(["frobnicate"]) == 1


def test_cli_env_seed(tmp_path, capsys, monkeypatch, plane2, rng):
    monkeypatch.setenv("CHAINGEO_SEED", "99")
    pts = [random_boundary(plane2, rng) for _ in range(3)]
    path = tmp_path / "points.json"
    path.write_text(json.dumps({"points": [point_to_json(p) for p in pts]}))
    code, data = run_cli(capsys, ["cartan", "--p", "2", "--points", str(path)])
    assert code == 0 and data["seed"] == 99
