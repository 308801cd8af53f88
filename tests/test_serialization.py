import json

import numpy as np
import pytest

from chaingeo import fuchsian_genus2_rep
from chaingeo.cli import main
from chaingeo.serialization import (
    matrix_to_json,
    rep_from_json,
    word_to_matrix,
)

from conftest import random_boundary


def test_rep_with_relator_words():
    rep = fuchsian_genus2_rep()
    payload = {
        "genus": 2,
        "generators": [matrix_to_json(g.matrix) for g in rep.generators],
        "relators": ["1 2 -1 -2 3 4 -3 -4"],
    }
    back = rep_from_json(payload)
    assert back.relator_residual < 1e-8


def test_rep_rejects_false_relator():
    rep = fuchsian_genus2_rep()
    payload = {
        "genus": 2,
        "generators": [matrix_to_json(g.matrix) for g in rep.generators],
        "relators": ["1 2"],  # a1 b1 is not central
    }
    with pytest.raises(ValueError):
        rep_from_json(payload)


def test_rep_rejects_nan_generator():
    rep = fuchsian_genus2_rep()
    gens = [matrix_to_json(g.matrix) for g in rep.generators]
    gens[0][0][0] = [float("nan"), 0.0]
    # the json module writes and reads NaN literals
    payload = json.loads(json.dumps({"genus": 2, "generators": gens}))
    with pytest.raises(ValueError):
        rep_from_json(payload)


def test_word_to_matrix_inverses():
    rep = fuchsian_genus2_rep()
    mats = [g.matrix for g in rep.generators]
    m = word_to_matrix("1 -1", mats)
    assert np.linalg.norm(m - np.eye(2)) < 1e-12
    with pytest.raises(ValueError):
        word_to_matrix("5", mats)


def test_cli_csv_format(tmp_path, capsys, plane2, rng):
    from chaingeo.serialization import point_to_json

    pts = [random_boundary(plane2, rng) for _ in range(3)]
    path = tmp_path / "points.json"
    path.write_text(json.dumps({"points": [point_to_json(p) for p in pts]}))
    code = main(["cartan", "--p", "2", "--points", str(path), "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "i,j,k,c,degenerate"
    assert len(lines) == 2  # header + the single triple


def test_cli_finite_model_table(tmp_path, capsys):
    import chaingeo.finitemodels as fm

    s3 = fm.preset_model("S3")
    payload = {
        "mul": s3.mul.tolist(),
        "H": sorted(s3.H),
        "Q": sorted(s3.Q),
        "name": "S3-from-table",
    }
    path = tmp_path / "group.json"
    path.write_text(json.dumps(payload))
    code = main(["finite-model", "--table", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    assert all(v["ok"] for v in data["verdicts"])
