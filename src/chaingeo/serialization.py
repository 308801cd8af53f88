"""JSON wire formats: points, chains, matrices, representations.

Complex numbers are [re, im] pairs; vectors and matrices nest them.  Every
statistics payload carries (seed, N) so runs are reproducible, and dumps
are key-sorted so identical inputs give byte-identical outputs.
"""

from __future__ import annotations

import json

import numpy as np

from .hermitian import ProjPoint, _check_kind, _classify
from .isometries import Isometry
from .toledo import RELATOR_TOL, SurfaceGroupRep, _scalar_residual

__all__ = [
    "complex_to_json",
    "vector_to_json",
    "json_to_vector",
    "matrix_to_json",
    "json_to_matrix",
    "point_to_json",
    "json_to_point",
    "json_to_lifts",
    "rep_from_json",
    "chain_to_json",
    "dumps",
]


def complex_to_json(z):
    return [float(np.real(z)), float(np.imag(z))]


def vector_to_json(v):
    return [complex_to_json(z) for z in v]


def json_to_vector(data):
    if not isinstance(data, list) or not all(
        isinstance(z, list) and len(z) == 2 and all(type(t) in (int, float) for t in z) for z in data
    ):
        raise ValueError("a vector must be a list of [re, im] pairs of numbers")
    return np.array([complex(re, im) for re, im in data], dtype=complex)


def _json_int(data, key):
    """The JSON integer ``data[key]``."""
    if type(data[key]) is not int:
        raise ValueError(f"'{key}' must be an integer, got {data[key]!r}")
    return data[key]


def matrix_to_json(m):
    return [vector_to_json(row) for row in np.asarray(m)]


def json_to_matrix(data):
    return np.stack([json_to_vector(row) for row in data])


def point_to_json(pt):
    return {"lift": vector_to_json(pt.lift), "kind": pt.kind}


def _json_lift(data):
    """The lift of a JSON point object."""
    if not isinstance(data, dict):
        raise ValueError(f"a point must be a JSON object, got {type(data).__name__}")
    return json_to_vector(data["lift"])


def json_to_point(data, model):
    """The point of a JSON object {'lift': vector, 'kind': kind}: the lift is
    classified, and an optional stated kind is checked (see ``ProjPoint``);
    a coordinate whose square overflows raises with no numpy warning."""
    with np.errstate(over="ignore"):
        return ProjPoint(_json_lift(data), model=model, kind=data.get("kind"))


def json_to_lifts(points, model):
    """The lifts of JSON points as one (n, p+1) array, as given; each is
    classified, and a stated kind checked, as ``json_to_point`` does."""
    rows = [_json_lift(data) for data in points]
    if any(len(v) != model.dim for v in rows):
        raise ValueError(f"lift must have shape ({model.dim},)")
    lifts = np.array(rows, dtype=complex).reshape(len(rows), model.dim)
    with np.errstate(over="ignore"):
        for data, boundary in zip(points, _classify(lifts)[1].tolist()):
            _check_kind(data.get("kind"), "boundary" if boundary else "interior")
    return lifts


def rep_from_json(data):
    """{'genus': g, 'generators': [matrix..]} -> SurfaceGroupRep in PU(1,1).

    Optional 'relators' are words in the generators as strings of signed
    integers ('1 2 -1 -2'); negative means inverse.  Each listed word must
    evaluate to a scalar matrix.
    """
    gens = [Isometry(json_to_matrix(m), 1) for m in data["generators"]]
    for word in data.get("relators", []):
        if not _scalar_residual(word_to_matrix(word, [g.matrix for g in gens])) <= RELATOR_TOL:
            raise ValueError(f"relator word {word!r} does not close")
    return SurfaceGroupRep(genus=_json_int(data, "genus"), generators=gens)


def word_to_matrix(word, generator_matrices):
    """Evaluate a word of signed 1-based generator indices ('1 -2 1')."""
    n = generator_matrices[0].shape[0]
    m = np.eye(n, dtype=complex)
    for tok in str(word).split():
        k = int(tok)
        if k == 0 or abs(k) > len(generator_matrices):
            raise ValueError(f"generator index {k} out of range")
        g = generator_matrices[abs(k) - 1]
        m = m @ (np.linalg.inv(g) if k < 0 else g)
    return m


def chain_to_json(chain):
    s = chain.span
    return {
        "points": [vector_to_json(s[:, 0]), vector_to_json(s[:, 1])],
        "orientation": chain.orientation,
    }


def dumps(payload):
    """Canonical JSON text: sorted keys, fixed separators, trailing newline."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
