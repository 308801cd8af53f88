"""Command-line front end.

Subcommands: cartan, chain, toledo, delta-form, reconstruct, finite-model,
verify.  All numeric outputs carry (seed, N, tolerance) for
reproducibility; identical (command, input, seed, N) give byte-identical
output.  Exit codes: 0 success, 1 usage or malformed input, 2 verification
failure (with a JSON failure report on stdout).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from fractions import Fraction

import numpy as np

from . import serialization as ser
from .busemann import volume_entropy
from .chains import cartan_invariant_flagged, chain_contains, chain_through, sample_chain_point
from .forms import BoundaryMapHandle, pullback_kappa_form
from .hermitian import HermitianModel, ProjPoint, tangent
from .isometries import standard_embedding
from .reconstruction import (
    BoundarySampleMap,
    NoRigidModelError,
    chain_compatibility_check,
    fit_embedding,
    verify_embedding,
)
from .toledo import fuchsian_genus2_rep, milnor_wood_check, toledo_surface_group
from .verify import ALL_CRITERIA
from . import finitemodels as fm

__all__ = ["main", "verify_payload"]


def _default_seed(args):
    if args.seed is not None:
        return args.seed
    return int(os.environ.get("CHAINGEO_SEED", "0"))


def _emit(payload, out_path=None, fmt="json", csv_rows=None):
    if fmt == "csv" and csv_rows is not None:
        header, rows = csv_rows
        lines = [",".join(header)]
        lines += [",".join(str(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        text = ser.dumps(payload)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _load_json(path):
    """The JSON object held by an input file (every input file holds one)."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(data).__name__}")
    return data


def _load_points(path, model):
    """The input file's ``points`` list as points, and the whole object."""
    data = _load_json(path)
    if not isinstance(data["points"], list):
        raise ValueError(f"{path}: 'points' must be a list")
    return [ser.json_to_point(d, model) for d in data["points"]], data


def _cmd_cartan(args):
    model = HermitianModel(args.p)
    pts, data = _load_points(args.points, model)
    triples = data.get("triples")
    if triples is None:
        if len(pts) > 12:
            raise SystemExit("too many points for exhaustive triples; list them explicitly")
        triples = list(itertools.combinations(range(len(pts)), 3))
    elif not isinstance(triples, list) or not all(
        # a negative index would silently count from the end
        isinstance(t, list) and len(t) == 3 and all(type(i) is int and 0 <= i < len(pts) for i in t)
        for t in triples
    ):
        raise ValueError(f"{args.points}: 'triples' must list index triples of the {len(pts)} points")
    rows = []
    for i, j, k in triples:
        val, degenerate = cartan_invariant_flagged(model, pts[i], pts[j], pts[k])
        rows.append({"triple": [i, j, k], "c": val, "degenerate": degenerate})
    csv_rows = (
        ("i", "j", "k", "c", "degenerate"),
        [(r["triple"][0], r["triple"][1], r["triple"][2], repr(r["c"]), int(r["degenerate"])) for r in rows],
    )
    _emit(
        {"command": "cartan", "p": args.p, "values": rows, "seed": _default_seed(args)},
        args.out,
        fmt=args.format,
        csv_rows=csv_rows,
    )
    return 0


def _cmd_chain(args):
    model = HermitianModel(args.p)
    pts, _ = _load_points(args.points, model)
    if len(pts) < 2:
        raise ValueError("a chain needs two points")
    C = chain_through(model, pts[0], pts[1])
    samples = [
        ser.point_to_json(sample_chain_point(C, t))
        for t in np.linspace(0.0, 2 * np.pi, args.samples, endpoint=False)
    ]
    membership = [
        {"index": i, "on_chain": bool(chain_contains(C, p))}
        for i, p in enumerate(pts[2:], start=2)
    ]
    csv_rows = (
        tuple(f"lift{k}_{part}" for k in range(model.dim) for part in ("re", "im")),
        [
            tuple(repr(v) for re_im in s["lift"] for v in re_im)
            for s in samples
        ],
    )
    _emit(
        {
            "command": "chain",
            "chain": ser.chain_to_json(C),
            "samples": samples,
            "membership": membership,
            "seed": _default_seed(args),
        },
        args.out,
        fmt=args.format,
        csv_rows=csv_rows,
    )
    return 0


def _cmd_toledo(args):
    if args.fuchsian_demo:
        rep = fuchsian_genus2_rep()
        if args.emit_rep:
            payload = {
                "genus": rep.genus,
                "generators": [ser.matrix_to_json(g.matrix) for g in rep.generators],
            }
            with open(args.emit_rep, "w") as fh:
                fh.write(ser.dumps(payload))
    else:
        if not args.rep:
            raise SystemExit("either --rep FILE or --fuchsian-demo is required")
        rep = ser.rep_from_json(_load_json(args.rep))
    target = HermitianModel(args.target_q)
    emb = standard_embedding(1, args.target_q)
    res = toledo_surface_group(target, rep, emb, tol=args.tolerance)
    ok, margin = milnor_wood_check(res)
    _emit(
        {
            "command": "toledo",
            "i_rho": res.value,
            "err": res.err_bound,
            "mw_ok": bool(ok),
            "mw_margin": margin,
            "triangles": res.triangle_count,
            "tolerance": args.tolerance,
            "seed": _default_seed(args),
        },
        args.out,
    )
    return 0


def _cmd_delta_form(args):
    seed = _default_seed(args)
    model = HermitianModel(args.p)
    ent = volume_entropy(model)
    emb = standard_embedding(args.p, args.q)
    phi = BoundaryMapHandle.from_embedding(emb, conjugate=args.conjugate)
    rng = np.random.default_rng(seed)
    u = rng.normal(size=args.p) + 1j * rng.normal(size=args.p)
    u *= 0.4 / np.linalg.norm(u)
    x = ProjPoint(np.concatenate([u, [1.0 + 0j]]), model=model, kind="interior")
    v1 = tangent(model, x, rng.normal(size=args.p + 1) + 1j * rng.normal(size=args.p + 1))
    v2 = tangent(model, x, rng.normal(size=args.p + 1) + 1j * rng.normal(size=args.p + 1))
    fe = pullback_kappa_form(model, ent, phi, x, v1, v2, n_samples=args.samples, seed=seed)
    _emit(
        {
            "command": "delta-form",
            "estimate": fe.value,
            "stderr": fe.mc_stderr,
            "bound": fe.bound,
            "N": fe.n_samples,
            "seed": seed,
            "entropy": ent.value,
        },
        args.out,
    )
    return 0


def _cmd_reconstruct(args):
    data = _load_json(args.samples)
    p, q = int(data["p"]), int(data["q"])
    mp, mq = HermitianModel(p), HermitianModel(q)
    if not isinstance(data["pairs"], list) or not all(
        isinstance(ab, list) and len(ab) == 2 for ab in data["pairs"]
    ):
        raise ValueError(f"{args.samples}: 'pairs' must list [source, target] point pairs")
    pairs = [
        (ser.json_to_point(a, mp), ser.json_to_point(b, mq)) for a, b in data["pairs"]
    ]
    smap = BoundarySampleMap(pairs=pairs, p=p, q=q)
    seed = _default_seed(args)
    report = chain_compatibility_check(smap, seed=seed)
    payload = {
        "command": "reconstruct",
        "seed": seed,
        "compatibility": {
            "cochain_triples": report.cochain_triples,
            "image_cochain_fraction": report.image_cochain_fraction,
            "orientation_match_fraction": report.orientation_match_fraction,
            "image_generic_fraction": report.image_generic_fraction,
        },
        "tolerance": args.tolerance,
    }
    try:
        emb, diags = fit_embedding(smap, compatibility=report, seed=seed)
    except NoRigidModelError as exc:
        payload["fit"] = {"rejected": True, "reason": str(exc)}
        _emit(payload, args.out)
        return 2
    ver = verify_embedding(emb, smap, tol=args.tolerance, mode=diags.mode)
    payload["fit"] = {
        "rejected": False,
        "mode": diags.mode,
        "matrix": ser.matrix_to_json(emb.matrix),
        "scale": emb.scale,
        "median_residual": diags.median_residual,
        "isometry_residual": diags.isometry_residual,
        "fraction_verified": ver["fraction"],
        "failing": ver["failing"],
        "residuals": [float(r) for r in ver["residuals"]],
    }
    _emit(payload, args.out)
    return 0


def _cmd_finite_model(args):
    if args.table:
        data = _load_json(args.table)
        if not isinstance(data["mul"], list):
            raise ValueError(f"{args.table}: 'mul' must be a list of table rows")
        model = fm.FiniteGroupModel(
            mul_table=data["mul"],
            H=data["H"],
            Q=data["Q"],
            name=data.get("name", "custom"),
        )
    else:
        model = fm.preset_model(args.preset)
    try:
        weights = [Fraction(w) for w in args.weights.split(",")] if args.weights else None
    except ZeroDivisionError:
        raise ValueError(f"--weights {args.weights!r} has a zero denominator") from None
    wq = fm.WeightedQuotient(model, weights)
    beta = fm.bruhat_beta(model)
    verdicts = []
    try:
        psi = fm.psi_kernel(model, beta, wq)
        verdicts.append({"check": "psi properties (1)(2)(3)", "ok": True})
    except ValueError as exc:
        verdicts.append({"check": "psi properties (1)(2)(3)", "ok": False, "detail": str(exc)})
        _emit({"command": "finite-model", "preset": model.name, "verdicts": verdicts}, args.out)
        return 2
    rng = np.random.default_rng(_default_seed(args))
    # every check runs, so each draws its function from rng
    ok_h = all([fm.homotopy_identity_holds(model, psi, wq, n, rng) for n in (1, 2, 3)])
    verdicts.append({"check": "homotopy identity n=1,2,3", "ok": ok_h})
    gh, hq = len(model.gh_cosets), len(model.hq_cosets)
    ok_count = all(
        len(fm.fibered_product(model, n).tuples) == gh * hq**n for n in (1, 2, 3)
    )
    verdicts.append({"check": "fibered counting n<=3", "ok": ok_count})
    payload = {
        "command": "finite-model",
        "preset": model.name,
        "order": model.n,
        "verdicts": verdicts,
        "seed": _default_seed(args),
    }
    _emit(payload, args.out)
    return 0 if ok_h and ok_count else 2


def verify_payload(results, seed):
    """The ``chaingeo verify`` payload of criterion results keyed by
    criterion: each result's scalar fields as plain Python values."""
    scalars = (int, float, str, np.floating, np.bool_, np.integer)
    plain = {
        k: {
            kk: v.item() if isinstance(v, np.generic) else v
            for kk, v in res.items()
            if isinstance(v, scalars)
        }
        for k, res in results.items()
    }
    passed = all(bool(res["passed"]) for res in results.values())
    return {"command": "verify", "seed": seed, "passed": passed, "results": plain}


def _cmd_verify(args):
    seed = _default_seed(args)
    if args.suite == "all":
        keys = list(ALL_CRITERIA)
    else:
        keys = [k.strip() for k in args.suite.split(",")]
        unknown = [k for k in keys if k not in ALL_CRITERIA]
        if unknown:
            raise SystemExit(f"unknown criteria: {unknown}")
    results = {}
    for k in keys:
        results[k] = res = ALL_CRITERIA[k]()
        sys.stderr.write(f"[{'PASS' if res['passed'] else 'FAIL'}] {res['name']}\n")
    payload = verify_payload(results, seed)
    _emit(payload, args.out)
    return 0 if payload["passed"] else 2


def build_parser():
    ap = argparse.ArgumentParser(
        prog="chaingeo",
        description="chain geometry, bounded Kahler forms, Toledo invariants",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, formats=False):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=str, default=None)
        if formats:
            p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser("cartan", help="angular invariants of boundary triples")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--points", type=str, required=True)
    common(p, formats=True)
    p.set_defaults(func=_cmd_cartan)

    p = sub.add_parser("chain", help="chain through two boundary points")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--points", type=str, required=True)
    p.add_argument("--samples", type=int, default=8)
    common(p, formats=True)
    p.set_defaults(func=_cmd_chain)

    p = sub.add_parser("toledo", help="Toledo invariant of a surface-group rep")
    p.add_argument("--rep", type=str, default=None)
    p.add_argument("--target-q", type=int, default=1)
    p.add_argument("--tolerance", type=float, default=1e-6)
    p.add_argument("--fuchsian-demo", action="store_true")
    p.add_argument("--emit-rep", type=str, default=None)
    common(p)
    p.set_defaults(func=_cmd_toledo)

    p = sub.add_parser("delta-form", help="evaluate the pulled-back Kahler form")
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--q", type=int, default=3)
    p.add_argument("--samples", type=int, default=200_000)
    p.add_argument("--conjugate", action="store_true")
    common(p)
    p.set_defaults(func=_cmd_delta_form)

    p = sub.add_parser("reconstruct", help="fit an embedding to boundary samples")
    p.add_argument("--samples", type=str, required=True)
    p.add_argument("--tolerance", type=float, default=1e-6)
    common(p)
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("finite-model", help="exact finite resolution checks")
    p.add_argument("--preset", type=str, default="S3", choices=["S3", "S4", "D4"])
    p.add_argument("--table", type=str, default=None, help="JSON multiplication table")
    p.add_argument("--weights", type=str, default=None, help="comma-separated rationals")
    common(p)
    p.set_defaults(func=_cmd_finite_model)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", type=str, default="all")
    common(p)
    p.set_defaults(func=_cmd_verify)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except SystemExit as exc:
        sys.stderr.write(f"{exc}\n")
        return 1
    except (OSError, json.JSONDecodeError, ValueError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
