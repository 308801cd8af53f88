"""Every function, class and method of the library is reached from a
command or a criterion, or is named in ``ALLOWLIST`` with its reason.

The walk parses ``src/chaingeo/*.py`` with ``ast``.  It starts from
``cli.main``, every criterion of ``verify.ALL_CRITERIA``, the statements
that run at import (module bodies, decorators, base classes and default
values) and the names of ``ALLOWLIST``.  The body of a reached function,
or the body of a reached class outside its methods, reaches every
definition, in any module, whose name is a bare name or an attribute name
in it.  A reached class also reaches its dunder methods, which Python
calls on its own.  This over-approximates what can run, so the walk never
flags code that runs.  Imports and ``__all__`` are not followed: a
re-export is not a use.

Dataclass fields are definitions too, reached where their name is read,
but only the allowlisted one is checked.
"""

import ast
from collections import defaultdict
from pathlib import Path

import chaingeo
from chaingeo.verify import ALL_CRITERIA

SRC = Path(chaingeo.__file__).resolve().parent

# Unreached definitions that stay, each with its reason.
ALLOWLIST = {
    # the API's geometry primitives, for callers of the library
    "busemann.busemann": "API primitive: the Busemann cocycle of a point pair",
    "busemann.busemann_lifts": "API primitive: the Busemann cocycle over lift arrays",
    "busemann.e_xi": "API primitive: the boundary density weight at one point",
    "chains.cartan_invariant": "API primitive: the angular invariant without its flag",
    "chains.Chain.reversed": "API primitive: the chain with the opposite orientation",
    "hermitian.distance": "API primitive: the distance of two points",
    "hermitian.geodesic": "API primitive: the geodesic from a point toward another",
    "hermitian.inner": "API primitive: the Hermitian form on lifts",
    "hermitian.unit_tangent_toward": "API primitive: the unit tangent toward a point",
    "hermitian._direction": "helper of the primitives geodesic and unit_tangent_toward",
    "isometries.Isometry.inverse": "API primitive: the inverse isometry",
    "isometries.EmbeddingMap.push_point": "API primitive: the image of a point",
    # the appendix maps: the README lists them, and their tests check the
    # paper's identities d o d = 0 and d o tau = tau o d exactly
    "finitemodels.differential_d": "appendix map: the differential of the fibered picture",
    "finitemodels.transfer_tau": "appendix map: the transfer map",
    "finitemodels.h_invariant_function": "appendix map: H-invariant functions of the group picture",
    "finitemodels._act_gh": "helper of transfer_tau: the action on G/H",
    "finitemodels.FiberedSpace.face": "appendix map: a face of the fibered complex",
    # read by the benchmark, which this repository keeps unchanged until a
    # benchmark change moves them out
    "quadrature.integrate_unit_square": "perfbench/layers.py imports quadrature",
    "quadrature._Rule": "helper of integrate_unit_square",
    "quadrature._Rule.panel": "helper of integrate_unit_square",
    "forms.BoundaryCocycle.alternating": "perfbench/workloads.py passes this field",
}


def _evaluated_at_def(fn):
    """The decorators and default values of a function definition."""
    return fn.decorator_list + fn.args.defaults + [d for d in fn.args.kw_defaults if d]


def parse_modules(sources):
    """(definitions, import-time nodes) of modules given as {name: source}.

    Definitions map a qualified name ``module.name``, ``module.Class.method``
    or ``module.Class.field`` to its node.
    """
    defs = {}
    at_import = []
    for mod, source in sources.items():
        for node in ast.parse(source).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                at_import.append(node)
                continue
            defs[f"{mod}.{node.name}"] = node
            if isinstance(node, ast.FunctionDef):
                at_import += _evaluated_at_def(node)
                continue
            at_import += node.decorator_list + node.bases
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    defs[f"{mod}.{node.name}.{item.name}"] = item
                    at_import += _evaluated_at_def(item)
                elif isinstance(item, ast.AnnAssign):
                    defs[f"{mod}.{node.name}.{item.target.id}"] = item
    return defs, at_import


def _simple_name(node):
    return node.target.id if isinstance(node, ast.AnnAssign) else node.name


def _names(node):
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def reach(defs, roots, nodes):
    """The qualified names reached from the definitions ``roots`` and from
    the statements ``nodes``."""
    by_name = defaultdict(list)
    for q, node in defs.items():
        by_name[_simple_name(node)].append(q)
    reached, seen, todo, nodes = set(), set(), list(roots), list(nodes)
    while todo or nodes:
        if nodes:
            for name in _names(nodes.pop()):
                if name not in seen:
                    seen.add(name)
                    todo += by_name[name]
            continue
        q = todo.pop()
        if q in reached:
            continue
        reached.add(q)
        node = defs[q]
        if isinstance(node, ast.FunctionDef):
            nodes += node.body
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    if item.name.startswith("__") and item.name.endswith("__"):
                        todo.append(f"{q}.{item.name}")
                elif isinstance(item, ast.AnnAssign):
                    if item.value is not None:
                        nodes.append(item.value)
                else:
                    nodes.append(item)
    return reached


def _library():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    defs, at_import = parse_modules(sources)
    roots = ["cli.main"] + [f"verify.{fn.__name__}" for fn in ALL_CRITERIA.values()]
    return defs, roots, at_import


def _unreached(defs, reached):
    """Functions, classes and methods that the walk did not reach."""
    return sorted(
        q for q, node in defs.items() if not isinstance(node, ast.AnnAssign) and q not in reached
    )


def test_every_definition_is_reached():
    defs, roots, at_import = _library()
    reached = reach(defs, roots + list(ALLOWLIST), at_import)
    unreached = _unreached(defs, reached)
    assert not unreached, "no command, criterion or allowlist entry reaches:\n  " + "\n  ".join(
        unreached
    )


def test_allowlist_names_only_unreached_definitions():
    # an entry must name a definition that no command or criterion reaches,
    # so it leaves the list once the name is deleted or gets a reader
    defs, roots, at_import = _library()
    reached = reach(defs, roots, at_import)
    stale = sorted(q for q in ALLOWLIST if q not in defs or q in reached)
    assert not stale, f"allowlist entries not needed: {stale}"
    assert all(reason.strip() for reason in ALLOWLIST.values())


def test_walk_flags_an_unreached_definition():
    # the walk follows bare and attribute names, implicit dunder methods and
    # import-time statements, and flags what none of them reaches
    sources = {
        "m": (
            "X = _made()\n"
            "def _made():\n    return K()\n"
            "class K:\n    def __init__(self):\n        self.used()\n"
            "    def used(self):\n        pass\n"
            "    def unused(self):\n        pass\n"
            "def main():\n    return obj.attr\n"
            "def attr():\n    pass\n"
            "def dead():\n    main()\n"
        )
    }
    defs, at_import = parse_modules(sources)
    assert _unreached(defs, reach(defs, ["m.main"], at_import)) == ["m.K.unused", "m.dead"]
