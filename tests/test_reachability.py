"""Every function, class, method and field of the library is reached
from a command or a criterion, or is named in ``ALLOWLIST`` with its
reason.

The walk parses ``src/chaingeo/*.py`` with ``ast``.  It starts from
``cli.main``, every criterion of ``verify.ALL_CRITERIA``, the statements
that run at import (module bodies, decorators, base classes and default
values) and the names of ``ALLOWLIST``.  The body of a reached function,
or the body of a reached class outside its methods, reaches every
function, class and method, in any module, whose name is a bare name or an
attribute name in it.  A reached class also reaches its dunder methods,
which Python calls on its own.  This over-approximates what can run, so
the walk never flags code that runs.  Imports and ``__all__`` are not
followed: a re-export is not a use.

Fields are the fields of a dataclass (an ``InitVar`` is not one) and the
attributes that ``__init__`` or ``__post_init__`` store on ``self``.  A
field is read only where reached code loads it as an attribute
(``obj.x``); a bare name, a keyword argument or a store of the same name
does not read it.
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
    "hermitian.inner": "API primitive: the Hermitian form on lifts",
    "isometries.Isometry.inverse": "API primitive: the inverse isometry",
    "isometries.EmbeddingMap.push_point": "API primitive: the image of a point",
    # the appendix maps: the README lists them, and their tests check the
    # paper's identities d o d = 0 and d o tau = tau o d exactly
    "finitemodels.differential_d": "appendix map: the differential of the fibered picture",
    "finitemodels.transfer_tau": "appendix map: the transfer map",
    "finitemodels.h_invariant_function": "appendix map: H-invariant functions of the group picture",
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


def _is_dataclass(cls):
    return any(
        isinstance(d, ast.Name) and d.id == "dataclass"
        or isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "dataclass"
        for d in cls.decorator_list
    )


def _is_initvar(item):
    ann = item.annotation
    return isinstance(ann, ast.Subscript) and isinstance(ann.value, ast.Name) and ann.value.id == "InitVar"


def _self_stores(method):
    """The ``self.x`` attribute nodes that a method stores."""
    return [
        n for n in ast.walk(method)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
        and isinstance(n.value, ast.Name) and n.value.id == "self"
    ]


def parse_modules(sources):
    """(definitions, import-time nodes) of modules given as {name: source}.

    Definitions map a qualified name ``module.name``, ``module.Class.method``
    or ``module.Class.field`` to its node: a field's node is its annotated
    assignment in a dataclass, or its first ``self.field`` store.
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
            fields = {}
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    defs[f"{mod}.{node.name}.{item.name}"] = item
                    at_import += _evaluated_at_def(item)
                    if item.name in ("__init__", "__post_init__"):
                        for n in _self_stores(item):
                            fields.setdefault(n.attr, n)
                elif isinstance(item, ast.AnnAssign) and _is_dataclass(node) and not _is_initvar(item):
                    fields[item.target.id] = item
            for name, n in fields.items():
                defs.setdefault(f"{mod}.{node.name}.{name}", n)
    return defs, at_import


def _key(node):
    """The name that reaches a definition: a field's is ``.name``."""
    if isinstance(node, ast.AnnAssign):
        return "." + node.target.id
    if isinstance(node, ast.Attribute):
        return "." + node.attr
    return node.name


def _keys(node):
    """The keys that the names in ``node`` reach: every bare or attribute
    name reaches the functions, classes and methods of that name, and an
    attribute load ``obj.x`` also reaches the fields named x."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
            if isinstance(n.ctx, ast.Load):
                yield "." + n.attr


def reach(defs, roots, nodes):
    """The qualified names reached from the definitions ``roots`` and from
    the statements ``nodes``."""
    by_key = defaultdict(list)
    for q, node in defs.items():
        by_key[_key(node)].append(q)
    reached, seen, todo, nodes = set(), set(), list(roots), list(nodes)
    while todo or nodes:
        if nodes:
            for key in _keys(nodes.pop()):
                if key not in seen:
                    seen.add(key)
                    todo += by_key[key]
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
    """Definitions that the walk did not reach."""
    return sorted(q for q in defs if q not in reached)


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
    # import-time statements, and flags what none of them reaches; a field
    # is reached only by an attribute load, not by a keyword argument, a
    # bare local or a store of the same name, and an InitVar is no field
    sources = {
        "m": (
            "X = _made()\n"
            "def _made():\n    return K()\n"
            "class K:\n    def __init__(self):\n        self.used()\n"
            "        self.kept = 1\n        self.lost = 2\n"
            "    def used(self):\n        return self.kept\n"
            "    def unused(self):\n        pass\n"
            "@dataclass\nclass R:\n    read: int\n    unread: int\n    seed: InitVar[int]\n"
            "def main():\n    unread = R(read=1, unread=2, seed=3).read\n"
            "    f(lost=unread)\n    obj.lost = 3\n    return obj.attr\n"
            "def attr():\n    pass\n"
            "def dead():\n    main()\n"
        )
    }
    defs, at_import = parse_modules(sources)
    assert "m.R.seed" not in defs
    assert _unreached(defs, reach(defs, ["m.main"], at_import)) == [
        "m.K.lost",
        "m.K.unused",
        "m.R.unread",
        "m.dead",
    ]
