"""Oracle independence, checked on the static call graph of src/sheafcalc.

Each node is a module-level function or a class method, named
(module, qualified name).  Every reference in a body counts as an edge, a
call or not: a bare name defined in or imported into the module, a
`module.attr` on an imported module, and `self.attr` inside a class.  A
reference to a class reaches all of its methods.  Imports are the
`from . import` / `from .mod import` / `from sheafcalc... import` forms,
at any depth; attribute references on other values are not resolved.
"""

import ast
import pathlib
from collections import defaultdict

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "sheafcalc"


def call_graph():
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    defs = {}  # (module, top-level name) -> {(module, node name), ...}
    bodies = {}  # node -> (module, class name or None, ast node)
    for mod, tree in trees.items():
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs[mod, top.name] = {(mod, top.name)}
                bodies[mod, top.name] = (mod, None, top)
            elif isinstance(top, ast.ClassDef):
                methods = [f for f in top.body if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
                defs[mod, top.name] = {(mod, f"{top.name}.{f.name}") for f in methods}
                for f in methods:
                    bodies[mod, f"{top.name}.{f.name}"] = (mod, top.name, f)
    names = defaultdict(dict)  # module -> local name -> (module, name) it is bound to
    modules = defaultdict(dict)  # module -> local name -> package module it is bound to
    for mod, tree in trees.items():
        for imp in ast.walk(tree):  # a function-local import binds its names module-wide
            if not isinstance(imp, ast.ImportFrom):
                continue
            top, _, sub = (imp.module or "").partition(".")
            if imp.level == 1 or (imp.level == 0 and top == "sheafcalc"):
                source = imp.module if imp.level else sub  # None or "" for the package itself
                for alias in imp.names:
                    local = alias.asname or alias.name
                    if source:
                        names[mod][local] = (source, alias.name)
                    else:
                        modules[mod][local] = alias.name

    def resolve(mod, name, seen=()):
        """Nodes of a top-level name of mod, following re-exports."""
        if (mod, name) in defs:
            return defs[mod, name]
        if name in names[mod] and (mod, name) not in seen:
            return resolve(*names[mod][name], seen + ((mod, name),))
        return set()

    graph = {}
    for node, (mod, cls, fn) in bodies.items():
        out = set()
        for sub in ast.walk(fn):
            if isinstance(sub, ast.Name):
                out |= resolve(mod, sub.id)
            elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                base = sub.value.id
                if base in modules[mod]:
                    out |= resolve(modules[mod][base], sub.attr)
                elif base == "self" and cls is not None:
                    out |= {(mod, f"{cls}.{sub.attr}")} & set(bodies)
        graph[node] = out
    return graph


GRAPH = call_graph()


def reachable(*starts, allowed=()):
    """Nodes reachable from starts, not following the (caller, callee)
    edges in allowed."""
    seen, todo = set(), list(starts)
    while todo:
        node = todo.pop()
        if node not in seen:
            seen.add(node)
            todo.extend(n for n in GRAPH.get(node, ()) if (node, n) not in allowed)
    return seen


SHEAF_ROUTE = (
    ("morse", "sheaf_route_classes"),
    ("stratmodel", "interval_barcode"),
    ("morse", "sheaf_route_model"),
    ("stratmodel", "decompose"),
)
PERSISTENCE_ROUTE = (("morse", "sublevel_barcode"), ("morse", "superlevel_barcode"))


def test_sheaf_route_shares_no_code_with_the_persistence_route():
    sheaf = reachable(*SHEAF_ROUTE)
    assert ("stratmodel", "reduce_column") in sheaf
    assert ("stratmodel", "interval_model") in sheaf
    assert sheaf.isdisjoint({("morse", "_reduce_boundary"), ("morse", "_lower_star_order")})


def test_persistence_route_shares_no_code_with_the_sheaf_route():
    persistence = reachable(*PERSISTENCE_ROUTE)
    assert {("morse", "_reduce_boundary"), ("morse", "_lower_star_order")} <= persistence
    assert persistence.isdisjoint(SHEAF_ROUTE + (("stratmodel", "reduce_column"),))


def test_sheaf_route_uses_no_dense_linear_algebra():
    for start in SHEAF_ROUTE + (("stratmodel", "interval_model"),):
        # interval_barcode takes no characteristic and reaches no modp at all
        expect = set() if start == ("stratmodel", "interval_barcode") else {"check_prime"}
        assert {fn for mod, fn in reachable(start) if mod == "modp"} == expect, start


# the one allowed path from the eigen count into the closed forms' code: the
# band guard finds the spectrum value nearest T with action_bin and refuses a
# T too close to it; it never sets the count
EIGEN_ALLOWED = {(("domains", "_check_band"), ("domains", "action_bin"))}
CLOSED_FORMS = {
    ("domains", name)
    for name in ("_stalk_degree", "domain_stalk", "domain_barcode", "sheaf_invariant", "_spec_values")
}


def test_eigen_count_shares_no_code_with_the_domain_closed_forms():
    eigen = reachable(("domains", "eigen_count"))
    assert ("domains", "action_bin") in eigen and eigen.isdisjoint(CLOSED_FORMS)
    assert ("domains", "action_bin") not in reachable(("domains", "eigen_count"), allowed=EIGEN_ALLOWED)


def test_graph_resolves_imports_and_classes():
    # the Betti oracle reaches the dense elimination through modp.rank, and
    # a StratModel built anywhere reaches its shape checks
    assert ("modp", "row_echelon") in reachable(("morse", "betti_numbers"))
    assert ("stratmodel", "StratModel.__post_init__") in reachable(("stratmodel", "from_barcode"))
    # a name imported from another module resolves to its definition there
    assert ("intervals", "canonicalize") in GRAPH["morse", "sublevel_barcode"]
