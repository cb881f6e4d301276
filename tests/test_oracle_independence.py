"""Oracle independence and dead code, checked on the static call graph of
src/sheafcalc.

Each node is a module-level function or a class method, named
(module, qualified name).  Every reference in a body counts as an edge, a
call or not: a bare name defined in or imported into the module, a
`module.attr` on an imported module, and `self.attr` inside a class.  A
reference to a class reaches all of its methods.  Imports are the
`from . import` / `from .mod import` / `from sheafcalc... import` forms,
at any depth; attribute references on other values are not resolved.

The dead-code check reads the same graph more strictly: a reference to a
class reaches only its dunder methods, and any other method is reached
once reached code reads its name as an attribute, on any value.
"""

import argparse
import ast
import pathlib
from collections import defaultdict

from sheafcalc import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sheafcalc"


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

    graph, reads = {}, {}
    for node, (mod, cls, fn) in bodies.items():
        out = set()
        reads[node] = {sub.attr for sub in ast.walk(fn) if isinstance(sub, ast.Attribute)}
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
    return graph, reads, resolve


GRAPH, READS, RESOLVE = call_graph()


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
    # the persistence route's union-find included: the sheaf route's degree 0 needs its own
    assert sheaf.isdisjoint({("morse", "_reduce_boundary"), ("morse", "_lower_star_order"), ("morse", "_elder_pairs")})


def test_persistence_route_shares_no_code_with_the_sheaf_route():
    persistence = reachable(*PERSISTENCE_ROUTE)
    assert {("morse", "_reduce_boundary"), ("morse", "_lower_star_order"), ("morse", "_elder_pairs")} <= persistence
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
    for name in ("_bins", "_stratum", "_strata", "domain_stalk", "domain_barcode", "sheaf_invariant")
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


# the fiberwise stalk oracle and the bilinear ops it checks: they may share
# the interval types of other modules (the graph follows class references
# into them), so the rule is stated on `ops` nodes
STALK_ORACLE = (("ops", "barcode_stalk_via_oracle"),)
BILINEAR_OPS = tuple(("ops", name) for name in ("convolve", "convolve_np", "hom_star", "rhom_sheaf"))


def test_stalk_oracle_shares_no_ops_code_with_the_bilinear_ops():
    oracle = {node for node in reachable(*STALK_ORACLE) if node[0] == "ops"}
    assert oracle == set(STALK_ORACLE) | {
        ("ops", "stalk_oracle"), ("ops", "_sum_cut"), ("ops", "FiberCut.shape"), ("ops", "FiberCut.cohomology"),
    }
    checked = {node for node in reachable(*BILINEAR_OPS) if node[0] == "ops"}
    assert ("ops", "_bilinear") in checked and checked.isdisjoint(oracle)


# the brute-force interleaving oracle and the distances it checks: both
# group the expanded bars by degree with `_by_degree`, and share no other
# `metrics` node
DISTANCES = (("metrics", "bottleneck"), ("metrics", "delta_matched"), ("metrics", "bottleneck_matching"))
INTERLEAVE_ORACLE = (("metrics", "brute_interleave"),)
SHARED_GROUPING = {("metrics", "_by_degree")}


def test_brute_interleave_shares_only_the_degree_grouping_with_the_distances():
    oracle = {node for node in reachable(*INTERLEAVE_ORACLE) if node[0] == "metrics"}
    checked = {node for node in reachable(*DISTANCES) if node[0] == "metrics"}
    assert ("metrics", "_interleave_block") in oracle
    assert {("metrics", "_witness"), ("metrics", "_cover")} <= checked
    assert {("metrics", "_cover"), ("metrics", "_augment")} <= reachable(("metrics", "_CostTable.covers"))
    assert oracle & checked == SHARED_GROUPING


# the quiver RHom oracles and the RHom tables they check: both build the
# `intervals` value types, so the rule is stated on `ops`, `stratmodel` and
# `domains` nodes, where they share none.  `rhom_total` ranks the ends of
# `intervals.scaled_ends`, which the oracles never reach: they read the
# sorted distinct ends with `intervals.finite_ends`;
# `domains.rhom_total` is the `ops` table imported, so the `domains` entry is
# its caller, `sheaf_invariant`
RHOM_TABLES = (("ops", "rhom_total"), ("ops", "rhom_sheaf"), ("domains", "sheaf_invariant"))
RHOM_ORACLES = (("stratmodel", "rhom_oracle"), ("stratmodel", "rhom_sheaf_stalk_oracle"))
RHOM_MODULES = {"ops", "stratmodel", "domains"}


def test_rhom_oracles_share_no_code_with_the_rhom_tables():
    tables = {node for node in reachable(*RHOM_TABLES) if node[0] in RHOM_MODULES}
    oracles = {node for node in reachable(*RHOM_ORACLES) if node[0] in RHOM_MODULES}
    assert {("ops", "_bilinear"), ("ops", "_rhom_sheaf_pair")} <= tables
    assert ("stratmodel", "germ_at") in oracles
    assert ("intervals", "Interval.__new__") in reachable(*RHOM_TABLES) & reachable(*RHOM_ORACLES)
    assert ("intervals", "scaled_ends") in reachable(("ops", "rhom_total"))
    assert ("intervals", "finite_ends") in reachable(*RHOM_ORACLES)
    assert ("intervals", "scaled_ends") not in reachable(*RHOM_ORACLES)
    assert tables.isdisjoint(RHOM_ORACLES) and oracles.isdisjoint(RHOM_TABLES)
    assert tables.isdisjoint(oracles)


def test_every_named_node_is_in_the_graph():
    # a renamed or re-exported function would leave its name here checking nothing
    named = set(
        SHEAF_ROUTE + PERSISTENCE_ROUTE + STALK_ORACLE + BILINEAR_OPS + DISTANCES + INTERLEAVE_ORACLE
        + RHOM_TABLES + RHOM_ORACLES
    )
    named |= CLOSED_FORMS | SHARED_GROUPING | {node for edge in EIGEN_ALLOWED for node in edge}
    assert not named - set(GRAPH), named - set(GRAPH)


# --- dead code: every module-level function is reached from a root -----------
# The roots are the CLI, the `sheafcalc` namespace, what perfbench/ and
# tools/ reference, and the oracles below, which only the tests call.
ORACLES = {
    ("ops", "hom_star_pair_formula"): "the closed finite-pair Hom* formula that hom_star is checked against",
    ("ops", "barcode_stalk_via_oracle"): "the fiber-cut stalk of a whole barcode that the bilinear ops are checked against",
}


# methods that code outside the package calls by name, on an override
CALLBACKS = {
    ("cli", "_Parser.error"): "argparse calls it on a parse error; the override makes that one line and exit 2",
}


def cli_ops():
    """The `ops` functions `_cmd_ops` looks up by the name of its subcommand."""
    commands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    op = next(a for a in commands.choices["ops"]._actions if a.dest == "op")
    return set().union(*(RESOLVE("ops", name.replace("-", "_")) for name in op.choices))


def namespace_exports():
    tree = ast.parse((SRC / "__init__.py").read_text())
    names = {alias.asname or alias.name for imp in ast.walk(tree) if isinstance(imp, ast.ImportFrom) for alias in imp.names}
    return set().union(*(RESOLVE("__init__", name) for name in names))


def outside_references(*dirs):
    """Nodes that Python files under dirs name: `from sheafcalc[.mod] import
    x`, `mod.x` on an imported module, and a module followed by the string
    "x" in a tuple or call, as perfbench's span table and `getattr` do."""
    found = set()
    for path in (p for d in dirs for p in sorted((ROOT / d).glob("*.py"))):
        tree = ast.parse(path.read_text())
        modules = {}  # local name -> sheafcalc module
        for imp in ast.walk(tree):
            if isinstance(imp, ast.ImportFrom) and (imp.module or "").startswith("sheafcalc"):
                sub = imp.module.partition(".")[2]
                for alias in imp.names:
                    if not sub and (SRC / f"{alias.name}.py").exists():
                        modules[alias.asname or alias.name] = alias.name
                    else:
                        found |= RESOLVE(sub or "__init__", alias.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                found |= RESOLVE(modules[node.value.id], node.attr)
            elif isinstance(node, (ast.Tuple, ast.Call)):
                items = node.elts if isinstance(node, ast.Tuple) else node.args
                for mod, name in zip(items, items[1:]):
                    if isinstance(mod, ast.Name) and mod.id in modules and isinstance(name, ast.Constant):
                        found |= RESOLVE(modules[mod.id], name.value)
    return found


def outside_reads(*dirs):
    """Every name that Python files under dirs read as an attribute."""
    return {
        node.attr
        for path in (p for d in dirs for p in sorted((ROOT / d).glob("*.py")))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
    }


def is_dunder(node):
    name = node[1].rpartition(".")[2]
    return name.startswith("__") and name.endswith("__")


def by_reference(nodes):
    """The nodes a reference reaches in the strict reading: functions, and
    only the dunder methods of a class."""
    return {node for node in nodes if "." not in node[1] or is_dunder(node)}


def reached_strictly(starts, reads):
    """Nodes reached from starts when a class reference reaches only the
    class's dunder methods, and any other method is reached once its name
    is in reads or read as an attribute by a reached node."""
    methods = defaultdict(set)  # name -> the non-dunder methods of that name
    for node in GRAPH:
        if "." in node[1] and not is_dunder(node):
            methods[node[1].rpartition(".")[2]].add(node)
    read, seen = set(reads), set()
    todo = [*starts, *(method for name in read for method in methods[name])]
    while todo:
        node = todo.pop()
        if node in seen:
            continue
        seen.add(node)
        todo.extend(by_reference(GRAPH.get(node, ())))
        for name in READS.get(node, set()) - read:
            read.add(name)
            todo.extend(methods[name])
    return seen


def test_every_function_is_reached_from_a_root():
    assert {("ops", "convolve"), ("ops", "capacity_prime")} <= cli_ops()
    assert ("stratmodel", "decompose") in outside_references("perfbench")  # named in the span table
    roots = by_reference({("cli", "main")} | cli_ops() | namespace_exports() | outside_references("perfbench", "tools"))
    assert set(ORACLES) <= set(GRAPH) and all(ORACLES.values())
    assert set(CALLBACKS) <= set(GRAPH) and all(CALLBACKS.values())
    reached = reached_strictly(roots | set(ORACLES) | set(CALLBACKS), outside_reads("perfbench", "tools"))
    assert not set(GRAPH) - reached, sorted(set(GRAPH) - reached)


def test_a_class_reference_reaches_no_method_it_does_not_read():
    # the graph itself lets a class reference reach every method ...
    assert ("intervals", "GradedBarcode.total_mult") in GRAPH["intervals", "canonical_barcode"]
    # ... the strict reading reaches its dunders only, and a method once read
    assert ("intervals", "GradedBarcode.total_mult") not in reached_strictly({("intervals", "canonical_barcode")}, ())
    assert ("intervals", "GradedBarcode.__post_init__") in reached_strictly({("intervals", "canonical_barcode")}, ())
    assert ("intervals", "GradedBarcode.total_mult") in reached_strictly({("intervals", "expanded_bars")}, ())
