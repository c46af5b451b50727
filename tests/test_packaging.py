"""The packaging metadata covers what the tests need."""

import ast
import inspect
import re
import sys
from pathlib import Path

import pytest

from bigres import exactcore

ROOT = Path(__file__).resolve().parent.parent


def test_test_imports_are_declared():
    # every third-party module imported under tests/ is numpy (the runtime
    # dependency) or is listed in the test extra
    tomllib = pytest.importorskip("tomllib")
    meta = tomllib.loads((ROOT / "pyproject.toml").read_text())
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
                for req in meta["project"]["optional-dependencies"]["test"]}
    local = {p.stem for p in (ROOT / "tests").glob("*.py")} | {"bigres"}
    imported = set()
    for path in (ROOT / "tests").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - local - {"numpy"}
    assert third_party <= declared, sorted(third_party - declared)


SRC = ROOT / "src" / "bigres"


def _trees(paths):
    return [(path, ast.parse(path.read_text(), str(path))) for path in sorted(paths)]


def test_mat_from_blocks_is_the_only_assembler():
    # no package module stacks arrays itself
    stackers = {"hstack", "vstack", "block", "concatenate", "column_stack"}
    stacking = [f"{path.name}:{node.lineno} {node.func.attr}"
                for path, tree in _trees(SRC.glob("*.py")) for node in ast.walk(tree)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in stackers and isinstance(node.func.value, ast.Name)
                and node.func.value.id in ("np", "numpy")]
    assert not stacking, stacking


def test_matrix_products_only_in_exactcore():
    # exactcore's products cut their inner dimension so that a GF(p) product
    # stays exact (mat_mul's bound); a bare @, np.matmul or np.dot in another
    # package module or a script would not
    paths = [p for p in [*SRC.glob("*.py"), *(ROOT / "scripts").glob("*.py")]
             if p.name != "exactcore.py"]
    products = [f"{path.name}:{node.lineno}"
                for path, tree in _trees(paths) for node in ast.walk(tree)
                if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
                or isinstance(node, ast.Attribute) and node.attr in ("matmul", "dot")
                or isinstance(node, ast.alias) and node.name in ("matmul", "dot")]
    assert not products, products


def _named(node):
    # the name a node reads, bare or as a module attribute; None if none
    return node.id if isinstance(node, ast.Name) else \
        node.attr if isinstance(node, ast.Attribute) else None


def _named_in(paths, names):
    # {name: {(module, enclosing top-level function)}} for every read of a
    # name, bare or as a module attribute
    sites = {name: set() for name in names}
    for path, tree in _trees(paths):
        for top in tree.body:
            for node in ast.walk(top):
                name = _named(node)
                if name in sites:
                    sites[name].add((path.stem, getattr(top, "name", None)))
    return sites


def test_polynomial_matrix_kernel_is_the_only_route():
    # strands of polynomial matrices are built by betti.poly_strand (and the
    # ring Koszul complex from its one action, strands._ring_action), and
    # (1,n) forms are split only by bipoly.theta_matrix
    sites = _named_in(SRC.glob("*.py"), ("mul_matrix", "split_st"))
    assert sites["mul_matrix"] == {("strands", "_ring_action"),
                                   ("betti", "poly_strand")}, sites["mul_matrix"]
    assert sites["split_st"] == {("bipoly", "theta_matrix")}, sites["split_st"]


def test_koszul_homology_has_one_loop():
    # Koszul differentials are built only by the one homology routine, which
    # skips every one that is proved zero, and by the ring differential;
    # that is only ever asked for the generator strand d_1 (the literal
    # j = 1), so no second loop over ring ranks can come back
    paths = [*SRC.glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    assert _named_in(paths, ("_koszul_differential",))["_koszul_differential"] == {
        ("strands", "_koszul_homology"), ("strands", "_ring_differential")}
    calls, reads = [], 0
    for path, tree in _trees(paths):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _named(node.func) == "_ring_differential":
                j = node.args[2] if len(node.args) > 2 else \
                    next((k.value for k in node.keywords if k.arg == "j"), None)
                calls.append((f"{path.name}:{node.lineno}",
                              isinstance(j, ast.Constant) and j.value == 1))
            reads += _named(node) == "_ring_differential"
    assert calls and all(ok for _, ok in calls), calls
    assert reads == len(calls)  # never passed on as a value


def test_generator_strand_is_eliminated_in_two_places():
    # the generator strand [f0 f1 f2] is built only as the quotient record
    # on its edge and as the (3,n) syzygies of conic detection; the
    # basepoint test reads hf off the quotient record, so strands takes no
    # rank of its own
    sites = _named_in(SRC.glob("*.py"), ("_ring_differential",))["_ring_differential"]
    assert sites == {("strands", "_inverse_system"), ("segre", "detect_conic")}, sites
    tree = ast.parse((SRC / "strands.py").read_text())
    names = {node.name if isinstance(node, ast.alias) else _named(node)
             for node in ast.walk(tree)}
    assert "mat_rank" not in names


def test_exactcore_functions_have_callers():
    # every public function of exactcore is named in another package module
    # or in scripts/, by a name, an attribute or an import
    core = SRC / "exactcore.py"
    public = {node.name for node in ast.parse(core.read_text()).body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    paths = [p for p in [*SRC.glob("*.py"), *(ROOT / "scripts").glob("*.py")] if p != core]
    named = set()
    for _, tree in _trees(paths):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    assert public <= named, sorted(public - named)


def test_module_imports_are_read():
    # every module-level import of a package module (but __init__, which
    # re-exports), of a script and of a test module is read somewhere in its
    # file
    paths = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    paths += [*(ROOT / "scripts").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    unread = []
    for path, tree in _trees(paths):
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                    getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unread.append(f"{path.name}:{node.lineno} {name}")
    assert not unread, unread


LOWER = ("exactcore", "bipoly", "combinat", "strands", "betti")
UPPER = {"segre", "lab", "cli"}


def test_lower_layers_do_not_import_upper_ones():
    # no import in a lower layer, at module level or inside a function,
    # names segre, lab or cli: the layers import downward only, so there is
    # no cycle to break at call time
    upward = []
    for path, tree in _trees(SRC / f"{name}.py" for name in LOWER):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                named = {part for alias in node.names for part in alias.name.split(".")}
            elif isinstance(node, ast.ImportFrom):
                named = set((node.module or "").split("."))
                if node.module in (None, "bigres"):
                    named |= {alias.name for alias in node.names}
            else:
                continue
            if named & UPPER:
                upward.append(f"{path.name}:{node.lineno}")
    assert not upward, upward


def test_no_numpy_set_routines():
    # np.unique and the *1d set routines import numpy.ma on first call
    # (numpy 2.4), about 1 MB of peak memory on a short run; np.isin does not
    sites = _named_in(SRC.glob("*.py"),
                      ("unique", "union1d", "intersect1d", "setdiff1d", "setxor1d"))
    assert not any(sites.values()), sites


def test_one_elimination_kernel_without_knobs():
    # every elimination goes through exactcore.rref (over Q through its
    # multi-modular lift), which calls the one kernel _rref_prime(a, p);
    # only the kernel picks its one-pass path, by the matrix's size against
    # one constant that nothing else reads, and exactcore reads no
    # environment, so no variable can select a path
    sites = _named_in(SRC.glob("*.py"), ("_rref_prime", "_rref_one_pass"))
    assert sites["_rref_prime"] == {("exactcore", "rref"), ("exactcore", "_rref_rational")}, sites
    assert sites["_rref_one_pass"] == {("exactcore", "_rref_prime")}, sites
    assert list(inspect.signature(exactcore._rref_prime).parameters) == ["a", "p"]
    tree = ast.parse((SRC / "exactcore.py").read_text())
    assert [node.value.value for node in tree.body if isinstance(node, ast.Assign)
            and [_named(t) for t in node.targets] == ["_ONE_PASS"]] == [8192]
    reads = {(path.stem, getattr(top, "name", None))
             for path, tree_ in _trees([*SRC.glob("*.py"), *(ROOT / "scripts").glob("*.py")])
             for top in tree_.body for node in ast.walk(top)
             if _named(node) == "_ONE_PASS" and isinstance(node.ctx, ast.Load)}
    assert reads == {("exactcore", "_rref_prime")}, reads
    env = [f"exactcore.py:{node.lineno}" for node in ast.walk(tree)
           if _named(node) in ("environ", "getenv", "putenv")
           or isinstance(node, (ast.Import, ast.ImportFrom)) and
           "os" in {(getattr(node, "module", None) or "").split(".")[0],
                    *(alias.name.split(".")[0] for alias in node.names)}]
    assert not env, env
