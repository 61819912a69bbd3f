"""Checks on the library source itself."""

import ast
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import spintori
from spintori import matrices, permutations, smith, tori

SOURCE_FILES = sorted(Path(spintori.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # ``python -O`` strips asserts, so a guard written as one is no guard
    assert len(SOURCE_FILES) > 1
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCE_FILES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_work_at_import_time():
    # ``import spintori`` runs every module's top level, and the
    # benchmark's setup_s counts it; so a top-level statement is an
    # import, a def or class, a docstring, an assignment that calls
    # nothing (a lambda's body runs only when called), or the
    # ``__main__`` guard.  __main__.py runs only under ``python -m``
    def calls(node):
        if isinstance(node, ast.Lambda):
            return False
        return isinstance(node, ast.Call) or any(calls(child) for child in ast.iter_child_nodes(node))

    def allowed(node):
        if isinstance(node, (ast.Import, ast.ImportFrom, ast.FunctionDef, ast.ClassDef)):
            return True
        if isinstance(node, ast.Expr):
            return isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            return node.value is not None and not calls(node.value)
        return isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"

    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCE_FILES if path.name != "__main__.py"
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if not allowed(node)
    ]
    assert found == []
    stdlib = set()
    for path in SOURCE_FILES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                stdlib.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                stdlib.add(node.module.partition(".")[0])
    assert stdlib == {
        "__future__", "argparse", "collections", "contextlib", "dataclasses", "itertools",
        "json", "math", "operator", "os", "pathlib", "sys", "typing",
    }


def test_exports_resolve():
    # a name deleted from the library must leave ``__all__`` with it
    assert len(spintori.__all__) == len(set(spintori.__all__))
    missing = [name for name in spintori.__all__ if not hasattr(spintori, name)]
    assert missing == []


def test_every_definition_is_used():
    # a top-level function or class, or a non-dunder method of a
    # top-level class, that no module's code names (the re-exports in
    # ``__init__.py`` and docstrings do not count) and ``__all__`` does
    # not export is dead code
    defined, used = [], set()
    for path in SOURCE_FILES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.name, node.name))
            if isinstance(node, ast.ClassDef):
                defined += [
                    (path.name, f"{node.name}.{item.name}")
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__")
                ]
        if path.name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                used.update(alias.name for alias in node.names)
    used.update(spintori.__all__)
    dead = [
        f"{file}:{name}" for file, name in defined if name.rpartition(".")[2] not in used
    ]
    assert dead == []


def test_no_recursion():
    # a function that calls itself needs one Python frame per level, so
    # a large enough input ends in RecursionError instead of an answer
    found = []
    for path in SOURCE_FILES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.FunctionDef):
                continue
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                f = call.func
                by_name = isinstance(f, ast.Name) and f.id == node.name
                on_self = (
                    isinstance(f, ast.Attribute) and f.attr == node.name
                    and isinstance(f.value, ast.Name) and f.value.id in ("self", "cls")
                )
                if by_name or on_self:
                    found.append(f"{path.name}:{call.lineno}: {node.name}")
    assert found == []


def test_oracle_shares_no_code_with_the_library():
    # the brute-force oracle checks the class enumeration, so it must
    # not read cycle types or conjugate with the library's own code
    oracle = Path(__file__).parent / "oracle_tools.py"
    imported = []
    for node in ast.walk(ast.parse(oracle.read_text(), filename=str(oracle))):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
    assert "functools" in imported
    assert [name for name in imported if name.partition(".")[0] == "spintori"] == []


PERFBENCH = Path(__file__).parent.parent / "perfbench"
BENCHMARK_FILES = sorted(PERFBENCH.glob("*.py"))


def test_benchmark_imports_resolve():
    # the benchmark imports the library by name; a rename or deletion
    # here would break it before any workload runs
    assert "workloads.py" in [path.name for path in BENCHMARK_FILES]
    missing = []
    for path in BENCHMARK_FILES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom) or node.level:
                continue
            if node.module != "spintori" and not (node.module or "").startswith("spintori."):
                continue
            module = importlib.import_module(node.module)
            for alias in node.names:
                if not hasattr(module, alias.name) and not _is_submodule(node.module, alias.name):
                    missing.append(f"{path.name}:{node.lineno}: {node.module}.{alias.name}")
    assert missing == []


def _is_submodule(package: str, name: str) -> bool:
    return importlib.util.find_spec(f"{package}.{name}") is not None


def test_every_export_has_a_user():
    # an export that only its own module and the tests call is a helper
    # that belongs in its caller: each name is named by another library
    # module or imported by the benchmark or a demo.  ``SnfResult`` is
    # the type of ``smith_normal_form``'s result, so it has that user
    home = {name: mod.__name__ for mod in (permutations, matrices, smith, tori) for name in mod.__all__}
    named_in = {}
    for path in SOURCE_FILES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name for alias in node.names]
            else:
                continue
            for name in names:
                named_in.setdefault(name, set()).add(f"spintori.{path.stem}")
    imported = set()
    for path in BENCHMARK_FILES + sorted((PERFBENCH.parent / "demos").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "spintori":
                imported.update(alias.name for alias in node.names)
    unused = [
        name for name in spintori.__all__
        if not named_in.get(name, set()) - {home[name]}
        and name not in imported | {"SnfResult"}
    ]
    assert unused == []


def test_benchmark_makes_the_library_checks():
    # the sweep workload writes the route conditions out again, and the
    # benchmark compares its count with the ``total:`` line of ``spintori
    # verify``; a change to the routes must show here first
    sys.path.insert(0, str(PERFBENCH))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))
    sweep, counts = workloads.Sweep(), workloads.Counts()
    pairs = 0
    for l in range(2, 9):
        for form in (spintori.FORM_PLUS, spintori.FORM_MINUS):
            for cls in spintori.iter_classes(l, form):
                for q in (3, 4):
                    case = workloads.Case(f"{cls.literal()}@{q}", cls, q)
                    _, checks, bad = sweep.check(case, workloads.DIRECT, counts)
                    made = list(spintori.sweep_checks([cls], [q]))
                    assert (checks, bad) == (len(made), []), case.id
                    assert all(c.ok for c in made), case.id
                    pairs += 1
    assert pairs == 884


def test_smith_routes_stay_apart():
    # the Smith form imports nothing from the package, so it shares no
    # code with the closed form (tori, permutations); its two paths share
    # only determinant, a cross-check of the elimination that calls
    # nothing else in smith.py
    path = Path(spintori.__file__).parent / "smith.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported += [f"{'.' * node.level}{node.module or ''}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert "math.gcd" in imported
    from_package = [m for m in imported if m.startswith(".") or m.partition(".")[0] == "spintori"]
    assert from_package == []
    assert "smith.py:invariant_factors" not in library_callers("smith_normal_form")
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert {"determinant", "invariant_factors"} <= set(functions)
    called = {
        call.func.id
        for call in ast.walk(functions["determinant"])
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
    }
    assert "range" in called
    assert called & set(functions) == set()



def library_callers(name):
    """Every "file:function" of the library whose code calls ``name``,
    by plain name or as an attribute; module-level calls count as
    "<module>" and methods as "Class.method"."""
    callers = set()
    for path in SOURCE_FILES:
        stack = [("<module>", ast.parse(path.read_text(), filename=str(path)))]
        while stack:
            scope, node = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
                    stack.append((inner, child))
                else:
                    stack.append((scope, child))
            if isinstance(node, ast.Call):
                f = node.func
                if getattr(f, "id", None) == name or getattr(f, "attr", None) == name:
                    callers.add(f"{path.name}:{scope}")
    return callers


def test_mat_mul_has_one_library_caller():
    # the check matrices are built without a generic product, as the
    # ``matrices.py`` docstring says, so the certificate is the one caller
    assert library_callers("mat_mul") == {"smith.py:SnfResult.verify"}


def test_representative_is_built_in_one_place():
    # one function builds every class representative, and the matrix
    # routes read it
    assert library_callers("representative") == {
        "matrices.py:torus_matrix", "matrices.py:reduced_form_identity",
    }


def test_prime_power_test_lives_in_the_cli():
    # the composite-q note is the one user of the prime-power test, and
    # MAX_CHECK_SIZE prices that test's bases, so the closed-form module
    # keeps none of it
    assert library_callers("is_prime_power") == {"cli.py:_admit_checks"}
    names = ("is_prime_power", "_iroot", "_is_prime", "_MILLER_RABIN_BASES")
    assert [name for name in names if hasattr(tori, name)] == []


def test_clear_below_is_the_one_row_step():
    # every clearing below a pivot in the witness path, in the Hermite
    # form, the pivot loop and the divisibility repair, is one row step
    assert library_callers("_clear_below") == {"smith.py:_hermite", "smith.py:smith_normal_form"}


def test_check_front_end_has_one_rule_per_job():
    # structure --q and verify admit their checks by one rule and write
    # a failed check in one line, each from one function
    for name in ("_admit_checks", "_print_failures"):
        assert library_callers(name) == {"cli.py:_cmd_structure", "cli.py:_cmd_verify"}, name
    path = Path(spintori.__file__).parent / "cli.py"
    stack = [("<module>", ast.parse(path.read_text(), filename=str(path)))]
    fail_literals = []
    while stack:
        scope, node = stack.pop()
        if isinstance(node, ast.FunctionDef):
            scope = node.name
        if isinstance(node, ast.Constant) and "FAIL" in str(node.value):
            fail_literals.append(scope)
        stack += [(scope, child) for child in ast.iter_child_nodes(node)]
    assert fail_literals == ["_print_failures"]


PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"


def test_unregistered_marker_is_refused(tmp_path):
    # a mistyped marker must not pass as a test without its marker;
    # under this pytest it is refused through ``filterwarnings = error``,
    # whatever ``--strict-markers`` in ``addopts`` does
    body = "import pytest\n\n\n@pytest.mark.{}\ndef test_x():\n    pass\n"
    for marker in ("slwo", "slow"):
        (tmp_path / f"test_{marker}.py").write_text(body.format(marker))
    res = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "--rootdir", str(tmp_path), "-m", "slow or not slow", "-rA",
         "--continue-on-collection-errors", "test_slwo.py", "test_slow.py"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert res.returncode != 0
    assert "PASSED test_slow.py::test_x" in res.stdout, res.stdout[-500:]
    assert "ERROR test_slwo.py" in res.stdout
    assert "Unknown pytest.mark.slwo" in res.stdout
    assert "1 passed, 1 error" in res.stdout
