"""Modules use each other only through public names."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def _private_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        package = (node.module or "").split(".")[0]
        if node.level == 0 and package != "costate":
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                yield f"{path.relative_to(REPO)}:{node.lineno} {alias.name}"


def test_no_private_names_imported_across_modules():
    # The demos too: they show the public API, scorer and summary included.
    files = sorted((REPO / "src").rglob("*.py")) + sorted(
        (REPO / "tests").glob("*.py")) + sorted((REPO / "demos").glob("*.py"))
    found = [hit for path in files for hit in _private_imports(path)]
    assert not found, "private names imported: " + ", ".join(found)


# The wordings of hand-written range checks that check_positive replaced,
# and of the CLI's value checks that the config dataclasses replaced.
_RANGE_MESSAGE = re.compile(r"must be >=? 0|non-negative|strictly positive"
                            r"|expected an? (finite )?(number|integer)")


def _range_checks(path):
    # _check_* helpers, math.isfinite (check_finite and check_positive are
    # the finiteness checks of a value), and range messages in string
    # literals other than docstrings, f-string parts included.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, scopes) and node.body
                  and isinstance(node.body[0], ast.Expr)}
    where = path.relative_to(REPO)
    for node in ast.walk(tree):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name.startswith("_check_")):
            yield f"{where}:{node.lineno} defines {node.name}"
        if (isinstance(node, ast.Attribute) and node.attr == "isfinite"
                and isinstance(node.value, ast.Name)
                and node.value.id == "math"):
            yield f"{where}:{node.lineno} uses math.isfinite"
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and id(node) not in docstrings
                and _RANGE_MESSAGE.search(node.value)):
            yield f"{where}:{node.lineno} formats {node.value!r}"


def test_range_checks_go_through_problem_helpers():
    # Real-valued range checks are problem.check_positive or check_finite
    # calls and integer ones problem.check_count calls; no module writes its
    # own, and the CLI checks no value at all.
    files = sorted(path for path in (REPO / "src" / "costate").glob("*.py")
                   if path.name != "problem.py")
    found = [hit for path in files for hit in _range_checks(path)]
    assert not found, "hand-written range checks: " + ", ".join(found)


# check_state's float64 fast path: the dtype object it compares against,
# and the identity test on a dtype.
_FAST_PATH = re.compile(r"np\.dtype\(np\.float64\)|\.dtype\s+is\b")


def test_vectors_are_accepted_through_check_state():
    # problem.check_state is the one rule for a vector input, fast path
    # included (as_stack is its counterpart for stacks): no other module
    # tests for float64 itself, and the rollout's own vectors raise
    # check_state's DimensionMismatchError, not one of their own.
    found = [
        f"{path.relative_to(REPO)}:{lineno} {line.strip()}"
        for path in sorted((REPO / "src" / "costate").glob("*.py"))
        if path.name != "problem.py"
        for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), 1)
        if _FAST_PATH.search(line)]
    tree = ast.parse((REPO / "src" / "costate" / "problem.py").read_text(
        encoding="utf-8"))
    for func in ast.walk(tree):
        if (isinstance(func, ast.FunctionDef)
                and func.name in ("stage_controls", "roll_forward")):
            found += [
                f"problem.py:{node.lineno} {func.name} raises its own "
                f"DimensionMismatchError" for node in ast.walk(func)
                if isinstance(node, ast.Raise) and "DimensionMismatchError"
                in ast.unparse(node.exc)]
    assert not found, "vector checks outside check_state: " + ", ".join(found)


# The functions that view a decision vector as stage rows: the rollout,
# whose Rollout.controls every sweep reads, and the MPC shift of a solution.
_STAGE_CONTROLS_CALLERS = {("problem", "roll_forward"),
                           ("mpc", "_shift_warm_start")}


def test_a_snapshot_is_one_rollout():
    # A rollout carries its controls, so no function takes a rollout and
    # a z that must match it, and no sweep re-derives the stage rows.
    found = []
    for path in sorted((REPO / "src" / "costate").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        funcs = [node for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for func in funcs:
            args = func.args
            names = {a.arg for a in args.posonlyargs + args.args
                     + args.kwonlyargs}
            if {"roll", "z"} <= names:
                found.append(f"{path.name}:{func.lineno} {func.name} takes "
                             "roll and z")
        for call in ast.walk(tree):
            if not (isinstance(call, ast.Call) and ast.unparse(
                    call.func).split(".")[-1] == "stage_controls"):
                continue
            owner = max((f for f in funcs
                         if f.lineno <= call.lineno <= f.end_lineno),
                        key=lambda f: f.lineno, default=None)
            name = owner.name if owner else "<module>"
            if (path.stem, name) not in _STAGE_CONTROLS_CALLERS:
                found.append(f"{path.name}:{call.lineno} {name} calls "
                             "stage_controls")
    assert not found, "snapshot split: " + ", ".join(found)


# A library name as the README spells it: costate.<module>.<name>.
_README_NAME = re.compile(r"\bcostate\.([a-z_]+)\.([A-Za-z_]\w*)")


def test_library_names_in_the_readme_resolve():
    # A constant or function deleted from the library must not live on in
    # the README that documents it.
    import importlib

    names = sorted(set(_README_NAME.findall(
        (REPO / "README.md").read_text(encoding="utf-8"))))
    missing = [f"costate.{module}.{name}" for module, name in names
               if not hasattr(importlib.import_module(f"costate.{module}"),
                              name)]
    assert names and not missing, "README names missing: " + ", ".join(missing)


def _uses(path, name):
    # The lines of path that name name as a word, but not its definition.
    word = re.compile(rf"\b{name}\b")
    definition = re.compile(rf"^\s*(def|class)\s+{name}\b")
    return [line for line in path.read_text(encoding="utf-8").splitlines()
            if word.search(line) and not definition.match(line)]


def test_every_public_name_is_used_outside_the_tests():
    # A public name earns its place by a use that is not a test's: in the
    # library apart from its definition and the package's re-export, in
    # the benchmark, in a demo or in the README.
    import costate

    users = [path for path in sorted((REPO / "src" / "costate").glob("*.py"))
             if path.name != "__init__.py"]
    users += sorted((REPO / "perfbench").rglob("*.py"))
    users += sorted((REPO / "demos").rglob("*.py")) + [REPO / "README.md"]
    unused = [name for name in costate.__all__
              if not any(_uses(path, name) for path in users)]
    assert not unused, "public names used only by tests: " + ", ".join(unused)


def test_traced_entry_points_are_module_attributes():
    # perfbench/tracing.py swaps these attributes for recording wrappers;
    # a refactor that drops one would break the traced benchmark run.
    import costate.mpc
    import costate.solver

    for name in ("forward_adjoint", "hessian_with", "step_direction",
                 "eval_cost"):
        assert callable(getattr(costate.solver, name, None)), name
    assert callable(getattr(costate.mpc, "minimize", None))


def test_problem_fields_are_the_traced_callbacks():
    # perfbench/tracing.py counts the ProblemDef callables by these field
    # names (CALLBACKS), through dataclasses.replace.
    import dataclasses

    from costate import LqrSpec, ProblemDef, build_lqr

    tree = ast.parse((REPO / "perfbench" / "tracing.py").read_text(
        encoding="utf-8"))
    names = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "CALLBACKS"
                         for t in node.targets))
    assert len(names) == 6
    fields = {f.name for f in dataclasses.fields(ProblemDef)}
    assert set(names) <= fields
    prob = build_lqr(LqrSpec())
    assert all(callable(getattr(prob, name)) for name in names)
    assert dataclasses.replace(prob, **{
        name: getattr(prob, name) for name in names}) == prob


# The linear stage recursions that run as one banded triangular solve each:
# (module, class or None, function).
_LOOP_FREE = [("adjoint", None, "adjoint_along"),
              ("solver", "StagewiseFactor", "solve")]


def test_linear_recursions_have_no_python_stage_loop():
    # The costate sweep and the two solve passes are each one dtbsv call;
    # an O(N) Python loop (a comprehension included) must not come back.
    found = []
    for module, owner, name in _LOOP_FREE:
        tree = ast.parse((REPO / "src" / "costate" / f"{module}.py")
                         .read_text(encoding="utf-8"))
        scope = tree if owner is None else next(
            node for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name == owner)
        func = next(node for node in scope.body
                    if isinstance(node, ast.FunctionDef) and node.name == name)
        found += [f"{module}.py:{node.lineno} {name}"
                  for node in ast.walk(func)
                  if isinstance(node, (ast.For, ast.AsyncFor, ast.While,
                                       ast.comprehension))]
    assert not found, "Python loops in a banded recursion: " + ", ".join(found)


# Calls that build constant arrays: the unicycle oracles take them by ks
# from tables that build_unicycle_tracking fills once per problem.
_CONSTANT_BUILDERS = {"np.zeros", "np.where", "np.repeat", "np.eye",
                      "np.diag"}


def test_unicycle_oracles_build_no_constants_per_call():
    tree = ast.parse((REPO / "src" / "costate" / "scenarios.py")
                     .read_text(encoding="utf-8"))
    builder = next(node for node in tree.body
                   if isinstance(node, ast.FunctionDef)
                   and node.name == "build_unicycle_tracking")
    closures = [node for node in builder.body
                if isinstance(node, ast.FunctionDef)]
    assert {"stage_cost", "d_stage_cost", "d_dynamics",
            "dd_dynamics_contracted"} <= {f.name for f in closures}
    found = [f"scenarios.py:{call.lineno} {func.name} calls "
             f"{ast.unparse(call.func)}"
             for func in closures for call in ast.walk(func)
             if isinstance(call, ast.Call)
             and ast.unparse(call.func) in _CONSTANT_BUILDERS]
    assert not found, "constants built per call: " + ", ".join(found)


def _delta_checks(node, scope=()):
    # The enclosing class and function names of each check_positive call
    # whose arguments include the string "delta".
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef)):
            yield from _delta_checks(child, scope + (child.name,))
            continue
        if (isinstance(child, ast.Call)
                and ast.unparse(child.func).endswith("check_positive")
                and any(isinstance(arg, ast.Constant) and arg.value == "delta"
                        for arg in [*child.args,
                                    *(kw.value for kw in child.keywords)])):
            yield ".".join(scope)
        yield from _delta_checks(child, scope)


def test_delta_is_checked_in_one_place():
    # UnicycleSpec states the rule for the Euler step; circle_reference
    # reaches it through reference_at.
    found = [f"{path.name}:{scope}"
             for path in sorted((REPO / "src" / "costate").glob("*.py"))
             for scope in _delta_checks(ast.parse(
                 path.read_text(encoding="utf-8")))]
    assert found == ["scenarios.py:UnicycleSpec.__post_init__"], found


def _callers(tree, name):
    # The top-level function around each call of name, or of a method so
    # named.
    return [func.name for func in tree.body
            if isinstance(func, ast.FunctionDef)
            for call in ast.walk(func)
            if isinstance(call, ast.Call)
            and ast.unparse(call.func).split(".")[-1] == name]


def _int_valued(node):
    # A return value that is an int literal, or a choice between them.
    if isinstance(node, ast.IfExp):
        return _int_valued(node.body) or _int_valued(node.orelse)
    return isinstance(node, ast.Constant) and type(node.value) is int


def test_main_is_the_one_way_out_of_the_cli():
    # Each command returns its report; main creates --out, writes the
    # report file and turns "passed" into the exit code.
    tree = ast.parse((REPO / "src" / "costate" / "cli.py")
                     .read_text(encoding="utf-8"))
    assert _callers(tree, "_write_json") == ["main"]
    assert _callers(tree, "mkdir") == ["main"]
    commands = [func for func in tree.body
                if isinstance(func, ast.FunctionDef)
                and func.name.startswith("cmd_")]
    assert len(commands) == 3
    found = [f"cli.py:{node.lineno} {func.name}" for func in commands
             for node in ast.walk(func)
             if isinstance(node, ast.Return) and _int_valued(node.value)]
    found += [f"{func.name} -> {ast.unparse(func.returns)}"
              for func in commands if ast.unparse(func.returns) != "dict"]
    assert not found, "commands that return an exit code: " + ", ".join(found)


def _run_fresh(code):
    # code's stdout, run in a fresh interpreter that imports from src.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_costate_imports_without_the_scipy_linalg_package():
    # problem.py loads dtbsv's and dposv's extension modules directly; the
    # package's __init__ would add about 0.2 s to every start-up.
    loaded = json.loads(_run_fresh(
        "import json, sys\n"
        "import costate, costate.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m.startswith('scipy.linalg'))))\n"))
    assert "scipy.linalg" not in loaded, loaded
    assert {"scipy.linalg._fblas", "scipy.linalg._flapack"} <= set(loaded)


_SHARED_ROUTINES = """
import numpy as np
{imports}
assert costate.problem.dtbsv is scipy.linalg.blas.dtbsv
assert costate.problem.dposv is scipy.linalg.lapack.dposv
a = np.array([[4.0, 2.0, 0.0], [2.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
b = np.array([1.0, -2.0, 0.5])
x = scipy.linalg.cho_solve(scipy.linalg.cho_factor(a), b)
assert np.allclose(a @ x, b)
band = np.array([[0.0, 2.0, 1.0], [4.0, 3.0, 2.0], [2.0, 1.0, 0.0]])
x = scipy.linalg.solve_banded((1, 1), band, b)
assert np.allclose(a @ x, b)
"""


@pytest.mark.parametrize("imports", [
    "import costate.problem\nimport scipy.linalg",
    "import scipy.linalg\nimport costate.problem"],
    ids=["costate_first", "scipy_linalg_first"])
def test_one_copy_of_each_compiled_routine_in_either_import_order(imports):
    # costate's routines are scipy.linalg's own objects, whichever package
    # was imported first, and scipy.linalg still works after costate.
    _run_fresh(_SHARED_ROUTINES.format(imports=imports))


# The modules built on the compiled routines and what they take from
# .problem: (module, names).  dtbsv is named only in problem.py, whose
# BlockBidiagonal owns the band storage that it reads.
_ROUTINE_USERS = [("adjoint", {"BlockBidiagonal"}),
                  ("solver", {"BlockBidiagonal", "dposv"})]
_PROBLEM_ONLY = {"dtbsv"}


def _compiled_references(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
            if node.level == 0:
                names.append(node.module)
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [node.value]
        else:
            continue
        yield from (f"{path.name}:{node.lineno} {name}" for name in names
                    if name.split(".")[0] == "scipy" or name in _PROBLEM_ONLY)


def test_problem_is_the_one_site_that_loads_compiled_routines():
    # Only problem.py names scipy or dtbsv; adjoint and solver take
    # what they use from it, so where the routines come from, and the band
    # storage that the banded solves read, are decided in one place.
    src = REPO / "src" / "costate"
    found = [hit for path in sorted(src.glob("*.py"))
             if path.name != "problem.py" for hit in _compiled_references(path)]
    for module, names in _ROUTINE_USERS:
        tree = ast.parse((src / f"{module}.py").read_text(encoding="utf-8"))
        taken = {alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level == 1
                 and node.module == "problem" for alias in node.names}
        found += [f"{module}.py does not take {name} from .problem"
                  for name in sorted(names - taken)]
    assert not found, "compiled routines outside problem.py: " + ", ".join(
        found)
