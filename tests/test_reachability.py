"""Every function in `src/hktcalc` is entered by a command, or listed here.

The probe runs `cli.main` in process under `sys.setprofile` on a fixed
deck: the default `hkt identities`, `hkt check` on the five documents of
the benchmark's check-docs workload at seed 401 (`bench/gen.py`), and
`hkt solve --grid 9 --grid 13 --out REPORT` on its conformal4d document,
so that the grid slice is written too.  Every `def` of the package, read
with `ast`, that no command enters must be listed in UNREACHED with its
reason, and a listed function that a command does enter fails the test
too, so the list cannot go stale.  Code that only the tests call belongs
in the tests (`tests/conftest.py`).  The caches start cold, and the
`exact_linalg` eliminations are listed, so no command runs one, even while
it builds its fiber operators.
"""

import ast
import importlib
import json
import sys
from pathlib import Path

import hktcalc
import hktcalc.elliptic  # noqa: F401  (imported before the probe, as the other modules are)
from hktcalc import cli, forms, structures

from conftest import bench_check_cases

PUBLIC = "public API of a name in hktcalc.__all__, exercised by the tests"
ORACLE = "test oracle with no command caller, as its docstring says"
ERROR = "error path"
LONG_INT = "input path of an integer literal of more than MAX_JSON_DIGITS digits"
REPR = "__repr__"
ENTRY = "console-script entry point"

UNREACHED = {
    "cli._input_error": ERROR,
    "cli._internal_error": ERROR,
    "cli.entry": ENTRY,
    "documents.Report.first_failure": ERROR,
    "documents._long_int_text": LONG_INT,
    "exact_linalg._reduce": ORACLE,
    "exact_linalg._sparse_rows": ORACLE,
    "exact_linalg.null_space": ORACLE,
    "exact_linalg.rank": ORACLE,
    "exact_linalg.rref": ORACLE,
    "exact_linalg.solve": ORACLE,
    "forms.FiberOperator.__ne__": "the != of __eq__: dict's own would compare the columns and ignore den",
    "forms.KForm.__repr__": REPR,
    "scalars.LongJsonInt.__init__": LONG_INT,
    "scalars.LongJsonInt.__repr__": REPR,
    "scalars.Polynomial.__bool__": PUBLIC,
    "scalars.Polynomial.__hash__": PUBLIC,
    "scalars.Polynomial.__pow__": PUBLIC,
    "scalars.Polynomial.__repr__": REPR,
    "scalars.Polynomial.constant_term": PUBLIC,
    "scalars.Polynomial.variable": PUBLIC,
    "structures.HypercomplexModel.__repr__": REPR,
    "structures.StructureOperator.__repr__": REPR,
}

PACKAGE = Path(hktcalc.__file__).parent


def package_functions() -> dict:
    """{(file name, first line, function name): "module.qualified.name"} for
    every `def` of the package.  The first line is that of the code object,
    the first decorator's for a decorated function."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[path.name, first, child.name] = f"{path.stem}.{prefix}{child.name}"
                    walk(child, f"{prefix}{child.name}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}{child.name}.")
                else:
                    walk(child, prefix)

        walk(ast.parse(path.read_text()), "")
    return out


def entered_by_commands(tmp_path) -> set:
    """The keys of `package_functions` that the deck enters.  Lambdas and
    comprehensions have code objects of their own and match no key."""
    paths = []
    for case in bench_check_cases(401):
        path = tmp_path / f"{case['name']}.json"
        path.write_text(json.dumps(case["doc"]))
        paths.append((str(path), case["expect"]["exit"], case["doc"]["kind"]))
    conformal = next(path for path, _, kind in paths if kind == "conformal4d")
    deck = [([], 0), *((["check", path], code) for path, code, _ in paths),
            (["solve", conformal, "--grid", "9", "--grid", "13", "--out", str(tmp_path / "r.json")], 0)]
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((Path(code.co_filename).name, code.co_firstlineno, code.co_name))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [(argv, cli.main(argv), code) for argv, code in deck]
    finally:
        sys.setprofile(previous)
    assert all(got == code for _, got, code in codes), codes
    assert (tmp_path / "r.csv").exists()
    return entered


def test_every_function_is_reached_or_listed(tmp_path, capsys, monkeypatch):
    # Cold caches, so the commands build every table they read, whatever
    # the tests before this one filled.
    monkeypatch.setattr(structures, "_FIBER_CACHE", {})
    monkeypatch.setattr(forms, "_INSERTIONS", {})
    functions = package_functions()
    entered = entered_by_commands(tmp_path)
    capsys.readouterr()
    unreached = {name for key, name in functions.items() if key not in entered}
    assert sorted(unreached - UNREACHED.keys()) == [], "unlisted functions that no command enters"
    assert sorted(UNREACHED.keys() - unreached) == [], "listed functions that a command enters, or that are gone"


def test_listed_reasons_hold():
    # A public entry belongs to an exported name; a public oracle says in
    # its docstring that it is one (its private helpers are listed with it).
    for name, reason in UNREACHED.items():
        module, *path = name.split(".")
        if reason == PUBLIC:
            assert path[0] in hktcalc.__all__, name
        if reason == ORACLE and not path[-1].startswith("_"):
            obj = importlib.import_module(f"hktcalc.{module}")
            for part in path:
                obj = getattr(obj, part)
            assert "test oracle" in " ".join(obj.__doc__.lower().split()), name
