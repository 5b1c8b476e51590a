"""Golden HKT reports and the package's exported names.

The four reports in tests/data/ were written by `hkt_report`
for fixed-seed sources, so any change to a verdict, a residual summary
(term counts and coefficient heights of the twistor residuals included),
the torsion form or the signature samples shows up as a diff.  Regenerate
them only when such a change is intended:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import random
from pathlib import Path

import pytest

import hktcalc
from hktcalc import HypercomplexModel, ProjectorTable
from hktcalc.batteries import positive_conformal_factor, random_a11_form
from hktcalc.geometry import conformal_metric, hkt_report, kahler_form, potential_to_forms
from hktcalc.salamon import salamon_D
from hktcalc.scalars import random_polynomial

DATA = Path(__file__).parent / "data"

CASES = ("n1-potential-form", "n1-conformal-metric", "n2-potential-form", "n2-negative-form")


def _source(name: str, table: ProjectorTable):
    """The F_I of a golden case; the conformal case's is its metric's."""
    model = table.model
    if name == "n1-potential-form":
        return potential_to_forms(model, random_polynomial(4, 3, 3, seed=501)).f_i
    if name == "n1-conformal-metric":
        return kahler_form(model, conformal_metric(model, positive_conformal_factor(random.Random(502))))
    if name == "n2-potential-form":
        return potential_to_forms(model, random_polynomial(8, 3, 3, seed=503)).f_i
    form = random_a11_form(model, random.Random(504))
    assert not salamon_D(table, form).is_zero(), "the negative must be certified generic"
    return form


def _report(name: str, tables: dict) -> dict:
    table = tables[1] if name.startswith("n1") else tables[2]
    # A JSON round trip turns tuples into lists, as in the stored file.
    return json.loads(json.dumps(hkt_report(table, _source(name, table))))


@pytest.mark.parametrize("name", CASES)
def test_report_checks_the_definition_once(name, table1, table2, monkeypatch):
    # The torsion of an HKT report comes from the definition check's own
    # candidate, not from a second `is_hkt_definition`.
    from hktcalc import geometry

    calls = []
    original = geometry.is_hkt_definition

    def spy(model, f_i):
        calls.append(f_i)
        return original(model, f_i)

    monkeypatch.setattr(geometry, "is_hkt_definition", spy)
    _report(name, {1: table1, 2: table2})
    assert len(calls) == 1


@pytest.mark.parametrize("name", CASES)
def test_report_matches_golden(name, table1, table2):
    expected = json.loads((DATA / f"hkt_report_{name}.json").read_text())
    assert _report(name, {1: table1, 2: table2}) == expected


def test_golden_verdicts():
    verdicts = {name: json.loads((DATA / f"hkt_report_{name}.json").read_text())["is_hkt"]
                for name in CASES}
    assert verdicts == {"n1-potential-form": True, "n1-conformal-metric": True,
                        "n2-potential-form": True, "n2-negative-form": False}


def test_all_exports_resolve():
    for name in hktcalc.__all__:
        assert getattr(hktcalc, name) is not None, name


def test_convention_error_is_defined_once():
    # Every module raises the one class in `conventions`, so the CLI's one
    # except clause per subcommand catches each internal invariant.
    from hktcalc import cli, conventions, geometry, structures

    for module in (cli, geometry, structures):
        assert module.ConventionError is conventions.ConventionError, module.__name__


if __name__ == "__main__":
    tables = {n: ProjectorTable(HypercomplexModel(n)) for n in (1, 2)}
    DATA.mkdir(exist_ok=True)
    for case in CASES:
        text = json.dumps(_report(case, tables), sort_keys=True, indent=1)
        (DATA / f"hkt_report_{case}.json").write_text(text + "\n")
