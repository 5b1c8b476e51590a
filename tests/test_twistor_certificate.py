"""The twistor verdict at the three axes, certified by first-jet ranks.

On a Salamon (1,1)-form F = sum_v p_v v (v runs over the `a11_subspace`
basis) each HKT criterion is first order with constant coefficients, so
its residual is a constant matrix applied to the first jet (d_c p_v).  The
jet column of (coordinate c, basis vector v) is the residual of
F = x_c v.  Two matrices with equal row spaces have equal kernels, so they
give the same verdict on every polynomial (1,1)-form; the row spaces are
equal when both matrices and their stack have the same rank.

`is_hkt_twistor` decides at the axes I, J, K (`geometry.TWISTOR_AXES`).
For n = 1, 2, 3 this module proves that the axes' stacked matrix has the
row space of the ten witnesses the check used before (`conftest.
default_sphere_witnesses`, the oracle), of the Salamon residual eta_3(dF)
and of the definition residuals.  It also runs the old ten-point check
next to the new one on the golden sources, on equivalence-battery cases
and on the benchmark's `hkt check` documents.

The columns are built from constant forms.  For a constant form w,
d(x_c w) = e_c ^ w, and the type projectors and eta are constant, so for
F = x_c v the twistor residual at P is pi03_P(e_c ^ pi02_P(v)) and the
Salamon residual is eta_3(e_c ^ v).  The Kahler forms of the metric of
F = x_c v are x_c F_A(v), with F_A(v) those of the metric of v, so its
definition residuals are A(e_c ^ F_A(v)) - B(e_c ^ F_B(v)) for AB = IJ,
JK.  A test checks these columns against the residuals the polynomial
pipeline computes for F = x_c v, for n = 1, 2.
"""

import functools
import sys
from pathlib import Path

import pytest

from hktcalc import HypercomplexModel, ProjectorTable
from hktcalc import batteries
from hktcalc import exact_linalg as ela
from hktcalc.documents import MAX_N, InputDocument
from hktcalc.forms import KForm, multi_indices, vector_to_form
from hktcalc.geometry import (
    TWISTOR_AXES,
    HyperhermitianMetric,
    is_hkt_definition,
    is_hkt_salamon,
    is_hkt_twistor,
    kahler_form,
    metric_from_form,
    potential_to_forms,
)
from hktcalc.salamon import a11_subspace
from hktcalc.scalars import Polynomial
from hktcalc.structures import ComplexForm, complex_type_part

from conftest import default_sphere_witnesses
from test_golden import CASES as GOLDEN_CASES
from test_golden import _source as golden_source

CERTIFIED_N = (1, 2, 3)
# dim a11 * 4n jet columns, and the rank of the Salamon residual.
JETS = {1: 4, 2: 48, 3: 180}
FULL_RANK = {1: 0, 2: 8, 3: 40}

WITNESSES = default_sphere_witnesses()
AXES = [WITNESSES.index(point) for point in TWISTOR_AXES]


def _basis_forms(model):
    basis2 = multi_indices(model.dim, 2)
    return [vector_to_form(v, basis2, 2, model.dim) for v in a11_subspace(model).basis]


def _residuals(model, table, form) -> dict:
    """Every criterion's residual of `form`, as rational forms by key."""
    out = {}
    for i, point in enumerate(WITNESSES):
        residual = is_hkt_twistor(model, form, [point]).point_residuals[0][1]
        out[("twistor", i, "re")] = residual.re
        out[("twistor", i, "im")] = residual.im
    out[("salamon",)] = is_hkt_salamon(table, form).residual
    definition = is_hkt_definition(metric_from_form(model, form))
    out[("definition", "IJ")] = definition.residual_ij
    out[("definition", "JK")] = definition.residual_jk
    return out


def _column(residuals: dict) -> dict:
    """{(criterion key..., multi-index): coefficient} of constant residuals."""
    column = {}
    for key, form in residuals.items():
        for idx, poly in form.terms.items():
            assert poly.degree() == 0, "a jet column residual is not constant"
            column[key + (idx,)] = poly.constant_term()
    return column


@functools.lru_cache(maxsize=None)
def jet_columns(n: int) -> dict:
    """{(c, v): {(criterion key..., multi-index): coefficient}} over all jets."""
    model = HypercomplexModel(n)
    table = ProjectorTable(model)
    columns = {}
    ops = [model.operator(name) for name in "IJK"]
    for v, basis_form in enumerate(_basis_forms(model)):
        parts = [complex_type_part(model, point, basis_form, "02") for point in WITNESSES]
        metric = metric_from_form(model, basis_form)
        kahler = [kahler_form(metric, name) for name in "IJK"]
        for c in range(model.dim):
            e_c = KForm.dx(model.dim, c)
            residuals = {}
            for i, (point, part) in enumerate(zip(WITNESSES, parts)):
                d_part = ComplexForm(e_c.wedge(part.re), e_c.wedge(part.im))
                residual = complex_type_part(model, point, d_part, "03")
                residuals[("twistor", i, "re")] = residual.re
                residuals[("twistor", i, "im")] = residual.im
            residuals[("salamon",)] = table.eta(e_c.wedge(basis_form))
            i_part, j_part, k_part = (op.act(e_c.wedge(f)) for op, f in zip(ops, kahler))
            residuals[("definition", "IJ")] = i_part - j_part
            residuals[("definition", "JK")] = j_part - k_part
            columns[(c, v)] = _column(residuals)
    return columns


def jet_rank(columns: dict, *criteria) -> int:
    """Rank of the stacked matrices of `criteria` (each a key prefix).

    Rows of the transposed matrix are the jets, so stacking criteria joins
    their coordinates; the rank is the same."""
    keys = sorted({key for col in columns.values() for key in col
                   if any(key[:len(c)] == c for c in criteria)}, key=repr)
    if not keys:
        return 0
    return ela.rank([[col.get(key, 0) for key in keys] for col in columns.values()])


def twistor(*indices):
    return [("twistor", i) for i in indices]


SALAMON = [("salamon",)]
DEFINITION = [("definition",)]


@pytest.fixture(scope="module", params=CERTIFIED_N)
def certificate(request):
    n = request.param
    columns = jet_columns(n)
    axes, ten = twistor(*AXES), twistor(*range(len(WITNESSES)))
    ranks = {
        "salamon": jet_rank(columns, *SALAMON),
        "I": jet_rank(columns, *twistor(AXES[0])),
        "J": jet_rank(columns, *twistor(AXES[1])),
        "axes": jet_rank(columns, *axes),
        "ten": jet_rank(columns, *ten),
        "axes+salamon": jet_rank(columns, *axes, *SALAMON),
        "ten+salamon": jet_rank(columns, *ten, *SALAMON),
        "definition": jet_rank(columns, *DEFINITION),
        "definition+salamon": jet_rank(columns, *DEFINITION, *SALAMON),
    }
    return n, len(columns), ranks


def test_jet_count_and_rank_formula(certificate):
    n, jets, ranks = certificate
    assert jets == JETS[n]
    assert ranks["salamon"] == FULL_RANK[n]
    assert ranks["I"] == 0
    assert ranks["J"] == FULL_RANK[n]


def test_axes_decide_like_the_ten_witnesses_and_the_salamon_residual(certificate):
    # Equal ranks of A, B and [A; B] give equal row spaces, hence equal
    # kernels: the axes, the ten witnesses and eta_3(dF) vanish on exactly
    # the same jets.
    n, _, ranks = certificate
    same = ("salamon", "axes", "ten", "axes+salamon", "ten+salamon")
    assert {name: ranks[name] for name in same} == dict.fromkeys(same, FULL_RANK[n])


def test_definition_residuals_have_the_salamon_kernel(certificate):
    n, _, ranks = certificate
    assert ranks["definition"] == ranks["definition+salamon"] == FULL_RANK[n]


def test_certificate_covers_every_accepted_n():
    # Opening a larger n needs the certificate extended to it first.
    assert MAX_N <= max(CERTIFIED_N)


@pytest.mark.parametrize("n", [1, 2])
def test_columns_equal_the_residuals_of_x_c_v(n):
    model = HypercomplexModel(n)
    table = ProjectorTable(model)
    columns = jet_columns(n)
    for v, basis_form in enumerate(_basis_forms(model)):
        for c in range(model.dim):
            direct = _residuals(model, table, basis_form * Polynomial.variable(model.dim, c))
            assert _column(direct) == columns[(c, v)]


# The old path as an oracle: ten witnesses against the axes on real inputs.

def _assert_axes_agree_with_ten_witnesses(model, form):
    default = is_hkt_twistor(model, form)
    oracle = is_hkt_twistor(model, form, WITNESSES)
    assert [p for p, _ in default.point_residuals] == list(TWISTOR_AXES)
    assert default.ok == oracle.ok
    assert default.point_residuals == [oracle.point_residuals[i] for i in AXES]


def _form_of(source):
    return kahler_form(source, "I") if isinstance(source, HyperhermitianMetric) else source


@pytest.mark.parametrize("name", GOLDEN_CASES)
def test_old_path_on_golden_sources(name, table1, table2):
    table = table1 if name.startswith("n1") else table2
    _assert_axes_agree_with_ten_witnesses(table.model, _form_of(golden_source(name, table)))


@pytest.mark.parametrize("seed", [0, 1])
def test_old_path_on_equivalence_battery_cases(seed, table1, table2, monkeypatch):
    sources = []
    report = batteries.hkt_report

    def recording_report(table, source, *args, **kwargs):
        sources.append((table.model, source))
        return report(table, source, *args, **kwargs)

    monkeypatch.setattr(batteries, "hkt_report", recording_report)
    outcome = batteries.equivalence_battery({1: table1, 2: table2}, seed, 8)
    assert outcome.ok and len(sources) == 8
    kinds = {(model.n, isinstance(source, HyperhermitianMetric)) for model, source in sources}
    assert kinds == {(1, False), (1, True), (2, False)}
    for model, source in sources:
        _assert_axes_agree_with_ten_witnesses(model, _form_of(source))


def test_old_path_on_check_documents():
    sys.path.insert(0, str(Path(__file__).parents[1] / "bench"))
    try:
        from gen import check_cases
    finally:
        sys.path.pop(0)
    cases = check_cases(401)
    assert len(cases) == 5
    for case in cases:
        doc = InputDocument.from_json(case["doc"])
        if doc.kind == "potential":
            form = potential_to_forms(doc.model, doc.payload).f_i
        elif doc.kind == "conformal4d":
            form = _form_of(HyperhermitianMetric.conformal(doc.model, doc.payload[0]))
        elif doc.kind == "metric":
            form = _form_of(HyperhermitianMetric(doc.model, doc.payload))
        else:
            form = doc.payload
        assert not form.is_zero(), case["name"]
        _assert_axes_agree_with_ten_witnesses(doc.model, form)
