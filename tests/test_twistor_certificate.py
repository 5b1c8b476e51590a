"""The twistor verdict at the three axes, certified by first-jet ranks.

On a Salamon (1,1)-form F = sum_v p_v v (v runs over the `a11_subspace`
basis) each HKT criterion is first order with constant coefficients, so
its residual is a constant matrix applied to the first jet (d_c p_v).  The
jet column of (coordinate c, basis vector v) is the residual of
F = x_c v.  Two matrices with equal row spaces have equal kernels, so they
give the same verdict on every polynomial (1,1)-form; the row spaces are
equal when both matrices and their stack have the same rank.

`is_hkt_twistor` decides at the axes I, J, K (`geometry.TWISTOR_AXES`),
each by the real residual E_3 d E_2 F, twice the real part of the complex
residual pi03_A(d pi02_A(F)) (`conftest.oracle_twistor_residual`).  Both
are stacked, and equal ranks show that they vanish on the same jets, so
what is proved below of the complex axis residuals holds for the verdict.
The twistor criterion asks for every structure P = aI + bJ + cK of S^2.
At P the residual of the jet (c, v) is pi03_P(e_c ^ pi02_P(v)), and
rho_P = a rho_I + b rho_J + c rho_K makes it a polynomial in (a, b, c);
homogenized with |P|^2 = 1 its real part has degree 4 and its imaginary
part degree 5 (`conftest.jet_residual`).  A homogeneous polynomial
vanishes on S^2 only if it vanishes identically, so the stack of its
coefficient matrices, the sphere stack, has the row space of all sphere
points together.  For n = 1, 2, 3 this module proves that the axes'
stacked matrix has the row space of the sphere stack, of the Salamon
residual eta_3(dF) and of the definition residuals.  It also compares the
axes' verdict with the whole-sphere oracle (`conftest.
sphere_twistor_residual`) on the golden sources, on equivalence-battery
cases and on the benchmark's `hkt check` documents.

The columns are built from constant forms.  For a constant form w,
d(x_c w) = e_c ^ w, and the type projectors and eta are constant, so for
F = x_c v the twistor residual at an axis A is pi03_A(e_c ^ pi02_A(v)), the
package's is E_3(e_c ^ E_2 v), and the Salamon residual is eta_3(e_c ^ v).
The Kahler forms of F = x_c v (`kahler_forms`) are x_c F_A(v), with F_A(v)
those of v, so its definition residuals are A(e_c ^ F_A(v)) -
B(e_c ^ F_B(v)) for AB = IJ, JK.  A test checks these columns against the
residuals the polynomial pipeline computes for F = x_c v, for n = 1, 2;
tests/test_fiber_kernel.py checks the sphere stack against the dense
oracle at sphere points.
"""

import functools

import pytest

from hktcalc import HypercomplexModel, ProjectorTable
from hktcalc import batteries
from hktcalc import exact_linalg as ela
from hktcalc.documents import MAX_N, InputDocument
from hktcalc.forms import KForm
from hktcalc.geometry import (
    TWISTOR_AXES,
    conformal_metric,
    is_hkt_definition,
    is_hkt_salamon,
    is_hkt_twistor,
    kahler_form,
    kahler_forms,
    potential_to_forms,
)
from hktcalc.salamon import a11_subspace
from hktcalc.scalars import Polynomial
from hktcalc.structures import complex_type_part

from conftest import (
    SpherePoint,
    bench_check_cases,
    evaluate_residual,
    homogeneous_type_projector,
    jet_residual,
    oracle_twistor_residual,
    sphere_twistor_residual,
)
from test_golden import CASES as GOLDEN_CASES
from test_golden import _source as golden_source

CERTIFIED_N = (1, 2, 3)
# dim a11 * 4n jet columns, and the rank of the Salamon residual.
JETS = {1: 4, 2: 48, 3: 180}
FULL_RANK = {1: 0, 2: 8, 3: 40}



def _basis_forms(model):
    return list(a11_subspace(model))


def _residuals(model, table, form) -> dict:
    """Every criterion's residual of `form`, as rational forms by key."""
    out = {}
    for name, residual in is_hkt_twistor(model, form).point_residuals:
        out[("real", name)] = residual
        oracle = oracle_twistor_residual(model, SpherePoint.axis(name), form)
        out[("twistor", name, "re")] = oracle.re
        out[("twistor", name, "im")] = oracle.im
    for key, residual in sphere_twistor_residual(model, form).items():
        out[("sphere",) + key] = residual
    out[("salamon",)] = is_hkt_salamon(table, form).residual
    definition = is_hkt_definition(model, form)
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
        parts = [complex_type_part(model, name, basis_form) for name in TWISTOR_AXES]
        kahler = kahler_forms(model, basis_form)
        # pi02_P(v), from rho_P v and rho_P^2 v, once per v.
        v_parts = homogeneous_type_projector(model, 2, {(0, 0, 0): {idx: p.constant_term()
                                                                   for idx, p in basis_form.terms.items()}})
        for c in range(model.dim):
            e_c = KForm.basis(model.dim, (c,))
            jet = basis_form * Polynomial.variable(model.dim, c)
            residuals = {}
            for name, part in zip(TWISTOR_AXES, parts):
                residuals[("real", name)] = complex_type_part(model, name, e_c.wedge(part))
                oracle = oracle_twistor_residual(model, SpherePoint.axis(name), jet)
                residuals[("twistor", name, "re")] = oracle.re
                residuals[("twistor", name, "im")] = oracle.im
            residuals[("salamon",)] = table.eta(e_c.wedge(basis_form))
            i_part, j_part, k_part = (op.act(e_c.wedge(f)) for op, f in zip(ops, kahler))
            residuals[("definition", "IJ")] = i_part - j_part
            residuals[("definition", "JK")] = j_part - k_part
            column = _column(residuals)
            for key, form in jet_residual(model, c, v_parts).items():
                column.update({("sphere",) + key + (idx,): x for idx, x in form.items()})
            columns[(c, v)] = column
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


def twistor(*names):
    return [("twistor", name) for name in names]


REAL = [("real",)]
SPHERE = [("sphere",)]
SALAMON = [("salamon",)]
DEFINITION = [("definition",)]


@pytest.fixture(scope="module", params=CERTIFIED_N)
def certificate(request):
    n = request.param
    columns = jet_columns(n)
    axes = twistor(*TWISTOR_AXES)
    ranks = {
        "salamon": jet_rank(columns, *SALAMON),
        "I": jet_rank(columns, *twistor("I")),
        "J": jet_rank(columns, *twistor("J")),
        "sphere": jet_rank(columns, *SPHERE),
        "sphere+salamon": jet_rank(columns, *SPHERE, *SALAMON),
        "axes": jet_rank(columns, *axes),
        "axes+salamon": jet_rank(columns, *axes, *SALAMON),
        "real": jet_rank(columns, *REAL),
        "real+axes": jet_rank(columns, *REAL, *axes),
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


def test_axes_decide_like_the_whole_sphere_and_the_salamon_residual(certificate):
    # Equal ranks of A, B and [A; B] give equal row spaces, hence equal
    # kernels: the axes, every point of S^2 and eta_3(dF) vanish on
    # exactly the same jets.
    n, _, ranks = certificate
    same = ("sphere", "salamon", "sphere+salamon", "axes", "axes+salamon")
    assert {name: ranks[name] for name in same} == dict.fromkeys(same, FULL_RANK[n])


def test_real_axis_residuals_have_the_kernel_of_the_complex_ones(certificate):
    # The package reads E_3 d E_2 F = 2 Re X at each axis, X the complex
    # (0,3)-part; equal ranks make the real and the complex axis residuals
    # vanish on the same jets, so the certificate above covers the verdict.
    n, _, ranks = certificate
    assert ranks["real"] == ranks["axes"] == ranks["real+axes"] == FULL_RANK[n]


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


# The whole sphere as the oracle of the axes on real inputs.

def _assert_axes_agree_with_the_whole_sphere(model, form):
    default = is_hkt_twistor(model, form)
    oracle = sphere_twistor_residual(model, form)
    assert [name for name, _ in default.point_residuals] == list(TWISTOR_AXES)
    assert default.ok == (not oracle)
    for name, residual in default.point_residuals:
        assert residual == evaluate_residual(model, oracle, SpherePoint.axis(name)).re * 2


@pytest.mark.parametrize("name", GOLDEN_CASES)
def test_old_path_on_golden_sources(name, table1, table2):
    table = table1 if name.startswith("n1") else table2
    _assert_axes_agree_with_the_whole_sphere(table.model, golden_source(name, table))


@pytest.mark.parametrize("seed", [0, 1])
def test_old_path_on_equivalence_battery_cases(seed, table1, table2, monkeypatch):
    forms = []
    report = batteries.hkt_report

    def recording_report(table, f_i):
        forms.append((table.model, f_i))
        return report(table, f_i)

    monkeypatch.setattr(batteries, "hkt_report", recording_report)
    outcome = batteries.equivalence_battery({1: table1, 2: table2}, seed, 8)
    # Case i is EQUIVALENCE_CYCLE[i % 4]: potential, conformal, potential, negative.
    assert outcome.ok and [model.n for model, _ in forms] == [1, 1, 2, 2] * 2
    for model, f_i in forms:
        _assert_axes_agree_with_the_whole_sphere(model, f_i)


def test_old_path_on_check_documents():
    cases = bench_check_cases(401)
    assert len(cases) == 5
    for case in cases:
        doc = InputDocument.from_json(case["doc"])
        if doc.kind == "potential":
            form = potential_to_forms(doc.model, doc.payload).f_i
        elif doc.kind == "conformal4d":
            form = kahler_form(doc.model, conformal_metric(doc.model, doc.payload[0]))
        else:
            form = doc.payload
        assert not form.is_zero(), case["name"]
        _assert_axes_agree_with_the_whole_sphere(doc.model, form)
