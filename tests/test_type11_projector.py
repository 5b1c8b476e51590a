"""The Salamon (1,1) projector P = (1 + I* - J* - K*)/4 against the routes
it replaced.

`structures.type11_projector` decides the type for `is_salamon_11`, builds
`hessian_kahler_form` and `proj_formula_D`, and its columns are the
`a11_subspace` basis.  The oracles are the former routes: two pullback
comparisons (`conftest.three_pullback_is_11`), the sum of three pullbacks
(`conftest.pullback_hessian_kahler_form`) and the null space of the
stacked dense matrix [I* - Id; J* + Id].  All arithmetic is exact, so the
two sides must be equal, not close.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hktcalc import exact_linalg as ela
from hktcalc import structures
from hktcalc.batteries import random_a11_form, random_kform, remark_battery
from hktcalc.forms import KForm, combine_operators, compose_operators, multi_indices
from hktcalc.geometry import hessian_kahler_form, is_hkt_potential
from hktcalc.salamon import ProjectorTable, a11_subspace, is_salamon_11
from hktcalc.scalars import random_polynomial
from hktcalc.structures import HypercomplexModel, _axis_operators, type11_projector

from conftest import operator_matrix, pullback_hessian_kahler_form, three_pullback_is_11

MODELS = {n: HypercomplexModel(n) for n in (1, 2, 3)}


def axis_pullbacks(model):
    return [_axis_operators(model, name, 2)[1] for name in "IJK"]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_klein_law_and_idempotence(n):
    model = MODELS[n]
    p_i, p_j, p_k = axis_pullbacks(model)
    identity = combine_operators([(0, p_i)], 1)
    for a, b, c in ((p_i, p_j, p_k), (p_j, p_k, p_i), (p_k, p_i, p_j)):
        assert compose_operators(a, a) == identity
        assert compose_operators(a, b) == compose_operators(b, a) == c
    p = type11_projector(model)
    assert p == combine_operators([(1, p_i), (-1, p_j), (-1, p_k)], 1, 4)
    assert compose_operators(p, p) == p
    assert p != identity and any(p.values())
    assert type11_projector(model) is p


@given(st.sampled_from([1, 2, 3]), st.sampled_from(["11", "perturbed", "random"]), st.integers(0, 2**31))
@settings(max_examples=60, deadline=None)
def test_is_salamon_11_matches_three_pullbacks(n, kind, seed):
    model = MODELS[n]
    rng = random.Random(seed)
    form = random_kform(model.dim, 2, rng) if kind == "random" else random_a11_form(model, rng)
    if kind == "perturbed":
        form = form + random_kform(model.dim, 2, rng, n_components=1)
    expected = three_pullback_is_11(model, form)
    assert is_salamon_11(model, form) == expected
    assert expected or kind != "11"


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hessian_kahler_form_matches_pullback_sum(n):
    model = MODELS[n]
    rng = random.Random(3300 + n)
    nonzero = 0
    for _ in range(6 if n < 3 else 3):
        mu = random_polynomial(model.dim, 3, 4, seed=rng.randrange(2**31))
        form = hessian_kahler_form(model, mu)
        assert form == pullback_hessian_kahler_form(model, mu)
        nonzero += not form.is_zero()
    assert nonzero


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a11_basis_is_the_null_space(n, monkeypatch):
    model = MODELS[n]
    monkeypatch.setattr(structures, "_FIBER_CACHE", {})
    p_i, p_j, _ = axis_pullbacks(model)
    stacked = [row for op in (combine_operators([(1, p_i)], -1), combine_operators([(1, p_j)], 1))
               for row in operator_matrix(op, 2, model.dim)]
    indices = multi_indices(model.dim, 2)
    basis = a11_subspace(model)
    assert basis == tuple(KForm(2, model.dim, dict(zip(indices, v))) for v in ela.null_space(stacked))
    assert len(basis) == {1: 1, 2: 6, 3: 15}[n]


def test_remark_battery_fails_when_the_identities_accept_a_shifted_form(monkeypatch):
    import hktcalc.batteries as batteries

    model = MODELS[1]
    table = ProjectorTable(model)
    assert remark_battery(model, table, 5, 3).to_json() == {
        "name": "potential-remark", "ok": True, "cases": 3, "detail": ""}

    def accepting(model, mu, f_i):
        check = is_hkt_potential(model, mu, hessian_kahler_form(model, mu))
        check.ok = True
        return check

    monkeypatch.setattr(batteries, "is_hkt_potential", accepting)
    outcome = remark_battery(model, table, 5, 3)
    assert (outcome.name, outcome.ok, outcome.cases) == ("potential-remark", False, 3)
