"""The real type projectors E_2, E_3 and the twistor residual against the
complex oracles of `conftest`.

At an axis A the (0,k) projector pi_0k has the conjugate pi_k0, so
E_k = pi_k0 + pi_0k is twice the real part of pi_0k
(`conftest.oracle_type_projector`), and on 2-forms it is (Id - A*)/2.
For a real 2-form F, d maps F^{2,0} into (3,0) + (2,1) and F^{0,2} into
(1,2) + (0,3), so E_3 d E_2 F = X + conj(X) = 2 Re X with X the (0,3)-part
of d F^{0,2} (`conftest.oracle_twistor_residual`).  X is zero exactly when
X + conj(X) is, so the real residual gives the complex verdict.  All
arithmetic is exact, so the two sides must be equal, not close.
"""

import random

import pytest

from hktcalc.batteries import random_a11_form, random_kform
from hktcalc.forms import combine_operators, compose_operators
from hktcalc.geometry import TWISTOR_AXES, is_hkt_twistor, potential_to_forms
from hktcalc.scalars import random_polynomial
from hktcalc.structures import HypercomplexModel, _axis_operators, type_projector

from conftest import SpherePoint, oracle_twistor_residual, oracle_type_projector

MODELS = {n: HypercomplexModel(n) for n in (1, 2, 3)}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_type_projectors_are_twice_the_real_oracle_parts(n):
    model = MODELS[n]
    for name in TWISTOR_AXES:
        for k in (2, 3):
            e_k = type_projector(model, name, k)
            assert compose_operators(e_k, e_k) == e_k, (n, name, k)
            real, _ = oracle_type_projector(model, SpherePoint.axis(name), k)
            assert e_k == combine_operators([(2, real)]), (n, name, k)
        pull = _axis_operators(model, name, 2)[1]
        assert type_projector(model, name, 2) == combine_operators([(-1, pull)], 1, 2), (n, name)


def _forms(model, rng):
    """Random (1,1)-forms and random 2-forms, which have nonzero residuals,
    and the F_I of a random potential, whose residuals vanish."""
    mu = random_polynomial(model.dim, 3, 4, seed=rng.randrange(2**31))
    return ([random_a11_form(model, rng) for _ in range(2)]
            + [random_kform(model.dim, 2, rng, 4) for _ in range(2)]
            + [potential_to_forms(model, mu).f_i])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_twistor_residual_is_twice_the_real_part_of_the_oracle(n):
    model = MODELS[n]
    zeros = set()
    for form in _forms(model, random.Random(600 + n)):
        check = is_hkt_twistor(model, form)
        assert [name for name, _ in check.point_residuals] == list(TWISTOR_AXES)
        for name, residual in check.point_residuals:
            oracle = oracle_twistor_residual(model, SpherePoint.axis(name), form)
            assert residual == oracle.re * 2, (n, name)
            assert residual.is_zero() == oracle.is_zero(), (n, name)
            zeros.add(residual.is_zero())
    # Both verdicts occur, except at n = 1, where there are no (0,3)-forms.
    assert zeros == ({True} if n == 1 else {True, False})
