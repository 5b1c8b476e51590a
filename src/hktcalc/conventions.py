"""Normalization and sign ledger shared by the exact core and the solver.

Several scale conventions interlock and are easy to get wrong by a factor
of two, so they are frozen here in one place and every module (and the
test suite) reads them from here.  `ConventionError` is the one error an
internal invariant raises when it fails: a bug, never a verdict, which
the CLI maps to exit 4 in every subcommand.

* The potential-form convention is  F_I = (1/2)(d d_I + d_J d_K) mu  and
  its two cyclic companions.  Under it the flat metric on R^4 has the
  potential  mu = |x|^2 / 4.

* The equivalent Hessian form of the same statement averages H = Hess(mu)
  to g = HESSIAN_AVERAGE_FACTOR * (H + sum_A A^T H A), A = I, J, K, and
  is stated through its Kahler form F_I(X, Y) = g(IX, Y):
  F_I = HESSIAN_AVERAGE_FACTOR * (1 + I* - J* - K*) alt H(I., .), with A*
  the pullback, alt the alternating part and (1 + I* - J* - K*)/4 the
  Salamon (1,1) projector (`structures.type11_projector`), applied once by
  `geometry.hessian_kahler_form`; the factor 1/2 is forced by the form
  convention above (checked for random mu by the test suite, not assumed).

* The 4-dimensional elliptic solver normalizes its unknown by the trace
  identity  trace_g(Hess mu) = TRACE_TARGET, whose flat solution is
  |x|^2 / 2.  A solver potential therefore reproduces the Kahler form of
  its metric only up to SOLVER_FORM_SCALE:
  (1/2)(d d_I + d_J d_K) mu_solver = SOLVER_FORM_SCALE * F_I(g).

* With the signed degree action on 1-forms, the quaternionic coframe
  formulas  F_I = alpha ^ I alpha + J alpha ^ K alpha  (and cyclic) hold
  verbatim; COFRAME_SIGN records the empirically fixed global sign.
"""

from fractions import Fraction

HESSIAN_AVERAGE_FACTOR = Fraction(1, 2)
TRACE_TARGET = 4
SOLVER_FORM_SCALE = 2
COFRAME_SIGN = 1


class ConventionError(AssertionError):
    """An internal sign/scale invariant was violated."""
