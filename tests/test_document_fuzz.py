"""Generated documents through `hkt check` and `hkt solve`, in process.

Every document kind, malformed and mistyped fields, zero and negative
denominators, huge exponents and numerators: whatever the document, the
command returns an exit code (never raises), an input error is one
`input error:` line on stderr, a solver failure is one `solver error:`
line, and nothing prints a traceback or a numpy warning.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hktcalc.cli import EXIT_INPUT_ERROR, EXIT_SOLVER_ERROR, main

# "3000" and "01" are digit strings where an exponent or index list belongs.
JUNK = st.sampled_from([None, True, 1.5, -1, 0, "x", "", [], {}, [1, 2], {"a": 1},
                        10**300, "9" * 5000, float("nan"), float("inf"), "3000", "01"])

NUMBERS = st.one_of(st.integers(-3, 3), st.integers(-10**300, 10**300),
                    st.sampled_from(["1", "-2", "+7", "9" * 5000]))
DENOMINATORS = st.one_of(st.integers(-3, 3), st.sampled_from(["0", "-1", "5", 10**300]))
EXPONENTS = st.one_of(st.integers(0, 2), st.integers(-1, 3),
                      st.sampled_from([10**4, 10**4 + 1, 10**8, 10**30]))


def maybe(strategy):
    """The well-formed value or, one time in eight, junk in its place."""
    return st.integers(0, 7).flatmap(lambda i: JUNK if i == 7 else strategy)


@st.composite
def term(draw):
    out = {"num": draw(maybe(NUMBERS)), "den": draw(maybe(DENOMINATORS)),
           "exp": draw(maybe(st.lists(maybe(EXPONENTS), min_size=3, max_size=5)))}
    if draw(st.integers(0, 9)) == 9:
        out["inum"] = "1"
    if draw(st.integers(0, 9)) == 9:
        del out[draw(st.sampled_from(sorted(out)))]
    return out


def polynomial(dims=st.just(4)):
    return st.fixed_dictionaries({"dim": maybe(dims), "terms": maybe(st.lists(term(), max_size=3))})


@st.composite
def positive_factor(draw):
    """A constant, possibly huge, plus at most one small monomial: mostly
    positive on the solver's box, so `solve` gets past its positivity check."""
    constant = {"num": draw(st.sampled_from([2, 5, 10**20, "1" + "0" * 400])), "den": "1",
                "exp": [0, 0, 0, 0]}
    terms = [constant] + draw(st.lists(st.fixed_dictionaries(
        {"num": st.sampled_from([-1, 1, 10**308]), "den": st.sampled_from([1, 7]),
         "exp": st.lists(st.integers(0, 2), min_size=4, max_size=4)}), max_size=1))
    return {"dim": 4, "terms": terms}


FACTORS = st.one_of(polynomial(), positive_factor())


@st.composite
def metric_payload(draw):
    zero = {"dim": 4, "terms": []}
    if draw(st.booleans()):  # conformal: hyperhermitian, so all criteria run
        phi = draw(FACTORS)
        return {"g": [[phi if i == j else zero for j in range(4)] for i in range(4)]}
    size = draw(st.integers(0, 5))
    return {"g": draw(maybe(st.lists(st.lists(polynomial(), min_size=size, max_size=size),
                                     min_size=size, max_size=size)))}


@st.composite
def form_payload(draw):
    idx = maybe(st.lists(maybe(st.integers(-1, 8)), min_size=1, max_size=3))
    terms = st.lists(st.fixed_dictionaries({"idx": idx, "poly": polynomial()}), max_size=3)
    form = st.fixed_dictionaries({"k": maybe(st.integers(0, 3)), "dim": maybe(st.sampled_from([4, 8])),
                                  "terms": maybe(terms)})
    return {"form": draw(maybe(form))}


# Box endpoints: ordinary, tiny, huge, beyond the float range and not numbers.
ENDPOINTS = st.sampled_from([-1.0, 0.0, 1.0, 2, "1", "nan", True, 1e-200, -5e-324, 1e300,
                             -1e308, 10**400, "9" * 5000])
# [lo, lo + width] boxes whose grid spacing underflows, overflows or is ordinary.
BOXES = st.one_of(
    st.lists(maybe(ENDPOINTS), min_size=1, max_size=3),
    st.tuples(st.sampled_from([-1.0, 0.0, 1e300, -1e308]),
              st.sampled_from([1e-200, 2e-161, 1e-150, 1.0, 1e150, 1e300, 1e308]))
    .map(lambda box: [box[0], box[0] + box[1]]),
)


@st.composite
def conformal_payload(draw):
    out = {"phi": draw(maybe(FACTORS))}
    if draw(st.booleans()):
        out["box"] = draw(maybe(BOXES))
    if draw(st.booleans()):
        out["dirichlet"] = draw(maybe(polynomial()))
    return out


PAYLOADS = {
    "metric": metric_payload(),
    "form": form_payload(),
    "potential": st.fixed_dictionaries({"mu": maybe(polynomial())}),
    "conformal4d": conformal_payload(),
}


@st.composite
def documents(draw, kinds=tuple(PAYLOADS)):
    kind = draw(st.sampled_from(kinds))
    model = st.fixed_dictionaries({"n": maybe(st.sampled_from([1, 1, 1, 2, 4, "1"])),
                                   "convention": maybe(st.just("left"))})
    doc = {"kind": draw(maybe(st.just(kind))), "model": draw(maybe(model)),
           "payload": draw(maybe(PAYLOADS[kind]))}
    if draw(st.integers(0, 9)) == 9:
        del doc[draw(st.sampled_from(sorted(doc)))]
    return doc


def run(argv_before, doc, argv_after=()):
    """(exit code, stdout, stderr) of `hkt` on `doc` written to a file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w") as handle:
            json.dump(doc, handle)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv_before, path, *argv_after])
    return code, out.getvalue(), err.getvalue()


def assert_clean(code, out, err):
    assert "Traceback" not in out + err
    if code == EXIT_INPUT_ERROR:
        assert out == ""
        assert err.startswith("input error:") and len(err.strip().splitlines()) == 1, err
    if code == EXIT_SOLVER_ERROR:
        assert out == ""
        assert err.startswith("solver error:") and len(err.strip().splitlines()) == 1, err


FUZZ = settings(deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])


@settings(FUZZ, max_examples=250)
@given(documents())
def test_check_exit_codes(doc):
    code, out, err = run(["check"], doc)
    assert code in (0, 1, 2), (code, err)
    assert_clean(code, out, err)


CONFORMAL_DOCUMENTS = conformal_payload().map(
    lambda payload: {"kind": "conformal4d", "model": {"n": 1}, "payload": payload})


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(FUZZ, max_examples=100)
@given(st.one_of(documents(kinds=("conformal4d", "potential")), CONFORMAL_DOCUMENTS))
def test_solve_exit_codes(doc):
    code, out, err = run(["solve"], doc, ["--grid", "5"])
    assert code in (0, 1, 2, 3), (code, err)
    assert_clean(code, out, err)


BOXED_DOCUMENTS = st.fixed_dictionaries({"phi": positive_factor(), "box": BOXES}).map(
    lambda payload: {"kind": "conformal4d", "model": {"n": 1}, "payload": payload})


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(FUZZ, max_examples=60)
@given(BOXED_DOCUMENTS)
def test_solve_exit_codes_on_boxes(doc):
    code, out, err = run(["solve"], doc, ["--grid", "5"])
    assert code in (0, 2, 3), (code, err)
    assert_clean(code, out, err)


# A flat (1,1)-form with digit strings for an exponent list or an index
# list: each used to be read one character at a time and pass, exit 0.
STRING_LIST_DOCUMENTS = [
    {"kind": "form", "model": {"n": 1}, "payload": {"form": {"k": 2, "dim": 4, "terms": [
        {"idx": idx, "poly": {"dim": 4, "terms": [{"num": "1", "den": "1", "exp": exp}]}}
        for idx in (idx_01, idx_23)]}}}
    for exp, idx_01, idx_23 in (("0000", [0, 1], [2, 3]), ([0, 0, 0, 0], "01", "23"))
]


@pytest.mark.parametrize("doc", STRING_LIST_DOCUMENTS)
def test_string_lists_are_input_errors(doc):
    code, out, err = run(["check"], doc)
    assert code == EXIT_INPUT_ERROR
    assert_clean(code, out, err)
