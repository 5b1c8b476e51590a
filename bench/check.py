"""Output checks for each `hkt` op.

Each checker takes the op's exit code, stdout and stderr plus what the
generator expects, and returns None for a correct op or a one-line reason
for a failed one.  An op fails on a wrong exit code, a traceback on
stderr, unparseable output, a wrong verdict or a failed output check.
"""

from __future__ import annotations

import json
import math


def _report(code: int, out: str, err: str, expect_exit: int):
    """The parsed JSON report, or a failure reason string."""
    if "Traceback" in err:
        return f"traceback on stderr: {err.strip().splitlines()[-1]}"
    if code != expect_exit:
        return f"exit code {code}, expected {expect_exit}: {err.strip()[-200:]}"
    try:
        report = json.loads(out)
    except json.JSONDecodeError:
        return "stdout is not one JSON report"
    if not isinstance(report, dict):
        return "report is not a JSON object"
    return report


def check_document(expect: dict, code: int, out: str, err: str) -> str | None:
    """`hkt check DOC`: exit code, `all_ok` and `verdicts` as generated."""
    report = _report(code, out, err, expect["exit"])
    if isinstance(report, str):
        return report
    if report.get("all_ok") != expect["all_ok"]:
        return f"all_ok is {report.get('all_ok')}, expected {expect['all_ok']}"
    if report.get("verdicts") != expect["verdicts"]:
        return f"verdicts {report.get('verdicts')}, expected {expect['verdicts']}"
    return None


def identity_cases(ns: list[int], count: int) -> dict[str, int]:
    """The check names and case counts `hkt identities` reports for (ns, count)."""
    half, third = max(1, count // 2), max(1, count // 3)
    cases = {}
    for n in ns:
        cases.update({
            f"d-squared[n={n}]": count,
            f"graded-leibniz[n={n}]": count,
            f"anticommutation[n={n}]": count,
            f"projected-d-squared[n={n}]": half,
            f"eta-idempotent[n={n}]": half,
            f"potential-remark[n={n}]": third,
        })
        if n == 1:
            cases[f"conformal-4d[n={n}]"] = count
    if 1 in ns and 2 in ns:
        cases["hkt-equivalence"] = max(4, count // 2)
    return cases


def check_identities(expect: dict, code: int, out: str, err: str) -> str | None:
    """`hkt identities`: every check ok, with the expected names and case counts."""
    report = _report(code, out, err, expect["exit"])
    if isinstance(report, str):
        return report
    checks = report.get("checks") or []
    if report.get("all_ok") != expect["all_ok"]:
        bad = [c.get("name") for c in checks if not c.get("ok")]
        return f"all_ok is {report.get('all_ok')}, expected {expect['all_ok']} (failed: {bad})"
    if expect["all_ok"] and not all(c.get("ok") for c in checks):
        return "all_ok is true but a check is not ok"
    got = {c.get("name"): c.get("cases") for c in checks}
    if got != expect["cases"]:
        return f"checks {got}, expected {expect['cases']}"
    return None


def check_solve(expect: dict, code: int, out: str, err: str) -> str | None:
    """`hkt solve DOC --grid A --grid B`: a converged, second-order solve.

    The report's `converged` verdict is not trusted.  The geometric
    residual must be small at every grid, the trace residual must fall
    from the coarse grid to the fine one, and the order estimate must be
    in the expected window.
    """
    report = _report(code, out, err, expect["exit"])
    if isinstance(report, str):
        return report
    try:
        runs = report["data"]["runs"]
        order = runs[-1]["order_estimate"]
        traces = [r["trace_residual_max"] for r in runs]
        residuals = [r["residual_max"] for r in runs]
    except (KeyError, TypeError, IndexError):
        return "report lacks data.runs with residuals and an order estimate"
    if len(runs) != expect["grids"]:
        return f"{len(runs)} runs, expected {expect['grids']}"
    if not all(isinstance(x, float) and math.isfinite(x) for x in traces + residuals):
        return "non-finite residual"
    if max(residuals) > expect["residual_max"]:
        return f"geometric residual {max(residuals):.3g} above {expect['residual_max']:g}"
    if not traces[-1] < traces[0]:
        return f"trace residual did not fall: {traces}"
    lo, hi = expect["order"]
    if not (isinstance(order, float) and lo <= order <= hi):
        return f"order estimate {order}, expected in [{lo}, {hi}]"
    return None
