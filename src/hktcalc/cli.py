"""Command line entry point.

Three subcommands:

* ``hkt identities`` (the default) runs the full randomized identity
  suite; zero-configuration CI verification.
* ``hkt check FILE`` dispatches on the document kind and runs the HKT
  checks appropriate to it.
* ``hkt solve FILE`` runs the 4D potential solver on a conformal4d
  document and verifies the result.

The float solver (`hktcalc.elliptic`, and with it numpy) is imported only
inside ``hkt solve``: ``hkt check`` and ``hkt identities`` are exact and
never load numpy.

Exit codes: 0 pass, 1 check failure, 2 input error, 3 solver failure,
4 internal error.  Exit 4 means a broken internal invariant
(`conventions.ConventionError`): the structure matrices failing the
quaternion identities, a Salamon-type or projector cross-check failing,
or the HKT criteria disagreeing.  It is a bug, never a verdict; every
subcommand maps it to exit 4 with one stderr line and no traceback.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

from .batteries import identity_suite
from .conventions import ConventionError
from .documents import MAX_N, DocumentError, InputDocument, Report
from .geometry import (
    HyperhermitianMetric,
    hkt_report,
    is_hkt_definition,
    is_hkt_salamon,
    potential_to_forms,
    residual_summary,
    theta_from_potential,
)
from .salamon import ProjectorTable, is_salamon_11

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_SOLVER_ERROR = 3
EXIT_INTERNAL_ERROR = 4

# The largest --count `hkt identities` accepts.  Time grows linearly in it:
# `--n 1 --n 2 --n 3` takes about 1 s at 20, 5 s at 200 and 25 s at 1000 (2
# vCPUs, Python 3.11.7), so the limit stays under a minute; 10^9 takes months.
MAX_COUNT = 1000


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hkt", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p_id = sub.add_parser("identities", help="run the randomized identity suite")
    p_id.add_argument("--n", type=int, action="append",
                      help=f"quaternionic dimension(s), 1 to {MAX_N}; default 1 and 2")
    p_id.add_argument("--seed", type=int, default=0)
    p_id.add_argument("--count", type=int, default=20, help=f"cases per battery, 0 to {MAX_COUNT}")
    p_id.add_argument("--out", help="write the JSON report here")

    p_check = sub.add_parser("check", help="run HKT checks on an input document")
    p_check.add_argument("file")
    p_check.add_argument("--out", help="write the JSON report here")

    p_solve = sub.add_parser("solve", help="solve the 4D potential equation")
    p_solve.add_argument("file")
    p_solve.add_argument("--grid", type=int, action="append",
                         help="nodes per axis (repeatable; default 17)")
    p_solve.add_argument("--tol", type=float, default=1e-10)
    p_solve.add_argument("--out", help="report path; grid CSV goes next to it")
    return parser


def _emit(report: Report, out_path: str | None) -> None:
    text = report.dumps()
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _input_error(message) -> int:
    print(f"input error: {message}", file=sys.stderr)
    return EXIT_INPUT_ERROR


def _internal_error(exc: ConventionError) -> int:
    print(f"internal error: {exc}", file=sys.stderr)
    return EXIT_INTERNAL_ERROR


def cmd_identities(args) -> int:
    ns = sorted(set(args.n)) if args.n else [1, 2]
    if not 1 <= ns[0] <= ns[-1] <= MAX_N:
        return _input_error(f"--n must be between 1 and {MAX_N}, got {ns}")
    if not 0 <= args.count <= MAX_COUNT:
        return _input_error(f"--count must be between 0 and {MAX_COUNT}, got {args.count}")
    report = Report(command="identities", seed=args.seed)
    report.data["n"] = ns
    report.data["count"] = args.count
    if args.count == 0:
        report.warnings.append("count is 0: the suite passes vacuously")
        _emit(report, args.out)
        return EXIT_OK
    start = time.perf_counter()
    try:
        report.checks = identity_suite(ns, args.seed, args.count)
    except ConventionError as exc:
        return _internal_error(exc)
    report.timings["total_s"] = time.perf_counter() - start
    _emit(report, args.out)
    if report.all_ok:
        return EXIT_OK
    print(f"FAILED: {report.first_failure()}", file=sys.stderr)
    return EXIT_CHECK_FAILED


def _check_metric_or_form(doc: InputDocument, report: Report) -> None:
    table = ProjectorTable(doc.model)
    if doc.kind == "metric":
        source = HyperhermitianMetric(doc.model, doc.payload)
    else:
        source = doc.payload
        if not is_salamon_11(doc.model, source):
            raise DocumentError("form document does not carry a Salamon (1,1)-form")
    result = hkt_report(table, source)
    report.verdicts["is_hkt"] = result.is_hkt
    report.data["hkt_report"] = result.to_json()


def _check_potential(doc: InputDocument, report: Report) -> None:
    table = ProjectorTable(doc.model)
    forms = potential_to_forms(doc.model, doc.payload)
    theta_from_potential(table, doc.payload)
    # Only F_I is a Salamon (1,1)-form for the preferred structure; F_J
    # and F_K have extreme type with respect to it.  F_I of every potential
    # is (1,1), and theta_from_potential raises ConventionError unless
    # D(I d mu) = F_I, so both verdicts hold once the calls return.
    if not is_salamon_11(doc.model, forms.f_i):
        raise ConventionError("the potential's form F_I is not of Salamon type (1,1)")
    report.verdicts["form_salamon_11"] = True
    report.verdicts["d_closed"] = is_hkt_salamon(table, forms.f_i).ok
    report.verdicts["theta_certificate"] = True
    report.data["form_I"] = forms.f_i.to_json()


def _check_conformal(doc: InputDocument, report: Report) -> None:
    phi, _box, _data = doc.payload
    metric = HyperhermitianMetric.conformal(doc.model, phi)
    check = is_hkt_definition(metric)
    report.verdicts["is_hkt"] = check.ok
    report.data["definition"] = check.summary()
    if check.ok:
        report.data["torsion"] = residual_summary(check.torsion_candidate)
        report.data["strong"] = check.torsion_candidate.d().is_zero()


def cmd_check(args) -> int:
    report = Report(command="check")
    try:
        doc = InputDocument.load(args.file)
        report.input_digest = doc.digest()
        report.data["kind"] = doc.kind
        start = time.perf_counter()
        if doc.kind in ("metric", "form"):
            _check_metric_or_form(doc, report)
        elif doc.kind == "potential":
            _check_potential(doc, report)
        else:
            _check_conformal(doc, report)
        report.timings["total_s"] = time.perf_counter() - start
    except (DocumentError, ValueError) as exc:
        return _input_error(exc)
    except ConventionError as exc:
        return _internal_error(exc)
    _emit(report, args.out)
    return EXIT_OK if report.all_ok else EXIT_CHECK_FAILED


def cmd_solve(args) -> int:
    from .elliptic import (
        ConformalMetricSpec,
        SolverConfig,
        SolverError,
        check_grid_size,
        check_grid_spacing,
        solve_potential,
    )

    report = Report(command="solve")
    grids = args.grid or [17]
    try:
        for m in grids:
            check_grid_size(m)
        doc = InputDocument.load(args.file)
        if doc.kind != "conformal4d":
            raise DocumentError("solve requires a conformal4d document")
        report.input_digest = doc.digest()
        phi, box, dirichlet = doc.payload
        for m in grids:
            check_grid_spacing(m, *box)
        spec = ConformalMetricSpec(phi, box)
        config = SolverConfig(tol=args.tol, dirichlet=dirichlet)
    except (DocumentError, ValueError) as exc:
        return _input_error(exc)
    except ConventionError as exc:
        return _internal_error(exc)

    runs = []
    try:
        start = time.perf_counter()
        for m in grids:
            # Free the previous grid first: the assignment happens only
            # after the next solve has returned.
            result = None
            result = solve_potential(spec, m, config)
            runs.append(result.diagnostics)
        report.timings["total_s"] = time.perf_counter() - start
    except ValueError as exc:
        return _input_error(exc)
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER_ERROR

    order = None
    if len(runs) >= 2:
        first, last = runs[0], runs[-1]
        if last["form_residual_max"] > 0 and first["h"] != last["h"]:
            order = math.log(first["form_residual_max"] / last["form_residual_max"]) / math.log(
                first["h"] / last["h"]
            )
    for diag in runs:
        diag["order_estimate"] = order
    report.data["runs"] = runs
    report.verdicts["converged"] = True  # solve_potential gates every grid's residual
    _emit(report, args.out)
    if args.out:
        csv_path = args.out.rsplit(".", 1)[0] + ".csv"
        result.grid.export_slice_csv(csv_path)
    return EXIT_OK


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv:
        argv = ["identities"]
    args = _parser().parse_args(argv)
    if args.command == "identities":
        return cmd_identities(args)
    if args.command == "check":
        return cmd_check(args)
    if args.command == "solve":
        return cmd_solve(args)
    _parser().print_help()
    return EXIT_INPUT_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
