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
never load numpy.  Before that import ``hkt solve`` sets
``OPENBLAS_NUM_THREADS=1`` unless the caller has set it,
``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS``: an OpenBLAS worker pool
doubles the cost of ``import numpy`` (about 70 ms on 2 vCPUs), and the
solve's only BLAS calls are small sine-matrix products.

``--out`` must name a file that can be opened for writing; that is
checked before any work starts, and a bad path is an input error.  The
check leaves no file behind: a run that stops on bad input writes none.
``hkt solve --out REPORT`` writes its grid slice, one number per cell, to
REPORT with the suffix ``.csv`` (none for ``os.devnull``).  That path is
checked with REPORT, before the document is loaded: one that cannot be
opened for writing, a directory say, is an input error, and so is a
REPORT ending in ``.csv``, which the slice would overwrite.  ``hkt
check`` reads a metric document as its Kahler form F_I, the one input of
every HKT criterion (`hktcalc.geometry`), and refuses it as an input
error unless the metric is symmetric and invariant under I, J and K.

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
import os
import sys
import time
from pathlib import Path

from .conventions import ConventionError
from .documents import MAX_N, DocumentError, InputDocument, Report
from .geometry import (
    conformal_metric,
    hkt_report,
    is_hkt_definition,
    is_hkt_salamon,
    kahler_form,
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

# OpenBLAS reads its thread count from the first of these that is set.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

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
                         help="nodes per axis (repeatable with distinct values; default 17)")
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


def _unwritable(out_path: str | Path | None) -> str | None:
    """Why `out_path`, the report or the grid slice, cannot be written, or
    None if it can.

    Opening for append never truncates a file, so an earlier report
    survives a run that then stops on bad input, and a file the probe had
    to create is removed again, so such a run leaves none behind.
    """
    if not out_path:
        return None
    existed = os.path.lexists(out_path)
    try:
        with open(out_path, "a"):
            pass
    except OSError as exc:
        return f"cannot write --out {out_path}: {exc.strerror}"
    if not existed:
        os.remove(out_path)
    return None


def _slice_csv_path(out_path: str | None) -> Path | None:
    """Where `hkt solve --out` writes its grid slice: the report path with
    the suffix .csv, or None when no report file is written."""
    if not out_path or out_path == os.devnull:
        return None
    return Path(out_path).with_suffix(".csv")


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
    from .batteries import identity_suite

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
    result = hkt_report(ProjectorTable(doc.model), doc.payload)
    report.verdicts["is_hkt"] = result.is_hkt
    report.data["hkt_report"] = result.to_json()


def _check_potential(doc: InputDocument, report: Report) -> None:
    table = ProjectorTable(doc.model)
    forms = potential_to_forms(doc.model, doc.payload)
    theta_from_potential(table, doc.payload, forms.f_i)
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
    check = is_hkt_definition(doc.model, kahler_form(doc.model, conformal_metric(doc.model, phi)))
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
    # numpy's bundled OpenBLAS starts a worker pool when numpy is imported,
    # and this import is the process's first.  On 2 vCPUs (numpy 2.4.6) the
    # pool made `import numpy` take 0.17 s instead of 0.10 s, and 0.20 s of
    # user CPU instead of 0.13 s.  The solve's only BLAS calls are its
    # (n^2, n) @ (n, n) sine products, n = m - 2 <= 63.
    if not any(name in os.environ for name in BLAS_THREAD_VARIABLES):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
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
        for i, m in enumerate(grids):
            check_grid_size(m)
            if m in grids[:i]:
                raise ValueError(f"--grid {m} is given twice; each grid is solved once")
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
        e_first, e_last = first["form_residual_max"], last["form_residual_max"]
        # Null unless both maxima are positive and finite (a form residual
        # that reads exactly 0.0 has no log), and so is their ratio.
        if 0 < e_last < math.inf and 0 < e_first / e_last < math.inf and first["h"] != last["h"]:
            order = math.log(e_first / e_last) / math.log(first["h"] / last["h"])
    for diag in runs:
        diag["order_estimate"] = order
    report.data["runs"] = runs
    report.verdicts["converged"] = True  # solve_potential gates every grid's residual
    _emit(report, args.out)
    csv_path = _slice_csv_path(args.out)
    if csv_path:
        result.grid.export_slice_csv(csv_path)
    return EXIT_OK


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv:
        argv = ["identities"]
    args = _parser().parse_args(argv)
    out = getattr(args, "out", None)
    if args.command == "solve" and out and Path(out).suffix == ".csv":
        return _input_error(f"--out {out} is where the grid CSV goes; give the report another suffix")
    unwritable = _unwritable(out)
    if not unwritable and args.command == "solve":
        unwritable = _unwritable(_slice_csv_path(out))
    if unwritable:
        return _input_error(unwritable)
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
