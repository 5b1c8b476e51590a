"""Self-test of the benchmark at tiny sizes, with a negative control.

    python3 bench/selftest.py

For each workload it runs a few small ops that must pass their output
check, the same op once more against a deliberately flipped expectation,
which the checker must count as a failure (so the checks are not
vacuous), and one traced op whose spans must include the workload's
layers.  It also checks that BENCHMARK.json declares exactly the metrics
run.py emits.  Exits 0 when all of that holds; takes about half a minute.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import run

SEED = 7
TINY_GRIDS = (9, 17)


def tiny_decks(workdir):
    """workload -> (ops that must pass, flipped op that must fail, layers its trace must show)."""
    from check import check_document, check_identities, check_solve, identity_cases
    from gen import solve_docs

    docs = run.check_docs_deck(SEED, workdir)
    neg_op = next(op for op in docs if op.name == "form-n2-negative")
    flipped = {"exit": 0, "all_ok": True, "verdicts": {"is_hkt": True}}
    check_flip = run.Op("flipped-" + neg_op.name, neg_op.argv,
                        lambda code, out, err: check_document(flipped, code, out, err))

    expect = {"exit": 0, "all_ok": True, "cases": identity_cases([1], 2)}
    argv = ["identities", "--n", "1", "--seed", str(SEED), "--count", "2"]
    ident = run.Op("identities-tiny", argv, lambda code, out, err: check_identities(expect, code, out, err))
    ident_flip = run.Op("flipped-identities", argv,
                        lambda code, out, err: check_identities({**expect, "exit": 1, "all_ok": False},
                                                                code, out, err))

    path = run.write_doc(workdir, "solve-tiny", solve_docs(SEED, 1)[0])
    argv = run.solve_argv(path, TINY_GRIDS)
    good = run.solve_expect(TINY_GRIDS)
    solve = run.Op("solve-tiny", argv, lambda code, out, err: check_solve(good, code, out, err))
    solve_flip = run.Op("flipped-solve", argv,
                        lambda code, out, err: check_solve({**good, "exit": 3}, code, out, err))
    return {
        "check-docs": (docs, check_flip, ["documents.InputDocument.load", "salamon.ProjectorTable.n2",
                                          "geometry.hkt_report", "structures.complex_type_part",
                                          "forms.apply_operator"]),
        "identity-suite": ([ident], ident_flip, ["batteries.d_squared_battery", "forms.KForm.d",
                                                 "salamon.ProjectorTable.n1"]),
        "conformal-solve": ([solve], solve_flip, [f"elliptic.solve_potential.m{TINY_GRIDS[0]}",
                                                  "elliptic.verify_potential"]),
    }


def declared_metrics_match() -> list[str]:
    """BENCHMARK.json must declare exactly the metrics run.py emits."""
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    sample = run.Sample("op", 1.0, 1.0, None, False)
    emitted = {"end_to_end": run.end_to_end([sample], 1.0, [1.0])[0], "per_layer": run.per_layer([])[0]}
    problems = []
    for kind, metrics in emitted.items():
        names = {m["name"]: m["unit"] for m in declared[kind]}
        if names != {name: unit for name, (_, unit) in metrics.items()}:
            problems.append(f"BENCHMARK.json {kind} differs from what run.py emits")
    return problems


def main() -> int:
    workdir = run.prepare(SEED)
    problems = declared_metrics_match()
    try:
        runner = run.Runner(workdir, time.monotonic() + run.RUN_DEADLINE_S)
        for workload, (ops, flipped, layers) in tiny_decks(workdir).items():
            for op in ops:
                sample = runner.run_op(op, traced=False)
                if sample.failure is not None:
                    problems.append(f"{workload}: {op.name} failed: {sample.failure}")
            if runner.run_op(flipped, traced=False).failure is None:
                problems.append(f"{workload}: negative control {flipped.name} was not counted as a failure")
            traced = runner.run_op(ops[0], traced=True)
            if traced.failure is not None:
                problems.append(f"{workload}: traced {ops[0].name} failed: {traced.failure}")
                continue
            totals = run.layer_totals(traced.spans)
            missing = [name for name in layers if totals.get(name, [0])[0] == 0]
            if missing:
                problems.append(f"{workload}: trace of {ops[0].name} lacks spans {missing}")
            print(f"{workload}: {len(ops)} ops checked, negative control counted as failed, "
                  f"{len(totals)} traced layers")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print("FAIL", problem, file=sys.stderr)
    print("self-test", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
