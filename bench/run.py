"""The hktcalc benchmark: `hkt` run the way users run it, one process per op.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`.  Inputs are generated from `--seed` (see gen.py) and the program
only ever sees the generated documents.

The load is a closed loop with one client: the next `python -m hktcalc.cli`
process starts when the previous one has exited, so one process is in
flight.  An op is one such process, timed from spawn to exit.  Ops run in
rounds over the workload's deck of inputs; rounds repeat until both
`--seconds` have passed and the workload's minimum op count is reached,
so a run always ends on a whole round and holds the same input mix.  The
minimum counts are set so that, at today's speed, they and not the clock
decide the length of a run: every run then measures the same ops, which
keeps run-to-run spread low when the host's speed drifts.

Every op's output is checked (check.py); a failed op counts in `failed`,
and as the slowest possible op in the latency figures.

`--trace 0` first times the set-up alone in fresh processes, then the ops,
and reports the end-to-end metrics.  `--trace 1` runs each op twice, plain
and under tracer.py, and reports per-layer calls, inclusive and self
seconds per op from the traced copies, plus the tracing overhead.

The last stdout line is the JSON result; the line before it is a record of
the run: environment, per-op times, which percentile `op_tail_s` is and
on how many samples, and `fail_frac`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Every run must end well inside 180 s; an op still running at this point
# of the run is killed and counted as failed.
RUN_DEADLINE_S = 170.0
KILLED = "killed at the run deadline"

EXACT_SETUP = (
    "import hktcalc.cli\n"
    "from hktcalc import HypercomplexModel, ProjectorTable\n"
    "for n in (1, 2):\n"
    "    ProjectorTable(HypercomplexModel(n))\n"
)
IMPORT_SETUP = "import hktcalc.cli\n"

SOLVE_GRIDS = (17, 33)
IDENTITY_NS = (1, 2)
IDENTITY_COUNT = 20

# Per-layer metrics.  A name in SPANNED gives `<name>.calls`, `<name>.s`
# (inclusive) and `<name>.self_s`, all per op; TIMED gives `<name>.s` only.
SPANNED = [
    "exact_linalg.null_space",
    "exact_linalg.projector_onto_complement",
    "salamon.ProjectorTable.eta",
    "salamon.salamon_D",
    "salamon.is_salamon_11",
    "geometry.is_hkt_salamon",
    "geometry.is_hkt_twistor",
    "structures.complex_type_part",
    "geometry.hkt_report",
    "geometry.is_hkt_definition",
    "geometry.torsion_form",
    "geometry.theta_from_potential",
    "geometry.is_hkt_potential",
    "forms.KForm.d",
    "forms.KForm.wedge",
    "forms.apply_operator",
    "structures.StructureOperator.act",
    "structures.StructureOperator.twisted_d",
    "elliptic.potential_operator_apply",
    "elliptic.verify_potential",
]
TIMED = [
    "documents.InputDocument.load",
    "salamon.ProjectorTable.n1",
    "salamon.ProjectorTable.n2",
    *(f"batteries.{b}" for b in (
        "d_squared_battery", "leibniz_battery", "anticommute_battery",
        "projected_d_squared_battery", "eta_idempotence_battery",
        "conformal_battery", "remark_battery", "equivalence_battery")),
    *(f"elliptic.solve_potential.m{m}" for m in SOLVE_GRIDS),
]
COUNTED = ["scalars.Polynomial.calls", "scalars.GaussianRational.calls"]


@dataclass
class Op:
    """One `hkt` invocation and the check of its output."""

    name: str
    argv: list[str]
    check: Callable[[int, str, str], str | None]


@dataclass
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json and README.md."""

    setup_code: str
    setup_reps: int
    min_ops: int
    deck: Callable[[int, Path], list[Op]]


@dataclass
class Sample:
    """One finished op."""

    op: str
    wall_s: float
    maxrss_mb: float
    failure: str | None
    traced: bool
    report: dict = field(default_factory=dict)
    spans: dict | None = None


def write_doc(workdir: Path, name: str, doc: dict) -> str:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def check_docs_deck(seed: int, workdir: Path) -> list[Op]:
    from check import check_document
    from gen import check_cases

    return [Op(c["name"], ["check", write_doc(workdir, c["name"], c["doc"])],
               lambda code, out, err, e=c["expect"]: check_document(e, code, out, err))
            for c in check_cases(seed)]


def identity_deck(seed: int, workdir: Path) -> list[Op]:
    from check import check_identities, identity_cases
    from gen import identity_seeds

    expect = {"exit": 0, "all_ok": True, "cases": identity_cases(list(IDENTITY_NS), IDENTITY_COUNT)}
    ns = [a for n in IDENTITY_NS for a in ("--n", str(n))]
    return [Op(f"identities-{s}", ["identities", *ns, "--seed", str(s), "--count", str(IDENTITY_COUNT)],
               lambda code, out, err: check_identities(expect, code, out, err))
            for s in identity_seeds(seed, 4)]


def solve_expect(grids=SOLVE_GRIDS) -> dict:
    return {"exit": 0, "grids": len(grids), "order": (1.5, 2.5), "residual_max": 1e-6}


def solve_argv(path: str, grids=SOLVE_GRIDS) -> list[str]:
    return ["solve", path, *(a for m in grids for a in ("--grid", str(m))), "--tol", "1e-10"]


def conformal_deck(seed: int, workdir: Path) -> list[Op]:
    from check import check_solve
    from gen import solve_docs

    expect = solve_expect()
    return [Op(f"solve-{i}", solve_argv(write_doc(workdir, f"solve-{i}", doc)),
               lambda code, out, err: check_solve(expect, code, out, err))
            for i, doc in enumerate(solve_docs(seed, 3))]


WORKLOADS = {
    "check-docs": Workload(EXACT_SETUP, 3, 25, check_docs_deck),
    "identity-suite": Workload(EXACT_SETUP, 3, 4, identity_deck),
    "conformal-solve": Workload(IMPORT_SETUP, 5, 3, conformal_deck),
}


class Runner:
    """Spawns `hkt` processes one at a time and times each from spawn to exit."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        # A fixed hash seed keeps set and dict orders, and with them the traced
        # counts, the same from run to run.
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")

    def spawn(self, cmd: list[str]) -> tuple[int, float, float, str, str]:
        """(exit code, wall s, max RSS MB, stdout, stderr) of one process."""
        out_path, err_path = self.workdir / "stdout.txt", self.workdir / "stderr.txt"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), _kill, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                # Interrupted, for example by SIGTERM: leave no child running.
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        return code, wall, usage.ru_maxrss / 1024.0, out_path.read_text(), err_path.read_text()

    def run_op(self, op: Op, traced: bool) -> Sample:
        spans_path = self.workdir / "spans.json"
        if traced:
            spans_path.unlink(missing_ok=True)
            cmd = [sys.executable, str(BENCH / "tracer.py"), str(spans_path), *op.argv]
        else:
            cmd = [sys.executable, "-m", "hktcalc.cli", *op.argv]
        code, wall, rss, out, err = self.spawn(cmd)
        failure = op.check(code, out, err)
        if code == -signal.SIGKILL:
            failure = KILLED
        try:
            report = json.loads(out)
        except json.JSONDecodeError:
            report = {}
        spans = None
        if traced and failure is None:
            spans = json.loads(spans_path.read_text())
        return Sample(op.name, wall, rss, failure, traced, report if isinstance(report, dict) else {}, spans)


def _terminate(signum, frame) -> None:
    raise SystemExit(128 + signum)


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def measure_setup(runner: Runner, workload: Workload) -> list[float]:
    times = []
    for _ in range(workload.setup_reps):
        code, wall, _, _, err = runner.spawn([sys.executable, "-c", workload.setup_code])
        if code != 0:
            raise RuntimeError(f"set-up failed: {err.strip()[-300:]}")
        times.append(wall)
    return times


def run_ops(runner: Runner, deck: list[Op], seconds: float, min_ops: int,
            trace: bool) -> tuple[list[Sample], float]:
    """Whole rounds over the deck until `seconds` and `min_ops` are both reached."""
    samples: list[Sample] = []
    start = time.perf_counter()
    plain = 0
    while plain < min_ops or time.perf_counter() - start < seconds:
        for op in deck:
            for traced in ((False, True) if trace else (False,)):
                sample = runner.run_op(op, traced)
                samples.append(sample)
                if sample.failure == KILLED:
                    return samples, time.perf_counter() - start
            plain += 1
    return samples, time.perf_counter() - start


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile with >= 10 samples beyond.

    With 20 or fewer samples that percentile is at or below the median, so
    it is no tail; the maximum is reported instead, as percentile 100 with
    0 samples beyond.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = n - 10  # 1-based rank of the value with exactly ten samples above it
    if 2 * rank <= n:
        return ordered[-1], 100.0, 0
    return ordered[rank - 1], 100.0 * rank / n, 10


def end_to_end(samples: list[Sample], loop_s: float, setup: list[float]) -> tuple[dict, dict]:
    ok = [s for s in samples if s.failure is None]
    # A failed op counts as the slowest possible op of the run.
    walls = [s.wall_s if s.failure is None else loop_s for s in samples]
    tail_value, pct, beyond = tail(walls)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_p50_s": (statistics.median(walls), "s"),
        "op_tail_s": (tail_value, "s"),
        "ops_per_s": (len(ok) / loop_s, "1/s"),
        "peak_rss_mb": (max(s.maxrss_mb for s in samples), "MB"),
    }
    extra = {
        "fail_frac": {"value": (len(samples) - len(ok)) / len(samples), "unit": "ratio"},
        "op_tail": {"percentile": pct, "samples": len(walls), "samples_beyond": beyond},
        "setup_samples_s": setup,
    }
    return metrics, extra


def layer_totals(spans: dict) -> dict[str, list[float]]:
    """name -> [calls, inclusive s, self s] for one traced op.

    Inclusive time counts only the outermost span of a name, so recursion
    is not counted twice; self time is a span's duration minus the
    durations of its direct children.
    """
    names = spans["names"]
    info = {sid: (parent, idx, end - start) for sid, parent, idx, start, end in spans["spans"]}
    child_time: dict[int, float] = {}
    for sid, (parent, _, dur) in info.items():
        child_time[parent] = child_time.get(parent, 0.0) + dur
    totals: dict[str, list[float]] = {}
    for sid, (parent, idx, dur) in info.items():
        row = totals.setdefault(names[idx], [0, 0.0, 0.0])
        row[0] += 1
        row[2] += dur - child_time.get(sid, 0.0)
        up = parent
        while up in info and info[up][1] != idx:
            up = info[up][0]
        if up not in info:
            row[1] += dur
    return totals


def per_layer(samples: list[Sample]) -> tuple[dict, dict]:
    traced = [s for s in samples if s.traced and s.spans is not None]
    plain = [s for s in samples if not s.traced and s.failure is None]
    count = max(1, len(traced))
    sums: dict[str, list[float]] = {}
    counts: dict[str, float] = {}
    for s in traced:
        for name, row in layer_totals(s.spans).items():
            acc = sums.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += row[i]
        for name, value in s.spans["counts"].items():
            counts[name] = counts.get(name, 0) + value

    def mean(name: str, i: int) -> float:
        return sums.get(name, [0, 0.0, 0.0])[i] / count

    metrics: dict[str, tuple[float, str]] = {}
    startup = [s.wall_s - s.report["timings"]["total_s"] for s in plain
               if "total_s" in s.report.get("timings", {})]
    metrics["cli.startup_s"] = (statistics.median(startup) if startup else 0.0, "s")
    overhead = 0.0
    if traced and plain:
        overhead = statistics.median(s.wall_s for s in traced) - statistics.median(s.wall_s for s in plain)
    metrics["trace.overhead_s"] = (overhead, "s")
    for name in TIMED:
        metrics[f"{name}.s"] = (mean(name, 1), "s")
    for name in SPANNED:
        metrics[f"{name}.calls"] = (mean(name, 0), "count")
        metrics[f"{name}.s"] = (mean(name, 1), "s")
        metrics[f"{name}.self_s"] = (mean(name, 2), "s")
    for name in COUNTED:
        metrics[name] = (counts.get(name, 0) / count, "count")
    iterations = {m: 0.0 for m in SOLVE_GRIDS}
    for s in traced:
        for m, run in zip(SOLVE_GRIDS, s.report.get("data", {}).get("runs", [])):
            iterations[m] += run.get("iterations", 0) / count
    for m in SOLVE_GRIDS:
        metrics[f"elliptic.cg_iterations.m{m}"] = (iterations[m], "count")
    last = SOLVE_GRIDS[-1]
    metrics[f"elliptic.s_per_iteration.m{last}"] = (
        mean(f"elliptic.solve_potential.m{last}", 1) / max(1.0, iterations[last]), "s")
    extra = {"traced_ops": len(traced), "plain_ops": len(plain)}
    return metrics, extra


def environment(seed: int) -> dict:
    def command(*cmd: str) -> str:
        try:
            return subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=10).stdout
        except (OSError, subprocess.SubprocessError):
            return ""

    lscpu = dict(line.split(":", 1) for line in command("lscpu").splitlines() if ":" in line)
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    import numpy

    return {
        # The checkout may sit inside another repository; ask git only about this one.
        "git_sha": (command("git", "rev-parse", "HEAD").strip() or None) if (ROOT / ".git").exists() else None,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": lscpu.get("Model name", "").strip() or platform.processor() or None,
        "l3_cache": lscpu.get("L3 cache", "").strip() or None,
        "seed": seed,
    }


def _emit(record: dict, metrics: dict, attempted: int, failed: int) -> None:
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def prepare(seed: int) -> Path:
    """Check the checkout, put src/ and bench/ on the path, make the work dir."""
    if not (SRC / "hktcalc" / "cli.py").is_file():
        raise SystemExit(f"error: no hktcalc source under {SRC}; run from a source checkout")
    sys.path[:0] = [str(SRC), str(BENCH)]
    workdir = WORK / f"{os.getpid()}-{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    return workdir


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    signal.signal(signal.SIGTERM, _terminate)
    workdir = prepare(args.seed)
    try:
        runner = Runner(workdir, time.monotonic() + RUN_DEADLINE_S)
        deck = workload.deck(args.seed, workdir)
        # Untimed warm-up: byte-compile the package once, as an install would.
        runner.spawn([sys.executable, "-c", IMPORT_SETUP])
        setup = [] if args.trace else measure_setup(runner, workload)
        # A traced run needs one round for its per-op averages; each op runs twice.
        min_ops = len(deck) if args.trace else workload.min_ops
        samples, loop_s = run_ops(runner, deck, args.seconds, min_ops, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = [s for s in samples if s.failure is not None]
    if args.trace:
        metrics, extra = per_layer(samples)
    else:
        metrics, extra = end_to_end(samples, loop_s, setup)
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop_s": loop_s,
        "env": environment(args.seed),
        "ops": [[s.op, round(s.wall_s, 4), s.traced, s.failure] for s in samples],
        **extra,
    }
    for s in failed:
        print(f"FAILED {s.op}: {s.failure}", file=sys.stderr)
    _emit(record, metrics, len(samples), len(failed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
