import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from hktcalc.cli import (
    BLAS_THREAD_VARIABLES,
    EXIT_CHECK_FAILED,
    EXIT_INPUT_ERROR,
    EXIT_INTERNAL_ERROR,
    EXIT_OK,
    EXIT_SOLVER_ERROR,
    main,
)
from hktcalc.documents import DocumentError, InputDocument
from hktcalc.forms import KForm
from hktcalc.geometry import conformal_metric
from hktcalc.scalars import Polynomial

from conftest import bench_check_cases, flat_form, quarter_norm_potential


def x(i):
    return Polynomial.variable(4, i)


def metric_doc(rows):
    return {
        "kind": "metric",
        "model": {"n": 1, "convention": "left"},
        "payload": {"g": [[p.to_json() for p in row] for row in rows]},
    }


def flat_metric_doc():
    from hktcalc import HypercomplexModel

    return metric_doc(conformal_metric(HypercomplexModel(1), Polynomial.constant(4, 1)))


def conformal_doc(phi=None, box=(-1.0, 1.0), dirichlet=None):
    phi = phi if phi is not None else Polynomial.constant(4, 1) + x(0) * x(0)
    payload = {"phi": phi.to_json(), "box": list(box)}
    if dirichlet is not None:
        payload["dirichlet"] = dirichlet.to_json()
    return {
        "kind": "conformal4d",
        "model": {"n": 1},
        "payload": payload,
    }


def negative_form_doc():
    import random

    from hktcalc.batteries import random_a11_form
    from hktcalc import HypercomplexModel

    model = HypercomplexModel(2)
    form = random_a11_form(model, random.Random(7))
    return {
        "kind": "form",
        "model": {"n": 2},
        "payload": {"form": form.to_json()},
    }


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestInputDocument:
    def test_metric_document(self):
        doc = InputDocument.from_json(flat_metric_doc())
        assert doc.kind == "metric" and doc.model.n == 1

    def test_digest_is_deterministic(self):
        a = InputDocument.from_json(flat_metric_doc())
        b = InputDocument.from_json(flat_metric_doc())
        assert a.digest() == b.digest()

    def test_unknown_kind(self):
        with pytest.raises(DocumentError):
            InputDocument.from_json({"kind": "nope", "model": {"n": 1}, "payload": {}})

    def test_dimension_mismatch(self):
        bad = {
            "kind": "form",
            "model": {"n": 2},
            "payload": {"form": flat_form("I").to_json()},
        }
        with pytest.raises(DocumentError):
            InputDocument.from_json(bad)

    def test_conformal_requires_n1(self):
        doc = conformal_doc()
        doc["model"]["n"] = 2
        with pytest.raises(DocumentError):
            InputDocument.from_json(doc)

    @pytest.mark.parametrize("n", [0, 4, 40, 2.5, "2.5", True])
    def test_model_n_outside_one_to_three_rejected(self, n):
        doc = {"kind": "potential", "model": {"n": n},
               "payload": {"mu": quarter_norm_potential(4).to_json()}}
        with pytest.raises(DocumentError, match="model.n"):
            InputDocument.from_json(doc)

    # A falsy model ([], 0, false, "" or null) was read as {} and checked
    # as n = 1 with exit 0.
    @pytest.mark.parametrize("model", [[3], [], 0, False, "", None], ids=repr)
    def test_model_not_an_object_rejected(self, tmp_path, capsys, model):
        doc = {"kind": "potential", "model": model, "payload": {"mu": quarter_norm_potential(4).to_json()}}
        with pytest.raises(DocumentError, match="model must be a JSON object"):
            InputDocument.from_json(doc)
        assert main(["check", write(tmp_path, "model.json", doc)]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: model must be a JSON object\n"

    def test_missing_model_defaults_to_n1(self):
        doc = {"kind": "potential", "payload": {"mu": quarter_norm_potential(4).to_json()}}
        assert InputDocument.from_json(doc).model.n == 1

    def test_model_n3_accepted(self):
        doc = {"kind": "potential", "model": {"n": 3},
               "payload": {"mu": quarter_norm_potential(12).to_json()}}
        assert InputDocument.from_json(doc).model.n == 3

    def test_potential_document(self):
        doc = {
            "kind": "potential",
            "model": {"n": 1},
            "payload": {"mu": quarter_norm_potential(4).to_json()},
        }
        parsed = InputDocument.from_json(doc)
        assert parsed.payload == quarter_norm_potential(4)


class TestIdentitiesCommand:
    def test_small_run_passes(self, capsys):
        assert main(["identities", "--n", "1", "--seed", "42", "--count", "4"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["all_ok"]
        assert report["seed"] == 42

    def test_zero_count_vacuous_with_warning(self, capsys):
        assert main(["identities", "--count", "0"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["warnings"]

    def test_n3_suite_passes(self, capsys):
        assert main(["identities", "--n", "3", "--count", "2"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["all_ok"] and report["data"]["n"] == [3]
        assert all(check["name"].endswith("[n=3]") for check in report["checks"])
        equivalence = {c["name"]: c for c in report["checks"]}["hkt-equivalence[n=3]"]
        assert equivalence["ok"] and equivalence["cases"] == 2

    @pytest.mark.parametrize("argv", [["--n", "4"], ["--n", "0"], ["--n", "1", "--n", "40"],
                                      ["--count", "-3"], ["--count", "1000000000"]])
    def test_out_of_range_flags_are_input_errors(self, capsys, argv):
        assert main(["identities", *argv]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: --")
        assert len(captured.err.strip().splitlines()) == 1

    def test_count_above_limit_refused_before_any_table(self, capsys, monkeypatch):
        import hktcalc.batteries as batteries
        import hktcalc.cli as cli
        import hktcalc.salamon as salamon

        tables, suites = [], []
        original = salamon.ProjectorTable.__init__

        def table_spy(self, model):
            tables.append(model.n)
            original(self, model)

        monkeypatch.setattr(salamon.ProjectorTable, "__init__", table_spy)
        # `hkt identities` imports the suite when it runs.
        monkeypatch.setattr(batteries, "identity_suite", lambda *args: suites.append(args) or [])
        argv = ["identities", "--n", "1", "--n", "2", "--n", "3", "--count"]
        assert main([*argv, str(cli.MAX_COUNT + 1)]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == "" and tables == [] and suites == []
        assert captured.err == f"input error: --count must be between 0 and {cli.MAX_COUNT}, got {cli.MAX_COUNT + 1}\n"
        # The limit itself is accepted (the suite is stubbed out here).
        assert main([*argv, str(cli.MAX_COUNT)]) == EXIT_OK
        assert suites == [([1, 2, 3], 0, cli.MAX_COUNT)]
        capsys.readouterr()

    def test_determinism_modulo_timings(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        args = ["identities", "--n", "1", "--seed", "9", "--count", "3"]
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        a = json.loads(out1.read_text())
        b = json.loads(out2.read_text())
        a.pop("timings")
        b.pop("timings")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_default_command_is_identities(self, capsys):
        assert main(["identities", "--n", "1", "--count", "1"]) == EXIT_OK
        capsys.readouterr()


class TestCheckCommand:
    def test_flat_metric(self, tmp_path, capsys):
        path = write(tmp_path, "flat.json", flat_metric_doc())
        assert main(["check", path]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["verdicts"]["is_hkt"]
        assert report["data"]["hkt_report"]["strong"]

    def test_conformal_document(self, tmp_path, capsys, monkeypatch):
        import hktcalc.geometry as geometry

        calls = []
        original = geometry.is_hkt_definition

        def spy(model, f_i):
            calls.append(f_i)
            return original(model, f_i)

        # A conformal factor gets the report of its metric's F_I, and the
        # torsion comes from that report's one definition check.
        monkeypatch.setattr(geometry, "is_hkt_definition", spy)
        path = write(tmp_path, "conf.json", conformal_doc())
        assert main(["check", path]) == EXIT_OK
        assert len(calls) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["verdicts"] == {"is_hkt": True}
        assert sorted(report["data"]) == ["hkt_report", "kind"]
        result = report["data"]["hkt_report"]
        assert result["definition_ok"] and result["salamon_ok"] and result["twistor_ok"]
        # For g = (1 + x0^2) delta the torsion is 2 x0 dx1^dx2^dx3, not closed.
        assert result["torsion"] == KForm(3, 4, {(1, 2, 3): x(0) * 2}).to_json()
        assert result["strong"] is False

    def test_negative_form_fails_with_residuals(self, tmp_path, capsys):
        path = write(tmp_path, "neg.json", negative_form_doc())
        assert main(["check", path]) == EXIT_CHECK_FAILED
        report = json.loads(capsys.readouterr().out)
        assert not report["verdicts"]["is_hkt"]
        assert report["data"]["hkt_report"]["details"]["salamon"]["residual_D"]["nonzero_terms"] > 0

    def test_potential_document(self, tmp_path, capsys):
        doc = {
            "kind": "potential",
            "model": {"n": 1},
            "payload": {"mu": quarter_norm_potential(4).to_json()},
        }
        path = write(tmp_path, "mu.json", doc)
        assert main(["check", path]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["verdicts"]["theta_certificate"]
        assert report["verdicts"]["d_closed"]
        assert report["verdicts"]["form_salamon_11"]

    def test_affine_potential_report(self, tmp_path, capsys):
        # An affine mu has F_I = 0 and goes through the same checks as any
        # other potential: the zero form is HKT with zero torsion, and the
        # metric it fixes is zero at every sample point.
        from hktcalc.geometry import default_sample_points

        mu = x(0) * 3 - x(2) + Polynomial.constant(4, 5)
        doc = {"kind": "potential", "model": {"n": 1}, "payload": {"mu": mu.to_json()}}
        path = write(tmp_path, "affine.json", doc)
        assert main(["check", path]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        del report["timings"]
        zero = {"max_height": 0, "nonzero_terms": 0}
        hkt_report = {
            "definition_ok": True,
            "details": {
                "definition": {"ok": True, "residual_IJ": zero, "residual_JK": zero},
                "salamon": {"ok": True, "residual_D": zero},
                "twistor": {"ok": True, "points": [{**zero, "point": point}
                                                   for point in (["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"])]},
            },
            "is_hkt": True,
            "salamon_ok": True,
            "signature_samples": [{"negative": 0, "point": [str(c) for c in point], "positive": 0, "zero": 4}
                                  for point in default_sample_points(4)],
            "strong": True,
            "torsion": {"dim": 4, "k": 3, "terms": []},
            "twistor_ok": True,
        }
        assert report == {
            "all_ok": True,
            "checks": [],
            "command": "check",
            "data": {"form_I": {"dim": 4, "k": 2, "terms": []}, "hkt_report": hkt_report, "kind": "potential"},
            "input_digest": "c6fda9458a4fa719ac61a74dae1e06744e3dc5fafc080ba0b4de1ec08ef3d341",
            "seed": None,
            "verdicts": {"d_closed": True, "form_salamon_11": True, "theta_certificate": True},
            "warnings": [],
        }

    def test_non_salamon_form_is_one_input_error(self, tmp_path, capsys):
        doc = {"kind": "form", "model": {"n": 1},
               "payload": {"form": flat_form("J").to_json()}}
        path = write(tmp_path, "form.json", doc)
        assert main(["check", path]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: form document does not carry a Salamon (1,1)-form\n"

    @pytest.mark.parametrize("kind", ["metric", "metric-one-entry", "form"])
    def test_wrong_coefficient_dimension_names_the_payload(self, tmp_path, capsys, kind):
        # A metric's mismatch surfaced only in the check, as an unnamed
        # "coefficient polynomial dimension mismatch".
        five = {"dim": 5, "terms": [{"num": "1", "den": "1", "exp": [0, 0, 0, 0, 0]}]}
        zero = {"dim": 5, "terms": []}
        if kind == "metric":
            doc = {"kind": "metric", "model": {"n": 1},
                   "payload": {"g": [[five if i == j else zero for j in range(4)] for i in range(4)]}}
        elif kind == "metric-one-entry":
            # One odd entry below the diagonal, which F_I does not store.
            doc = flat_metric_doc()
            doc["payload"]["g"][1][0] = zero
            kind = "metric"
        else:
            doc = {"kind": "form", "model": {"n": 1},
                   "payload": {"form": {"k": 2, "dim": 4, "terms": [{"idx": [0, 1], "poly": five}]}}}
        assert main(["check", write(tmp_path, f"{kind}.json", doc)]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: payload ({kind}): coefficient polynomial dimension mismatch\n"

    # Each breaks one property: symmetry, I-invariance, J-invariance (the
    # first two make g(I., .) fail to alternate, the third F_I fail to be
    # of type (1,1)), and the shape.
    BAD_METRICS = {
        "non-symmetric": [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        "non-I-invariant": [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        "non-J-invariant": [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        "not-square": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
    }

    @pytest.mark.parametrize("name", BAD_METRICS)
    def test_invalid_metric_is_one_input_error(self, tmp_path, capsys, name):
        rows = [[Polynomial.constant(4, v) for v in row] for row in self.BAD_METRICS[name]]
        assert main(["check", write(tmp_path, "bad.json", metric_doc(rows))]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: payload (metric): ")
        assert len(captured.err.strip().splitlines()) == 1

    def test_one_salamon_type_check_per_document(self, tmp_path, capsys, monkeypatch):
        # Each metric and form document tests the type of its F_I once; for
        # a metric that call is its J-invariance check.  The F_I of a
        # potential or conformal factor is (1,1) by construction, and
        # `kahler_forms` in the HKT report enforces it.
        import hktcalc
        import hktcalc.salamon as salamon

        calls = []
        original = salamon.is_salamon_11

        def spy(model, form):
            calls.append(form)
            return original(model, form)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "hktcalc" and getattr(module, "is_salamon_11", None) is original:
                monkeypatch.setattr(module, "is_salamon_11", spy)
        counts = {}
        for case in bench_check_cases(1001):
            calls.clear()
            path = write(tmp_path, f"{case['name']}.json", case["doc"])
            assert main(["check", path]) == case["expect"]["exit"]
            counts[case["name"]] = len(calls)
        capsys.readouterr()
        assert counts == {"form-n2-negative": 1, "form-n2-potential": 1, "potential-n2": 0,
                          "metric-n1-conformal": 1, "conformal4d-n1": 0}
        assert hktcalc.is_salamon_11 is spy

    def test_one_kahler_form_per_axis_per_document(self, tmp_path, capsys, monkeypatch):
        # A metric or conformal factor enters as its F_I, built once; a form
        # document is its F_I, and a potential's is built from mu.  Every
        # document's definition check reads F_J and F_K off F_I once.
        import hktcalc.geometry as geometry

        calls = []
        for name in ("kahler_form", "kahler_forms"):
            original = getattr(geometry, name)

            def spy(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            for module_name, module in list(sys.modules.items()):
                if module_name.split(".")[0] == "hktcalc" and getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, spy)
        counts = {}
        for case in bench_check_cases(1001):
            calls.clear()
            path = write(tmp_path, f"{case['name']}.json", case["doc"])
            assert main(["check", path]) == case["expect"]["exit"]
            counts[case["name"]] = (calls.count("kahler_form"), calls.count("kahler_forms"))
        capsys.readouterr()
        assert counts == {"form-n2-negative": (0, 1), "form-n2-potential": (0, 1), "potential-n2": (0, 1),
                          "metric-n1-conformal": (1, 1), "conformal4d-n1": (1, 1)}

    def test_one_potential_form_build_per_document(self, tmp_path, capsys, monkeypatch):
        # The theta certificate compares against the F_I the check built.
        import hktcalc.geometry as geometry

        calls = []
        original = geometry.potential_to_forms

        def spy(model, mu):
            calls.append(mu)
            return original(model, mu)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "hktcalc" and getattr(module, "potential_to_forms", None) is original:
                monkeypatch.setattr(module, "potential_to_forms", spy)
        counts = {}
        for case in bench_check_cases(1001):
            calls.clear()
            path = write(tmp_path, f"{case['name']}.json", case["doc"])
            assert main(["check", path]) == case["expect"]["exit"]
            counts[case["name"]] = len(calls)
        capsys.readouterr()
        assert counts == {"form-n2-negative": 0, "form-n2-potential": 0, "potential-n2": 1,
                          "metric-n1-conformal": 0, "conformal4d-n1": 0}

    def test_every_document_kind_carries_one_hkt_report(self, tmp_path, capsys):
        # Metric, form, potential and conformal4d documents all answer "is
        # this F_I HKT?" through one report, whose three criteria agree with
        # each other and with the document's verdict.
        kinds = set()
        for case in bench_check_cases(401):
            path = write(tmp_path, f"{case['name']}.json", case["doc"])
            assert main(["check", path]) == case["expect"]["exit"]
            report = json.loads(capsys.readouterr().out)
            result = report["data"]["hkt_report"]
            verdict = report["verdicts"]["d_closed" if report["data"]["kind"] == "potential" else "is_hkt"]
            assert {result[key] for key in ("definition_ok", "salamon_ok", "twistor_ok", "is_hkt")} == {verdict}, \
                case["name"]
            kinds.add(report["data"]["kind"])
        assert kinds == {"metric", "form", "potential", "conformal4d"}

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["check", str(path)]) == EXIT_INPUT_ERROR

    def test_missing_file(self):
        assert main(["check", "/nonexistent/file.json"]) == EXIT_INPUT_ERROR


class TestOutPath:
    @pytest.mark.parametrize("command", ["check", "identities", "solve"])
    def test_unwritable_out_is_refused_before_any_work(self, tmp_path, capsys, monkeypatch, command):
        # The report was written only at the end: a whole run, then a
        # FileNotFoundError traceback and exit 1.
        import hktcalc.cli as cli

        argv = {
            "check": ["check", write(tmp_path, "flat.json", flat_metric_doc())],
            "identities": ["identities", "--n", "1", "--count", "1"],
            "solve": ["solve", write(tmp_path, "conf.json", conformal_doc()), "--grid", "9"],
        }[command]
        for name in ("cmd_check", "cmd_identities", "cmd_solve"):
            monkeypatch.setattr(cli, name, lambda args: pytest.fail("work started before --out was checked"))
        for out in (tmp_path / "missing" / "x.json", tmp_path):
            assert main(argv + ["--out", str(out)]) == EXIT_INPUT_ERROR
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"input error: cannot write --out {out}: ")
            assert len(captured.err.strip().splitlines()) == 1

    def test_csv_report_path_is_refused_before_any_work(self, tmp_path, capsys, monkeypatch):
        # The grid CSV goes to the report path with the suffix .csv, so a
        # report named R.csv was overwritten by the slice.
        import hktcalc.cli as cli

        monkeypatch.setattr(cli, "cmd_solve", lambda args: pytest.fail("work started before --out was checked"))
        out = tmp_path / "R.csv"
        out.write_text("earlier report\n")
        path = write(tmp_path, "conf.json", conformal_doc())
        assert main(["solve", path, "--grid", "9", "--out", str(out)]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"input error: --out {out} ")
        assert len(captured.err.strip().splitlines()) == 1
        assert out.read_text() == "earlier report\n"

    def test_unwritable_csv_path_is_refused_before_any_work(self, tmp_path, capsys, monkeypatch):
        # The slice goes to the report path with the suffix .csv; a directory
        # there failed only after the solve, with an IsADirectoryError
        # traceback and exit 1.
        monkeypatch.setattr(InputDocument, "load", lambda path: pytest.fail("the document was loaded"))
        out = tmp_path / "report.json"
        out.write_text("earlier report\n")
        (tmp_path / "report.csv").mkdir()
        path = write(tmp_path, "conf.json", conformal_doc())
        assert main(["solve", path, "--grid", "9", "--out", str(out)]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"input error: cannot write --out {tmp_path / 'report.csv'}: ")
        assert len(captured.err.strip().splitlines()) == 1
        assert out.read_text() == "earlier report\n"

    def test_repeated_grid_is_refused_before_any_work(self, tmp_path, capsys, monkeypatch):
        # Each repeat of --grid 65 ran another ~2 s solve of the same grid.
        import hktcalc.elliptic as elliptic

        monkeypatch.setattr(elliptic, "solve_potential",
                            lambda *args, **kwargs: pytest.fail("a grid was solved before the repeat was refused"))
        path = write(tmp_path, "conf.json", conformal_doc())
        assert main(["solve", path, "--grid", "9", "--grid", "17", "--grid", "9"]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: --grid 9 is given twice; each grid is solved once\n"

    @pytest.mark.parametrize("command", ["check", "solve"])
    def test_missing_document_leaves_no_file(self, tmp_path, capsys, command):
        # The --out probe created the report, and for solve its slice, and
        # the run that then stopped on the missing document left both empty.
        out = tmp_path / "r.json"
        assert main([command, str(tmp_path / "missing.json"), "--out", str(out)]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: ")
        assert len(captured.err.strip().splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

    def test_earlier_report_survives_an_input_error(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        out.write_text("earlier report\n")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["check", str(bad), "--out", str(out)]) == EXIT_INPUT_ERROR
        assert out.read_text() == "earlier report\n"


class TestSolveCommand:
    def test_flat_solve(self, tmp_path, capsys):
        doc = conformal_doc(phi=Polynomial.constant(4, 1))
        path = write(tmp_path, "flat.json", doc)
        out = tmp_path / "report.json"
        assert main(["solve", path, "--grid", "9", "--tol", "1e-10", "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        run = report["data"]["runs"][0]
        assert run["residual_max"] < 1e-7
        assert (tmp_path / "report.csv").exists()

    def test_csv_lands_next_to_report_in_a_dotted_directory(self, tmp_path):
        # The CSV path was the --out text up to its last dot: out.d/report
        # wrote out.csv beside the directory.
        path = write(tmp_path, "flat.json", conformal_doc(phi=Polynomial.constant(4, 1)))
        (tmp_path / "out.d").mkdir()
        assert main(["solve", path, "--grid", "7", "--out", str(tmp_path / "out.d" / "report")]) == EXIT_OK
        assert sorted(p.name for p in (tmp_path / "out.d").iterdir()) == ["report", "report.csv"]
        assert not (tmp_path / "out.csv").exists()

    def test_devnull_out_writes_no_csv(self, tmp_path, capsys, monkeypatch):
        import hktcalc.elliptic as elliptic

        written = []
        monkeypatch.setattr(elliptic.Grid4D, "export_slice_csv", lambda grid, csv_path: written.append(csv_path))
        path = write(tmp_path, "flat.json", conformal_doc(phi=Polynomial.constant(4, 1)))
        assert main(["solve", path, "--grid", "7", "--out", os.devnull]) == EXIT_OK
        assert written == []
        assert main(["solve", path, "--grid", "7", "--out", str(tmp_path / "report.json")]) == EXIT_OK
        assert written == [tmp_path / "report.csv"]

    def test_order_estimate_with_two_grids(self, tmp_path, capsys):
        from conftest import norm_squared

        phi = Polynomial.constant(4, 1) + (x(0) * x(0) + x(1) * x(1)) * Fraction(1, 4)
        mu_star = norm_squared(4) * Fraction(1, 2) + (x(0) ** 4 + x(1) ** 4) * Fraction(1, 12)
        path = write(tmp_path, "conf.json", conformal_doc(phi=phi, dirichlet=mu_star))
        rc = main(["solve", path, "--grid", "9", "--grid", "17", "--tol", "1e-11"])
        captured = capsys.readouterr().out
        assert rc == EXIT_OK
        report = json.loads(captured)
        order = report["data"]["runs"][-1]["order_estimate"]
        assert 1.5 <= order <= 2.5

    def test_zero_form_residual_gives_no_order_estimate(self, tmp_path, capsys):
        # phi = 1 with quadratic Dirichlet data on [0, 1]: the m = 5 form
        # residual reads exactly 0.0, and log(0.0 / e) raised a ValueError
        # traceback with exit 1.
        from conftest import norm_squared

        doc = conformal_doc(phi=Polynomial.constant(4, 1), box=(0.0, 1.0), dirichlet=norm_squared(4) * Fraction(1, 2))
        path = write(tmp_path, "quadratic.json", doc)
        assert main(["solve", path, "--grid", "5", "--grid", "9"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        runs = json.loads(captured.out)["data"]["runs"]
        assert runs[0]["form_residual_max"] == 0.0
        assert [run["order_estimate"] for run in runs] == [None, None]

    @pytest.mark.parametrize("grids", [(9, 17), (17, 9)])
    def test_rising_form_residual_gives_no_order_estimate(self, tmp_path, capsys, grids):
        # phi = 1 with quadratic Dirichlet data on [0, 1]: the form residual
        # sits at rounding level and rises as the grid refines (about 4e-14
        # at m = 9 and 3e-13 at m = 17), and --grid 9 --grid 17 read an
        # order of -3.19.
        from conftest import norm_squared

        doc = conformal_doc(phi=Polynomial.constant(4, 1), box=(0.0, 1.0), dirichlet=norm_squared(4) * Fraction(1, 2))
        path = write(tmp_path, "quadratic.json", doc)
        assert main(["solve", path, *(arg for m in grids for arg in ("--grid", str(m)))]) == EXIT_OK
        runs = {run["m"]: run for run in json.loads(capsys.readouterr().out)["data"]["runs"]}
        assert 0 < runs[9]["form_residual_max"] < runs[17]["form_residual_max"]
        assert [run["order_estimate"] for run in runs.values()] == [None, None]

    def test_vanishing_factor_is_input_error(self, tmp_path, capsys):
        path = write(tmp_path, "bad.json", conformal_doc(phi=x(0)))
        assert main(["solve", path, "--grid", "7"]) == EXIT_INPUT_ERROR

    def test_wrong_kind_is_input_error(self, tmp_path):
        path = write(tmp_path, "metric.json", flat_metric_doc())
        assert main(["solve", path]) == EXIT_INPUT_ERROR

    def test_nonconvergence_exit_code(self, tmp_path, capsys, monkeypatch):
        import hktcalc.elliptic as elliptic
        from hktcalc.elliptic import SolverError

        def boom(*args, **kwargs):
            raise SolverError("no convergence")

        monkeypatch.setattr(elliptic, "solve_potential", boom)
        path = write(tmp_path, "flat.json", conformal_doc(phi=Polynomial.constant(4, 1)))
        assert main(["solve", path, "--grid", "7"]) == EXIT_SOLVER_ERROR

    @pytest.mark.parametrize("corruption", [1.0, float("nan")])
    def test_corrupted_residual_exit_code(self, tmp_path, capsys, monkeypatch, corruption):
        import hktcalc.elliptic as elliptic

        # The 9-point stencil of the geometric residual, which the solve
        # itself never runs.
        stencil = elliptic._second_diff_sum
        monkeypatch.setattr(elliptic, "_second_diff_sum", lambda full, h: stencil(full, h) + corruption)
        path = write(tmp_path, "flat.json", conformal_doc(phi=Polynomial.constant(4, 1)))
        assert main(["solve", path, "--grid", "7"]) == EXIT_SOLVER_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("solver error: geometric residual")
        assert len(captured.err.strip().splitlines()) == 1

    # A 3- or 4-node grid has no node 2 rows from every face for the
    # verification stencils; it was refused only after a whole solve.
    @pytest.mark.parametrize("grids", [["100000"], ["17", "100000"], ["2"], ["4"], ["9", "3"]])
    def test_grid_outside_range_refused_before_solving(self, tmp_path, capsys, monkeypatch, grids):
        import hktcalc.elliptic as elliptic

        def no_solve(*args, **kwargs):
            pytest.fail("a grid was solved before the out-of-range grid was refused")

        monkeypatch.setattr(elliptic, "solve_potential", no_solve)
        path = write(tmp_path, "flat.json", conformal_doc(phi=Polynomial.constant(4, 1)))
        argv = ["solve", path]
        for m in grids:
            argv += ["--grid", m]
        assert main(argv) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"input error: grid must have between 5 and {elliptic.MAX_GRID}")
        assert len(captured.err.strip().splitlines()) == 1

    @pytest.mark.parametrize("tol", ["inf", "nan", "-inf", "0"])
    def test_tolerance_must_be_positive_and_finite(self, tmp_path, capsys, monkeypatch, tol):
        # An infinite tolerance accepted the unsolved zero interior after 0
        # sweeps and reported it converged; a NaN one stalled on the first
        # sweep "above tol=nan".
        import hktcalc.elliptic as elliptic

        def no_solve(*args, **kwargs):
            pytest.fail(f"a grid was solved with --tol {tol}")

        monkeypatch.setattr(elliptic, "solve_potential", no_solve)
        path = write(tmp_path, "flat.json", conformal_doc(phi=Polynomial.constant(4, 1)))
        assert main(["solve", path, "--grid", "9", f"--tol={tol}"]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: tolerance must be a positive finite number")
        assert len(captured.err.strip().splitlines()) == 1

    def test_huge_tolerance_takes_one_sweep(self, tmp_path):
        # The zero start met any tol above max|b| (b = -4 phi plus face
        # terms): --tol 1e300 exited 0 with `converged` after 0 sweeps,
        # residual_max 67.2 and form_residual_max 5.15.  It now sweeps once
        # and reports what --tol 1e-10 does.
        from conftest import norm_squared

        phi = Polynomial.constant(4, 1) + (x(0) * x(0) + x(1) * x(1)) * Fraction(1, 4)
        mu_star = norm_squared(4) * Fraction(1, 2) + (x(0) ** 4 + x(1) ** 4) * Fraction(1, 12)
        path = write(tmp_path, "conf.json", conformal_doc(phi=phi, dirichlet=mu_star))
        runs, slices = [], []
        for tol in ("1e300", "1e-10"):
            out = tmp_path / f"tol{tol}.json"
            assert main(["solve", path, "--grid", "9", "--tol", tol, "--out", str(out)]) == EXIT_OK
            report = json.loads(out.read_text())
            assert report["verdicts"] == {"converged": True}
            runs.append(report["data"]["runs"][0])
            slices.append((tmp_path / f"tol{tol}.csv").read_bytes())
        huge, usual = runs
        assert huge["iterations"] == usual["iterations"] == 1
        assert huge["tol"] == 1e300
        assert {**huge, "tol": usual["tol"]} == usual
        assert slices[0] == slices[1]

    def test_report_carries_sweeps_and_converged(self, tmp_path, capsys):
        path = write(tmp_path, "flat.json", conformal_doc(phi=Polynomial.constant(4, 1)))
        assert main(["solve", path, "--grid", "9", "--grid", "5"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["verdicts"] == {"converged": True}
        runs = report["data"]["runs"]
        assert [run["iterations"] for run in runs] == [1, 1]
        # Each run names its grid, in --grid order.
        assert [(run["m"], run["unknowns"]) for run in runs] == [(9, 7**4), (5, 3**4)]


def zero_denominator_potential_doc():
    mu = quarter_norm_potential(4).to_json()
    mu["terms"][0]["den"] = "0"
    return {"kind": "potential", "model": {"n": 1}, "payload": {"mu": mu}}


def gaussian_conformal_doc():
    doc = conformal_doc()
    doc["payload"]["phi"]["terms"][0].update({"inum": "1", "iden": "1"})
    return doc


def zero_denominator_conformal_doc():
    doc = conformal_doc()
    doc["payload"]["phi"]["terms"][0]["den"] = "0"
    return doc


class TestFailureTaxonomy:
    @pytest.mark.parametrize("command", ["check", "solve"])
    @pytest.mark.parametrize("make_doc", [zero_denominator_potential_doc, gaussian_conformal_doc,
                                          zero_denominator_conformal_doc])
    def test_bad_coefficients_are_input_errors(self, tmp_path, capsys, command, make_doc):
        path = write(tmp_path, "bad.json", make_doc())
        assert main([command, path]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: payload")
        assert len(captured.err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", ["check", "solve"])
    def test_zero_denominator_prints_no_traceback(self, tmp_path, command):
        path = write(tmp_path, "bad.json", zero_denominator_potential_doc())
        proc = subprocess.run([sys.executable, "-m", "hktcalc.cli", command, path],
                              capture_output=True, text=True)
        assert proc.returncode == EXIT_INPUT_ERROR
        assert proc.stdout == ""
        assert proc.stderr.startswith("input error:") and "zero denominator" in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1

    def test_n4_document_prints_no_traceback(self, tmp_path):
        doc = {"kind": "potential", "model": {"n": 4},
               "payload": {"mu": quarter_norm_potential(16).to_json()}}
        path = write(tmp_path, "n4.json", doc)
        proc = subprocess.run([sys.executable, "-m", "hktcalc.cli", "check", path],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == EXIT_INPUT_ERROR
        assert proc.stdout == ""
        assert proc.stderr.startswith("input error: model.n must be between 1 and 3")
        assert len(proc.stderr.strip().splitlines()) == 1

    def test_huge_degree_is_refused_at_once(self, tmp_path):
        # Exact evaluation of x0^(10^8) at the signature sample points used
        # to run for more than a minute.
        g = {"dim": 4, "terms": [{"num": "2", "den": "1", "exp": [0, 0, 0, 0]},
                                 {"num": "1", "den": "1", "exp": [10**8, 0, 0, 0]}]}
        zero = {"dim": 4, "terms": []}
        doc = {"kind": "metric", "model": {"n": 1},
               "payload": {"g": [[g if i == j else zero for j in range(4)] for i in range(4)]}}
        path = write(tmp_path, "huge.json", doc)
        proc = subprocess.run([sys.executable, "-m", "hktcalc.cli", "check", path],
                              capture_output=True, text=True, timeout=30)
        assert proc.returncode == EXIT_INPUT_ERROR
        assert proc.stdout == ""
        assert proc.stderr.startswith("input error:") and "maximum degree 10000" in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1

    def test_float_coefficient_is_input_error(self, tmp_path, capsys):
        # {"num": 1.5, "exp": [0, 1.7, 0, 0]} used to be read as x1.
        mu = {"dim": 4, "terms": [{"num": 1.5, "den": "1", "exp": [0, 1.7, 0, 0]}]}
        path = write(tmp_path, "float.json", {"kind": "potential", "model": {"n": 1},
                                              "payload": {"mu": mu}})
        assert main(["check", path]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: payload (potential): ")
        assert "must be an integer" in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", ["check", "solve"])
    @pytest.mark.parametrize("num", ["9" * 5000, '"' + "9" * 5000 + '"'])
    def test_overlong_integer_names_field_and_limit(self, tmp_path, command, num):
        # A 5000-digit JSON integer is beyond Python's int conversion limit,
        # whose own message tells the user to change an interpreter setting.
        path = tmp_path / "long.json"
        path.write_text('{"kind": "conformal4d", "model": {"n": 1}, "payload": {"phi": {"dim": 4, '
                        '"terms": [{"num": %s, "den": "1", "exp": [0, 0, 0, 0]}]}}}' % num)
        proc = subprocess.run([sys.executable, "-m", "hktcalc.cli", command, str(path)],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == EXIT_INPUT_ERROR
        assert proc.stdout == ""
        assert proc.stderr.startswith("input error:")
        assert "num has 5000 digits" in proc.stderr and "4300" in proc.stderr
        assert "set_int_max_str_digits" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1

    def test_overlong_integer_in_an_unread_field_is_digested(self, tmp_path, capsys):
        path = tmp_path / "note.json"
        path.write_text('{"kind": "conformal4d", "model": {"n": 1}, "note": %s, "payload": {"phi": '
                        '{"dim": 4, "terms": [{"num": 2, "den": "1", "exp": [0, 0, 0, 0]}]}}}' % ("7" * 5000))
        assert main(["check", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["input_digest"]

    # Box entries as JSON text: (text, commands refusing it, words of the message).
    BAD_BOXES = [
        ('["nan", 1]', ("check", "solve"), "box entries must be finite JSON numbers"),
        ('[1, "2"]', ("check", "solve"), "box entries must be finite JSON numbers"),
        ("[true, 2]", ("check", "solve"), "box entries must be finite JSON numbers"),
        ("[NaN, 1]", ("check", "solve"), "box entries must be finite JSON numbers"),
        ("[-1, 1e400]", ("check", "solve"), "box entries must be finite JSON numbers"),
        ("[%s, 1]" % ("9" * 5000), ("check", "solve"), "box entries must be finite JSON numbers"),
        ("[%s, 1]" % ("9" * 400), ("check", "solve"), "integer beyond the float range"),
        ("[1, 0]", ("check", "solve"), "box must satisfy lo < hi"),
        ("[0, 1, 2]", ("check", "solve"), "box must be a list [lo, hi]"),
        # h = 2.5e-201 at --grid 5: h * h underflows to zero.
        ("[0, 1e-200]", ("solve",), "box [0.0, 1e-200] gives grid spacing"),
        # h = 5e299: h * h overflows.
        ("[-1e300, 1e300]", ("solve",), "box [-1e+300, 1e+300] gives grid spacing"),
        # h = 5e-162: h * h is positive but subnormal, 4/h^2 overflows.
        ("[0, 2e-161]", ("solve",), "box [0.0, 2e-161] gives grid spacing"),
        # h = 2.5e-154: h * h is a normal float, but the DST eigenvalues
        # 16/h^2 (2(m-1))^4 overflow; at the parent the solve stalled (exit 3).
        ("[0, 1e-153]", ("solve",), "box [0.0, 1e-153] gives grid spacing"),
    ]

    @staticmethod
    def _box_doc(tmp_path, box_text):
        path = tmp_path / "box.json"
        path.write_text('{"kind": "conformal4d", "model": {"n": 1}, "payload": {"phi": {"dim": 4, '
                        '"terms": [{"num": 2, "den": "1", "exp": [0, 0, 0, 0]}]}, "box": %s}}' % box_text)
        return str(path)

    @pytest.mark.parametrize("command", ["check", "solve"])
    @pytest.mark.parametrize("box_text, refused_by, words", BAD_BOXES)
    def test_bad_box_is_one_input_error(self, tmp_path, capsys, command, box_text, refused_by, words):
        path = self._box_doc(tmp_path, box_text)
        argv = [command, path] + (["--grid", "5"] if command == "solve" else [])
        if command not in refused_by:
            assert main(argv) == EXIT_OK
            return
        assert main(argv) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: box") and words in captured.err
        if command == "solve" and "spacing" in words:
            assert "on grid m = 5," in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    @pytest.mark.parametrize("box_text, refused_by, words", BAD_BOXES)
    def test_bad_box_prints_no_traceback(self, tmp_path, box_text, refused_by, words):
        path = self._box_doc(tmp_path, box_text)
        for command in refused_by:
            argv = [sys.executable, "-m", "hktcalc.cli", command, path]
            proc = subprocess.run(argv + (["--grid", "5"] if command == "solve" else []),
                                  capture_output=True, text=True, timeout=60)
            assert proc.returncode == EXIT_INPUT_ERROR, proc.stderr
            assert proc.stdout == ""
            assert proc.stderr.startswith("input error: box") and words in proc.stderr
            assert len(proc.stderr.strip().splitlines()) == 1

    def test_spacing_is_checked_before_any_grid_is_solved(self, tmp_path, capsys, monkeypatch):
        import hktcalc.elliptic as elliptic

        def no_solve(*args, **kwargs):
            pytest.fail("a grid was solved before the box was refused")

        monkeypatch.setattr(elliptic, "solve_potential", no_solve)
        # The DST eigenvalues are finite at --grid 5 but overflow at --grid 65.
        path = self._box_doc(tmp_path, "[0, 1e-150]")
        assert main(["solve", path, "--grid", "5", "--grid", "65"]) == EXIT_INPUT_ERROR
        assert "on grid m = 65," in capsys.readouterr().err

    @staticmethod
    def _disagreeing_twistor(monkeypatch):
        import hktcalc.geometry as geometry

        monkeypatch.setattr(geometry, "is_hkt_twistor",
                            lambda model, form: geometry.TwistorCheck(False, []))

    def test_convention_error_in_check_exits_4(self, tmp_path, capsys, monkeypatch):
        self._disagreeing_twistor(monkeypatch)
        path = write(tmp_path, "flat.json", flat_metric_doc())
        assert main(["check", path]) == EXIT_INTERNAL_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal error: HKT criteria disagree")
        assert len(captured.err.strip().splitlines()) == 1

    def test_convention_error_in_identities_exits_4(self, capsys, monkeypatch):
        self._disagreeing_twistor(monkeypatch)
        assert main(["identities", "--n", "1", "--n", "2", "--count", "1"]) == EXIT_INTERNAL_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal error: HKT criteria disagree")
        assert len(captured.err.strip().splitlines()) == 1

    def test_in_b_disagreement_in_potential_check_exits_4(self, tmp_path, capsys, monkeypatch):
        # is_hkt_salamon owns the eta-free cross-check, and a potential's
        # F_I goes through the same HKT report as every other document's.
        import hktcalc.salamon as salamon

        in_b = salamon.ProjectorTable.in_b
        monkeypatch.setattr(salamon.ProjectorTable, "in_b", lambda self, form: not in_b(self, form))
        doc = {"kind": "potential", "model": {"n": 1},
               "payload": {"mu": quarter_norm_potential(4).to_json()}}
        path = write(tmp_path, "mu.json", doc)
        assert main(["check", path]) == EXIT_INTERNAL_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal error: bilinearized sphere conditions disagree")
        assert len(captured.err.strip().splitlines()) == 1

    def test_potential_form_off_type_11_exits_4(self, tmp_path, capsys, monkeypatch):
        # F_I of a potential is (1,1) by construction, so an F_I of another
        # type is a broken invariant, not bad input: the HKT report's
        # `kahler_forms` refuses it before the theta certificate runs.
        import hktcalc.cli as cli
        from hktcalc.geometry import PotentialForms

        off_type = flat_form("J")
        monkeypatch.setattr(cli, "potential_to_forms", lambda model, mu: PotentialForms(off_type, off_type, off_type))
        doc = {"kind": "potential", "model": {"n": 1},
               "payload": {"mu": quarter_norm_potential(4).to_json()}}
        path = write(tmp_path, "mu.json", doc)
        assert main(["check", path]) == EXIT_INTERNAL_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal error: Kahler form F_")
        assert captured.err.rstrip().endswith("F_I is not of type (1,1)")
        assert len(captured.err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", ["check", "identities"])
    def test_broken_axis_pullback_exits_4(self, tmp_path, capsys, monkeypatch, command):
        # The Klein law of the 2-form pullbacks is checked once, when the
        # (1,1) projector is built: a K* of the wrong sign breaks I*J* = K*.
        import hktcalc.structures as structures
        from hktcalc.forms import FiberOperator

        original = structures._axis_operators

        def broken(model, name, k):
            rho, pull = original(model, name, k)
            if (name, k) == ("K", 2):
                pull = FiberOperator({idx: [(i, -v) for i, v in col] for idx, col in pull.items()}, pull.den)
            return rho, pull

        doc = {"kind": "form", "model": {"n": 1}, "payload": {"form": flat_form("I").to_json()}}
        argv = {"check": ["check", write(tmp_path, "flat.json", doc)],
                "identities": ["identities", "--n", "1", "--count", "1"]}[command]
        monkeypatch.setattr(structures, "_FIBER_CACHE", {})
        monkeypatch.setattr(structures, "_axis_operators", broken)
        assert main(argv) == EXIT_INTERNAL_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal error: the axis pullbacks on 2-forms break")
        assert len(captured.err.strip().splitlines()) == 1

    @pytest.mark.parametrize("field", ["exp", "idx"])
    def test_string_index_lists_are_input_errors(self, tmp_path, capsys, field):
        # "exp": "3000" used to be read as x0^3, and "idx": "01" as (0, 1).
        poly = {"dim": 4, "terms": [{"num": "1", "den": "1", "exp": "3000" if field == "exp" else [3, 0, 0, 0]}]}
        doc = {"kind": "form", "model": {"n": 1}, "payload": {"form": {"k": 2, "dim": 4, "terms": [
            {"idx": "01" if field == "idx" else [0, 1], "poly": poly},
            {"idx": "23" if field == "idx" else [2, 3], "poly": poly}]}}}
        assert main(["check", write(tmp_path, "strings.json", doc)]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: payload (form): {field} must be a JSON list, got str\n"

    @pytest.mark.parametrize("command", ["check", "solve", "identities"])
    def test_broken_structure_matrices_exit_4(self, tmp_path, capsys, monkeypatch, command):
        # J = I in the index table fails IJ = K when a document's or the
        # suite's model is built.
        import hktcalc.structures as structures

        # The documents are written first: flat_metric_doc builds a model.
        argv = {
            "check": ["check", write(tmp_path, "flat.json", flat_metric_doc())],
            "solve": ["solve", write(tmp_path, "conf.json", conformal_doc()), "--grid", "9"],
            "identities": ["identities", "--n", "1", "--count", "1"],
        }[command]
        monkeypatch.setitem(structures._BLOCK_IMAGES, "J", structures._BLOCK_IMAGES["I"])
        assert main(argv) == EXIT_INTERNAL_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal error: IJ != K")
        assert len(captured.err.strip().splitlines()) == 1


class TestConsoleEntryPoint:
    def test_installed_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hktcalc.cli", "identities", "--n", "1", "--count", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["all_ok"]


# Runs each exact command in one fresh interpreter and asserts numpy is still
# not loaded after it, nor any BLAS thread variable set; `hkt solve` (which
# needs numpy) runs last.
NO_NUMPY_SCRIPT = """
import os, sys
from hktcalc.cli import BLAS_THREAD_VARIABLES, main
*docs, conformal = sys.argv[1:]
for path in docs:
    assert main(["check", path, "--out", os.devnull]) == 0, path
    assert "numpy" not in sys.modules, path
assert main(["identities", "--count", "1", "--out", os.devnull]) == 0
assert "numpy" not in sys.modules, "identities"
assert not set(BLAS_THREAD_VARIABLES) & set(os.environ)
assert main(["solve", conformal, "--grid", "7", "--out", os.devnull]) == 0
assert "numpy" in sys.modules
print("ok")
"""

# Runs `hkt solve` in a fresh interpreter and prints the BLAS thread
# variables it leaves set.
BLAS_THREADS_SCRIPT = """
import json, os, sys
from hktcalc.cli import BLAS_THREAD_VARIABLES, main
assert main(["solve", sys.argv[1], "--grid", "7", "--out", os.devnull]) == 0
print(json.dumps({name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES}))
"""


def blas_free_environ(**preset):
    env = {name: value for name, value in os.environ.items() if name not in BLAS_THREAD_VARIABLES}
    return {**env, **preset}


class TestExactPathLoadsNoNumpy:
    def test_check_and_identities_never_import_numpy(self, tmp_path):
        docs = [
            write(tmp_path, "metric.json", flat_metric_doc()),
            write(tmp_path, "form.json", {"kind": "form", "model": {"n": 1},
                                          "payload": {"form": flat_form("I").to_json()}}),
            write(tmp_path, "potential.json", {"kind": "potential", "model": {"n": 1},
                                               "payload": {"mu": quarter_norm_potential(4).to_json()}}),
            write(tmp_path, "conformal.json", conformal_doc()),
        ]
        flat = write(tmp_path, "flat.json", conformal_doc(phi=Polynomial.constant(4, 1)))
        proc = subprocess.run([sys.executable, "-c", NO_NUMPY_SCRIPT, *docs, flat],
                              capture_output=True, text=True, env=blas_free_environ())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"


# Prints, as JSON, the modules a fresh interpreter holds after `import
# hktcalc.cli` and after `hkt COMMAND ARG...` (argv[1:]) has run.
MODULES_SCRIPT = """
import json, os, sys
import hktcalc.cli
after_import = sorted(sys.modules)
assert hktcalc.cli.main([*sys.argv[1:], "--out", os.devnull]) == 0
print(json.dumps({"import": after_import, "command": sorted(sys.modules)}))
"""

# What an interpreter holds before it imports anything: site hooks of the
# environment preload some modules.
BARE_SCRIPT = "import json, sys; print(json.dumps(sorted(sys.modules)))"


def loaded_modules(script, *args):
    proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


class TestLeanStartUp:
    """`hkt` starts without `dataclasses` (which loads `inspect`), `hashlib`
    or numpy: only `InputDocument.digest` loads `hashlib`, and only `hkt
    identities` loads `hktcalc.batteries`."""

    @pytest.fixture(scope="class")
    def bare(self):
        return set(loaded_modules(BARE_SCRIPT))

    @pytest.fixture(scope="class")
    def identities(self):
        return loaded_modules(MODULES_SCRIPT, "identities", "--count", "1")

    def test_import_cli_loads_no_dataclasses_inspect_hashlib_or_numpy(self, bare, identities):
        loaded = set(identities["import"]) - bare
        assert "hktcalc.cli" in loaded
        assert not loaded & {"dataclasses", "inspect", "hashlib", "numpy", "hktcalc.batteries"}

    def test_identities_loads_no_hashlib(self, bare, identities):
        loaded = set(identities["command"]) - bare
        assert "hktcalc.batteries" in loaded
        assert not loaded & {"dataclasses", "inspect", "hashlib", "numpy"}

    def test_check_loads_no_batteries(self, bare, tmp_path):
        path = write(tmp_path, "metric.json", flat_metric_doc())
        loaded = set(loaded_modules(MODULES_SCRIPT, "check", path)["command"]) - bare
        assert "hashlib" in loaded or "hashlib" in bare
        assert not loaded & {"dataclasses", "inspect", "numpy", "hktcalc.batteries"}


class TestBlasThreadDefault:
    @pytest.mark.parametrize("preset", [{}, {"OMP_NUM_THREADS": "2"}, {"GOTO_NUM_THREADS": "2"},
                                        {"OPENBLAS_NUM_THREADS": "2"}], ids=["none", "omp", "goto", "openblas"])
    def test_solve_defaults_to_one_thread_unless_the_caller_pinned_one(self, tmp_path, preset):
        flat = write(tmp_path, "flat.json", conformal_doc(phi=Polynomial.constant(4, 1)))
        proc = subprocess.run([sys.executable, "-c", BLAS_THREADS_SCRIPT, flat],
                              capture_output=True, text=True, env=blas_free_environ(**preset))
        assert proc.returncode == 0, proc.stderr
        expected = {**dict.fromkeys(BLAS_THREAD_VARIABLES), **(preset or {"OPENBLAS_NUM_THREADS": "1"})}
        assert json.loads(proc.stdout) == expected
