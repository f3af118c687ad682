import argparse
import csv
import functools
import json
import re
import shlex
from pathlib import Path

import pytest

from jacksonq import checks
from jacksonq.cli import (
    build_parser,
    format_complex,
    main,
    parse_complex,
    parse_grid,
)
from jacksonq.errors import SchemaError
from jacksonq.qcore import QParam, q_pochhammer
from jacksonq.qspecial import etilde_q

README = Path(__file__).resolve().parent.parent / "README.md"


class TestComplexParsing:
    @pytest.mark.parametrize("text,expect", [
        ("2", 2 + 0j),
        ("-0.5", -0.5 + 0j),
        ("i", 1j),
        ("-i", -1j),
        ("-1.5i", -1.5j),
        ("1+0.5i", 1 + 0.5j),
        ("2-0.3i", 2 - 0.3j),
        ("1e-3+2e2i", 1e-3 + 200j),
    ])
    def test_roundtrip(self, text, expect):
        assert parse_complex(text) == expect

    def test_format_roundtrip(self):
        for z in (2 + 0j, 1 + 0.5j, -1.5j, 0.25 - 3j):
            assert parse_complex(format_complex(z)) == z

    def test_bad_literal(self):
        with pytest.raises(SchemaError):
            parse_complex("two")

    def test_grid_spec(self):
        assert parse_grid("1e2:1e6:9") == (1e2, 1e6, 9)
        with pytest.raises(SchemaError):
            parse_grid("5:1:8")
        with pytest.raises(SchemaError):
            parse_grid("1:10:3")


class TestEval:
    def test_trivial_values(self, capsys):
        assert main(["eval", "--fn", "exp_q", "--q", "0.5", "--z", "0"]) == 0
        out = capsys.readouterr().out
        assert "1" in out

    def test_big_e_zero_at_minus_one(self, capsys):
        assert main(["eval", "--fn", "E_q", "--q", "0.5", "--z", "-1",
                     "--route", "product"]) == 0
        val = capsys.readouterr().out
        assert "0" in val

    def test_product_series_cross_path(self, capsys):
        code = main(["eval", "--fn", "etilde_q", "--q", "2", "--z", "1",
                     "--route", "series", "--N", "48"])
        assert code == 0
        line_series = capsys.readouterr().out.splitlines()[-1]
        code = main(["eval", "--fn", "etilde_q", "--q", "2", "--z", "1",
                     "--route", "product"])
        assert code == 0
        line_prod = capsys.readouterr().out.splitlines()[-1]
        v1 = float(line_series.split("->")[1].split("(")[0])
        v2 = float(line_prod.split("->")[1].split("(")[0])
        assert abs(v1 - v2) < 1e-9

    def test_regime_mismatch_exit_2(self):
        assert main(["eval", "--fn", "E_q", "--q", "2", "--z", "1",
                     "--route", "product"]) == 2

    def test_unknown_function_exit_2(self):
        assert main(["eval", "--fn", "gamma_q", "--z", "1"]) == 2

    @pytest.mark.parametrize("fn", ["exp_q", "sin_q", "cos_q"])
    def test_negative_order_exits_1(self, fn, capsys):
        assert main(["eval", "--fn", fn, "--N", "-2", "--z", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: coefficients must form a nonempty 1-d list\n")

    def test_phi_rs(self, capsys):
        assert main(["eval", "--fn", "phi_rs", "--q", "0.5", "--alpha", "0",
                     "--z", "0.25", "--N", "32"]) == 0

    def test_value_past_double_range_exits_1(self, capsys):
        # the product route: f overflows, log|f| = 729.49 does not
        assert main(["eval", "--fn", "etilde_q", "--q", "2",
                     "--z", "1e14"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: etilde_q at z = 100000000000000 leaves double range "
            "(log|f| = 729.49")
        assert "nan" not in captured.err

    def test_q_near_one_exits_1(self, capsys):
        # the product route refuses on its factor budget instead of running
        # about 4.8e8 steps
        assert main(["eval", "--fn", "E_q", "--q", "0.9999999",
                     "--z", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the lattice product needs "
                                       "more than 100000 factors")

    def test_series_overflow_exits_1(self, capsys):
        # no certified radius and no product form: the series route
        assert main(["eval", "--fn", "etilde_q", "--q", "0.5",
                     "--z", "1e200"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "is not a finite number" in captured.err

    @pytest.mark.parametrize("fn, q, tail", [
        ("etilde_q", "2", "leaves double range (log|f| = 363221.72"),
        ("sin_q", "0.5", "|z| exceeds certified radius"),
    ])
    def test_modulus_past_double_range_exits_1(self, capsys, fn, q, tail):
        # both parts finite, |z| not: refused with a typed error by the
        # product route or by the series radius, never a traceback
        assert main(["eval", "--fn", fn, "--q", q,
                     "--z", "1.5e308+1.5e308i"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert tail in captured.err

    def test_one_radius_rule(self, capsys):
        # just past R but within R (1 + 1e-12), where the series still
        # evaluates: auto takes the series and reports its tail bound
        series = etilde_q(QParam(2.0), 48)
        z = float(series.safe_radius) * (1 + 5e-13)
        assert main(["eval", "--fn", "etilde_q", "--q", "2",
                     "--z", repr(z)]) == 0
        line = capsys.readouterr().out.splitlines()[-1]
        assert float(line.split("->")[1].split("(")[0]) == series.eval(z).real
        assert line.endswith(f"(err <= {series.tail_tol:.3g})")

    def test_uncertified_series_reports_nan_bound(self, capsys, tmp_path):
        # |q| < 1: etilde_q has a finite radius (no safe_radius here) and
        # no product form, so auto falls back to the uncertified series
        out = tmp_path / "e.csv"
        assert main(["eval", "--fn", "etilde_q", "--q", "0.5", "--z", "0.5",
                     "--out", str(out)]) == 0
        line = capsys.readouterr().out.splitlines()[-1]
        assert line.endswith("->  3.4627466194550514   (err <= nan)")
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 1 and rows[0]["err_bound"] == "nan"


class TestSolve:
    def problem_file(self, tmp_path, qv=0.5):
        prob = {
            "k": 1,
            "q": [qv, 0.0],
            "A": {"num": [-1.0], "den": [1.0]},
            "initial": [[1.0, 0.0]],
            "N": 30,
        }
        path = tmp_path / "prob.json"
        path.write_text(json.dumps(prob))
        return str(path)

    def test_dqf_equals_f(self, tmp_path, capsys):
        path = self.problem_file(tmp_path)
        out_path = tmp_path / "sol.csv"
        assert main(["solve", "--problem", path, "--out", str(out_path)]) == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "n,c_re,c_im"
        assert len(lines) == 32
        qp = QParam(0.5)
        for n in (2, 5, 9):
            got = complex(*map(float, lines[n + 1].split(",")[1:]))
            expect = (1 - 0.5) ** n / q_pochhammer(0.5, qp, n)
            assert abs(got - expect) < 1e-12

    def test_quintic_polynomial_problem(self, tmp_path):
        qv = 2.0
        prob = {
            "k": 1,
            "q": [qv, 0.0],
            "A": {"num": [0, 0, 0, 0, -(qv**5 - 1)],
                  "den": [qv - 1, 0, 0, 0, 0, qv - 1]},
            "initial": [1.0],
            "N": 20,
        }
        path = tmp_path / "p46.json"
        path.write_text(json.dumps(prob))
        out = tmp_path / "sol.json"
        assert main(["solve", "--problem", str(path), "--out", str(out),
                     "--format", "json"]) == 0
        data = json.loads(out.read_text())
        coeffs = [complex(a, b) for a, b in data["coefficients"]]
        assert abs(coeffs[5] - 1.0) < 1e-12
        assert max(abs(c) for c in coeffs[1:5] + coeffs[6:]) < 1e-12

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"k": 1, "q": [0.5, 0.0],')
        assert main(["solve", "--problem", path.as_posix()]) == 2
        err = capsys.readouterr().err
        assert "line" in err

    def test_schema_violation_exit_2(self, tmp_path):
        path = tmp_path / "bad2.json"
        path.write_text(json.dumps({"k": 0, "q": 0.5,
                                    "A": {"num": [1]}, "initial": []}))
        assert main(["solve", "--problem", str(path)]) == 2

    def test_bracket_overflow_exit_1(self, tmp_path, capsys):
        # complex q near 1.9 e^{0.85i}: the bracket product overflows
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps({
            "k": 2, "q": [1.253967977181466, 1.427432769766556],
            "A": {"num": [-1.0], "den": [1.0]},
            "initial": [[1.0, 0.0], [0.0, 0.0]], "N": 800}))
        assert main(["solve", "--problem", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bracket product")


class TestOrder:
    def test_etilde_order_two(self, capsys, tmp_path):
        out = tmp_path / "order.json"
        code = main(["order", "--model", "etilde_q", "--q", "2",
                     "--grid", "1e2:1e6:9", "--N", "72",
                     "--out", str(out), "--format", "json"])
        assert code == 0
        data = json.loads(out.read_text())
        by_est = {e["estimator"]: e["sigma_log"] for e in data["estimates"]}
        assert 1.8 <= by_est["nu"] <= 2.2
        assert 1.8 <= by_est["counting"] <= 2.2

    def test_big_e_order_two(self, capsys):
        code = main(["order", "--model", "E_q", "--q", "0.5",
                     "--grid", "1e2:1e6:9", "--N", "72"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sigma_log" in out

    def test_polynomial_order_one(self, tmp_path):
        out = tmp_path / "poly.json"
        code = main(["order", "--model", "polynomial", "--coeffs", "1,0,0,2",
                     "--grid", "1e2:1e6:8", "--nodes", "256",
                     "--out", str(out), "--format", "json"])
        assert code == 0
        data = json.loads(out.read_text())
        assert abs(data["estimates"][0]["sigma_log"] - 1.0) < 0.1

    def test_polynomial_reads_its_q(self, tmp_path, capsys):
        # the T estimate does not depend on q; a bad q is refused
        outs = []
        for q in ("0.5", "2"):
            out = tmp_path / f"poly{q}.csv"
            assert main(["order", "--model", "polynomial", "--coeffs", "1,0,2",
                         "--q", q, "--out", str(out), "--format", "csv"]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        capsys.readouterr()
        assert main(["order", "--model", "polynomial", "--coeffs", "1,0,2",
                     "--q", "1"]) == 1
        assert capsys.readouterr().err == "error: |q| must differ from 1\n"

    def test_csv_samples_schema(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["order", "--model", "E_q", "--q", "0.5",
                     "--grid", "1e2:1e5:6", "--nodes", "128", "--N", "72",
                     "--out", str(out), "--format", "csv"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "r,m,N_0,N_inf,T,nJ_0,nJ_inf,quad_err"
        assert len(lines) == 7

    def test_wrong_regime_exit_2(self):
        assert main(["order", "--model", "etilde_q", "--q", "0.5"]) == 2

    def test_nu_refuses_radii_past_the_series(self, capsys):
        # the series' certified radius is 2.7e12; the grid runs to 1e40
        code = main(["order", "--model", "etilde_q", "--q", "2", "--N", "300",
                     "--estimator", "nu", "--grid", "1e10:1e40:9"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "TruncationTooShort" in captured.err

    def test_auto_skips_a_refused_estimator(self, capsys):
        # the default N = 48 series cannot reach 1e8; counting can
        code = main(["order", "--model", "E_q", "--q", "0.5",
                     "--grid", "1e2:1e8:9", "--nodes", "4096"])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.splitlines()
        assert lines[0] == "# logarithmic order of E_q at q = 0.5"
        assert [ln.split("]")[0] for ln in lines[1:]] == [
            "sigma_log[counting"]
        assert captured.err.startswith(
            "# skipped estimator nu: TruncationTooShort:")

    def test_auto_fails_only_when_every_estimator_is_refused(self, capsys):
        assert main(["order", "--model", "exp_q", "--q", "2",
                     "--grid", "1e10:1e40:9"]) == 1
        assert capsys.readouterr().err.startswith(
            "error: nu: TruncationTooShort:")

    @pytest.mark.parametrize("model,extra", [
        ("polynomial", ["--coeffs", "1,0,2"]),
        ("exp_q", ["--q", "2"]),
    ])
    def test_counting_needs_a_zero_lattice(self, model, extra, capsys):
        assert main(["order", "--model", model, "--estimator", "counting",
                     *extra]) == 2
        assert "has no zero lattice" in capsys.readouterr().err


class TestVerify:
    def test_identities_suite_passes(self, capsys):
        assert main(["verify", "--suite", "identities"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_unknown_suite_exit_2(self):
        assert main(["verify", "--suite", "nonsense"]) == 2

    def test_casorati_suite(self, capsys):
        assert main(["verify", "--suite", "casorati"]) == 0

    def test_deterministic_csv(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["verify", "--suite", "rules", "--seed", "7",
                     "--out", str(a)]) == 0
        assert main(["verify", "--suite", "rules", "--seed", "7",
                     "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_verify_csv_rows_have_five_fields(self, tmp_path):
        # "integration by parts [0,1]" holds a comma: quoted, it stays
        # one field under the five-field header
        out = tmp_path / "rules.csv"
        assert main(["verify", "--suite", "rules", "--seed", "7",
                     "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["suite", "name", "passed", "value", "threshold"]
        assert len(rows) > 1 and all(len(row) == 5 for row in rows)
        assert "integration by parts [0,1]" in [row[1] for row in rows]
        assert '"integration by parts [0,1]"' in out.read_text()

    def test_order_csv_byte_stable(self, tmp_path):
        paths = [tmp_path / "s1.csv", tmp_path / "s2.csv"]
        for p in paths:
            assert main(["order", "--model", "E_q", "--q", "0.5",
                         "--grid", "1e2:1e5:6", "--nodes", "128",
                         "--N", "72", "--out", str(p),
                         "--format", "csv"]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestRunSuite:
    def test_type_error_inside_seeded_suite_propagates(self, monkeypatch):
        calls = []

        def broken(seed=1):
            calls.append(seed)
            raise TypeError("bug inside the suite")

        monkeypatch.setitem(checks.SUITES, "broken", broken)
        with pytest.raises(TypeError, match="bug inside the suite"):
            checks.run_suite("broken", seed=5)
        assert calls == [5]

    @pytest.mark.parametrize("suite,kwargs", [
        ("identities", {}), ("casorati", {}), ("wiman", {}), ("orders", {}),
        ("solver", {}), ("sft", {"seed": 5}), ("rules", {"seed": 5}),
    ])
    def test_each_suite_called_once(self, monkeypatch, suite, kwargs):
        # a signature-preserving wrapper, as a tracer would install
        calls = []

        @functools.wraps(checks.SUITES[suite])
        def counted(*args, **kw):
            calls.append(kw)
            return []

        monkeypatch.setitem(checks.SUITES, suite, counted)
        assert checks.run_suite(suite, seed=5) == []
        assert calls == [kwargs]


class TestOptionSurface:
    """Each command takes only the options it reads."""

    # flags each command does not read
    REMOVED = {
        "verify": ["--q", "--N", "--grid", "--nodes", "--tol"],
        "solve": ["--q", "--grid", "--nodes", "--tol", "--seed"],
        "eval": ["--grid", "--nodes", "--seed"],
        "order": ["--tol", "--seed"],
    }
    VALUES = {"--q": "2", "--N": "3", "--grid": "1e2:1e3:4", "--nodes": "64",
              "--tol": "1e-10", "--seed": "3"}

    @pytest.mark.parametrize("command,flag", [
        (command, flag) for command, flags in REMOVED.items()
        for flag in flags])
    def test_removed_flag_is_a_usage_error(self, command, flag, tmp_path,
                                           capsys):
        problem = tmp_path / "p.json"
        problem.write_text(json.dumps({
            "k": 1, "q": 0.5, "A": {"num": [-1.0]}, "initial": [1.0],
            "N": 8}))
        base = {
            "verify": ["--suite", "casorati"],
            "solve": ["--problem", str(problem)],
            "eval": ["--fn", "exp_q", "--z", "1"],
            "order": ["--model", "polynomial", "--coeffs", "1,0,2",
                      "--grid", "1e2:1e5:6", "--nodes", "64"],
        }[command]
        assert main([command, *base]) == 0
        capsys.readouterr()
        assert main([command, *base, flag, self.VALUES[flag]]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @staticmethod
    def _options(command):
        (sub,) = [a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        return {opt for action in sub.choices[command]._actions
                for opt in action.option_strings if opt not in ("-h", "--help")}

    def test_readme_table_lists_each_command_s_options(self):
        rows = re.findall(r"^\| `(\w+)` +\| (.*) \|$", README.read_text(),
                          flags=re.M)
        table = {cmd: set(re.findall(r"`(--\w+)`", opts))
                 for cmd, opts in rows}
        assert table == {cmd: self._options(cmd)
                         for cmd in ("eval", "solve", "order", "verify")}
        assert sum(map(len, table.values())) == 27

    def test_readme_examples_parse(self):
        blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.S)
        lines = [ln for block in blocks for ln in block.splitlines()
                 if ln.startswith("jacksonq ")]
        assert len(lines) >= 7
        parser = build_parser()
        for line in lines:
            try:
                parser.parse_args(shlex.split(line)[1:])
            except SystemExit:
                pytest.fail(f"README example does not parse: {line}")
