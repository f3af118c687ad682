import argparse
import csv
import functools
import json
import math
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
from jacksonq.errors import (
    DomainError,
    OutsideSafeRadius,
    SchemaError,
    TruncationTooShort,
)
from jacksonq.nevanlinna import max_term_central_index, series_zero_moduli
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
    def test_negative_order_exits_2(self, fn, capsys):
        assert main(["eval", "--fn", fn, "--N", "-2", "--z", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: N must be an integer >= 0\n"

    @pytest.mark.parametrize("q", ["inf", "nan", "1+nanj"])
    def test_q_not_finite_exits_1(self, q, capsys):
        assert main(["eval", "--fn", "etilde_q", "--q", q, "--z", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: q must be finite\n"

    def test_phi_rs(self, capsys):
        # 1phi0(0; q, z) at q = 2 is etilde_q, entire, with a certified
        # radius (at q = 0.5 it has radius 1 and none is certified)
        assert main(["eval", "--fn", "phi_rs", "--q", "2", "--alpha", "0",
                     "--z", "0.25", "--N", "32"]) == 0
        line = capsys.readouterr().out.splitlines()[-1]
        assert line.endswith("->  0.77010158689760644   (err <= 1e-12)")

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
        # inside the certified radius, no product form, and a sum past
        # double range: the series route (coefficients up to 1e270)
        assert main(["eval", "--fn", "phi_rs", "--q", "0.5", "--alpha",
                     "1e18", "--beta", "0.3", "--N", "120",
                     "--z", "100"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "is not a finite number" in captured.err

    @pytest.mark.parametrize("fn, q, tail", [
        ("etilde_q", "2", "leaves double range (log|f| = 363221.72"),
        ("sin_q", "0.5", "|z| exceeds certified radius"),
        ("E_q", "0.5", "past double range: the product leaves it too"),
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

    @pytest.mark.parametrize("slack, inside", [(5e-13, True),
                                               (2e-12, False)])
    def test_radius_boundary_is_one_rule(self, capsys, slack, inside):
        # eval, the central index, zero location and the auto route all
        # accept a point within R (1 + 1e-12) and refuse one past it
        series = etilde_q(QParam(2.0), 48)  # R about 9.535e6
        r = float(series.safe_radius) * (1 + slack)
        assert main(["eval", "--fn", "etilde_q", "--q", "2",
                     "--z", repr(r)]) == 0
        tail = f"(err <= {series.tail_tol:.3g})"
        assert capsys.readouterr().out.endswith(tail + "\n") == inside
        if inside:
            assert series.eval(r).real < 0
            assert max_term_central_index(series, r).nu == 23
            assert sum(n for _, n in series_zero_moduli(series, r)) == 23
            return
        with pytest.raises(OutsideSafeRadius):
            series.eval(r)
        with pytest.raises(TruncationTooShort):
            max_term_central_index(series, r)
        with pytest.raises(DomainError, match="beyond certified"):
            series_zero_moduli(series, r)

    @pytest.mark.parametrize("argv", [
        # |q| < 1: etilde_q has a finite radius (no safe_radius here) and
        # no product form
        ["--fn", "etilde_q", "--q", "0.5", "--z", "0.5"],
        ["--fn", "etilde_q", "--q", "0.5", "--z", "1e200"],
        # 2phi0 at |q| < 1 has radius of convergence 0; its partial sum
        # at 0.1 is -5.34e252
        ["--fn", "phi_rs", "--q", "0.5", "--alpha", "0.5,0.3",
         "--N", "1200", "--z", "0.1"],
    ])
    def test_uncertified_series_is_refused(self, capsys, tmp_path, argv):
        out = tmp_path / "e.csv"
        assert main(["eval", *argv, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("error: ")
        assert "has no certified radius at N = " in captured.err

    @pytest.mark.parametrize("fn, q", [("etilde_q", "2"), ("E_q", "0.5")])
    def test_infinite_point_exits_1(self, capsys, fn, q):
        # past every certified radius, so the product route takes it, and
        # the lattice kernel refuses t_0 = z/z_0, which is not finite
        assert main(["eval", "--fn", fn, "--q", q, "--z", "inf+infi"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "not finite" in captured.err

    @pytest.mark.parametrize("fn, q", [("etilde_q", "2"), ("E_q", "0.5")])
    @pytest.mark.parametrize("route", ["auto", "series", "product"])
    @pytest.mark.parametrize("z", ["nan", "1+nani"])
    def test_nan_point_exits_1(self, capsys, fn, q, route, z):
        # a NaN point is refused by name before any route
        assert main(["eval", "--fn", fn, "--q", q, "--route", route,
                     "--z", z]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: z = ")
        assert captured.err.rstrip().endswith("is not a number")


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

    def test_q_near_one_exits_1(self, capsys):
        # the zero walk refuses on the factor budget; without it the walk
        # would build about 1e8 zeros
        assert main(["order", "--model", "E_q", "--q", "0.9999999"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: the zero walk needs more "
                                       "than 100000 factors")

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


# a problem the solver meets, and the single edits that break it
PROBLEM = {"k": 1, "q": [0.5, 0.0], "A": {"num": [-1.0]},
           "initial": [1.0], "N": 30}
# B = 1e12 z^20 at q = 1.7: the residual cancels at 1e12 and keeps about
# 1.2e-4 against a coefficient scale of 60
CANCELLING = {"k": 2, "q": 1.7, "A": {"num": [0.0]},
              "B": {"num": [0.0] * 20 + [1e12]}, "initial": [1.0, 0.0],
              "N": 22}
ORDER = ["order", "--grid", "1e2:1e6:5"]
ETILDE = ["eval", "--fn", "etilde_q", "--q", "2", "--z", "5",
          "--route", "product"]
TOL = "error: tolerance must be finite and positive"


def edited(drop=(), **fields):
    out = {k: v for k, v in PROBLEM.items() if k not in drop}
    return {**out, **fields}


# (id, argv, problem file text or object, exit code, first stderr line);
# {path} in argv and in the line is the problem file's path
EXIT_CASES = [
    ("tol nan", ETILDE + ["--tol", "nan"], None, 2, TOL),
    ("tol inf", ETILDE + ["--tol", "inf"], None, 2, TOL),
    ("tol zero", ETILDE + ["--tol", "0"], None, 2, TOL),
    ("tol negative", ETILDE + ["--tol=-1e-12"], None, 2, TOL),
    ("empty complex", ["eval", "--fn", "exp_q", "--q", "", "--z", "1"],
     None, 2, "error: empty complex literal"),
    ("bad imaginary part", ["eval", "--fn", "exp_q", "--q", "2+xi"],
     None, 2, "error: bad complex literal '2+xi'"),
    ("grid of two parts", ["order", "--model", "etilde_q", "--q", "2",
                           "--grid", "1e2:1e6"],
     None, 2, "error: grid must be rmin:rmax:points"),
    ("grid not a number", ["order", "--model", "etilde_q", "--q", "2",
                           "--grid", "1e2:x:9"],
     None, 2, "error: bad grid spec '1e2:x:9'"),
    ("E_q at |q| > 1", ORDER + ["--model", "E_q", "--q", "2"],
     None, 2, "error: E_q is entire only for |q| < 1"),
    ("exp_q at |q| < 1", ORDER + ["--model", "exp_q", "--q", "0.5"],
     None, 2, "error: exp_q is entire only for |q| > 1"),
    ("polynomial without coeffs", ORDER + ["--model", "polynomial"],
     None, 2, "error: polynomial model needs --coeffs"),
    ("constant polynomial", ORDER + ["--model", "polynomial",
                                     "--coeffs", "3"],
     None, 2, "error: polynomial must be nonconstant"),
    ("polynomial by nu", ORDER + ["--model", "polynomial", "--coeffs",
                                  "1,2", "--estimator", "nu"],
     None, 2, "error: polynomial has no series route"),
    ("exp_q by T", ORDER + ["--model", "exp_q", "--q", "2",
                            "--estimator", "T"],
     None, 2, "error: exp_q has no sweepable model"),
    ("unreadable file", ["solve", "--problem", "{path}.missing"], None, 2,
     "error: cannot read problem file: [Errno 2] No such file or "
     "directory: '{path}.missing'"),
    ("not an object", ["solve", "--problem", "{path}"], "[1, 2]", 2,
     "error: problem file must hold a JSON object"),
    ("missing field", ["solve", "--problem", "{path}"], edited(["A"]), 2,
     "error: missing field 'A'"),
    ("A not an object", ["solve", "--problem", "{path}"], edited(A=[1.0]),
     2, "error: A: expected {'num': [...], 'den': [...]}"),
    ("B without num", ["solve", "--problem", "{path}"],
     edited(B={"den": [1.0]}), 2,
     "error: B: expected {'num': [...], 'den': [...]}"),
    ("q not a number", ["solve", "--problem", "{path}"], edited(q="x"), 2,
     "error: q: expected number or [re, im], got 'x'"),
    ("num not a list", ["solve", "--problem", "{path}"],
     edited(A={"num": 3}), 2, "error: A.num: expected a nonempty list"),
    ("initial too long", ["solve", "--problem", "{path}"],
     edited(initial=[1.0, 2.0]), 2,
     "error: initial must list exactly k = 1 coefficients"),
    ("N below k", ["solve", "--problem", "{path}"], edited(N=0), 2,
     "error: N must be an integer >= k"),
    ("invalid problem", ["solve", "--problem", "{path}"], edited(q=1.0), 2,
     "error: invalid problem: |q| must differ from 1"),
    ("NaN coefficient", ["solve", "--problem", "{path}"],
     '{"k": 1, "q": 0.5, "A": {"num": [NaN]}, "initial": [1.0]}', 2,
     "error: A.num[0]: nan is not a finite number"),
    ("infinite part of q", ["solve", "--problem", "{path}"],
     edited(q=[0.5, math.inf]), 2,
     "error: q: [0.5, inf] is not a finite number"),
    ("integer past double range", ["solve", "--problem", "{path}"],
     edited(initial=[10 ** 400]), 2,
     f"error: initial[0]: {10 ** 400} is not a finite number"),
    ("NaN polynomial coefficient", ORDER + ["--model", "polynomial",
                                            "--coeffs", "1,nan"],
     None, 2, "error: polynomial coefficient nan is not a finite number"),
    ("tol whose lattice cutoff underflows", ETILDE + ["--tol", "5e-324"],
     None, 1, "error: tol = 4.94066e-324 is too small at |q| = 2: the "
     "lattice cutoff tol (1 - |rho|) underflows to 0"),
    ("eval at a negative N", ["eval", "--fn", "exp_q", "--N", "-1"], None,
     2, "error: N must be an integer >= 0"),
    ("order at a negative N", ORDER + ["--model", "etilde_q", "--q", "2",
                                       "--N", "-5"],
     None, 2, "error: N must be an integer >= 0"),
    ("N below k from the command line", ["solve", "--problem", "{path}",
                                         "--N", "0"], PROBLEM, 2,
     "error: N must be an integer >= k"),
    ("negative seed", ["verify", "--suite", "rules", "--seed", "-1"], None,
     2, "error: seed must be an integer >= 0"),
    ("N from the command line", ["solve", "--problem", "{path}",
                                 "--N", "12"], PROBLEM, 0, None),
    ("residual fails", ["solve", "--problem", "{path}"], CANCELLING, 1,
     "# FAIL residual exceeds 1e-8 * scale"),
]


@pytest.mark.parametrize("argv, problem, code, first",
                         [c[1:] for c in EXIT_CASES],
                         ids=[c[0] for c in EXIT_CASES])
def test_exit_code_and_first_stderr_line(argv, problem, code, first,
                                         tmp_path, capsys):
    path = tmp_path / "problem.json"
    if problem is not None:
        path.write_text(problem if isinstance(problem, str)
                        else json.dumps(problem))
    assert main([a.replace("{path}", str(path)) for a in argv]) == code
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert (lines[0] if lines else None) == (
        first and first.replace("{path}", str(path)))
    if code == 0:  # --N overrides the file's N = 30
        assert "# solved k=1, q=0.5, N=12\n" in captured.out


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
