"""Command-line interface: formats, exit codes, determinism."""

import io
import json
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest

from fredet import rmt
from fredet.cli import main


def run(argv):
    out = io.StringIO()
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestQuadCommand:
    def test_one_point(self):
        code, out, _ = run(["quad", "--rule", "gauss", "--a", "0", "--b", "1", "--m", "1"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "node,weight"
        assert lines[1] == "0.5,1"

    def test_cc_rule(self):
        code, out, _ = run(["quad", "--rule", "cc", "--a", "-1", "--b", "1", "--m", "3"])
        assert code == 0
        assert len(out.strip().splitlines()) == 4


class TestDetCommand:
    def test_reference_value_printed(self):
        code, out, _ = run(["det", "--kernel", "sine", "--a", "0", "--b", "0.1",
                            "--z", "-1", "--m", "5", "--rule", "gauss"])
        assert code == 0
        assert "0.900027271798259" in out

    def test_overflowing_interval_width_exit_2(self):
        # b - a overflows: a usage error that names the width, with no
        # RuntimeWarning from mapping nodes onto it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(["det", "--kernel", "sine", "--a=-1e308", "--b", "1e308",
                                  "--m", "5"])
        assert code == 2 and out == ""
        assert err.startswith("error:") and "width b - a overflows" in err

    def test_process_kernel_below_minus_ten(self):
        # the Airy(2) kernel is built for the interval's left end
        code, out, _ = run(["det", "--kernel", "airy2:0.3", "--a", "-20", "--b", "0",
                            "--m", "20"])
        assert code == 0
        assert float(out.splitlines()[1].split(",")[0]) == pytest.approx(
            4.76369350328419e-05, abs=1e-15)

    def test_unknown_kernel_exit_2(self):
        code, _, err = run(["det", "--kernel", "nope", "--a", "0", "--b", "1",
                            "--z", "-1", "--m", "5"])
        assert code == 2
        assert "sine" in err  # registry listed

    def test_numerical_failure_exit_1(self):
        # z = 1e308 overflows the determinant
        code, _, err = run(["det", "--kernel", "green", "--a", "0", "--b", "1",
                            "--z", "1e308", "--m", "5"])
        assert code == 1
        assert err.startswith("numerical failure:")

    @pytest.mark.parametrize("kernel", ["green", "sine"])
    def test_cholesky_overflow_says_not_finite(self, kernel):
        # the product of the Cholesky pivots overflows, then exp(logdet)
        code, out, err = run(["det", "--kernel", kernel, "--a", "0", "--b", "1",
                              "--z", "1e308", "--m", "5"])
        assert code == 1 and not out
        assert err == "numerical failure: determinant is not finite: the LU factors overflowed\n"

    @pytest.mark.parametrize("command", [["det", "--m", "5"], ["study", "--m-list", "5,10"]])
    @pytest.mark.parametrize("z", ["nan", "inf", "-inf"])
    def test_nonfinite_z_is_named(self, command, z):
        code, out, err = run(command[:1] + ["--kernel", "sine", "--a", "0", "--b", "1",
                                            f"--z={z}"] + command[1:])
        assert code == 2 and not out
        assert err == f"error: z must be finite, got {float(z)}\n"

    def test_lu_overflow_exit_1(self):
        # z = -1e308: Cholesky fails, and LU overflows as Cholesky does above
        # instead of printing inf
        code, out, err = run(["det", "--kernel", "sine", "--a", "0", "--b", "1",
                              "--z=-1e308", "--m", "10"])
        assert code == 1 and not out
        assert err.startswith("numerical failure:")

    @pytest.mark.parametrize("argv", [
        ["det", "--kernel", "sine", "--a", "1", "--b", "0", "--z", "-1", "--m", "5"],
        ["quad", "--rule", "gauss", "--a", "1", "--b", "0", "--m", "3"],
        ["e2", "--s-min", "-1", "--s-max", "0", "--step", "1"],
        ["cov", "--process", "airy2", "--t-min", "-1", "--t-max", "-1", "--step", "1"],
        ["e2", "--s-min", "5", "--s-max", "0", "--step", "0.1"],
        ["cov", "--process", "airy2", "--t-min", "1", "--t-max", "0.5", "--step", "0.1"],
        ["e2", "--s-min", "0", "--s-max", "1", "--step", "inf"],
        ["e2", "--s-min", "0", "--s-max", "nan", "--step", "0.1"],
        ["f2", "--s-min", "-1", "--s-max", "0", "--step", "0.5", "--T", "3"],
        ["trunc-bound", "--s", "-2", "--T-list", ""],
        ["trunc-bound", "--s", "-2", "--T-list", ","],
        ["green-bench", "--method", "ritz", "--m-list", ""],
        ["f2", "--s-min", "-2", "--s-max", "-2", "--step", "1", "--route", "truncate",
         "--T", "12", "--scale", "1e4"],
        # (hi - lo) / step is infinite, or over the cap of 1e6 steps
        ["e2", "--s-min", "0", "--s-max", "1", "--step", "1e-320"],
        ["f2", "--s-min", "0", "--s-max", "1", "--step", "1e-320"],
        ["cov", "--process", "airy2", "--t-min", "0", "--t-max", "1", "--step", "1e-320"],
        ["e2", "--s-min", "0", "--s-max", "1", "--step", "1e-12"],
        # a NaN threshold or truncation point
        ["trunc-bound", "--s", "nan", "--T-list", "5"],
        ["trunc-bound", "--s", "-2", "--T-list", "nan"],
        ["trunc-bound", "--s", "-2", "--T-list", "inf"],
        # an --output path that cannot be opened, found before the sweep runs
        ["e2", "--s-min", "0", "--s-max", "1", "--step", "0.5",
         "--output", "/nonexistent/dir/x.csv"],
        # a non-finite joint threshold, named before any kernel is built
        ["joint", "--process", "airy1", "--t", "1", "--s1", "nan", "--s2", "0"],
        ["joint", "--process", "airy2", "--t", "1", "--s1", "-1", "--s2", "inf"],
        # a non-finite time separation or threshold of a sweep
        ["cov", "--process", "airy2", "--t-min", "nan", "--t-max", "1", "--step", "1"],
        ["cov", "--process", "airy1", "--t-min", "0", "--t-max", "inf", "--step", "1"],
        ["f2", "--s-min=-inf", "--s-max", "0", "--step", "1"],
        ["joint", "--process", "airy2", "--t", "nan", "--s1", "-1", "--s2", "0"],
        # a NaN or infinite z, named as z
        ["det", "--kernel", "green", "--a", "0", "--b", "1", "--m", "5", "--z", "nan"],
        ["det", "--kernel", "green", "--a", "0", "--b", "1", "--m", "5", "--z", "inf"],
        ["study", "--kernel", "sine", "--a", "0", "--b", "1", "--m-list", "5,10",
         "--z=-inf"],
    ])
    def test_bad_input_exit_2(self, argv):
        code, out, err = run(argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "numerical failure" not in err

    @pytest.mark.parametrize("argv,message", [
        # trunc-bound --T is gone; without prefix matching it cannot parse
        # as --T-list, so the required --T-list is reported missing
        (["trunc-bound", "--s", "-2", "--T", "5"],
         "the following arguments are required: --T-list"),
        (["trunc-bound", "--s", "-2", "--T-list", "5", "--T", "5"],
         "unrecognized arguments: --T 5"),
        (["f2", "--s-min", "-1", "--s-max", "0", "--step", "0.5", "--rou", "truncate"],
         "unrecognized arguments: --rou truncate"),
    ])
    def test_option_prefix_is_not_matched(self, argv, message):
        # argparse exits 2 itself, with its own "prog: error:" prefix
        err = io.StringIO()
        with redirect_stderr(err), pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in err.getvalue()

    @pytest.mark.parametrize("command", [
        ["det", "--m", "10"],
        ["study", "--m-list", "5,10"],
    ])
    def test_complex_z_is_a_usage_error(self, command):
        # det(I + zA) at z = 1j is complex; the table holds one real value
        argv = command[:1] + ["--kernel", "sine", "--a", "0", "--b", "1", "--z", "1j"]
        err = io.StringIO()
        with redirect_stderr(err), pytest.raises(SystemExit) as exc:
            main(argv + command[1:])
        assert exc.value.code == 2
        assert "argument --z: invalid float value: '1j'" in err.getvalue()

    def test_json_format(self):
        code, out, _ = run(["det", "--kernel", "green", "--a", "0", "--b", "1",
                            "--z", "-1", "--m", "10", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert "value" in payload["rows"][0]

    def test_json_writes_nan_as_null(self):
        # the largest m is the reference, so its error is nan
        argv = ["study", "--kernel", "sine", "--a", "0", "--b", "1", "--m-list", "5,10"]
        code, out, _ = run(argv + ["--format", "json"])
        assert code == 0

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        rows = json.loads(out, parse_constant=reject)["rows"]
        assert rows[-1]["abs_error"] is None
        assert run(argv)[1].splitlines()[-1].split(",")[2] == "nan"


class TestSweeps:
    def test_e2_sweep(self):
        code, out, _ = run(["e2", "--s-min", "0", "--s-max", "1", "--step", "0.5",
                            "--m", "20"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "param,value,est_error,suspect"
        assert [line.split(",")[3] for line in lines[1:]] == ["false"] * 3
        assert len(lines) == 4

    @pytest.mark.parametrize("s_max", ["0", "1"])
    def test_e2_bad_m_exits_2(self, s_max):
        # the sweep's first point, s = 0, checks m as the others do
        code, out, err = run(["e2", "--s-min", "0", "--s-max", s_max, "--step", "1",
                              "--m", "-5"])
        assert code == 2 and out == "" and "m must be an integer >= 1" in err

    def test_e2_at_subnormal_s_is_one(self):
        # not a usage error: the unit rule's weights round to 0 there
        code, out, err = run(["e2", "--s-min", "1e-310", "--s-max", "1e-310", "--step", "1"])
        assert code == 0 and not err
        (row,) = out.strip().splitlines()[1:]
        assert row.split(",")[1:] == ["1", "0", "false"]

    def test_e2_overflowing_norm_exit_1(self):
        # ||A_Q||_F overflows at s = 1e200: a numerical failure, raised
        # without a RuntimeWarning (the test configuration makes it an error)
        code, out, err = run(["e2", "--s-min", "1e200", "--s-max", "1e200", "--step", "1",
                              "--m", "5"])
        assert code == 1 and not out
        assert err.startswith("numerical failure:") and "Frobenius norm is not finite" in err

    def test_green_bench(self):
        code, out, _ = run(["green-bench", "--m-list", "4,8,16,32",
                            "--method", "nystrom-gauss"])
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        errs = [float(r[2]) for r in rows]
        # errors decrease roughly 4x per doubling of m
        for e0, e1 in zip(errs, errs[1:]):
            assert e1 < e0 / 2.5

    def test_study(self):
        code, out, _ = run(["study", "--kernel", "sine", "--a", "0", "--b", "1",
                            "--z", "-1", "--m-list", "5,10,15"])
        assert code == 0
        assert out.splitlines()[0] == "m,value,abs_error,roundoff_bound"

    def test_trunc_bound(self):
        code, out, _ = run(["trunc-bound", "--s", "-2", "--T-list", "6,8,10"])
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        vals = [float(r[1]) for r in rows]
        assert vals[0] > vals[1] > vals[2]

    def test_joint(self):
        code, out, _ = run(["joint", "--process", "airy2", "--t", "1.0",
                            "--s1", "-0.5", "--s2", "10", "--m", "20"])
        assert code == 0
        val = float(out.strip().splitlines()[1].split(",")[0])
        assert 0.0 < val < 1.0

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_joint_shows_the_suspect_flag(self, fmt):
        # below the Airy(1) ladder both marginals read about -2e-6, and the
        # joint, 0.529, breaks the Frechet bound P <= min(F1, F2)
        code, out, _ = run(["joint", "--process", "airy1", "--t", "2.5", "--s1", "-5.99",
                            "--s2", "-5.94", "--m", "20", "--format", fmt])
        assert code == 0
        if fmt == "json":
            (row,) = json.loads(out)["rows"]
        else:
            header, line = out.strip().splitlines()
            row = dict(zip(header.split(","), line.split(",")))
            row["value"] = float(row["value"])
        assert row["value"] == pytest.approx(0.529, abs=1e-3)
        assert row["suspect"] is True if fmt == "json" else row["suspect"] == "true"

    def test_f2_json_suspect_is_a_bool(self):
        code, out, _ = run(["f2", "--s-min", "-2", "--s-max", "-1", "--step", "1", "--m", "30",
                            "--format", "json"])
        assert code == 0
        assert [row["suspect"] for row in json.loads(out)["rows"]] == [False, False]

    @pytest.mark.parametrize("name,value", [("--s1", "nan"), ("--s2", "-inf")])
    def test_joint_names_the_bad_threshold(self, name, value):
        argv = ["joint", "--process", "airy1", "--t", "1", "--s1=-1", "--s2=0"]
        argv[[a.split("=")[0] for a in argv].index(name)] = f"{name}={value}"
        code, out, err = run(argv)
        assert code == 2 and not out
        assert f"threshold {name[2:]} must be finite" in err

    def test_airy1_joint_without_a_factor_exit_1(self, monkeypatch, fresh_caches):
        # no Chebyshev factor within reach: Airy(1) has no inner rule left
        monkeypatch.setattr(rmt, "_FACTOR_MAX_NODES", rmt._FACTOR_FIRST_NODES // 2)
        code, out, err = run(["joint", "--process", "airy1", "--t", "1",
                              "--s1", "-1", "--s2", "0"])
        assert code == 1 and not out
        assert err.startswith("numerical failure:") and "no Chebyshev factor" in err

    @pytest.mark.parametrize("argv", [
        ["f2", "--s-min=-1e206", "--s-max=-1e206", "--step", "1"],
        ["joint", "--process", "airy2", "--t", "0", "--s1=-1e206", "--s2", "0"],
        ["joint", "--process", "airy1", "--t", "0", "--s1=-1e206", "--s2", "0"],
        ["joint", "--process", "airy2", "--t", "1", "--s1=-1e206", "--s2", "0"],
    ], ids=["f2", "airy2-t0", "airy1-t0", "airy2-t1"])
    def test_nan_airy_values_exit_1(self, argv):
        # Ai is NaN below -1e205: a numerical failure, as on the generic path
        # (det --kernel airy), not a usage error or a doubling to the cap
        code, out, err = run(argv)
        assert code == 1 and not out
        assert err.startswith("numerical failure:") and "non-finite" in err

    def test_specfun(self):
        code, out, _ = run(["specfun", "ai", "--x", "0"])
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert float(row[0]) == pytest.approx(0.3550280538878172, abs=1e-16)
        assert float(row[1]) == pytest.approx(-0.2588194037928068, abs=1e-16)

    def test_output_file(self, tmp_path):
        target = tmp_path / "rule.csv"
        code, out, _ = run(["quad", "--rule", "gauss", "--a", "0", "--b", "1",
                            "--m", "2", "--output", str(target)])
        assert code == 0
        assert out == ""
        assert target.read_text().splitlines()[0] == "node,weight"

