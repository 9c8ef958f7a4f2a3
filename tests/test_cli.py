"""End-to-end runs of the command line interface."""

import hashlib
import json
import math
import os
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tamsde.analysis
import tamsde.cli
from tamsde import (InputError, NoiseSource, SchemeConfig, estimate_moment,
                    estimate_mse, exact_gbm_terminal, get_model, tm_step_count)
from tamsde.analysis import cell_seed
from tamsde.cli import (ExperimentConfig, _build_parser, _config_from_args,
                        main, run_experiment)

from test_analysis import explode_seed

RATE_HEADER = "k,delta,n_paths,mse,log2_mse,std_error,mean_fine_steps,mean_coarse_steps"
COMPARE_HEADER = "scheme,T,k,log2_NT,log2_mse"
MOMENTS_HEADER = "T,p,mean_abs_p,std_error"


def run(args):
    return main([str(a) for a in args])


class TestRateCommand:
    def test_outputs_and_summary(self, tmp_path, capsys):
        code = run(["rate", "--model", "gbm", "--k-min", "1", "--k-max", "3",
                    "--paths", "60", "--T", "1", "--seed", "42",
                    "--threads", "1", "--out", tmp_path])
        assert code == 0
        csv_text = (tmp_path / "rate.csv").read_text()
        lines = csv_text.strip().split("\n")
        assert lines[0] == RATE_HEADER
        assert len(lines) == 1 + 3  # header + one row per level
        assert lines[1].startswith("1,0.5,60,")
        summary = json.loads((tmp_path / "rate.json").read_text())
        assert set(summary) == {"slope", "intercept", "empirical_rate",
                                "alpha_prime", "r_squared",
                                "theoretical_rate"}
        assert summary["theoretical_rate"] == 1.0
        assert summary["empirical_rate"] == -summary["slope"] / 2
        # progress goes to stderr, not into the files
        err = capsys.readouterr().err
        assert "k=1" in err and "k=1" not in csv_text

    def test_model2_theoretical_rate(self, tmp_path):
        code = run(["rate", "--model", "model2", "--k-min", "1", "--k-max",
                    "2", "--paths", "40", "--T", "1", "--seed", "1",
                    "--threads", "1", "--out", tmp_path])
        assert code == 0
        summary = json.loads((tmp_path / "rate.json").read_text())
        assert summary["theoretical_rate"] == pytest.approx(0.6, abs=1e-15)

    def test_reruns_are_byte_identical(self, tmp_path):
        args = ["rate", "--model", "model1", "--k-min", "1", "--k-max", "2",
                "--paths", "50", "--T", "1", "--seed", "9", "--threads", "1"]
        run(args + ["--out", tmp_path / "a"])
        run(args + ["--out", tmp_path / "b"])
        assert (tmp_path / "a/rate.csv").read_bytes() == \
               (tmp_path / "b/rate.csv").read_bytes()
        assert (tmp_path / "a/rate.json").read_bytes() == \
               (tmp_path / "b/rate.json").read_bytes()

    def test_rerun_writes_new_files(self, tmp_path):
        # a rerun into the same --out unlinks each data file and writes a
        # new one with the same bytes: a hard link keeps the old file, and
        # its inode, as it was, and a symlink is replaced, not followed
        args = ["rate", "--model", "model1", "--k-min", "1", "--k-max", "2",
                "--paths", "20", "--T", "1", "--seed", "9", "--threads", "1",
                "--out", tmp_path]
        assert run(args) == 0
        csv_path, json_path = tmp_path / "rate.csv", tmp_path / "rate.json"
        old = tmp_path / "old.csv"
        os.link(csv_path, old)
        elsewhere = tmp_path / "elsewhere.json"
        elsewhere.write_bytes(json_path.read_bytes())
        json_path.unlink()
        json_path.symlink_to(elsewhere)
        elsewhere.write_text("kept\n")
        assert run(args) == 0
        assert csv_path.read_bytes() == old.read_bytes()
        assert csv_path.stat().st_ino != old.stat().st_ino
        assert not json_path.is_symlink()
        assert elsewhere.read_text() == "kept\n"
        assert json.loads(json_path.read_text())["theoretical_rate"] == 1.0

    def test_directory_at_a_data_file_path(self, tmp_path, capsys):
        # the unlink before the write fails on a directory, and the run
        # exits 2 with one error line after its progress lines, as an
        # unwritable --out does
        (tmp_path / "rate.json").mkdir()
        code = run(["rate", "--model", "model1", "--k-min", "1", "--k-max",
                    "2", "--paths", "2", "--T", "0.25", "--threads", "1",
                    "--seed", "0", "--out", tmp_path])
        assert code == 2
        (line,) = [line for line in capsys.readouterr().err.splitlines()
                   if not line.startswith("[rate]")]
        assert line.startswith("error: cannot write output: ")

    def test_thread_count_does_not_change_bytes(self, tmp_path, monkeypatch):
        # two workers even on a host with one CPU
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        args = ["rate", "--model", "model1", "--k-min", "1", "--k-max", "2",
                "--paths", "40", "--T", "1", "--seed", "9"]
        run(args + ["--threads", "1", "--out", tmp_path / "serial"])
        run(args + ["--threads", "2", "--out", tmp_path / "pooled"])
        assert (tmp_path / "serial/rate.csv").read_bytes() == \
               (tmp_path / "pooled/rate.csv").read_bytes()

    def test_extending_k_range_preserves_lower_rows(self, tmp_path):
        base = ["rate", "--model", "model1", "--paths", "30", "--T", "1",
                "--seed", "4", "--threads", "1"]
        run(base + ["--k-min", "1", "--k-max", "2", "--out", tmp_path / "lo"])
        run(base + ["--k-min", "1", "--k-max", "3", "--out", tmp_path / "hi"])
        lo = (tmp_path / "lo/rate.csv").read_text().strip().split("\n")
        hi = (tmp_path / "hi/rate.csv").read_text().strip().split("\n")
        assert hi[:3] == lo[:3]


class TestMomentsCommand:
    def test_outputs(self, tmp_path):
        code = run(["moments", "--model", "model1", "--k", "2", "--T", "0.5",
                    "1.0", "--p", "2", "--paths", "30", "--seed", "3",
                    "--threads", "1", "--out", tmp_path])
        assert code == 0
        lines = (tmp_path / "moments.csv").read_text().strip().split("\n")
        assert lines[0] == MOMENTS_HEADER
        assert len(lines) == 3
        assert lines[1].startswith("0.5,2.0,")
        assert lines[2].startswith("1.0,2.0,")

    def test_multiple_moment_orders(self, tmp_path):
        run(["moments", "--model", "gbm", "--k", "3", "--T", "1", "--p", "1",
             "2", "--paths", "20", "--seed", "0", "--threads", "1",
             "--out", tmp_path])
        lines = (tmp_path / "moments.csv").read_text().strip().split("\n")
        assert len(lines) == 3


class TestCompareCommand:
    def test_outputs(self, tmp_path):
        code = run(["compare", "--model", "model1", "--k-min", "1",
                    "--k-max", "2", "--T", "1", "--paths", "25", "--seed",
                    "6", "--threads", "1", "--out", tmp_path])
        assert code == 0
        lines = (tmp_path / "compare.csv").read_text().strip().split("\n")
        assert lines[0] == COMPARE_HEADER
        assert len(lines) == 5  # 2 levels x 2 schemes + header
        schemes = [ln.split(",")[0] for ln in lines[1:]]
        assert schemes == ["tam", "tm", "tam", "tm"]
        # TM work column is exact: log2(T * 2^k)
        tm_row = lines[2].split(",")
        assert float(tm_row[3]) == math.log2(2.0)

    def test_prints_failures_per_cell(self, tmp_path, capsys, monkeypatch):
        # one forced explosion in the adaptive k=2 cell must reach stderr
        explode_seed(monkeypatch, cell_seed(6, 200, 2, 0))
        code = run(["compare", "--model", "model1", "--k-min", "1",
                    "--k-max", "2", "--T", "1", "--paths", "200", "--seed",
                    "6", "--threads", "1", "--out", tmp_path])
        assert code == 0
        line = re.compile(r"\[compare\] scheme=(\w+) T=1\.0 k=(\d) "
                          r"log2_mse=\S+ failures=(\d+)")
        lines = capsys.readouterr().err.strip().split("\n")
        assert [line.fullmatch(ln).groups() for ln in lines] == [
            ("tam", "1", "0"), ("tm", "1", "0"),
            ("tam", "2", "1"), ("tm", "2", "0")]


class TestVerifyAssumptionsCommand:
    def test_model1_report(self, tmp_path):
        code = run(["verify-assumptions", "--model", "model1", "--grid",
                    "-50:50:500", "--seed", "0", "--out", tmp_path])
        assert code == 0
        report = json.loads((tmp_path / "assumptions.json").read_text())
        assert report["model"] == "model1"
        assert report["grid"] == {"lo": -50.0, "hi": 50.0, "n": 500}
        assert report["dissipativity"]["holds"] is True
        assert report["one_sided_lipschitz"]["holds"] is True
        assert "worst_margin" in report["dissipativity"]
        assert len(report["one_sided_lipschitz"]["worst_pair"]) == 2

    def test_model2_report(self, tmp_path):
        code = run(["verify-assumptions", "--model", "model2", "--grid",
                    "-50:50:500", "--seed", "0", "--out", tmp_path])
        assert code == 0
        report = json.loads((tmp_path / "assumptions.json").read_text())
        assert report["dissipativity"]["holds"] is True
        assert report["one_sided_lipschitz"]["holds"] is True

    def test_determinism(self, tmp_path):
        args = ["verify-assumptions", "--model", "model2", "--grid",
                "-10:10:100", "--seed", "5"]
        run(args + ["--out", tmp_path / "a"])
        run(args + ["--out", tmp_path / "b"])
        assert (tmp_path / "a/assumptions.json").read_bytes() == \
               (tmp_path / "b/assumptions.json").read_bytes()

    def test_non_finite_margin_written_as_null(self, tmp_path):
        # both a +inf and a -inf drift term on the grid: the margin there is
        # NaN, which strict JSON has no token for
        doc = dict(HOLDER_HALF, drift=[{"coeff": 1, "power": 400},
                                       {"coeff": -1, "power": 401}])
        path = tmp_path / "opposed.json"
        path.write_text(json.dumps(doc))
        assert run(["verify-assumptions", "--model", path, "--grid",
                    "-10:10:21", "--out", tmp_path]) == 0

        def rejected(token):
            raise ValueError(f"not strict JSON: {token}")

        report = json.loads((tmp_path / "assumptions.json").read_text(),
                            parse_constant=rejected)
        assert report["dissipativity"]["holds"] is False
        assert report["dissipativity"]["worst_margin"] is None

    def test_bad_grid_rejected(self, tmp_path, capsys):
        # hi - lo of -1e308:1e308 is inf, which would make grid points NaN
        for grid in ("0:1", "-1e308:1e308:3"):
            code = run(["verify-assumptions", "--model", "model1", "--grid",
                        grid, "--out", tmp_path])
            assert code == 2
            assert "grid" in capsys.readouterr().err

    def test_grid_beyond_the_bound(self, tmp_path, capsys):
        # a grid of 10**20 points is refused before any point is built, with
        # one line and no directory, not run until memory runs out
        out = tmp_path / "deep"
        code = run(["verify-assumptions", "--model", "model1", "--grid",
                    "0:1:100000000000000000000", "--out", out])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: grid needs finite lo < hi with a finite span hi - lo and "
            "2 <= n <= 1000000, got '0:1:100000000000000000000'\n")
        assert not out.exists()


class TestErrorHandling:
    def test_unknown_model(self, tmp_path, capsys):
        code = run(["rate", "--model", "mystery", "--out", tmp_path])
        assert code == 2
        assert "unknown model" in capsys.readouterr().err

    def test_invalid_k_range(self, tmp_path, capsys):
        code = run(["rate", "--model", "model1", "--k-min", "3", "--k-max",
                    "2", "--out", tmp_path])
        assert code == 2
        assert "level range" in capsys.readouterr().err

    def test_k_min_below_one(self, tmp_path, capsys):
        code = run(["rate", "--model", "model1", "--k-min", "0", "--k-max",
                    "2", "--out", tmp_path])
        assert code == 2
        assert "level range" in capsys.readouterr().err

    def test_too_few_paths(self, tmp_path, capsys):
        code = run(["rate", "--model", "model1", "--paths", "1",
                    "--out", tmp_path])
        assert code == 2
        assert "n_paths" in capsys.readouterr().err

    def test_unwritable_output(self, capsys):
        code = run(["rate", "--model", "model1", "--k-min", "1", "--k-max",
                    "2", "--paths", "2", "--T", "0.25", "--threads", "1",
                    "--seed", "0", "--out", "/dev/null/nope"])
        assert code == 2
        assert "output" in capsys.readouterr().err

    def test_estimation_failure_exit_code(self, tmp_path, capsys):
        # model file whose drift explodes from a huge start: every path
        # fails, the rate command must exit 3
        doc = {
            "name": "exploder", "x0": 1e80,
            "drift": [{"coeff": 1e150, "power": 3}],
            "diffusion": [{"coeff": 0.0}],
            "regularity": {"alpha": 1.0, "l": 3.0, "gamma": 1.0, "eta": 1.0,
                           "lambda_os": 1.0, "p0": 20.0},
        }
        path = tmp_path / "exploder.json"
        path.write_text(json.dumps(doc))
        code = run(["rate", "--model", path, "--k-min", "1", "--k-max", "2",
                    "--paths", "3", "--T", "1e300", "--l0", "4",
                    "--threads", "1", "--out", tmp_path])
        assert code == 3
        assert "estimation error" in capsys.readouterr().err

    def test_model_file_nested_too_deep(self, tmp_path, capsys):
        # one line on stderr and status 2, not a RecursionError traceback
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        assert run(["rate", "--model", path, "--out", tmp_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: model file") and err.count("\n") == 1
        assert "is not valid JSON" in err

    @pytest.mark.parametrize("argv, regularity, x0, drift", [
        (["verify-assumptions"], {"alpha": "abc"}, 0.3, {}),
        (["moments", "--paths", "4", "--threads", "1"], {}, math.nan, {}),
        (["rate", "--paths", "4", "--threads", "1"], {}, 0.3,
         {"power": 10 ** 400}),
        # json writes inf as Infinity, which reads back as 1e400 would
        (["verify-assumptions"], {}, 0.3, {"coeff": math.inf})],
        ids=["non-numeric-alpha", "nan-x0", "huge-power", "infinite-coeff"])
    def test_malformed_model_file(self, tmp_path, capsys, argv, regularity,
                                  x0, drift):
        doc = dict(HOLDER_HALF, x0=x0,
                   regularity=dict(HOLDER_HALF["regularity"], **regularity),
                   drift=[dict(HOLDER_HALF["drift"][0], **drift)])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run(argv + ["--model", path, "--out", tmp_path]) == 2
        assert "error: model field" in capsys.readouterr().err

    def test_constant_term_model_starting_near_zero(self, tmp_path):
        # HOLDER_HALF has a constant diffusion term, whose derivative at
        # 1e-310 must be 0, not nan
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(dict(HOLDER_HALF, x0=1e-310)))
        assert run(["rate", "--model", path, "--k-min", "1", "--k-max", "2",
                    "--paths", "20", "--T", "1", "--threads", "1",
                    "--out", tmp_path]) == 0


def _config(**fields):
    return ExperimentConfig(kind="rate", model="model1", **fields)


_M1 = get_model("model1")
_CFG = SchemeConfig(delta=0.25, t_end=1.0)


@pytest.mark.parametrize("call", [
    lambda: _config(k_min="1"),
    lambda: _config(threads="2"),
    lambda: _config(threads=1.5),
    lambda: _config(n_paths=None),
    lambda: _config(t_values=("1",)),
    lambda: _config(t_values=1.0),
    lambda: estimate_mse(_M1, 1.0, 2.0, 1, 4, 1.0, 0, n_jobs=1.5),
    lambda: estimate_mse(_M1, 1.0, 2.0, 1, 4, 1.0, 0, n_jobs="2"),
    lambda: estimate_mse(_M1, 1.0, 2.0, 1, 4, 1.0, 0, n_jobs=0),
    lambda: estimate_moment(_M1, _CFG, "2", 4, 0),
    lambda: estimate_moment(_M1, _CFG, math.inf, 4, 0),
    lambda: tm_step_count("1", 0.5),
    lambda: exact_gbm_terminal(0.05, 0.2, 1.0, "1", 0.0),
    lambda: NoiseSource(0).gaussian_increment("1")],
    ids=["config-k_min", "config-threads-str", "config-threads-float",
         "config-n_paths", "config-t_values-str", "config-t_values-float",
         "mse-n_jobs-float", "mse-n_jobs-str", "mse-n_jobs-zero",
         "moment-p-str", "moment-p-inf", "tm_step_count-t_end",
         "exact_gbm-t_end", "noise-duration"])
def test_numeric_library_arguments_raise_input_errors(call):
    # never a raw TypeError, and never a cell run on a bad argument
    with pytest.raises(InputError):
        call()


@pytest.fixture
def no_cells(monkeypatch):
    """Make any Monte Carlo cell that starts fail the test at once."""
    def ran(*args, **kwargs):
        raise AssertionError("a Monte Carlo cell ran")
    for module, name in [(tamsde.cli, "estimate_mse"),
                         (tamsde.cli, "estimate_moment"),
                         (tamsde.analysis, "estimate_mse"),
                         (tamsde.analysis, "estimate_tm_mse")]:
        monkeypatch.setattr(module, name, ran)


class TestRejectedBeforeAnyCell:
    def test_infinite_horizon(self, tmp_path, capsys, no_cells):
        code = run(["moments", "--model", "model1", "--T", "inf",
                    "--paths", "4", "--threads", "1", "--out", tmp_path])
        assert code == 2
        assert "T must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["rate", "--paths", "4294967297"],
        ["moments", "--p"] + [str(p) for p in range(1, 258)],
        ["compare", "--T"] + [str(t) for t in range(1, 1026)]],
        ids=["paths-beyond-level-stride", "orders-beyond-horizon-stride",
             "horizons-beyond-baseline-offset"])
    def test_overlapping_seed_cells(self, tmp_path, capsys, no_cells, argv):
        code = run(argv + ["--model", "model1", "--threads", "1",
                           "--out", tmp_path])
        assert code == 2
        assert "disjoint" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["verify-assumptions", "--grid", "0:1"],
        ["verify-assumptions", "--seed", "-3"],
        ["rate", "--paths", "4294967297"],
        ["compare", "--T"] + [str(t) for t in range(1, 1026)],
        ["moments", "--l0", "1.5"],
        ["compare", "--h0", "0"],
        ["rate", "--h0", "inf"],
        ["rate", "--l0", "inf"],
        ["rate", "--k-min", "3", "--k-max", "3"]],
        ids=["bad-grid", "negative-verify-seed", "overlapping-seed-cells",
             "overlapping-compare-cells",
             "l0", "h0", "infinite-h0", "infinite-l0", "one-level-rate"])
    def test_rejected_run_makes_no_directory(self, tmp_path, no_cells, argv):
        out = tmp_path / "deep"
        assert run(argv + ["--model", "model1", "--out", out]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("orders, message", [
        (["2", "inf"], "moment order p must be finite, got inf"),
        (["2", "0"], "moment order p must be > 0, got 0.0")],
        ids=["infinite", "zero"])
    def test_bad_moment_order(self, tmp_path, capsys, no_cells, orders,
                              message):
        code = run(["moments", "--model", "model1", "--paths", "4", "--k",
                    "1", "--T", "1", "--p", *orders, "--threads", "1",
                    "--out", tmp_path])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_rate_with_two_horizons(self, tmp_path, no_cells):
        # rate fits one horizon; a second must not be dropped silently
        with pytest.raises(InputError, match="rate takes one horizon T"):
            run_experiment(ExperimentConfig(
                kind="rate", model="model1", n_paths=4, t_values=(1.0, 50.0),
                out_dir=str(tmp_path)))

    def test_one_level_rate(self, tmp_path, capsys, no_cells):
        # a rate fit needs two levels; one must fail before its cell runs
        code = run(["rate", "--model", "model1", "--k-min", "3", "--k-max",
                    "3", "--paths", "4", "--T", "1", "--threads", "1",
                    "--out", tmp_path])
        assert code == 2
        assert ("rate regression needs at least two distinct levels k, "
                "got [3]") in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["rate", "moments", "compare"])
    def test_negative_seed(self, tmp_path, capsys, no_cells, kind):
        code = run([kind, "--model", "model1", "--seed", "-1", "--paths", "2",
                    "--threads", "1", "--out", tmp_path])
        assert code == 2
        assert "seed must be a non-negative integer, got -1" in (
            capsys.readouterr().err)


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(InputError):
            ExperimentConfig(kind="rate", model="model1", k_min=0)
        with pytest.raises(InputError):
            ExperimentConfig(kind="rate", model="model1", k_min=3, k_max=2)
        with pytest.raises(InputError):
            ExperimentConfig(kind="rate", model="model1", n_paths=1)
        with pytest.raises(InputError):
            ExperimentConfig(kind="rate", model="model1", t_values=(0.0,))
        with pytest.raises(InputError):
            ExperimentConfig(kind="nope", model="model1")
        with pytest.raises(InputError):
            ExperimentConfig(kind="rate", model="model1", threads=0)
        # a seed of None would seed verify-assumptions' sample from the OS
        for field in (dict(seed=None), dict(seed=-1), dict(seed="x"),
                      dict(seed=1.5), dict(seed=True), dict(grid=None),
                      dict(grid=5), dict(grid="0:1"), dict(out_dir=None),
                      dict(out_dir=3)):
            for kind in ("rate", "verify-assumptions"):
                with pytest.raises(InputError, match=next(iter(field))):
                    ExperimentConfig(kind=kind, model="model1", **field)

    @pytest.mark.parametrize("kind, want", [
        ("rate", dict(n_paths=10_000, k_min=1, k_max=5, t_values=(1.0,))),
        ("moments", dict(n_paths=1_000, k_min=4, k_max=4, t_values=(1.0,),
                         p_values=(2.0,))),
        ("compare", dict(n_paths=1_000, k_min=1, k_max=5, t_values=(1.0,))),
    ])
    def test_flag_defaults(self, kind, want):
        args = _build_parser().parse_args([kind, "--model", "m"])
        assert _config_from_args(args) == ExperimentConfig(
            kind=kind, model="m", h0=1.0, l0=2.0, seed=0, out_dir=".",
            threads=os.cpu_count() or 1, **want)

    def test_parser_built_once_and_threads_read_at_each_run(
            self, monkeypatch):
        threads = []
        monkeypatch.setattr(tamsde.cli, "run_experiment",
                            lambda config: threads.append(config.threads))
        _build_parser.cache_clear()
        argv = ["verify-assumptions", "--model", "gbm"]
        for cpus in (3, None):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            assert main(["rate", "--model", "model1"]) == 0
            assert main(argv) == 0
        assert _build_parser.cache_info().misses == 1
        # rate's default follows the count; verify-assumptions has no flag
        assert threads == [3, 1, 1, 1]

    @pytest.mark.parametrize("n, allowed", [
        (10 ** 6, True), (10 ** 6 + 1, False), (10 ** 20, False)])
    def test_grid_points_are_bounded(self, n, allowed):
        # checked on the text alone: no grid point is built here
        config = dict(kind="verify-assumptions", model="model1",
                      grid=f"0:1:{n}")
        if allowed:
            assert ExperimentConfig(**config).grid == f"0:1:{n}"
        else:
            with pytest.raises(InputError, match="2 <= n <= 1000000"):
                ExperimentConfig(**config)

    def test_verify_flag_defaults(self):
        args = _build_parser().parse_args(["verify-assumptions", "--model", "m"])
        assert _config_from_args(args) == ExperimentConfig(
            kind="verify-assumptions", model="m", seed=0, out_dir=".",
            threads=1, grid="-50:50:10000")

    def test_run_experiment_is_public(self, tmp_path):
        cfg = ExperimentConfig(kind="verify-assumptions", model="gbm",
                               grid="-5:5:50", out_dir=str(tmp_path))
        run_experiment(cfg)
        assert (tmp_path / "assumptions.json").exists()


# A model file with a Holder-1/2 diffusion derivative; rate runs it at l0=3,
# so the clock takes the general |x|**l0 penalty rather than x*x.
HOLDER_HALF = {
    "name": "holder_half", "x0": 0.3,
    "drift": [{"coeff": 0.5, "power": 1}, {"coeff": -1.0, "power": 3}],
    "diffusion": [{"coeff": 0.2},
                  {"coeff": 0.3, "power": 1, "abs_power": 0.5}],
    "regularity": {"alpha": 0.5, "l": 2.0, "gamma": 1.0, "eta": 1.0,
                   "lambda_os": 1.0, "p0": 14.0},
}

# sha256 of each data file.  Reruns agreeing with each other cannot show a
# change in the numerics, the seed layout or the file format; these can.  A
# change that alters bytes on purpose says so and updates them.  They assume
# IEEE doubles and the platform's libm pow, as the byte-stability promise
# does.
PINNED_CELLS = [
    (["rate", "--model", "model2", "--k-min", "1", "--k-max", "4", "--T",
      "2", "--paths", "200", "--seed", "11", "--threads", "1"],
     {"rate.csv": "ae52cfad704700521ddcfd0cc97e08af95b1e6a49fa014509d06481f5ed14fbf",
      "rate.json": "881a1546605988e0b273ded4bcac3d657d3509f8b5ddfa8aa7ea4779d469096f"}),
    (["compare", "--model", "model1", "--k-min", "1", "--k-max", "4", "--T",
      "1", "5", "--paths", "150", "--seed", "12", "--threads", "1"],
     {"compare.csv": "87d4b660d9c8c25fd895da50642076220732bc7b190ef80f86268daaabf95f55"}),
    (["moments", "--model", "model1", "--k", "3", "--T", "1", "10", "30",
      "--p", "1", "2", "--paths", "60", "--seed", "13", "--threads", "1"],
     {"moments.csv": "f82a3a8ddbc1d226a80314e07bd3042a27c56b70761cfea0b873b2c6376ffc4a"}),
    (["rate", "--model", "holder_half.json", "--l0", "3", "--k-min", "1",
      "--k-max", "4", "--T", "2", "--paths", "200", "--seed", "14",
      "--threads", "1"],
     {"rate.csv": "f7ae5aac5dda2c56501f75965c674438242bcf6a5f2ce09938f59a6df8dc3600",
      "rate.json": "b0e044359124f9119954a83480cb6f127854f36d17a538170a133c59cf4151e5"}),
    (["verify-assumptions", "--model", "model2", "--seed", "15"],
     {"assumptions.json": "9df993dc6d368e5e28f2da575ca760f15dbf1eb450233160cca2ef0a34f9e436"}),
    (["verify-assumptions", "--model", "holder_half.json", "--grid",
      "-3:3:61", "--seed", "16"],
     {"assumptions.json": "c78f66f5a9012eca38b6a34c9355038e69d605548f4ba43fad91062f6f6d1eac"}),
]


@pytest.mark.parametrize("argv, digests", PINNED_CELLS,
                         ids=["rate-model2", "compare-model1",
                              "moments-model1", "rate-json-l0",
                              "verify-model2", "verify-json-small-grid"])
def test_pinned_output_digests(tmp_path, monkeypatch, argv, digests):
    (tmp_path / "holder_half.json").write_text(json.dumps(HOLDER_HALF))
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--out", "out"]) == 0
    for name, want in digests.items():
        got = hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
        assert got == want, name


# --- fuzzing argv ------------------------------------------------------------

# flags that bound the cost of every fuzzed run of a subcommand; the fuzzed
# tokens after them may override them, but only with small values (paths
# <= 4, k <= 3, T <= 1) or malformed ones
_BOUNDS = {
    "rate": ["--k-min", "1", "--k-max", "2", "--T", "0.5"],
    "moments": ["--k", "1", "--T", "0.5"],
    "compare": ["--k-min", "1", "--k-max", "1", "--T", "0.5"],
    "verify-assumptions": ["--grid", "-1:1:5"],
}
_COMMON = ["--model", "model1", "--paths", "2", "--threads", "1"]
_MALFORMED = ["", "x", "nan", "inf", "-inf", "-1", "0", "1e400", "--", "--help"]
_FLAG_VALUES = {
    "--model": ["model1", "model2", "gbm", "nope", "absent.json"],
    "--paths": ["2", "3", "4"],
    "--k-min": ["1", "2", "3"],
    "--k-max": ["1", "2", "3"],
    "--k": ["1", "2", "3"],
    "--T": ["0.25", "0.5", "1"],
    "--p": ["0.5", "1", "2"],
    "--h0": ["0.5", "1", "2"],
    "--l0": ["2", "3"],
    "--seed": ["0", "7", str(2 ** 40)],
    "--threads": ["1"],
    "--grid": ["0:2:3", "1:0:5", "-1:1:1", "a:b:c", "1:2", "-1:1:1e3"],
    "--out": ["FILE"],  # replaced by the path of an existing file
    "--bogus": ["1"],
}
# a flag with a valid or a malformed value, mostly, or a lone flag or value
_pairs = st.sampled_from(sorted(_FLAG_VALUES)).flatmap(
    lambda flag: st.one_of(st.sampled_from(_FLAG_VALUES[flag]),
                           st.sampled_from(_MALFORMED)).map(
        lambda value: [flag, value]))
_tokens = st.one_of(_pairs, _pairs, _pairs,
                    st.sampled_from(sorted(_FLAG_VALUES)).map(lambda flag: [flag]),
                    st.sampled_from(_MALFORMED).map(lambda value: [value]))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(sorted(_BOUNDS) + ["bogus", None]),
       tokens=st.lists(_tokens, max_size=4))
def test_fuzzed_argv_exits_cleanly(tmp_path, monkeypatch, capsys, kind,
                                  tokens):
    """Any argv built from valid and malformed flags exits 0, 2 or 3 with
    no traceback."""
    monkeypatch.chdir(tmp_path)  # "--out nan" makes a directory "nan"
    (tmp_path / "file").write_text("")
    argv = [] if kind is None else [kind] + _BOUNDS.get(kind, [])
    if kind in ("rate", "moments", "compare"):
        argv += _COMMON
    argv += ["--out", str(tmp_path / "out")]
    argv += [str(tmp_path / "file") if t == "FILE" else t
             for token in tokens for t in token]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse: 2 for a usage error, 0 for --help
        code = exc.code
    assert code in (0, 2, 3), argv
    assert "Traceback" not in capsys.readouterr().err
