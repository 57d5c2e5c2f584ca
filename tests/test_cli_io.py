"""File parsing, report writing, CLI dispatch, exit codes, and determinism."""

import argparse
import csv
import decimal
import inspect
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from profile_null import (
    CenterTable,
    CompositeConfig,
    composite_score,
    correlation_matrix,
    fit_method_of_moments,
    inverse_corr_weights,
)
from profile_null.baselines import DEFAULT_WINSOR_Q
from profile_null.cli import build_parser, main
from profile_null.composite import WEIGHT_SCHEMES
from profile_null.empirical_null import FLAG_Z, control_limits
from profile_null.errors import InputError
from profile_null.report import (
    align_scores,
    emit_funnel,
    fmt6,
    read_center_stats,
    read_measure_config,
    read_sim_config,
    standardize,
    write_composite_report,
    write_diagnostics,
    write_scores_report,
)
from profile_null.simulation import METHOD_KEYS, run_flagging_experiment

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


def _write_rows(path, rows):
    # the default "\r\n" terminator quotes cells holding either line break
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _read_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def _read_scores(path):
    header, *rows = _read_rows(path)
    assert header == ["center_id", "measure_id", "z_fe", "z_en", "z_mom"]
    return [dict(zip(header, row)) for row in rows]


@pytest.fixture(scope="module")
def measures():
    return read_measure_config(FIXTURES / "measures.json")


@pytest.fixture(scope="module")
def table(measures):
    return read_center_stats(FIXTURES / "centers.csv", measures)


# the formatting fmt6 must reproduce: exact value, ties away from zero
_FMT6_REF_CONTEXT = decimal.Context(prec=400)


def _fmt6_reference(x: float) -> str:
    d = decimal.Decimal(x).quantize(decimal.Decimal("0.000001"),
                                    rounding=decimal.ROUND_HALF_UP,
                                    context=_FMT6_REF_CONTEXT)
    return "0.000000" if d == 0 else str(d)


class TestFmt6:
    def test_basics(self):
        assert fmt6(0.0) == "0.000000"
        assert fmt6(1.2345678) == "1.234568"
        assert fmt6(-1.25) == "-1.250000"

    def test_half_away_from_zero(self):
        # 2^-7 is an exact decimal tie at the 7th place: banker's rounding
        # would give ...812, away-from-zero gives ...813
        assert fmt6(0.0078125) == "0.007813"
        assert fmt6(-0.0078125) == "-0.007813"
        assert fmt6(0.0156250) == "0.015625"
        assert fmt6(1.5e-06) == "0.000002"
        assert fmt6(2.5e-06) == "0.000003"

    def test_negative_zero_normalized(self):
        assert fmt6(-1e-9) == "0.000000"

    def test_non_finite_rejected(self):
        with pytest.raises(InputError):
            fmt6(float("nan"))

    @pytest.mark.parametrize("x", [sys.float_info.max, 1e60])
    def test_largest_values(self, x):
        # every digit of the integer part, then six decimals
        assert fmt6(x) == f"{int(x)}.000000"
        assert fmt6(-x) == f"-{int(x)}.000000"

    @settings(max_examples=2000, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False)
           | st.integers(-6000, 6000).map(lambda k: k / 256)
           | st.integers(-2**40, 2**40).map(lambda k: (2 * k + 1) / 128)
           | st.integers(-10**7, 10**7).map(lambda k: k / 1e7))
    @example(0.0078125)
    @example(-0.0078125)
    @example(-0.0)
    @example(5e-324)
    @example(-5e-324)
    @example(sys.float_info.max)
    @example(-1e60)
    def test_matches_decimal_reference(self, x):
        # ties (x * 128 an odd integer) and every other value alike
        assert fmt6(x) == _fmt6_reference(x)


class TestReadMeasureConfig:
    def test_fixture_parses_with_defaults(self, measures):
        assert [m.measure_id for m in measures] == ["TRR", "SAR", "PSMR", "GSMR"]
        trr = measures[0]
        assert trr.a_psi == 1.0
        assert trr.en_config.q_percent == 5.0
        assert trr.en_config.pi0_grid_step == 0.005

    def test_direction_signs(self, measures):
        assert measures[0].direction == "higher_is_better"
        assert measures[2].direction == "lower_is_better"

    @pytest.mark.parametrize("name", ["unknown_family.json", "bad_a_psi.json",
                                      "unknown_key.json"])
    def test_malformed_rejected(self, name):
        with pytest.raises(InputError):
            read_measure_config(FIXTURES / "malformed" / name)

    def test_missing_file(self):
        with pytest.raises(InputError, match="not found"):
            read_measure_config(FIXTURES / "nope.json")

    @pytest.mark.parametrize("bad_id", ["a/../../escaped", "..\\escaped", "a\0b", "", " A",
                                        "A\x1cB", "A\uffffB"])
    def test_path_characters_in_measure_id_exit_2(self, tmp_path, capsys, bad_id):
        # measure ids name the funnel files, so they must not leave --out;
        # the centers reader strips ids, so " A" could match no row; and they
        # title the funnel SVGs, where XML 1.0 forbids "\x1c" and "\uffff"
        spec = json.loads((FIXTURES / "measures.json").read_text())
        spec[1]["measure_id"] = bad_id
        measures = tmp_path / "measures.json"
        measures.write_text(json.dumps(spec))
        rows = _read_rows(FIXTURES / "centers.csv")
        _write_rows(tmp_path / "centers.csv",
                    [[c, bad_id if m == "SAR" else m, *rest] for c, m, *rest in rows])
        out = tmp_path / "x" / "y"
        code = main(["funnel", "--centers", str(tmp_path / "centers.csv"),
                     "--measures", str(measures), "--out", str(out)])
        assert code == 2
        assert "measures entry 2" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


class TestReadCenterStats:
    def test_poisson_fill_rule(self, measures, tmp_path):
        f = tmp_path / "c.csv"
        f.write_text("center_id,measure_id,observed,expected,effective_size\n"
                     "C001,TRR,50,40,\n")
        table = read_center_stats(f, measures)
        assert table.size[0] == 40.0

    def test_explicit_binomial_size(self, measures, tmp_path):
        f = tmp_path / "c.csv"
        f.write_text("center_id,measure_id,observed,expected,effective_size\n"
                     "C001,SAR,30,25,18.2\n")
        table = read_center_stats(f, measures)
        assert table.size[0] == 18.2

    @pytest.mark.parametrize("name,match", [
        ("bad_header.csv", "header"),
        ("non_numeric.csv", "row 2"),
        ("missing_binomial_size.csv", "row 2"),
        ("duplicate_pair.csv", "row 3"),
        ("unknown_measure.csv", "row 2"),
        ("wrong_field_count.csv", "row 2"),
        ("binomial_size_exceeds_expected.csv", "row 2"),
        ("poisson_size_mismatch.csv", "row 2"),
    ])
    def test_malformed_rejected_with_row_numbers(self, measures, name, match):
        with pytest.raises(InputError, match=match):
            read_center_stats(FIXTURES / "malformed" / name, measures)

    @pytest.mark.parametrize("center", ["A\nB", "A\rB", "A\r\nB", "A\u2028B",
                                        "A\x85B", "A\x1cB", "A\x1eB"])
    def test_line_breaks_inside_quoted_ids(self, measures, tmp_path, center):
        f = tmp_path / "c.csv"
        _write_rows(f, [["center_id", "measure_id", "observed", "expected",
                         "effective_size"], [center, "TRR", 50, 40, ""]])
        assert read_center_stats(f, measures).center_ids == (center,)

    def test_fixture_loads(self, table):
        assert len(table) == 848
        assert len(table.center_ids) == 212
        assert np.all(table.size > 0)


class TestScoresReport:
    def test_en_report_roundtrips_at_printed_precision(self, table, tmp_path):
        run = standardize(table, method="en")
        write_scores_report(run, tmp_path)
        rows = _read_scores(tmp_path / "scores.csv")
        assert len(rows) == 848
        for i, row in enumerate(rows[:50]):
            assert (row["center_id"], row["measure_id"]) == table.row_ids(i)
            assert row["z_fe"] == fmt6(run.z_fe[i])
            assert row["z_en"] == fmt6(run.z[i])
            assert row["z_mom"] == ""
        fit_payload = json.loads((tmp_path / "null_fit.json").read_text())
        assert [f["measure_id"] for f in fit_payload] == ["TRR", "SAR", "PSMR",
                                                          "GSMR"]
        for f in fit_payload:
            assert set(f) == {"measure_id", "phi_hat", "pi0_hat",
                              "sigma2_alpha_hat", "phi_init", "v",
                              "n_null_set", "loglik"}

    def test_zero_phi_makes_en_equal_fe(self, measures, tmp_path):
        # standard normal scores: the fitted correction is (near) identity
        rng = np.random.default_rng(0)
        lines = ["center_id,measure_id,observed,expected,effective_size"]
        for i in range(212):
            e = rng.uniform(200, 400)
            o = e + rng.normal(0, math.sqrt(e))
            lines.append(f"R{i:04d},TRR,{o:.6f},{e:.6f},")
        f = tmp_path / "null.csv"
        f.write_text("\n".join(lines) + "\n")
        run = standardize(read_center_stats(f, measures), method="en")
        assert run.null_fits["TRR"].phi_hat < 0.002
        assert run.z[:20] == pytest.approx(run.z_fe[:20], rel=0.25)

    def test_skipped_centers_reported(self, measures, tmp_path):
        f = tmp_path / "c.csv"
        f.write_text("center_id,measure_id,observed,expected,effective_size\n"
                     "C001,SAR,30,25,18.2\n"
                     "C002,SAR,0,25,0\n")
        run = standardize(read_center_stats(f, measures), method="fe")
        assert run.skipped == [("C002", "SAR", "effective_size <= 0")]
        write_scores_report(run, tmp_path)
        assert (tmp_path / "skipped.csv").exists()

    def test_mom_method_fills_mom_column(self, table, tmp_path):
        run = standardize(table, method="mom", mom_q=10.0)
        write_scores_report(run, tmp_path)
        rows = _read_scores(tmp_path / "scores.csv")
        assert rows[0]["z_mom"] != ""
        assert rows[0]["z_en"] == ""
        # each measure's scores are z_fe / sqrt(1 + phi*n) at its moment fit
        # at q = 10
        for k in range(len(table.measures)):
            rows = table.measure == k
            z, n = run.z_fe[rows], table.size[rows]
            phi = fit_method_of_moments(z, n, 10.0)
            assert np.array_equal(run.z[rows], z / np.sqrt(1.0 + phi * n))

    def test_null_fit_scales_phi_hat_by_a_psi(self, tmp_path):
        # the writer multiplies phi_hat by the measure's a_psi
        rng = np.random.default_rng(13)
        measures = tmp_path / "m.json"
        measures.write_text(json.dumps([{"measure_id": "N", "family": "normal",
                                         "direction": "higher_is_better", "a_psi": 2.5}]))
        rows = [["center_id", "measure_id", "observed", "expected", "effective_size"]]
        for i, n in enumerate(rng.uniform(50, 500, 212)):
            o = n + rng.normal(0.0, math.sqrt(2.5 * n * (1.0 + 0.01 * n)))
            rows.append([f"C{i}", "N", f"{o:.6f}", f"{n:.6f}", f"{n:.6f}"])
        _write_rows(tmp_path / "c.csv", rows)
        assert main(["standardize", "--method", "en", "--centers", str(tmp_path / "c.csv"),
                     "--measures", str(measures), "--out", str(tmp_path / "out")]) == 0
        [payload] = json.loads((tmp_path / "out" / "null_fit.json").read_text())
        table = read_center_stats(tmp_path / "c.csv", read_measure_config(measures))
        phi_hat = standardize(table, method="en").null_fits["N"].phi_hat
        assert phi_hat > 0.0
        assert payload["phi_hat"] == float(f"{phi_hat:.12g}")
        assert payload["sigma2_alpha_hat"] == float(f"{phi_hat * 2.5:.12g}")

    def test_empty_input_rejected(self, measures, tmp_path):
        f = tmp_path / "c.csv"
        f.write_text("center_id,measure_id,observed,expected,effective_size\n")
        with pytest.raises(InputError):
            read_center_stats(f, measures)


class TestCompositeReport:
    def test_summary_percentages_partition(self, measures, table, tmp_path):
        run = standardize(table, method="en")
        ids, aligned = align_scores(run)
        from profile_null import composite_table
        results, skipped = composite_table(ids, aligned,
                                           [m.measure_id for m in measures])
        assert not skipped
        path = write_composite_report(results, tmp_path / "composite.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "center_id,z_cs,label,partial"
        assert lines[-2] == "summary,poor_pct,average_pct,good_pct"
        pcts = [float(x) for x in lines[-1].split(",")[1:]]
        assert sum(pcts) == pytest.approx(100.0, abs=0.01)
        assert len(lines) == 1 + 212 + 2

    def test_all_average(self, tmp_path):
        scored = np.rec.fromarrays(
            [np.array([f"C{i}" for i in range(4)], dtype=object), np.zeros(4),
             np.full(4, "average"), np.zeros(4, dtype=bool)],
            names="center_id,z_cs,label,partial")
        path = write_composite_report(scored, tmp_path / "c.csv")
        lines = path.read_text().splitlines()
        assert lines[-1] == "percent,0.000000,100.000000,0.000000"


class TestEmitFunnel:
    def test_csv_values_and_svg(self, measures, table, tmp_path):
        run = standardize(table, method="en")
        spec = measures[0]
        paths = emit_funnel(table, spec, run.null_fits["TRR"].phi_hat, [1.96], tmp_path)
        csv_path = [p for p in paths if p.suffix == ".csv"][0]
        svg_path = [p for p in paths if p.suffix == ".svg"][0]
        lines = csv_path.read_text().splitlines()
        assert lines[0] == ("effective_size,ratio,fe_lower,fe_upper,"
                            "en_lower,en_upper")
        assert len(lines) == 213
        sizes = [float(l.split(",")[0]) for l in lines[1:]]
        assert sizes == sorted(sizes)
        svg = svg_path.read_text()
        assert svg.startswith('<?xml version="1.0"')
        assert "profile-null funnel svg v1" in svg
        assert svg.count("<circle") == 212

    def test_known_limit_row(self, measures, tmp_path):
        # a poisson center with expected = size = 100 under phi = 0.14
        f = tmp_path / "c.csv"
        f.write_text("center_id,measure_id,observed,expected,effective_size\n"
                     "C001,TRR,100,100,\n")
        table = read_center_stats(f, measures)
        paths = emit_funnel(table, measures[0], 0.14, [1.96], tmp_path)
        row = paths[0].read_text().splitlines()[1].split(",")
        assert [float(x) for x in row[2:]] == pytest.approx(
            [0.804, 1.196, 0.241, 1.759], abs=1e-3)

    def test_alpha_z_sharing_a_file_suffix(self, measures, table, tmp_path):
        with pytest.raises(InputError, match="alpha_z 2.0 and 2.0000000001 both name"):
            emit_funnel(table, measures[0], 0.0, [2.0, 2.0000000001], tmp_path)
        assert not list(tmp_path.iterdir())

    def test_fe_curves_match_en_at_zero_phi(self, measures, table, tmp_path):
        paths = emit_funnel(table, measures[0], 0.0, [1.96], tmp_path)
        for line in paths[0].read_text().splitlines()[1:]:
            cells = line.split(",")
            assert cells[2] == cells[4] and cells[3] == cells[5]


class TestSimConfigFile:
    def test_smoke_config(self):
        config, kind = read_sim_config(FIXTURES / "sim_smoke.json")
        assert kind == "flagging"
        assert config.iterations == 2
        assert config.gamma_grid == (0.0, 1.0)

    def test_unknown_key_rejected(self, tmp_path):
        f = tmp_path / "sim.json"
        f.write_text(json.dumps({"experiment": "flagging", "bogus": 1}))
        with pytest.raises(InputError, match="unknown keys"):
            read_sim_config(f)

    def test_unknown_experiment(self, tmp_path):
        f = tmp_path / "sim.json"
        f.write_text(json.dumps({"experiment": "magic"}))
        with pytest.raises(InputError):
            read_sim_config(f)


class TestCliDispatch:
    def test_standardize_happy_path(self, tmp_path, capsys):
        code = main(["standardize", "--centers", str(FIXTURES / "centers.csv"),
                     "--measures", str(FIXTURES / "measures.json"),
                     "--method", "en", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "scores.csv").exists()
        assert (tmp_path / "null_fit.json").exists()

    def test_missing_input_file_exits_2(self, tmp_path, capsys):
        code = main(["standardize", "--centers", str(tmp_path / "ghost.csv"),
                     "--measures", str(FIXTURES / "measures.json"),
                     "--out", str(tmp_path)])
        assert code == 2
        assert "ghost.csv" in capsys.readouterr().err

    def test_malformed_fixture_corpus_exits_2(self, tmp_path, capsys):
        for bad in sorted((FIXTURES / "malformed").glob("*.csv")):
            code = main(["standardize", "--centers", str(bad),
                         "--measures", str(FIXTURES / "measures.json"),
                         "--out", str(tmp_path)])
            assert code == 2, bad.name
            err = capsys.readouterr().err
            if "header" not in err:
                assert "row " in err, (bad.name, err)
        for bad in sorted((FIXTURES / "malformed").glob("*.json")):
            code = main(["standardize",
                         "--centers", str(FIXTURES / "centers.csv"),
                         "--measures", str(bad), "--out", str(tmp_path)])
            assert code == 2, bad.name

    def test_composite_pipeline(self, tmp_path):
        code = main(["composite", "--centers", str(FIXTURES / "centers.csv"),
                     "--measures", str(FIXTURES / "measures.json"),
                     "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "composite.csv").exists()
        assert (tmp_path / "scores.csv").exists()

    def test_funnel_outputs(self, tmp_path):
        code = main(["funnel", "--centers", str(FIXTURES / "centers.csv"),
                     "--measures", str(FIXTURES / "measures.json"),
                     "--out", str(tmp_path)])
        assert code == 0
        for mid in ("TRR", "SAR", "PSMR", "GSMR"):
            assert (tmp_path / f"funnel_{mid}.csv").exists()
            assert (tmp_path / f"funnel_{mid}.svg").exists()

    def test_simulate_smoke(self, tmp_path):
        code = main(["simulate", "--config", str(FIXTURES / "sim_smoke.json"),
                     "--out", str(tmp_path), "--workers", "1"])
        assert code == 0
        lines = (tmp_path / "flag_curves.csv").read_text().splitlines()
        assert lines[0].startswith("gamma,")
        assert len(lines) == 3

    def test_simulate_tuning_and_composite_smoke(self, tmp_path):
        code = main(["simulate", "--config",
                     str(FIXTURES / "sim_smoke_tuning.json"),
                     "--out", str(tmp_path), "--workers", "1"])
        assert code == 0
        assert (tmp_path / "tuning_curves.csv").exists()
        code = main(["simulate", "--config",
                     str(FIXTURES / "sim_smoke_composite.json"),
                     "--out", str(tmp_path), "--workers", "1"])
        assert code == 0
        lines = (tmp_path / "composite_curves.csv").read_text().splitlines()
        assert len(lines) == 5

    def test_diagnose(self, tmp_path):
        code = main(["diagnose", "--centers", str(FIXTURES / "centers.csv"),
                     "--measures", str(FIXTURES / "measures.json"),
                     "--out", str(tmp_path), "--groups", "3"])
        assert code == 0
        lines = (tmp_path / "diagnostics.csv").read_text().splitlines()
        assert lines[0] == "measure_id,group,mean_size,z_variance,flag_proportion"
        assert len(lines) == 1 + 4 * 3

    def test_determinism_across_runs(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["composite",
                         "--centers", str(FIXTURES / "centers.csv"),
                         "--measures", str(FIXTURES / "measures.json"),
                         "--out", str(out)]) == 0
        for name in ("scores.csv", "null_fit.json", "composite.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_console_script_entrypoint(self):
        exe = shutil.which("profile-null")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run([exe, "--version"], capture_output=True, text=True)
        assert proc.returncode == 0


class TestValidationEdges:
    def test_standardize_rejects_duplicates(self, measures):
        # the table standardize takes cannot hold a pair twice
        with pytest.raises(InputError, match="duplicate"):
            standardize(CenterTable(measures, ["C1", "C1"], ["TRR", "TRR"],
                                    [10, 11], [10, 10], [10, 10]), method="fe")

    def test_write_scores_rejects_empty_run(self, measures, tmp_path):
        # an empty run cannot be built: its table must hold rows
        with pytest.raises(InputError):
            write_scores_report(standardize(CenterTable(measures, [], [], [], [], [])),
                                tmp_path)

    def test_degenerate_fit_exits_3(self, tmp_path, capsys):
        # a majority block of identical huge scores collapses the robust
        # scale to zero, so every center sits outside the interval and the
        # fit aborts
        lines = ["center_id,measure_id,observed,expected,effective_size"]
        for i in range(212):
            e = 100.0
            z = 30.0 if i < 120 else -5.0
            o = e + z * math.sqrt(e)
            lines.append(f"X{i:04d},TRR,{o:.6f},{e:.6f},")
        f = tmp_path / "c.csv"
        f.write_text("\n".join(lines) + "\n")
        code = main(["standardize", "--centers", str(f),
                     "--measures", str(FIXTURES / "measures.json"),
                     "--method", "en", "--out", str(tmp_path / "out")])
        assert code == 3
        assert "null set" in capsys.readouterr().err

    def test_fit_and_diagnose_errors_name_the_measure(self, tmp_path, capsys):
        # A fits at 30 centers; B has 4, too few to fit or to split in 3 groups
        rng = np.random.default_rng(7)
        (tmp_path / "m.json").write_text(json.dumps(
            [{"measure_id": m, "family": "poisson", "direction": "higher_is_better"}
             for m in ("A", "B")]))
        rows = [["center_id", "measure_id", "observed", "expected", "effective_size"]]
        for i, e in enumerate(rng.uniform(50, 500, 30)):
            rows += [[f"C{i}", m, int(rng.poisson(e)), f"{e:.6f}", ""]
                     for m in ("A", "B")[:2 if i < 4 else 1]]
        _write_rows(tmp_path / "c.csv", rows)
        too_few = "empirical-null fit needs at least 10 centers, got 4"
        for cmd, code, message in [
                ("standardize", 3, too_few), ("composite", 3, too_few),
                ("funnel", 3, too_few),
                ("diagnose", 2, "need at least 2 centers per group: 4 centers for 3 groups")]:
            assert main([cmd, "--centers", str(tmp_path / "c.csv"), "--measures",
                         str(tmp_path / "m.json"), "--out", str(tmp_path / cmd)]) == code
            assert capsys.readouterr().err == f"error: measure 'B': {message}\n"

    def test_moment_fit_error_names_the_measure(self, tmp_path, capsys):
        # A has 30 centers; B has 1, too few for the moment fit
        rng = np.random.default_rng(8)
        (tmp_path / "m.json").write_text(json.dumps(
            [{"measure_id": m, "family": "poisson", "direction": "higher_is_better"}
             for m in ("A", "B")]))
        rows = [["center_id", "measure_id", "observed", "expected", "effective_size"]]
        for i, e in enumerate(rng.uniform(50, 500, 30)):
            rows += [[f"C{i}", m, int(rng.poisson(e)), f"{e:.6f}", ""]
                     for m in ("A", "B")[:2 if i < 1 else 1]]
        _write_rows(tmp_path / "c.csv", rows)
        assert main(["standardize", "--centers", str(tmp_path / "c.csv"), "--measures",
                     str(tmp_path / "m.json"), "--method", "mom",
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err \
            == "error: measure 'B': method-of-moments needs at least 2 centers\n"

    @pytest.mark.parametrize("cmd,message", [
        (["standardize", "--method", "en"], "the mean of the sizes overflows the float range"),
        (["standardize", "--method", "mom"], "the sum of the sizes or of the squared "
                                             "Winsorized scores overflows the float range"),
        (["funnel"], "the mean of the sizes overflows the float range")],
        ids=["standardize-en", "standardize-mom", "funnel"])
    def test_overflowing_sizes_name_the_measure(self, tmp_path, capsys, cmd, message):
        # finite expected counts of 1e307 to 7e307, whose sum overflows;
        # numpy warnings are errors in this suite
        rng = np.random.default_rng(12)
        (tmp_path / "m.json").write_text(json.dumps(
            [{"measure_id": "A", "family": "poisson", "direction": "higher_is_better"}]))
        rows = [["center_id", "measure_id", "observed", "expected", "effective_size"]]
        rows += [[f"C{i}", "A", f"{e * rng.uniform(0.9, 1.1):.17g}", f"{e:.17g}", ""]
                 for i, e in enumerate(rng.uniform(1e307, 7e307, 40))]
        _write_rows(tmp_path / "c.csv", rows)
        assert main([*cmd, "--centers", str(tmp_path / "c.csv"), "--measures",
                     str(tmp_path / "m.json"), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: measure 'A': {message}\n"

    @pytest.mark.parametrize("cmd", [["standardize", "--method", "en"], ["funnel"]],
                             ids=["standardize-en", "funnel"])
    def test_overflowing_interval_names_the_measure(self, tmp_path, capsys, cmd):
        # scores of N(0, 1) times 1e153 at size 0.5, and one of size 500:
        # the initial phi, about 9e305, times 500 overflows the interval
        # bound; numpy warnings are errors in this suite
        rng = np.random.default_rng(0)
        (tmp_path / "m.json").write_text(json.dumps(
            [{"measure_id": "A", "family": "normal", "direction": "higher_is_better"}]))
        rows = [["center_id", "measure_id", "observed", "expected", "effective_size"]]
        rows += [[f"C{i}", "A", f"{5.0 + z * math.sqrt(n):.17g}", "5", f"{n:g}"]
                 for i, (z, n) in enumerate(zip(rng.normal(size=1000) * 1e153,
                                                [500.0] + [0.5] * 999))]
        _write_rows(tmp_path / "c.csv", rows)
        assert main([*cmd, "--centers", str(tmp_path / "c.csv"), "--measures",
                     str(tmp_path / "m.json"), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: measure 'A': the truncation interval overflows "
                              "the float range: initial phi "), err

    def test_overflowing_fixed_effects_score_names_the_center(self, tmp_path, capsys):
        # finite inputs whose score (observed - expected) / sqrt(size)
        # overflows; numpy warnings are errors in this suite
        rng = np.random.default_rng(9)
        (tmp_path / "m.json").write_text(json.dumps(
            [{"measure_id": "A", "family": "normal", "direction": "higher_is_better"}]))
        rows = [["center_id", "measure_id", "observed", "expected", "effective_size"]]
        rows += [[f"C{i}", "A", f"{rng.normal(5.0, 1.0):.6f}", "5", "1"] for i in range(30)]
        rows.append(["CX", "A", "1.7e308", "1", "1e-300"])
        _write_rows(tmp_path / "c.csv", rows)
        for cmd in (["standardize", "--method", "fe"], ["composite"], ["diagnose"]):
            assert main([*cmd, "--centers", str(tmp_path / "c.csv"), "--measures",
                         str(tmp_path / "m.json"), "--out", str(tmp_path / "out")]) == 2
            assert capsys.readouterr().err == ("error: center 'CX', measure 'A': the "
                                               "fixed-effects score overflows the float range\n")

    def test_constant_scores_name_the_pair(self, tmp_path, capsys):
        # every B row has observed == expected, so its scores are all 0;
        # numpy warnings are errors in this suite
        rng = np.random.default_rng(11)
        (tmp_path / "m.json").write_text(json.dumps(
            [{"measure_id": m, "family": "poisson", "direction": "higher_is_better"}
             for m in ("A", "B")]))
        rows = [["center_id", "measure_id", "observed", "expected", "effective_size"]]
        for i, e in enumerate(rng.uniform(50, 500, 40)):
            rows += [[f"C{i}", "A", int(rng.poisson(e)), f"{e:.6f}", ""],
                     [f"C{i}", "B", f"{e:.6f}", f"{e:.6f}", ""]]
        _write_rows(tmp_path / "c.csv", rows)
        assert main(["composite", "--method", "fe", "--centers", str(tmp_path / "c.csv"),
                     "--measures", str(tmp_path / "m.json"),
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err \
            == "error: correlation between 'A' and 'B' is undefined (constant scores)\n"

    @pytest.mark.parametrize("cmd,message", [
        (["composite", "--method", "fe"],
         "correlation between 'A' and 'B' overflows the float range"),
        (["composite", "--method", "en"],
         "correlation between 'A' and 'B' overflows the float range"),
        (["diagnose"], "measure 'A': the mean size or Z-score variance of a size group "
                       "overflows the float range")],
        ids=["composite-fe", "composite-en", "diagnose"])
    def test_overflowing_score_products_name_the_pair_or_measure(self, tmp_path, capsys,
                                                                 cmd, message):
        # three finite A scores near 1e298, whose products and squares
        # overflow
        rng = np.random.default_rng(11)
        (tmp_path / "m.json").write_text(json.dumps(
            [{"measure_id": m, "family": "poisson", "direction": "higher_is_better"}
             for m in ("A", "B")]))
        rows = [["center_id", "measure_id", "observed", "expected", "effective_size"]]
        for i, e in enumerate(rng.uniform(50, 500, 40)):
            rows += [[f"C{i}", m, "1e300" if m == "A" and i < 3 else int(rng.poisson(e)),
                      f"{e:.6f}", ""] for m in ("A", "B")]
        _write_rows(tmp_path / "c.csv", rows)
        assert main([*cmd, "--centers", str(tmp_path / "c.csv"), "--measures",
                     str(tmp_path / "m.json"), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("declared,missing,note", [
        (("A",), 1, "1 center had no score"),
        (("A",), 2, "2 centers had no score"),
        (("A", "B"), 1, "1 center had fewer than 2 measures"),
        (("A", "B"), 3, "3 centers had fewer than 2 measures")])
    def test_composite_note_counts_the_skipped_centers(self, tmp_path, capsys, declared,
                                                       missing, note):
        # the first ``missing`` centers have no score for the last measure:
        # a zero expected count skips the row
        rng = np.random.default_rng(10)
        (tmp_path / "m.json").write_text(json.dumps(
            [{"measure_id": m, "family": "poisson", "direction": "higher_is_better"}
             for m in declared]))
        rows = [["center_id", "measure_id", "observed", "expected", "effective_size"]]
        for i, e in enumerate(rng.uniform(50, 500, 30)):
            rows += [[f"C{i}", m, int(rng.poisson(e)),
                      "0" if i < missing and m == declared[-1] else f"{e:.6f}", ""]
                     for m in declared]
        _write_rows(tmp_path / "c.csv", rows)
        assert main(["composite", "--centers", str(tmp_path / "c.csv"), "--measures",
                     str(tmp_path / "m.json"), "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == f"note: {note} and no composite\n"

    def test_clamped_zero_fit_prints_identical_columns(self, measures, tmp_path):
        # underdispersed scores clamp phi_hat to zero: the corrected column
        # must equal the naive one at printed precision
        rng = np.random.default_rng(88)
        lines = ["center_id,measure_id,observed,expected,effective_size"]
        for i in range(212):
            e = rng.uniform(200, 400)
            o = e + 0.3 * rng.normal(0, math.sqrt(e))
            lines.append(f"U{i:04d},TRR,{o:.6f},{e:.6f},")
        f = tmp_path / "c.csv"
        f.write_text("\n".join(lines) + "\n")
        run = standardize(read_center_stats(f, measures), method="en")
        assert run.null_fits["TRR"].phi_hat <= 1e-10
        write_scores_report(run, tmp_path)
        for row in _read_scores(tmp_path / "scores.csv"):
            assert row["z_en"] == row["z_fe"]


class TestWorkerResolution:
    def test_env_caps_machine_parallelism(self, monkeypatch):
        from profile_null.simulation import resolve_workers
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                            raising=False)
        monkeypatch.setenv("PROFILE_NULL_THREADS", "1")
        assert resolve_workers(None) == 1
        monkeypatch.setenv("PROFILE_NULL_THREADS", "notanint")
        with pytest.raises(InputError):
            resolve_workers(None)
        monkeypatch.setenv("PROFILE_NULL_THREADS", "0")
        with pytest.raises(InputError):
            resolve_workers(None)
        monkeypatch.delenv("PROFILE_NULL_THREADS")
        assert resolve_workers(3) == 3
        with pytest.raises(InputError):
            resolve_workers(0)

    def test_default_counts_the_cpus_this_process_may_use(self, monkeypatch):
        from profile_null.simulation import resolve_workers
        monkeypatch.delenv("PROFILE_NULL_THREADS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        # pinned to one CPU of a large host, as under taskset or a cpuset
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        assert resolve_workers(None) == 1
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert resolve_workers(None) == 3

    def test_explicit_count_is_capped_by_the_cpus(self, monkeypatch):
        # no process starts here: only the count is resolved
        from profile_null.simulation import resolve_workers
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.delenv("PROFILE_NULL_THREADS", raising=False)
        assert resolve_workers(10_000) == 2
        monkeypatch.setenv("PROFILE_NULL_THREADS", "1")
        assert resolve_workers(None) == 1
        # an explicit count takes the variable's place
        assert resolve_workers(10_000) == 2
        with pytest.raises(InputError):
            resolve_workers(0)


class TestAdditionalCliPaths:
    def test_composite_with_mom_standardization(self, tmp_path):
        code = main(["composite", "--centers", str(FIXTURES / "centers.csv"),
                     "--measures", str(FIXTURES / "measures.json"),
                     "--method", "mom", "--mom-q", "10", "--out", str(tmp_path)])
        assert code == 0
        rows = _read_scores(tmp_path / "scores.csv")
        assert rows[0]["z_mom"] != "" and rows[0]["z_en"] == ""
        assert (tmp_path / "composite.csv").exists()

    def test_composite_with_inverse_corr_sum_weights(self, table, tmp_path):
        code = main(["composite", "--centers", str(FIXTURES / "centers.csv"),
                     "--measures", str(FIXTURES / "measures.json"),
                     "--weight-scheme", "inverse_corr_sum", "--out", str(tmp_path)])
        assert code == 0
        center_ids, aligned = align_scores(standardize(table, method="en"))
        # every fixture center has all four measures
        assert np.isfinite(aligned).all()
        corr = correlation_matrix(aligned)
        z_cs = composite_score(aligned, inverse_corr_weights(corr), corr)
        rows = _read_rows(tmp_path / "composite.csv")[1:-2]
        assert [row[:2] for row in rows] == [[c, fmt6(z)] for c, z in zip(center_ids, z_cs)]
        assert [row[2] for row in rows] == [
            "poor" if z < -FLAG_Z else "good" if z > FLAG_Z else "average" for z in z_cs]

    def test_parser_defaults_and_choices_are_the_librarys(self):
        subparsers = next(a for a in build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction)).choices
        data = ["--centers", "c", "--measures", "m", "--out", "o"]

        def parsed(name, args):
            sub = subparsers[name]
            return sub.parse_args(args), {a.dest: a for a in sub._actions}

        for name in ("standardize", "composite"):
            args, actions = parsed(name, data)
            assert args.method == inspect.signature(standardize).parameters["method"].default
            assert tuple(actions["method"].choices) == METHOD_KEYS
            assert args.mom_q == DEFAULT_WINSOR_Q
        args, actions = parsed("composite", data)
        assert CompositeConfig(args.weight_scheme, args.flag_lower,
                               args.flag_upper) == CompositeConfig()
        assert tuple(actions["weight_scheme"].choices) == tuple(WEIGHT_SCHEMES)
        assert CompositeConfig().flag_upper == -CompositeConfig().flag_lower == FLAG_Z
        # no --alpha-z means the library's one threshold
        args, actions = parsed("funnel", data)
        assert args.alpha_z is None
        assert actions["alpha_z"].help.endswith(f"(repeatable; default {FLAG_Z:g})")
        assert inspect.signature(emit_funnel).parameters["alpha_z_list"].default == (FLAG_Z,)
        assert inspect.signature(control_limits).parameters["alpha_z"].default == FLAG_Z
        args, _ = parsed("diagnose", data)
        assert args.groups == inspect.signature(write_diagnostics).parameters[
            "n_groups"].default
        args, _ = parsed("simulate", ["--config", "c", "--out", "o"])
        assert args.workers == inspect.signature(run_flagging_experiment).parameters[
            "workers"].default

    def test_funnel_multiple_alphas(self, tmp_path):
        code = main(["funnel", "--centers", str(FIXTURES / "centers.csv"),
                     "--measures", str(FIXTURES / "measures.json"),
                     "--alpha-z", "1.96", "--alpha-z", "2.576",
                     "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "funnel_TRR_z1.96.csv").exists()
        assert (tmp_path / "funnel_TRR_z2.576.svg").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "0"])
    def test_funnel_alpha_z_checked_before_reading(self, tmp_path, capsys, value):
        code = _main_warnings_as_errors(
            ["funnel", "--centers", str(tmp_path / "absent.csv"),
             "--measures", str(tmp_path / "absent.json"), "--alpha-z", "1.96",
             "--alpha-z", value, "--out", str(tmp_path)])
        assert code == 2
        assert (f"--alpha-z must be a positive finite number, got {float(value)}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("second", ["1.96", "1.9600001"])
    def test_funnel_alpha_z_sharing_a_file_suffix(self, tmp_path, capsys, second):
        # both would write funnel_<m>_z1.96.{csv,svg}, the second over the first
        code = _main_warnings_as_errors(
            ["funnel", "--centers", str(tmp_path / "absent.csv"),
             "--measures", str(tmp_path / "absent.json"), "--alpha-z", "1.96",
             "--alpha-z", "2.5", "--alpha-z", second, "--out", str(tmp_path)])
        assert code == 2
        assert f"alpha_z 1.96 and {float(second)!r} both name" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_funnel_note_quotes_the_measure_id(self, tmp_path, capsys):
        # a zero expected count skips every row of the second measure, whose
        # id holds a CR and an LF
        rng = np.random.default_rng(12)
        (tmp_path / "m.json").write_text(json.dumps(
            [{"measure_id": m, "family": "poisson", "direction": "higher_is_better"}
             for m in ("A", "B\r\nC")]))
        rows = [["center_id", "measure_id", "observed", "expected", "effective_size"]]
        for i, e in enumerate(rng.uniform(50, 500, 30)):
            rows += [[f"C{i}", "A", int(rng.poisson(e)), f"{e:.6f}", ""],
                     [f"C{i}", "B\r\nC", int(rng.poisson(e)), "0", ""]]
        _write_rows(tmp_path / "c.csv", rows)
        assert main(["funnel", "--centers", str(tmp_path / "c.csv"), "--measures",
                     str(tmp_path / "m.json"), "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == "note: no usable centers for 'B\\r\\nC'\n"

    def test_funnel_alpha_z_with_overflowing_limits(self, tmp_path, capsys):
        code = _main_warnings_as_errors(
            ["funnel", "--centers", str(FIXTURES / "centers.csv"),
             "--measures", str(FIXTURES / "measures.json"), "--alpha-z", "1e308",
             "--out", str(tmp_path)])
        assert code == 2
        assert "control limits at alpha_z=1e+308 are not finite" in capsys.readouterr().err
        assert not list(tmp_path.glob("funnel_*"))

    def test_sim_config_q_percent_passthrough(self, tmp_path):
        f = tmp_path / "sim.json"
        f.write_text(json.dumps({"experiment": "flagging", "iterations": 1,
                                 "q_percent": 2.5, "gamma_grid": [0.0]}))
        config, _ = read_sim_config(f)
        assert config.en_config.q_percent == 2.5


class TestIdRoundTrip:
    """Any id the readers accept comes back unchanged from every writer."""

    @given(center=st.text(min_size=1, max_size=10),
           measure=st.text(min_size=1, max_size=6))
    @example(center="A\rB,\"C", measure="M\u2028\x1c")
    @settings(max_examples=60, deadline=None)
    def test_ids_survive_every_report(self, center, measure):
        rng = np.random.default_rng(0)
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            (d / "measures.json").write_text(json.dumps(
                [{"measure_id": m, "family": "poisson", "direction": "higher_is_better"}
                 for m in (measure, "Q", "R")]))
            ids = [center] + [f"P{i}" for i in range(7)]
            rows = [["center_id", "measure_id", "observed", "expected", "effective_size"]]
            for cid in ids:
                for m in (measure, "Q", "R"):
                    # two zero-expected rows land in skipped.csv
                    skip = (cid, m) in ((center, "R"), ("P0", measure))
                    rows.append([cid, m, int(rng.integers(30, 70)), 0 if skip else 50, ""])
            _write_rows(d / "centers.csv", rows)
            # ids the reader must return as they are: no surrounding blanks
            # (it strips cells), no clash with the fixed ids, and no path
            # characters or characters XML 1.0 forbids in the measure id
            must_accept = (center == center.strip() and measure == measure.strip()
                           and center not in ids[1:] and measure not in ("Q", "R")
                           and not any(ch in "/\\" or ch in "\ufffe\uffff"
                                       or (ord(ch) < 32 and ch not in "\t\n\r")
                                       or 0xD800 <= ord(ch) <= 0xDFFF for ch in measure))
            try:
                table = read_center_stats(d / "centers.csv",
                                          read_measure_config(d / "measures.json"))
            except InputError:
                assert not must_accept
                return
            if must_accept:
                assert table.row_ids(0) == (center, measure)
            args = ["--centers", str(d / "centers.csv"),
                    "--measures", str(d / "measures.json"), "--out", str(d / "out")]
            assert main(["composite", "--method", "fe", *args]) == 0
            assert main(["diagnose", "--groups", "2", *args]) == 0

            accepted_center, accepted_measure = table.row_ids(0)
            scores = _read_rows(d / "out" / "scores.csv")[1:]
            assert [tuple(r[:2]) for r in scores] == [table.row_ids(i)
                                                      for i in range(len(table))]
            skipped = _read_rows(d / "out" / "skipped.csv")[1:]
            assert [tuple(r[:2]) for r in skipped] == [("P0", accepted_measure),
                                                       (accepted_center, "R")]
            composite = _read_rows(d / "out" / "composite.csv")[1:-2]
            assert [r[0] for r in composite] == list(table.center_ids)
            diagnostics = _read_rows(d / "out" / "diagnostics.csv")[1:]
            assert [r[0] for r in diagnostics] == [accepted_measure] * 2 + ["Q"] * 2 + ["R"] * 2


class TestRowOrderInvariance:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_shuffled_centers_give_the_same_lines(self, tmp_path, seed):
        # the golden outputs come from the fixture in its own row order
        header, *rows = (FIXTURES / "centers.csv").read_text().splitlines()
        order = np.random.default_rng(seed).permutation(len(rows))
        centers = tmp_path / "centers.csv"
        centers.write_text("\n".join([header] + [rows[i] for i in order]) + "\n")
        for cmd in ("composite", "funnel", "diagnose"):
            assert main([cmd, "--centers", str(centers),
                         "--measures", str(FIXTURES / "measures.json"),
                         "--out", str(tmp_path / "out")]) == 0
        golden = sorted(p.name for p in (GOLDEN / "pipeline").iterdir())
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == golden
        for name in golden:
            produced = (tmp_path / "out" / name).read_text().splitlines()
            expected = (GOLDEN / "pipeline" / name).read_text().splitlines()
            assert sorted(produced) == sorted(expected), name


# every key a simulation config may hold, at values that run in well under
# a second: one iteration at 30 centers
_TINY_SIM = {
    "n_centers": 30, "seed": 3, "iterations": 1, "mu": -6.0, "beta": 1.0,
    "covariate_mean": -0.4, "covariate_second_param": 0.5,
    "exposure_mean": 300000.0, "sigma2_alpha": [0.14, 0.04],
    "outlier_fraction": 0.1, "outlier_effect": 1.0, "gamma_grid": [1.0],
    "q_grid": [0.0, 5.0], "mom_q": 0.0, "q_percent": 5.0,
}
_MEASURE_KEYS = ["measure_id", "family", "direction", "a_psi", "q_percent",
                 "pi0_grid_lo", "pi0_grid_hi", "pi0_grid_step"]
_JSON_VALUES = (st.none() | st.text(max_size=6) | st.floats()
                | st.lists(st.none() | st.text(max_size=3) | st.floats(), max_size=3))


@pytest.fixture(scope="module")
def small_centers(tmp_path_factory):
    """The first 12 fixture centers with all their measures: enough for
    every fit (10 centers) and quick to fit."""
    header, *rows = _read_rows(FIXTURES / "centers.csv")
    first = list(dict.fromkeys(r[0] for r in rows))[:12]
    path = tmp_path_factory.mktemp("small") / "centers.csv"
    _write_rows(path, [header] + [r for r in rows if r[0] in first])
    return path


class TestIllTypedJson:
    @pytest.mark.parametrize("key,value", [("q_percent", "x"), ("a_psi", None),
                                           ("family", 3), ("pi0_grid_step", True)])
    def test_measures_value_exits_2(self, tmp_path, capsys, key, value):
        spec = json.loads((FIXTURES / "measures.json").read_text())
        spec[0][key] = value
        (tmp_path / "m.json").write_text(json.dumps(spec))
        assert main(["standardize", "--centers", str(FIXTURES / "centers.csv"),
                     "--measures", str(tmp_path / "m.json"),
                     "--out", str(tmp_path / "out")]) == 2
        assert f"measures entry 1: {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("n_centers", "abc"), ("gamma_grid", 5),
                                           ("q_percent", None), ("iterations", 2.0),
                                           ("mu", float("nan"))])
    def test_sim_config_value_exits_2(self, tmp_path, capsys, key, value):
        (tmp_path / "sim.json").write_text(json.dumps({**_TINY_SIM, key: value}))
        assert main(["simulate", "--config", str(tmp_path / "sim.json"),
                     "--out", str(tmp_path / "out"), "--workers", "1"]) == 2
        assert f"simulation config: {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment", ["flagging", "tuning", "composite"])
    def test_sim_config_empty_gamma_grid_exits_2(self, tmp_path, capsys, experiment):
        # flagging and composite used to write a header-only table, and
        # tuning ran at gamma 0
        (tmp_path / "sim.json").write_text(json.dumps(
            {**_TINY_SIM, "experiment": experiment, "gamma_grid": []}))
        assert main(["simulate", "--config", str(tmp_path / "sim.json"),
                     "--out", str(tmp_path / "out"), "--workers", "1"]) == 2
        assert "gamma_grid must not be empty" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("experiment", [[], {}, 1, None])
    def test_sim_config_experiment_not_a_string_exits_2(self, tmp_path, capsys,
                                                        experiment):
        (tmp_path / "sim.json").write_text(json.dumps(
            {**_TINY_SIM, "experiment": experiment}))
        assert main(["simulate", "--config", str(tmp_path / "sim.json"),
                     "--out", str(tmp_path / "out"), "--workers", "1"]) == 2
        assert "experiment must be flagging, tuning, or composite" in capsys.readouterr().err

    def test_composite_outliers_overrunning_the_centers_exit_2(self, tmp_path, capsys):
        # measure 2's block used to be cut off at the last center
        (tmp_path / "sim.json").write_text(json.dumps(
            {**_TINY_SIM, "experiment": "composite", "n_centers": 10,
             "outlier_fraction": 0.9}))
        assert main(["simulate", "--config", str(tmp_path / "sim.json"),
                     "--out", str(tmp_path / "out"), "--workers", "1"]) == 2
        err = capsys.readouterr().err
        assert "outlier_fraction=0.9" in err and "n_centers=10" in err

    @pytest.mark.parametrize("n_centers,code", [(11, 2), (12, 0)])
    def test_flagging_outliers_reaching_the_reference_center_exit_2(
            self, tmp_path, capsys, n_centers, code):
        # at 11 centers the outlier block used to cover the last center,
        # the effect-free reference probe, and the run exited 0
        (tmp_path / "sim.json").write_text(json.dumps(
            {**_TINY_SIM, "experiment": "flagging", "n_centers": n_centers,
             "outlier_fraction": 0.95}))
        assert main(["simulate", "--config", str(tmp_path / "sim.json"),
                     "--out", str(tmp_path / "out"), "--workers", "1"]) == code
        err = capsys.readouterr().err
        if code == 2:
            assert "outlier_fraction=0.95" in err and "n_centers=11" in err
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key,value", [("mom_q", -5.0), ("mom_q", 50.0),
                                           ("q_grid", [5.0, 60.0]),
                                           ("q_grid", [-1.0])])
    def test_sim_config_q_out_of_range_exits_2(self, tmp_path, capsys, key, value):
        # these used to fail inside the first iteration, naming only q_percent
        (tmp_path / "sim.json").write_text(json.dumps(
            {**_TINY_SIM, "experiment": "tuning", key: value}))
        assert main(["simulate", "--config", str(tmp_path / "sim.json"),
                     "--out", str(tmp_path / "out"), "--workers", "1"]) == 2
        assert f"{key} " in capsys.readouterr().err

    def test_sim_config_too_many_centers_exits_2(self, tmp_path, capsys):
        # before the cap this died allocating 72.8 TiB
        (tmp_path / "sim.json").write_text(json.dumps(
            {**_TINY_SIM, "experiment": "flagging", "n_centers": 10_000_000_000_000}))
        assert main(["simulate", "--config", str(tmp_path / "sim.json"),
                     "--out", str(tmp_path / "out"), "--workers", "1"]) == 2
        assert "n_centers must lie between 10 and 1000000" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--centers", "--measures", "--config"])
    def test_unreadable_bytes_exit_2(self, tmp_path, capsys, flag):
        bad = tmp_path / "bad"
        bad.write_bytes(b'center_id,measure_id,observed,expected,effective_size\n'
                        b'C\xe9,TRR,50,40,\n')
        args = {"--centers": ["standardize", "--measures", str(FIXTURES / "measures.json")],
                "--measures": ["standardize", "--centers", str(FIXTURES / "centers.csv")],
                "--config": ["simulate"]}[flag]
        assert main([*args, flag, str(bad), "--out", str(tmp_path / "out")]) == 2
        assert "UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("eol", [b"\n", b"\r\n", b"\r"])
    def test_bad_utf8_byte_is_named_by_line_and_file_offset(self, tmp_path, capsys, eol):
        # the offset counts from the start of the file, not of a decode chunk
        head = b"center_id,measure_id,observed,expected,effective_size" + eol + b"".join(
            b"C%04d,TRR,50,40,%s" % (i, eol) for i in range(1500))
        bad = tmp_path / "c.csv"
        bad.write_bytes(head + b"C\xff,TRR,50,40," + eol)
        assert main(["standardize", "--centers", str(bad), "--measures",
                     str(FIXTURES / "measures.json"), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: centers file {bad} is not a UTF-8 CSV file: line 1502, byte 0xff "
            f"at file offset {len(head) + 1}: invalid start byte\n")

    def test_byte_order_mark_is_dropped(self, measures, table, tmp_path):
        # as spreadsheet programs write a UTF-8 file
        centers, spec_file, sim = tmp_path / "c.csv", tmp_path / "m.json", tmp_path / "s.json"
        for path, name in ((centers, "centers.csv"), (spec_file, "measures.json"),
                           (sim, "sim_smoke.json")):
            path.write_bytes(b"\xef\xbb\xbf" + (FIXTURES / name).read_bytes())
        assert read_measure_config(spec_file) == measures
        assert read_sim_config(sim) == read_sim_config(FIXTURES / "sim_smoke.json")
        marked = read_center_stats(centers, measures)
        assert marked.center_ids == table.center_ids
        for name in ("center", "measure", "observed", "expected", "size"):
            assert getattr(marked, name).tobytes() == getattr(table, name).tobytes()
        for out, c, m in (("marked", centers, spec_file),
                          ("plain", FIXTURES / "centers.csv", FIXTURES / "measures.json")):
            assert main(["composite", "--centers", str(c), "--measures", str(m),
                         "--out", str(tmp_path / out)]) == 0
        names = sorted(p.name for p in (tmp_path / "plain").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "marked").iterdir())
        for name in names:
            assert ((tmp_path / "marked" / name).read_bytes()
                    == (tmp_path / "plain" / name).read_bytes()), name

    def test_only_one_byte_order_mark_is_dropped(self, measures, tmp_path):
        f = tmp_path / "c.csv"
        f.write_bytes(b"\xef\xbb\xbf" * 2 + (FIXTURES / "centers.csv").read_bytes())
        with pytest.raises(InputError, match="must start with header"):
            read_center_stats(f, measures)

    def test_bad_byte_after_a_byte_order_mark_is_named_at_its_file_offset(
            self, tmp_path, capsys):
        head = (b"\xef\xbb\xbfcenter_id,measure_id,observed,expected,effective_size\n"
                b"C0001,TRR,50,40,\n")
        bad = tmp_path / "c.csv"
        bad.write_bytes(head + b"C\xff,TRR,50,40,\n")
        assert main(["standardize", "--centers", str(bad), "--measures",
                     str(FIXTURES / "measures.json"), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: centers file {bad} is not a UTF-8 CSV file: line 3, byte 0xff "
            f"at file offset {len(head) + 1}: invalid start byte\n")
        # past the first 8 KiB, where a chunked decode would restart its count
        head = b"\xef\xbb\xbf[" + b" " * 10_000 + b'"'
        spec_file = tmp_path / "m.json"
        spec_file.write_bytes(head + b'\xff"]')
        with pytest.raises(InputError, match=f"byte 0xff in position {len(head)}: invalid"):
            read_measure_config(spec_file)

    def test_oversized_csv_field_exits_2(self, tmp_path, capsys):
        f = tmp_path / "c.csv"
        _write_rows(f, [["center_id", "measure_id", "observed", "expected",
                         "effective_size"], ["C" * 200_000, "TRR", 50, 40, ""]])
        assert main(["standardize", "--centers", str(f), "--measures",
                     str(FIXTURES / "measures.json"), "--out", str(tmp_path / "out")]) == 2
        assert "field larger than field limit" in capsys.readouterr().err

    def test_pi0_grid_step_too_fine_exits_2(self, tmp_path, capsys):
        spec = json.loads((FIXTURES / "measures.json").read_text())
        spec[0]["pi0_grid_step"] = 1e-5
        (tmp_path / "m.json").write_text(json.dumps(spec))
        assert main(["standardize", "--centers", str(FIXTURES / "centers.csv"),
                     "--measures", str(tmp_path / "m.json"),
                     "--out", str(tmp_path / "out")]) == 2
        assert "1000 steps" in capsys.readouterr().err


def _main_warnings_as_errors(argv):
    """main(argv) with numeric warnings raised as errors, so that a warning
    escaping the CLI fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return main(argv)


class TestMainFuzz:
    """One key of a valid input replaced by an arbitrary JSON value: main()
    answers with an exit code, never a traceback or a numeric warning."""

    @given(entry=st.integers(0, 3), key=st.sampled_from(_MEASURE_KEYS),
           value=_JSON_VALUES)
    @settings(max_examples=40, deadline=None)
    def test_measures_file(self, small_centers, entry, key, value):
        spec = json.loads((FIXTURES / "measures.json").read_text())
        spec[entry][key] = value
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            (d / "m.json").write_text(json.dumps(spec))
            code = _main_warnings_as_errors(
                ["composite", "--centers", str(small_centers),
                 "--measures", str(d / "m.json"), "--out", str(d / "out")])
        assert code in (0, 2, 3)

    @given(experiment=st.sampled_from(["flagging", "tuning", "composite"]),
           key=st.sampled_from(["experiment", *_TINY_SIM]), value=_JSON_VALUES)
    @settings(max_examples=60, deadline=None)
    def test_sim_config(self, experiment, key, value):
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            (d / "sim.json").write_text(json.dumps(
                {**_TINY_SIM, "experiment": experiment, key: value}))
            code = _main_warnings_as_errors(
                ["simulate", "--config", str(d / "sim.json"),
                 "--out", str(d / "out"), "--workers", "1"])
        assert code in (0, 2, 3)
