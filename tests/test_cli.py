"""End-to-end command tests driven through main()."""

import argparse
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from corrineq import catalog, cli, lhv
from corrineq.cli import TARGETS, _human_lines, _pair_key, build_parser, main
from corrineq.dsl import format_sos, parse_variable
from corrineq.quantum import tsirelson_envelope

SQRT8 = 2.828427124746190


def data_file(name: str) -> str:
    return str(resources.files("corrineq").joinpath("data").joinpath(name))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDerive:
    def test_human_report(self, capsys):
        code, out, err = run_cli(capsys, "derive", "--input", data_file("chsh.rsx"))
        assert code == 0
        assert err == ""
        assert "X1Y1 + X1Y2 + X2Y1 - X2Y2 <= 2" in out
        assert "classification: spatial" in out

    def test_json_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "derive", "--input", data_file("chsh.rsx"), "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["inequality"] == "X1Y1 + X1Y2 + X2Y1 - X2Y2 <= 2"
        assert report["direction"] == "<="
        assert report["bound"] == "2"
        assert report["classical"] == {
            "minimum": -2,
            "maximum": 2,
            "assignments_checked": 16,
        }
        assert len(report["groups"]) == 2
        assert all(g["parity"] == "odd" for g in report["groups"])
        assert set(report["term_kinds"].values()) == {"cross-party"}

    def test_scenario_refines_classification(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "derive",
            "--input",
            data_file("kcbs.rsx"),
            "--scenario",
            data_file("kcbs.scn"),
            "--format",
            "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["classification"] == "contextual"
        assert report["bound"] == "-3"

    def test_hybrid_mixes_term_kinds(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "derive",
            "--input",
            data_file("hybrid.rsx"),
            "--scenario",
            data_file("hybrid.scn"),
            "--format",
            "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["classification"] == "hybrid"
        kinds = set(report["term_kinds"].values())
        assert kinds == {"cross-party", "same-party"}

    def test_scenario_parties_set_term_kinds(self, capsys):
        # lg.scn puts J K L M on one party although their letters differ
        code, out, _ = run_cli(
            capsys,
            "derive",
            "--input",
            data_file("lg.rsx"),
            "--scenario",
            data_file("lg.scn"),
            "--format",
            "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["term_kinds"] == dict.fromkeys(("JK", "JM", "KL", "LM"), "same-party")
        assert report["classification"] == "temporal"

    def test_cycle_past_the_scan_cap(self, capsys, tmp_path):
        source = tmp_path / "cycle-101.rsx"
        source.write_text(format_sos(catalog.cycle_source(101)) + "\n")
        code, out, _ = run_cli(capsys, "derive", "--input", str(source), "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["bound"] == "-99"
        assert report["classical"]["minimum"] == -99
        assert report["classical"]["assignments_checked"] == 2**101

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "derive", "--input", "no/such/file.rsx")
        assert code == 2
        assert err.startswith("error:")

    def test_malformed_source_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.rsx"
        bad.write_text("(X1 + )^2 >= 1\n")
        code, _, err = run_cli(capsys, "derive", "--input", str(bad))
        assert code == 2
        assert "error:" in err

    def test_cancelled_cross_terms_exit_2(self, capsys, tmp_path):
        # the X1Y1 terms of the two squares cancel, so no pair is left to bound
        source = tmp_path / "cancel.rsx"
        source.write_text("(X1 + Y1)^2 + (X1 - Y1)^2 >= 2\n")
        code, out, err = run_cli(capsys, "derive", "--input", str(source))
        assert (code, out) == (2, "")
        assert err == (  # both coefficient sums are even
            "warning: group(s) [0, 1] have even coefficient sums; their squares may vanish\n"
            "error: no degree-2 terms survive the expansion\n"
        )

    def test_even_group_warning_is_one_stderr_line(self, capsys, tmp_path):
        source = tmp_path / "even.rsx"
        source.write_text("(X1 + Y1)^2 + (X1 - Y1 + Y2)^2 >= 2\n")
        code, out, err = run_cli(capsys, "derive", "--input", str(source), "--format", "json")
        assert code == 0
        assert json.loads(out)["input"] == str(source)
        assert err == "warning: group(s) [0] have even coefficient sums; their squares may vanish\n"

    def test_undeclared_variable_message_is_unquoted(self, capsys):
        """KeyError's str is the repr of its message; the package's lookup errors print it as written."""
        code, out, err = run_cli(
            capsys, "derive", "--input", data_file("chsh.rsx"), "--scenario", data_file("lg.scn")
        )
        assert (code, out) == (2, "")
        assert err == "error: X1 is not declared in the scenario\n"


class TestCheck:
    def write_input(self, tmp_path, correlators, means=None):
        payload = {"correlators": correlators}
        if means is not None:
            payload["means"] = means
        path = tmp_path / "observed.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_tsirelson_point_is_infeasible(self, capsys, tmp_path):
        r = 0.7071067811865476
        path = self.write_input(
            tmp_path,
            {"X1 Y1": r, "X1 Y2": r, "X2 Y1": r, "X2 Y2": -r},
        )
        code, out, _ = run_cli(
            capsys,
            "check",
            "--input",
            path,
            "--scenario",
            data_file("chsh.scn"),
            "--format",
            "json",
        )
        assert code == 1
        report = json.loads(out)
        assert report["feasible"] is False
        cert = report["certificate"]
        assert cert["classical_bound"] == 2
        assert cert["observed_value"] == pytest.approx(SQRT8, abs=1e-9)
        assert cert["violation"] > 0.8
        assert cert["nodisturbance_max"] == pytest.approx(4.0, abs=1e-7)

    def test_shrunk_point_is_feasible(self, capsys, tmp_path):
        r = 0.5
        path = self.write_input(
            tmp_path,
            {"X1Y1": r, "X1Y2": r, "X2Y1": r, "X2Y2": -r},
            means={"X1": 0.0, "X2": 0.0, "Y1": 0.0, "Y2": 0.0},
        )
        code, out, _ = run_cli(
            capsys,
            "check",
            "--input",
            path,
            "--scenario",
            data_file("chsh.scn"),
            "--format",
            "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["feasible"] is True
        assert report["witness"]["support_size"] >= 1
        assert 0.0 < report["witness"]["max_weight"] <= 1.0

    @pytest.mark.parametrize("tolerance, feasible", [("1e-12", False), ("0.1", True)])
    def test_tolerance_forgives_small_violation(self, capsys, tmp_path, tolerance, feasible):
        # the CHSH sum is 2 + 1e-8, just past the facet
        r = 0.5 + 0.25e-8
        path = self.write_input(tmp_path, {"X1Y1": r, "X1Y2": r, "X2Y1": r, "X2Y2": -r})
        code, out, _ = run_cli(
            capsys,
            "check",
            "--input",
            path,
            "--scenario",
            data_file("chsh.scn"),
            "--tolerance",
            tolerance,
            "--format",
            "json",
        )
        report = json.loads(out)
        assert (code, report["feasible"]) == ((0, True) if feasible else (1, False))
        assert report["certificate"]["violation"] == pytest.approx(1e-8, rel=1e-3)
        assert "witness" not in report

    def test_out_of_range_message_is_independent_of_the_hash_seed(self, tmp_path):
        path = self.write_input(tmp_path, {"Y1X1": 1.5, "X1Y2": 0.5})
        runs = [
            subprocess.run(
                [sys.executable, "-m", "corrineq.cli", "check", "--input", path,
                 "--scenario", data_file("chsh.scn")],
                capture_output=True, text=True, env={**os.environ, "PYTHONHASHSEED": seed},
            )
            for seed in ("1", "2")
        ]
        for proc in runs:
            assert proc.returncode == 2
            assert proc.stderr == "error: correlator for X1Y1 is 1.5, outside [-1, 1]\n"

    def test_undeclared_variable_is_named_in_sort_order(self, tmp_path):
        """Both variables are undeclared; the first was named in frozenset
        order, W under hash seed 4 and A under hash seed 1."""
        path = self.write_input(tmp_path, {"W A": 0.5})
        runs = [
            subprocess.run(
                [sys.executable, "-m", "corrineq.cli", "check", "--input", path,
                 "--scenario", data_file("chsh.scn")],
                capture_output=True, text=True, env={**os.environ, "PYTHONHASHSEED": seed},
            )
            for seed in ("1", "4")
        ]
        for proc in runs:
            assert proc.returncode == 2
            assert proc.stderr == "error: correlator names undeclared A\n"

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf", "-1e-9"])
    def test_bad_tolerance_exits_2(self, capsys, tmp_path, tolerance):
        """NaN used to print invalid JSON and act as 0; inf passed the
        Tsirelson point as feasible."""
        r = 0.7071067811865476
        path = self.write_input(tmp_path, {"X1Y1": r, "X1Y2": r, "X2Y1": r, "X2Y2": -r})
        code, out, err = run_cli(
            capsys, "check", "--input", path, "--scenario", data_file("chsh.scn"),
            f"--tolerance={tolerance}", "--format", "json",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: tolerance is ")
        assert err.endswith("expected a finite non-negative number\n")

    def test_nodisturbance_over_the_cap_is_null(self, capsys, monkeypatch):
        monkeypatch.setattr(lhv, "ND_TABLEAU_CAP", 10)
        path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "chsh_infeasible.json"
        code, out, _ = run_cli(
            capsys, "check", "--input", str(path), "--scenario", data_file("chsh.scn"),
            "--format", "json",
        )
        assert code == 1
        assert '"nodisturbance_max": null' in out
        assert json.loads(out)["certificate"]["violation"] > 0.8

    def test_zero_tolerance_is_allowed(self, capsys, tmp_path):
        path = self.write_input(tmp_path, {"X1Y1": 0.5})
        code, out, _ = run_cli(
            capsys, "check", "--input", path, "--scenario", data_file("chsh.scn"),
            "--tolerance", "0", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["tolerance"] == 0.0

    def test_bad_correlator_key_exits_2(self, capsys, tmp_path):
        path = self.write_input(tmp_path, {"X1": 0.5})
        code, _, err = run_cli(
            capsys, "check", "--input", path, "--scenario", data_file("chsh.scn")
        )
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("means", [{"X1": float("nan")}, {"X1": 1.5}])
    def test_bad_mean_exits_2(self, capsys, tmp_path, means):
        path = self.write_input(tmp_path, {"X1Y1": 0.5}, means=means)
        code, out, err = run_cli(
            capsys, "check", "--input", path, "--scenario", data_file("chsh.scn")
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "mean of X1" in err

    def test_nan_correlator_exits_2(self, capsys, tmp_path):
        path = self.write_input(tmp_path, {"X1Y1": float("nan")})
        code, out, err = run_cli(
            capsys, "check", "--input", path, "--scenario", data_file("chsh.scn")
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "finite" in err

    @pytest.mark.parametrize(
        "correlators, means",
        [({"X01Y1": 0.5}, None), ({"X01 Y1": 0.5}, None), ({"X1Y1": 0.5}, {"X01": 0.1})],
    )
    def test_leading_zero_name_exits_2(self, capsys, tmp_path, correlators, means):
        """Keys follow the .scn grammar: X01 is not another spelling of X1."""
        path = self.write_input(tmp_path, correlators, means=means)
        code, out, err = run_cli(
            capsys, "check", "--input", path, "--scenario", data_file("chsh.scn")
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "bad variable name 'X01'" in err

    @pytest.mark.parametrize(
        "key, pair",
        [
            ("X1Y1", ("X1", "Y1")),
            ("Y1 X1", ("X1", "Y1")),
            ("X1,Y2", ("X1", "Y2")),
            ("X10Y1", ("X10", "Y1")),
            ("JK", ("J", "K")),
        ],
    )
    def test_correlator_key_spellings(self, key, pair):
        assert _pair_key(key) == frozenset(map(parse_variable, pair))

    def test_repeated_pair_exits_2(self, capsys, tmp_path):
        path = self.write_input(tmp_path, {"X1Y1": 0.9, "Y1 X1": -0.9, "X1Y2": 0.1})
        code, out, err = run_cli(
            capsys, "check", "--input", path, "--scenario", data_file("chsh.scn")
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "correlator for X1Y1" in err

    def test_repeated_mean_exits_2(self, capsys, tmp_path):
        path = self.write_input(tmp_path, {"X1Y1": 0.5}, means={"X1": 0.9, " X1": -0.9})
        code, out, err = run_cli(
            capsys, "check", "--input", path, "--scenario", data_file("chsh.scn")
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "mean of X1" in err

    def test_repeated_json_key_exits_2(self, capsys, tmp_path):
        path = tmp_path / "observed.json"
        path.write_text('{"correlators": {"X1Y1": 0.9, "X1Y1": -0.9, "X1Y2": 0.1}}')
        code, out, err = run_cli(
            capsys, "check", "--input", str(path), "--scenario", data_file("chsh.scn")
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "'X1Y1'" in err

    def test_empty_input_exits_2(self, capsys, tmp_path):
        path = self.write_input(tmp_path, {})
        code, _, err = run_cli(
            capsys, "check", "--input", path, "--scenario", data_file("chsh.scn")
        )
        assert code == 2
        assert "no correlators" in err

    @pytest.mark.parametrize("document, message", [
        ('{"correlators": {"X1Y1": true, "X1Y2": "0.5", "X2Y1": 0.5, "X2Y2": -0.5}}',
         "correlators value of 'X1Y1' must be a number, got a boolean"),
        ('{"correlators": {"X1Y1": "0.5"}}', "correlators value of 'X1Y1' must be a number, got a string"),
        ('{"correlators": {"X1Y1": null}}', "correlators value of 'X1Y1' must be a number, got null"),
        ('{"correlators": {"X1Y1": [0.5]}}', "correlators value of 'X1Y1' must be a number, got an array"),
        ('{"correlators": {"X1Y1": {"value": 0.5}}}',
         "correlators value of 'X1Y1' must be a number, got an object"),
        ('{"correlators": {"X1Y1": 0.5}, "means": {"X1": false}}',
         "means value of 'X1' must be a number, got a boolean"),
        ('[{"correlators": {"X1Y1": 0.5}}]', "the input must be an object, got an array"),
        ('"X1Y1"', "the input must be an object, got a string"),
        ('{"correlators": [["X1Y1", 0.5]]}', "correlators must be an object, got an array"),
        ('{"correlators": {"X1Y1": 0.5}, "means": null}', "means must be an object, got null"),
        # float() raised OverflowError, whose message named no key
        ('{"correlators": {"X1Y1": 1%s, "X1Y2": 0.5}}' % ("0" * 400),
         "correlators value of 'X1Y1' must be a number, got an integer out of float range"),
        ('{"correlators": {"X1Y1": 0.5}, "means": {"X1": -1%s}}' % ("0" * 400),
         "means value of 'X1' must be a number, got an integer out of float range"),
    ])
    def test_only_json_numbers_are_observed_values(self, capsys, tmp_path, document, message):
        """A boolean or a string was read as a number, and null or a
        top-level array failed with Python's own message."""
        path = tmp_path / "observed.json"
        path.write_text(document)
        code, out, err = run_cli(
            capsys, "check", "--input", str(path), "--scenario", data_file("chsh.scn")
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_human_report_prints_empty_means(self, capsys):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "chsh_infeasible.json"
        code, out, _ = run_cli(capsys, "check", "--input", str(path), "--scenario", data_file("chsh.scn"))
        assert code == 1
        assert "  means: {}" in out.splitlines()


def test_human_format_of_empty_values():
    assert list(_human_lines({"a": [], "b": {}})) == ["a: []", "b: {}"]


class TestReproduce:
    FAST_TARGETS = (
        "chsh-bound",
        "kcbs-bound",
        "ncycle-bounds",
        "lg-bound",
        "hybrid-singlet",
        "hybrid-product",
        "tsirelson-envelope",
        "s2-identity",
        "monogamy",
    )

    @pytest.mark.parametrize("target", FAST_TARGETS)
    def test_target_passes(self, capsys, target):
        code, out, err = run_cli(capsys, "reproduce", target)
        assert code == 0, err
        assert "ok: True" in out

    def test_protocol_mc_with_reduced_shots(self, capsys):
        code, out, err = run_cli(
            capsys, "reproduce", "protocol-mc", "--shots", "18000"
        )
        assert code == 0, err
        assert "ok: True" in out

    def test_protocol_mc_default_report_is_pinned(self, capsys):
        """Default shots and seed; the sampling kernel may change, the bytes may not."""
        golden = Path(__file__).parent / "data" / "protocol_mc_default.json"
        code, out, err = run_cli(capsys, "reproduce", "protocol-mc", "--format", "json")
        assert code == 0, err
        assert out.encode() == golden.read_bytes()

    @pytest.mark.parametrize("target, golden", [
        ("s2-identity", "s2_identity_default.json"),
        ("hybrid-singlet", "hybrid_singlet_default.json"),
        ("monogamy", "monogamy_default.json"),
    ])
    def test_default_reports_are_pinned(self, capsys, target, golden):
        """Recorded before the grid scan broadcast its tables, s2-identity stacked its
        trials and monogamy_check split its own source."""
        code, out, err = run_cli(capsys, "reproduce", target, "--format", "json")
        assert code == 0, err
        assert out.encode() == (Path(__file__).parent / "data" / golden).read_bytes()

    @pytest.mark.parametrize("argv, golden, code", [
        (("--shots", "9"), "protocol_mc_shots_9.json", 1),  # one shot per data choice, the fewest
        (("--shots", "10"), "protocol_mc_shots_10.json", 1),
        (("--shots", "17"), "protocol_mc_shots_17.json", 0),
        (("--shots", "1000"), "protocol_mc_shots_1000.json", 1),
        (("--shots", "131073"), "protocol_mc_shots_131073.json", 0),  # one shot past a block
        (("--shots", "262145"), "protocol_mc_shots_262145.json", 0),
        (("--shots", "300001"), "protocol_mc_shots_300001.json", 0),
        (("--seed", "1"), "protocol_mc_seed_1.json", 0),
    ])
    def test_protocol_mc_reports_are_pinned(self, capsys, argv, golden, code):
        """Recorded before the counting kernel (9 and 10 shots before the
        range kernel), failed checks and all: a few shots fail the 3-sigma
        checks, and so does 1000 at this seed."""
        got, out, _ = run_cli(capsys, "reproduce", "protocol-mc", *argv, "--format", "json")
        assert got == code
        assert out.encode() == (Path(__file__).parent / "data" / golden).read_bytes()

    def test_protocol_mc_single_shot_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "reproduce", "protocol-mc", "--shots", "1")
        assert code == 2
        assert out == ""
        assert err == "error: need at least 9 shots, one per data choice\n"

    @pytest.mark.parametrize("shots", ["2", "3", "8"])
    def test_protocol_mc_too_few_shots_exits_2(self, capsys, shots):
        """Below one shot per data choice, F would sum only some of its
        terms; 2 and 3 shots once reported such an F with a zero stderr."""
        code, out, err = run_cli(capsys, "reproduce", "protocol-mc", "--shots", shots)
        assert code == 2
        assert out == ""
        assert err == "error: need at least 9 shots, one per data choice\n"

    def test_all_aggregates_every_target(self, capsys):
        code, out, err = run_cli(
            capsys,
            "reproduce",
            "all",
            "--shots",
            "45000",
            "--grid",
            "500",
            "--format",
            "json",
        )
        assert code == 0, err
        report = json.loads(out)
        assert report["ok"] is True
        assert len(report["targets"]) == 10

    def test_json_is_byte_identical_across_runs(self, capsys):
        _, first, _ = run_cli(
            capsys, "reproduce", "hybrid-singlet", "--format", "json"
        )
        _, second, _ = run_cli(
            capsys, "reproduce", "hybrid-singlet", "--format", "json"
        )
        assert first == second
        _, third, _ = run_cli(
            capsys, "reproduce", "s2-identity", "--format", "json"
        )
        _, fourth, _ = run_cli(
            capsys, "reproduce", "s2-identity", "--format", "json"
        )
        assert third == fourth

    def test_envelope_csv_table(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "reproduce",
            "tsirelson-envelope",
            "--grid",
            "50",
            "--format",
            "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "theta1,theta2,value"
        assert len(lines) == 1 + 50 * 50
        t1, t2, value = map(float, lines[1].split(","))
        assert (t1, t2) == (-3.141592653589793, -3.141592653589793)
        assert value == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("grid", [2, 7, 64])
    def test_envelope_csv_matches_row_by_row_formatting(self, capsys, grid):
        """The CSV is written a row at a time; its bytes are those of one
        f-string of three reprs per cell of the whole table."""
        thetas = np.linspace(-np.pi, np.pi, grid)
        values = tsirelson_envelope(thetas[:, None], thetas[None, :])
        expected = "theta1,theta2,value\n" + "".join(
            f"{float(t1)!r},{float(t2)!r},{float(values[i, j])!r}\n"
            for i, t1 in enumerate(thetas)
            for j, t2 in enumerate(thetas)
        )
        code, out, _ = run_cli(
            capsys, "reproduce", "tsirelson-envelope", "--grid", str(grid), "--format", "csv"
        )
        assert code == 0  # the CSV path runs no checks
        assert out == expected

    def test_csv_rejected_for_non_tables(self, capsys):
        code, _, err = run_cli(
            capsys, "reproduce", "chsh-bound", "--format", "csv"
        )
        assert code == 2
        assert "csv output is only available for scan tables" in err

    @pytest.mark.parametrize("fmt", ["human", "csv"])
    def test_grid_past_the_cell_cap_exits_2(self, capsys, fmt):
        code, out, err = run_cli(
            capsys, "reproduce", "tsirelson-envelope", "--grid", "4097", "--format", fmt
        )
        assert code == 2
        assert out == ""
        assert err == "error: resolution must be at most 4096, got 4097\n"

    def test_failed_check_exits_1(self, capsys):
        """A 2-point grid cannot reach the quantum value."""
        code, out, err = run_cli(
            capsys, "reproduce", "tsirelson-envelope", "--grid", "2"
        )
        assert code == 1
        assert err == "error: grid-max: expected 2.8284271247461903 within 1e-05, got 2.0\n"
        assert "ok: False" in out

    def test_failed_bound_target_exits_1(self, capsys, monkeypatch):
        """A wrong bound in the table fails its derived-bound check first."""
        monkeypatch.setitem(cli._BOUND_TARGETS, "lg-bound", ("lg.rsx", 3, {}, "max"))
        code, out, err = run_cli(capsys, "reproduce", "lg-bound", "--format", "json")
        assert code == 1
        assert err == "error: derived-bound: expected 3 within exact, got 2\n"
        report = json.loads(out)
        assert [(c["name"], c["pass"]) for c in report["checks"]] == [
            ("derived-bound", False), ("classical-max", False)
        ]
        assert report["ok"] is False


class TestParser:
    def test_numeric_options_have_help(self):
        parser = build_parser()
        commands = parser._subparsers._group_actions[0].choices
        options = {
            (name, action.dest): action.help
            for name, command in commands.items()
            for action in command._actions
        }
        for key in (("check", "tolerance"), ("reproduce", "shots"),
                    ("reproduce", "seed"), ("reproduce", "grid")):
            assert options[key], key

    @pytest.mark.parametrize("target", TARGETS + ("all",))
    def test_negative_seed_is_a_usage_error(self, target, capsys):
        """Refused before any target runs: numpy's generators take no negative seed."""
        with pytest.raises(SystemExit) as exit_info:
            main(["reproduce", target, "--seed", "-1"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: ")
        assert "argument --seed: -1 is negative, expected an integer >= 0" in captured.err

    @pytest.mark.parametrize("command", [
        ("derive", "--input", "chsh.rsx"),
        ("check", "--input", "point.json", "--scenario", "chsh.scn"),
    ])
    def test_csv_is_a_usage_error_outside_reproduce(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([*command, "--format", "csv"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: ")
        assert "argument --format: invalid choice: 'csv'" in captured.err

    @pytest.mark.parametrize("text, value", [("0", 0), ("7", 7), (str(2**70), 2**70)])
    def test_seed_takes_every_non_negative_integer(self, text, value):
        assert build_parser().parse_args(["reproduce", "s2-identity", "--seed", text]).seed == value

    def test_seed_must_be_an_integer(self, capsys):
        with pytest.raises(SystemExit):
            main(["reproduce", "s2-identity", "--seed", "1.5"])
        assert "argument --seed: invalid seed value: '1.5'" in capsys.readouterr().err

    def test_target_order(self):
        """`all` runs the targets, and --help lists them, in this order."""
        assert TARGETS == (
            "chsh-bound", "kcbs-bound", "ncycle-bounds", "lg-bound", "hybrid-singlet",
            "hybrid-product", "tsirelson-envelope", "s2-identity", "monogamy", "protocol-mc",
        )
        reproduce = build_parser()._subparsers._group_actions[0].choices["reproduce"]
        (target,) = (a for a in reproduce._actions if a.dest == "target")
        assert tuple(target.choices) == TARGETS + ("all",)


class TestParserReuse:
    """main() builds one parser per process; no call may see another's state."""

    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_later_calls_construct_no_parser(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        build_parser.cache_clear()
        counts = []
        for _ in range(3):
            assert run_cli(capsys, "reproduce", "chsh-bound", "--format", "json")[0] == 0
            counts.append(len(built))
        assert counts == [4, 4, 4]  # the parser and its three subcommands, all on the first call

    def test_seed_falls_back_to_its_default(self, capsys):
        reports = [json.loads(run_cli(capsys, "reproduce", "s2-identity", *argv, "--format", "json")[1])
                   for argv in (("--seed", "7"), ())]
        assert [r["seed"] for r in reports] == [7, 12345]

    def test_usage_error_leaves_no_trace(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["reproduce", "s2-identity", "--seed", "-1", "--format", "json"])
        assert exit_info.value.code == 2
        capsys.readouterr()
        code, out, err = run_cli(capsys, "reproduce", "s2-identity", "--format", "json")
        assert (code, err) == (0, "")
        assert out.encode() == (Path(__file__).parent / "data" / "s2_identity_default.json").read_bytes()

    @pytest.mark.parametrize("argv", [("--help",), ("reproduce", "--help")])
    def test_help_is_the_same_every_time(self, capsys, argv):
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exit_info:
                main(list(argv))
            assert exit_info.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0].startswith("usage: corrineq")
        assert texts[0] == texts[1]


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "corrineq.cli",
                "derive",
                "--input",
                data_file("lg.rsx"),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "JK - JM + KL + LM <= 2" in proc.stdout


def _pinned_cases():
    """(argv, golden file, exit code) for each pinned report."""
    for name in ("chsh", "cycle7", "hybrid", "kcbs", "lg", "monogamy"):
        yield ("derive", "--input", f"{name}.rsx", "--format", "json"), f"derive_{name}.json", 0
        if Path(data_file(f"{name}.scn")).exists():
            yield (("derive", "--input", f"{name}.rsx", "--scenario", f"{name}.scn", "--format", "json"),
                   f"derive_{name}_scn.json", 0)
    for target in ("chsh-bound", "kcbs-bound", "lg-bound", "ncycle-bounds"):
        yield ("reproduce", target, "--format", "json"), f"{target.replace('-', '_')}_default.json", 0
    for grid in (2, 7, 300, 400, 1000, 4096):  # 2, 7 and 400 miss the quantum value by more than 1e-5
        yield (("reproduce", "tsirelson-envelope", "--grid", str(grid), "--format", "json"),
               f"tsirelson_envelope_grid_{grid}.json", int(grid in (2, 7, 400)))
    # check reports run from the repository root, beside the scenarios and the inputs they name
    scenarios = {"chsh": "src/corrineq/data/chsh.scn", "monogamy": "src/corrineq/data/monogamy.scn",
                 "cycle-9": "tests/data/check_inputs/cycle-9.scn", "mixed": "tests/data/check_inputs/mixed.scn"}
    checks = [("perfbench/inputs/chsh_feasible.json", 0), ("perfbench/inputs/chsh_infeasible.json", 1)]
    checks += [(f"tests/data/check_inputs/{name}.json", code) for name, code in (
        ("chsh-means-feasible", 0), ("chsh-means-infeasible", 1), ("chsh-tsirelson-means", 1),
        ("monogamy-pentagon", 1),
        *((f"{scn}-{side}{means}", int(side == "outside"))
          for scn in ("cycle-9", "mixed") for side in ("inside", "outside") for means in ("", "-means")),
    )]
    for path, code in checks:
        stem = Path(path).stem
        scenario = next(scn for prefix, scn in scenarios.items() if stem.startswith(prefix))
        yield (("check", "--input", path, "--scenario", scenario, "--format", "json"),
               f"check_{stem.replace('-', '_')}.json", code)
    for demo in ("01_derive_bounds", "02_joint_distributions", "03_quantum_values", "04_sequential_protocol",
                 "05_monogamy_tradeoff"):
        yield (f"{demo}.py",), f"demo_{demo}.txt", 0


_PINNED = list(_pinned_cases())


@pytest.mark.parametrize("argv, golden, exit_code", _PINNED, ids=[golden for _, golden, _ in _PINNED])
def test_classical_reports_are_pinned(capsys, monkeypatch, argv, golden, exit_code):
    """Recorded before both classical routes read one coefficient map: each
    derive report (run beside the shipped data, so "input" is its bare name),
    each bound target and the stdout of demos 01 and 05; demos 02 to 04 were
    recorded before the catalog's per-file wrappers gave way to the loaders,
    the envelope reports before the scan bounded its row blocks first, and
    the check reports before jd_feasibility read means as degree-1 keys of
    its one observed-value map.  Four check reports with means were
    recorded again when certificates stopped printing -0.0 and check
    gave nodisturbance_max whenever no mean coefficient is nonzero."""
    root = Path(__file__).resolve().parents[1]
    if argv[0].endswith(".py"):
        src = Path(catalog.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, str(root / "demos" / argv[0])], capture_output=True, check=True,
                              cwd=root, env={**os.environ, "PYTHONPATH": str(src)})
        out = proc.stdout
    else:
        monkeypatch.chdir(root if argv[0] == "check" else data_file(""))
        code, text, err = run_cli(capsys, *argv)
        assert code == exit_code, err
        out = text.encode()
    assert out == (Path(__file__).parent / "data" / golden).read_bytes()
