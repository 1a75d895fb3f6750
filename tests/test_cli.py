"""Command line interface tests (run in-process through cli.run)."""

import csv
import dataclasses
import gc
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bell_lab
from bell_lab import _accel, analysis, cli, core, lhv, quantum
from bell_lab.errors import DimensionError, NormalizationError
from conftest import as_lists, classify_strategy, sum_amplitude_table


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestQuantumCommand:
    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "quantum", "--d", "2")
        assert code == 0
        obj = json.loads(out)
        assert obj["schema_version"] == 1
        assert obj["d"] == 2
        assert obj["phases"] == [0.0, 0.5, 0.25, -0.25]
        assert obj["summary"]["Q_d"] == 0.7071067812
        assert obj["summary"]["I_d_QM"] == 2.828427125
        assert abs(obj["summary"]["bell_value"] - 2 * math.sqrt(2)) < 1e-10
        assert obj["summary"]["correlations"]["21"] < 0

    def test_custom_phases(self, capsys):
        code, out, _ = run_cli(capsys, "quantum", "--d", "3", "--phases", "0,0.5,0.25,-0.25")
        assert code == 0
        obj = json.loads(out)
        assert abs(obj["summary"]["bell_value"] - 2.8729340512) < 1e-9

    def test_round_trip_through_file(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "quantum", "--d", "5")
        assert code == 0
        generated = json.loads(out)
        path = tmp_path / "table.json"
        path.write_text(out)
        code, out2, _ = run_cli(capsys, "quantum", "--input-file", str(path))
        assert code == 0
        reread = json.loads(out2)
        diff = abs(generated["summary"]["bell_value"] - reread["summary"]["bell_value"])
        assert diff < 1e-14
        assert reread["source"] == str(path)

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_uniform_table_reads_zero_correlations(self, capsys, tmp_path, d):
        # each pair's sign is applied to its integer weights: no correlation prints -0.0
        uniform = np.full((d, d), 1.0 / d**2).tolist()
        path = tmp_path / "uniform.json"
        path.write_text(json.dumps({"d": d, "tables": {key: uniform for key in core.PAIR_KEYS}}))
        code, out, _ = run_cli(capsys, "quantum", "--input-file", str(path))
        assert code == 0
        summary = json.loads(out)["summary"]
        assert [repr(q) for q in summary["correlations"].values()] == ["0.0"] * 4
        assert '"21": 0.0' in out and "-0.0" not in out

    def test_missing_arguments(self, capsys):
        for extra in ((), ("--phases", "0,0,0,0")):
            code, out, err = run_cli(capsys, "quantum", *extra)
            assert code == 2
            assert out == ""
            assert err == "error: quantum needs --d or --input-file\n"

    @pytest.mark.parametrize("extra", [("--d", "3"), ("--phases", "0,0,0,0")])
    def test_input_file_takes_no_d_or_phases(self, capsys, tmp_path, extra):
        path = tmp_path / "table.json"
        path.write_text(run_cli(capsys, "quantum", "--d", "2")[1])
        # an empty path is still an --input-file, not a missing one
        for source in (str(path), ""):
            code, out, err = run_cli(capsys, "quantum", "--input-file", source, *extra)
            assert code == 2
            assert out == ""
            assert err == "error: --input-file cannot be combined with --d or --phases\n"

    def test_closed_form_agreement_at_d880(self):
        # the first d where the closed form's pair sums leave the table gate;
        # it is compared as an array, so the report is built
        args = cli.build_parser().parse_args(["quantum", "--d", "880"])
        report, _, status = cli.cmd_quantum(args)
        assert status == 0
        assert report["summary"]["closed_form_agreement"] < 1e-12

    def test_singular_phases(self, capsys):
        code, _, err = run_cli(capsys, "quantum", "--d", "3", "--phases", "0,0.5,1,0")
        assert code == 2
        assert "singular" in err

    def test_bad_phase_string(self, capsys):
        code, _, err = run_cli(capsys, "quantum", "--d", "3", "--phases", "0,0.5,x,0")
        assert code == 2
        assert "--phases" in err

    def test_invalid_dimension(self, capsys):
        code, _, err = run_cli(capsys, "quantum", "--d", "1")
        assert code == 2
        assert "at least 2" in err

    def test_missing_input_file(self, capsys):
        code, _, err = run_cli(capsys, "quantum", "--input-file", "/no/such/file.json")
        assert code == 2

    def test_corrupt_input_file(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"d": 2, "tables": {}}')
        code, _, err = run_cli(capsys, "quantum", "--input-file", str(path))
        assert code == 2

    @pytest.mark.parametrize(
        "content, reason",
        [
            (b"\x7fELF\x02\x01\x01\x00\xd0\x8f\xff\xfe binary", "not UTF-8 text"),
            (b"[" * 100000 + b"]" * 100000, "JSON nested too deeply"),
        ],
        ids=["not-utf8", "deeply-nested"],
    )
    def test_unreadable_input_file(self, capsys, tmp_path, content, reason):
        path = tmp_path / "table.json"
        path.write_bytes(content)
        code, out, err = run_cli(capsys, "quantum", "--input-file", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {path}: {reason}") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "pair",
        [
            [["0.25", "0.25"], ["0.25", "0.25"]],
            [[True, False], [False, False]],
            [[None, 0.5], [0.25, 0.25]],
            [[0.25, 0.25], ["0", 0.5]],
        ],
        ids=["strings", "booleans", "null", "one-string"],
    )
    def test_entries_must_be_json_numbers(self, capsys, tmp_path, pair):
        # float() reads "0.25" and true; the table file format does not
        tables = {key: [[0.25, 0.25], [0.25, 0.25]] for key in ("11", "12", "22")}
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"d": 2, "tables": {"21": pair, **tables}}))
        code, out, err = run_cli(capsys, "quantum", "--input-file", str(path))
        assert code == 2
        assert out == ""
        assert err == 'error: setting pair "21" has an entry that is not a JSON number\n'

    def test_integer_beyond_the_float_range(self, capsys, tmp_path):
        # it used to end in a traceback of OverflowError from the float conversion
        tables = {key: "[[0.25, 0.25], [0.25, 0.25]]" for key in ("11", "12", "22")}
        tables["21"] = "[[1" + "0" * 400 + ", 0], [0, 0]]"
        path = tmp_path / "table.json"
        path.write_text('{"d": 2, "tables": {' + ", ".join(f'"{k}": {v}' for k, v in tables.items()) + "}}")
        code, out, err = run_cli(capsys, "quantum", "--input-file", str(path))
        assert (code, out) == (2, "")
        assert err == 'error: setting pair "21" has an entry too large for a float\n'

    def test_pair_sum_beyond_the_float_range(self, tmp_path):
        # entries of 1e308 sum to inf: one error line, with no numpy overflow
        # warning before it (an exception of its own under warnings as errors)
        tables = {key: [[0.25, 0.25], [0.25, 0.25]] for key in ("11", "12", "22")}
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"d": 2, "tables": {"21": [[1e308, 1e308], [0, 0]], **tables}}))
        with pytest.raises(NormalizationError, match="worst deviation inf"):
            core.load_table(path)
        child = run_child("bell_lab", ["quantum", "--input-file", str(path)])
        assert (child.returncode, child.stdout) == (2, "")
        assert child.stderr == "error: each setting pair must sum to 1 (worst deviation inf, tolerance 1e-09)\n"

    def test_integer_entries_are_numbers(self, capsys, tmp_path):
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"d": 2, "tables": {key: [[1, 0], [0, 0]] for key in ("11", "12", "21", "22")}}))
        code, out, _ = run_cli(capsys, "quantum", "--input-file", str(path))
        assert code == 0
        assert json.loads(out)["summary"]["bell_value"] == 2.0

    def test_determinism(self, capsys):
        _, out1, _ = run_cli(capsys, "quantum", "--d", "4")
        _, out2, _ = run_cli(capsys, "quantum", "--d", "4")
        assert out1 == out2


INT64_SUMS = "d = {d} is too large to sample: outcome sums up to 2(d - 1) must fit in int64 (d <= 2**62)"
OVER_SAMPLE_LIMIT = (
    f"sampling is supported for at most {lhv.SAMPLE_LIMIT} samples (its time grows with the count), got {{}}"
)


class TestLhvCommand:
    def test_text_report(self, capsys):
        code, out, _ = run_cli(capsys, "lhv", "--d", "2")
        assert code == 0
        assert "max = 2 (exact)" in out
        assert "degenerate" in out

    def test_text_report_d3(self, capsys):
        code, out, _ = run_cli(capsys, "lhv", "--d", "3")
        assert code == 0
        assert "max = 2 (exact)" in out
        assert "2 x30" in out
        assert "Case1i=26" in out
        assert "degenerate" not in out

    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "lhv", "--d", "3", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["max"] == "2"
        assert obj["histogram"] == {"2": 30, "-1": 48, "-4": 3}
        assert obj["method"] == "exhaustive"

    def test_difference_mapping(self, capsys):
        code, out, _ = run_cli(capsys, "lhv", "--d", "3", "--mapping", "difference", "--format", "json")
        assert code == 0
        assert json.loads(out)["mapping"] == "difference"

    def test_too_large_without_samples(self, capsys):
        code, _, err = run_cli(capsys, "lhv", "--d", "99")
        assert code == 2
        assert "sample" in err

    def test_samples_require_seed(self, capsys):
        code, _, err = run_cli(capsys, "lhv", "--d", "99", "--samples", "100")
        assert code == 2
        assert "--seed" in err

    def test_seed_requires_samples(self, capsys):
        code, out, err = run_cli(capsys, "lhv", "--d", "3", "--seed", "1")
        assert code == 2
        assert out == ""
        assert err == "error: --seed applies only with --samples\n"

    @pytest.mark.parametrize(
        "d, samples, reason",
        [
            # d beyond the int64 outcome sums
            pytest.param("100000000000000000000", "2", INT64_SUMS, id="100000000000000000000-2"),
            pytest.param("9223372036854775807", "2", INT64_SUMS, id="9223372036854775807-2"),
            # sample counts above the cap, 2**58 - 1
            pytest.param(
                "3",
                "1152921504606846976",
                "1152921504606846976 samples are too many: the sample count is capped at 288230376151711743",
                id="3-1152921504606846976",
            ),
            pytest.param(
                "3",
                "288230376151711744",
                "288230376151711744 samples are too many: the sample count is capped at 288230376151711743",
                id="3-288230376151711744",
            ),
            # sample counts within the cap but above the work bound
            pytest.param(
                "3", "288230376151711743", OVER_SAMPLE_LIMIT.format(288230376151711743), id="3-288230376151711743"
            ),
            pytest.param(
                "2000", str(lhv.SAMPLE_LIMIT + 1), OVER_SAMPLE_LIMIT.format(lhv.SAMPLE_LIMIT + 1),
                id="2000-SAMPLE_LIMIT+1",
            ),
        ],
    )
    def test_oversized_sample(self, capsys, d, samples, reason):
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "lhv", "--d", d, "--samples", samples, "--seed", "1")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert out == ""
        assert err == "error: " + reason.format(d=d) + "\n"
        assert peak < 2**20

    def test_sample_count_at_the_limit_passes_the_guard(self, monkeypatch):
        class Drawn(Exception):
            pass

        def sentinel(*args, **kwargs):
            raise Drawn

        monkeypatch.setattr(lhv, "_summarize", sentinel)
        with pytest.raises(Drawn):
            cli.run(["lhv", "--d", "3", "--samples", str(lhv.SAMPLE_LIMIT), "--seed", "1"])

    @pytest.mark.parametrize("d", ["1000000000", "2305843009213693952"])
    def test_huge_d_sample_answers(self, capsys, d):
        # the numerators are counted sparsely: nothing grows with d
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "lhv", "--d", d, "--samples", "1000", "--seed", "1")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert err == ""
        assert "strategies = 1000" in out
        assert "max = 2 (exact)" in out
        assert peak < 2**20

    def test_sampled_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "lhv", "--d", "99", "--samples", "200", "--seed", "4", "--format", "json"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["method"] == "sampled"
        assert obj["seed"] == 4
        assert obj["n_strategies"] == 200

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_samples_below_one(self, capsys, samples):
        code, out, err = run_cli(capsys, "lhv", "--d", "5", "--samples", samples, "--seed", "1")
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert err.startswith("error: need at least one sample") and err.count("\n") == 1

    def test_negative_seed(self, capsys):
        code, out, err = run_cli(capsys, "lhv", "--d", "3", "--samples", "5", "--seed", "-1")
        assert code == 2
        assert out == ""
        assert err == "error: seed must be a non-negative integer, got -1\n"

    def test_out_of_memory(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 2.98 GiB")

        # a small d: the real large-d vector would allocate what it guards against
        monkeypatch.setattr(lhv, "sample_strategies", exhausted)
        code, out, err = run_cli(capsys, "lhv", "--d", "5", "--samples", "10", "--seed", "1")
        assert code == 2
        assert out == ""
        assert err == "error: out of memory: Unable to allocate 2.98 GiB\n"

    def test_large_d_sample_allocates_no_table(self, capsys):
        # a d x d int64 mapping table at d = 20000 would take 3.2 GB
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "lhv", "--d", "20000", "--samples", "10", "--seed", "1")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert err == ""
        assert "strategies = 10" in out
        assert peak < 4 * 2**20

    def test_threads_option_is_gone(self, capsys):
        code, out, err = run_cli(capsys, "lhv", "--d", "4", "--threads", "2")
        assert code == 2
        assert out == ""
        assert "--threads" in err

    def test_json_shape(self, capsys):
        code, out, _ = run_cli(capsys, "lhv", "--d", "2", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["schema_version"] == cli.SCHEMA_VERSION == 1
        assert obj["max"] == "2"
        assert obj["histogram"] == {"2": 8, "-2": 8}
        assert list(obj["histogram"]) == ["2", "-2"]
        assert obj["cases_degenerate"] is True
        assert "seed" not in obj
        _, out3, _ = run_cli(capsys, "lhv", "--d", "3", "--format", "json")
        obj3 = json.loads(out3)
        assert "cases_degenerate" not in obj3
        assert obj3["argmax_count"] == 30

    def test_sampled_determinism(self, capsys):
        args = ("lhv", "--d", "40", "--samples", "300", "--seed", "8", "--format", "json")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


class TestScanCommand:
    def test_csv_default(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--dmax", "4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# schema_version=1"
        assert lines[1] == "d,Q_d,I_d_QM,p_threshold,cglmp_value,lhv_max"
        assert lines[2].startswith("2,0.7071067812,2.828427125,")
        assert len(lines) == 5

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--dmax", "3", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["rows"][0]["d"] == 2
        assert obj["bell_value_increasing"] is True

    def test_csv_shape(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--dmax", "4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == f"# schema_version={cli.SCHEMA_VERSION}"
        reader = csv.DictReader(lines[1:])
        rows = list(reader)
        assert reader.fieldnames == list(cli.SCAN_COLUMNS)
        assert [r["d"] for r in rows] == ["2", "3", "4"]
        assert rows[1]["p_threshold"] == "0.6961524227"
        assert rows[0]["lhv_max"] == "2"

    def test_csv_blank_for_skipped_lhv(self, capsys, monkeypatch):
        monkeypatch.setattr(analysis, "SCAN_LHV_LIMIT", 2)
        code, out, _ = run_cli(capsys, "scan", "--dmax", "3")
        assert code == 0
        assert out.splitlines()[-1].split(",")[-1] == ""

    def test_json_shape(self, capsys, monkeypatch):
        monkeypatch.setattr(analysis, "SCAN_LHV_LIMIT", 2)
        code, out, _ = run_cli(capsys, "scan", "--dmax", "3", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["schema_version"] == cli.SCHEMA_VERSION
        assert obj["bell_value_increasing"] is True
        assert obj["threshold_decreasing"] is True
        assert [list(row) for row in obj["rows"]] == [list(cli.SCAN_COLUMNS)] * 2
        assert obj["rows"][0]["lhv_max"] == "2"
        row = obj["rows"][1]
        assert row["d"] == 3
        assert row["lhv_max"] is None
        assert row["p_threshold"] == 0.6961524227

    def test_columns_name_every_row_field(self):
        assert len(cli.SCAN_COLUMNS) == len(dataclasses.fields(analysis.ScanRow))

    def test_missing_dmax(self, capsys):
        code, _, _ = run_cli(capsys, "scan")
        assert code == 2

    def test_dmax_too_large_for_an_array(self, capsys, monkeypatch):
        # refused before the first row: no row is built
        def unreachable(*args, **kwargs):
            pytest.fail("scan built a row for an oversized --dmax")

        monkeypatch.setattr(analysis, "sum_distributions", unreachable)
        monkeypatch.setattr(analysis, "enumerate_strategies", unreachable)
        d = "100000000000000000000"
        code, out, err = run_cli(capsys, "scan", "--dmax", d)
        assert code == 2
        assert out == ""
        assert err == f"error: d = {d} is too large: its arrays exceed the largest array\n"

    # the first d_max whose (2, 2, d, d) float64 table exceeds the largest array
    TABLE_LIMIT = math.isqrt(np.iinfo(np.intp).max // 32) + 1

    @pytest.mark.parametrize("d", [TABLE_LIMIT, 2**62])
    def test_dmax_is_refused_where_its_table_is(self, capsys, monkeypatch, d):
        quantum.check_table_size(self.TABLE_LIMIT - 1)
        with pytest.raises(DimensionError):
            quantum.sum_distributions(d)

        def unreachable(*args, **kwargs):
            pytest.fail("scan built a row for an oversized --dmax")

        monkeypatch.setattr(analysis, "sum_distributions", unreachable)
        monkeypatch.setattr(analysis, "enumerate_strategies", unreachable)
        code, out, err = run_cli(capsys, "scan", "--dmax", str(d))
        assert (code, out) == (2, "")
        assert err == f"error: d = {d} is too large: its arrays exceed the largest array\n"

    @pytest.mark.parametrize("d", [536870911, analysis.SCAN_D_LIMIT + 1])
    def test_dmax_above_the_scan_limit(self, capsys, monkeypatch, d):
        # below TABLE_LIMIT, so only the work bound refuses it, before the first row
        assert d < self.TABLE_LIMIT

        def unreachable(*args, **kwargs):
            pytest.fail("scan built a row for a --dmax above SCAN_D_LIMIT")

        monkeypatch.setattr(analysis, "sum_distributions", unreachable)
        monkeypatch.setattr(analysis, "enumerate_strategies", unreachable)
        code, out, err = run_cli(capsys, "scan", "--dmax", str(d))
        assert (code, out) == (2, "")
        assert err == (
            f"error: scan is supported for d_max <= {analysis.SCAN_D_LIMIT}"
            f" (its time grows as d_max**2), got {d}\n"
        )

    def test_dmax_at_the_scan_limit_passes_the_guard(self, monkeypatch):
        class RowBuilt(Exception):
            pass

        def sentinel(*args, **kwargs):
            raise RowBuilt

        monkeypatch.setattr(analysis, "sum_distributions", sentinel)
        monkeypatch.setattr(analysis, "enumerate_strategies", sentinel)
        with pytest.raises(RowBuilt):
            cli.run(["scan", "--dmax", str(analysis.SCAN_D_LIMIT)])

    def test_determinism(self, capsys):
        _, out1, _ = run_cli(capsys, "scan", "--dmax", "6")
        _, out2, _ = run_cli(capsys, "scan", "--dmax", "6")
        assert out1 == out2


class TestNoiseCommand:
    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "noise", "--d", "3")
        assert code == 0
        assert "p_threshold = 0.6961524227" in out
        assert "I_d_QM = 2.872934051" in out

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "noise", "--d", "2", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["p_threshold"] == 0.7071067812
        assert obj["delta"] < 1e-9

    def test_builds_no_table(self, capsys, monkeypatch):
        # the Bell value comes from the outcome-sum distributions in O(d)
        builds, born = [], []
        real = quantum.sum_distributions

        def counting(d, settings=None):
            builds.append((d, (settings or quantum.CANONICAL_PHASES).as_tuple()))
            return real(d, settings)

        def no_table(self, _tol):
            pytest.fail("a JointProbabilityTable was built")

        monkeypatch.setattr(quantum, "sum_distributions", counting)
        monkeypatch.setattr(quantum, "born_table", lambda *args: born.append(args))
        monkeypatch.setattr(core.JointProbabilityTable, "__post_init__", no_table)
        code, _, _ = run_cli(capsys, "noise", "--d", "12")
        assert code == 0
        assert builds == [(12, quantum.CANONICAL_PHASES.as_tuple())]
        assert born == []

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_prints_as_the_table_bisection(self, capsys, monkeypatch, fmt):
        # the oracle: the FFT table's Bell values through noise_threshold_bisect
        for d in [*range(2, 301), 384, 500, 1000]:
            argv = ("noise", "--d", str(d), "--format", fmt)
            _, out, _ = run_cli(capsys, *argv)
            bisected = analysis.noise_threshold_bisect(sum_amplitude_table(d))
            with monkeypatch.context() as m:
                m.setattr(analysis, "_bisect_threshold", lambda *_: bisected)
                _, expect, _ = run_cli(capsys, *argv)
            assert out == expect, d

    def test_large_d_builds_nothing_of_size_d_squared(self, capsys):
        # a (2, 2, d, d) table at d = 4000 would take 512 MB
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "noise", "--d", "4000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, err) == (0, "")
        assert "p_threshold_bisect" in out
        assert peak < 2 * 2**20


class TestOptimizeCommand:
    def test_canonical_start(self, capsys):
        code, out, _ = run_cli(capsys, "optimize", "--d", "2", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["seed"] is None
        assert abs(obj["best_value"] - 2.828427125) < 1e-8
        assert obj["start_phases"] == [0.0, 0.5, 0.25, -0.25]

    def test_seeded_start_deterministic(self, capsys):
        args = ("optimize", "--d", "3", "--seed", "11", "--format", "json")
        code, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert code == 0
        assert out1 == out2
        obj = json.loads(out1)
        assert obj["best_value"] > 2.87

    def test_negative_seed(self, capsys):
        code, out, err = run_cli(capsys, "optimize", "--d", "3", "--seed", "-1")
        assert code == 2
        assert out == ""
        assert err == "error: seed must be a non-negative integer, got -1\n"

    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "optimize", "--d", "2", "--seed", "1")
        assert code == 0
        assert "best phases" in out
        assert "evaluations" in out

    def test_huge_halvings_return(self, capsys):
        code, out, _ = run_cli(capsys, "optimize", "--d", "3", "--halvings", "100000000000000000000000")
        assert code == 0
        assert out.endswith("evaluations = 800000000000000000000001\n")

    def test_negative_halvings(self, capsys):
        code, out, err = run_cli(capsys, "optimize", "--d", "3", "--halvings", "-1")
        assert code == 2
        assert out == ""
        assert err == "error: --halvings must be non-negative, got -1\n"

    @pytest.mark.parametrize("step", ["0", "-0.5", "nan", "inf", "-1e400"])
    def test_step_must_be_positive_and_finite(self, capsys, step):
        code, out, err = run_cli(capsys, "optimize", "--d", "3", f"--step={step}")
        assert code == 2
        assert out == ""
        assert err == f"error: --step must be a positive finite number, got {float(step)}\n"

    @pytest.mark.parametrize("d", [analysis.OPTIMIZE_D_LIMIT + 1, quantum.SUM_D_LIMIT, 536870911])
    @pytest.mark.parametrize("seed", [[], ["--seed", "1"]])
    def test_dimension_above_the_optimize_limit(self, capsys, monkeypatch, d, seed):
        # below the table gate, so only the work bound refuses it, before the
        # first evaluation
        assert d < TestScanCommand.TABLE_LIMIT

        def unreachable(*args, **kwargs):
            pytest.fail("optimize evaluated phases above OPTIMIZE_D_LIMIT")

        monkeypatch.setattr(analysis, "sum_distributions", unreachable)
        code, out, err = run_cli(capsys, "optimize", "--d", str(d), *seed)
        assert (code, out) == (2, "")
        assert err == f"error: optimize is supported for d <= {analysis.OPTIMIZE_D_LIMIT} (its time grows as d), got {d}\n"

    def test_dimension_at_the_optimize_limit_passes_the_guard(self, monkeypatch):
        class Evaluated(Exception):
            pass

        def sentinel(*args, **kwargs):
            raise Evaluated

        monkeypatch.setattr(analysis, "sum_distributions", sentinel)
        with pytest.raises(Evaluated):
            cli.run(["optimize", "--d", str(analysis.OPTIMIZE_D_LIMIT)])


@pytest.mark.parametrize(
    "argv",
    [
        ("quantum", "--d", "3", "--phases", "1e308,0,0,0"),
        ("optimize", "--d", "3", "--step", "1e308", "--halvings", "1"),
    ],
    ids=" ".join,
)
def test_non_finite_phases_end_in_one_error_line(capsys, argv):
    # a numpy RuntimeWarning would be raised here instead of being printed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: table contains non-finite entries\n"


class TestCglmpCommand:
    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "cglmp", "--d", "4")
        assert code == 0
        assert "kernel_value = 2.896243218" in out
        assert "cglmp_value = 2.896243218" in out

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "cglmp", "--d", "6", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["delta"] < 1e-10


def scalar_cross_identity(rows, d):
    """Oracle of ``cli._lhv_cross_identity``: one strategy at a time, through an exact table.

    Each strategy's ``strategy_bell_value`` must equal ``bell_expression`` of
    its ``strategy_to_table`` and lie in the value set of its
    ``classify_strategy`` label.
    """
    value_sets = {label: lhv.case_value_set(label, d) for label in lhv.CASE_LABELS}
    cross_ok = case_ok = True
    for s in map(tuple, rows):
        value = lhv.strategy_bell_value(s, d)
        cross_ok &= value == core.bell_expression(lhv.strategy_to_table(s, d))
        case_ok &= value in value_sets[classify_strategy(s, d)]
    return cross_ok, case_ok


def every_strategy(d):
    return np.indices((d,) * 4).reshape(4, -1).T


class TestCheckCommand:
    @pytest.mark.parametrize("d", ["2", "3", "5"])
    def test_battery_passes(self, capsys, d):
        code, out, _ = run_cli(capsys, "check", "--d", d)
        assert code == 0
        assert "FAIL" not in out
        lines = [line for line in out.splitlines() if line.startswith("PASS")]
        assert len(lines) >= 12
        assert out.splitlines()[-1].endswith(f"checks passed for d = {d}")

    def test_failing_row_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(quantum, "shift_symmetry_deviation", lambda table: 1.0)
        code, out, err = run_cli(capsys, "check", "--d", "5")
        assert code == 1
        lines = out.splitlines()
        assert "FAIL shift-symmetry: max deviation 1.000e+00" in lines
        assert sum(line.startswith("FAIL") for line in lines) == 1
        assert lines[-1] == "13/14 checks passed for d = 5"
        assert err == ""

    def assert_one_failing_row(self, capsys, name, detail):
        code, out, err = run_cli(capsys, "check", "--d", "5")
        assert code == 1
        lines = out.splitlines()
        assert f"FAIL {name}: {detail}" in lines
        assert sum(line.startswith("FAIL") for line in lines) == 1
        assert lines[-1] == "13/14 checks passed for d = 5"
        assert err == ""

    def test_shifted_numerator_fails_cross_identity(self, capsys, monkeypatch):
        real = _accel.strategy_values

        def shifted(g, *outcomes):
            num, case = real(g, *outcomes)
            num = num.copy()
            num[0] += 1
            return num, case

        monkeypatch.setattr(_accel, "strategy_values", shifted)
        self.assert_one_failing_row(capsys, "lhv-cross-identity", "625 strategies, closed form vs table path")

    def test_wrong_case_code_fails_cross_identity(self, capsys, monkeypatch):
        real = _accel.strategy_values

        def relabelled(g, *outcomes):
            num, case = real(g, *outcomes)
            # the first row, (0, 0, 0, 0), has value 2, which Case1ii does not admit
            assert num[0] == g.d - 1
            case = case.copy()
            case[0] = lhv.CASE_LABELS.index("Case1ii")
            return num, case

        monkeypatch.setattr(_accel, "strategy_values", relabelled)
        self.assert_one_failing_row(capsys, "lhv-cross-identity", "625 strategies, closed form vs table path")

    @pytest.mark.parametrize("d", range(2, 9))
    def test_cross_identity_matches_oracle_on_every_strategy(self, d):
        rows = every_strategy(d)
        assert cli._lhv_cross_identity(rows, d) == scalar_cross_identity(rows, d) == (True, True)

    @pytest.mark.parametrize("d", range(7, 17))
    def test_cross_identity_matches_oracle_on_drawn_rows(self, d):
        rows = np.random.default_rng(d).integers(0, d, size=(200, 4))
        assert cli._lhv_cross_identity(rows, d) == scalar_cross_identity(rows, d) == (True, True)

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_cross_identity_matches_oracle_on_corrupt_weights(self, monkeypatch, d):
        # both sides read core.bell_weights: one wrong weight fails the value
        # comparison of every strategy whose point mass sits on it, and only it
        weights = core.bell_weights(d).copy()
        weights[1, 0, 1, 2] += 2
        monkeypatch.setattr(core, "bell_weights", lambda d: weights)
        rows = every_strategy(d)
        assert cli._lhv_cross_identity(rows, d) == scalar_cross_identity(rows, d) == (False, True)

    def test_exact_spin_assembly_fails_on_a_corrupt_weight_rule(self, monkeypatch):
        # the exact assembly sums classes of numerators and reads no Bell
        # weights, so only bell_expression sees the corruption
        def assembly_detail() -> str:
            return {name: detail for name, _, detail in cli._check_battery(5)}["spin-assembly-consistency"]

        rule = core._signed_weights
        core.bell_weights.cache_clear()
        try:
            with monkeypatch.context() as patch:
                patch.setattr(core, "_signed_weights", lambda d, g: rule(d, g) + 1)
                corrupt = assembly_detail()
        finally:
            core.bell_weights.cache_clear()
        assert corrupt.endswith("exact match False")
        assert assembly_detail().endswith("exact match True")

    @pytest.mark.parametrize("d", ["6", "16"])
    def test_no_per_strategy_tables(self, capsys, monkeypatch, d):
        # the lhv-cross-identity row evaluates all its strategies as arrays
        to_table, builds = [], []
        real_to_table = lhv.strategy_to_table
        real_post_init = core.JointProbabilityTable.__post_init__

        def counting_to_table(s, d):
            to_table.append(s)
            return real_to_table(s, d)

        def counting_post_init(self, _tol):
            builds.append(self.d)
            real_post_init(self, _tol)

        monkeypatch.setattr(lhv, "strategy_to_table", counting_to_table)
        monkeypatch.setattr(core.JointProbabilityTable, "__post_init__", counting_post_init)
        code, _, _ = run_cli(capsys, "check", "--d", d)
        assert code == 0
        assert to_table == []
        assert 0 < len(builds) <= 20

    def test_born_table_builds(self, capsys, monkeypatch):
        builds = []
        real = quantum.born_table

        def counting(d, settings=None):
            builds.append((d, (settings or quantum.CANONICAL_PHASES).as_tuple()))
            return real(d, settings)

        monkeypatch.setattr(quantum, "born_table", counting)
        code, _, _ = run_cli(capsys, "check", "--d", "16")
        assert code == 0
        # the battery's canonical table also serves the CGLMP row and the
        # noise-threshold bisection
        assert len(builds) == 12
        assert len(set(builds)) == 12
        assert builds.count((16, quantum.CANONICAL_PHASES.as_tuple())) == 1


class TestUsage:
    def test_unknown_command(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 2

    def test_no_command(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 2

    @pytest.mark.parametrize("command", ["quantum", "noise", "cglmp", "check", "optimize"])
    @pytest.mark.parametrize("d", ["100000000000000000000", "4611686018427387904"])
    def test_dimension_too_large_for_an_array(self, capsys, command, d):
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, command, "--d", d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert out == ""
        assert err == f"error: d = {d} is too large: its arrays exceed the largest array\n"
        assert peak < 2**20

    @pytest.mark.parametrize("d", [quantum.SUM_D_LIMIT + 1, 536870911])
    def test_dimension_above_the_sum_distribution_limit(self, capsys, monkeypatch, d):
        # below the table gate, so only the memory bound refuses it, before
        # the phases are read and any d-sized array is built
        assert d < TestScanCommand.TABLE_LIMIT

        def unreachable(*args, **kwargs):
            pytest.fail("noise built outcome-sum distributions above SUM_D_LIMIT")

        monkeypatch.setattr(quantum.MeasurementSettings, "phases", unreachable)
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "noise", "--d", str(d))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert err == (
            f"error: d = {d} is too large: outcome-sum distributions are supported"
            f" for d <= {quantum.SUM_D_LIMIT} (their memory grows as d)\n"
        )
        assert peak < 2**20

    def test_dimension_at_the_sum_distribution_limit_passes_the_guard(self, monkeypatch):
        class Built(Exception):
            pass

        def sentinel(*args, **kwargs):
            raise Built

        monkeypatch.setattr(quantum.MeasurementSettings, "phases", sentinel)
        with pytest.raises(Built):
            cli.run(["noise", "--d", str(quantum.SUM_D_LIMIT)])

    # work that allocates d-sized or d x d arrays before a table is built:
    # at these d it would exhaust the memory of a small host
    HEAVY = {
        "noise": [(analysis, "noise_threshold"), (quantum, "spin_projection_distribution")],
        "cglmp": [(quantum, "measurement_basis")],
        "quantum": [(quantum, "measurement_basis"), (quantum, "closed_form_table")],
        "check": [(core, "bell_weights"), (quantum, "measurement_basis")],
    }

    @pytest.mark.parametrize("command", sorted(HEAVY))
    @pytest.mark.parametrize("d", [TestScanCommand.TABLE_LIMIT, 600000000])
    def test_table_size_is_checked_before_any_d_sized_work(self, capsys, monkeypatch, command, d):
        def unreachable(*args, **kwargs):
            pytest.fail(f"{command} did d-sized work before its table size check")

        for module, name in self.HEAVY[command]:
            monkeypatch.setattr(module, name, unreachable)
        code, out, err = run_cli(capsys, command, "--d", str(d))
        assert (code, out) == (2, "")
        assert err == f"error: d = {d} is too large: its arrays exceed the largest array\n"


def run_python(*args, text=True, env=None):
    """``python *args`` in a child process that imports this checkout.

    The child gets ``env`` (by default this process's environment) with this
    checkout's ``src`` put first on its ``PYTHONPATH``.
    """
    env = dict(os.environ if env is None else env)
    src = os.path.dirname(os.path.dirname(bell_lab.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True, text=text, env=env, timeout=120)


def run_child(module, argv):
    """``python -m module *argv`` in a child process that imports this checkout."""
    return run_python("-m", module, *argv)


class TestModuleEntryPoints:
    @pytest.mark.parametrize("module", ["bell_lab", "bell_lab.cli"])
    def test_python_m_matches_run(self, capsys, module):
        argv = ["lhv", "--d", "3"]
        code, out, _ = run_cli(capsys, *argv)
        child = run_child(module, argv)
        assert (child.returncode, child.stdout) == (code, out)
        assert out

    @pytest.mark.parametrize(
        "argv",
        [
            "quantum --d 3",
            "scan --dmax 3",
            "noise --d 3",
            "optimize --d 3 --halvings 2",
            "cglmp --d 3",
            "check --d 2",
            "check --d 3",
            "noise --d 1",
        ],
    )
    def test_every_subcommand_writes_what_run_writes(self, capsys, argv):
        # the child writes to a real pipe, not to the capture buffer, and
        # exits through main: the same bytes and status, and at most one
        # error line
        code, out, err = run_cli(capsys, *argv.split())
        child = run_python("-m", "bell_lab", *argv.split(), text=False)
        assert (child.returncode, child.stdout, child.stderr) == (code, out.encode(), err.encode())
        assert out or err
        assert err.count("\n") <= 1


class TestMainExit:
    """``cli.main`` freezes the heap after ``run`` returns, then exits with its status.

    The frozen heap is what finalization's cycle collections skip; nothing
    else about exit changes.  ``cli.run`` and the library never freeze.
    ``TestModuleEntryPoints`` checks the bytes and statuses 0 and 2 of
    children that exit through ``main``.
    """

    @pytest.fixture(autouse=True)
    def unfreeze(self):
        yield
        gc.unfreeze()

    @pytest.mark.parametrize("status", [0, 1, 2])
    def test_exits_with_the_status_of_run(self, monkeypatch, status):
        counts = []

        def fake_run(argv=None):
            counts.append(gc.get_freeze_count())
            return status

        monkeypatch.setattr(cli, "run", fake_run)
        with pytest.raises(SystemExit) as exc:
            cli.main()
        assert exc.value.code == status
        assert counts == [0]
        assert gc.get_freeze_count() > 0

    def test_import_and_run_do_not_freeze(self, capsys):
        child = run_python("-c", "import gc, bell_lab; print(gc.get_freeze_count())")
        assert (child.returncode, child.stdout, child.stderr) == (0, "0\n", "")
        assert run_cli(capsys, "check", "--d", "2")[0] == 0
        assert gc.get_freeze_count() == 0

    def test_child_failing_check_exits_1_after_its_atexit_handlers(self):
        # the handler reports the freeze count at exit: main froze, and
        # atexit handlers still ran
        child = run_python(
            "-c",
            "import atexit, gc, sys\n"
            "from bell_lab import cli\n"
            "atexit.register(lambda: sys.stderr.write(f'{gc.get_freeze_count()}\\n'))\n"
            "cli._check_battery = lambda d: [('patched', False, 'forced failure')]\n"
            "cli.main()\n",
            "check",
            "--d",
            "2",
        )
        assert child.returncode == 1
        assert child.stdout == "FAIL patched: forced failure\n0/1 checks passed for d = 2\n"
        assert int(child.stderr) > 0


class TestGoldenStdout:
    """Stdout bytes of fast vectors, pinned by digest.

    The digests were recorded before the Born-table and CGLMP rewrites that
    promise bit-identical floats, so any drift in the last printed digit
    fails here.  The ``quantum``, ``cglmp`` and ``check`` digests hold for the
    OpenBLAS kernel selected by default on an AVX-512 CPU (SkylakeX): their
    tables come from BLAS products, which add in the kernel's order.  Under
    ``OPENBLAS_CORETYPE=Haswell`` 16 of them differ.
    """

    GOLDEN = {
        "check --d 5": "f23b98d4648f4d2a814c1dc9173c20d0d1d03371854391b3e7792807308c9199",
        # the d = 2 and d = 3 branches, the full d**4 cross-check (d = 6) and
        # the sampled one (d = 16)
        "check --d 2": "87b412cc933b175fbba7fe57ec0bdd837a373bee8699c72a06ad07d5ac677453",
        "check --d 3": "a5db9d70c23a0c542b9a92ec47a8dc48ca6baa767f16bcb2b9be5774b2d2f626",
        "check --d 6": "a507f7d2a13da23b5bb6a2882384953836c5139c965b9b9f1c86b0a8e078d325",
        "check --d 16": "e6e47129ef80329cba33d9aa80b489bc69ffcde2062f6ad4c12004d9bad6bd01",
        "check --d 4": "27ee121edf713ce5b9377f4696c81b55565da12ef57593d1939901934bcaea3f",
        "check --d 7": "7c26ff33395d362315dabef8f0d1a05de51de514ad9274b1eaac4187f5cc705e",
        "check --d 17": "a981ee563655f515c3ab2aafcdd2f73c488faabf2b877e5fe22d60a6eb7ef578",
        # the first d whose random settings (seed 12345 + d) draw one with
        # |sin| < 1e-3, which born-vs-closed-form skips
        "check --d 13": "f774216c396b2ec3aa97999087b59d07240521f631c3e09d559c156734f92de2",
        "cglmp --d 2": "26d74d9c14ebb15dcf8943aa4b9aa70dc927b7ed26d70ede34bf550fd462a7a7",
        "cglmp --d 37": "318e29db0c448e345397c7c60745b78048ea9e5302bf4d17981c52ffc2972d8d",
        "noise --d 7": "72018c2035b05801d08dd87e5d57e6f23a09ab622714c98b9d07e44a6664d2b0",
        "optimize --d 8 --seed 3": "35cab470cad4aa1ea2c526a1718a2d2cedff3f14fcc8dc029d7644155543a9bf",
        "scan --dmax 40 --format json": "95a46eb8c9161b1418a5dea82953614d9bc7ac141f0ca9266954c4a6de7339f3",
        "quantum --d 7 --phases 0.1,0.2,0.3,0.4": "fda4ff0a0eeb34ba8f9f4bf980d144dc2414ee8a19f1c7f2ba60a458f55e245b",
        # every JSON-emitting command, as printed by json.dumps(report, indent=2)
        "lhv --d 2 --format json": "a46156d5b8c40692b98bda462e2e8d249c9eb6804b6dddcb05dc6c291e6d1049",
        "lhv --d 64 --mapping difference --format json": "783b7947a3605ec58907f78fcc41b52008630c02303343f433916a77d0058999",
        "noise --d 7 --format json": "a052fc21d143528bcdeafc332d727e69c5fa3ef3d938d1757fa79701c8516ce2",
        "cglmp --d 37 --format json": "62a4f19724a36b92dd952b6220d46a18ef5aa3579b1cf291a0c1a321ab1ae7ff",
        "optimize --d 8 --seed 3 --format json": "4554464185ba5acdb257c3ed813d9f2ae708ed8861befde3b7e32cf1ce6010c3",
        "quantum --d 64": "33c2e11e4e84393d6f58ef3313b1432da0657a0218728f5a01dfdb20d440543f",
        "quantum --d 384": "9fbf48aec96052a8c4c5f248bb68b16455e7646e4d213c868d063c7202ffc8a4",
        # tables whose entries take float.__repr__ more often (small d) or lie
        # near 1, recorded before the table floats were formatted in numpy
        "quantum --d 2": "b9143280a9fc744bc81cd7fd8d39541583573fe38b961c6b1e22d8a768b09cf8",
        "quantum --d 3": "aa1c41391959851d9d04ac0cf33bd2d283c596c7a67b861d2fc9d7ba1fd6b8bb",
        "quantum --d 200 --phases 0.1,0.2,0.3,0.4": "9d15e74ce8fe895350a11530bc58e7b91dd612df2adb2fabbece531b4c0c1b0f",
        # the scan CSV (rows with lhv_max and rows that leave it empty) and the
        # lhv text and sampled JSON layouts, recorded before they moved into cli
        "scan --dmax 20": "fc722337e4aa1c72b1b04ba3802e65cc34ec9223dd472bf90ca35494340ac039",
        "lhv --d 2": "de1757bdb95f7ba0fe42d9113f9099fd186b760eeaa089840dfa05aa29a59ed4",
        "lhv --d 7": "0a8a6f404c8ceb2cd2f0e1ab8fceafc99f718e5e910ee3bcb80f7ff38baac809",
        "lhv --d 40 --samples 1000 --seed 2": "c87f6df1d17fb1e55838c180d7c771c6958ef86dc35e490583037d70cbdcea0d",
        "lhv --d 300 --samples 5000 --seed 4 --format json": "38313df4125889de30981805d0a6020551cc0291690db883c65b64ed276ac9a7",
        # the lhv-enum benchmark vectors, copied from perfbench/digests.json
        # like the other vectors in BENCHMARK_COPIES
        "lhv --d 64": "4274d1aba2d96ec25d1ae181d052c7bfcb806cf2029a2bdd4f50e5559513e95e",
        "lhv --d 2000 --samples 2000000 --seed 1": "977ba097947a5db5579136302553bf277b0b055134927686b84a67362659bde1",
        # the quantum-sweep benchmark vectors, whose values come from the
        # outcome-sum distributions rather than the Born matrix products
        "scan --dmax 160": "1b64df220a56a03bfa0c957e1c6ede68c439075ae736764dc5064203135556da",
        "noise --d 192": "87538aaed1c5290d0a75b314c6a378805325e03c888217fbfae7a5965501eeed",
        "optimize --d 64 --seed 1": "3b4a32db92edc8b1764cbfd325091fb00be7b6cf41edefa813bf7a317115dfad",
        # layouts no entry above pins: an unseeded optimize ("seed = None",
        # "seed": null), the difference mapping at small d, a scan with no
        # empty cells and the d = 2 noise and cglmp JSON
        "optimize --d 5": "8d080863323c2d1c5b86c8739f1814716484cf1fda14450ab85d09808258284d",
        "optimize --d 5 --format json": "e7412f29c31e513ff288870dfdfdb1e59e32cd58c7e8b6a1e6ea0fd5be23d784",
        "lhv --d 3 --mapping difference --format json": "da3181938b3ec59f3be9a1fa7711359f75d1eca76f101a90811442209709f85f",
        "scan --dmax 3": "cabdf7b7418d31bead2068bada180862d8508ae0449dcafff2b9c53786022737",
        "cglmp --d 2 --format json": "6cf08725ad5142db8bb78cbb8143bbbd41f870e900512dc9990b19cc7a58e573",
        "noise --d 2 --format json": "d627fc9d9797fb7ba556a7f402368beaee7e58c6b75fda3a8179141bb8bbc24d",
    }
    # the vectors whose digests are copied from perfbench/digests.json
    BENCHMARK_COPIES = {
        "lhv --d 64",
        "lhv --d 2000 --samples 2000000 --seed 1",
        "lhv --d 64 --mapping difference --format json",
        "scan --dmax 160",
        "noise --d 192",
        "optimize --d 64 --seed 1",
        "check --d 6",
        "check --d 16",
        "quantum --d 384",
    }
    # quantum --input-file on the written quantum --d 64 report, without its "source" line
    READ_BACK_D64 = "17b197f686631bf8ba00dda1c14c00d99f1d8f82a4cd8102bf5afd24b7417d92"

    @pytest.mark.parametrize("argv", sorted(GOLDEN))
    def test_stdout_digest(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.GOLDEN[argv]

    def test_benchmark_copies_match(self):
        path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "digests.json")
        with open(path, encoding="utf-8") as fh:
            recorded = json.load(fh)["stdout_sha256"]
        assert set(self.GOLDEN) & set(recorded) == self.BENCHMARK_COPIES
        for argv in self.BENCHMARK_COPIES:
            assert self.GOLDEN[argv] == recorded[argv]

    def test_read_back_digest(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "quantum", "--d", "64")
        assert code == 0
        path = tmp_path / "table.json"
        path.write_text(out)
        code, out, _ = run_cli(capsys, "quantum", "--input-file", str(path))
        assert code == 0
        source = f'  "source": {json.dumps(str(path))},\n'
        assert source in out
        kept = out.replace(source, "")
        assert hashlib.sha256(kept.encode()).hexdigest() == self.READ_BACK_D64


# a sitecustomize module that reports on stderr, at exit, the
# OPENBLAS_NUM_THREADS that numpy's first import saw and the final one
NUMPY_IMPORT_PROBE = """\
import atexit, os, sys

seen = []


class NumpyImportProbe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
        return None


sys.meta_path.insert(0, NumpyImportProbe())
atexit.register(lambda: sys.stderr.write(f"{seen} {os.environ.get('OPENBLAS_NUM_THREADS')}\\n"))
"""

# a child that builds a threaded Born table and runs the d = 64 strategy
# count, then prints how many threads it has
THREAD_COUNT_CHILD = """\
import os
import bell_lab
from bell_lab import _accel, core, quantum

quantum.born_table(384)
_accel.count_strategies(core.OutcomeMapping.sum_mapping(64))
print(len(os.listdir("/proc/self/task")))
"""


def blas_threads_env(value=None):
    """This process's environment with OPENBLAS_NUM_THREADS set to ``value``, or unset.

    Built explicitly: importing bell_lab here has already set the variable.
    """
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if value is not None:
        env["OPENBLAS_NUM_THREADS"] = value
    return env


class TestBlasThreadCount:
    """Importing bell_lab gives OpenBLAS one thread before numpy loads.

    A caller's value wins, and the printed bytes do not depend on the count:
    each product's output entries are summed the same way however OpenBLAS
    splits it, and ``born_table`` splits its products over its own threads.
    """

    @pytest.mark.parametrize("entry", [["-c", "import bell_lab"], ["-m", "bell_lab", "lhv", "--d", "2"]])
    @pytest.mark.parametrize("given, expected", [(None, "1"), ("2", "2")])
    def test_set_before_numpy_loads(self, tmp_path, entry, given, expected):
        (tmp_path / "sitecustomize.py").write_text(NUMPY_IMPORT_PROBE)
        child = run_python(*entry, env={**blas_threads_env(given), "PYTHONPATH": str(tmp_path)})
        assert child.returncode == 0
        assert child.stderr == f"['{expected}'] {expected}\n"

    @pytest.mark.parametrize("argv", ["cglmp --d 37", "check --d 16", "quantum --d 64", "quantum --d 384"])
    @pytest.mark.parametrize("given", [None, "2"])
    def test_blas_vectors_print_the_golden_bytes(self, argv, given):
        # with "2", quantum --d 384's zgemm is split across OpenBLAS's threads
        child = run_python("-m", "bell_lab", *argv.split(), text=False, env=blas_threads_env(given))
        assert child.returncode == 0
        assert hashlib.sha256(child.stdout).hexdigest() == TestGoldenStdout.GOLDEN[argv]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
    def test_no_blas_worker_thread(self):
        # born_table's helper thread has been joined and OpenBLAS started none
        child = run_python("-c", THREAD_COUNT_CHILD, env=blas_threads_env())
        assert child.returncode == 0, child.stderr
        assert child.stdout == "1\n"


json_floats = st.floats() | st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1.5e-7, 1e300])
json_keys = st.text() | st.integers() | json_floats | st.booleans() | st.none()
json_scalars = st.none() | st.booleans() | st.integers() | json_floats | st.text()
# (rows, cols, family, seed, specials) of a float matrix: large ones cross
# the emitter's blocks of _FLOAT_BLOCK floats
float_matrices = st.tuples(
    st.integers(1, 40),
    st.integers(1, 700),
    st.sampled_from(["probabilities", "log-uniform", "bits"]),
    st.integers(0, 2**32 - 1),
    st.lists(json_floats, max_size=3),
)


def make_matrix(rows, cols, family, seed, specials):
    rng = np.random.default_rng(seed)
    if family == "probabilities":
        x = rng.random((rows, cols))
        x /= x.sum()
    elif family == "log-uniform":
        x = 10.0 ** rng.uniform(-30, 0, (rows, cols))
    else:
        x = rng.integers(0, 2**64, (rows, cols), dtype=np.uint64).view(np.float64)
    x.ravel()[rng.integers(0, x.size, len(specials))] = specials
    return x


json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(json_keys, inner, max_size=4)
    | st.lists(json_floats, min_size=1, max_size=5),
    max_leaves=20,
)


class TestJsonEmitter:
    """The streaming emitter writes the bytes of json.dumps(obj, indent=2)."""

    @given(json_values)
    @settings(max_examples=200, deadline=None)
    def test_pieces_are_json_dumps(self, obj):
        assert "".join(cli._json_pieces(obj)) == json.dumps(obj, indent=2)

    @pytest.mark.parametrize(
        "obj",
        [
            {(1, 2): 0},
            {"a": [1.0, {b"k": 1}]},
            [0.5, object()],
            {"x": 1j},
        ],
    )
    def test_unserializable_values_raise_as_json_does(self, obj):
        with pytest.raises(TypeError) as expected:
            json.dumps(obj, indent=2)
        with pytest.raises(TypeError) as got:
            "".join(cli._json_pieces(obj))
        assert str(got.value) == str(expected.value)

    @given(float_matrices)
    @settings(max_examples=60, deadline=None)
    def test_float_matrices_are_json_dumps_of_their_lists(self, spec):
        a = make_matrix(*spec)
        report = {"d": 3, "tables": {"11": a, "12": [a[0].tolist()]}}
        assert "".join(cli._json_pieces(report)) == json.dumps(as_lists(report), indent=2)

    @pytest.mark.parametrize("block", [1, 7, 64, 1 << 14])
    def test_float_matrices_in_blocks_of_rows(self, monkeypatch, block):
        monkeypatch.setattr(cli, "_FLOAT_BLOCK", block)
        rng = np.random.default_rng(block)
        for shape in [(1, 1), (1, 50), (50, 1), (9, 8), (300, 200)]:
            a = rng.random(shape) ** 8
            assert "".join(cli._json_pieces([a])) == json.dumps([a.tolist()], indent=2)

    @pytest.mark.parametrize(
        "a",
        [
            np.array([[0.5, float("nan")], [float("inf"), 0.25]]),
            np.zeros((2, 0)),
            np.zeros((0, 3)),
            np.arange(6).reshape(2, 3),
            np.linspace(0, 1, 5),
            np.ones((2, 2, 2)) / 8,
            np.array([[0.1, 0.2]], dtype=np.float32),
        ],
    )
    def test_other_arrays_are_their_lists(self, a):
        assert "".join(cli._json_pieces({"a": a})) == json.dumps({"a": a.tolist()}, indent=2)

    @pytest.mark.parametrize("where", ["key", "value", "list"])
    def test_marker_text_in_the_report_is_json_dumps(self, where):
        # a string equal to the marker makes more markers than matrices
        a = np.random.default_rng(3).random((4, 5)) ** 8
        m = cli._MATRIX
        obj = {
            "key": {m: 1, "t": a},
            "value": {"s": m, "t": a},
            "list": {"t": [m, a, f'"{m}']},
        }[where]
        assert "".join(cli._json_pieces(obj)) == json.dumps(as_lists(obj), indent=2)

    def test_float_matrices_at_different_depths(self):
        rng = np.random.default_rng(5)
        a, b = rng.random((3, 7)) ** 8, rng.random((6, 2)) / 3
        for obj in [[a, {"x": [{"y": b}]}], {"p": {"q": [[b]]}, "a": a}, a]:
            assert "".join(cli._json_pieces(obj)) == json.dumps(as_lists(obj), indent=2)

    def test_quantum_stdout_is_json_dumps_of_the_report(self, capsys, monkeypatch):
        reports = []
        emit = cli._emit_json
        monkeypatch.setattr(cli, "_emit_json", lambda obj: (reports.append(obj), emit(obj)))
        for d in range(2, 25):
            code, out, _ = run_cli(capsys, "quantum", "--d", str(d))
            assert code == 0
            assert out == json.dumps(as_lists(reports[-1]), indent=2) + "\n"

    @pytest.mark.parametrize(
        "argv",
        [
            "quantum --d 3",
            "quantum --input-file {table}",
            "lhv --d 3 --format json",
            "lhv --d 40 --samples 500 --seed 2 --format json",
            "scan --dmax 5 --format json",
            "noise --d 3 --format json",
            "cglmp --d 3 --format json",
            "optimize --d 3 --halvings 2 --format json",
            "optimize --d 3 --halvings 2 --seed 1 --format json",
        ],
    )
    def test_every_json_report_is_json_dumps_of_the_report(self, capsys, monkeypatch, tmp_path, argv):
        table = tmp_path / "table.json"
        table.write_text(json.dumps(quantum.born_table(3).to_json_dict()))
        reports = []
        emit = cli._emit_json
        monkeypatch.setattr(cli, "_emit_json", lambda obj: (reports.append(obj), emit(obj)))
        code, out, _ = run_cli(capsys, *[str(table) if a == "{table}" else a for a in argv.split()])
        assert code == 0
        [report] = reports
        assert out == json.dumps(as_lists(report), indent=2) + "\n"
        assert next(iter(report)) == "schema_version"
        assert report["schema_version"] == cli.SCHEMA_VERSION
