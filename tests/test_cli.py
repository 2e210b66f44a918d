import ast
import contextlib
import csv
import gc
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import esjs.cli
import esjs.gof
from esjs import (
    ConvergenceError,
    Family,
    ParametricModel,
    SortedSample,
    esjs as esjs_score,
    fit_mle,
    km_binned_survival,
    sample_from,
)
from esjs.cli import CsvError, ingest_csv, read_csv_column, run


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


#: The directory that holds the esjs package, for fresh interpreters' PYTHONPATH.
SRC = os.path.dirname(os.path.dirname(os.path.abspath(esjs.gof.__file__)))


def run_process(*argv, stdout=subprocess.PIPE):
    """The CLI in a fresh interpreter, as a user runs it."""
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run(
        [sys.executable, "-m", "esjs.cli", *argv],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
    )


class TestIngestCsv:
    def test_plain_column(self, tmp_path):
        path = write(tmp_path, "a.csv", "1\n2\n3\n")
        sample = ingest_csv(path)
        assert list(sample.values) == [1.0, 2.0, 3.0]

    def test_header_autodetected(self, tmp_path):
        path = write(tmp_path, "b.csv", "x\n1\n2\n")
        sample = ingest_csv(path)
        assert list(sample.values) == [1.0, 2.0]

    def test_column_by_name(self, tmp_path):
        path = write(tmp_path, "c.csv", "t,value\n0,5\n1,4\n")
        sample = ingest_csv(path, column="value")
        assert list(sample.values) == [4.0, 5.0]

    def test_column_by_index(self, tmp_path):
        path = write(tmp_path, "d.csv", "t,value\n0,5\n1,4\n")
        sample = ingest_csv(path, column="1")
        assert list(sample.values) == [4.0, 5.0]

    def test_column_names_that_are_digits_but_not_decimals(self, tmp_path):
        # "²" is a digit to str.isdigit but not a number to int(): it is a name;
        # "١" (Arabic-Indic one) is a decimal, so it selects by index as int() reads it
        plain = write(tmp_path, "plain.csv", "t,²\n0,5\n1,4\n")
        quoted = write(tmp_path, "quoted.csv", 't,"²"\n0,5\n1,4\n')
        for path in (plain, quoted):
            assert list(read_csv_column(path, "²")) == [5.0, 4.0]
            assert list(read_csv_column(path, "١")) == [5.0, 4.0]

    def test_crlf_endings(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_bytes(b"1\r\n2\r\n")
        assert list(ingest_csv(str(path)).values) == [1.0, 2.0]

    def test_overflow_names_line(self, tmp_path):
        path = write(tmp_path, "f.csv", "1e309\n1\n")
        with pytest.raises(CsvError, match="line 1"):
            ingest_csv(path)

    def test_nan_rejected(self, tmp_path):
        path = write(tmp_path, "g.csv", "1\nnan\n")
        with pytest.raises(CsvError, match="line 2"):
            ingest_csv(path)

    def test_garbage_rejected(self, tmp_path):
        path = write(tmp_path, "h.csv", "1\ntwo\n")
        with pytest.raises(CsvError, match="not a number"):
            ingest_csv(path)

    def test_missing_values_dropped_with_note(self, tmp_path, capsys):
        path = write(tmp_path, "i.csv", "v\n1\n\n3\n")
        values = read_csv_column(path, "v")
        assert list(values) == [1.0, 3.0]
        err = capsys.readouterr().err
        assert "line(s) 3" in err

    def test_no_numeric_rows(self, tmp_path):
        path = write(tmp_path, "j.csv", "v\n\n\n")
        with pytest.raises(CsvError, match="no numeric rows"):
            ingest_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CsvError, match="cannot read"):
            ingest_csv(str(tmp_path / "nope.csv"))

    def test_unknown_column_name(self, tmp_path):
        path = write(tmp_path, "k.csv", "a,b\n1,2\n")
        with pytest.raises(CsvError, match="no column named"):
            ingest_csv(path, column="c")

    def test_regular_files_skip_the_csv_module(self, tmp_path):
        path = write(tmp_path, "l.csv", "t, value \r\n0, 5.5\r\n1,-4\r\n")
        with mock.patch.object(esjs.cli, "_read_with_csv_module", side_effect=AssertionError):
            assert list(read_csv_column(path, "value")) == [5.5, -4.0]
            assert list(read_csv_column(path, "0")) == [0.0, 1.0]

    def test_oversized_field_is_a_data_error(self, tmp_path):
        path = write(tmp_path, "big.csv", "v\n" + "0" * 199_999 + "1\n")
        proc = run_process("fit", "--input", path, "--family", "normal", "--seed", "1")
        assert proc.returncode == 2
        assert proc.stderr == (
            f"esjs: data error: {path}: line 2: field larger than field limit (131072)\n"
        )

    def test_undecodable_byte_names_its_line_and_offset(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"1\n" * 6000 + b"\xff")
        proc = run_process("fit", "--input", str(path), "--family", "normal", "--seed", "1")
        assert proc.returncode == 2
        assert proc.stderr == (
            f"esjs: data error: {path}: line 6001: byte 0xff at offset 12000 "
            "is not UTF-8 (invalid start byte)\n"
        )

    @pytest.mark.parametrize("quote", ["", '"'], ids=["plain", "quoted"])
    def test_byte_order_mark_before_a_number(self, tmp_path, quote):
        # Excel's "CSV UTF-8" export starts the file with a byte-order mark;
        # a quoted file is read by the csv module
        path = write(tmp_path, "bom.csv", f"\ufeff{quote}1.5{quote}\n2.5\n3.5\n")
        assert list(read_csv_column(path)) == [1.5, 2.5, 3.5]

    @pytest.mark.parametrize("quote", ["", '"'], ids=["plain", "quoted"])
    def test_byte_order_mark_before_a_header(self, tmp_path, quote):
        path = write(tmp_path, "bom.csv", f"\ufeff{quote}value{quote},t\n1.5,0\n2.5,1\n")
        assert list(read_csv_column(path, "value")) == [1.5, 2.5]


NUMBER_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**20, 10**20).map(str),
)
# What sends the plain reader to the csv module, and spellings float() takes;
# "\udcff" is written as the byte 0xff, "5,6" makes a row ragged
ODD_CELLS = st.sampled_from([
    "", " ", "1e309", "-1e309", "nan", "-0.0", "1_0", "infinity",
    " 2.5", "3.5\t", "\x0c4", "\xa05", "5,6", '"5"', '"6,7"', '"8\n9"', 'a"b', "1\x00",
    "\udcff", "0" * 199_999 + "1",
])


@st.composite
def csv_files(draw):
    """Bytes of a CSV file: numeric rows, maybe a header, a few odd cells and
    line endings."""
    width = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(NUMBER_CELLS, min_size=width, max_size=width),
                         min_size=1, max_size=8))
    if draw(st.booleans()):
        rows.insert(0, draw(st.lists(st.sampled_from(["v", "w", " w ", "x"]),
                                     min_size=width, max_size=width)))
    for _ in range(draw(st.integers(0, 3))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        row[draw(st.integers(0, width - 1))] = draw(ODD_CELLS)
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    ends = [draw(st.sampled_from([ending] * 4 + ["\n", "\r\n", "\r"])) for _ in rows]
    if draw(st.booleans()):
        ends[-1] = ""
    text = "".join(",".join(row) + end for row, end in zip(rows, ends))
    return text.encode("utf-8", "surrogateescape")


def _read_outcome(path, column):
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        try:
            result = read_csv_column(path, column).tobytes()
        except (CsvError, UnicodeDecodeError) as exc:
            result = (type(exc), str(exc))
    return result, stderr.getvalue()


class TestIngestPaths:
    @settings(max_examples=300, deadline=None)
    @given(csv_files(), st.sampled_from(["0", "1", "2", "v", "w", ""]))
    @example(b'"1"\n2\n', "0")
    @example(b'"a,b",5,6\n1,2,3\n', "2")
    @example(b"1\r\n\r2\n", "0")
    @example(b"v\r1\n2\n", "0")
    @example(b"v\n" + b"0" * 199_999 + b"1\n", "v")
    @example(b"\n1\n", "")
    @example(b"\xef\xbb\xbfv\n1\n", "v")
    def test_plain_path_agrees_with_the_csv_module(self, content, column):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "x.csv")
            with open(path, "wb") as fh:
                fh.write(content)
            shipped = _read_outcome(path, column)
            with mock.patch.object(esjs.cli, "_read_plain", return_value=None):
                csv_module_only = _read_outcome(path, column)
        assert shipped == csv_module_only


def _simulate_argv(extra=()):
    return [
        "simulate",
        "--given", "normal:0,1",
        "--hypotheses", "normal,uniform",
        "--n", "2000",
        "--bootstrap", "12",
        "--seed", "1",
        *extra,
    ]


class TestRunSimulate:
    def test_report_shape_and_ranking(self, capsys):
        assert run(_simulate_argv()) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["spec"]["subcommand"] == "simulate"
        assert report["best"] == "normal"
        assert report["factor"]["ratio"] > 1.0
        families = [row["family"] for row in report["rows"]]
        assert families == ["normal", "uniform"]
        for row in report["rows"]:
            assert row["ci"]["lb"] <= row["ci"]["ub"]
            assert row["distance"] == pytest.approx(row["esjs"] ** 0.5)

    def test_byte_identical_reports(self, capsys):
        run(_simulate_argv())
        first = capsys.readouterr().out
        run(_simulate_argv())
        second = capsys.readouterr().out
        assert first == second

    def test_worker_count_does_not_change_output(self, capsys):
        run(_simulate_argv(("--workers", "1")))
        one = capsys.readouterr().out
        run(_simulate_argv(("--workers", "8")))
        eight = capsys.readouterr().out
        assert one == eight

    def test_iid_draws_what_blocks_of_one_draw(self, capsys):
        run(_simulate_argv())
        iid = json.loads(capsys.readouterr().out)
        run(_simulate_argv(("--block-length", "1")))
        unit_blocks = json.loads(capsys.readouterr().out)
        assert iid["spec"]["bootstrap"]["resampling"] == "iid"
        assert unit_blocks["spec"]["bootstrap"]["resampling"] == "moving_block"
        assert [row["ci"] for row in iid["rows"]] == [row["ci"] for row in unit_blocks["rows"]]

    def test_a_family_that_does_not_converge_is_skipped(self, capsys):
        # on light-tailed data the qgaussian MLE lies at infinite tail
        argv = [
            "simulate", "--given", "normal:0.3,1.7",
            "--hypotheses",
            "normal,uniform,lognormal,gamma,weibull,beta,qgaussian,exponential,pareto",
            "--n", "2000", "--bootstrap", "5", "--seed", "7",
        ]
        assert run(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert [row["family"] for row in report["rows"]] == ["normal", "uniform"]
        reasons = {item["family"]: item["reason"] for item in report["skipped"]}
        assert reasons["qgaussian"].startswith("qgaussian fit: score norm")
        # with no family left the failure still ends the run
        argv[4] = "qgaussian"
        assert run(argv) == 3
        assert "numerical failure: qgaussian fit: score norm" in capsys.readouterr().err

    def test_json_round_trips_exactly(self, capsys):
        run(_simulate_argv())
        text = capsys.readouterr().out
        report = json.loads(text)
        assert json.loads(json.dumps(report)) == report
        # numeric fields reparse to the identical binary values
        for row in report["rows"]:
            assert float(repr(row["esjs"])) == row["esjs"]

    def test_timing_opt_in(self, capsys):
        run(_simulate_argv())
        assert "timing" not in json.loads(capsys.readouterr().out)
        run(_simulate_argv(("--timing",)))
        assert "timing" in json.loads(capsys.readouterr().out)

    def test_missing_seed_is_usage_error(self, capsys):
        argv = ["simulate", "--given", "normal:0,1", "--hypotheses", "normal", "--n", "100"]
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 1

    def test_bad_model_spec_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(_simulate_argv(("--given", "normal-0-1")))
        assert exc.value.code == 1

    def test_bad_flag_values_are_usage_errors(self):
        for extra in (("--n", "1"), ("--bootstrap", "0"), ("--level", "1.5"),
                      ("--block-length", "0"), ("--seed", "-3")):
            with pytest.raises(SystemExit) as exc:
                run(_simulate_argv(extra))
            assert exc.value.code == 1

    def test_a_family_named_twice_is_a_usage_error(self, capsys):
        # compared after alias parsing, in every flag that takes families
        cases = [
            (["simulate", "--given", "gamma:2,2", "--hypotheses", "gamma,weibull,gamma",
              "--n", "500", "--bootstrap", "3", "--seed", "1"], "gamma"),
            (["compare", "--input", "unread.csv", "--families", "gamma,Gamma",
              "--seed", "1"], "gamma"),
            (_simulate_argv(("--hypotheses", "lognormal,normal,log-normal")), "lognormal"),
            (_simulate_argv(("--exclude-from-factor", "uniform,uniform")), "uniform"),
        ]
        for argv, family in cases:
            with pytest.raises(SystemExit) as exc:
                run(argv)
            assert exc.value.code == 1
            assert f"family {family} is named twice" in capsys.readouterr().err

    def test_table_format_agrees_with_json(self, capsys):
        run(_simulate_argv())
        report = json.loads(capsys.readouterr().out)
        run(_simulate_argv(("--format", "table")))
        table = capsys.readouterr().out
        # exact reprs of the same values appear in the table rendering
        assert repr(report["rows"][0]["esjs"]) in table
        assert f"best: {report['best']}" in table

    def test_csv_format_agrees_with_json(self, capsys):
        run(_simulate_argv())
        report = json.loads(capsys.readouterr().out)
        run(_simulate_argv(("--format", "csv")))
        lines = capsys.readouterr().out.strip().splitlines()
        header = lines[0].split(",")
        first = dict(zip(header, lines[1].split(",")))
        assert first["family"] == report["rows"][0]["family"]
        assert float(first["esjs"]) == report["rows"][0]["esjs"]


class TestRunDivergence:
    def test_same_file_twice_is_zero(self, tmp_path, capsys):
        path = write(tmp_path, "x.csv", "1\n2\n3\n4\n")
        code = run(["divergence", "--input-p", path, "--input-q", path, "--bins", "100"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["esjs"] == 0.0
        assert report["distance"] == 0.0

    def test_different_files_positive(self, tmp_path, capsys):
        p = write(tmp_path, "p.csv", "1\n2\n3\n")
        q = write(tmp_path, "q.csv", "11\n12\n13\n")
        run(["divergence", "--input-p", p, "--input-q", q, "--bins", "500"])
        report = json.loads(capsys.readouterr().out)
        assert report["esjs"] > 0.1

    def test_raw_matches_exact_divergence(self, tmp_path, capsys):
        p = write(tmp_path, "p.csv", "0\n2\n")
        q = write(tmp_path, "q.csv", "1\n3\n")
        run(["divergence", "--input-p", p, "--input-q", q, "--raw"])
        report = json.loads(capsys.readouterr().out)
        assert report["esjs"] == pytest.approx(0.21576155433883565, abs=1e-12)

    def test_all_tied_samples_are_zero(self, tmp_path, capsys):
        p = write(tmp_path, "p.csv", "2.5\n2.5\n")
        q = write(tmp_path, "q.csv", "2.5\n2.5\n2.5\n")
        assert run(["divergence", "--input-p", p, "--input-q", q]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["esjs"] == 0.0

    @settings(max_examples=30)
    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40),
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40),
        st.integers(1, 10**6),
    )
    def test_binned_matches_the_library(self, p_values, q_values, bins):
        p, q = SortedSample.from_data(p_values), SortedSample.from_data(q_values)
        lo, hi = min(p.min, q.min), max(p.max, q.max)
        if lo < hi:
            want = esjs_score(
                km_binned_survival(p, bins, (lo, hi)), km_binned_survival(q, bins, (lo, hi))
            )
        else:
            want = 0.0
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, values in (("p.csv", p_values), ("q.csv", q_values)):
                paths.append(os.path.join(tmp, name))
                with open(paths[-1], "w", encoding="utf-8") as fh:
                    fh.write("\n".join(map(repr, values)) + "\n")
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run(["divergence", "--input-p", paths[0], "--input-q", paths[1],
                            "--bins", str(bins)])
        assert code == 0
        report = json.loads(out.getvalue())
        assert report["esjs"] == want
        assert report["distance"] == np.sqrt(want)

    def test_csv_format_agrees_with_json(self, tmp_path, capsys):
        p = write(tmp_path, "p.csv", "1\n2\n3\n")
        q = write(tmp_path, "q.csv", "1.5\n2\n4\n")
        argv = ["divergence", "--input-p", p, "--input-q", q, "--bins", "500"]
        run(argv)
        report = json.loads(capsys.readouterr().out)
        assert report["esjs"] > 0.0
        run([*argv, "--format", "csv"])
        lines = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert lines == [["esjs", "distance"], [repr(report["esjs"]), repr(report["distance"])]]


class TestRunFitAndCompare:
    def test_fit_row(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        path = write(tmp_path, "n.csv", "\n".join(str(v) for v in rng.normal(size=400)))
        code = run([
            "fit", "--input", path, "--family", "normal", "--bins", "2000",
            "--bootstrap", "10", "--seed", "5",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        (row,) = report["rows"]
        assert row["family"] == "normal"
        assert abs(row["params"][0]) < 0.2
        assert row["esjs"] >= 0.0

    def test_fit_support_violation_exit_2(self, tmp_path, capsys):
        path = write(tmp_path, "m.csv", "0.5\n1.5\n2.5\n")
        code = run([
            "fit", "--input", path, "--family", "beta", "--bootstrap", "5", "--seed", "1",
        ])
        assert code == 2
        assert "beta" in capsys.readouterr().err

    def test_an_empty_file_is_a_data_error(self, tmp_path, capsys):
        path = write(tmp_path, "empty.csv", "")
        assert run(["compare", "--input", path, "--families", "normal", "--seed", "1"]) == 2
        assert capsys.readouterr().err == f"esjs: data error: {path}: empty file\n"

    @pytest.mark.parametrize("argv, message", [
        (["compare", "--families", "normal", "--bootstrap", "abc"],
         "esjs compare: error: argument --bootstrap: expected an integer, got 'abc'"),
        (["compare", "--families", "normal", "--level", "abc"],
         "esjs compare: error: argument --level: expected a number, got 'abc'"),
        (["compare", "--families", ","],
         "esjs compare: error: argument --families: expected a comma-separated list of families"),
        (["simulate", "--given", "normal:a,1", "--hypotheses", "normal", "--n", "100"],
         "esjs simulate: error: argument --given: bad model spec 'normal:a,1': "),
        (["fit", "--family", "nope"],
         "esjs fit: error: argument --family: unknown family 'nope'; expected one of: normal, "),
    ], ids=["bootstrap", "level", "families", "given", "family"])
    def test_a_bad_flag_value_is_a_usage_error_that_names_it(self, argv, message, capsys):
        # parsing stops before the input, which is never read
        input_flags = [] if argv[0] == "simulate" else ["--input", "unread.csv"]
        with pytest.raises(SystemExit) as exc:
            run([*argv, *input_flags, "--seed", "1"])
        assert exc.value.code == 1
        assert capsys.readouterr().err.splitlines()[-1].startswith(message)

    @pytest.mark.parametrize("argv", [
        ["fit", "--family", "pareto"], ["compare", "--families", "pareto,exponential"],
    ], ids=["fit", "compare"])
    def test_a_fitters_data_error_ends_the_run(self, argv, tmp_path, capsys):
        # exponential fits this column, but only support problems and numerical
        # failures skip a family: pareto's data error ends the comparison
        path = write(tmp_path, "ones.csv", "1\n1\n1\n")
        assert run([*argv, "--input", path, "--bootstrap", "5", "--seed", "1"]) == 2
        assert capsys.readouterr() == (
            "", "esjs: data error: pareto fit requires observations above the lower bound 1\n")

    def test_a_fit_at_a_set_level_and_the_basic_method(self, tmp_path, capsys):
        values = np.random.default_rng(3).lognormal(size=2000).tolist()
        path = write(tmp_path, "x.csv", "\n".join(map(repr, values)))
        rows = {}
        for method in ("basic", "percentile"):
            assert run(["fit", "--input", path, "--family", "gamma", "--bootstrap", "20",
                        "--seed", "4", "--level", "0.9", "--method", method]) == 0
            report = json.loads(capsys.readouterr().out)
            echo = report["spec"]["bootstrap"]
            assert (echo["level"], echo["ci_method"]) == (0.9, method)
            (rows[method],) = report["rows"]
        basic, percentile = rows["basic"]["ci"], rows["percentile"]["ci"]
        assert basic["level"] == 0.9
        # the basic interval reflects the percentile one about the point score
        point = rows["basic"]["esjs"]
        assert (basic["lb"], basic["ub"]) == (2 * point - percentile["ub"],
                                              2 * point - percentile["lb"])

    def test_compare_ranks_families(self, tmp_path, capsys):
        data = sample_from(ParametricModel(Family.GAMMA, (2.0, 2.0)), 3000, 6)
        path = write(tmp_path, "g.csv", "\n".join(str(v) for v in data.values))
        code = run([
            "compare", "--input", path, "--families", "gamma,normal,uniform",
            "--bins", "5000", "--bootstrap", "8", "--seed", "2",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["best"] == "gamma"
        assert len(report["rows"]) == 3

    def test_compare_exclude_from_factor(self, tmp_path, capsys):
        data = sample_from(ParametricModel(Family.GAMMA, (2.0, 2.0)), 3000, 6)
        path = write(tmp_path, "g.csv", "\n".join(str(v) for v in data.values))
        run([
            "compare", "--input", path, "--families", "gamma,weibull,normal",
            "--exclude-from-factor", "weibull",
            "--bins", "5000", "--bootstrap", "8", "--seed", "2",
        ])
        report = json.loads(capsys.readouterr().out)
        assert report["factor"]["challenger"] == "normal"

    def test_a_champion_scoring_zero_has_no_challenger(self, tmp_path, capsys):
        # in a single bin every survival is the same step, so every family scores 0
        values = np.random.default_rng(1).lognormal(size=200).tolist()
        path = write(tmp_path, "x.csv", "\n".join(map(repr, values)))
        for argv in (["compare", "--input", path, "--families", "lognormal,gamma"],
                     ["simulate", "--given", "gamma:2,2", "--hypotheses", "gamma,normal",
                      "--n", "500"]):
            assert run([*argv, "--bins", "1", "--bootstrap", "5", "--seed", "1"]) == 0
            report = json.loads(capsys.readouterr().out)
            assert [row["esjs"] for row in report["rows"]] == [0.0, 0.0]
            assert report["factor"] == {
                "ratio": 1.0, "numerator_esjs": 0.0, "denominator_esjs": 0.0,
                "challenger": None, "champion": report["best"], "note": "champion score is 0",
            }

    def test_table_skipped_and_timing_lines_agree_with_json(self, tmp_path, capsys, monkeypatch):
        # beta is skipped on data outside (0, 1); a fixed clock times both runs alike
        path = write(tmp_path, "x.csv", "1.5\n-0.2\n2.5\n0.7\n3.1\n-1.4\n")
        argv = ["compare", "--input", path, "--families", "normal,beta",
                "--bootstrap", "5", "--seed", "1", "--timing"]
        outs = {}
        for fmt in ("json", "table"):
            clock = types.SimpleNamespace(perf_counter=iter([10.0, 12.5]).__next__)
            monkeypatch.setattr(esjs.cli, "time", clock)
            assert run([*argv, "--format", fmt]) == 0
            outs[fmt] = capsys.readouterr().out
        report = json.loads(outs["json"])
        lines = outs["table"].splitlines()
        (row,) = report["rows"]
        assert lines[1].split() == [
            row["family"], *map(repr, row["params"]), repr(row["esjs"]), repr(row["distance"]),
            *(repr(row["ci"][key]) for key in ("lb", "ub", "level")),
        ]
        (item,) = report["skipped"]
        assert item["family"] == "beta"
        assert report["timing"] == 2.5
        assert lines[-2:] == [
            f"skipped: {item['family']} ({item['reason']})", f"timing: {report['timing']!r} s"
        ]

    def test_numerical_failure_exit_3(self, tmp_path, capsys, monkeypatch):
        path = write(tmp_path, "n.csv", "1\n2\n3\n4\n")

        def boom(*args, **kwargs):
            raise ConvergenceError("no convergence")

        monkeypatch.setattr(esjs.gof, "fit_mle", boom)
        code = run([
            "fit", "--input", path, "--family", "normal", "--bootstrap", "5",
            "--seed", "1",
        ])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("message", ["Unable to allocate 22.4 GiB for an array", ""])
    def test_out_of_memory_exit_3(self, tmp_path, capsys, monkeypatch, message):
        # a stage that cannot allocate, as numpy reports it; nothing is allocated for real
        def no_memory(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(esjs.gof, "sample_from", no_memory)
        path = write(tmp_path, "n.csv", "1\n2\n3\n4\n")
        for argv in (["simulate", "--given", "normal:0,1", "--hypotheses", "normal", "--n", "9"],
                     ["fit", "--input", path, "--family", "normal", "--model-sample-size", "9"]):
            assert run([*argv, "--bootstrap", "2", "--seed", "1"]) == 3
            out, err = capsys.readouterr()
            assert out == ""
            assert err == "esjs: out of memory" + (f": {message}" if message else "") + "\n"


class TestNumericalEdgeCases:
    def test_gamma_on_values_near_the_underflow_limit(self, tmp_path):
        # the scale score once divided by tau^2, which underflows to 0 here
        path = write(tmp_path, "tiny.csv", "1e-300\n2e-300\n5e-300\n")
        proc = run_process("fit", "--input", path, "--family", "gamma",
                           "--bootstrap", "5", "--seed", "1")
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        shape, scale = json.loads(proc.stdout)["rows"][0]["params"]
        unit = fit_mle(Family.GAMMA, SortedSample.from_data([1.0, 2.0, 5.0]))
        assert shape == pytest.approx(unit.params[0], rel=1e-12)
        assert scale == pytest.approx(unit.params[1] * 1e-300, rel=1e-12)

    def test_overflowing_model_sample_exit_3(self):
        proc = run_process("simulate", "--given", "pareto:0.01", "--hypotheses", "pareto",
                           "--n", "1000", "--bootstrap", "5", "--seed", "1")
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith("esjs: numerical failure: pareto draws overflow")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("other", ["qgaussian", "uniform"])
    def test_a_family_past_float64_is_skipped(self, tmp_path, capsys, other):
        # qgaussian's fitted width overflows on the way back to the data's units,
        # and uniform's model sample spans more than the largest float
        path = write(tmp_path, "a.csv", "v\n-1.7e308\n1.7e308\n")
        argv = ["compare", "--raw", "--input", path, "--families", f"normal,{other}",
                "--seed", "1", "--bootstrap", "5"]
        assert run(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert [row["family"] for row in report["rows"]] == ["normal"]
        [skipped] = report["skipped"]
        assert skipped["family"] == other
        # the reason names the family and float64, not numpy's own wording
        assert other in skipped["reason"] and "float64" in skipped["reason"]

    def test_a_spread_float64_cannot_resolve_is_skipped(self, tmp_path, capsys):
        # 101 distinct values whose gamma log-spread rounds to 0: gamma is
        # skipped as a numerical failure, and the normal row stays
        values = 1.0 + 1e-9 * np.linspace(-1.0, 1.0, 101)
        path = write(tmp_path, "a.csv", "".join(f"{v:.17g}\n" for v in values))
        argv = ["compare", "--raw", "--input", path, "--families", "normal,gamma",
                "--bootstrap", "3", "--seed", "1"]
        assert run(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert [row["family"] for row in report["rows"]] == ["normal"]
        assert report["skipped"] == [
            {"family": "gamma", "reason": "gamma fit: float64 cannot resolve the spread of the data"}
        ]

    def test_with_no_family_left_an_overflow_is_a_numerical_failure(self, tmp_path, capsys):
        path = write(tmp_path, "a.csv", "v\n-1.7e308\n1.7e308\n")
        for argv in (["compare", "--families", "qgaussian,uniform"],
                     ["fit", "--family", "qgaussian"]):
            assert run([*argv, "--raw", "--input", path, "--seed", "1", "--bootstrap", "5"]) == 3
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith("esjs: numerical failure: qgaussian fit overflows float64")


class TestEntrypoint:
    def test_closed_stdout_ends_quietly(self, tmp_path):
        # as in `esjs ... | head` once head has exited
        path = write(tmp_path, "x.csv", "1\n2\n3\n")
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = run_process("divergence", "--input-p", path, "--input-q", path,
                               stdout=write_end)
        finally:
            os.close(write_end)
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr
        assert "Exception ignored" not in proc.stderr

    @pytest.mark.parametrize("enabled", [True, False])
    def test_run_leaves_the_collector_as_it_found_it(self, enabled, capsys):
        # the process turns the collector off; a library caller keeps its own setting
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            frozen = gc.get_freeze_count()
            assert run(_simulate_argv()) == 0
            assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
        finally:
            (gc.enable if was else gc.disable)()

    def test_the_process_prints_what_run_prints(self, tmp_path, capsys):
        data = sample_from(ParametricModel(Family.Q_GAUSSIAN, (4.0, 1.0)), 400, 11)
        path = write(tmp_path, "q.csv", "\n".join(map(repr, data.values.tolist())) + "\n")
        argv = ["compare", "--input", path, "--families", "qgaussian,normal",
                "--bins", "5000", "--bootstrap", "8", "--seed", "2"]
        assert run(argv) == 0
        report = capsys.readouterr().out
        assert [row["family"] for row in json.loads(report)["rows"]] == ["qgaussian", "normal"]
        proc = run_process(*argv)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == report

    def test_a_run_leaves_garbage_that_does_not_grow_with_resamples(self, tmp_path):
        # why the process may run with the collector off: its garbage is bounded
        data = np.random.default_rng(5).lognormal(0.0, 1.0, 300)
        path = write(tmp_path, "x.csv", "\n".join(map(repr, data.tolist())) + "\n")
        proc = subprocess.run(
            [sys.executable, "-c", _GARBAGE_SCRIPT, path],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode == 0, proc.stderr
        few, many = json.loads(proc.stdout)
        assert many <= few


# Runs in a fresh interpreter with the collector off: the objects that
# gc.collect() finds unreachable after a run of few and of many resamples.
_GARBAGE_SCRIPT = """
import contextlib, gc, io, json, sys
from esjs.cli import run

def garbage(*extra):
    argv = ["compare", "--input", sys.argv[1], "--families", "lognormal,gamma,qgaussian",
            "--bins", "5000", "--seed", "3", *extra]
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(argv) == 0
    return gc.collect()

gc.disable()
garbage("--bootstrap", "5")  # warm-up: imports scipy, whose import leaves cycles of its own
print(json.dumps([garbage("--bootstrap", "5"), garbage("--bootstrap", "200", "--workers", "2")]))
"""


# Runs in a fresh interpreter: the pipeline on every family but qgaussian must
# leave scipy unloaded; a qgaussian fit then loads it and works.  Helper
# threads are plain threads, so concurrent.futures stays unloaded at any workers.
_STARTUP_SCRIPT = """
import contextlib, io, json, os, sys
import esjs.cli
from esjs import Family, ParametricModel, fit_mle, sample_from

def loaded():
    return sorted(m for m in sys.modules if m.startswith("scipy"))

os.cpu_count = lambda: 2  # a helper thread starts only where a second CPU is seen
out = {"import": loaded()}
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    codes.append(esjs.cli.run([
        "compare", "--input", sys.argv[1], "--bootstrap", "5", "--seed", "3", "--families",
        "normal,uniform,lognormal,gamma,weibull,beta,exponential,pareto", "--workers", "1",
    ]))
    out["pool_after_one_worker"] = "concurrent.futures" in sys.modules
    codes.append(esjs.cli.run([
        "simulate", "--given", "gamma:2,2", "--hypotheses", "gamma,weibull,lognormal,normal",
        "--n", "2000", "--bootstrap", "5", "--seed", "3", "--workers", "2",
    ]))
    out["pool_after_two_workers"] = "concurrent.futures" in sys.modules
out["codes"], out["pipeline"] = codes, loaded()
sample = sample_from(ParametricModel(Family.Q_GAUSSIAN, (4.0, 1.0)), 400, 11)
out["qgaussian"] = fit_mle(Family.Q_GAUSSIAN, sample).params
out["after"] = loaded()
print(json.dumps(out))
"""

# Runs in a fresh interpreter with the collector as argv[1] says: the
# collector's settings before and after `import esjs`, and the generation of
# every collection that gc.callbacks sees during the import.
_IMPORT_GC_SCRIPT = """
import gc, json, sys
{"on": gc.enable, "off": gc.disable, "frozen": gc.freeze}[sys.argv[1]]()
gc.set_threshold(500, 7, 9)

def state():
    return [gc.isenabled(), list(gc.get_threshold()), gc.get_freeze_count()]

before, collections = state(), []
gc.callbacks.append(lambda phase, info: phase == "start" and collections.append(info["generation"]))
import esjs
gc.callbacks.clear()
print(json.dumps([before, state(), collections]))
"""


# The only places in src/esjs that import scipy: (module, innermost enclosing function)
SCIPY_IMPORTERS = {("distributions", "_special"), ("distributions", "_fit_qgaussian")}


def _scipy_importers(path) -> set[tuple[str, str | None]]:
    found = set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            modules = []
        if any(m.split(".")[0] == "scipy" for m in modules):
            found.add((path.stem, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text()), None)
    return found


class TestStartUp:
    def test_scipy_loads_only_for_qgaussian_fits(self, tmp_path):
        # beta needs data in (0, 1); pareto (data >= 1) is skipped with its reason
        data = np.random.default_rng(5).beta(2.0, 3.0, 300)
        path = write(tmp_path, "x.csv", "\n".join(map(repr, data.tolist())) + "\n")
        proc = subprocess.run(
            [sys.executable, "-c", _STARTUP_SCRIPT, path],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["import"] == []
        assert out["codes"] == [0, 0]
        assert out["pipeline"] == []
        assert not out["pool_after_one_worker"]
        assert not out["pool_after_two_workers"]
        # the fit scipy's gamma functions and L-BFGS-B gave before they loaded lazily
        assert out["qgaussian"] == [3.5747095559318813, 0.9479306350708966]
        assert "scipy.special" in out["after"]

    @pytest.mark.parametrize("collector", ["on", "off", "frozen"])
    def test_import_collects_nothing_and_leaves_the_collector_as_it_was(self, collector):
        # an importer that froze objects keeps them frozen, and may see collections
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_GC_SCRIPT, collector],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode == 0, proc.stderr
        before, after, collections = json.loads(proc.stdout)
        assert after == before
        assert collections == [] or collector == "frozen"

    def test_scipy_is_imported_only_by_the_listed_functions(self):
        package = pathlib.Path(esjs.gof.__file__).parent
        found = set().union(*(_scipy_importers(path) for path in package.glob("*.py")))
        assert found == SCIPY_IMPORTERS


class TestRunScaling:
    def test_report_with_powerlaw(self, capsys):
        code = run([
            "scaling", "--given", "normal:0,1", "--sizes", "64,256,1024", "--seed", "9",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert [row["size"] for row in report["rows"]] == [64, 256, 1024]
        assert report["powerlaw"]["exponent"] < 0

    def test_csv_format_agrees_with_json(self, capsys):
        argv = ["scaling", "--given", "exponential:1.5", "--sizes", "16,64,256", "--seed", "3"]
        run(argv)
        report = json.loads(capsys.readouterr().out)
        run([*argv, "--format", "csv"])
        lines = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        # a one-parameter family leaves param2 empty
        want = [["size", "param1", "param2", "esjs"]]
        want += [[repr(row["size"]), repr(row["params"][0]), "", repr(row["esjs"])]
                 for row in report["rows"]]
        fit = report["powerlaw"]
        want.append(["powerlaw_amplitude", repr(fit["amplitude"]),
                     "powerlaw_exponent", repr(fit["exponent"])])
        assert lines == want

    def test_bad_sizes_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["scaling", "--given", "normal:0,1", "--sizes", "1,2", "--seed", "9"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("sizes", ["32", "32,32"])
    def test_fewer_than_two_different_sizes_is_a_usage_error(self, sizes, monkeypatch):
        # a power law needs two different sizes, so parsing stops the run: a
        # run that reached the (removed) experiment would raise TypeError
        monkeypatch.setattr(esjs.cli, "scaling_experiment", None)
        with pytest.raises(SystemExit) as exc:
            run(["scaling", "--given", "normal:0,1", "--sizes", sizes, "--seed", "1"])
        assert exc.value.code == 1

    def test_workers_is_a_usage_error(self):
        # scaling runs no bootstrap, so it has no replicate threads to set
        with pytest.raises(SystemExit) as exc:
            run(["scaling", "--given", "normal:0,1", "--sizes", "16,64", "--seed", "9",
                 "--workers", "3"])
        assert exc.value.code == 1


# ties come from repeated draws of the sampled values
FUZZ_VALUES = st.one_of(
    st.sampled_from(
        [0.0, 1.0, -1.0, 0.5, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300, 1.7e308, -1.7e308]
    ),
    st.floats(-1e3, 1e3),
)
FUZZ_COLUMNS = st.one_of(
    st.lists(FUZZ_VALUES, min_size=1, max_size=40),
    # inside every support but pareto's, so that most fits and bootstraps run
    st.lists(st.sampled_from([0.25, 0.5]) | st.floats(0.01, 0.99), min_size=1, max_size=40),
)


@st.composite
def invocations(draw):
    """A fit, compare or divergence command line and the CSV columns it reads."""
    subcommand = draw(st.sampled_from(["fit", "compare", "divergence"]))
    columns = {"p": draw(FUZZ_COLUMNS)}
    if subcommand == "divergence":
        columns["q"] = draw(FUZZ_COLUMNS)
        argv = ["divergence", "--input-p", "p", "--input-q", "q"]
    else:
        argv = [subcommand, "--input", "p", "--seed", str(draw(st.integers(0, 2**32)))]
        if subcommand == "fit":
            argv += ["--family", draw(st.sampled_from(Family)).value]
        else:
            families = draw(st.lists(st.sampled_from(Family), min_size=1, max_size=9, unique=True))
            argv += ["--families", ",".join(f.value for f in families)]
        argv += ["--bootstrap", str(draw(st.integers(1, 5)))]
        block_length = draw(st.none() | st.integers(1, 10))
        if block_length is not None:
            argv += ["--block-length", str(block_length)]
    bins = draw(st.none() | st.integers(1, 10**6))
    argv += ["--raw"] if bins is None else ["--bins", str(bins)]
    return argv, columns


class TestFuzz:
    @settings(max_examples=400)
    @given(invocations())
    def test_every_invocation_ends_in_an_exit_code(self, invocation):
        argv, columns = invocation
        with tempfile.TemporaryDirectory() as tmp:
            paths = {}
            for name, values in columns.items():
                paths[name] = os.path.join(tmp, f"{name}.csv")
                with open(paths[name], "w", encoding="utf-8") as fh:
                    fh.write("\n".join(map(repr, values)) + "\n")
            argv = [paths.get(arg, arg) for arg in argv]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = run(argv)
                except SystemExit as exc:  # argparse: usage error
                    code = exc.code
        assert code in (0, 1, 2, 3), (argv, stderr.getvalue())
        # json has no NaN: a report that holds one is not a result
        assert code != 0 or "NaN" not in stdout.getvalue(), argv
