"""Command-line interface: CSV ingestion, subcommands, machine-readable reports.

Subcommands: fit, compare, simulate, divergence, scaling.  Reports are
emitted on stdout as json (default), csv, or a human table; json is byte
reproducible for an identical invocation (use --timing to opt into a
wall-clock field).  Exit codes: 0 success, 1 usage error, 2 data error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv as csv_module
import io
import json
import math
import os
import sys
import time

import numpy as np

from .bootstrap import BootstrapConfig
from .distributions import ConvergenceError, Family, ParametricModel
from .gof import (
    ExperimentReport,
    FitReport,
    _esjs_between,
    compare_families,
    fit_report,
    powerlaw_fit,
    scaling_experiment,
    simulate_experiment,
)
from .survival import DEFAULT_BINS, SortedSample

__all__ = ["CsvError", "read_csv_column", "ingest_csv", "run", "entrypoint"]

_DEFAULT_SCALING_SIZES = ",".join(str(2**k) for k in range(5, 18))


class CsvError(ValueError):
    """CSV input cannot be turned into a numeric sample."""


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1 (argparse defaults to 2)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _select(first: list[str], column: str) -> tuple[int, int] | None:
    """The selected field's index and the first data row's, from the fields
    of the first row; None when the header has no column of that name."""
    if column.isdigit():
        idx = int(column)
        probe = first[idx].strip() if len(first) > idx else ""
        try:
            float(probe)
        except ValueError:
            return idx, 1  # header row
        return idx, 0
    header = [cell.strip() for cell in first]
    if column not in header:
        return None
    return header.index(column), 1


def read_csv_column(path: str, column: str = "0") -> np.ndarray:
    """Read one numeric column from a CSV file, in file order.

    ``column`` selects by 0-based index or by header name.  A header row is
    auto-detected when the selected field of the first row does not parse as
    a number.  Rows with a missing value in the selected column are dropped
    and reported on stderr with their line numbers; non-numeric, NaN,
    infinite or overflowing values are hard errors naming the line.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CsvError(f"cannot read {path}: {exc}") from exc
    try:  # _read_plain holds the only reference to the text, and drops it once split
        values = _read_plain(raw.decode("utf-8").removeprefix("\ufeff"), column)
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise CsvError(f"{path}: line {line}: byte 0x{raw[exc.start]:02x} at offset "
                       f"{exc.start} is not UTF-8 ({exc.reason})") from exc
    return _read_with_csv_module(raw, path, column) if values is None else values


def _read_plain(text: str, column: str) -> np.ndarray | None:
    """The column of a file with no quoting and no gaps, or None.

    Such a file splits into the same rows and fields as ``csv.reader`` reads
    from it, and ``float`` strips the whitespace around a field itself, so
    the values are bit for bit those of ``_read_with_csv_module``.  Anything
    else gives None, and the csv module then reads the file and reports the
    problem: quotes, NUL (which Python 3.10's csv module rejects), a lone
    carriage return, a line that may pass the csv module's field limit, a
    blank or missing field, a non-number, a non-finite value, an unknown
    column name, or a blank first line.
    """
    if not text or '"' in text or "\0" in text:
        return None
    if "\r" in text and text.count("\r") != text.count("\r\n"):
        return None
    # A line longer than the field limit holds a whole aligned window of
    # half that length, so a line break in every such window rules it out.
    window = max(csv_module.field_size_limit() // 2, 1)
    if any(text.find("\n", i, i + window) < 0
           for i in range(0, len(text) - window + 1, window)):
        return None
    lines = text.split("\n")
    del text
    if lines[-1] == "":
        lines.pop()
    if lines[0] in ("", "\r"):
        return None  # csv.reader reads no field at all from a blank line
    first = lines[0].split(",")
    selected = _select(first, column)
    if selected is None:
        return None
    idx, start = selected
    del lines[:start]
    if not lines:
        return None
    if len(first) > 1 or idx > 0:
        fields = (line.split(",")[idx] for line in lines)
    else:
        fields = lines  # no delimiter in the first line: each line is one field
    try:
        values = np.fromiter(map(float, fields), dtype=np.float64, count=len(lines))
    except (ValueError, IndexError):
        return None
    return values if np.isfinite(values).all() else None


def _read_with_csv_module(raw: bytes, path: str, column: str) -> np.ndarray:
    """Read the column through ``csv.reader``: quoted fields, gaps and errors."""
    with io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8-sig", newline="") as fh:
        reader = csv_module.reader(fh)
        try:
            rows = list(reader)
        except csv_module.Error as exc:
            raise CsvError(f"{path}: line {reader.line_num}: {exc}") from exc
    if not rows:
        raise CsvError(f"{path}: empty file")

    selected = _select(rows[0], column)
    if selected is None:
        header = [cell.strip() for cell in rows[0]]
        raise CsvError(f"{path}: no column named {column!r} in header {header}")
    idx, start = selected

    values: list[float] = []
    missing: list[int] = []
    for offset, row in enumerate(rows[start:], start=start + 1):
        field = row[idx].strip() if len(row) > idx else ""
        if not field:
            missing.append(offset)
            continue
        try:
            value = float(field)
        except ValueError as exc:
            raise CsvError(f"{path}: line {offset}: not a number: {field!r}") from exc
        if not math.isfinite(value):
            raise CsvError(f"{path}: line {offset}: value is not finite: {field!r}")
        values.append(value)
    if missing:
        shown = ", ".join(str(ln) for ln in missing[:10])
        more = "" if len(missing) <= 10 else f" (+{len(missing) - 10} more)"
        print(
            f"note: {path}: ignored {len(missing)} row(s) with missing values "
            f"on line(s) {shown}{more}",
            file=sys.stderr,
        )
    if not values:
        raise CsvError(f"{path}: no numeric rows")
    return np.asarray(values, dtype=np.float64)


def ingest_csv(path: str, column: str = "0") -> SortedSample:
    """Parse and sort one numeric CSV column into a sample."""
    return SortedSample.from_data(read_csv_column(path, column))


def _family_arg(text: str) -> Family:
    try:
        return Family.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _families_arg(text: str) -> list[Family]:
    names = [part for part in text.split(",") if part.strip()]
    if not names:
        raise argparse.ArgumentTypeError("expected a comma-separated list of families")
    families = [_family_arg(name) for name in names]
    if twice := [f.value for i, f in enumerate(families) if f in families[:i]]:
        raise argparse.ArgumentTypeError(f"family {twice[0]} is named twice")
    return families


def _model_arg(text: str) -> ParametricModel:
    head, sep, tail = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(
            f"model spec must look like family:param1[,param2], got {text!r}"
        )
    family = _family_arg(head)
    try:
        params = tuple(float(part) for part in tail.split(","))
        return ParametricModel(family, params)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad model spec {text!r}: {exc}") from exc


def _seed_arg(text: str) -> int:
    try:
        seed = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}") from exc
    if seed < 0:
        raise argparse.ArgumentTypeError("seed must be non-negative")
    return seed


def _int_at_least(minimum: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from exc
        if value < minimum:
            raise argparse.ArgumentTypeError(f"value must be >= {minimum}")
        return value

    return parse


def _level_arg(text: str) -> float:
    try:
        level = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from exc
    if not 0.0 < level < 1.0:
        raise argparse.ArgumentTypeError("level must lie strictly between 0 and 1")
    return level


def _sizes_arg(text: str) -> list[int]:
    try:
        sizes = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad sizes list {text!r}") from exc
    if not sizes or any(s < 2 for s in sizes):
        raise argparse.ArgumentTypeError("sizes must be integers >= 2")
    return sizes


def _add_input_flags(sub, *inputs):
    for flag in inputs:
        sub.add_argument(flag, required=True)
    sub.add_argument("--column", default="0")


def _add_bins_flags(sub):
    sub.add_argument("--bins", type=_int_at_least(1), default=DEFAULT_BINS)
    sub.add_argument("--raw", action="store_true", help="skip survival binning")


def _add_bootstrap_flags(sub):
    sub.add_argument("--model-sample-size", type=_int_at_least(1), default=None)
    sub.add_argument("--bootstrap", dest="resamples", type=_int_at_least(1), default=1000,
                     help="bootstrap resample count")
    sub.add_argument("--level", type=_level_arg, default=0.95)
    sub.add_argument("--method", choices=("percentile", "basic"), default="percentile",
                     help="confidence-interval construction")
    sub.add_argument("--block-length", type=_int_at_least(1), default=None,
                     help="moving-block bootstrap block length (default: iid, the same draws as 1)")
    sub.add_argument("--seed", type=_seed_arg, required=True)


def _add_output_flags(sub, workers=True):
    sub.add_argument("--format", choices=("json", "csv", "table"), default="json")
    sub.add_argument("--timing", action="store_true",
                     help="include wall-clock timing in the report")
    if workers:
        sub.add_argument("--workers", type=_int_at_least(1), default=1,
                         help="bootstrap replicate threads (output is identical for any value)")


def build_parser() -> _Parser:
    parser = _Parser(prog="esjs", description=__doc__)
    subs = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    fit = subs.add_parser("fit", help="fit one family to CSV data and score it")
    _add_input_flags(fit, "--input")
    fit.add_argument("--family", type=_family_arg, required=True)
    _add_bins_flags(fit)
    _add_bootstrap_flags(fit)
    _add_output_flags(fit)
    fit.set_defaults(handler=_run_fit)

    comp = subs.add_parser("compare", help="rank several families on CSV data")
    _add_input_flags(comp, "--input")
    comp.add_argument("--families", type=_families_arg, required=True)
    comp.add_argument("--exclude-from-factor", type=_families_arg, default=[])
    _add_bins_flags(comp)
    _add_bootstrap_flags(comp)
    _add_output_flags(comp)
    comp.set_defaults(handler=_run_compare)

    sim = subs.add_parser("simulate", help="generate data from a model and rank hypotheses")
    sim.add_argument("--given", type=_model_arg, required=True)
    sim.add_argument("--hypotheses", type=_families_arg, required=True)
    sim.add_argument("--n", type=_int_at_least(2), required=True)
    sim.add_argument("--bins", type=_int_at_least(1), default=None)
    sim.add_argument("--exclude-from-factor", type=_families_arg, default=[])
    _add_bootstrap_flags(sim)
    _add_output_flags(sim)
    sim.set_defaults(handler=_run_simulate)

    # divergence takes no seed: it is deterministic
    div = subs.add_parser("divergence", help="divergence between two CSV samples")
    _add_input_flags(div, "--input-p", "--input-q")
    _add_bins_flags(div)
    _add_output_flags(div, workers=False)
    div.set_defaults(handler=_run_divergence)

    scal = subs.add_parser("scaling", help="self-fit divergence across sample sizes")
    scal.add_argument("--given", type=_model_arg, required=True)
    scal.add_argument("--sizes", type=_sizes_arg, default=_sizes_arg(_DEFAULT_SCALING_SIZES))
    scal.add_argument("--seed", type=_seed_arg, required=True)
    _add_output_flags(scal, workers=False)
    scal.set_defaults(handler=_run_scaling)

    return parser


def _bootstrap_config(args) -> BootstrapConfig:
    return BootstrapConfig(
        resamples=args.resamples,
        level=args.level,
        block_length=args.block_length,
        seed=args.seed,
        ci_method=args.method,
    )


def _echo(value):
    """A flag's or a derived field's value as the spec records it."""
    if isinstance(value, Family):
        return value.value
    if isinstance(value, ParametricModel):
        return {"family": value.family.value, "params": list(value.params)}
    if isinstance(value, BootstrapConfig):
        return {"resamples": value.resamples, "level": value.level,
                "resampling": value.method, "block_length": value.block_length,
                "ci_method": value.ci_method, "seed": value.seed}
    if isinstance(value, list):
        return [_echo(item) for item in value]
    return value


def _spec(args, *flags, **derived) -> dict:
    """The report's record of its invocation: the subcommand, the named
    flags, the derived fields, the seed (if the subcommand takes one) and
    the format, in that order."""
    spec = {"subcommand": args.subcommand}
    spec.update((name, _echo(getattr(args, name))) for name in flags)
    spec.update((name, _echo(value)) for name, value in derived.items())
    if "seed" in args:
        spec["seed"] = args.seed
    spec["format"] = args.format
    return spec


def _row_dict(row: FitReport) -> dict:
    return {
        "family": row.family.value,
        "params": list(row.params),
        "esjs": row.esjs,
        "distance": math.sqrt(row.esjs),
        "ci": {"lb": row.ci.lb, "ub": row.ci.ub, "level": row.ci.level},
    }


def _experiment_dict(report: ExperimentReport) -> dict:
    return {
        "rows": [_row_dict(row) for row in report.rows],
        "skipped": [
            {"family": fam.value, "reason": reason} for fam, reason in report.skipped
        ],
        "best": report.best.value,
        "factor": {
            "ratio": report.factor.ratio,
            "numerator_esjs": report.factor.numerator_esjs,
            "denominator_esjs": report.factor.denominator_esjs,
            "challenger": report.challenger.value if report.challenger else None,
            "champion": report.best.value,
            "note": report.factor_note,
        },
    }


def _run_fit(args) -> dict:
    data = ingest_csv(args.input, args.column)
    config = _bootstrap_config(args)
    row = fit_report(data, args.family, config, model_sample_size=args.model_sample_size,
                     bins=args.bins, workers=args.workers)
    spec = _spec(args, "input", "column", "family", n=data.n,
                 model_sample_size=row.model_sample_size, bins=args.bins,
                 bootstrap=config)
    return {"spec": spec, "rows": [_row_dict(row)]}


def _run_compare(args) -> dict:
    data = ingest_csv(args.input, args.column)
    config = _bootstrap_config(args)
    report = compare_families(data, args.families, config,
                              model_sample_size=args.model_sample_size, bins=args.bins,
                              exclude_from_factor=args.exclude_from_factor, workers=args.workers)
    spec = _spec(args, "input", "column", "families", "exclude_from_factor", n=data.n,
                 model_sample_size=args.model_sample_size or data.n, bins=args.bins,
                 bootstrap=config)
    return {"spec": spec, **_experiment_dict(report)}


def _run_simulate(args) -> dict:
    config = _bootstrap_config(args)
    report = simulate_experiment(args.given, args.hypotheses, args.n, config,
                                 model_sample_size=args.model_sample_size, bins=args.bins,
                                 exclude_from_factor=args.exclude_from_factor,
                                 workers=args.workers)
    spec = _spec(args, "given", "hypotheses", "exclude_from_factor", n=args.n,
                 model_sample_size=args.model_sample_size or args.n, bins=args.bins,
                 bootstrap=config)
    return {"spec": spec, **_experiment_dict(report)}


def _run_divergence(args) -> dict:
    value = _esjs_between(
        ingest_csv(args.input_p, args.column), ingest_csv(args.input_q, args.column), args.bins
    )
    spec = _spec(args, "input_p", "input_q", "column", bins=args.bins)
    return {"spec": spec, "esjs": value, "distance": math.sqrt(value)}


def _run_scaling(args) -> dict:
    rows = scaling_experiment(args.given, args.sizes, args.seed)
    amplitude, exponent = powerlaw_fit([row.size for row in rows], [row.esjs for row in rows])
    return {
        "spec": _spec(args, "given", "sizes"),
        "rows": [{"size": row.size, "params": list(row.params), "esjs": row.esjs}
                 for row in rows],
        "powerlaw": {"amplitude": amplitude, "exponent": exponent},
    }


def _csv_lines(report: dict) -> list[list]:
    if "powerlaw" in report:
        lines = [["size", "param1", "param2", "esjs"]]
        for row in report["rows"]:
            params = row["params"] + [""] * (2 - len(row["params"]))
            lines.append([row["size"], params[0], params[1], row["esjs"]])
        lines.append(["powerlaw_amplitude", report["powerlaw"]["amplitude"],
                      "powerlaw_exponent", report["powerlaw"]["exponent"]])
        return lines
    if "rows" in report:
        lines = [["family", "param1", "param2", "esjs", "distance", "lb", "ub", "level"]]
        for row in report["rows"]:
            params = row["params"] + [""] * (2 - len(row["params"]))
            lines.append(
                [row["family"], params[0], params[1], row["esjs"], row["distance"],
                 row["ci"]["lb"], row["ci"]["ub"], row["ci"]["level"]]
            )
        return lines
    return [["esjs", "distance"], [report["esjs"], report["distance"]]]


def _table_lines(report: dict) -> list[str]:
    lines = []
    rows = _csv_lines(report)
    cells = [[str(cell) for cell in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(cells[0]))]
    for row in cells:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    if "best" in report:
        lines.append(f"best: {report['best']}")
        factor = report["factor"]
        note = f" ({factor['note']})" if factor.get("note") else ""
        lines.append(f"factor: {factor['ratio']!r}{note}")
    for item in report.get("skipped", []):
        lines.append(f"skipped: {item['family']} ({item['reason']})")
    if "timing" in report:
        lines.append(f"timing: {report['timing']!r} s")
    return lines


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2))
    elif fmt == "csv":
        writer = csv_module.writer(sys.stdout)
        writer.writerows(_csv_lines(report))
    else:
        print("\n".join(_table_lines(report)))


def run(argv=None) -> int:
    """Parse arguments, execute the subcommand, emit the report on stdout."""
    args = build_parser().parse_args(argv)
    if getattr(args, "raw", False):
        args.bins = None  # --raw wins over --bins, in either order
    started = time.perf_counter()
    try:
        report = args.handler(args)
    except (ConvergenceError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"esjs: numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # CsvError and SupportError among them
        print(f"esjs: data error: {exc}", file=sys.stderr)
        return 2
    if args.timing:
        report["timing"] = time.perf_counter() - started
    _emit(report, args.format)
    return 0


def entrypoint() -> None:
    code = 0  # run writes to stdout only once it has succeeded
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone; send the interpreter's last flush to /dev/null
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    raise SystemExit(code)


if __name__ == "__main__":
    entrypoint()
