"""Output check for one CLI report.

Two independent checks, both run on every timed invocation:

* at ``DEFAULT_SEED`` every field of the report must match the reference
  recorded in ``reference/<workload>.json`` to ``REFERENCE_RTOL`` relative;
* at any seed, each row's point score is recomputed by the order-statistics
  (spacings) form of the divergence, evaluated here in extended precision, on
  a model sample regenerated from the report's parameters and
  ``derive_seed(seed, "model", family)``.  Binned scores equal the raw score
  of both samples snapped up to the right edge of their bin, so the oracle
  never builds the grid survival.  Structural invariants of the report
  (distance, interval order, ranking, factor) are checked as well.

The library's own ``esjs_spacings`` works in float64, where the entropies it
subtracts cancel: on a near-perfect fit (compare-large's qgaussian row, esjs
about 3e-8) it is off by up to 2e-9 relative, more than the 1e-9 kernel error
the check must catch.  In long double the same formula is good to about 1e-15.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
from esjs import Family, ParametricModel, derive_seed, sample_from

from workloads import DEFAULT_SEED, Workload

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

#: Report fields must match the seed-commit reference this closely.
REFERENCE_RTOL = 1e-12
#: A point score may differ from the oracle by ORACLE_RTOL relative plus
#: float64 eps times the pooled range: the kernel sums width * integrand over
#: that range, and the absolute rounding this leaves dominates on near-perfect
#: fits (about 1e-10 relative on compare-large's qgaussian row).  A kernel off
#: by 1e-9 relative fails on every workload.
ORACLE_RTOL = 1e-11
_EPS = float(np.finfo(np.float64).eps)

if np.finfo(np.longdouble).eps > 1e-18:
    raise RuntimeError("the output check needs an extended-precision numpy.longdouble")


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def _compare_fields(got, want, path: str, problems: list[str]) -> None:
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            problems.append(f"{path}: keys differ from the reference")
            return
        for key in want:
            _compare_fields(got[key], want[key], f"{path}.{key}", problems)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            problems.append(f"{path}: length differs from the reference")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _compare_fields(g, w, f"{path}[{i}]", problems)
    elif isinstance(want, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        if not _close(float(got), want, REFERENCE_RTOL):
            problems.append(f"{path}: {got!r} differs from reference {want!r}")
    elif got != want or type(got) is not type(want):
        problems.append(f"{path}: {got!r} differs from reference {want!r}")


def load_reference(workload: Workload):
    with open(os.path.join(REFERENCE_DIR, f"{workload.name}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _flag(workload: Workload, flag: str) -> str:
    return workload.args[workload.args.index(flag) + 1]


def data_values(workload: Workload, seed: int, written: np.ndarray | None) -> np.ndarray:
    """Sorted data set the CLI scores: the CSV column, or the simulated draw."""
    if written is not None:
        return np.sort(written)
    family, _, params = _flag(workload, "--given").partition(":")
    given = ParametricModel(Family.parse(family), tuple(float(p) for p in params.split(",")))
    n = int(_flag(workload, "--n"))
    return sample_from(given, n, derive_seed(seed, "data")).values


def _snap_up(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    return edges[np.searchsorted(edges, values, side="left")]


def _survival_entropy(values: np.ndarray) -> np.longdouble:
    # -integral S log S dx: S is 1 - i/n between order statistics i and i+1
    x = values.astype(np.longdouble)
    level = 1 - np.arange(1, x.size, dtype=np.longdouble) / x.size
    return -np.sum(np.diff(x) * level * np.log(level))


def spacings_esjs(p: np.ndarray, q: np.ndarray) -> float:
    """E(pooled) - E(p)/2 - E(q)/2 for two sorted samples of equal size."""
    pooled = np.sort(np.concatenate([p, q]))
    return float(_survival_entropy(pooled) - _survival_entropy(p) / 2 - _survival_entropy(q) / 2)


def oracle_score(family: str, params, data: np.ndarray, seed: int,
                 bins: int | None) -> tuple[float, float]:
    """Independent recomputation of one row's point score, and its tolerance."""
    model = ParametricModel(Family.parse(family), tuple(params))
    p = sample_from(model, data.size, derive_seed(seed, "model", family)).values
    q = data
    lo, hi = min(p[0], q[0]), max(p[-1], q[-1])
    if bins is not None and lo < hi:
        edges = np.linspace(lo, hi, bins + 1)[1:]
        p, q = _snap_up(p, edges), _snap_up(q, edges)
    want = spacings_esjs(p, q)
    return want, ORACLE_RTOL * abs(want) + _EPS * (hi - lo)


def check_report(text: str, workload: Workload, seed: int, data: np.ndarray) -> list[str]:
    """Problems found in one report; an empty list means the output is correct."""
    try:
        report = json.loads(text)
        return _check(report, workload, seed, data)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"malformed report: {exc!r}"]


def _check(report: dict, workload: Workload, seed: int, data: np.ndarray) -> list[str]:
    problems: list[str] = []
    if seed == DEFAULT_SEED:
        _compare_fields(report, load_reference(workload), "report", problems)

    spec, rows = report["spec"], report["rows"]
    if spec["n"] != data.size or spec["seed"] != seed or spec["bins"] != workload.bins:
        problems.append("spec does not echo the workload's n, seed and bins")
    if [row["family"] for row in rows] != list(workload.families) or report["skipped"]:
        problems.append("report does not score exactly the workload's families")
        return problems

    for row in rows:
        fam, score = row["family"], row["esjs"]
        want, tol = oracle_score(fam, row["params"], data, seed, workload.bins)
        if not abs(score - want) <= tol:
            problems.append(f"{fam}: esjs {score!r} but oracle gives {want!r}")
        if not _close(row["distance"], math.sqrt(score), REFERENCE_RTOL):
            problems.append(f"{fam}: distance is not sqrt(esjs)")
        if not row["ci"]["lb"] <= row["ci"]["ub"]:
            problems.append(f"{fam}: confidence bounds out of order")

    ranked = sorted(rows, key=lambda r: r["esjs"])
    best, challenger = ranked[0], ranked[1]
    factor = report["factor"]
    if report["best"] != best["family"] or factor["challenger"] != challenger["family"]:
        problems.append("best or challenger is not ranked by esjs")
    elif not _close(factor["ratio"], challenger["esjs"] / best["esjs"], REFERENCE_RTOL):
        problems.append("factor ratio is not challenger esjs / best esjs")
    return problems
