"""The library's argument checks: each rejects its input with its own type and message."""

import re

import numpy as np
import pytest

from esjs import (
    BootstrapConfig,
    ConfidenceInterval,
    Family,
    ParametricModel,
    SortedSample,
    StepSurvival,
    compare_families,
    derive_seed,
    fit_mle,
    moving_block_resample,
    percentile_of_replicates,
    replicate_values,
    sample_from,
)

NORMAL01 = ParametricModel(Family.NORMAL, (0.0, 1.0))

CASES = {
    "survival without breakpoints": (
        lambda: StepSurvival([], []), "step survival needs at least one breakpoint"),
    "survival of unequal lengths": (
        lambda: StepSurvival([1.0, 2.0], [0.5]), "breakpoints and values must have equal length"),
    "non-finite breakpoint": (
        lambda: StepSurvival([1.0, np.inf], [0.5, 0.0]), "breakpoints must be finite"),
    "no draws": (lambda: sample_from(NORMAL01, 0, 1), "sample size must be >= 1"),
    "negative sampling seed": (
        lambda: sample_from(NORMAL01, 5, -1), "seed must be a non-negative integer"),
    "negative root seed": (lambda: derive_seed(-1, "data"), "seed must be a non-negative integer"),
    "non-finite parameter": (
        lambda: ParametricModel(Family.NORMAL, (np.nan, 1.0)), "normal parameters must be finite"),
    "no families": (
        lambda: compare_families(SortedSample.from_data([1.0, 2.0]), [], BootstrapConfig()),
        "no hypothesis families given"),
    "no replicates": (lambda: percentile_of_replicates([], 0.5), "no replicates"),
    "empty series": (lambda: moving_block_resample([], 1, 0), "empty series"),
    "bounds out of order": (
        lambda: ConfidenceInterval(lb=2.0, ub=1.0, level=0.95, point=1.5),
        "interval bounds out of order"),
    "empty component": (
        lambda: replicate_values(np.mean, (np.ones(3), np.array([])), BootstrapConfig()),
        "empty data component"),
    "pareto at its lower bound": (
        lambda: fit_mle(Family.PARETO, SortedSample.from_data([1.0, 1.0, 1.0])),
        "pareto fit requires observations above the lower bound 1"),
}


@pytest.mark.parametrize("call, message", CASES.values(), ids=CASES.keys())
def test_a_rejected_input_raises_its_own_value_error(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as exc:
        call()
    assert exc.type is ValueError
