"""Tests for the aggregate validation metrics."""

import math

import pytest

from repro.config import GPUConfig
from repro.harness.runner import MODELS, KernelResult, Runner
from repro.harness.validation import (
    render_validation,
    validate_all,
    validate_model,
)
from repro.workloads import Scale


@pytest.fixture(scope="module")
def results():
    runner = Runner(GPUConfig.small(n_cores=2, warps_per_core=8),
                    Scale.tiny())
    kernels = ["vectoradd", "strided_deg8", "strided_deg32", "mandelbrot",
               "sad_calc_8"]
    return [runner.evaluate(name) for name in kernels]


class TestValidateModel:
    def test_error_statistics(self, results):
        v = validate_model(results, "mt_mshr_band")
        assert v.n == len(results)
        assert 0.0 <= v.median_error <= v.max_error
        assert v.mean_error <= v.max_error
        assert 0.0 <= v.fraction_under_20pct <= 1.0

    def test_correlations_strong_for_gpumech(self, results):
        v = validate_model(results, "mt_mshr_band")
        # The kernel set spans CPI ~1 to ~70: a usable model must rank
        # them correctly and correlate strongly.
        assert v.spearman_rho == pytest.approx(1.0)
        assert v.pearson_r > 0.95

    def test_naive_ranks_worse_or_equal(self, results):
        naive = validate_model(results, "naive")
        band = validate_model(results, "mt_mshr_band")
        assert band.mean_error <= naive.mean_error

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            validate_model([], "naive")

    def test_degenerate_correlation_is_nan(self, results):
        one = validate_model(results[:1], "naive")
        assert math.isnan(one.pearson_r)


def _synthetic(predicted, measured):
    return [
        KernelResult(kernel="k%d" % i, policy="rr", n_warps=1,
                     oracle_cpi=m, model_cpis={"naive": p},
                     oracle=None, prediction=None)
        for i, (p, m) in enumerate(zip(predicted, measured))
    ]


#: (predicted, measured, pearson r, spearman rho); the coefficients are
#: scipy 1.17.1's ``pearsonr``/``spearmanr`` on the same vectors.
SCIPY_REFERENCE = {
    "distinct": ([1.2, 3.4, 2.2, 7.9, 5.5, 0.8],
                 [1.0, 3.9, 2.5, 6.1, 6.0, 1.1],
                 0.9539341247424938, 0.942857142857143),
    "ties_predicted": ([2.0, 2.0, 3.5, 1.0, 3.5, 4.25, 2.0],
                       [1.9, 2.4, 3.1, 1.2, 3.8, 4.0, 2.2],
                       0.9687293167082572, 0.9543135154205278),
    "ties_measured": ([1.1, 2.7, 3.3, 4.8, 0.9, 6.2],
                      [1.5, 2.5, 2.5, 5.0, 1.5, 5.0],
                      0.9567411493451994, 0.956182887467515),
    "ties_both": ([3.0, 1.0, 3.0, 2.0, 5.0, 1.0, 4.0, 3.0],
                  [2.0, 2.0, 6.0, 1.0, 6.0, 0.5, 6.0, 2.0],
                  0.7910431614610168, 0.8130555293484762),
    "n2": ([1.5, 4.0], [2.0, 3.0], 1.0, 0.9999999999999999),
    "n2_reversed": ([1.5, 4.0], [3.0, 2.0], -1.0, -0.9999999999999999),
}


class TestCorrelations:
    @pytest.mark.parametrize("case", sorted(SCIPY_REFERENCE))
    def test_matches_scipy_reference(self, case):
        predicted, measured, pearson, spearman = SCIPY_REFERENCE[case]
        v = validate_model(_synthetic(predicted, measured), "naive")
        assert v.pearson_r == pytest.approx(pearson, rel=1e-12)
        assert v.spearman_rho == pytest.approx(spearman, rel=1e-12)

    def test_constant_input_is_nan(self):
        v = validate_model(_synthetic([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]),
                           "naive")
        assert math.isnan(v.pearson_r) and math.isnan(v.spearman_rho)


class TestValidateAll:
    def test_covers_all_models(self, results):
        validations = validate_all(results)
        assert set(validations) == set(MODELS)

    def test_render(self, results):
        text = render_validation(validate_all(results))
        assert "spearman rho" in text
        assert "MT_MSHR_BAND" in text
