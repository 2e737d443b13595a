import numpy as np
import pytest

from salab.core import NumericalError
from salab.figures import (
    FIGURE_SPECS,
    convergence_trend_check,
    run_figure,
)
from salab.stats import DensityEstimate, log_fit_exponents


def fake_curve(grid, sigma):
    dens = np.exp(-0.5 * (grid / sigma) ** 2) / (sigma * np.sqrt(2 * np.pi))
    return DensityEstimate(grid=grid, density=dens, bandwidth=0.1, count=10_000)


class TestTrendCheck:
    def test_converging_family_passes(self):
        grid = np.linspace(-4, 4, 201)
        sigmas = [1.05, 1.01, 1.001, 1.0001]
        check = convergence_trend_check([fake_curve(grid, s) for s in sigmas], sigmas)
        assert check.passed

    def test_spreading_family_fails_on_sigma_clause(self):
        # scale growing 10^(1/4) per decade, the wrong-exponent signature
        grid = np.linspace(-10, 10, 201)
        sigmas = [1.0, 1.778, 3.162, 5.623]
        check = convergence_trend_check([fake_curve(grid, s) for s in sigmas], sigmas)
        assert not check.passed
        assert not check.sigma_ok

    def test_needs_three_curves(self):
        grid = np.linspace(-4, 4, 101)
        with pytest.raises(NumericalError):
            convergence_trend_check([fake_curve(grid, 1.0)] * 2, [1.0, 1.0])


class TestFigureSpecs:
    def test_catalog_names(self):
        assert set(FIGURE_SPECS) == {
            "fig1", "fig2", "fig3", "fig4", "fig5", "fig10", "fig11", "fig12"
        }

    def test_unknown_name_rejected(self):
        with pytest.raises(NumericalError, match="unknown figure"):
            run_figure("fig9")

    def test_trend_figures_use_the_decade_ladder(self):
        for name in ("fig1", "fig2", "fig4", "fig10", "fig11"):
            assert FIGURE_SPECS[name].alphas == (1e-1, 1e-2, 1e-3, 1e-4)

    def test_a_ladder_gets_the_trend_check_and_one_stepsize_the_log_fits(self):
        fits = {"fig3": (2, 4), "fig5": (2,), "fig12": (2,)}
        for name, spec in FIGURE_SPECS.items():
            if name in fits:
                assert len(spec.alphas) == 1 and not spec.trend
                assert spec.fit_exponents == fits[name] == log_fit_exponents(spec.exponent)
            else:
                assert len(spec.alphas) >= 3 and spec.trend
                assert spec.fit_exponents == ()


class TestFitFigures:
    def test_fig5_gaussian_limit_fit(self):
        result = run_figure("fig5", seed=2)
        fit = result.fits[2]
        assert fit.r_squared >= 0.95
        # limit is N(0, 1/4): log density slope -1/(2 v) = -2
        assert fit.slope == pytest.approx(-2.0, rel=0.15)

    def test_fig12_gaussian_limit_fit(self):
        result = run_figure("fig12", seed=2)
        assert result.fits[2].r_squared >= 0.95

    def test_results_are_reproducible(self):
        a = run_figure("fig5", seed=3)
        b = run_figure("fig5", seed=3)
        key = a.alphas[0]
        assert np.array_equal(a.densities[key].density, b.densities[key].density)
