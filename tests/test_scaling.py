import numpy as np
import pytest

from salab.core import NumericalError
from salab.drift import (
    DriftOperator,
    exp_square,
    grad_quadratic,
    linear,
    quartic,
    quartic_sine,
)
from salab.scaling import (
    BLOWS_UP,
    DEFAULT_EXPONENT_GRID,
    NONTRIVIAL,
    VANISHES,
    find_scaling_exponent,
    sample_limit_drift,
    scaled_drift,
)


def odd_power_drift(power: float) -> DriftOperator:
    """F(x) = -sign(x) |x|^power, vanishing at 0; scaling exponent 1/(1+power)."""
    return DriftOperator(
        name=f"odd_pow_{power}",
        dim=1,
        fn=lambda x: -np.sign(x) * np.abs(x) ** power,
        root=np.zeros(1),
        # F'(0) is 0 above power 1 and unbounded below it; the scaling
        # search, the only reader of these drifts, never reads the Jacobian
        jacobian=np.array([[-1.0 if power == 1 else 0.0]]),
    )


class TestScaledDrift:
    def test_quartic_quarter_exponent_is_exact(self):
        op = quartic()
        for alpha in (1e-2, 1e-5, 1e-8):
            value = scaled_drift(op, 0.25, alpha, [1.0])
            assert value[0] == pytest.approx(-1.0, abs=1e-12)

    def test_quartic_half_exponent_vanishes_linearly(self):
        op = quartic()
        value = scaled_drift(op, 0.5, 1e-4, [1.0])
        assert value[0] == pytest.approx(-1e-4, rel=1e-9)

    def test_linear_half_exponent_is_exact(self):
        op = linear([[-1.0]])
        for alpha in (1e-2, 1e-6):
            assert scaled_drift(op, 0.5, alpha, [1.0])[0] == pytest.approx(-1.0)

    def test_rejects_bad_alpha(self):
        with pytest.raises(NumericalError):
            scaled_drift(quartic(), 0.25, 0.0, [1.0])


class TestClassifyLimit:
    # the per-exponent labels of the search on its grid, which holds 1/8, 1/4
    # and 1/2, and 1/4, 1/3 < 1/2 < 2/3, 3/4

    def test_quartic_quarter_nontrivial(self):
        assert find_scaling_exponent(quartic()).classifications[0.25] == NONTRIVIAL

    def test_quartic_half_vanishes(self):
        assert find_scaling_exponent(quartic()).classifications[0.5] == VANISHES

    def test_quartic_eighth_blows_up(self):
        assert find_scaling_exponent(quartic()).classifications[0.125] == BLOWS_UP

    def test_exp_square_half_nontrivial(self):
        assert find_scaling_exponent(exp_square()).classifications[0.5] == NONTRIVIAL

    def test_strongly_convex_sandwich(self):
        # the sigma/L pinch forces exponent 1/2: above it the limit dies,
        # below it the limit explodes
        labels = find_scaling_exponent(grad_quadratic()).classifications
        for p in (2 / 3, 3 / 4):
            assert labels[p] == VANISHES
        for p in (1 / 3, 1 / 4):
            assert labels[p] == BLOWS_UP


class TestFindScalingExponent:
    def test_quartic(self):
        report = find_scaling_exponent(quartic())
        assert report.exponent == pytest.approx(0.25, abs=1e-3)
        for probe, value in report.ftilde:
            assert value == pytest.approx(-probe**3, abs=1e-6)

    def test_grad_quadratic(self):
        report = find_scaling_exponent(grad_quadratic())
        assert report.exponent == pytest.approx(0.5, abs=1e-3)
        for probe, value in report.ftilde:
            assert value == pytest.approx(-probe, abs=1e-6)

    def test_exp_square(self):
        report = find_scaling_exponent(exp_square())
        assert report.exponent == pytest.approx(0.5, abs=1e-3)
        for probe, value in report.ftilde:
            assert value == pytest.approx(-2.0 * probe, abs=1e-6)

    def test_quartic_sine(self):
        report = find_scaling_exponent(quartic_sine())
        assert report.exponent == pytest.approx(0.5, abs=1e-3)
        for probe, value in report.ftilde:
            assert value == pytest.approx(-probe, abs=1e-6)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_leading_odd_power_exponent(self, m):
        report = find_scaling_exponent(odd_power_drift(2 * m - 1))
        assert report.exponent == pytest.approx(1.0 / (2 * m), abs=1e-3)

    def test_bisection_off_grid(self):
        # |x|^(7/3) power puts the exponent at 0.3, between grid points
        report = find_scaling_exponent(odd_power_drift(7.0 / 3.0))
        assert report.exponent == pytest.approx(0.3, abs=1e-3)

    def test_at_most_one_nontrivial_on_grid(self):
        for op in (quartic(), grad_quadratic(), exp_square(), quartic_sine()):
            report = find_scaling_exponent(op)
            labels = list(report.classifications.values())
            assert labels.count(NONTRIVIAL) <= 1

    def test_classifications_monotone(self):
        # blows_up below the chosen exponent, vanishes above it
        report = find_scaling_exponent(quartic())
        for p, label in report.classifications.items():
            if p < report.exponent - 1e-9:
                assert label == BLOWS_UP
            elif p > report.exponent + 1e-9:
                assert label == VANISHES

    def test_chosen_exponent_below_one(self):
        for op in (quartic(), grad_quadratic(), quartic_sine()):
            assert find_scaling_exponent(op).exponent < 1.0

    def test_limit_sample_is_odd(self):
        for op in (quartic(), exp_square(), quartic_sine()):
            rows = dict(sample_limit_drift(op, find_scaling_exponent(op).exponent))
            for probe in (0.25, 0.5, 1.0, 2.0):
                assert rows[-probe] == pytest.approx(-rows[probe], abs=1e-8)

    def test_zero_drift_has_no_power_scaling(self):
        # F identically zero reads as vanishing at every exponent
        op = DriftOperator(name="zero", dim=1, fn=np.zeros_like, root=np.zeros(1),
                           jacobian=np.zeros((1, 1)))
        with pytest.raises(NumericalError, match="no power-law scaling"):
            find_scaling_exponent(op)

    def test_sublinear_drift_explodes_off_grid(self):
        # |x|^0.2 needs exponent 1/1.2 ~ 0.83, beyond the grid: every grid
        # point blows up and no boundary exists
        op = odd_power_drift(0.2)
        with pytest.raises(NumericalError, match="no power-law scaling"):
            find_scaling_exponent(op)

    def test_evidence_table_shape(self):
        report = find_scaling_exponent(quartic())
        assert len(report.evidence) == len(DEFAULT_EXPONENT_GRID) * 8 * 9
        p, probe, alpha, magnitude, label = report.evidence[0]
        assert label in (VANISHES, NONTRIVIAL, BLOWS_UP, "oscillates")
