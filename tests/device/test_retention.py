"""Tests for the retention model (paper Eq. 3 + exponential tail)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.calibration import calibrated_retention
from repro.device.distributions import Distribution
from repro.device.retention import RetentionModel
from repro.errors import ConfigurationError
from tests.device import reference as ref


class TestMoments:
    def test_mean_shift_formula(self):
        model = RetentionModel()
        # Ks (x - x0) Kd N^0.4 ln(1 + t/t0)
        expected = 0.333 * (3.6 - 1.1) * 4e-4 * 3000**0.4 * math.log(25.0)
        assert model.mean_shift(3.6, 3000, 24.0) == pytest.approx(expected)

    def test_variance_formula(self):
        model = RetentionModel()
        expected = 0.333 * (3.6 - 1.1) * 2e-6 * 3000**0.5 * math.log(25.0)
        assert model.shift_variance(3.6, 3000, 24.0) == pytest.approx(expected)

    def test_no_drift_at_zero_time(self):
        model = RetentionModel()
        assert model.mean_shift(3.6, 3000, 0.0) == 0.0

    def test_no_drift_below_erased_level(self):
        model = RetentionModel()
        assert model.mean_shift(0.9, 3000, 24.0) == 0.0

    def test_drift_grows_with_level(self):
        model = RetentionModel()
        assert model.mean_shift(3.6, 3000, 24.0) > model.mean_shift(2.4, 3000, 24.0)

    def test_drift_grows_with_pe_and_time(self):
        model = RetentionModel()
        base = model.mean_shift(3.6, 2000, 24.0)
        assert model.mean_shift(3.6, 6000, 24.0) > base
        assert model.mean_shift(3.6, 2000, 720.0) > base

    def test_rejects_negative_args(self):
        model = RetentionModel()
        with pytest.raises(ConfigurationError):
            model.mean_shift(3.6, -1, 24.0)
        with pytest.raises(ConfigurationError):
            model.mean_shift(3.6, 1000, -1.0)

    def test_rejects_bad_constants(self):
        with pytest.raises(ConfigurationError):
            RetentionModel(ks=0.0)
        with pytest.raises(ConfigurationError):
            RetentionModel(tail_weight=1.5)
        with pytest.raises(ConfigurationError):
            RetentionModel(tail_scale=0.0)


class TestDriftMoments:
    @pytest.mark.parametrize(
        "pe, t", [(1.0, 0.5), (2000.0, 24.0), (6000, 720.0), (3217.5, 1.0e4)]
    )
    @pytest.mark.parametrize(
        "model", [RetentionModel(), calibrated_retention()], ids=["paper", "calibrated"]
    )
    def test_bit_equal_to_scalar_methods(self, model, pe, t):
        # Spans the erased level, so the clipped headroom is covered too.
        axis = Distribution.gaussian(2.0, 0.5, 0.005).axis()
        assert axis.min() < model.x0 < axis.max()
        mu, sigma = model.drift_moments(axis, pe, t)
        scalar_mu = np.array([model.mean_shift(x, pe, t) for x in axis])
        scalar_sigma = np.array([model.shift_sigma(x, pe, t) for x in axis])
        assert mu.tobytes() == scalar_mu.tobytes()
        assert sigma.tobytes() == scalar_sigma.tobytes()

    def test_rejects_negative_arguments(self):
        with pytest.raises(ConfigurationError):
            RetentionModel().drift_moments(np.zeros(3), -1.0, 1.0)


class TestApply:
    def test_apply_shifts_mean_down(self):
        model = RetentionModel()
        initial = Distribution.gaussian(3.6, 0.05)
        aged = model.apply(initial, 4000, 168.0)
        expected_drop = model.mean_shift(3.6, 4000, 168.0)
        assert aged.mean() == pytest.approx(3.6 - expected_drop, abs=5e-3)

    def test_apply_widens_distribution(self):
        model = RetentionModel()
        initial = Distribution.gaussian(3.6, 0.05)
        aged = model.apply(initial, 4000, 168.0)
        assert aged.std() > initial.std()

    def test_apply_identity_at_zero_time(self):
        model = RetentionModel()
        initial = Distribution.gaussian(3.6, 0.05)
        assert model.apply(initial, 4000, 0.0) is initial

    def test_apply_preserves_mass(self):
        model = RetentionModel()
        initial = Distribution.uniform(3.5, 3.7)
        aged = model.apply(initial, 6000, 720.0)
        assert aged.pmf.sum() == pytest.approx(1.0)

    def test_level_dependence_within_one_distribution(self):
        """Higher-voltage mass drifts further (the NUNMA motivation)."""
        model = RetentionModel()
        low = model.apply(Distribution.delta(2.7), 5000, 720.0)
        high = model.apply(Distribution.delta(3.7), 5000, 720.0)
        assert (3.7 - high.mean()) > (2.7 - low.mean())


class TestApplyMatchesReference:
    """The in-place kernel against the allocating one it replaced."""

    @staticmethod
    def _assert_same(got, want):
        assert got.origin == want.origin
        assert got.step == want.step
        assert np.array_equal(got.pmf, want.pmf)
        assert got.pmf.tobytes() == want.pmf.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        pe=st.floats(min_value=0.0, max_value=8000.0),
        t=st.floats(min_value=0.0, max_value=5000.0),
        mean=st.floats(min_value=0.8, max_value=4.2),
        sigma=st.floats(min_value=0.0, max_value=0.2),
        calibrated=st.booleans(),
    )
    def test_random_operating_points(self, pe, t, mean, sigma, calibrated):
        model = calibrated_retention() if calibrated else RetentionModel()
        initial = Distribution.gaussian(mean, sigma)
        self._assert_same(
            model.apply(initial, pe, t), ref.retention_apply(model, initial, pe, t)
        )

    @pytest.mark.parametrize("t", [1.0e-9, 1.0e-4, 168.0])
    def test_degenerate_columns(self, t):
        """Source bins at or just above the erased level have sigma below
        a quarter step and collapse to one-hot columns."""
        model = calibrated_retention()
        initial = Distribution.gaussian(model.x0, 0.05)
        _, sigma = model.drift_moments(initial.axis(), 3000, t)
        degenerate = sigma < initial.step / 4
        assert degenerate.any()
        if t < 1.0:
            assert degenerate.all()
        else:
            assert not degenerate.all()
        self._assert_same(
            model.apply(initial, 3000, t), ref.retention_apply(model, initial, 3000, t)
        )

    def test_identity_paths_match(self):
        model = RetentionModel()
        initial = Distribution.gaussian(3.0, 0.05)
        assert model.apply(initial, 0, 720.0) is initial
        assert ref.retention_apply(model, initial, 0, 720.0) is initial


class TestTail:
    def test_tail_off_by_default(self):
        model = RetentionModel()
        assert model.effective_tail_weight(6000, 720.0) == 0.0
        assert model.tail_distribution(6000, 720.0, 0.002) is None

    def test_tail_weight_reference_point(self):
        model = RetentionModel(tail_weight=0.01)
        assert model.effective_tail_weight(6000, 720.0) == pytest.approx(0.01)

    def test_tail_weight_scales_down_with_pe_and_time(self):
        model = RetentionModel(tail_weight=0.01)
        assert model.effective_tail_weight(2000, 24.0) < 0.01
        assert model.effective_tail_weight(6000, 0.0) == 0.0

    def test_tail_distribution_is_downward(self):
        model = RetentionModel(tail_weight=0.05, tail_scale=0.05)
        tail = model.tail_distribution(6000, 720.0, 0.002)
        low, high = tail.support
        assert high <= 0.0
        assert tail.mean() < 0.0

    def test_tail_raises_far_tail_mass(self):
        plain = RetentionModel()
        tailed = RetentionModel(tail_weight=0.01, tail_scale=0.08)
        initial = Distribution.gaussian(3.6, 0.02)
        aged_plain = plain.apply(initial, 6000, 720.0)
        aged_tailed = tailed.apply(initial, 6000, 720.0)
        threshold = 3.3
        assert aged_tailed.mass_below(threshold) > aged_plain.mass_below(threshold)


@settings(max_examples=25, deadline=None)
@given(
    pe=st.floats(500, 8000),
    t=st.floats(1.0, 1440.0),
    x=st.floats(2.0, 4.0),
)
def test_property_moments_non_negative_and_monotone_in_time(pe, t, x):
    model = RetentionModel()
    assert model.mean_shift(x, pe, t) >= 0.0
    assert model.shift_variance(x, pe, t) >= 0.0
    assert model.mean_shift(x, pe, 2 * t) >= model.mean_shift(x, pe, t)
