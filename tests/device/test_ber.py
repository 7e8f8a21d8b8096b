"""Tests for the BER engine, including Monte-Carlo cross-validation."""

import hashlib

import numpy as np
import pytest

from repro.analysis.calibration import calibrated_analyzer
from repro.core.reduce_code import ReduceCodeCoding
from repro.device.ber import BerAnalyzer
from repro.device.c2c import C2cModel
from repro.device.coding import GrayMlcCoding
from repro.device.voltages import normal_mlc_plan, reduced_plan
from repro.device.wear import WearModel
from repro.errors import ConfigurationError
from tests.device import reference as ref


@pytest.fixture(scope="module")
def baseline_analyzer():
    return BerAnalyzer(normal_mlc_plan())


@pytest.fixture(scope="module")
def calibrated_analyzers():
    """The two analyzers every system-level BER comes from."""
    return {
        "normal": calibrated_analyzer(normal_mlc_plan()),
        "reduced": calibrated_analyzer(
            reduced_plan("nunma3"), coding=ReduceCodeCoding()
        ),
    }


@pytest.fixture(scope="module")
def reduced_analyzer():
    coding = ReduceCodeCoding()
    return BerAnalyzer(
        reduced_plan("nunma3"),
        coding=coding,
        c2c=C2cModel(level_usage=coding.level_usage()),
    )


class TestConstruction:
    def test_default_coding_for_four_levels(self, baseline_analyzer):
        assert isinstance(baseline_analyzer.coding, GrayMlcCoding)

    def test_three_level_plan_needs_explicit_coding(self):
        with pytest.raises(ConfigurationError):
            BerAnalyzer(reduced_plan("nunma1"))

    def test_coding_level_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            BerAnalyzer(normal_mlc_plan(), coding=ReduceCodeCoding())

    def test_empty_profiles_rejected(self):
        with pytest.raises(ConfigurationError):
            BerAnalyzer(normal_mlc_plan(), profiles=())


class TestConfusion:
    def test_confusion_rows_sum_to_one(self, baseline_analyzer):
        from repro.device.c2c import EVEN_CELL_PROFILE

        for level in range(4):
            probs = baseline_analyzer.level_confusion(
                level, EVEN_CELL_PROFILE, pe_cycles=3000, t_hours=168
            )
            assert probs.sum() == pytest.approx(1.0)
            assert probs[level] > 0.5  # the true level dominates

    def test_fresh_cell_reads_correctly(self, baseline_analyzer):
        from repro.device.c2c import ODD_CELL_PROFILE

        probs = baseline_analyzer.level_confusion(
            2, ODD_CELL_PROFILE, include_c2c=False, include_retention=False
        )
        assert probs[2] == pytest.approx(1.0, abs=1e-6)


class TestBerStructure:
    def test_retention_ber_grows_with_time(self, baseline_analyzer):
        values = [
            baseline_analyzer.retention_ber(4000, t).total for t in (24, 168, 720)
        ]
        assert values == sorted(values)
        assert values[0] > 0

    def test_retention_ber_grows_with_pe(self, baseline_analyzer):
        values = [
            baseline_analyzer.retention_ber(pe, 168).total for pe in (2000, 4000, 6000)
        ]
        assert values == sorted(values)

    def test_reduced_state_beats_baseline(self, baseline_analyzer, reduced_analyzer):
        base = baseline_analyzer.retention_ber(5000, 720).total
        reduced = reduced_analyzer.retention_ber(5000, 720).total
        assert reduced < base

    def test_c2c_ber_reduced_state_beats_baseline(
        self, baseline_analyzer, reduced_analyzer
    ):
        assert reduced_analyzer.c2c_ber().total < baseline_analyzer.c2c_ber().total

    def test_high_levels_dominate_retention_errors(self, baseline_analyzer):
        breakdown = baseline_analyzer.retention_ber(5000, 720)
        assert breakdown.dominant_level() == 3
        assert breakdown.per_level[3] > breakdown.per_level[1]

    def test_breakdown_shares_sum_to_one(self, baseline_analyzer):
        breakdown = baseline_analyzer.retention_ber(4000, 168)
        assert sum(breakdown.per_level.values()) == pytest.approx(1.0)

    def test_wear_broadening_raises_ber(self):
        quiet = BerAnalyzer(normal_mlc_plan(), wear=WearModel(k_w=0.0))
        noisy = BerAnalyzer(normal_mlc_plan(), wear=WearModel(k_w=0.02))
        assert (
            noisy.retention_ber(5000, 168).total > quiet.retention_ber(5000, 168).total
        )


class TestMonteCarloCrossCheck:
    @pytest.mark.parametrize("pe,t", [(4000, 168.0), (6000, 720.0)])
    def test_analytic_matches_sampling_baseline(self, baseline_analyzer, rng, pe, t):
        analytic = baseline_analyzer.retention_ber(pe, t).total
        sampled = baseline_analyzer.monte_carlo_ber(
            400_000, rng, pe_cycles=pe, t_hours=t, include_c2c=False
        )
        assert sampled == pytest.approx(analytic, rel=0.25)

    def test_analytic_matches_sampling_c2c(self, baseline_analyzer, rng):
        analytic = baseline_analyzer.c2c_ber().total
        sampled = baseline_analyzer.monte_carlo_ber(
            200_000, rng, include_retention=False
        )
        assert sampled == pytest.approx(analytic, rel=0.15)

    def test_rejects_bad_sample_size(self, baseline_analyzer, rng):
        with pytest.raises(ConfigurationError):
            baseline_analyzer.monte_carlo_ber(0, rng)


GOLDEN_PE = (0, 2000, 4000, 6000, 6500)
GOLDEN_AGES = (0.0, 24.0, 168.0, 720.0, 2000.0)
GOLDEN_BER_DIGESTS = {
    "normal": "ddb06a85f72157d1ba33dbb4c68841c7f0bdb04d2930d0c32f907b6e5079f134",
    "reduced": "7d346632c500ec315ec57330d820f3a4c28448f7295d7c36f0d92e6379819479",
}


def _breakdown_hex(breakdown) -> str:
    fields = [breakdown.total, breakdown.raw_level_error_rate]
    fields += [breakdown.per_level[lv] for lv in sorted(breakdown.per_level)]
    return " ".join(float.hex(float(v)) for v in fields)


class TestExactGolden:
    """Last-ulp pins on the calibrated analyzers; the run digests round
    floats to 12 significant digits, these do not.

    Every digest and float here was recorded on the commit before the
    in-place retention kernel, the shared no-C2C confusion rows and the
    ``drift_moments`` call in ``monte_carlo_ber`` (the code
    :mod:`tests.device.reference` keeps), and none may move.  P/E 0 and
    age 0 take the early return in ``RetentionModel.apply``.
    """

    @pytest.mark.parametrize("name", sorted(GOLDEN_BER_DIGESTS))
    def test_ber_grid_digest(self, calibrated_analyzers, name):
        """SHA-256 over ``float.hex`` of ``total``,
        ``raw_level_error_rate`` and every ``per_level`` share."""
        analyzer = calibrated_analyzers[name]
        digest = hashlib.sha256()
        for pe in GOLDEN_PE:
            for t in GOLDEN_AGES:
                for c2c in (False, True):
                    breakdown = analyzer.bit_error_rate(
                        pe_cycles=pe, t_hours=t, include_c2c=c2c
                    )
                    digest.update((_breakdown_hex(breakdown) + "\n").encode())
        assert digest.hexdigest() == GOLDEN_BER_DIGESTS[name]

    @pytest.mark.parametrize(
        "calibrated, n_cells, seed, pe, t, c2c, expected",
        [
            (False, 400_000, 1234, 4000, 168.0, False, "0x1.8e9f6a93f290bp-6"),
            (False, 400_000, 1234, 6000, 720.0, False, "0x1.8a2db61bb05fbp-5"),
            (True, 200_000, 7, 6000, 720.0, True, "0x1.866e43aa79bbbp-6"),
        ],
    )
    def test_monte_carlo_float(self, calibrated, n_cells, seed, pe, t, c2c, expected):
        """The seeded Monte Carlo BER: same RNG stream, same drift."""
        plan = normal_mlc_plan()
        analyzer = calibrated_analyzer(plan) if calibrated else BerAnalyzer(plan)
        sampled = analyzer.monte_carlo_ber(
            n_cells,
            np.random.default_rng(seed),
            pe_cycles=pe,
            t_hours=t,
            include_c2c=c2c,
        )
        assert float.hex(sampled) == expected


class TestMatchesReference:
    """``bit_error_rate`` against the per-profile loop it replaced."""

    @staticmethod
    def _assert_same(got, want):
        assert _breakdown_hex(got) == _breakdown_hex(want)
        assert list(got.per_level) == list(want.per_level)

    @pytest.mark.parametrize("name", ["normal", "reduced"])
    def test_random_operating_points(self, calibrated_analyzers, name):
        analyzer = calibrated_analyzers[name]
        rng = np.random.default_rng(2015)
        for _ in range(4):
            pe = float(rng.uniform(0.0, 7000.0))
            t = float(rng.uniform(0.0, 3000.0))
            for c2c in (False, True):
                self._assert_same(
                    analyzer.bit_error_rate(pe_cycles=pe, t_hours=t, include_c2c=c2c),
                    ref.bit_error_rate(analyzer, pe_cycles=pe, t_hours=t, include_c2c=c2c),
                )

    def test_c2c_only_and_retention_only(self, baseline_analyzer):
        self._assert_same(
            baseline_analyzer.c2c_ber(pe_cycles=3000),
            ref.bit_error_rate(baseline_analyzer, pe_cycles=3000, include_retention=False),
        )
        self._assert_same(
            baseline_analyzer.retention_ber(5000, 720.0),
            ref.bit_error_rate(
                baseline_analyzer, pe_cycles=5000, t_hours=720.0, include_c2c=False
            ),
        )

    def test_three_distinct_profiles(self):
        """With C2C each profile keeps its own evaluation; without, the
        rows are shared but still summed once per profile."""
        from repro.device.c2c import DEFAULT_PROFILES, EVEN_CELL_PROFILE

        analyzer = BerAnalyzer(
            normal_mlc_plan(), profiles=DEFAULT_PROFILES + (EVEN_CELL_PROFILE,)
        )
        for c2c in (False, True):
            self._assert_same(
                analyzer.bit_error_rate(pe_cycles=4500, t_hours=300.0, include_c2c=c2c),
                ref.bit_error_rate(
                    analyzer, pe_cycles=4500, t_hours=300.0, include_c2c=c2c
                ),
            )
