"""Reference implementations of the BER engine's hot path.

The allocating retention kernel (one fresh ``out x src`` array per
step and a per-column loop for degenerate sigma) and the per-profile
``bit_error_rate`` loop (every level transformed once per neighbour
profile, C2C or not), restated as functions of the model or analyzer
and kept as differential oracles: the production code must reproduce
them bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from repro.device.ber import BerAnalyzer, BerBreakdown
from repro.device.c2c import NeighborProfile
from repro.device.distributions import Distribution
from repro.device.retention import RetentionModel


def retention_apply(
    model: RetentionModel, initial: Distribution, pe_cycles: float, t_hours: float
) -> Distribution:
    """``RetentionModel.apply`` with a freshly allocated array per step."""
    model._check_args(pe_cycles, t_hours)
    if t_hours == 0 or pe_cycles == 0:
        return initial
    axis = initial.axis()
    step = initial.step
    mu, sigma = model.drift_moments(axis, pe_cycles, t_hours)
    max_drop = float((mu + 8.0 * sigma).max())
    pad = int(math.ceil(max_drop / step)) + 1
    out_axis = np.concatenate([axis[0] - step * np.arange(pad, 0, -1), axis])
    centers = axis - mu
    diff = out_axis[:, None] - centers[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        z = diff / sigma[None, :]
        kernel = np.exp(-0.5 * z**2)
    degenerate = sigma < step / 4
    if degenerate.any():
        for j in np.flatnonzero(degenerate):
            col = np.zeros(out_axis.size)
            idx = int(round((centers[j] - out_axis[0]) / step))
            idx = min(max(idx, 0), out_axis.size - 1)
            col[idx] = 1.0
            kernel[:, j] = col
    col_sums = kernel.sum(axis=0)
    col_sums[col_sums == 0] = 1.0
    kernel /= col_sums[None, :]
    pmf = kernel @ initial.pmf
    result = Distribution(float(out_axis[0]), step, pmf)
    tail = model.tail_distribution(pe_cycles, t_hours, step)
    if tail is not None:
        result = result.convolve(tail)
    return result


def level_confusion(
    analyzer: BerAnalyzer,
    level: int,
    profile: NeighborProfile,
    pe_cycles: float,
    t_hours: float,
    include_c2c: bool,
    include_retention: bool,
) -> np.ndarray:
    """``BerAnalyzer.level_confusion`` on the reference retention kernel."""
    dist = analyzer.plan.programmed_distribution(level)
    if level > 0 and pe_cycles > 0:
        dist = analyzer.wear.apply(dist, pe_cycles)
    if include_c2c:
        dist = dist.convolve(analyzer.c2c.shift_distribution(analyzer.plan, profile))
    if include_retention and t_hours > 0 and pe_cycles > 0 and level > 0:
        dist = retention_apply(analyzer.retention, dist, pe_cycles, t_hours)
    probs = np.empty(analyzer.plan.n_levels)
    for m in range(analyzer.plan.n_levels):
        low, high = analyzer.plan.region(m)
        probs[m] = dist.mass_between(low, high)
    total = probs.sum()
    if total > 0:
        probs /= total
    return probs


def bit_error_rate(
    analyzer: BerAnalyzer,
    pe_cycles: float = 0.0,
    t_hours: float = 0.0,
    include_c2c: bool = True,
    include_retention: bool = True,
) -> BerBreakdown:
    """``BerAnalyzer.bit_error_rate`` evaluating every level per profile."""
    usage = np.asarray(analyzer.coding.level_usage())
    total_weighted = 0.0
    total_raw = 0.0
    per_level: dict[int, float] = {lv: 0.0 for lv in range(analyzer.plan.n_levels)}
    for profile in analyzer.profiles:
        for level in range(analyzer.plan.n_levels):
            if usage[level] <= 0:
                continue
            confusion = level_confusion(
                analyzer,
                level,
                profile,
                pe_cycles,
                t_hours,
                include_c2c,
                include_retention,
            )
            misread = confusion.copy()
            misread[level] = 0.0
            raw = float(usage[level] * misread.sum())
            weighted = float(usage[level] * (misread @ analyzer._weights[level]))
            total_raw += raw
            total_weighted += weighted
            per_level[level] += weighted
    n_profiles = len(analyzer.profiles)
    total_weighted /= n_profiles
    total_raw /= n_profiles
    scale = analyzer.coding.error_rate_scale
    total = total_weighted * scale
    if total > 0:
        shares = {
            lv: (contrib / n_profiles) * scale / total
            for lv, contrib in per_level.items()
        }
    else:
        shares = {lv: 0.0 for lv in per_level}
    return BerBreakdown(total=total, raw_level_error_rate=total_raw, per_level=shares)
