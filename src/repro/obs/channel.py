"""Media-level read-channel & decoder telemetry.

The observability stack built so far watches *requests* (spans, windowed
series, profiling).  This module watches the layer FlexLevel is actually
about: the read channel.  :class:`ChannelTelemetry` records, per
physical block, the online statistics that adaptive-threshold and
MI-quantization systems (ROADMAP item 3) need as measured — not assumed
— inputs:

* decoder-observed raw-bit-error estimates next to the analytic
  ``repro.device.ber`` prediction (per block and per cell mode),
* retry-ladder sensing-level utilization histograms per
  (cell mode, provisioned levels) configuration,
* sampled LDPC iteration/convergence trajectories, with exact
  LLR-magnitude tables per sensing configuration derived at export from
  :class:`repro.ecc.ldpc.channel.NandReadChannel`,
* wear/retention context: P/E at read, data age, LevelAdjust cell mode,
  erase counts and block retirements.

Everything accumulates into bounded, preallocated per-block
accumulators (exposed as numpy views) so the per-read cost is a
handful of scalar updates.  The observed-error
estimator for the latency-model simulation paths draws
``Binomial(page_bits, raw_ber)`` from a *dedicated* seeded generator:
attaching telemetry therefore never perturbs simulation RNG streams
(disabled-mode byte-identity), same-seed runs reproduce the artifact
bit-for-bit, and the per-mode observed BER converges to the analytic
mean (the CI smoke assertion).  Bit-accurate ECC decodes (bit-flip,
min-sum, sum-product, BCH) report *real* corrected-bit counts through
:meth:`ChannelTelemetry.on_decode`.

The exported artifact is schema ``repro.channel/1``: deterministic,
wall-clock-free, fingerprinted with :func:`channel_fingerprint`.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.manifest import fingerprint

#: Artifact schema identifier.
CHANNEL_SCHEMA = "repro.channel/1"

#: Stable cell-mode encoding (matches the FTL's internal convention).
#: Kept as names, not a CellMode import: ``repro.core.level_adjust``
#: transitively imports :mod:`repro.obs`, so importing it here would
#: close an import cycle.
MODE_NAME_TO_INT = {"normal": 0, "reduced": 1, "slc": 2}
INT_TO_MODE_NAME = {code: name for name, code in MODE_NAME_TO_INT.items()}

#: Stands for "no read yet" in the one-entry mode cache.
_NO_MODE = object()

#: Glyph ramp for the ASCII block heatmap, lightest to darkest.
HEATMAP_GLYPHS = " .:-=+*#%@"


def _mode_int(mode: Any) -> int:
    """Normalise a cell mode (CellMode enum, name or int) to its code."""
    name = getattr(mode, "name", None)
    if name is not None:
        mode = name
    if isinstance(mode, str):
        try:
            return MODE_NAME_TO_INT[mode.lower()]
        except KeyError:
            raise ConfigurationError(f"unknown cell mode name: {mode!r}")
    code = int(mode)
    if code not in INT_TO_MODE_NAME:
        raise ConfigurationError(f"unknown cell mode code: {code}")
    return code


class ChannelTelemetry:
    """Bounded per-block read-channel statistics accumulator.

    Parameters
    ----------
    n_blocks:
        Number of physical blocks to track; per-block arrays are
        preallocated at this size.  Reads reporting a block outside
        ``[0, n_blocks)`` (e.g. unmapped pages) still feed the
        aggregate statistics.
    page_bits:
        Bits per page, the binomial trial count for the observed-error
        estimator (default: a 16 KiB page).
    seed:
        Seed of the dedicated observed-error generator.  Independent of
        every simulation RNG stream by construction.
    trajectory_cap:
        Maximum number of sampled decode trajectories retained (the
        first ``trajectory_cap`` flash reads are kept — deterministic
        and bounded).
    """

    def __init__(
        self,
        n_blocks: int,
        *,
        page_bits: int = 16 * 1024 * 8,
        seed: int = 2015,
        trajectory_cap: int = 256,
    ):
        if n_blocks <= 0:
            raise ConfigurationError(f"non-positive n_blocks: {n_blocks}")
        if page_bits <= 0:
            raise ConfigurationError(f"non-positive page_bits: {page_bits}")
        if trajectory_cap < 0:
            raise ConfigurationError(f"negative trajectory_cap: {trajectory_cap}")
        self.n_blocks = n_blocks
        self.page_bits = page_bits
        self.seed = seed
        self.trajectory_cap = trajectory_cap
        self._rng = np.random.default_rng(seed)
        self._binomial = self._rng.binomial

        # Per-block accumulators: bounded, preallocated plain lists —
        # scalar ``list[i] += x`` is ~3x cheaper than a numpy indexed
        # update, and the per-read hot path does a dozen of them (the
        # bench_channel_telemetry overhead budget is won here).  The
        # numpy views below materialise on demand.
        self._reads = [0] * n_blocks
        self._observed_errors = [0] * n_blocks
        self._analytic_ber_sum = [0.0] * n_blocks
        self._retry_rounds = [0] * n_blocks
        self._uncorrectable = [0] * n_blocks
        self._pe_sum = [0.0] * n_blocks
        self._age_sum = [0.0] * n_blocks
        self._last_pe = [0.0] * n_blocks
        self._last_mode = [-1] * n_blocks
        self._erases = [0] * n_blocks
        self._retired = [0] * n_blocks

        # Aggregates keyed by small discrete domains.
        self._mode_cache: dict[Any, int] = {}
        self._cached_mode: Any = _NO_MODE
        self._cached_mode_code = -1
        self._mode_acc: dict[int, list[float]] = {}
        self._channel_acc: dict[int, list[float]] = {}
        self._sensing_configs: dict[tuple[int, int], list[float]] = {}
        self._required_levels: dict[int, int] = {}
        self._calibration: dict[int, list[float]] = {}
        self._tenant_channels: dict[str, dict[int, int]] = {}
        self._retire_reasons: dict[str, int] = {}
        self.decoder_stats: dict[str, dict[str, int]] = {}
        self.trajectories: list[dict[str, Any]] = []
        self.aggregate_only_reads = 0

    @property
    def events(self) -> int:
        """Flash reads recorded, including aggregate-only ones."""
        return sum(acc[0] for acc in self._mode_acc.values())

    # --- per-block numpy views ------------------------------------------------------

    @property
    def reads(self) -> np.ndarray:
        return np.asarray(self._reads, dtype=np.int64)

    @property
    def bits_read(self) -> np.ndarray:
        return self.reads * self.page_bits

    @property
    def observed_errors(self) -> np.ndarray:
        return np.asarray(self._observed_errors, dtype=np.int64)

    @property
    def analytic_ber_sum(self) -> np.ndarray:
        return np.asarray(self._analytic_ber_sum, dtype=np.float64)

    @property
    def retry_rounds(self) -> np.ndarray:
        return np.asarray(self._retry_rounds, dtype=np.int64)

    @property
    def uncorrectable(self) -> np.ndarray:
        return np.asarray(self._uncorrectable, dtype=np.int64)

    @property
    def pe_sum(self) -> np.ndarray:
        return np.asarray(self._pe_sum, dtype=np.float64)

    @property
    def age_sum(self) -> np.ndarray:
        return np.asarray(self._age_sum, dtype=np.float64)

    @property
    def last_pe(self) -> np.ndarray:
        return np.asarray(self._last_pe, dtype=np.float64)

    @property
    def last_mode(self) -> np.ndarray:
        return np.asarray(self._last_mode, dtype=np.int8)

    @property
    def erases(self) -> np.ndarray:
        return np.asarray(self._erases, dtype=np.int64)

    @property
    def retired(self) -> np.ndarray:
        return np.asarray(self._retired, dtype=np.int8)

    # --- ingestion ----------------------------------------------------------------

    def on_read(
        self,
        block: int,
        mode: Any,
        raw_ber: float,
        provisioned_levels: int,
        required_levels: int,
        pe_cycles: float = 0.0,
        age_hours: float = 0.0,
        channel: int = 0,
        rounds: int = 0,
        uncorrectable: bool = False,
        iterations: tuple[int, ...] = (),
        tenant: str | None = None,
    ) -> int:
        """Record one flash page read; returns the observed error count.

        The observed count is a binomial draw at the analytic raw BER
        from the telemetry's own generator — statistically faithful to
        the channel model while leaving simulation RNG streams
        untouched.  The DES observer calls this on every flash read,
        with positional arguments, so it does only the scalar updates
        it must.
        """
        # Mode objects (CellMode members, names, ints) are a tiny
        # closed set: memoise the normalisation per object, and skip
        # even the dict (an Enum hashes in Python) when the mode is
        # the previous read's.
        if mode is self._cached_mode:
            mode_code = self._cached_mode_code
        else:
            mode_code = self._mode_cache.get(mode)
            if mode_code is None:
                mode_code = self._mode_cache[mode] = _mode_int(mode)
            self._cached_mode = mode
            self._cached_mode_code = mode_code
        p = float(raw_ber)
        if p < 0.0:
            p = 0.0
        elif p > 1.0:
            p = 1.0
        observed = int(self._binomial(self.page_bits, p))

        if 0 <= block < self.n_blocks:
            self._reads[block] += 1
            self._observed_errors[block] += observed
            self._analytic_ber_sum[block] += p
            if rounds:
                self._retry_rounds[block] += rounds
            if uncorrectable:
                self._uncorrectable[block] += 1
            self._pe_sum[block] += pe_cycles
            self._age_sum[block] += age_hours
            self._last_pe[block] = pe_cycles
            self._last_mode[block] = mode_code
        else:
            self.aggregate_only_reads += 1

        # [reads, observed errors, analytic BER sum, retry rounds,
        # uncorrectable]; bits read are reads * page_bits.
        acc = self._mode_acc.get(mode_code)
        if acc is None:
            acc = self._mode_acc[mode_code] = [0, 0, 0.0, 0, 0]
        acc[0] += 1
        acc[1] += observed
        acc[2] += p
        # [reads, observed errors, retry rounds, uncorrectable]
        chan = self._channel_acc.get(channel)
        if chan is None:
            chan = self._channel_acc[channel] = [0, 0, 0, 0]
        chan[0] += 1
        chan[1] += observed
        if rounds:
            acc[3] += rounds
            chan[2] += rounds
        if uncorrectable:
            acc[4] += 1
            chan[3] += 1

        # [reads, analytic BER sum]
        key = (mode_code, provisioned_levels)
        cfg = self._sensing_configs.get(key)
        if cfg is None:
            cfg = self._sensing_configs[key] = [0, 0.0]
        cfg[0] += 1
        cfg[1] += p
        required = self._required_levels
        required[required_levels] = required.get(required_levels, 0) + 1

        if tenant is not None:
            self.note_tenant_channel(tenant, channel)

        if len(self.trajectories) < self.trajectory_cap:
            self.trajectories.append(
                {
                    "block": int(block),
                    "mode": INT_TO_MODE_NAME[mode_code],
                    "provisioned_levels": int(provisioned_levels),
                    "rounds": int(rounds),
                    "iterations": [int(i) for i in iterations],
                    "converged": not uncorrectable,
                }
            )
        return observed

    def on_erase(self, block: int, pe_cycles: float | None = None) -> None:
        """Record a successful block erase."""
        if 0 <= block < self.n_blocks:
            self._erases[block] += 1
            if pe_cycles is not None:
                self._last_pe[block] = float(pe_cycles)

    def on_retire(self, block: int, reason: str = "unknown") -> None:
        """Record a block leaving service (grown bad block)."""
        if 0 <= block < self.n_blocks:
            self._retired[block] = 1
        self._retire_reasons[reason] = self._retire_reasons.get(reason, 0) + 1

    def on_decode(
        self,
        family: str,
        *,
        iterations: int,
        converged: bool,
        corrected_bits: int = 0,
        codeword_bits: int = 0,
    ) -> None:
        """Record a bit-accurate ECC decode outcome.

        ``corrected_bits`` is the *real* hamming distance between the
        hard channel decisions and the decoded codeword — the ground
        truth the binomial estimator approximates on the latency paths.
        """
        stats = self.decoder_stats.setdefault(
            family,
            {
                "decodes": 0,
                "converged": 0,
                "failures": 0,
                "iterations": 0,
                "corrected_bits": 0,
                "codeword_bits": 0,
            },
        )
        stats["decodes"] += 1
        stats["iterations"] += int(iterations)
        if converged:
            stats["converged"] += 1
        else:
            stats["failures"] += 1
        stats["corrected_bits"] += int(corrected_bits)
        stats["codeword_bits"] += int(codeword_bits)

    def note_required_levels(self, raw_ber: float, levels: int) -> None:
        """Record a sensing-level calibration probe outcome."""
        acc = self._calibration.setdefault(int(levels), [0, 0.0])
        acc[0] += 1
        acc[1] += float(raw_ber)

    def note_tenant_channel(self, tenant: str, channel: int) -> None:
        """Record one op of ``tenant`` landing on ``channel``."""
        mix = self._tenant_channels.setdefault(str(tenant), {})
        mix[int(channel)] = mix.get(int(channel), 0) + 1

    # --- derived views --------------------------------------------------------------

    def block_stats(self) -> dict[str, np.ndarray]:
        """Per-block measured statistics (the ROADMAP item 3 API).

        Returns copies; mutating them never corrupts the accumulator.
        ``observed_ber`` / ``analytic_ber`` are 0 for unread blocks.
        """
        reads = self.reads.astype(np.float64)
        safe_reads = np.where(reads > 0, reads, 1.0)
        safe_bits = np.where(self.bits_read > 0, self.bits_read, 1).astype(np.float64)
        return {
            "reads": self.reads.copy(),
            "observed_errors": self.observed_errors.copy(),
            "observed_ber": self.observed_errors / safe_bits,
            "analytic_ber": self.analytic_ber_sum / safe_reads,
            "retry_rounds": self.retry_rounds.copy(),
            "uncorrectable": self.uncorrectable.copy(),
            "mean_pe": self.pe_sum / safe_reads,
            "mean_age_hours": self.age_sum / safe_reads,
            "last_pe": self.last_pe.copy(),
            "last_mode": self.last_mode.copy(),
            "erases": self.erases.copy(),
            "retired": self.retired.copy(),
        }

    def observed_vs_analytic(self) -> dict[str, dict[str, float]]:
        """Per-cell-mode observed vs analytic BER comparison."""
        out: dict[str, dict[str, float]] = {}
        for code in sorted(self._mode_acc):
            reads, errors, ber_sum, rounds, uncorr = self._mode_acc[code]
            bits = reads * self.page_bits
            observed = errors / bits if bits else 0.0
            analytic = ber_sum / reads if reads else 0.0
            rel = abs(observed - analytic) / analytic if analytic > 0 else 0.0
            out[INT_TO_MODE_NAME[code]] = {
                "reads": int(reads),
                "bits": int(bits),
                "observed_errors": int(errors),
                "observed_ber": observed,
                "analytic_ber": analytic,
                "relative_error": rel,
                "retry_rounds": int(rounds),
                "uncorrectable": int(uncorr),
            }
        return out

    def channel_mix(self) -> dict[str, dict[str, int]]:
        """Per-flash-channel read/error/retry totals."""
        return {
            str(channel): {
                "reads": int(acc[0]),
                "observed_errors": int(acc[1]),
                "retry_rounds": int(acc[2]),
                "uncorrectable": int(acc[3]),
            }
            for channel, acc in sorted(self._channel_acc.items())
        }

    def sensing_config_stats(self) -> list[dict[str, Any]]:
        """Sensing-ladder utilization with exact per-config LLR tables.

        Each entry describes one (cell mode, provisioned levels)
        configuration actually exercised, its mean analytic raw BER and
        the exact region-LLR magnitudes a
        :class:`~repro.ecc.ldpc.channel.NandReadChannel` at that mean
        BER would produce.  Computed at export — zero per-read cost.
        """
        from repro.ecc.ldpc.channel import NandReadChannel

        entries = []
        for (mode_code, levels), (count, ber_sum) in sorted(
            self._sensing_configs.items()
        ):
            mean_ber = ber_sum / count if count else 0.0
            entry: dict[str, Any] = {
                "mode": INT_TO_MODE_NAME[mode_code],
                "provisioned_levels": int(levels),
                "reads": int(count),
                "mean_raw_ber": mean_ber,
            }
            clipped = min(max(mean_ber, 1e-12), 0.499999)
            nand = NandReadChannel(clipped, extra_levels=int(levels))
            entry["llr_magnitudes"] = [
                round(abs(float(llr)), 6) for llr in nand.region_llrs
            ]
            entries.append(entry)
        return entries

    # --- export ---------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Deterministic, wall-free ``repro.channel/1`` artifact payload."""
        stats = self.block_stats()
        active = np.flatnonzero(
            (self.reads > 0) | (self.erases > 0) | (self.retired > 0)
        )
        blocks = []
        for b in active.tolist():
            blocks.append(
                {
                    "block": int(b),
                    "reads": int(stats["reads"][b]),
                    "observed_errors": int(stats["observed_errors"][b]),
                    "observed_ber": round(float(stats["observed_ber"][b]), 12),
                    "analytic_ber": round(float(stats["analytic_ber"][b]), 12),
                    "retry_rounds": int(stats["retry_rounds"][b]),
                    "uncorrectable": int(stats["uncorrectable"][b]),
                    "mean_pe": round(float(stats["mean_pe"][b]), 6),
                    "mean_age_hours": round(float(stats["mean_age_hours"][b]), 6),
                    "last_mode": INT_TO_MODE_NAME.get(
                        int(stats["last_mode"][b]), "unread"
                    ),
                    "erases": int(stats["erases"][b]),
                    "retired": bool(stats["retired"][b]),
                }
            )
        payload: dict[str, Any] = {
            "schema": CHANNEL_SCHEMA,
            "config": {
                "n_blocks": self.n_blocks,
                "page_bits": self.page_bits,
                "seed": self.seed,
                "trajectory_cap": self.trajectory_cap,
            },
            "totals": {
                "events": self.events,
                "reads": int(self.reads.sum()) + self.aggregate_only_reads,
                "aggregate_only_reads": self.aggregate_only_reads,
                "observed_errors": int(
                    sum(acc[1] for acc in self._mode_acc.values())
                ),
                "retry_rounds": int(sum(acc[3] for acc in self._mode_acc.values())),
                "sensing_escalations": int(
                    sum(acc[3] for acc in self._mode_acc.values())
                ),
                "uncorrectable": int(sum(acc[4] for acc in self._mode_acc.values())),
                "erases": int(self.erases.sum()),
                "retired_blocks": int(self.retired.sum()),
            },
            "blocks": blocks,
            "modes": self.observed_vs_analytic(),
            "channels": self.channel_mix(),
            "sensing_configs": self.sensing_config_stats(),
            "required_levels_histogram": {
                str(levels): count
                for levels, count in sorted(self._required_levels.items())
            },
            "calibration": {
                str(levels): {
                    "probes": int(acc[0]),
                    "mean_raw_ber": round(acc[1] / acc[0], 12) if acc[0] else 0.0,
                }
                for levels, acc in sorted(self._calibration.items())
            },
            "trajectories": list(self.trajectories),
            "decoders": {
                family: dict(stats)
                for family, stats in sorted(self.decoder_stats.items())
            },
            "tenants": {
                tenant: {str(ch): n for ch, n in sorted(mix.items())}
                for tenant, mix in sorted(self._tenant_channels.items())
            },
            "retire_reasons": dict(sorted(self._retire_reasons.items())),
        }
        payload["fingerprint"] = channel_fingerprint(payload)
        return payload


#: Stable 16-hex-digit fingerprint of a channel artifact payload.
channel_fingerprint = fingerprint


def render_block_heatmap(
    values: np.ndarray,
    *,
    width: int = 32,
    glyphs: str = HEATMAP_GLYPHS,
) -> list[str]:
    """Render per-block values as ASCII heatmap rows.

    Values are scaled linearly onto the glyph ramp; all-zero input
    renders as the lightest glyph.  Rows are ``width`` blocks wide, in
    block order, so physical locality (and the block→channel striping)
    is visible by eye.
    """
    if width <= 0:
        raise ConfigurationError(f"non-positive heatmap width: {width}")
    if len(glyphs) < 2:
        raise ConfigurationError("heatmap needs at least two glyphs")
    values = np.asarray(values, dtype=np.float64)
    peak = float(values.max()) if values.size else 0.0
    scaled = values / peak if peak > 0 else np.zeros_like(values)
    indices = np.minimum(
        (scaled * (len(glyphs) - 1)).round().astype(int), len(glyphs) - 1
    )
    rows = []
    for start in range(0, values.size, width):
        row = indices[start : start + width]
        rows.append("".join(glyphs[i] for i in row.tolist()))
    return rows


def diff_channel_artifacts(
    left: Mapping[str, Any], right: Mapping[str, Any]
) -> dict[str, Any]:
    """Structured diff of two channel artifacts (the ``--vs`` view).

    Compares sensing-level utilization shares and per-mode BER — the
    paper's Fig. 6 mechanism (FlexLevel shifting reads to cheaper
    sensing configurations) made visible.
    """
    for side, payload in (("left", left), ("right", right)):
        if payload.get("schema") != CHANNEL_SCHEMA:
            raise ConfigurationError(
                f"{side} artifact is not {CHANNEL_SCHEMA}: "
                f"{payload.get('schema')!r}"
            )

    def level_shares(payload: Mapping[str, Any]) -> dict[int, float]:
        configs = payload.get("sensing_configs", [])
        total = sum(entry["reads"] for entry in configs) or 1
        shares: dict[int, float] = {}
        for entry in configs:
            levels = int(entry["provisioned_levels"])
            shares[levels] = shares.get(levels, 0.0) + entry["reads"] / total
        return shares

    left_shares, right_shares = level_shares(left), level_shares(right)
    levels_diff = {
        str(levels): {
            "left_share": round(left_shares.get(levels, 0.0), 6),
            "right_share": round(right_shares.get(levels, 0.0), 6),
            "delta": round(
                right_shares.get(levels, 0.0) - left_shares.get(levels, 0.0), 6
            ),
        }
        for levels in sorted(set(left_shares) | set(right_shares))
    }
    modes_diff = {}
    for mode in sorted(set(left.get("modes", {})) | set(right.get("modes", {}))):
        lm = left.get("modes", {}).get(mode, {})
        rm = right.get("modes", {}).get(mode, {})
        modes_diff[mode] = {
            "left_observed_ber": lm.get("observed_ber", 0.0),
            "right_observed_ber": rm.get("observed_ber", 0.0),
            "left_reads": lm.get("reads", 0),
            "right_reads": rm.get("reads", 0),
        }
    left_totals = left.get("totals", {})
    right_totals = right.get("totals", {})
    return {
        "schema": "repro.channel-diff/1",
        "fingerprints": {
            "left": left.get("fingerprint", ""),
            "right": right.get("fingerprint", ""),
        },
        "sensing_level_shares": levels_diff,
        "modes": modes_diff,
        "totals": {
            key: {
                "left": left_totals.get(key, 0),
                "right": right_totals.get(key, 0),
                "delta": right_totals.get(key, 0) - left_totals.get(key, 0),
            }
            for key in (
                "reads",
                "observed_errors",
                "sensing_escalations",
                "uncorrectable",
            )
        },
    }
