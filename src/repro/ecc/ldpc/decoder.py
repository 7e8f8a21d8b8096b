"""LDPC decoders: hard-decision bit-flip and soft-decision min-sum.

The bit-flip decoder (Gallager's algorithm A flavour) models the
hard-decision LDPC mode the paper uses at low BER; the normalized
min-sum decoder consumes the quantized LLRs produced by the NAND
soft-sensing channel and models the soft-decision mode.  Both report
the iterations spent, which feed the decode-latency accounting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ecc.ldpc.code import LdpcCode
from repro.errors import ConfigurationError, DecodingFailure
from repro.obs.metrics import MetricsRegistry


@dataclass(frozen=True)
class DecodeResult:
    """Decoder output: the codeword, iterations used and convergence."""

    codeword: np.ndarray
    iterations: int
    converged: bool


class _InstrumentedDecoder:
    """Optional ``ecc.ldpc.*`` metric reporting shared by the decoders.

    Bit-accurate decodes are rare enough (tests, calibration sweeps)
    that per-decode instrument updates are free; with neither a
    registry nor a media-telemetry sink bound the hook is a no-op.
    ``ecc.ldpc.iterations`` is a streaming histogram (its ``.sum``
    preserves the old counter total while exposing p50/p95/p99).
    """

    registry: MetricsRegistry | None = None
    #: Optional :class:`repro.obs.channel.ChannelTelemetry` sink; these
    #: bit-accurate paths report *real* corrected-bit counts into it.
    telemetry = None
    #: Decoder family label in the telemetry artifact.
    family = "ldpc"

    def bind_registry(self, registry: MetricsRegistry | None) -> None:
        self.registry = registry

    def bind_telemetry(self, telemetry) -> None:
        self.telemetry = telemetry

    def _record_decode(
        self,
        iterations: int,
        converged: bool,
        corrected_bits: int = 0,
        codeword_bits: int = 0,
    ) -> None:
        if self.registry is not None:
            self.registry.counter("ecc.ldpc.decodes").inc()
            self.registry.histogram("ecc.ldpc.iterations").observe(iterations)
            if not converged:
                self.registry.counter("ecc.ldpc.failures").inc()
        if self.telemetry is not None:
            self.telemetry.on_decode(
                self.family,
                iterations=iterations,
                converged=converged,
                corrected_bits=corrected_bits,
                codeword_bits=codeword_bits,
            )


class BitFlipDecoder(_InstrumentedDecoder):
    """Hard-decision bit-flip decoding (Gallager's BF algorithm).

    Each iteration flips the bits involved in the *most* unsatisfied
    checks; convergence is a zero syndrome.  Flipping only the worst
    offenders (rather than every majority-unsatisfied bit) avoids the
    oscillation that parallel flipping suffers on column-weight-3 codes.
    """

    family = "ldpc.bitflip"

    def __init__(
        self,
        code: LdpcCode,
        max_iterations: int = 100,
        registry: MetricsRegistry | None = None,
    ):
        if max_iterations <= 0:
            raise ConfigurationError("max_iterations must be positive")
        self.code = code
        self.max_iterations = max_iterations
        self.bind_registry(registry)

    def decode(self, hard_bits: np.ndarray) -> DecodeResult:
        """Decode hard channel decisions; raises on non-convergence."""
        word = np.asarray(hard_bits, dtype=np.uint8).copy()
        if word.shape != (self.code.n,):
            raise ConfigurationError(f"expected {self.code.n} bits")
        received = word.copy() if self.telemetry is not None else None

        def corrected(decoded: np.ndarray) -> int:
            if received is None:
                return 0
            return int(np.count_nonzero(received != decoded))

        h = self.code.h
        for iteration in range(self.max_iterations):
            syndrome = (h @ word) % 2
            if not syndrome.any():
                self._record_decode(
                    iteration, True, corrected(word), self.code.n
                )
                return DecodeResult(word, iteration, True)
            unsatisfied = h.T @ syndrome  # per-variable count of failing checks
            word[unsatisfied == unsatisfied.max()] ^= 1
        syndrome = (h @ word) % 2
        if not syndrome.any():
            self._record_decode(
                self.max_iterations, True, corrected(word), self.code.n
            )
            return DecodeResult(word, self.max_iterations, True)
        self._record_decode(self.max_iterations, False, 0, self.code.n)
        raise DecodingFailure(
            "bit-flip decoder did not converge", iterations=self.max_iterations
        )


class EdgeLayout:
    """The Tanner-graph edges of a parity-check matrix, grouped by check.

    Edges are the ``(check, variable)`` pairs of ``H`` in row-major
    order, so every check's edges are contiguous and :attr:`var` holds
    each edge's variable node.  One ``np.ufunc.reduceat`` over
    :attr:`starts` (the first edge of every non-empty check; the
    matching :attr:`stops` are exclusive) reduces all checks at once;
    :attr:`segment` maps each edge to its check's position in
    :attr:`starts`, and :attr:`inactive` marks the edges of checks with
    fewer than two edges, whose outgoing message is always 0.
    """

    def __init__(self, h: np.ndarray):
        checks, variables = np.nonzero(h)
        degrees = np.bincount(checks, minlength=h.shape[0])
        nonempty = degrees > 0
        self.var = variables
        self.n_edges = checks.size
        self.starts = (np.cumsum(degrees) - degrees)[nonempty]
        self.stops = self.starts + degrees[nonempty]
        self.segment = np.repeat(np.arange(self.starts.size), degrees[nonempty])
        self.inactive = (degrees < 2)[checks]
        self.index = np.arange(self.n_edges)

    def satisfied(self, word: np.ndarray) -> bool:
        """True when ``word`` meets every parity check (a zero syndrome,
        computed over the edges instead of the dense ``H``)."""
        return not np.bitwise_xor.reduceat(word[self.var], self.starts).any()


class _SoftDecoder(_InstrumentedDecoder):
    """Flooding message passing on LLR input (positive LLR = bit 0).

    Subclasses supply the check-node rule, :meth:`_check_messages`,
    which maps the variable-to-check messages of every edge to the
    check-to-variable messages in one whole-array pass; the variable
    update, tentative decision and convergence test are shared.  Each
    subclass defines its own ``decode`` so that per-decoder timing
    shims (``perf/layers.py``) find it on the class itself.
    """

    #: Decoder name in the non-convergence message.
    label = "soft"

    def __init__(
        self,
        code: LdpcCode,
        max_iterations: int = 30,
        registry: MetricsRegistry | None = None,
    ):
        if max_iterations <= 0:
            raise ConfigurationError("max_iterations must be positive")
        self.code = code
        self.max_iterations = max_iterations
        self.bind_registry(registry)
        self.edges = EdgeLayout(code.h)

    def _check_messages(self, var_msgs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _propagate(self, llrs: np.ndarray) -> DecodeResult:
        llrs = np.asarray(llrs, dtype=float)
        if llrs.shape != (self.code.n,):
            raise ConfigurationError(f"expected {self.code.n} LLRs")
        if not np.isfinite(llrs).all():
            raise ConfigurationError("LLRs must be finite")
        hard = (llrs < 0) if self.telemetry is not None else None
        edge_var = self.edges.var
        var_msgs = llrs[edge_var]
        for iteration in range(self.max_iterations):
            check_msgs = self._check_messages(var_msgs)
            # Variable update and tentative decision.
            totals = llrs + np.bincount(
                edge_var, weights=check_msgs, minlength=self.code.n
            )
            word = (totals < 0).astype(np.uint8)
            if self.edges.satisfied(word):
                flipped = (
                    0
                    if hard is None
                    else int(np.count_nonzero(hard != (word != 0)))
                )
                self._record_decode(iteration + 1, True, flipped, self.code.n)
                return DecodeResult(word, iteration + 1, True)
            var_msgs = totals[edge_var] - check_msgs
        self._record_decode(self.max_iterations, False, 0, self.code.n)
        raise DecodingFailure(
            f"{self.label} decoder did not converge", iterations=self.max_iterations
        )


class MinSumDecoder(_SoftDecoder):
    """Normalized min-sum decoding on LLR input.

    Positive LLR means bit = 0.  The normalization factor (default
    0.75) recovers most of the sum-product performance at a fraction of
    the cost, matching common NAND controller implementations.
    """

    family = "ldpc.minsum"
    label = "min-sum"

    def __init__(
        self,
        code: LdpcCode,
        max_iterations: int = 30,
        normalization: float = 0.75,
        registry: MetricsRegistry | None = None,
    ):
        if not 0 < normalization <= 1:
            raise ConfigurationError(f"normalization {normalization} outside (0, 1]")
        super().__init__(code, max_iterations, registry)
        self.normalization = normalization

    def decode(self, llrs: np.ndarray) -> DecodeResult:
        """Decode channel LLRs; raises on non-convergence."""
        return self._propagate(llrs)

    def _check_messages(self, var_msgs: np.ndarray) -> np.ndarray:
        """Outgoing = prod(sign) * min(|in|) over a check's other edges,
        scaled by the normalization factor."""
        edges = self.edges
        signs = np.sign(var_msgs)
        signs[signs == 0] = 1.0
        magnitudes = np.abs(var_msgs)
        out_mags = np.minimum.reduceat(magnitudes, edges.starts)[edges.segment]
        # The first edge holding a check's minimum hears the second
        # smallest magnitude (equal to the minimum on a tie); every
        # other edge hears the minimum.
        first = np.minimum.reduceat(
            np.where(magnitudes == out_mags, edges.index, edges.n_edges),
            edges.starts,
        )
        masked = magnitudes.copy()
        masked[first] = np.inf
        out_mags[first] = np.minimum.reduceat(masked, edges.starts)
        total_sign = np.multiply.reduceat(signs, edges.starts)
        check_msgs = (
            self.normalization * total_sign[edges.segment] * signs * out_mags
        )
        check_msgs[edges.inactive] = 0.0
        return check_msgs
