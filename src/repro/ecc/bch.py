"""Binary BCH codec — the hard-decision ECC baseline.

At 3x-nm nodes NAND storage systems protect pages with BCH codes
(paper §1); LDPC replaces them at 2x-nm because BCH's correction
strength no longer covers the raw BER.  This module implements a
complete binary BCH codec over GF(2^m):

* code construction from the design distance (generator polynomial as
  the LCM of minimal polynomials of alpha .. alpha^{2t}),
* systematic encoding by polynomial division,
* decoding via syndromes, Berlekamp–Massey and Chien search.

Bit vectors are numpy uint8 arrays; index 0 is the first message bit.
"""

from __future__ import annotations

import numpy as np

from repro.ecc.galois import GF2m
from repro.errors import ConfigurationError, DecodingFailure


class BchCode:
    """A binary BCH code over GF(2^m) correcting ``t`` bit errors.

    Parameters
    ----------
    m:
        Field exponent; the natural code length is ``n = 2^m - 1``.
    t:
        Design error-correction capability in bits.
    shortened_k:
        Optional shortened message length.  When given, the code is
        used in shortened form: messages of ``shortened_k`` bits are
        zero-padded to the natural ``k`` before encoding and the pad is
        stripped after decoding.
    """

    #: Optional :class:`repro.obs.channel.ChannelTelemetry` sink; when
    #: bound, every decode reports its outcome and the real number of
    #: corrected bits under the ``bch`` decoder family.
    telemetry = None

    def bind_telemetry(self, telemetry) -> None:
        self.telemetry = telemetry

    def __init__(self, m: int, t: int, shortened_k: int | None = None):
        if t <= 0:
            raise ConfigurationError(f"non-positive correction capability t={t}")
        self.field = GF2m(m)
        self.m = m
        self.t = t
        self.n = self.field.order
        self.generator = self._build_generator()
        self.n_parity = len(self.generator) - 1
        self.k = self.n - self.n_parity
        if self.k <= 0:
            raise ConfigurationError(
                f"BCH(m={m}, t={t}) leaves no message bits (k={self.k})"
            )
        if shortened_k is not None:
            if not 0 < shortened_k <= self.k:
                raise ConfigurationError(
                    f"shortened_k={shortened_k} outside (0, {self.k}]"
                )
            self.message_length = shortened_k
        else:
            self.message_length = self.k
        self.codeword_length = self.message_length + self.n_parity
        # Polynomial degree of each received bit: the message holds the
        # highest degrees, the parity the lowest, and the virtual zero
        # pad of a shortened code the ones in between.
        self._degrees = np.concatenate(
            [
                self.n - 1 - np.arange(self.message_length),
                np.arange(self.n_parity - 1, -1, -1),
            ]
        )
        self._syndrome_powers = np.arange(1, 2 * t + 1)[:, None]
        # The generator as one int: bit i is the coefficient of x^i.
        self._generator_bits = sum(c << i for i, c in enumerate(self.generator))

    @property
    def rate(self) -> float:
        """Code rate (message bits per codeword bit)."""
        return self.message_length / self.codeword_length

    # --- encoding ---------------------------------------------------------------

    def encode(self, message: np.ndarray) -> np.ndarray:
        """Systematic encoding: ``[message | parity]``."""
        message = self._as_bits(message, self.message_length, "message")
        padded = np.zeros(self.k, dtype=np.uint8)
        padded[: self.message_length] = message
        parity = self._polynomial_remainder(padded)
        return np.concatenate([message, parity])

    # --- decoding -----------------------------------------------------------------

    def decode(self, received: np.ndarray) -> np.ndarray:
        """Correct up to ``t`` bit errors and return the message bits.

        Raises
        ------
        DecodingFailure
            If the error pattern exceeds the code's capability (when
            detectable).
        """
        try:
            message, corrected_bits = self._decode_counted(received)
        except DecodingFailure:
            if self.telemetry is not None:
                self.telemetry.on_decode(
                    "bch",
                    iterations=1,
                    converged=False,
                    corrected_bits=0,
                    codeword_bits=self.codeword_length,
                )
            raise
        if self.telemetry is not None:
            self.telemetry.on_decode(
                "bch",
                iterations=1,
                converged=True,
                corrected_bits=corrected_bits,
                codeword_bits=self.codeword_length,
            )
        return message

    def _decode_counted(self, received: np.ndarray) -> tuple[np.ndarray, int]:
        """Decode and also return the number of bits corrected."""
        received = self._as_bits(received, self.codeword_length, "received word")
        syndromes = self._syndromes(received)
        if not any(syndromes):
            return received[: self.message_length].copy(), 0
        locator = self._berlekamp_massey(syndromes)
        error_positions = self._chien_search(locator)
        # Roots in the virtual pad of a shortened code are not among the
        # positions, so they surface here as missing roots.
        if len(error_positions) != len(locator) - 1:
            raise DecodingFailure(
                f"error locator degree {len(locator) - 1} but "
                f"{len(error_positions)} roots found — more than t={self.t} errors"
            )
        corrected = received.copy()
        corrected[error_positions] ^= 1
        if any(self._syndromes(corrected)):
            raise DecodingFailure("residual syndrome after correction")
        return corrected[: self.message_length], len(error_positions)

    def detect_errors(self, received: np.ndarray) -> bool:
        """True if the received word has a non-zero syndrome."""
        received = self._as_bits(received, self.codeword_length, "received word")
        return any(self._syndromes(received))

    # --- internals ------------------------------------------------------------------

    def _build_generator(self) -> list[int]:
        """Generator polynomial: lcm of minimal polys of alpha^1..alpha^2t."""
        field = self.field
        seen_polys: set[tuple[int, ...]] = set()
        generator = [1]
        for i in range(1, 2 * self.t + 1):
            minimal = tuple(field.minimal_polynomial(field.alpha_pow(i)))
            if minimal in seen_polys:
                continue
            seen_polys.add(minimal)
            generator = field.poly_mul(generator, list(minimal))
        return generator

    def _polynomial_remainder(self, message_bits: np.ndarray) -> np.ndarray:
        """Remainder of ``message * x^parity`` divided by the generator.

        Long division over GF(2) on Python ints (bit ``i`` is the
        coefficient of ``x^i``); the parity comes back degree-descending.
        """
        packed = np.packbits(message_bits)
        message = int.from_bytes(packed.tobytes(), "big") >> (
            8 * packed.size - message_bits.size
        )
        remainder = message << self.n_parity
        while (top := remainder.bit_length()) > self.n_parity:
            remainder ^= self._generator_bits << (top - 1 - self.n_parity)
        parity = remainder.to_bytes((self.n_parity + 7) // 8, "big")
        return np.unpackbits(np.frombuffer(parity, dtype=np.uint8))[-self.n_parity :]

    def _syndromes(self, received: np.ndarray) -> list[int]:
        """``S_i = r(alpha^i)`` for i = 1..2t: one exponent matrix
        ``(i * degree) mod n`` over the set bits, XOR-reduced per row."""
        degrees = self._degrees[np.flatnonzero(received)]
        powers = (self._syndrome_powers * degrees) % self.n
        return np.bitwise_xor.reduce(self.field._exp[powers], axis=1).tolist()

    def _berlekamp_massey(self, syndromes: list[int]) -> list[int]:
        """Error-locator polynomial (coefficients, index = degree)."""
        field = self.field
        locator = [1]
        prev_locator = [1]
        discrepancy_prev = 1
        length = 0
        shift = 1
        for n, syndrome in enumerate(syndromes):
            discrepancy = syndrome
            for i in range(1, length + 1):
                if i < len(locator) and locator[i]:
                    discrepancy ^= field.mul(locator[i], syndromes[n - i])
            if discrepancy == 0:
                shift += 1
                continue
            scale = field.div(discrepancy, discrepancy_prev)
            adjustment = [0] * shift + [field.mul(scale, c) for c in prev_locator]
            new_locator = list(locator) + [0] * max(0, len(adjustment) - len(locator))
            for i, coeff in enumerate(adjustment):
                new_locator[i] ^= coeff
            if 2 * length <= n:
                prev_locator = list(locator)
                discrepancy_prev = discrepancy
                length = n + 1 - length
                shift = 1
            else:
                shift += 1
            locator = new_locator
        while len(locator) > 1 and locator[-1] == 0:
            locator.pop()
        return locator

    def _chien_search(self, locator: list[int]) -> list[int]:
        """Positions (codeword indices) of the located errors.

        A candidate error at polynomial degree ``d`` is a locator root
        ``alpha^-d``.  The locator is evaluated at all ``n`` candidates
        at once: term ``c_j x^j`` is ``alpha^(log c_j - j d)``, so one
        exponent matrix is gathered from the field table and XOR-reduced
        per candidate.  Roots in the virtual zero pad of a shortened
        code are dropped.
        """
        field = self.field
        coeffs = np.asarray(locator)
        powers = np.flatnonzero(coeffs)[:, None]
        logs = field._log[coeffs[powers]]
        exponents = (logs - powers * np.arange(self.n)) % field.order
        values = np.bitwise_xor.reduce(field._exp[exponents], axis=0)
        index = self.n - 1 - np.flatnonzero(values == 0)
        index = index[(index < self.message_length) | (index >= self.k)]
        # Map full-length indices back into the shortened layout.
        positions = np.where(
            index < self.message_length, index, index - self.k + self.message_length
        )
        return np.sort(positions).tolist()

    @staticmethod
    def _as_bits(bits: np.ndarray, expected: int, label: str) -> np.ndarray:
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.ndim != 1 or bits.size != expected:
            raise ConfigurationError(
                f"{label} must be a 1-D array of {expected} bits, got shape {bits.shape}"
            )
        if np.any(bits > 1):
            raise ConfigurationError(f"{label} contains non-binary values")
        return bits
