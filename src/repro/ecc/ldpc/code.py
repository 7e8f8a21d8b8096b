"""The LDPC code object: parity-check matrix plus systematic encoder.

A :class:`LdpcCode` owns a parity-check matrix ``H`` and the matching
systematic generator derived by GF(2) elimination.  Encoding XORs the
generator rows the message selects; codewords carry the message bits in
their first ``k`` positions (after the internal column permutation,
which the code object applies transparently in both directions).
"""

from __future__ import annotations

import numpy as np

from repro.ecc.ldpc.construction import gallager_construction
from repro.ecc.ldpc.matrix import gf2_systematic_form
from repro.errors import ConfigurationError


class LdpcCode:
    """An LDPC code defined by a parity-check matrix.

    Parameters
    ----------
    parity_check:
        Binary parity-check matrix ``H`` of shape ``(m, n)``.  Redundant
        rows are tolerated (dropped when deriving the generator).
    """

    def __init__(self, parity_check: np.ndarray):
        h = np.asarray(parity_check, dtype=np.uint8)
        if h.ndim != 2:
            raise ConfigurationError("parity-check matrix must be 2-D")
        h_sys, perm, generator = gf2_systematic_form(h)
        self.n = h.shape[1]
        self.k = generator.shape[0]
        # Work in the permuted (systematic) coordinate system; keep the
        # permutation so callers never see it.  Decoding uses the
        # *original* sparse parity checks (same row space as h_sys, so
        # the generator is orthogonal to them too) — row reduction
        # would destroy the sparsity message-passing depends on.
        self.h = h[:, perm]
        self._generator = generator
        self._perm = perm
        self._inv_perm = np.empty_like(perm)
        self._inv_perm[perm] = np.arange(self.n)
        # Adjacency in the systematic coordinates, for the decoders.
        self.check_neighbors = [np.flatnonzero(row) for row in self.h]
        self.var_neighbors = [np.flatnonzero(self.h[:, col]) for col in range(self.n)]

    @classmethod
    def regular(
        cls,
        n: int,
        wc: int = 3,
        wr: int | None = None,
        rate: float | None = None,
        seed: int = 2015,
    ) -> "LdpcCode":
        """A regular Gallager code of length ``n``.

        Either ``wr`` (row weight) or ``rate`` must be given; with
        ``rate``, the row weight is ``wc / (1 - rate)`` (the paper's
        rate-8/9 code with wc = 3 gives wr = 27).
        """
        if (wr is None) == (rate is None):
            raise ConfigurationError("give exactly one of wr and rate")
        if wr is None:
            if not 0 < rate < 1:
                raise ConfigurationError(f"rate {rate} outside (0, 1)")
            wr = round(wc / (1.0 - rate))
        rng = np.random.default_rng(seed)
        return cls(gallager_construction(n, wc, wr, rng))

    @property
    def rate(self) -> float:
        """Actual code rate ``k / n``."""
        return self.k / self.n

    # --- encode / check ------------------------------------------------------------

    def encode(self, message: np.ndarray) -> np.ndarray:
        """Systematic encoding; the first ``k`` codeword bits are the message."""
        message = np.asarray(message, dtype=np.uint8)
        if message.shape != (self.k,):
            raise ConfigurationError(f"message must have {self.k} bits")
        if message.size and message.max() > 1:
            raise ConfigurationError("message bits must be 0/1")
        return np.bitwise_xor.reduce(self._generator[message.astype(bool)], axis=0)

    def extract_message(self, codeword: np.ndarray) -> np.ndarray:
        """Message bits of a (corrected) codeword."""
        codeword = np.asarray(codeword, dtype=np.uint8)
        if codeword.shape != (self.n,):
            raise ConfigurationError(f"codeword must have {self.n} bits")
        return codeword[: self.k].copy()

    def syndrome(self, word: np.ndarray) -> np.ndarray:
        """GF(2) syndrome ``H w^T``; all-zero means a valid codeword."""
        word = np.asarray(word, dtype=np.uint8)
        if word.shape != (self.n,):
            raise ConfigurationError(f"word must have {self.n} bits")
        # Each odd entry of the word selects its column of H once, as
        # in the mod-2 product.
        return np.bitwise_xor.reduce(self.h[:, (word & 1).astype(bool)], axis=1)

    def is_codeword(self, word: np.ndarray) -> bool:
        """True when the word satisfies every parity check."""
        return not np.any(self.syndrome(word))
