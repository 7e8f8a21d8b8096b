"""Full sum-product (belief-propagation) LDPC decoding.

The reference decoder against which normalized min-sum is an
approximation: check-node updates use the exact
``2 atanh(prod tanh(L/2))`` rule.  Slower, but recovers a few tenths of
a dB — useful for validating the min-sum normalization factor and for
the sensing-level Monte-Carlo cross-checks at marginal BERs.
"""

from __future__ import annotations

import numpy as np

from repro.ecc.ldpc.decoder import DecodeResult, _SoftDecoder

#: Clamp on intermediate tanh-domain magnitudes to avoid atanh(1).
_TANH_CLIP = 1.0 - 1e-12


class SumProductDecoder(_SoftDecoder):
    """Exact belief propagation on LLR input (positive LLR = bit 0)."""

    family = "ldpc.sumproduct"
    label = "sum-product"

    def decode(self, llrs: np.ndarray) -> DecodeResult:
        """Decode channel LLRs; raises on non-convergence."""
        return self._propagate(llrs)

    def _check_messages(self, var_msgs: np.ndarray) -> np.ndarray:
        """Outgoing = 2 atanh of the product of tanh(L/2) over a check's
        other edges (leave-one-out: the check's product over the edge's
        own factor)."""
        edges = self.edges
        tanh_half = np.clip(np.tanh(var_msgs / 2.0), -_TANH_CLIP, _TANH_CLIP)
        total = np.multiply.reduceat(tanh_half, edges.starts)[edges.segment]
        with np.errstate(divide="ignore", invalid="ignore"):
            leave_one_out = np.where(tanh_half != 0.0, total / tanh_half, 0.0)
        # An exact zero factor has no quotient: multiply the others out.
        for edge in np.flatnonzero((tanh_half == 0.0) & ~edges.inactive):
            check = edges.segment[edge]
            start, stop = edges.starts[check], edges.stops[check]
            others = np.delete(tanh_half[start:stop], edge - start)
            leave_one_out[edge] = np.prod(others)
        leave_one_out = np.clip(leave_one_out, -_TANH_CLIP, _TANH_CLIP)
        check_msgs = 2.0 * np.arctanh(leave_one_out)
        check_msgs[edges.inactive] = 0.0
        return check_msgs
