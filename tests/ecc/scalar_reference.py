"""Scalar reference implementations of the whole-array ECC kernels.

These are the per-check, per-power loops the decoders used before they
were vectorised, and the dense uint8 mat-vecs of the LDPC encoder and
syndrome, kept verbatim as differential oracles: the production kernels
must reproduce them bit for bit (check messages, codewords, iteration
counts, syndromes, error positions and exceptions).
"""

from __future__ import annotations

import numpy as np

from repro.ecc.bch import BchCode
from repro.ecc.ldpc.code import LdpcCode
from repro.ecc.ldpc.decoder import DecodeResult
from repro.errors import DecodingFailure

_TANH_CLIP = 1.0 - 1e-12


def check_slices(h: np.ndarray) -> np.ndarray:
    """Per-check ``[start, stop)`` bounds of the row-major edge list."""
    checks, _ = np.nonzero(h)
    return np.searchsorted(checks, np.arange(h.shape[0] + 1))


def minsum_check_messages(
    h: np.ndarray, var_msgs: np.ndarray, normalization: float
) -> np.ndarray:
    """The per-check ``argsort`` loop of normalized min-sum."""
    slices = check_slices(h)
    check_msgs = np.zeros(var_msgs.size)
    signs = np.sign(var_msgs)
    signs[signs == 0] = 1.0
    magnitudes = np.abs(var_msgs)
    for check in range(len(slices) - 1):
        start, stop = slices[check], slices[check + 1]
        if stop - start < 2:
            check_msgs[start:stop] = 0.0
            continue
        seg_signs = signs[start:stop]
        seg_mags = magnitudes[start:stop]
        total_sign = np.prod(seg_signs)
        order = np.argsort(seg_mags)
        min1, min2 = seg_mags[order[0]], seg_mags[order[1]]
        out_mags = np.full(stop - start, min1)
        out_mags[order[0]] = min2
        check_msgs[start:stop] = normalization * total_sign * seg_signs * out_mags
    return check_msgs


def sumproduct_check_messages(h: np.ndarray, var_msgs: np.ndarray) -> np.ndarray:
    """The per-check leave-one-out product loop of belief propagation."""
    slices = check_slices(h)
    check_msgs = np.zeros(var_msgs.size)
    tanh_half = np.clip(np.tanh(var_msgs / 2.0), -_TANH_CLIP, _TANH_CLIP)
    for check in range(len(slices) - 1):
        start, stop = slices[check], slices[check + 1]
        if stop - start < 2:
            check_msgs[start:stop] = 0.0
            continue
        segment = tanh_half[start:stop]
        total = np.prod(segment)
        with np.errstate(divide="ignore", invalid="ignore"):
            leave_one_out = np.where(segment != 0.0, total / segment, 0.0)
        if (segment == 0.0).any():
            for i in np.flatnonzero(segment == 0.0):
                others = np.delete(segment, i)
                leave_one_out[i] = np.prod(others)
        leave_one_out = np.clip(leave_one_out, -_TANH_CLIP, _TANH_CLIP)
        check_msgs[start:stop] = 2.0 * np.arctanh(leave_one_out)
    return check_msgs


def soft_decode(code: LdpcCode, llrs: np.ndarray, check_rule, max_iterations: int):
    """The flooding loop both soft decoders ran, with the dense-``H``
    convergence test; ``check_rule(h, var_msgs)`` is the check update."""
    llrs = np.asarray(llrs, dtype=float)
    _, edge_var = np.nonzero(code.h)
    var_msgs = llrs[edge_var].copy()
    for iteration in range(max_iterations):
        check_msgs = check_rule(code.h, var_msgs)
        totals = llrs + np.bincount(edge_var, weights=check_msgs, minlength=code.n)
        word = (totals < 0).astype(np.uint8)
        if code.is_codeword(word):
            return DecodeResult(word, iteration + 1, True)
        var_msgs = totals[edge_var] - check_msgs
    raise DecodingFailure("did not converge", iterations=max_iterations)


# --- BCH ------------------------------------------------------------------------


def bch_polynomial_remainder(code: BchCode, message_bits: np.ndarray) -> np.ndarray:
    """The per-bit numpy LFSR systematic encoder."""
    register = np.zeros(code.n_parity, dtype=np.uint8)
    gen = np.array(code.generator[:-1], dtype=np.uint8)
    for bit in message_bits:
        feedback = bit ^ register[-1]
        register[1:] = register[:-1]
        register[0] = 0
        if feedback:
            register ^= gen
    return register[::-1].copy()


def bch_encode(code: BchCode, message: np.ndarray) -> np.ndarray:
    padded = np.zeros(code.k, dtype=np.uint8)
    padded[: code.message_length] = message
    return np.concatenate([message, bch_polynomial_remainder(code, padded)])


def bch_syndromes(code: BchCode, received: np.ndarray) -> list[int]:
    """The 2t x popcount double loop of ``alpha_pow`` calls."""
    field = code.field
    full = np.zeros(code.n, dtype=np.uint8)
    full[: code.message_length] = received[: code.message_length]
    full[code.k :] = received[code.message_length :]
    positions = np.flatnonzero(full)
    syndromes = []
    for i in range(1, 2 * code.t + 1):
        s = 0
        for pos in positions:
            degree = code.n - 1 - int(pos)
            s ^= field.alpha_pow(i * degree)
        syndromes.append(s)
    return syndromes


def bch_locator_roots(code: BchCode, locator: list[int]) -> list[int]:
    """Full-length (unshortened) indices of every locator root, by
    Horner evaluation at each of the ``n`` candidates."""
    field = code.field
    roots = []
    for degree in range(code.n):
        x = field.alpha_pow(-degree % field.order)
        if field.poly_eval(locator, x) == 0:
            roots.append(code.n - 1 - degree)
    return roots


def bch_chien_search(code: BchCode, locator: list[int]) -> list[int]:
    """Roots mapped into the shortened layout; pad roots dropped."""
    positions = []
    for index in bch_locator_roots(code, locator):
        if index < code.message_length:
            positions.append(index)
        elif index >= code.k:
            positions.append(index - code.k + code.message_length)
    return sorted(positions)


def bch_decode(code: BchCode, received: np.ndarray) -> np.ndarray:
    """Syndromes, Berlekamp-Massey and Chien search, all scalar."""
    received = np.asarray(received, dtype=np.uint8)
    syndromes = bch_syndromes(code, received)
    if all(s == 0 for s in syndromes):
        return received[: code.message_length].copy()
    locator = code._berlekamp_massey(syndromes)
    error_positions = bch_chien_search(code, locator)
    if len(error_positions) != len(locator) - 1:
        raise DecodingFailure("locator degree and root count differ")
    corrected = received.copy()
    for position in error_positions:
        corrected[position] ^= 1
    if any(s != 0 for s in bch_syndromes(code, corrected)):
        raise DecodingFailure("residual syndrome after correction")
    return corrected[: code.message_length]


def ldpc_encode(code: LdpcCode, message: np.ndarray) -> np.ndarray:
    """The dense uint8 GF(2) mat-vec encoder."""
    return (np.asarray(message, dtype=np.uint8) @ code._generator) % 2


def ldpc_syndrome(code: LdpcCode, word: np.ndarray) -> np.ndarray:
    """The dense uint8 ``H w^T`` syndrome."""
    return (code.h @ np.asarray(word, dtype=np.uint8)) % 2
