"""Monte Carlo lab for the 5-ary typewriter channel at crossover 1/2.

Each symbol is received either unchanged or shifted up by one (mod 5), with
probability 1/2 independently.  Every output is therefore equally likely
among the 2^n words reachable from the input, so maximum-likelihood
decoding is a uniform choice among the codewords that could have produced
the received word.  The simulator decodes whole batches: a table per code
holds, for each coordinate and received symbol, the bitset of codewords that
can produce it ("received minus sent is 0 or 1 (mod 5)"), packed into
64-bit words, and each trial ANDs one row of words per coordinate.  Raw
Philox words are drawn in a fixed per-trial layout, which makes results
independent of batch size, and a trial compares the sent word's rank among
the plausible ones, counted by np.bitwise_count, with the tie pick, so it
never lists the candidates.  Trials run in blocks cut to a 1 MiB
working-memory budget, so a block stays in cache.  A short code has few
(message, noise pattern) pairs, m 2^n for m words of length n; when they
fit in the caller's batch and number no more than the trials, each pair is
decoded once, block by block, into a table of ranks and counts, and a
trial only looks its pair up.  No error count depends on the batch,
the block size or the choice of decoder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .construction import _symbols
from .scalars import INF, word_distance

__all__ = [
    "confusion_prob",
    "SimResult",
    "monte_carlo_pe",
]

_WORDS_PER_TRIAL = 4  # message, noise bits, tie break, reserved
_BATCH_BYTES = 1 << 20  # working memory of one block, by the per-trial bound
_TABLE_PAIRS = 1 << 20  # most (message, noise) pairs decoded once: 16 MiB


def confusion_prob(x, y) -> float:
    """Probability that independent transmissions of x and y coincide.

    Per coordinate this is 1/2 for equal symbols, 1/4 for cyclically
    adjacent ones, and 0 otherwise, so the product is 2^-(n + d(x, y)).
    """
    if tuple(x) == tuple(y):
        raise ValueError("confusion probability needs two distinct words")
    d = word_distance(x, y)
    if d == INF:
        return 0.0
    return 2.0 ** -(len(tuple(x)) + d)


def _words(bits: np.ndarray) -> np.ndarray:
    """Pack the last axis of a bool array into little-endian uint64 words:
    bit j goes to bit j % 64 of word j // 64, and the padding bits are clear."""
    packed = np.packbits(bits, axis=-1, bitorder="little")
    padded = np.zeros((*packed.shape[:-1], 8 * -(-bits.shape[-1] // 64)), dtype=np.uint8)
    padded[..., :packed.shape[-1]] = packed
    return padded.view("<u8")


def _plausible_table(code: np.ndarray) -> np.ndarray:
    """(n, 5, ceil(m/64)) uint64: bit j of [c, s] is set when codeword j can
    produce symbol s at coordinate c, i.e. (s - code[j, c]) mod 5 is 0 or 1.

    Codeword j is bit j % 64 of word j // 64, and the padding bits past m
    are clear.
    """
    fits = (np.arange(5, dtype=np.int8)[None, :, None] - code.T[:, None, :]) % 5 <= 1
    return _words(fits)


def _rank_and_count(table: np.ndarray, columns: np.ndarray, msg: np.ndarray, noise: np.ndarray):
    """For each (message, noise) pair, the number of codewords that can
    produce the received word, and the sent word's rank among them in code
    order: the bitset decoder behind monte_carlo_pe.

    msg holds message indices (intp) and noise the noise bits, bit c for
    coordinate c.  Memory is at most about 4 ceil(m/8) + 128 bytes a pair.
    """
    b = len(msg)
    rows = np.empty((b, table.shape[2]), dtype=np.uint64)
    rows[:] = _words(np.ones(columns.shape[1], dtype=bool))
    scratch = np.empty_like(rows)
    one = np.uint64(1)
    # the codewords that can produce each received word, one table lookup
    # per coordinate, so no b x n or b x m array is built
    for c in range(len(columns)):
        received = columns[c][msg] + (noise >> np.uint64(c) & one)
        np.take(table[c], received, axis=0, mode="wrap", out=scratch)
        rows &= scratch
        del received
    # the rank step below is the memory peak; hold no lookup buffer through it
    del scratch
    # rank of msg among the plausible words: whole words below its word,
    # then the bits below it within that word
    pop = np.bitwise_count(rows)
    count = pop.sum(axis=1)
    word = msg >> 6
    low = rows[np.arange(b), word] & ((one << (msg & 63).astype(np.uint64)) - one)
    pop *= np.arange(rows.shape[1]) < word[:, None]
    return pop.sum(axis=1) + np.bitwise_count(low), count


@dataclass(frozen=True)
class SimResult:
    trials: int
    errors: int
    estimate: float
    ci95: float
    seed: int


def _integer_arg(value, name: str) -> int:
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    return int(value)


def monte_carlo_pe(code, trials: int, seed: int, batch: int = 1 << 16) -> SimResult:
    """Estimate block error probability of ML decoding with uniform messages.

    Trial t consumes raw words 4t..4t+3 of Philox(key=seed): message index,
    noise bits (one per coordinate), tie break, one reserved.  The layout is
    fixed, so any batch size gives the identical error count.  A trial errs
    when the sent word is not the (tie mod count)-th plausible codeword in
    code order.  The decoder ANDs one row of 64-bit words per coordinate,
    each bit a codeword, and counts the plausible words and the sent word's
    rank among them with np.bitwise_count.  Memory is at most about
    4 ceil(m/8) + 128 bytes per trial of a block, whatever the length n, and
    each batch runs in blocks cut to the trials whose bound fits in 1 MiB,
    so a block stays in cache.

    When m 2^n is at most both the caller's batch and the trials (and at
    most 2^20), the decoder runs once on all m 2^n (message, noise pattern)
    pairs instead, one block of pairs at a time: a rank and a count per
    pair, 16 bytes each, no more pairs than the trials would have decoded.
    Trial t then errs when rank[key] != tie mod count[key], key =
    (message << n) | (noise bits mod 2^n), which is the same decision, so
    no error count depends on the batch, the block size or the decoder.
    """
    codearr = _symbols(code, "code")
    if codearr.ndim != 2 or codearr.shape[0] == 0:
        raise ValueError(f"code must be a non-empty 2-d array of words, not {codearr.shape}")
    m, n = codearr.shape
    if n > 64:
        raise ValueError("noise layout supports at most 64 coordinates")
    trials = _integer_arg(trials, "trials")
    batch = _integer_arg(batch, "batch")
    seed = _integer_arg(seed, "seed")
    if trials < 1:
        raise ValueError("need at least one trial")
    if batch < 1:
        raise ValueError(f"batch {batch} must be at least 1")
    if not 0 <= seed < 1 << 128:
        raise ValueError(f"seed {seed} is outside [0, 2^128)")
    decode_once = m << n <= min(batch, trials, _TABLE_PAIRS)
    block = min(batch, max(1, _BATCH_BYTES // (4 * math.ceil(m / 8) + 128)))
    table = _plausible_table(codearr)
    columns = codearr.T.astype(np.uint64)
    bitgen = np.random.Philox(key=seed)
    if decode_once:
        # uint64, as the per-trial decoder returns them: a signed count would
        # make raw % count a float64 and change the tie picks
        rank = np.empty(m << n, dtype=np.uint64)
        count = np.empty_like(rank)
        low_bits = np.uint64((1 << n) - 1)
        for start in range(0, m << n, block):
            stop = min(start + block, m << n)
            keys = np.arange(start, stop, dtype=np.uint64)
            msg = (keys >> np.uint64(n)).astype(np.intp)
            noise = keys & low_bits
            rank[start:stop], count[start:stop] = _rank_and_count(table, columns, msg, noise)
    errors = 0
    done = 0
    while done < trials:
        b = min(block, trials - done)
        raw = bitgen.random_raw(_WORDS_PER_TRIAL * b).reshape(b, _WORDS_PER_TRIAL)
        msg = raw[:, 0] % np.uint64(m)
        if decode_once:
            key = (msg << np.uint64(n) | raw[:, 1] & low_bits).astype(np.intp)
            errs = rank[key] != raw[:, 2] % count[key]
        else:
            rank_b, count_b = _rank_and_count(table, columns, msg.astype(np.intp), raw[:, 1])
            errs = rank_b != raw[:, 2] % count_b
        errors += int(np.count_nonzero(errs))
        done += b
    p = errors / trials
    ci = 1.96 * math.sqrt(p * (1.0 - p) / trials)
    return SimResult(trials, errors, p, ci, seed)
