"""Monte Carlo lab for the 5-ary typewriter channel at crossover 1/2.

Each symbol is received either unchanged or shifted up by one (mod 5), with
probability 1/2 independently.  Every output is therefore equally likely
among the 2^n words reachable from the input, so maximum-likelihood
decoding is a uniform choice among the codewords that could have produced
the received word.  One decoder serves single words and whole batches: it
ANDs the per-coordinate test "received minus sent is 0 or 1 (mod 5)" into a
batch x m mask, one coordinate at a time.  The simulator draws raw Philox
words in a fixed per-trial layout, which makes results independent of batch
size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .construction import INF, _symbols, word_distance
from .curves import _fmt

__all__ = [
    "confusable",
    "confusion_prob",
    "plausible_codewords",
    "ml_decode",
    "SimResult",
    "monte_carlo_pe",
]

_WORDS_PER_TRIAL = 4  # message, noise bits, tie break, reserved


def confusable(x, y) -> bool:
    """True when some common output has positive probability under x and y."""
    return word_distance(x, y) != INF


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


def _code_symbols(code) -> np.ndarray:
    codearr = _symbols(code, "code")
    if codearr.ndim != 2 or codearr.shape[0] == 0:
        raise ValueError(f"code must be a non-empty 2-d array of words, not {codearr.shape}")
    return codearr


def _plausible_mask(code: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(batch, m) mask: codeword j can produce received word y[b].

    code and y hold int8 symbols in 0..4.  ANDs the per-coordinate test
    (y - c) mod 5 in {0, 1} one coordinate at a time, so memory stays at
    batch x m bytes whatever the length.
    """
    mask = np.ones((y.shape[0], code.shape[0]), dtype=bool)
    for c in range(code.shape[1]):
        mask &= (y[:, c, None] - code[None, :, c]) % 5 <= 1
    return mask


def plausible_codewords(code, y) -> list:
    """Indices of codewords that can produce output y (shifts in {0, 1})."""
    codearr = _code_symbols(code)
    yarr = _symbols(y, "received")
    if yarr.shape != (codearr.shape[1],):
        raise ValueError(
            f"received word of shape {yarr.shape} does not match code of shape {codearr.shape}"
        )
    return np.flatnonzero(_plausible_mask(codearr, yarr[None, :])[0]).tolist()


def ml_decode(code, y, tie: int = 0) -> int:
    """Maximum-likelihood decoder with deterministic tie index.

    All plausible codewords share the likelihood 2^-n, so ML reduces to
    picking among them; tie selects the (tie mod count)-th in code order.
    """
    cands = plausible_codewords(code, y)
    if not cands:
        raise ValueError("received word is not reachable from any codeword")
    return cands[tie % len(cands)]


@dataclass(frozen=True)
class SimResult:
    trials: int
    errors: int
    estimate: float
    ci95: float
    seed: int

    def csv(self) -> str:
        return (
            "trials,errors,estimate,ci95,seed\n"
            f"{self.trials},{self.errors},{_fmt(self.estimate)},{_fmt(self.ci95)},{self.seed}\n"
        )


def monte_carlo_pe(code, trials: int, seed: int, batch: int = 1 << 16) -> SimResult:
    """Estimate block error probability of ML decoding with uniform messages.

    Trial t consumes raw words 4t..4t+3 of Philox(key=seed): message index,
    noise bits (one per coordinate), tie break, one reserved.  The layout is
    fixed, so any batch size gives the identical error count.
    """
    codearr = _code_symbols(code)
    m, n = codearr.shape
    if n > 64:
        raise ValueError("noise layout supports at most 64 coordinates")
    if trials < 1:
        raise ValueError("need at least one trial")
    if batch < 1:
        raise ValueError(f"batch {batch} must be at least 1")
    bitgen = np.random.Philox(key=seed)
    shifts = np.arange(n, dtype=np.uint64)
    errors = 0
    done = 0
    while done < trials:
        b = min(batch, trials - done)
        raw = bitgen.random_raw(_WORDS_PER_TRIAL * b).reshape(b, _WORDS_PER_TRIAL)
        msg = (raw[:, 0] % np.uint64(m)).astype(np.int64)
        noise = ((raw[:, 1, None] >> shifts) & np.uint64(1)).astype(np.int8)
        y = (codearr[msg] + noise) % 5
        plaus = _plausible_mask(codearr, y)
        counts = plaus.sum(axis=1)
        choose = (raw[:, 2] % counts.astype(np.uint64)).astype(np.int64)
        decoded = (plaus.cumsum(axis=1, dtype=np.int32) > choose[:, None]).argmax(axis=1)
        errors += int((decoded != msg).sum())
        done += b
    p = errors / trials
    ci = 1.96 * math.sqrt(p * (1.0 - p) / trials)
    return SimResult(trials, errors, p, ci, seed)
