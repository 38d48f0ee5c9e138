"""Structured code construction and its weight spectra."""

import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from typewriter_bounds.construction import (
    StructuredGenerator,
    code_from_generator,
    hamming_spectrum,
    read_code_file,
    union_bound,
    weight_spectrum,
    write_code_file,
)
from typewriter_bounds.scalars import INF, word_distance


def test_symbol_and_word_distance():
    assert word_distance((0,), (0,)) == 0
    assert word_distance((0,), (1,)) == 1
    assert word_distance((1,), (0,)) == 1
    assert word_distance((4,), (0,)) == 1
    assert word_distance((0,), (2,)) == INF
    assert word_distance((0, 1), (1, 1)) == 1
    assert word_distance((0, 1), (1, 2)) == 2
    assert word_distance((0, 0), (2, 0)) == INF
    assert word_distance((1, 4, 0), (0, 0, 0)) == 2
    with pytest.raises(ValueError):
        word_distance((0,), (0, 0))


def test_structured_generator_matrix_layout():
    gen = StructuredGenerator(2, 1, [[1, 2]])
    want = np.array(
        [
            [1, 0, 2, 0],
            [0, 1, 0, 2],
            [0, 0, 1, 2],
        ]
    )
    # codeword (u1, u2) is (u1, u2) @ want mod 5, in lexicographic message order
    messages = np.array(list(itertools.product(range(5), repeat=3)))
    assert (code_from_generator(gen) == (messages @ want) % 5).all()
    assert gen.message_count == 125
    with pytest.raises(ValueError):
        StructuredGenerator(2, 1, [[1, 2, 3]])


def test_seed_code_spectrum():
    gen = StructuredGenerator(2, 1, [[1, 2]])
    spec = weight_spectrum(gen)
    assert spec.counts == {0: 1, 2: 4, 3: 8, 4: 4}
    assert spec.infinite_count == 108


def test_hamming_spectrum_of_identity():
    spec = hamming_spectrum(np.eye(2, dtype=int))
    assert spec.counts == {0: 1, 1: 8, 2: 16}
    assert spec.infinite_count == 0


def test_spectrum_from_inner_hamming_distribution():
    # each nonzero symbol of the inner word contributes weight 1 or 2, so
    # A_z = sum_d B_d C(d, z - d) over d <= z <= 2d
    G = np.random.default_rng(11).integers(0, 5, size=(2, 3))
    spec = weight_spectrum(StructuredGenerator(3, 2, G))
    ham = hamming_spectrum(G)
    predicted: dict[int, int] = {}
    for d, count in ham.counts.items():
        for z in range(d, 2 * d + 1):
            predicted[z] = predicted.get(z, 0) + count * math.comb(d, z - d)
    assert spec.counts == predicted


def test_union_bound_on_the_seed_code():
    spec = weight_spectrum(StructuredGenerator(2, 1, [[1, 2]]))
    assert union_bound(spec) == pytest.approx(2.25, abs=1e-12)


def test_union_bound_counts_weight_one_words():
    # the inner word (1, 0) has Hamming weight 1, so A_1 = 4: the z = 1 term
    # is 4/2 of the bound 3 = 4/2 + 4/4
    gen = StructuredGenerator(2, 1, [[1, 0]])
    spec = weight_spectrum(gen)
    direct = Counter(word_distance(w, (0,) * 4) for w in code_from_generator(gen).tolist())
    assert spec.counts == {0: 1, 1: 4, 2: 4} == {z: c for z, c in direct.items() if z != INF}
    assert union_bound(spec) == 3.0


def test_seed_code_has_125_distinct_words():
    code = code_from_generator(StructuredGenerator(2, 1, [[1, 2]]))
    assert code.shape == (125, 4)
    assert len({tuple(w) for w in code.tolist()}) == 125


@st.composite
def _generators(draw):
    """StructuredGenerator with n <= 4, k <= 2 and any inner symbols."""
    n, k = draw(st.integers(1, 4)), draw(st.integers(0, 2))
    symbols = draw(st.lists(st.integers(0, 4), min_size=n * k, max_size=n * k))
    return StructuredGenerator(n, k, np.array(symbols, dtype=int).reshape(k, n))


@settings(deadline=None, max_examples=60)
@given(gen=_generators())
@example(gen=StructuredGenerator(2, 1, [[1, 2]]))
@example(gen=StructuredGenerator(3, 0, np.zeros((0, 3), dtype=int)))
@example(gen=StructuredGenerator(2, 1, [[0, 0]]))
@example(gen=StructuredGenerator(4, 2, np.zeros((2, 4), dtype=int)))
def test_code_from_generator_matches_spectrum(gen):
    code = code_from_generator(gen)
    assert code.shape == (gen.message_count, 2 * gen.n)
    zero = (0,) * (2 * gen.n)
    weights = Counter(word_distance(w, zero) for w in code.tolist())
    spec = weight_spectrum(gen)
    want = Counter(spec.counts) + Counter({INF: spec.infinite_count})
    assert weights == want, (gen.n, gen.k, gen.inner.tolist())


def test_code_file_roundtrip(tmp_path):
    path = tmp_path / "code.txt"
    code = [(0, 1, 2), (3, 4, 0)]
    write_code_file(path, code, header_comment="two words")
    text = path.read_text()
    assert text.startswith("# two words\n")
    back = read_code_file(path)
    assert back.tolist() == [[0, 1, 2], [3, 4, 0]]


def test_caller_symbols_are_reduced_in_their_own_type(tmp_path):
    # 2^64 - 1 is 0 mod 5; a cast to int64 first would wrap it to -1, i.e. 4
    big = np.array([[2**64 - 1, 6]], dtype=np.uint64)
    gen = StructuredGenerator(2, 1, big)
    assert gen.inner.tolist() == [[0, 1]] and gen.inner.dtype == np.int64
    assert hamming_spectrum(big).counts == {0: 1, 1: 4}
    path = tmp_path / "code.txt"
    write_code_file(path, big)
    assert path.read_text() == "01\n"
    for bad in ([[0.5, 1.7]], [[2.9, 0.5]], [[10**20, 0]]):
        with pytest.raises(ValueError, match="symbols must be integers"):
            StructuredGenerator(2, 1, bad)
        with pytest.raises(ValueError, match="symbols must be integers"):
            write_code_file(path, bad)
        with pytest.raises(ValueError, match="symbols must be integers"):
            hamming_spectrum(bad)


def test_code_file_rejects_bad_content(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("012\n905\n")
    with pytest.raises(ValueError):
        read_code_file(bad)
    mixed = tmp_path / "mixed.txt"
    mixed.write_text("012\n01\n")
    with pytest.raises(ValueError):
        read_code_file(mixed)
    empty = tmp_path / "empty.txt"
    empty.write_text("# only a comment\n")
    with pytest.raises(ValueError):
        read_code_file(empty)


def test_weight_spectrum_guard():
    gen = StructuredGenerator(8, 4, np.zeros((4, 8), dtype=int))
    with pytest.raises(ValueError):
        weight_spectrum(gen)


def test_weight_spectrum_at_the_largest_inner_dimension_stays_small():
    # (1, 9) is the largest k the guard admits at n = 1; the spectrum comes
    # from the inner Hamming enumerator, so the 5^9 inner words are never
    # held at once
    gen = StructuredGenerator(1, 9, np.ones((9, 1), dtype=int))
    tracemalloc.start()
    try:
        spec = weight_spectrum(gen)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20, peak / 2**20
    assert spec.counts == {0: 390625, 1: 1562500, 2: 1562500}
    assert spec.infinite_count == 6250000
