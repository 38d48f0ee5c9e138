"""Confusability, ML decoding, and the Monte Carlo error estimator."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from typewriter_bounds import channel
from typewriter_bounds.channel import confusion_prob, monte_carlo_pe
from typewriter_bounds.cli import main
from typewriter_bounds.construction import StructuredGenerator, code_from_generator
from typewriter_bounds.lpbound import max_code
from typewriter_bounds.scalars import INF


def test_confusable_and_confusion_prob():
    assert confusion_prob((0,), (1,)) == 0.25
    assert confusion_prob((0,), (2,)) == 0.0
    assert confusion_prob((0, 0, 0), (1, 1, 0)) == 2.0 ** (-5)
    assert confusion_prob((0, 0), (2, 0)) == 0.0
    with pytest.raises(ValueError):
        confusion_prob((1, 2), (1, 2))


def test_decoders_reject_empty_codes_and_fractional_symbols():
    for code in (np.zeros((0, 3), dtype=int), [[0, 0.5]], [["0", "1"]]):
        with pytest.raises(ValueError):
            monte_carlo_pe(code, 10, seed=1)


def _ml_decode(code, y, tie):
    """Plain-Python ML decoder: codeword j is plausible when every
    (y_i - c_i) % 5 <= 1, and tie picks the (tie mod count)-th of them."""
    cands = [j for j, c in enumerate(code) if all((a - b) % 5 <= 1 for a, b in zip(y, c))]
    return cands[tie % len(cands)]


def test_ml_decode_tie_cycling():
    code = [(0, 0), (1, 1)]
    y = (1, 1)  # reachable from both codewords
    assert [_ml_decode(code, y, tie) for tie in range(3)] == [0, 1, 0]
    assert _ml_decode(code, (1, 0), 1) == 0  # reachable from (0, 0) alone


def test_monte_carlo_is_batch_size_invariant():
    pair = [(0, 0, 0), (1, 1, 0)]
    a = monte_carlo_pe(pair, 30000, seed=3, batch=1024)
    b = monte_carlo_pe(pair, 30000, seed=3, batch=30000)
    c = monte_carlo_pe(pair, 30000, seed=3)
    assert a == b == c
    assert a.errors == 3744


def test_monte_carlo_count_on_the_criterion_10_code():
    code = code_from_generator(StructuredGenerator(2, 1, [[1, 2]]))
    assert monte_carlo_pe(code, 1 << 16, seed=7).errors == 45116


def _replayed_errors(code, trials, seed):
    # trial t reads raw Philox words 4t..4t+3: message, noise bits, tie break
    raw = np.random.Philox(key=seed).random_raw(4 * trials).reshape(trials, 4)
    errors = 0
    for msg_word, noise_word, tie, _ in raw.tolist():
        msg = msg_word % len(code)
        y = tuple((c + (noise_word >> i & 1)) % 5 for i, c in enumerate(code[msg]))
        errors += _ml_decode(code, y, tie) != msg
    return errors


def test_ml_decode_replays_monte_carlo():
    code = [(0, 0, 0), (1, 1, 0), (0, 1, 1), (3, 3, 3), (1, 0, 0)]
    errors = _replayed_errors(code, 3000, 5)
    assert errors > 0
    assert monte_carlo_pe(code, 3000, 5, batch=700).errors == errors
    # code symbols count mod 5 at any size, also past the int8 range
    for far in (np.array(code) - 130, np.array(code, np.uint64) + np.uint64(5 * 2**60)):
        assert monte_carlo_pe(far, 3000, 5, batch=700).errors == errors


@settings(deadline=None, max_examples=40)
@given(
    m=st.integers(1, 130),
    n=st.integers(1, 8),
    seed=st.integers(0, 2**64 - 1),
    batch=st.integers(1, 40),
)
def test_monte_carlo_matches_the_replay_across_byte_boundaries(m, n, seed, batch):
    # m up to 130 crosses the 8-, 64- and 128-word edges of the packed rows
    code = [tuple(w) for w in np.random.default_rng(seed).integers(0, 5, size=(m, n)).tolist()]
    assert monte_carlo_pe(code, 25, seed, batch=batch).errors == _replayed_errors(code, 25, seed)


@settings(deadline=None, max_examples=60, derandomize=True)
@given(
    m=st.integers(1, 40),
    n=st.integers(1, 6),
    seed=st.integers(0, 2**64 - 1),
    trials_off=st.integers(-2, 2),
    batch_off=st.integers(-2, 2),
)
def test_decoding_each_pair_once_matches_decoding_each_trial(m, n, seed, trials_off, batch_off):
    # the m 2^n (message, noise pattern) pairs are decoded once when they
    # number at most min(batch, trials); a batch one short of them forces
    # the per-trial decoder
    code = np.random.default_rng(seed).integers(0, 5, size=(m, n))
    pairs = m << n
    trials, batch = max(1, pairs + trials_off), max(1, pairs + batch_off)
    decoded = []
    decode = channel._rank_and_count

    def spy(table, columns, msg, noise):
        decoded.append(len(msg))
        return decode(table, columns, msg, noise)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(channel, "_rank_and_count", spy)
        errors = monte_carlo_pe(code, trials, seed, batch=batch).errors
        once = pairs <= min(batch, trials)
        assert decoded[0] == (pairs if once else min(batch, trials)), (pairs, trials, batch)
        decoded.clear()
        assert monte_carlo_pe(code, trials, seed, batch=pairs - 1).errors == errors
        assert pairs not in decoded


@pytest.mark.parametrize(
    "code, trials, seed",
    [
        ([(0, 0, 0), (1, 1, 0), (0, 1, 1), (3, 3, 3), (1, 0, 0)], 3000, 5),
        # 9 words of length 10: 9216 pairs, more than one 1 MiB block of
        # 7710 trials and fewer than the default batch of 2^16
        (np.random.default_rng(6).integers(0, 5, size=(9, 10)), 10_000, 11),
    ],
    ids=["5x3", "9x10"],
)
def test_monte_carlo_in_tiny_blocks(code, trials, seed):
    # a budget of 400 bytes cuts blocks of 2 or 3 trials; the count stays,
    # and the decode-once table, chosen on the caller's batch, is still
    # built, one block of pairs per call
    pairs = len(code) << len(code[0])
    decode = channel._rank_and_count
    calls = []

    def spy(table, columns, msg, noise):
        calls.append(len(msg))
        return decode(table, columns, msg, noise)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(channel, "_rank_and_count", spy)
        errors = monte_carlo_pe(code, trials, seed).errors
        assert sum(calls) == pairs
        calls.clear()
        mp.setattr(channel, "_BATCH_BYTES", 400)
        assert monte_carlo_pe(code, trials, seed).errors == errors
        assert sum(calls) == pairs and max(calls) <= 3 and len(calls) > 1
    assert errors == _replayed_errors([tuple(w) for w in np.asarray(code).tolist()], trials, seed)


def _memory_bound(m, n, pairs):
    """The 1 MiB block budget plus the code's own tables: n 5 ceil(m/8)
    bytes of bitsets, the code as int8 symbols and uint64 columns (9 bytes a
    symbol), and 16 bytes per decode-once pair."""
    return 2**20 + n * 5 * math.ceil(m / 8) + 9 * m * n + 16 * pairs


def test_monte_carlo_memory_cap():
    # the criterion-10 code (125 words of length 4, 2000 pairs decoded once)
    # at the default batch of 2^16: the bound is 1.03 MiB and the traced
    # peak 0.49 MiB
    code = code_from_generator(StructuredGenerator(2, 1, [[1, 2]]))
    m, n = np.shape(code)
    tracemalloc.start()
    try:
        monte_carlo_pe(code, 1 << 17, seed=7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= _memory_bound(m, n, m << n), peak / 2**20


def test_monte_carlo_caps_the_default_batch_of_a_large_code():
    # 2000 words: one default batch of all 2^15 trials would need 35 MiB by
    # the per-trial bound, so it runs in blocks of the 929 trials that fit
    # 1 MiB; the bound is 1.18 MiB and the traced peak 1.06 MiB
    code = np.random.default_rng(4).integers(0, 5, size=(2000, 10))
    tracemalloc.start()
    try:
        errors = monte_carlo_pe(code, 1 << 15, seed=9).errors
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= _memory_bound(2000, 10, 0), peak / 2**20
    assert errors == monte_carlo_pe(code, 1 << 15, seed=9, batch=1000).errors


def test_two_codeword_error_rate():
    # a pair at typewriter distance z collides with probability 2^-z and the
    # fair tie break halves it
    pair = [(0, 0, 0), (1, 1, 0)]
    res = monte_carlo_pe(pair, 10**5, seed=0)
    sigma = math.sqrt(0.125 * 0.875 / 10**5)
    assert abs(res.estimate - 0.125) <= 3.0 * sigma
    assert res.trials == 10**5
    assert res.errors == round(res.estimate * 10**5)


def test_ci95_is_the_normal_interval_on_a_seeded_run():
    res = monte_carlo_pe([(0, 0, 0), (1, 1, 0)], 10**4, seed=0)
    assert (res.errors, res.estimate) == (1259, 0.1259)
    assert res.ci95 == 1.96 * math.sqrt(0.1259 * 0.8741 / 10**4) == 0.006502037898259283


def test_zero_error_code_never_errs():
    res = monte_carlo_pe(max_code(2, INF)[1], 10**5, seed=2)
    assert res.errors == 0
    assert res.estimate == 0.0


def _simulate_table(tmp_path, words, trials, seed):
    """The simulate command's stamped table for a code: its header and row."""
    codefile = tmp_path / "code.txt"
    codefile.write_text("".join("".join(map(str, w)) + "\n" for w in words))
    out = tmp_path / "sim.csv"
    args = ["simulate", "--code", str(codefile), "--trials", str(trials), "--seed", str(seed)]
    assert main([*args, "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# typewriter-bounds ") and len(lines) == 3
    return lines[1], lines[2].split(",")


def test_sim_result_csv_roundtrip(tmp_path):
    res = monte_carlo_pe([(0, 0), (1, 1)], 5000, seed=1)
    header, (trials, errors, estimate, ci95, seed) = _simulate_table(
        tmp_path, [(0, 0), (1, 1)], 5000, 1
    )
    assert header == "trials,errors,estimate,ci95,seed"
    assert int(trials) == 5000
    assert int(errors) == res.errors
    assert float(estimate) == res.estimate
    assert float(ci95) == res.ci95
    assert int(seed) == 1


def test_sim_result_fields_are_consistent(tmp_path):
    # the integer cells are exact: the largest seed is printed in full
    seed = (1 << 128) - 1
    res = monte_carlo_pe([(0, 0, 0), (1, 1, 0)], 100, seed)
    _, row = _simulate_table(tmp_path, [(0, 0, 0), (1, 1, 0)], 100, seed)
    assert row[:2] == ["100", str(res.errors)]
    assert [float(v) for v in row[2:4]] == [res.estimate, res.ci95]
    assert row[4] == "340282366920938463463374607431768211455"


def test_monte_carlo_input_validation():
    with pytest.raises(ValueError):
        monte_carlo_pe([(0, 0), (1, 1)], 0, seed=0)
    with pytest.raises(ValueError):
        monte_carlo_pe(np.zeros((2, 65), dtype=int), 10, seed=0)
    with pytest.raises(ValueError):
        monte_carlo_pe(np.zeros(4, dtype=int), 10, seed=0)
    for batch in (0, -1):
        with pytest.raises(ValueError):
            monte_carlo_pe([(0, 0), (1, 1)], 10, seed=0, batch=batch)


@pytest.mark.parametrize(
    "trials, seed, batch, message",
    [
        (2.5, 0, 1, r"^trials must be an integer, not 2\.5$"),
        (True, 0, 1, r"^trials must be an integer, not True$"),
        (10, 0, 1.0, r"^batch must be an integer, not 1\.0$"),
        (10, 0, np.True_, r"^batch must be an integer, not "),
        (10, 1.5, 1, r"^seed must be an integer, not 1\.5$"),
        (10, -1, 1, r"^seed -1 is outside \[0, 2\^128\)$"),
        (10, 1 << 128, 1, r"^seed 340282366920938463463374607431768211456 is outside"),
    ],
    ids=["trials-float", "trials-bool", "batch-float", "batch-numpy-bool", "seed-float",
         "seed-negative", "seed-too-large"],
)
def test_monte_carlo_refuses_bad_arguments(trials, seed, batch, message):
    with pytest.raises(ValueError, match=message):
        monte_carlo_pe([(0, 0), (1, 1)], trials, seed, batch=batch)


def test_monte_carlo_takes_numpy_integers_and_the_largest_seed():
    pair = [(0, 0, 0), (1, 1, 0)]
    assert monte_carlo_pe(pair, np.int64(30000), np.uint8(3), batch=np.int32(1024)).errors == 3744
    assert monte_carlo_pe(pair, 10, (1 << 128) - 1).seed == (1 << 128) - 1
