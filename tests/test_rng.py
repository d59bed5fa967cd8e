"""Counter-based streams: keystream slices, trial indices and the outcome
tally, one table or a stack, against the searchsorted reference path."""

import math
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from robustq import rng

B = rng.BLOCK_SIZE
C = rng.CHUNK_SIZE


def reference_counts(probs, n_trials, seed, first_trial):
    """The reference tally: uniforms, searchsorted(side="right"),
    bincount."""
    cum = np.cumsum(np.asarray(probs, dtype=float))
    cum[-1] = 1.0
    u = rng.uniforms(seed, first_trial, n_trials)
    return np.bincount(np.searchsorted(cum, u, side="right"),
                       minlength=len(probs))


def full_block(seed, block):
    return np.random.Philox(key=seed, counter=block << 64).random_raw(B)


# dyadic tables, whose cut points c make c * 2**53 an integer, with zeros;
# both strategies include one-outcome tables
DYADIC = st.lists(st.integers(0, 4), min_size=1, max_size=5).filter(
    lambda w: sum(w) > 0).map(
        lambda w: [x / 8 for x in w[:-1]] + [1 - sum(w[:-1]) / 8]).filter(
            lambda p: p[-1] >= 0)
GENERIC = st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
                   min_size=1, max_size=5).filter(lambda w: sum(w) > 0).map(
                       lambda w: [x / math.fsum(w) for x in w])
PROBS = st.one_of(DYADIC, GENERIC)


class TestBlockWords:
    @pytest.mark.parametrize("seed,block", [(0, 0), (7, 3), (2 ** 64 - 1, 1)])
    def test_slice_equals_full_block_for_every_phase(self, seed, block):
        full = full_block(seed, block)
        starts = list(range(9)) + [B - 5, B - 4, B - 3, B - 2, B - 1]
        for start in starts:
            for count in (1, 2, 3, 4, 5, 17):
                count = min(count, B - start)
                assert np.array_equal(
                    rng._block_words(seed, block, start, count),
                    full[start:start + count])
        assert np.array_equal(rng._block_words(seed, block), full)

    @pytest.mark.parametrize("first_trial,count",
                             [(0, 1), (B - 3, 7), (2 * B + 5, B + 9)])
    def test_uniforms_are_scaled_words(self, first_trial, count):
        words = np.concatenate([full_block(11, b) for b in range(4)])
        expected = (words[first_trial:first_trial + count] >> 11) * 2.0 ** -53
        assert np.array_equal(rng.uniforms(11, first_trial, count), expected)


class TestTrialIndices:
    def test_numpy_integer_indices_match_int(self):
        assert np.array_equal(rng.uniforms(7, np.int64(70000), np.int64(5)),
                              rng.uniforms(7, 70000, 5))
        probs = [0.1, 0.2, 0.3, 0.4]
        assert np.array_equal(
            rng.sample_outcome_counts(probs, np.int64(1000), 7,
                                      first_trial=np.int64(200000)),
            rng.sample_outcome_counts(probs, 1000, 7, first_trial=200000))

    def test_negative_ranges_rejected(self):
        with pytest.raises(ValueError):
            rng.uniforms(7, -1, 3)
        with pytest.raises(ValueError):
            rng.uniforms(7, 0, -1)
        with pytest.raises(ValueError):
            rng.sample_outcome_counts([0.5, 0.5], 10, 7, first_trial=-1)
        with pytest.raises(ValueError):
            rng.sample_outcome_counts([0.5, 0.5], 0, 7)

    def test_range_past_the_keystream_rejected(self):
        # the last block starts at counter 2**256 - 2**64
        end = B << 192
        assert rng.uniforms(7, end - 1, 1).shape == (1,)
        with pytest.raises(ValueError):
            rng.uniforms(7, end, 1)
        with pytest.raises(ValueError):
            rng.sample_outcome_counts([[0.5, 0.5]] * 2, 10, 7,
                                      first_trial=end - 15)

    def test_stack_ending_at_the_keystream_end(self):
        # 40 tables of 3 trials end at the keystream's last word; one
        # uniforms call draws them all as one group, so each table's row
        # of the group is found relative to a start near 2**208
        end = B << 192
        probs = np.random.default_rng(3).dirichlet(np.ones(4), size=40)
        with mock.patch.object(rng, "uniforms",
                               wraps=rng.uniforms) as uniforms:
            counts = rng.sample_outcome_counts(probs, 3, 7,
                                               first_trial=end - 120)
        # one call spans all 40 tables
        assert uniforms.call_args_list == [mock.call(7, end - 120, 120)]
        for k, row in enumerate(probs):
            assert np.array_equal(counts[k], rng.sample_outcome_counts(
                row, 3, 7, first_trial=end - 120 + 3 * k))

    def test_stack_past_the_keystream_end_draws_no_word(self):
        # the first table fits; the stacked span does not
        end = B << 192
        with mock.patch.object(rng, "_block_words",
                               wraps=rng._block_words) as block_words:
            with pytest.raises(ValueError):
                rng.sample_outcome_counts(np.tile([0.5, 0.5], (40, 1)), 3,
                                          7, first_trial=end - 119)
        assert block_words.call_count == 0

    def test_non_integer_indices_rejected(self):
        with pytest.raises(TypeError):
            rng.uniforms(7, 1.0, 3)
        with pytest.raises(TypeError):
            rng.sample_outcome_counts([0.5, 0.5], 10.0, 7)


class TestTally:
    @settings(derandomize=True, database=None, deadline=None,
              max_examples=60)
    @given(probs=PROBS, seed=st.integers(0, 2 ** 64 - 1),
           first_trial=st.sampled_from([0, 3, 16960, B - 1, B, 2 * B,
                                        5 * B]),
           n_trials=st.sampled_from([1, 3, B + 1, 3 * B]))
    def test_counts_equal_float_reference(self, probs, seed, first_trial,
                                          n_trials):
        counts = rng.sample_outcome_counts(probs, n_trials, seed,
                                           first_trial=first_trial)
        assert counts.dtype == np.int64
        assert np.array_equal(
            counts, reference_counts(probs, n_trials, seed, first_trial))

    @settings(derandomize=True, database=None, deadline=None)
    @given(probs=DYADIC)
    def test_words_at_cut_points(self, probs):
        """Words on and next to each cut point c: u == c must go to the
        outcome above the cut, as searchsorted(side="right") sends it."""
        words = {0, 2 ** 64 - 1}
        for c in np.cumsum(probs):
            edge = int(c * 2 ** 53) << 11
            words.update(w for w in (edge - 1, edge, edge + 2047, edge + 2048)
                         if 0 <= w < 2 ** 64)
        stream = np.array(sorted(words), dtype=np.uint64)

        def block_words(seed, block, start=0, count=B):
            # a fresh array, as the real keystream gives: uniforms
            # converts it in place
            return stream[block * B + start:block * B + start + count].copy()

        with mock.patch.object(rng, "_block_words", block_words):
            counts = rng.sample_outcome_counts(probs, stream.size, 0)
            expected = reference_counts(probs, stream.size, 0, 0)
        assert np.array_equal(counts, expected)


def stack_rows(m):
    """Tables of m outcomes with zeros, trailing ones among them, so that a
    cut point can equal 1.0."""
    weight = st.one_of(st.just(0.0), st.integers(1, 4).map(float),
                       st.floats(1e-6, 1.0))
    return st.tuples(st.lists(weight, min_size=m, max_size=m),
                     st.integers(0, m - 1)).map(
        lambda wz: wz[0][:m - wz[1]] + [0.0] * wz[1]).filter(
            lambda w: sum(w) > 0).map(
                lambda w: [x / math.fsum(w) for x in w])


@st.composite
def stacks(draw):
    m = draw(st.integers(1, 5))
    # n = 2 and C // 4 put table boundaries on chunk starts and ends; C
    # is the shortest table walked in pieces, and a group of short tables
    # holds at most 2 * C words
    n = draw(st.sampled_from([1, 2, 3, 1000, C // 4, C - 1, C, C + 1,
                              2 * C - 1, 2 * C, 2 * C + 1, B - 1, B + 1]))
    # keep P * n near a few blocks so the oracle stays cheap
    P = min(draw(st.integers(1, 70)), max(1, 3 * B // n))
    return np.array(draw(st.lists(stack_rows(m), min_size=P, max_size=P))), n


class TestStackedTally:
    """Row k of a stacked call owns trials [first + k*n, first + (k+1)*n):
    it must equal the one-table call on that range."""

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=60)
    @given(stack=stacks(), seed=st.integers(0, 2 ** 64 - 1),
           first_trial=st.sampled_from([0, 1, C - 1, C, C + 1, 3 * C + 2,
                                        B - 1, B, B + 1, 2 * B - 1]))
    def test_rows_equal_single_table_calls(self, stack, seed, first_trial):
        probs, n = stack
        counts = rng.sample_outcome_counts(probs, n, seed,
                                           first_trial=first_trial)
        assert counts.dtype == np.int64 and counts.shape == probs.shape
        for k, row in enumerate(probs):
            start = first_trial + k * n
            single = rng.sample_outcome_counts(row, n, seed, first_trial=start)
            assert single.shape == row.shape
            assert np.array_equal(counts[k], single)
            assert np.array_equal(single,
                                  reference_counts(row, n, seed, start))

    def test_single_table_is_the_one_row_stack(self):
        probs = [0.25, 0.0, 0.5, 0.25, 0.0]
        single = rng.sample_outcome_counts(probs, B + 3, 9, first_trial=C - 2)
        assert single.shape == (5,)
        assert np.array_equal(
            single, rng.sample_outcome_counts([probs], B + 3, 9,
                                              first_trial=C - 2)[0])
        assert np.array_equal(single,
                              reference_counts(probs, B + 3, 9, C - 2))

    def test_one_outcome_stack(self):
        # no cut points: each group covers several tables and compares
        # nothing
        counts = rng.sample_outcome_counts(np.ones((40, 1)), 1000, 9,
                                           first_trial=C - 1500)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, np.full((40, 1), 1000))

    @pytest.mark.parametrize("probs", [
        [[0.5, 0.5], [0.5, 0.6]],          # a row not summing to 1
        [[0.5, 0.5], [1.5, -0.5]],         # a negative entry
        [[[0.5, 0.5]], [[0.5, 0.5]]],      # 3-D
        np.zeros((0, 2)),                  # no tables
    ])
    def test_malformed_stacks_rejected(self, probs):
        with pytest.raises(ValueError):
            rng.sample_outcome_counts(probs, 10, 7)

    def test_no_entropy_drawn(self):
        """The tally positions one generator per thread and never
        constructs Philox(key=...), whose seed sequence draws OS entropy.
        numpy binds ``secrets.randbits`` at import, so both names are
        patched; the tally runs on a fresh thread, whose generator is made
        under the patch."""
        import numpy.random.bit_generator as bit_generator

        probs = np.array([[0.2, 0.3, 0.5], [0.5, 0.0, 0.5], [1.0, 0.0, 0.0]])
        result = {}

        def tally():
            result["counts"] = rng.sample_outcome_counts(probs, C + 5, 4,
                                                         first_trial=B - 7)

        entropy = mock.Mock(side_effect=AssertionError("entropy drawn"))
        with mock.patch("secrets.randbits", entropy), \
                mock.patch.object(bit_generator, "randbits", entropy):
            worker = threading.Thread(target=tally)
            worker.start()
            worker.join()
        assert entropy.call_count == 0
        for k, row in enumerate(probs):
            assert np.array_equal(
                result["counts"][k],
                reference_counts(row, C + 5, 4, B - 7 + k * (C + 5)))


class TestTallyMemory:
    """The tally holds one group or piece of words at a time, never
    P * n."""

    @staticmethod
    def peak_bytes(probs, n_trials):
        rng.sample_outcome_counts(probs, 1, 5)  # this thread's generator
        tracemalloc.start()
        try:
            rng.sample_outcome_counts(probs, n_trials, 5)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_stacked_peak_is_bounded(self):
        # 10**7 trials: materialising their words would take 80 MB
        probs = np.tile([0.3, 0.7], (10 ** 4, 1))
        assert self.peak_bytes(probs, 10 ** 3) < 4 * 2 ** 20

    def test_long_table_holds_less_than_a_block(self):
        # one table over 10**7 trials: everything the call holds is words
        # and their uniforms, which a whole block (2 x 512 KB) exceeds
        assert self.peak_bytes(np.array([0.3, 0.7]), 10 ** 7) < 8 * B
