"""Counter-based random streams for reproducible, order-independent sampling.

Trial ``i`` of a run always consumes word ``i`` of the Philox keystream for
a given seed, no matter how the trials are partitioned across workers.  The
keystream is organised in blocks of ``BLOCK_SIZE`` words; block ``b`` starts
at counter offset ``b << 64`` of the Philox-4x64 cipher keyed by the seed,
and each counter step yields four words, so a call generates only the words
of the trials it covers.  Merging partial counts is integer addition, so
parallel simulation is bit-exact regardless of scheduling.

The outcome tally takes one table or a (P, m) stack of tables, where table
``k`` owns trials [first_trial + k*n, first_trial + (k+1)*n).  It never
holds P*n words.  Tables shorter than ``CHUNK_SIZE`` trials are drawn in
groups of whole tables, up to 2*CHUNK_SIZE words a group, and each group
is counted as a (g, n) array with one compare and one row sum per cut
point.  Longer tables walk their own trials in pieces of ``CHUNK_SIZE``
words aligned to absolute trial indices, with one compare per cut point.
"""

from __future__ import annotations

import operator
import threading

import numpy as np

BLOCK_SIZE = 1 << 16
# words in one piece of a long table, and half the words of a group of
# short tables; divides BLOCK_SIZE, so no piece crosses a block.  Whole
# blocks cost more memory per worker; smaller pieces pay the generator
# positioning and Python more often.
CHUNK_SIZE = 1 << 14

_U64 = (1 << 64) - 1
_INV = 2.0 ** -53
_WORDS_PER_STEP = 4  # Philox-4x64 yields four 64-bit words per counter step
# block b starts at counter b << 64, and the Philox counter has 256 bits
_END_TRIAL = BLOCK_SIZE << 192

_local = threading.local()


def _check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)):
        raise TypeError(f"seed must be an integer, got {type(seed).__name__}")
    if not 0 <= int(seed) <= _U64:
        raise ValueError("seed must fit in 64 bits")
    return int(seed)


def _block_words(seed: int, block: int, start: int = 0,
                 count: int = BLOCK_SIZE) -> np.ndarray:
    """Words [start, start + count) of keystream block ``block``.

    Each thread positions one reusable generator: constructing
    ``Philox(key=...)`` would draw OS entropy for a seed sequence that the
    key overrides.
    """
    bg = getattr(_local, "philox", None)
    if bg is None:
        # an explicit seed draws no entropy; the state below replaces it
        bg = _local.philox = np.random.Philox(0)
    counter = (block << 64) + start // _WORDS_PER_STEP
    bg.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.array([(counter >> shift) & _U64
                                       for shift in (0, 64, 128, 192)],
                                      dtype=np.uint64),
                  "key": np.array([seed, 0], dtype=np.uint64)},
        "buffer": np.zeros(_WORDS_PER_STEP, dtype=np.uint64),
        "buffer_pos": _WORDS_PER_STEP, "has_uint32": 0, "uinteger": 0,
    }
    skip = start % _WORDS_PER_STEP
    return bg.random_raw(skip + count)[skip:]


def _spans(first_trial: int, count: int, size: int):
    """(trial, count) of each piece of trials [first_trial, first_trial +
    count) cut at the multiples of ``size``, in trial order."""
    trial, end = first_trial, first_trial + count
    while trial < end:
        take = min(size - trial % size, end - trial)
        yield trial, take
        trial += take


def _trial_range(first_trial, count) -> tuple:
    first_trial, count = operator.index(first_trial), operator.index(count)
    if count < 0 or first_trial < 0:
        raise ValueError("trial range must be nonnegative")
    if first_trial + count > _END_TRIAL:
        raise ValueError("trial range runs past the end of the keystream")
    return first_trial, count


def uniforms(seed: int, first_trial: int, count: int) -> np.ndarray:
    """Uniform [0, 1) doubles for trials [first_trial, first_trial + count).

    The value of trial ``i`` is (w >> 11) * 2**-53 for its keystream word
    ``w``; it depends only on ``(seed, i)``.
    """
    seed = _check_seed(seed)
    first_trial, count = _trial_range(first_trial, count)
    out = np.empty(count)
    pos = 0
    for trial, take in _spans(first_trial, count, BLOCK_SIZE):
        block, start = divmod(trial, BLOCK_SIZE)
        raw = _block_words(seed, block, start, take)
        # below 2**53 after the shift, so exact as int64 and as a double;
        # converting in place and into ``out`` allocates no temporaries
        raw >>= np.uint64(11)
        np.multiply(raw.view(np.int64), _INV, out=out[pos:pos + take])
        pos += take
    return out


def sample_outcome_counts(probs, n_trials: int, seed: int,
                          first_trial: int = 0) -> np.ndarray:
    """Tally ``n_trials`` independent draws from a finite outcome table,
    or from each table of a stack.

    ``probs`` is one table of m probabilities, or a (P, m) stack of them;
    table ``k`` owns trials [first_trial + k*n_trials, first_trial +
    (k+1)*n_trials), so a stacked call returns, row for row, the counts of
    P separate calls.  The result has the shape of ``probs``.  Every table
    must be nonnegative and sum to 1 within 1e-9.

    Outcome ``j`` owns the subinterval [cum_{j-1}, cum_j) of [0, 1); a trial's
    uniform picks the owner.  Zero-probability outcomes own empty intervals
    and are never drawn.  The tally counts u < cum_j for each inner cut
    point j.  Tables shorter than ``CHUNK_SIZE`` trials are drawn in groups
    of whole tables, at most 2*CHUNK_SIZE words a group, with one
    ``uniforms`` call each; the group's words form a (g, n) array, and each
    cut point takes one broadcast compare against the g tables' cum_j and
    one row sum.  A longer table walks its own trials in pieces of
    ``CHUNK_SIZE`` words aligned to absolute trial indices, one
    count_nonzero per cut point.  Differences at the end give the same
    counts as searchsorted(side="right") and bincount, without either.  The
    whole span is checked against the end of the keystream before any word
    is drawn.
    """
    p = np.asarray(probs, dtype=float)
    if p.ndim not in (1, 2) or p.size == 0:
        raise ValueError("probs must be a nonempty table or (P, m) stack")
    tables = p.reshape(-1, p.shape[-1])
    n_trials = operator.index(n_trials)
    # the whole stacked span, checked before any word is drawn
    first_trial, total = _trial_range(first_trial,
                                      tables.shape[0] * n_trials)
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if np.any(p < 0):
        raise ValueError("probabilities must be nonnegative")
    cum = np.cumsum(tables, axis=1)
    if not np.all(np.abs(cum[:, -1] - 1.0) <= 1e-9):
        raise ValueError("probabilities must sum to 1")
    # below[k, j] counts table k's trials whose uniform lies below
    # cum[k, j]; the last outcome takes the rest, so the top edge is never
    # compared
    below = np.zeros((tables.shape[0], tables.shape[1] - 1), dtype=np.int64)
    if n_trials >= CHUNK_SIZE:
        for k in range(tables.shape[0]):
            cuts = cum[k, :-1].tolist()
            for start, take in _spans(first_trial + k * n_trials, n_trials,
                                      CHUNK_SIZE):
                u = uniforms(seed, start, take)
                for j, c in enumerate(cuts):
                    below[k, j] += np.count_nonzero(u < c)
                del u  # free this piece's uniforms before the next is made
    else:
        # Groups of up to 2*CHUNK_SIZE words.  Tallying 4,097 tables of
        # 1,000 trials on two threads (2 CPUs, median of 40), groups of at
        # most CHUNK_SIZE, 2*CHUNK_SIZE and BLOCK_SIZE words took 48-51,
        # 38-42 and 51-52 ms; smaller groups pay the per-group Python and
        # generator positioning more often, and whole-block groups hold
        # twice the words for no gain.  Long tables keep CHUNK_SIZE pieces,
        # which keeps them under the tally's memory bound.
        group = 2 * CHUNK_SIZE // n_trials
        for k in range(0, tables.shape[0], group):
            rows = slice(k, k + group)
            size = min(group, tables.shape[0] - k)
            u = uniforms(seed, first_trial + k * n_trials,
                         size * n_trials).reshape(size, n_trials)
            for j in range(below.shape[1]):
                # a row's count is below CHUNK_SIZE, so it fits int32,
                # which sums faster than int64
                below[rows, j] += (u < cum[rows, j, None]).sum(
                    axis=1, dtype=np.int32)
            del u  # free this group's uniforms before the next is made
    counts = np.diff(below, axis=1, prepend=0, append=n_trials)
    return counts if p.ndim == 2 else counts[0]
