"""Counter-based random streams for reproducible, order-independent sampling.

Trial ``i`` of a run always consumes word ``i`` of the Philox keystream for
a given seed, no matter how the trials are partitioned across workers.  The
keystream is organised in blocks of ``BLOCK_SIZE`` words; block ``b`` starts
at counter offset ``b << 64`` of the Philox-4x64 cipher keyed by the seed,
and each counter step yields four words, so a call generates only the words
of the trials it covers.  Merging partial counts is integer addition, so
parallel simulation is bit-exact regardless of scheduling.
"""

from __future__ import annotations

import operator

import numpy as np

BLOCK_SIZE = 1 << 16

_U64 = (1 << 64) - 1
_INV = 2.0 ** -53
_WORDS_PER_STEP = 4  # Philox-4x64 yields four 64-bit words per counter step


def _check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)):
        raise TypeError(f"seed must be an integer, got {type(seed).__name__}")
    if not 0 <= int(seed) <= _U64:
        raise ValueError("seed must fit in 64 bits")
    return int(seed)


def _block_words(seed: int, block: int, start: int = 0,
                 count: int = BLOCK_SIZE) -> np.ndarray:
    """Words [start, start + count) of keystream block ``block``."""
    skip = start % _WORDS_PER_STEP
    bg = np.random.Philox(key=seed,
                          counter=(block << 64) + start // _WORDS_PER_STEP)
    return bg.random_raw(skip + count)[skip:]


def _block_spans(first_trial: int, count: int):
    """(block, start, count) of each keystream block that trials
    [first_trial, first_trial + count) touch, in trial order."""
    trial, end = first_trial, first_trial + count
    while trial < end:
        block, off = divmod(trial, BLOCK_SIZE)
        take = min(BLOCK_SIZE - off, end - trial)
        yield block, off, take
        trial += take


def _trial_range(first_trial, count) -> tuple:
    first_trial, count = operator.index(first_trial), operator.index(count)
    if count < 0 or first_trial < 0:
        raise ValueError("trial range must be nonnegative")
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
    for block, start, take in _block_spans(first_trial, count):
        raw = _block_words(seed, block, start, take)
        # below 2**53 after the shift, so exact as int64 and as a double;
        # converting in place and into ``out`` allocates no temporaries
        raw >>= np.uint64(11)
        np.multiply(raw.view(np.int64), _INV, out=out[pos:pos + take])
        pos += take
    return out


def sample_outcome_counts(probs, n_trials: int, seed: int,
                          first_trial: int = 0) -> np.ndarray:
    """Tally ``n_trials`` independent draws from a finite outcome table.

    Outcome ``k`` owns the subinterval [cum_{k-1}, cum_k) of [0, 1); a trial's
    uniform picks the owner.  Zero-probability outcomes own empty intervals
    and are never drawn.  The tally counts u < cum_k for each inner cut
    point, one keystream block at a time, and takes differences: the same
    counts as searchsorted(side="right") and bincount, without either.
    """
    p = np.asarray(probs, dtype=float)
    first_trial, n_trials = _trial_range(first_trial, n_trials)
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if np.any(p < 0):
        raise ValueError("probabilities must be nonnegative")
    cum = np.cumsum(p)
    if not abs(cum[-1] - 1.0) <= 1e-9:
        raise ValueError("probabilities must sum to 1")
    # below[k] counts the trials whose uniform lies below cum[k]; the last
    # outcome takes the rest, so the top edge is never compared
    below = [0] * (cum.size - 1)
    for block, start, take in _block_spans(first_trial, n_trials):
        u = uniforms(seed, block * BLOCK_SIZE + start, take)
        below = [b + int(np.count_nonzero(u < c))
                 for b, c in zip(below, cum[:-1])]
    return np.diff(np.array([0, *below, n_trials], dtype=np.int64))
