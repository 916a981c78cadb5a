"""The bin-table sampler's entry, on raw PCG64 words, against searchsorted + clip."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from futurity import ChainSpec, MultipointDistribution, TwoPointArm, mills_modes
from futurity.simulate import _BINS, _bin_table, _table_sampler

# Entry weights; zeros make zero-probability entries.
weights = st.lists(st.integers(0, 4), min_size=1, max_size=9).filter(any)


@st.composite
def tables(draw):
    """A pattern over 1-3 random reward tables whose probabilities sum to 1, 1 - 1e-13 or 1 + 1e-13.

    Entry k pays k coins, so a payout names the entry it came from.
    """
    arms = {}
    for label in "ABC"[: draw(st.integers(1, 3))]:
        w = np.array(draw(weights), dtype=float)
        probs = w / w.sum()
        probs[-1] = min(1.0, max(0.0, probs[-1] + draw(st.sampled_from([-1e-13, 0.0, 1e-13]))))
        arms[label] = MultipointDistribution(tuple((float(k), float(p)) for k, p in enumerate(probs)))
    sequence = tuple(draw(st.lists(st.sampled_from(sorted(arms)), min_size=1, max_size=6)))
    return ChainSpec(sequence=sequence, arms=arms, j=2)


# Words per step of the uniform grid: a uniform is (w >> 11) * 2**-53.
GRID = 2**-53


def words_at(values):
    """The first word whose uniform reaches each value, and one word either side."""
    steps = np.ceil(np.asarray(values, float) / GRID)
    steps = np.concatenate([steps - 1, steps, steps + 1])
    return np.clip(steps, 0, 2**53 - 1).astype(np.uint64) << np.uint64(11)


# Every bin edge b / _BINS and one word either side of it.
bin_edge_words = words_at(np.arange(_BINS + 1) / _BINS)


@settings(max_examples=300, deadline=None)
@given(tables(), st.lists(st.integers(0, 2**64 - 1), max_size=20), st.integers(0, 2**11 - 1))
def test_entry_index_equals_clipped_searchsorted(spec, extra, low):
    cumulative = {
        label: np.cumsum([prob for _, prob in arm.entries]) for label, arm in spec.arms.items()
    }
    # Words on every cumulative value and one either side, on every bin
    # edge and one either side, the largest word and 0: above the last
    # value when the table sums short of 1. The low 11 bits, which the
    # uniform drops, are set on all but the random words.
    edges = np.concatenate(list(cumulative.values()))
    words = np.concatenate([words_at(edges), bin_edge_words, np.array([0, 2**64 - 1], np.uint64)])
    words = np.concatenate([words | np.uint64(low), np.array(extra, np.uint64)])
    uniforms = (words >> np.uint64(11)) * GRID

    win, payouts = _table_sampler(spec, spec.n)(np.repeat(words[:, None], spec.n, axis=1))

    for column, label in enumerate(spec.sequence):
        cum = cumulative[label]
        expected = np.clip(np.searchsorted(cum, uniforms, side="right"), 0, cum.size - 1)
        assert np.array_equal(payouts[:, column], expected)
        assert np.array_equal(win[:, column], expected > 0)


def test_raw_words_make_generator_uniforms():
    """The sampler's uniform (w >> 11) * 2**-53 is Generator.random's, bit for bit."""
    for seed in (0, 1, 7, 2**63 + 5, 2**64 - 1):
        for size in (1, 3, 1000, 2**17 + 1):
            uniforms = np.random.Generator(np.random.PCG64(seed)).random(size)
            words = np.random.PCG64(seed).random_raw(size)
            assert np.array_equal(
                uniforms.view(np.uint64), ((words >> np.uint64(11)) * GRID).view(np.uint64)
            )


def test_bin_tables_are_cached():
    for arm in mills_modes():
        table, thresholds, signed = _bin_table(arm)
        assert table.shape == (_BINS,) and signed.shape == (thresholds.size + 1,)
        assert not any(array.flags.writeable for array in (table, thresholds, signed))
        assert _bin_table(arm) is _bin_table(arm)


def test_zero_payout_win_is_negative_zero():
    table, _, signed = _bin_table(TwoPointArm(0.5, 0.0))
    assert signed.tolist() == [0.0, 0.0] and np.signbit(signed).tolist() == [True, False]
    assert np.signbit(table[: _BINS // 2]).all() and not np.signbit(table[_BINS // 2 :]).any()
