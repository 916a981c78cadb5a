"""The bin-table sampler's entry against searchsorted + clip."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from futurity import ChainSpec, MultipointDistribution, mills_modes
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


# Every bin edge b / _BINS and one ulp either side of it.
bin_edges = np.arange(_BINS + 1) / _BINS
bin_edges = np.concatenate([bin_edges, np.nextafter(bin_edges, 0.0), np.nextafter(bin_edges, 1.0)])


@settings(max_examples=300, deadline=None)
@given(tables(), st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=20))
def test_entry_index_equals_clipped_searchsorted(spec, extra):
    cumulative = {
        label: np.cumsum([prob for _, prob in arm.entries]) for label, arm in spec.arms.items()
    }
    # Uniforms exactly on every cumulative value, one ulp either side, on
    # every bin edge and one ulp either side, and 0: above the last value
    # when the table sums short of 1.
    edges = np.concatenate(list(cumulative.values()))
    uniforms = np.concatenate(
        [[0.0], extra, edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0), bin_edges]
    )
    uniforms = uniforms[uniforms < 1.0]
    rows = np.repeat(uniforms[:, None], spec.n, axis=1)

    win = _table_sampler(spec, spec.n)(rows)

    for column, label in enumerate(spec.sequence):
        cum = cumulative[label]
        expected = np.clip(np.searchsorted(cum, uniforms, side="right"), 0, cum.size - 1)
        assert np.array_equal(rows[:, column], expected)
        assert np.array_equal(win[:, column], expected > 0)


def test_bin_tables_are_cached():
    for arm in mills_modes():
        flags, payouts = _bin_table(arm)
        assert flags.shape == payouts.shape == (_BINS,)
        assert not flags.flags.writeable and not payouts.flags.writeable
        assert _bin_table(arm) is _bin_table(arm)
