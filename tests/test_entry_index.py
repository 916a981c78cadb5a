"""The threshold planes' entry, payout and win flag against searchsorted + clip."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from futurity import ChainSpec, MultipointDistribution, TwoPointArm
from futurity import simulate

# Entry weights; zeros make zero-probability entries.
weights = st.lists(st.integers(0, 4), min_size=1, max_size=9).filter(any)


@st.composite
def arms(draw):
    """A reward table whose probabilities sum to 1, 1 - 1e-13 or 1 + 1e-13, entry k paying k coins,
    or a two-point arm with p in {0, 1} or interior and a zero or integer payout."""
    if draw(st.booleans()):
        return TwoPointArm(draw(st.sampled_from([0.0, 1.0, 0.25, 0.3])), float(draw(st.integers(0, 3))))
    w = np.array(draw(weights), dtype=float)
    probs = w / w.sum()
    probs[-1] = min(1.0, max(0.0, probs[-1] + draw(st.sampled_from([-1e-13, 0.0, 1e-13]))))
    return MultipointDistribution(tuple((float(k), float(p)) for k, p in enumerate(probs)))


@st.composite
def patterns(draw):
    """A pattern over 1-3 arms; a payout names the entry it came from."""
    labels = "ABC"[: draw(st.integers(1, 3))]
    table = {label: draw(arms()) for label in labels}
    sequence = tuple(draw(st.lists(st.sampled_from(labels), min_size=1, max_size=6)))
    return ChainSpec(sequence=sequence, arms={label: table[label] for label in set(sequence)}, j=2)


# Words per step of the uniform grid: a uniform is (w >> 11) * 2**-53.
GRID = 2**-53


def uniforms_at(values):
    """The first grid uniform that reaches each value, and one either side."""
    steps = np.ceil(np.asarray(values, float) / GRID)
    steps = np.concatenate([steps - 1, steps, steps + 1])
    return np.clip(steps, 0, 2**53 - 1) * GRID


class Uniforms:
    """Stands in for Generator: hands out the given uniforms in coup order."""

    def __init__(self, values):
        self.values, self.at = values, 0

    def random(self, out):
        out[:] = self.values[self.at : self.at + out.size]
        self.at += out.size


def expected_entry(arm, uniforms):
    """searchsorted(thresholds, u, "right") clipped to K - 1, its payout and its win flag."""
    if isinstance(arm, TwoPointArm):
        win = uniforms < arm.p
        return win * arm.u, win
    cumulative = np.cumsum([prob for _, prob in arm.entries])
    entry = np.clip(np.searchsorted(cumulative, uniforms, side="right"), 0, cumulative.size - 1)
    return entry.astype(float), entry > 0


@settings(max_examples=300, deadline=None)
@given(patterns(), st.lists(st.integers(0, 2**53 - 1), max_size=20))
def test_entry_index_equals_clipped_searchsorted(spec, extra):
    # Uniforms on every cumulative value and one either side, 0 and the
    # largest uniform, above the last value when the table sums short of 1,
    # and random ones. Each plays at every position of the pattern.
    cumulative = [
        np.cumsum([prob for _, prob in arm.entries]) if isinstance(arm, MultipointDistribution) else [arm.p]
        for arm in spec.arms.values()
    ]
    values = np.concatenate([uniforms_at(np.concatenate(cumulative)), [0.0, 1.0 - GRID], np.array(extra) * GRID])
    played = np.repeat(values[:, None], spec.n, axis=1)
    with mock.patch.object(simulate.np.random, "Generator", lambda bits: Uniforms(played.ravel())):
        tallies, (wins, paid) = simulate._run(spec, played.size, 0, 1)
    payouts = np.diff(paid, prepend=0.0).reshape(played.shape)
    won = np.diff(wins, prepend=0).reshape(played.shape).astype(bool)
    for column, label in enumerate(spec.sequence):
        expected_payout, expected_win = expected_entry(spec.arms[label], values)
        assert np.array_equal(payouts[:, column], expected_payout)
        assert np.array_equal(won[:, column], expected_win)


def test_raw_words_make_generator_uniforms():
    """Generator.random's uniform is (w >> 11) * 2**-53 of one PCG64 word, bit for bit."""
    for seed in (0, 1, 7, 2**63 + 5, 2**64 - 1):
        for size in (1, 3, 1000, 2**17 + 1):
            uniforms = np.random.Generator(np.random.PCG64(seed)).random(size)
            words = np.random.PCG64(seed).random_raw(size)
            assert np.array_equal(
                uniforms.view(np.uint64), ((words >> np.uint64(11)) * GRID).view(np.uint64)
            )


def test_arm_regions_are_cached():
    arm = MultipointDistribution(((0.0, 0.5), (2.0, 0.0), (3.0, 0.5)))
    # The zero-probability entry ties its threshold with the first one.
    assert simulate._arm_regions(arm) == ((0.5,), (0.0, 3.0), (False, True))
    assert simulate._arm_regions(arm) is simulate._arm_regions(arm)
    # A two-point arm that pays nothing still wins below p.
    assert simulate._arm_regions(TwoPointArm(0.5, 0.0)) == ((0.5,), (0.0, 0.0), (True, False))
