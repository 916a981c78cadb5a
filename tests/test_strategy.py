import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from futurity import (
    BlockCountTooSmall,
    BlockVector,
    EmptyPattern,
    IllegalCharacter,
    MissingArm,
    NotCanonical,
    PatternTooLong,
    Strategy,
    block_vector,
    canonical_rotation,
    mirror,
    parse_strategy,
    rotate,
    swap_last_runs,
)
from futurity.strategy import MAX_PATTERN_LENGTH


def least_rotation(symbols):
    return min(symbols[k:] + symbols[:k] for k in range(len(symbols)))


letters = st.lists(st.sampled_from("AB"), min_size=1, max_size=20)
# Periodic patterns are where the two rotation pointers tie.
periodic = st.builds(lambda block, times: tuple(block) * times, letters, st.integers(2, 50))
free = st.lists(st.sampled_from("AB"), min_size=2, max_size=300).map(tuple)
two_arm_patterns = st.one_of(periodic, free).filter(lambda sym: "A" in sym and "B" in sym)


def all_patterns(length):
    for bits in itertools.product("AB", repeat=length):
        if "A" in bits and "B" in bits:
            yield Strategy(bits)


class TestParse:
    def test_simple(self):
        s = parse_strategy("ABB")
        assert s.symbols == ("A", "B", "B")
        assert (s.r, s.s) == (1, 2)

    def test_long_mixed_pattern(self):
        s = parse_strategy("AAAABBBBAAAAAABBB")
        assert (s.r, s.s) == (10, 7)

    def test_whitespace_and_case(self):
        assert parse_strategy(" a bB\n").symbols == ("A", "B", "B")

    def test_single_arm_rejected(self):
        with pytest.raises(MissingArm):
            parse_strategy("AAA")
        with pytest.raises(MissingArm):
            parse_strategy("b")

    def test_empty(self):
        with pytest.raises(EmptyPattern):
            parse_strategy("")
        with pytest.raises(EmptyPattern):
            parse_strategy("  \t ")

    def test_illegal_character_position(self):
        # positions count after whitespace removal and uppercasing
        for text in ("ABXBA", " a b x"):
            with pytest.raises(IllegalCharacter) as err:
                parse_strategy(text)
            assert err.value.position == 2
            assert err.value.char == "X"

    def test_length_cap(self):
        with pytest.raises(PatternTooLong):
            parse_strategy("AB" * (MAX_PATTERN_LENGTH // 2) + "A")

    def test_direct_construction_validates(self):
        with pytest.raises(MissingArm):
            Strategy(("A", "A"))


class TestRotate:
    def test_example(self):
        s = Strategy(("A", "A", "B", "A", "B", "A"))
        assert rotate(s, 2).symbols == ("B", "A", "B", "A", "A", "A")

    def test_identity_and_full_cycle(self):
        s = parse_strategy("AABAB")
        assert rotate(s, 0) == s
        assert rotate(s, s.n) == s
        assert rotate(s, 7 * s.n + 3) == rotate(s, 3)

    def test_counts_preserved(self):
        s = parse_strategy("AABBB")
        for shift in range(s.n):
            rotated = rotate(s, shift)
            assert (rotated.r, rotated.s) == (s.r, s.s)


class TestCanonicalRotation:
    def test_examples(self):
        assert canonical_rotation(parse_strategy("BBA")).text() == "ABB"
        assert canonical_rotation(parse_strategy("ABAB")).text() == "ABAB"
        assert canonical_rotation(parse_strategy("BAAB")).text() == "AABB"

    def test_starts_a_ends_b_exhaustive(self):
        for length in range(2, 13):
            for s in all_patterns(length):
                c = canonical_rotation(s)
                assert c.symbols[0] == "A" and c.symbols[-1] == "B"

    def test_lexicographically_least_exhaustive(self):
        # brute-force reference: smallest rotation that starts A and ends B
        for length in range(2, 11):
            for s in all_patterns(length):
                candidates = [
                    rotate(s, k).symbols
                    for k in range(s.n)
                    if rotate(s, k).symbols[0] == "A" and rotate(s, k).symbols[-1] == "B"
                ]
                assert canonical_rotation(s).symbols == min(candidates)

    def test_idempotent_and_rotation_stable(self):
        rng = random.Random(2024)
        for _ in range(200):
            length = rng.randint(2, 40)
            sym = tuple(rng.choice("AB") for _ in range(length))
            if "A" not in sym or "B" not in sym:
                continue
            s = Strategy(sym)
            c = canonical_rotation(s)
            assert canonical_rotation(c) == c
            for shift in range(s.n):
                assert canonical_rotation(rotate(s, shift)) == c

    @settings(max_examples=300, deadline=None)
    @given(two_arm_patterns, st.lists(st.integers(0, 10**6), min_size=1, max_size=5))
    def test_least_rotation_property(self, sym, shifts):
        s = Strategy(sym)
        c = canonical_rotation(s)
        assert c.symbols == least_rotation(sym)
        for shift in shifts:
            assert canonical_rotation(rotate(s, shift)) == c


class TestBlockVector:
    def test_examples(self):
        assert block_vector(parse_strategy("AB")).a == (1, 1)
        bv = block_vector(parse_strategy("AAABB"))
        assert bv.a == (3, 2) and (bv.h, bv.r, bv.s) == (1, 3, 2)
        bv = block_vector(parse_strategy("AAAABBBBAAAAAABBB"))
        assert bv.a == (4, 4, 6, 3) and (bv.h, bv.r, bv.s) == (2, 10, 7)

    def test_not_canonical(self):
        with pytest.raises(NotCanonical):
            block_vector(parse_strategy("BA"))
        with pytest.raises(NotCanonical):
            block_vector(parse_strategy("ABA"))

    def test_invalid_vectors(self):
        with pytest.raises(NotCanonical):
            BlockVector((1, 1, 2))
        with pytest.raises(NotCanonical):
            BlockVector((1, 0))
        with pytest.raises(NotCanonical):
            BlockVector(())

    def test_round_trip_exhaustive(self):
        # canonical pattern -> blocks -> symbols is the identity
        for length in range(2, 15):
            for s in all_patterns(length):
                c = canonical_rotation(s)
                assert block_vector(c).symbols() == c.symbols

    def test_round_trip_randomized_long(self):
        rng = random.Random(7)
        for _ in range(50):
            length = rng.randint(30, 10_000)
            sym = tuple(rng.choice("AB") for _ in range(length))
            if "A" not in sym or "B" not in sym:
                continue
            c = canonical_rotation(Strategy(sym))
            bv = block_vector(c)
            assert bv.to_strategy() == c
            assert (bv.r, bv.s) == (c.r, c.s)


class TestMirrorAndSwap:
    def test_mirror(self):
        s = parse_strategy("AABAB")
        m = mirror(s)
        assert m.text() == "BBABA"
        assert mirror(m) == s
        assert (m.r, m.s) == (s.s, s.r)

    def test_swap_last_runs(self):
        bv = block_vector(parse_strategy("ABAB"))
        assert swap_last_runs(bv).text() == "ABBA"
        bv = block_vector(parse_strategy("AABBBABB"))
        assert swap_last_runs(bv).text() == "AABBBBBA"

    def test_swap_needs_two_pairs(self):
        with pytest.raises(BlockCountTooSmall):
            swap_last_runs(block_vector(parse_strategy("AAABB")))
