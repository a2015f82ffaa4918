import itertools

import pytest

from jones3.bracket import CapExceeded, PlanarMatching, bracket_state_sum, closure_loop_count
from jones3.braid import BraidWord, parse_braid
from jones3.laurent import A, A_INV, D, ZERO, LaurentPoly
from jones3.tl3 import jones_rep, markov_trace
from conftest import random_word

_ALPHABET = [(1, 1), (1, -1), (2, 1), (2, -1)]


def test_empty_word():
    assert bracket_state_sum(BraidWord()) == D * D


def test_single_positive_crossing():
    # Identity smoothing closes to 3 loops, cap smoothing to 2 loops.
    expected = A * D * D + A_INV * D
    assert bracket_state_sum(BraidWord([(1, 1)])) == expected


def test_single_negative_crossing():
    expected = A_INV * D * D + A * D
    assert bracket_state_sum(BraidWord([(1, -1)])) == expected


def test_cap_exceeded():
    word = BraidWord([(1, 1)] * 21)
    with pytest.raises(CapExceeded):
        bracket_state_sum(word)
    # configurable cap
    assert bracket_state_sum(BraidWord([(1, 1)] * 6), cap=6) is not None


def test_cap_absorbs_loop():
    m = PlanarMatching()
    m.attach_cap(1)
    assert m.loop_count == 0
    m.attach_cap(1)  # stacking the same cap closes one circle
    assert m.loop_count == 1
    assert closure_loop_count(m) == 2


def test_closure_of_identity_has_three_loops():
    assert closure_loop_count(PlanarMatching()) == 3


def test_agrees_with_algebra_exhaustively():
    for length in range(5):
        for letters in itertools.product(_ALPHABET, repeat=length):
            word = BraidWord(letters)
            assert bracket_state_sum(word) == markov_trace(jones_rep(word))


def test_agrees_with_algebra_on_random_words(py_rng):
    for _ in range(200):
        word = random_word(py_rng, 14)
        assert bracket_state_sum(word) == markov_trace(jones_rep(word))


# --- the sweep against the 2^L enumeration ----------------------------------


def _union_find_loop_count(partner) -> int:
    """Circles of the closure, counted by union-find over the 6 boundary points."""
    parent = list(range(6))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    for point, mate in enumerate(partner):
        parent[find(point)] = find(mate)
    for i in range(3):
        parent[find(i)] = find(i + 3)
    return len({find(p) for p in range(6)})


def enumerated_state_sum(word: BraidWord) -> LaurentPoly:
    """Reference: visit all 2^L smoothings one at a time."""
    letters = word.letters
    tally: dict[tuple[int, int], int] = {}
    for bits in range(1 << len(letters)):
        matching = PlanarMatching()
        a_exp = 0
        for position, (index, sign) in enumerate(letters):
            if (bits >> position) & 1:
                a_exp -= sign
                matching.attach_cap(index)
            else:
                a_exp += sign
        key = (a_exp, matching.loop_count + _union_find_loop_count(matching.partner))
        tally[key] = tally.get(key, 0) + 1
    total = ZERO
    for (a_exp, loops), count in tally.items():
        total = total + LaurentPoly.monomial(count, a_exp) * D ** (loops - 1)
    return total


def test_closure_walk_matches_union_find():
    # The 5 planar matchings of three strands take at most 2 caps; a third
    # cap can also close a loop.
    for length in range(4):
        for indices in itertools.product((1, 2), repeat=length):
            m = PlanarMatching()
            for index in indices:
                m.attach_cap(index)
            assert closure_loop_count(m) == _union_find_loop_count(m.partner)
            assert closure_loop_count(PlanarMatching(m.partner)) == closure_loop_count(m)


def test_sweep_matches_enumeration_exhaustively():
    for length in range(6):
        for letters in itertools.product(_ALPHABET, repeat=length):
            word = BraidWord(letters)
            assert bracket_state_sum(word) == enumerated_state_sum(word)


def test_sweep_matches_enumeration_on_random_words(py_rng):
    for _ in range(40):
        word = random_word(py_rng, 12, min_len=6)
        assert bracket_state_sum(word) == enumerated_state_sum(word)


def test_sweep_matches_algebra_on_long_words(py_rng):
    one_per_letter = " ".join(f"s{py_rng.choice((1, 2))}{py_rng.choice(('', '^-1'))}" for _ in range(300))
    runs = " ".join(f"s{1 + i % 2}^{py_rng.choice((-1, 1)) * py_rng.randint(1, 12)}" for i in range(30))
    for word in (parse_braid(one_per_letter), parse_braid(runs)):
        assert bracket_state_sum(word, cap=len(word)) == markov_trace(jones_rep(word))
