import pytest

from jones3.braid import (
    BraidWord,
    CapExceeded,
    MalformedToken,
    UnknownGenerator,
    ZeroExponent,
    conjugate,
    inverse,
    parse_braid,
    run_images,
    to_text,
    writhe,
)
from conftest import random_word


def test_parse_prefixed():
    assert parse_braid("s1 s2^-1 s1").letters == ((1, 1), (2, -1), (1, 1))


def test_parse_exponent_expansion():
    assert parse_braid("s1^-2").letters == ((1, -1), (1, -1))
    assert parse_braid("s2^3").letters == ((2, 1), (2, 1), (2, 1))


def test_parse_signed_integers():
    assert parse_braid("1 -2 1 -2").letters == ((1, 1), (2, -1), (1, 1), (2, -1))


def test_parse_keeps_runs():
    word = parse_braid("s1^3 s2^-2 s1 s2^5")
    assert word.runs == ((1, 3), (2, -2), (1, 1), (2, 5))
    assert len(word) == 11
    assert writhe(word) == 7
    assert word.letters == ((1, 1),) * 3 + ((2, -1),) * 2 + ((1, 1),) + ((2, 1),) * 5
    assert to_text(word) == "s1^3 s2^-2 s1 s2^5"
    assert word == BraidWord(word.letters)
    assert parse_braid(to_text(word)) == word


def test_runs_compare_by_letters():
    assert parse_braid("s1 s1") == parse_braid("s1^2")
    assert hash(parse_braid("s1 s1")) == hash(parse_braid("s1^2"))
    assert parse_braid("s1 s1^-1") != parse_braid("s1^2")
    assert to_text(parse_braid("1 -2 1")) == "s1 s2^-1 s1"


def test_long_run_is_not_expanded():
    word = parse_braid("s1^10000000")
    assert word.runs == ((1, 10**7),)
    assert len(word) == 10**7


def test_inverse_and_conjugate_of_runs():
    word = parse_braid("s1^3 s2^-2")
    assert inverse(word).runs == ((2, 2), (1, -3))
    assert conjugate(word, parse_braid("s2^4")).runs == ((2, 4), (1, 3), (2, -2), (2, -4))


def test_parse_empty():
    assert len(parse_braid("")) == 0
    assert len(parse_braid("   ")) == 0


def test_unknown_generator():
    with pytest.raises(UnknownGenerator) as exc:
        parse_braid("s1 s3")
    assert exc.value.token == "s3"
    assert exc.value.position == 2
    with pytest.raises(UnknownGenerator):
        parse_braid("3")
    with pytest.raises(UnknownGenerator):
        parse_braid("0")


def test_zero_exponent():
    with pytest.raises(ZeroExponent):
        parse_braid("s1^0")


def test_malformed_token():
    with pytest.raises(MalformedToken):
        parse_braid("x1")
    with pytest.raises(MalformedToken):
        parse_braid("s1^")
    # Numbers of more than 640 digits, which int() may refuse to convert.
    for token in ("s1^" + "1" * 5000, "1" * 5000, "s" + "1" * 5000):
        with pytest.raises(MalformedToken):
            parse_braid(token)


def test_mixed_forms_rejected():
    with pytest.raises(MalformedToken):
        parse_braid("s1 -2")
    with pytest.raises(MalformedToken):
        parse_braid("1 s2")


def test_letter_validation():
    with pytest.raises(ValueError):
        BraidWord([(3, 1)])
    with pytest.raises(ValueError):
        BraidWord([(1, 2)])


def test_writhe():
    assert writhe(BraidWord([(1, 1), (2, 1), (1, 1), (2, 1)])) == 4
    assert writhe(BraidWord()) == 0
    assert writhe(BraidWord([(1, 1), (2, -1), (1, 1), (2, -1)])) == 0


def test_writhe_of_powers():
    for k in list(range(-100, 0)) + list(range(1, 101)):
        assert writhe(parse_braid(f"s1^{k}")) == k


def test_conjugate():
    b = BraidWord([(1, 1)])
    g = BraidWord([(2, 1)])
    assert conjugate(b, g).letters == ((2, 1), (1, 1), (2, -1))


def test_conjugate_by_identity():
    b = BraidWord([(1, 1), (2, -1)])
    assert conjugate(b, BraidWord()) == b


def test_conjugation_preserves_writhe(py_rng):
    for _ in range(100):
        b = random_word(py_rng, 12)
        g = random_word(py_rng, 12)
        assert writhe(conjugate(b, g)) == writhe(b)


def test_inverse_cancels_writhe(py_rng):
    for _ in range(50):
        g = random_word(py_rng, 12)
        assert writhe(inverse(g)) == -writhe(g)


def test_serializer_round_trip(py_rng):
    for _ in range(1000):
        word = random_word(py_rng, 20)
        assert parse_braid(to_text(word)) == word


def test_run_images_builds_each_distinct_run_once():
    word = parse_braid("s1^2 s2 s1^2 s1^-2 s2")
    calls = []

    def image(j, k):
        calls.append((j, k))
        return f"s{j}^{k}"

    images, codes = run_images(word, image, cap=8)
    assert calls == [(1, 2), (2, 1), (1, -2)]
    assert codes == [0, 1, 0, 2, 1]
    assert [images[c] for c in codes] == ["s1^2", "s2^1", "s1^2", "s1^-2", "s2^1"]
    # The cap is checked on the sum of |k| before any image is built; len()
    # of the second word would raise OverflowError.
    for text, cap in (("s1^2 s2 s1^2 s1^-2 s2", 7), (f"s1^{2**63}", 10**7)):
        with pytest.raises(CapExceeded):
            run_images(parse_braid(text), image, cap)
    assert len(calls) == 3
