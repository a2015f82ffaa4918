import random

import numpy as np
import pytest

from jones3.bracket import bracket_state_sum
from jones3.braid import BraidWord, CapExceeded, conjugate, inverse, parse_braid, writhe
from jones3 import tl3
from jones3.laurent import A, A_INV, D, ONE, ZERO, LaurentPoly
from jones3.tl3 import MAX_EXACT_LETTERS, Image, jones_exact, jones_rep, markov_trace
from conftest import random_word

FIGURE_EIGHT = parse_braid("s1 s2^-1 s1 s2^-1")


def mat(m) -> np.ndarray:
    """A 2x2 image (pairs of rows) as an object array, for ``@`` in tests."""
    return np.array(m, dtype=object)


IDENTITY, U1, U2 = mat(tl3.IDENTITY), mat(tl3.U1), mat(tl3.U2)


def same(x, y) -> bool:
    """Entrywise equality of 2x2 matrices with LaurentPoly or int entries,
    as pairs of rows or arrays."""
    return all(x[i][j] == y[i][j] for i in range(2) for j in range(2))


def rand_poly(rng: random.Random) -> LaurentPoly:
    return LaurentPoly({rng.randint(-4, 4): rng.randint(-5, 5) for _ in range(rng.randint(0, 3))})


def rand_element(rng: random.Random) -> tuple[list[LaurentPoly], Image]:
    """Random coefficients over the basis (1, U1, U2, U1U2, U2U1) and the
    element's image; every U_j acts as 0 in the 1-dimensional irrep."""
    coeffs = [rand_poly(rng) for _ in range(5)]
    basis = (IDENTITY, U1, U2, U1 @ U2, U2 @ U1)
    matrix = sum((c * b for c, b in zip(coeffs, basis)), np.zeros((2, 2), dtype=object))
    return coeffs, Image(coeffs[0], matrix)


def test_generator_relations():
    assert same(U1 @ U2 @ U1, U1)
    assert same(U2 @ U1 @ U2, U2)
    assert same(U1 @ U1, D * U1)
    assert same(U2 @ U2, D * U2)


def test_mixed_product_collapses():
    u1u2 = U1 @ U2
    u2u1 = U2 @ U1
    assert same(u1u2, np.array([[ONE, D], [ZERO, ZERO]]))
    assert same(u2u1, np.array([[ZERO, ZERO], [D, ONE]]))
    assert same(u1u2 @ u2u1, D * U1)


def test_identity_is_neutral():
    rng = random.Random(3)
    for _ in range(20):
        _, x = rand_element(rng)
        assert same(IDENTITY @ x.matrix, x.matrix)
        assert same(x.matrix @ IDENTITY, x.matrix)


def test_jones_rep_single_letter():
    image = jones_rep(BraidWord([(1, 1)]))
    assert image.scalar == A
    assert same(image.matrix, A * IDENTITY + A_INV * U1)


def test_jones_rep_cancelling_pair():
    image = jones_rep(parse_braid("s1 s1^-1"))
    assert image.scalar == ONE
    assert same(image.matrix, IDENTITY)


def test_jones_rep_identity_coefficient():
    image = jones_rep(parse_braid("s1 s2"))
    assert image.scalar == LaurentPoly.monomial(1, 2)
    assert markov_trace(image) - (image.matrix[0][0] + image.matrix[1][1]) == (D * D - 2) * A**2


def test_jones_rep_is_multiplicative(py_rng):
    for _ in range(500):
        b1 = random_word(py_rng, 6)
        b2 = random_word(py_rng, 6)
        combined = jones_rep(BraidWord(b1.letters + b2.letters))
        x, y = jones_rep(b1), jones_rep(b2)
        assert combined.scalar == x.scalar * y.scalar
        assert same(combined.matrix, mat(x.matrix) @ mat(y.matrix))


def test_jones_rep_inverse(py_rng):
    for _ in range(100):
        b = random_word(py_rng, 10)
        x, y = jones_rep(b), jones_rep(inverse(b))
        assert x.scalar * y.scalar == ONE
        assert same(mat(x.matrix) @ mat(y.matrix), IDENTITY)


def test_braid_relation():
    x, y = jones_rep(parse_braid("s1 s2 s1")), jones_rep(parse_braid("s2 s1 s2"))
    assert x.scalar == y.scalar
    assert same(x.matrix, y.matrix)


def test_identity_coefficient_is_writhe_monomial(py_rng):
    # The identity coefficient of the algebra element is its image in the
    # 1-dimensional irrep; the state sum, less the 2x2 trace, must be that
    # coefficient weighed by d^2 - 2.
    for _ in range(40):
        b = random_word(py_rng, 9)
        image = jones_rep(b)
        assert image.scalar == LaurentPoly.monomial(1, writhe(b))
        rest = bracket_state_sum(b) - (ONE * image.matrix[0][0] + image.matrix[1][1])
        assert rest == (D * D - 2) * image.scalar


def test_markov_trace_on_basis():
    # Closed loop counts: identity -> 3, U1 and U2 -> 2, U1U2 and U2U1 -> 1.
    assert markov_trace(Image(ONE, IDENTITY)) == D * D
    assert markov_trace(Image(ZERO, U1)) == D
    assert markov_trace(Image(ZERO, U2)) == D
    assert markov_trace(Image(ZERO, U1 @ U2)) == ONE
    assert markov_trace(Image(ZERO, U2 @ U1)) == ONE
    rng = random.Random(4)
    for _ in range(50):
        (one, u1, u2, u1u2, u2u1), x = rand_element(rng)
        assert markov_trace(x) == one * (D * D) + (u1 + u2) * D + u1u2 + u2u1


def test_jones_exact_empty_word():
    assert jones_exact(BraidWord()) == LaurentPoly({4: 1, 0: 2, -4: 1})


def test_jones_exact_single_crossing():
    # Closure of one positive crossing is the 2-component unlink: d.
    assert jones_exact(BraidWord([(1, 1)])) == D


def test_jones_exact_markov_stabilised_unknots():
    for text in ("s1 s2", "s1^-1 s2", "s1 s2^-1", "s1^-1 s2^-1"):
        assert jones_exact(parse_braid(text)) == ONE
    # Right-handed trefoil: t + t^3 - t^4 with t = A^-4.
    assert jones_exact(parse_braid("s1^3 s2")) == LaurentPoly({-4: 1, -12: 1, -16: -1})


def torus_knot(q: int) -> LaurentPoly:
    """V(T(3, q)) = t^(q-1) + t^(q+1) - t^(2q) for q prime to 3, t = A^-4."""
    return LaurentPoly({-4 * (q - 1): 1, -4 * (q + 1): 1}) - LaurentPoly.monomial(1, -8 * q)


def test_jones_exact_torus_knots():
    for q in (1, 2, 4, 5, 7, 11):
        assert jones_exact(parse_braid("s1 s2 " * q)) == torus_knot(q)
        # The mirror image has V(t^-1).
        mirror = {-e: c for e, c in torus_knot(q).terms()}
        assert jones_exact(parse_braid("s1^-1 s2^-1 " * q)) == LaurentPoly(mirror)


def test_jones_exact_figure_eight():
    expected = LaurentPoly({8: 1, 4: -1, 0: 1, -4: -1, -8: 1})
    assert jones_exact(FIGURE_EIGHT) == expected


def test_jones_exact_conjugation_invariant(py_rng):
    for _ in range(200):
        b = random_word(py_rng, 10)
        g = random_word(py_rng, 8)
        assert jones_exact(conjugate(b, g)) == jones_exact(b)


def test_jones_rep_of_runs_matches_letters():
    rng = random.Random(17)
    for _ in range(100):
        tokens = (f"s{rng.choice((1, 2))}^{rng.choice((1, -1)) * rng.randint(1, 9)}" for _ in range(rng.randint(0, 6)))
        runs = parse_braid(" ".join(tokens))
        letters = BraidWord(list(runs))
        x, y = jones_rep(runs), jones_rep(letters)
        assert x.scalar == y.scalar
        assert same(x.matrix, y.matrix)


def test_exact_letter_cap():
    # s1^k closes to three components, so V(1) = (-2)^2.
    poly = jones_exact(parse_braid(f"s1^{MAX_EXACT_LETTERS}"))
    assert sum(c for _, c in poly.terms()) == 4
    with pytest.raises(CapExceeded):
        jones_rep(parse_braid(f"s1^{MAX_EXACT_LETTERS} s2"))
