import cmath
import math
import random

import pytest

from jones3.laurent import A, A_INV, D, ONE, ZERO, LaurentPoly, ZeroPoint


def rand_poly(rng: random.Random, max_deg: int = 8, max_coeff: int = 100) -> LaurentPoly:
    terms = {
        rng.randint(-max_deg, max_deg): rng.randint(-max_coeff, max_coeff)
        for _ in range(rng.randint(0, 6))
    }
    return LaurentPoly(terms)


def test_binomial_square():
    assert (A + A_INV) ** 2 == LaurentPoly({2: 1, 0: 2, -2: 1})


def test_loop_weight_square():
    assert D * D == LaurentPoly({4: 1, 0: 2, -4: 1})


def test_multiplication_by_zero():
    rng = random.Random(7)
    for _ in range(50):
        assert rand_poly(rng) * ZERO == ZERO


def test_integer_coercion():
    assert A * 2 + 1 == LaurentPoly({1: 2, 0: 1})
    assert 3 - A == LaurentPoly({0: 3, 1: -1})


def test_constants_hash_as_their_ints():
    # Equal objects must hash equal: a constant polynomial equals its int.
    for c in (0, 1, -1, 7, 2**100):
        assert LaurentPoly({0: c}) == c and hash(LaurentPoly({0: c})) == hash(c)
    assert {LaurentPoly({0: 1}), 1} == {1}
    assert {ZERO, 0, ONE, True} == {0, 1}
    assert len({A, A_INV, D, LaurentPoly({1: 1})}) == 3


def test_pow_rejects_negative():
    with pytest.raises(ValueError):
        (A + ONE) ** -1


def test_eval_at_i():
    p = LaurentPoly({2: 1, -2: 1})
    assert abs(p.eval(1j) - (-2)) < 1e-12


def test_eval_loop_weight_on_circle():
    theta = math.pi / 12
    value = D.eval(cmath.exp(1j * theta))
    assert abs(value - (-2 * math.cos(2 * theta))) < 1e-12
    assert abs(value - (-1.7320508075688772)) < 1e-7


def _power_of_a4_minus_one(n: int) -> LaurentPoly:
    return LaurentPoly({4 * i: math.comb(n, i) * (-1) ** (n - i) for i in range(n + 1)})


def test_eval_without_cancellation():
    # At phi = pi/3, |A^4 - 1| = 1: the value has modulus 1 while the
    # coefficients reach 2^196, past what a float sum of the terms can cancel.
    alpha = cmath.exp(-0.25j * math.pi / 3)
    value = _power_of_a4_minus_one(200).eval(alpha)
    assert abs(value - (alpha**4 - 1) ** 200) <= 1e-12


def test_eval_past_float_range():
    # Coefficients above 2^1024 and a value below 1e-2000 at phi = 0.01.
    value = _power_of_a4_minus_one(1100).eval(cmath.exp(-0.25j * 0.01))
    assert abs(value) < 1e-300


def test_eval_off_circle():
    rng = random.Random(19)
    for alpha in (0.5 + 0.3j, 2.1 - 0.7j, -1.5, 3):
        p = rand_poly(rng, max_deg=30, max_coeff=10**6)
        direct = sum(c * complex(alpha) ** e for e, c in p.terms())
        assert abs(p.eval(alpha) - direct) <= 1e-12 * sum(abs(c * complex(alpha) ** e) for e, c in p.terms())


def test_eval_zero_poly():
    assert ZERO.eval(0.3 + 0.1j) == 0


def test_eval_at_zero_raises():
    with pytest.raises(ZeroPoint):
        A.eval(0)


def test_ring_axioms():
    rng = random.Random(11)
    for _ in range(1000):
        p, q, r = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r


def test_eval_is_ring_homomorphism():
    rng = random.Random(13)
    for _ in range(200):
        p = rand_poly(rng, max_deg=40, max_coeff=100)
        q = rand_poly(rng, max_deg=40, max_coeff=100)
        alpha = cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        lhs = (p * q).eval(alpha)
        rhs = p.eval(alpha) * q.eval(alpha)
        assert abs(lhs - rhs) <= 1e-9 * (1 + abs(rhs))
        assert abs((p + q).eval(alpha) - (p.eval(alpha) + q.eval(alpha))) <= 1e-9 * (
            1 + abs(rhs)
        )


def test_text_form():
    poly = LaurentPoly({8: 1, 4: -1, 0: 1, -4: -1, -8: 1})
    assert str(poly) == "A^8 - A^4 + 1 - A^-4 + A^-8"
    assert str(ZERO) == "0"
    assert str(D) == "-A^2 - A^-2"
    assert str(LaurentPoly({1: 2, 0: -3})) == "2A - 3"


def test_canonical_form_drops_zeros():
    assert LaurentPoly({5: 0, 1: 2})._terms == {1: 2}
    assert (A - A).is_zero()
