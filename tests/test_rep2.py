import cmath
import math
import random

import numpy as np
import pytest

from jones3 import rep2, tl3
from jones3.braid import BraidWord, CapExceeded, conjugate, parse_braid
from jones3.hadamard import quantum_3sb
from jones3.laurent import ONE, LaurentPoly
from jones3.rep2 import (
    PHI_MAX,
    OutsideUnitarityRegion,
    classical_3sb,
    compile_gate,
    make_params,
)
from jones3.tl3 import jones_exact, jones_rep, markov_trace
from conftest import random_word
from test_tl3 import IDENTITY, U1, U2, rand_element, rand_poly, same, torus_knot

EYE = np.eye(2)


def basis_vectors(p):
    """The vectors e1 = (1, 0) and e2 = (1/delta, sqrt(1 - 1/delta^2)) whose
    projectors are E1 and E2."""
    overlap = 1 / p.delta
    return np.array([1.0, 0.0]), np.array([overlap, math.sqrt(max(1 - overlap**2, 0.0))])


def test_params_at_zero():
    p = make_params(0.0)
    assert p.theta == 0.0
    assert p.delta == -2.0
    assert p.alpha == 1.0
    e2 = [-0.5, math.sqrt(3) / 2]
    assert np.allclose(p.E2, np.outer(e2, e2))
    assert np.allclose(compile_gate(parse_braid("s1"), p), EYE - 2 * np.array(p.E1))
    for j in (1, 2):  # each gate is a reflection
        assert np.allclose(compile_gate(parse_braid(f"s{j} s{j}"), p), EYE)


def test_params_at_boundary():
    with pytest.warns(RuntimeWarning):
        p = make_params(PHI_MAX)
    assert abs(p.delta + 1.0) < 1e-12
    # cos(pi/3) is off by one ulp, so e2's residual direction is ~sqrt(eps)
    assert np.allclose(p.E2, [[1, 0], [0, 0]], atol=1e-7)
    assert np.allclose(p.E1, p.E2, atol=1e-7)


def test_params_outside_region():
    with pytest.raises(OutsideUnitarityRegion):
        make_params(math.pi)
    with pytest.raises(OutsideUnitarityRegion):
        make_params(-math.pi)


def test_projector_invariants():
    rng = random.Random(5)
    for _ in range(25):
        p = make_params(rng.uniform(-PHI_MAX * 0.999, PHI_MAX * 0.999))
        E1, E2 = np.array(p.E1), np.array(p.E2)
        for E, e in zip((E1, E2), basis_vectors(p)):
            assert np.allclose(E @ E, E, atol=1e-12)
            assert np.allclose(E, E.conj().T, atol=1e-12)
            assert abs(np.trace(E) - 1) < 1e-12
            assert np.max(np.abs(E - np.outer(e, e))) < 1e-15
        assert abs(np.trace(E1 @ E2) - p.delta**-2) < 1e-12
        for j, E in ((1, E1), (2, E2)):
            # The closed form at k = +-1 is the elementary gate and its inverse.
            G = compile_gate(parse_braid(f"s{j}"), p)
            G_inv = compile_gate(parse_braid(f"s{j}^-1"), p)
            assert np.max(np.abs(G - (p.alpha * EYE + p.delta / p.alpha * E))) < 1e-15
            for U in (G, G_inv):
                assert np.max(np.abs(U @ U.conj().T - EYE)) < 1e-12
            assert np.max(np.abs(G @ G_inv - EYE)) < 1e-12


def test_compile_empty_word():
    p = make_params(0.7)
    gate = compile_gate(BraidWord(), p)
    assert isinstance(gate, np.ndarray) and gate.shape == (2, 2) and gate.dtype == np.complex128
    assert np.array_equal(gate, EYE)


def test_compile_inverse_pair():
    p = make_params(0.7)
    U = compile_gate(parse_braid("s1 s1^-1"), p)
    assert np.max(np.abs(U - EYE)) < 1e-12


def test_compile_braid_relation():
    p = make_params(1.1)
    lhs = compile_gate(parse_braid("s1 s2 s1"), p)
    rhs = compile_gate(parse_braid("s2 s1 s2"), p)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_unitarity_over_region(py_rng):
    for _ in range(50):
        phi = py_rng.uniform(-PHI_MAX, PHI_MAX)
        p = make_params(phi)
        word = random_word(py_rng, 60)
        U = compile_gate(word, p)
        assert np.max(np.abs(U @ U.conj().T - EYE)) <= 1e-10


def test_classical_empty_word_at_zero():
    p = make_params(0.0)
    assert abs(classical_3sb(BraidWord(), p) - 4.0) < 1e-12


def test_classical_matches_exact_oracle(py_rng):
    for _ in range(200):
        word = random_word(py_rng, 40)
        phi = py_rng.uniform(-PHI_MAX, PHI_MAX)
        p = make_params(phi)
        exact = jones_exact(word).eval(p.alpha)
        assert abs(classical_3sb(word, p) - exact) <= 1e-9


def test_classical_figure_eight():
    word = parse_braid("s1 s2^-1 s1 s2^-1")
    p = make_params(math.pi / 2)
    expected = jones_exact(word).eval(cmath.exp(-1j * math.pi / 8))
    assert abs(classical_3sb(word, p) - expected) <= 1e-9


def test_classical_conjugation_invariant(py_rng):
    for _ in range(50):
        b = random_word(py_rng, 20)
        g = random_word(py_rng, 10)
        phi = py_rng.uniform(-PHI_MAX, PHI_MAX)
        p = make_params(phi)
        assert abs(classical_3sb(conjugate(b, g), p) - classical_3sb(b, p)) <= 1e-9


def test_classical_is_deterministic():
    word = parse_braid("s1 s2 s1^-1 s2 s1")
    p = make_params(0.9)
    assert classical_3sb(word, p) == classical_3sb(word, p)


def at_alpha(matrix, p):
    """The exact 2x2 image evaluated at alpha, in the basis of the gates:
    conjugated by the fixed change of basis P = [e1 | e2], which takes U_j to
    delta E_j."""
    values = np.array([[complex((ONE * matrix[i][j]).eval(p.alpha)) for j in range(2)] for i in range(2)])
    basis = np.column_stack(basis_vectors(p))
    return basis @ values @ np.linalg.inv(basis)


def test_rep_of_generators():
    p = make_params(0.8)
    E1, E2 = np.array(p.E1), np.array(p.E2)
    assert np.allclose(at_alpha(U1, p), p.delta * E1)
    assert np.allclose(at_alpha(U2, p), p.delta * E2)
    assert abs(np.trace(at_alpha(U1, p)) - p.delta) < 1e-12
    assert np.allclose(at_alpha(U1 @ U2, p), p.delta**2 * (E1 @ E2))
    assert abs(np.trace(at_alpha(U1 @ U2, p)) - 1) < 1e-12


def test_rep_factors_through_compile(py_rng):
    for _ in range(30):
        word = random_word(py_rng, 12)
        phi = py_rng.uniform(-PHI_MAX * 0.999, PHI_MAX * 0.999)
        p = make_params(phi)
        lhs = at_alpha(jones_rep(word).matrix, p)
        rhs = compile_gate(word, p)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9
        assert abs(np.trace(lhs) - np.trace(rhs)) <= 1e-9


def test_trace_correspondence_amended():
    rng = random.Random(9)
    for _ in range(100):
        _, x = rand_element(rng)
        phi = rng.uniform(-PHI_MAX * 0.999, PHI_MAX * 0.999)
        p = make_params(phi)
        lhs = markov_trace(x).eval(p.alpha)
        rhs = np.trace(at_alpha(x.matrix, p)) + (p.delta**2 - 2) * x.scalar.eval(p.alpha)
        assert abs(lhs - rhs) <= 1e-9 * (1 + abs(lhs))


def test_classical_markov_stabilised_unknots(py_rng):
    for text in ("s1 s2", "s1^-1 s2", "s1 s2^-1", "s1^-1 s2^-1"):
        p = make_params(py_rng.uniform(-PHI_MAX, PHI_MAX))
        assert abs(classical_3sb(parse_braid(text), p) - 1.0) <= 1e-12


def test_classical_torus_knots(py_rng):
    for q in (1, 2, 4, 5, 7, 11, 301):
        p = make_params(py_rng.uniform(-PHI_MAX, PHI_MAX))
        expected = torus_knot(q).eval(p.alpha)
        assert abs(classical_3sb(parse_braid("s1 s2 " * q), p) - expected) <= 1e-9


def _run_tolerance(word):
    # Float products of L unit-modulus 2x2 factors drift by a few ulps per
    # factor, so a run's closed form and its letters agree within this.
    return 1e-9 + 1e-14 * len(word)


def test_run_word_products_match_letters():
    runs = parse_braid("s1^3 s2^-2 s1 s2^5")
    letters = BraidWord(list(runs))
    assert runs.runs != letters.runs
    for phi in (-1.5, 0.35, 1.0, 2.0):
        p = make_params(phi)
        assert np.max(np.abs(compile_gate(runs, p) - compile_gate(letters, p))) <= _run_tolerance(runs)
    assert np.array_equal(jones_rep(runs).matrix, jones_rep(letters).matrix)
    # A 1000-letter run word against its exact polynomial.
    rng = random.Random(3)
    long_runs = parse_braid(" ".join(f"s{1 + i % 2}^{rng.choice((1, -1)) * 100}" for i in range(10)))
    assert len(long_runs) == 1000
    poly = jones_exact(long_runs)
    for phi in (-1.5, 0.35, 1.0, 2.0):
        p = make_params(phi)
        assert abs(classical_3sb(long_runs, p) - poly.eval(p.alpha)) <= 1e-12


def test_one_token_per_letter_compiles_to_letter_gates():
    # The gate of a word written one token per letter is the fold of its
    # one-letter words' gates, letter by letter, bit for bit.
    word = parse_braid("s1 s2^-1 s1 s1 s2^-1 s1 s2 s2")
    p = make_params(math.pi / 3)
    product = tl3.fold([compile_gate(BraidWord([letter]), p).tolist() for letter in word], rep2.IDENTITY)
    assert np.array_equal(compile_gate(word, p), np.array(product))


def test_long_run_word_matches_letters_within_float_bound():
    runs = parse_braid("s1^30000 s2^-20000 s1^-25000 s2^25000")
    letters = BraidWord(list(runs))
    assert len(runs) == 10**5
    p = make_params(1.0)
    assert abs(classical_3sb(runs, p) - classical_3sb(letters, p)) <= _run_tolerance(runs)


def _random_run_word(rng, length, max_run=159):
    """Alternating-generator runs s_j^k, |k| uniform in 1..max_run, random sign."""
    runs, total, j = [], 0, rng.choice((1, 2))
    while total < length:
        k = min(rng.randint(1, max_run), length - total)
        runs.append(f"s{j}^{k * rng.choice((1, -1))}")
        total += k
        j = 3 - j
    return parse_braid(" ".join(runs))


def test_million_letter_gate_stays_unitary():
    # At phi = 1.0 the letter-by-letter product of this word drifted 2.6e-10
    # from unitarity, past the Hadamard test's 1e-10 gate.
    word = _random_run_word(random.Random(0), 10**6)
    assert len(word) == 10**6
    p = make_params(1.0)
    gate = compile_gate(word, p)
    assert np.max(np.abs(gate @ gate.conj().T - EYE)) <= 1e-11
    eps1 = 0.05
    _, estimate = quantum_3sb(word, p, eps1, 1e-9, seed=0, bound_mode="rigorous")
    trace = gate[0, 0] + gate[1, 1]
    assert abs(estimate.re_estimate - trace.real) <= eps1
    assert abs(estimate.im_estimate - trace.imag) <= eps1


def test_letter_cap():
    p = make_params(0.7)
    gate = compile_gate(parse_braid(f"s2^-{rep2.MAX_LETTERS}"), p)
    assert np.max(np.abs(gate @ gate.conj().T - EYE)) < 1e-12
    with pytest.raises(CapExceeded):
        compile_gate(parse_braid(f"s1 s2^{rep2.MAX_LETTERS}"), p)


def test_kernel_backends_agree(np_rng, py_rng):
    mats = np_rng.normal(size=(257, 2, 2)) + 1j * np_rng.normal(size=(257, 2, 2))
    sequential = np.eye(2, dtype=complex)
    for m in mats:
        sequential = sequential @ m
    assert np.allclose(tl3.fold([m.tolist() for m in mats], rep2.IDENTITY), sequential, rtol=1e-9)
    assert tl3.fold([], rep2.IDENTITY) is rep2.IDENTITY

    polys = np.empty((13, 2, 2), dtype=object)
    for index in np.ndindex(polys.shape):
        polys[index] = rand_poly(py_rng)
    folded = np.array([[ONE, 0], [0, ONE]], dtype=object)
    for m in polys:
        folded = folded @ m
    product = tl3.fold([tuple(map(tuple, m)) for m in polys], tl3.IDENTITY)
    assert all(isinstance(entry, LaurentPoly) for row in product for entry in row)
    assert same(product, folded)
    assert same(tl3.fold([], tl3.IDENTITY), IDENTITY)
