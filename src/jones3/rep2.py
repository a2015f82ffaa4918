"""Numeric 2x2 representation of 3-braids and the closed-form evaluator.

For an evaluation angle phi (the Jones variable sits at t = e^{i phi}) the
construction uses theta = -phi/4, alpha = e^{i theta} and the real weight
delta = -2 cos(2 theta). Two rank-1 projectors E1, E2 with overlap
tr(E1 E2) = 1/delta^2 generate the elementary gates

    G_j = alpha I + alpha^-1 delta E_j = e^{i theta} I - 2 e^{-i theta} cos(2 theta) E_j,

which are unitary exactly when |phi| <= 2 pi / 3. The trace of the compiled
gate product recovers the Jones value through ``tl3.jones_value``, the
closure formula the exact route uses, evaluated at alpha.
"""

from __future__ import annotations

import cmath
import math
import warnings
from typing import NamedTuple

from .braid import BraidWord, OutsideUnitarityRegion, run_images, writhe
from .tl3 import fold, jones_value

PHI_MAX = 2.0 * math.pi / 3.0

# The value of a word moves about L times as fast as the angle, so rounding
# phi to a double leaves an error of about L * 1e-16 in the answer: at this
# cap that is 1e-9, the tolerance verify allows.
MAX_LETTERS = 10**7

# A float gate is a pair of rows of Python complex, as ``tl3.fold`` takes it.
Matrix = tuple[tuple[complex, complex], tuple[complex, complex]]
IDENTITY: Matrix = ((1 + 0j, 0j), (0j, 1 + 0j))


class RepParams(NamedTuple):
    phi: float
    theta: float
    alpha: complex
    delta: float
    # Projectors e_j e_j^T with e1 = (1, 0), e2 = (1/delta, sqrt(1 - 1/delta^2)).
    E1: Matrix
    E2: Matrix


def make_params(phi: float) -> RepParams:
    """Build the full parameter bundle for evaluation angle phi (radians)."""
    if not abs(phi) <= PHI_MAX + 1e-12:  # also rejects NaN
        raise OutsideUnitarityRegion(
            f"|phi| = {abs(phi):.6g} is not at most 2*pi/3; the 2x2 representation is undefined there"
        )
    theta = -phi / 4.0
    delta = -2.0 * math.cos(2.0 * theta)
    alpha = cmath.exp(1j * theta)

    overlap = 1.0 / delta
    residual = 1.0 - overlap * overlap
    if residual <= 1e-12:
        warnings.warn(
            "phi at the 2*pi/3 boundary: delta = -1 and the two projectors coincide",
            RuntimeWarning,
            stacklevel=2,
        )
    e2 = (overlap, math.sqrt(max(residual, 0.0)))
    E2 = tuple(tuple(complex(x * y) for y in e2) for x in e2)
    return RepParams(phi, theta, alpha, delta, ((1 + 0j, 0j), (0j, 0j)), E2)


def compile_gate(word: BraidWord, params: RepParams):
    """Ordered product of the gates G_j^k of the word's runs s_j^k, a complex (2, 2) array.

    E_j is a projector and alpha + delta/alpha = x with x = -alpha^-3, so
    every run, one letter included, takes the gate
    G_j^k = alpha^k I + (x^k - alpha^k) E_j; ``tl3.fold`` multiplies them.
    """
    import numpy as np  # for the returned array only; the exact route never loads it

    def image(j: int, k: int) -> Matrix:
        alpha_k = cmath.exp(1j * k * params.theta)
        c = (-1 if k % 2 else 1) * cmath.exp(-3j * k * params.theta) - alpha_k
        (a, b), (d, e) = params.E1 if j == 1 else params.E2
        return ((alpha_k + c * a, c * b), (c * d, alpha_k + c * e))

    images, codes = run_images(word, image, MAX_LETTERS)
    return np.array(fold([images[code] for code in codes], IDENTITY), dtype=np.complex128)


def classical_3sb(word: BraidWord, params: RepParams) -> complex:
    """Deterministic O(L) evaluation of the Jones value at t = e^{i phi}."""
    gate = compile_gate(word, params)
    return jones_value(gate[0, 0] + gate[1, 1], params.alpha, params.delta, writhe(word))
