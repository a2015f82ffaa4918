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
from dataclasses import dataclass

import numpy as np

from .braid import BraidWord, OutsideUnitarityRegion, run_images, writhe
from .tl3 import fold, jones_value

PHI_MAX = 2.0 * math.pi / 3.0

# The value of a word moves about L times as fast as the angle, so rounding
# phi to a double leaves an error of about L * 1e-16 in the answer: at this
# cap that is 1e-9, the tolerance verify allows.
MAX_LETTERS = 10**7

IDENTITY = ((1 + 0j, 0j), (0j, 1 + 0j))


@dataclass(frozen=True, eq=False)
class RepParams:
    phi: float
    theta: float
    alpha: complex
    delta: float
    e1: np.ndarray
    e2: np.ndarray
    E1: np.ndarray
    E2: np.ndarray
    G1: np.ndarray
    G2: np.ndarray
    G1inv: np.ndarray
    G2inv: np.ndarray


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
    e1 = np.array([1.0, 0.0])
    e2 = np.array([overlap, math.sqrt(max(residual, 0.0))])
    eye = np.eye(2, dtype=np.complex128)
    E1 = np.outer(e1, e1).astype(np.complex128)
    E2 = np.outer(e2, e2).astype(np.complex128)
    G1 = alpha * eye + (delta / alpha) * E1
    G2 = alpha * eye + (delta / alpha) * E2
    G1inv = eye / alpha + (alpha * delta) * E1
    G2inv = eye / alpha + (alpha * delta) * E2
    return RepParams(phi, theta, alpha, delta, e1, e2, E1, E2, G1, G2, G1inv, G2inv)


def compile_gate(word: BraidWord, params: RepParams) -> np.ndarray:
    """Ordered product of the gates G_j^k of the word's runs s_j^k, a complex (2, 2) array.

    E_j is a projector and alpha + delta/alpha = x with x = -alpha^-3, so
    G_j^k = alpha^k I + (x^k - alpha^k) E_j for every integer k. ``tl3.fold``
    multiplies the gates as rows of Python complex. A run of one letter takes
    its elementary gate, so a word written one token per letter compiles to
    the same bytes as the fold of its letter gates.
    """
    letters = {(1, 1): params.G1, (2, 1): params.G2, (1, -1): params.G1inv, (2, -1): params.G2inv}

    def image(j: int, k: int):
        if abs(k) == 1:
            return letters[j, k].tolist()
        alpha_k = cmath.exp(1j * k * params.theta)
        c = (-1 if k % 2 else 1) * cmath.exp(-3j * k * params.theta) - alpha_k
        (a, b), (d, e) = (params.E1 if j == 1 else params.E2).tolist()
        return ((alpha_k + c * a, c * b), (c * d, alpha_k + c * e))

    images, codes = run_images(word, image, MAX_LETTERS)
    return np.array(fold([images[code] for code in codes], IDENTITY), dtype=np.complex128)


def classical_3sb(word: BraidWord, params: RepParams) -> complex:
    """Deterministic O(L) evaluation of the Jones value at t = e^{i phi}."""
    gate = compile_gate(word, params)
    return jones_value(gate[0, 0] + gate[1, 1], params.alpha, params.delta, writhe(word))
