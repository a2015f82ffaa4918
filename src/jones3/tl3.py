"""Exact route: the bracket and Jones value of a 3-braid closure over Z[A, A^-1].

The diagram algebra on three strands splits into a 1- and a 2-dimensional
irreducible representation. In the 2-dimensional one
U1 = [[d, 1], [0, 0]] and U2 = [[0, 0], [1, d]] with d = -A^2 - A^-2, and a
letter b_j^s maps to A^s I + A^-s U_j; the braid maps to the ordered
product of its runs' images, each run's power of a letter taken in closed
form. In the 1-dimensional one every U_j acts as 0, so the braid maps to
A^writhe. Closing the three strands gives the bracket
(Kauffman, Topology 26, 1987):

    <b> = (d^2 - 2) A^w + tr rho_2(b).

The classical and quantum routes evaluate the same formula at a number
(``jones_value``), with the 2x2 trace computed or sampled from unitary gates.
Both rings, here and in ``rep2``, multiply their run images with ``fold``.
"""

from __future__ import annotations

from typing import NamedTuple

from .braid import BraidWord, run_images, writhe
from .laurent import A, D, ONE, ZERO, LaurentPoly

# 2x2 matrices over Z[A, A^-1] are pairs of rows; the exact route loads no
# numpy.
Matrix = tuple[tuple[LaurentPoly, LaurentPoly], tuple[LaurentPoly, LaurentPoly]]

IDENTITY: Matrix = ((ONE, ZERO), (ZERO, ONE))
U1: Matrix = ((D, ONE), (ZERO, ZERO))
U2: Matrix = ((ZERO, ZERO), (ONE, D))

# The exact fold multiplies polynomials of up to about L terms whose
# coefficients reach about 0.7 L bits, so its cost grows faster than L^2: a
# random word at this cap takes about 13 s, an alternating one much longer.
MAX_EXACT_LETTERS = 10**4


class Image(NamedTuple):
    """An algebra element as its images in the 1- and 2-dimensional irreps."""

    scalar: LaurentPoly
    matrix: Matrix


def mul(x: Matrix, y: Matrix) -> Matrix:
    (a, b), (c, d) = x
    (e, f), (g, h) = y
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def fold(mats: list, identity):
    """Ordered product of a list of 2x2 matrices, ``identity`` when empty.

    A matrix is a pair of rows over any ring with ``+`` and ``*``: Laurent
    polynomials in the exact route, Python complex in the float routes.
    Adjacent pairs are multiplied level by level, so the factors of each
    product stay about the same size.
    """
    while len(mats) > 1:
        reduced = [mul(mats[i], mats[i + 1]) for i in range(0, len(mats) - 1, 2)]
        mats = reduced + mats[-1:] if len(mats) % 2 else reduced
    return mats[0] if mats else identity


def _run_image(j: int, k: int) -> Matrix:
    # b_j^k -> A^k I + ((x^k - A^k)/d) U_j with x = -A^-3, as U_j^2 = d U_j;
    # the quotient is sum_{i<|k|} (-1)^i A^(s(|k|-2-4i)), s the sign of k.
    s, n = (1 if k > 0 else -1), abs(k)
    c = LaurentPoly({s * (n - 2 - 4 * i): (-1) ** i for i in range(n)})
    a, cd = A**k, c * D
    # A^k I + c U_j, entry by entry.
    return ((a + cd, c), (ZERO, a)) if j == 1 else ((a, ZERO), (c, a + cd))


def jones_rep(word: BraidWord) -> Image:
    """Image of the braid word under b_j -> A 1 + A^-1 U_j (inverse letters
    map to A^-1 1 + A U_j), one closed-form image per run. A word of more
    than ``MAX_EXACT_LETTERS`` letters raises ``CapExceeded``."""
    images, codes = run_images(word, _run_image, MAX_EXACT_LETTERS)
    return Image(A ** writhe(word), fold([images[c] for c in codes], IDENTITY))


def _closure(trace, scalar, d):
    # Closing three strands weighs the 1-dimensional image by d^2 - 2: the
    # identity closes to three loops, d^2, of which tr(I) = 2 counts two.
    return (d * d - 2) * scalar + trace


def markov_trace(x: Image) -> LaurentPoly:
    """Trace closing each diagram into loops and weighting by d^(loops-1)."""
    return _closure(x.matrix[0][0] + x.matrix[1][1], x.scalar, D)


def jones_value(trace, a, d, w: int):
    """Jones value of the closure of a braid with writhe w, from the trace of
    its 2x2 image, at the point a whose loop weight is d:

        V = (-a^3)^-w [(d^2 - 2) a^w + trace].

    ``a`` is the variable A (exact route) or a complex number alpha with
    t = alpha^-4 (classical and quantum routes).
    """
    return (-(a**3)) ** -w * _closure(trace, a**w, d)


def jones_exact(word: BraidWord) -> LaurentPoly:
    """Exact Jones value of the closure as a Laurent polynomial in A."""
    m = jones_rep(word).matrix
    return jones_value(m[0][0] + m[1][1], A, D, writhe(word))
