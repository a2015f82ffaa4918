"""The ordered product of a stack of complex 2x2 gates, for the classical and
quantum routes.

A word is compiled run by run: each run s_j^k has one 2x2 gate, in closed
form, so the stack has one row per run, not per letter. The exact route
folds its Laurent-polynomial images in plain Python (``tl3.fold``), so that
it loads no numpy.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .braid import BraidWord, run_images

# The value of a word moves about L times as fast as the angle, so rounding
# phi to a double leaves an error of about L * 1e-16 in the answer: at this
# cap that is 1e-9, the tolerance verify allows.
MAX_LETTERS = 10**7


def run_stack(word: BraidWord, image: Callable[[int, int], np.ndarray]) -> np.ndarray:
    """The complex (R, 2, 2) stack of the gates of a word's R runs, in word order.

    ``image(j, k)`` is the 2x2 gate of the run s_j^k; it is called once per
    distinct run. A word of more than ``MAX_LETTERS`` letters raises
    ``CapExceeded`` before any gate is built.
    """
    images, codes = run_images(word, image, MAX_LETTERS)
    table = np.empty((len(images), 2, 2), dtype=np.complex128)
    for row, matrix in enumerate(images):
        table[row] = matrix
    return table[np.array(codes, dtype=np.intp)]


def chain_product(mats: np.ndarray) -> np.ndarray:
    """Product of an (L, 2, 2) stack in order, the identity when empty.

    Adjacent pairs are multiplied in vectorized batches; associativity keeps
    the result equal to the sequential product. The dtype is kept.
    """
    m = np.asarray(mats)
    if m.shape[0] == 0:
        return np.eye(2, dtype=m.dtype)
    while m.shape[0] > 1:
        pairs = m.shape[0] // 2
        reduced = m[0 : 2 * pairs : 2] @ m[1 : 2 * pairs : 2]
        m = np.concatenate([reduced, m[-1:]], axis=0) if m.shape[0] % 2 else reduced
    return m[0]
