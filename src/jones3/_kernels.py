"""The ordered product of a stack of 2x2 matrices, shared by every route.

The classical and quantum routes reduce a complex stack of unitary gates;
the exact route reduces an object stack whose entries are Laurent
polynomials. Both go through the same lines.
"""

from __future__ import annotations

import numpy as np

from .braid import BraidWord


def letter_codes(word: BraidWord) -> np.ndarray:
    """Row of each letter in a (s1, s2, s1^-1, s2^-1) letter table."""
    return np.fromiter(
        ((letter.index - 1) + (0 if letter.sign > 0 else 2) for letter in word),
        dtype=np.int64,
        count=len(word),
    )


def chain_product(mats: np.ndarray) -> np.ndarray:
    """Product of an (L, 2, 2) stack in order, the identity when empty.

    Adjacent pairs are multiplied in vectorized batches; associativity keeps
    the result equal to the sequential product. The dtype is kept, so the
    same tree serves numeric and object stacks.
    """
    m = np.asarray(mats)
    if m.shape[0] == 0:
        return np.eye(2, dtype=m.dtype)
    while m.shape[0] > 1:
        pairs = m.shape[0] // 2
        reduced = m[0 : 2 * pairs : 2] @ m[1 : 2 * pairs : 2]
        m = np.concatenate([reduced, m[-1:]], axis=0) if m.shape[0] % 2 else reduced
    return m[0]
