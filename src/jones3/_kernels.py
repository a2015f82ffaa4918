"""The ordered product of a stack of 2x2 matrices, shared by every route.

The classical and quantum routes reduce a complex stack of unitary gates;
the exact route reduces an object stack whose entries are Laurent
polynomials. Both go through the same lines.
"""

from __future__ import annotations

import numpy as np

from .braid import BraidWord, CapExceeded

# letter_codes refuses longer words before allocating: each letter costs
# about 110 bytes on its way to a gate, so 10^7 letters need about 1.1 GB.
MAX_LETTERS = 10**7


def letter_codes(word: BraidWord) -> np.ndarray:
    """Row of each letter in a (s1, s2, s1^-1, s2^-1) letter table."""
    counts = [abs(k) for _, k in word.runs]
    length = sum(counts)
    if length > MAX_LETTERS:
        raise CapExceeded(f"word length {length} exceeds letter cap {MAX_LETTERS}")
    codes = [(j - 1) + (0 if k > 0 else 2) for j, k in word.runs]
    return np.repeat(np.array(codes, dtype=np.int64), counts)


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
