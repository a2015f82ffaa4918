"""The ordered product of a stack of 2x2 matrices, shared by every route.

A word is compiled run by run: each run s_j^k has one 2x2 image, in closed
form, so the stack has one row per run, not per letter. The classical and
quantum routes reduce a complex stack of unitary gates; the exact route
reduces an object stack whose entries are Laurent polynomials. Both go
through the same lines.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .braid import BraidWord, CapExceeded

# The value of a word moves about L times as fast as the angle, so rounding
# phi to a double leaves an error of about L * 1e-16 in the answer: at this
# cap that is 1e-9, the tolerance verify allows.
MAX_LETTERS = 10**7


def run_stack(
    word: BraidWord, image: Callable[[int, int], np.ndarray], dtype, cap: int = MAX_LETTERS
) -> np.ndarray:
    """The (R, 2, 2) stack of the images of a word's R runs, in word order.

    ``image(j, k)`` is the 2x2 image of the run s_j^k; it is called once per
    distinct run. A word of more than ``cap`` letters raises ``CapExceeded``
    before any image is built.
    """
    length = sum(abs(k) for _, k in word.runs)
    if length > cap:
        raise CapExceeded(f"word length {length} exceeds letter cap {cap}")
    rows: dict[tuple[int, int], int] = {}
    codes = [rows.setdefault(run, len(rows)) for run in word.runs]
    table = np.empty((len(rows), 2, 2), dtype=dtype)
    for (j, k), row in rows.items():
        table[row] = image(j, k)
    return table[np.array(codes, dtype=np.intp)]


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
