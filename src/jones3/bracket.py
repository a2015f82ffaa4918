"""Brute-force state sum for the bracket of a closed 3-braid.

Independent oracle: every crossing is smoothed both ways, each state is a
stack of planar matchings composed directly as diagrams, and loops are
counted explicitly (union-find at closure). Shares no code with the
algebra tables in tl3 -- its entire value is that independence.

Cost is 2^L states, so the word length is capped (default 20).
"""

from __future__ import annotations

from .braid import BraidWord, CapExceeded
from .laurent import D, ZERO, LaurentPoly


# Boundary points: 0,1,2 = top strands, 3,4,5 = bottom strands.
_ID_PAIRING = (3, 4, 5, 0, 1, 2)


class PlanarMatching:
    """Pairing of the 6 boundary points plus loops absorbed so far."""

    def __init__(self) -> None:
        self.partner = list(_ID_PAIRING)
        self.loop_count = 0

    def attach_cap(self, index: int) -> None:
        """Stack the cap-cup diagram of generator U_index underneath.

        The cap joins the current bottom points a, b; the cup opens a fresh
        pair at the new bottom boundary. A closed loop is absorbed when a
        and b were already paired with each other.
        """
        a, b = (3, 4) if index == 1 else (4, 5)
        p = self.partner[a]
        q = self.partner[b]
        if p == b:
            self.loop_count += 1
        else:
            self.partner[p] = q
            self.partner[q] = p
        self.partner[a] = b
        self.partner[b] = a


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x: int, y: int) -> None:
        self.parent[self.find(x)] = self.find(y)


def closure_loop_count(matching: PlanarMatching) -> int:
    """Number of circles after joining top strand i to bottom strand i."""
    uf = _UnionFind(6)
    for point, mate in enumerate(matching.partner):
        uf.union(point, mate)
    for i in range(3):
        uf.union(i, i + 3)
    return len({uf.find(p) for p in range(6)})


def bracket_state_sum(word: BraidWord, cap: int = 20) -> LaurentPoly:
    """Sum A^(smoothing weight) * d^(loops - 1) over all 2^L smoothings.

    For a positive letter the identity smoothing weighs A and the cap-cup
    smoothing weighs A^-1; signs swap the two weights.
    """
    length = len(word)
    if length > cap:
        raise CapExceeded(f"word length {length} exceeds state-sum cap {cap}")

    # Group states by (A-exponent, loop count); one polynomial op per group.
    letters = word.letters
    state_tally: dict[tuple[int, int], int] = {}
    for bits in range(1 << length):
        matching = PlanarMatching()
        a_exp = 0
        for position, (index, sign) in enumerate(letters):
            if (bits >> position) & 1:
                a_exp -= sign
                matching.attach_cap(index)
            else:
                a_exp += sign
        loops = matching.loop_count + closure_loop_count(matching)
        key = (a_exp, loops)
        state_tally[key] = state_tally.get(key, 0) + 1

    total = ZERO
    for (a_exp, loops), count in state_tally.items():
        total = total + LaurentPoly.monomial(count, a_exp) * D ** (loops - 1)
    return total
