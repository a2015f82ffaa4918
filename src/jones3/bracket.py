"""State sum for the bracket of a closed 3-braid.

Independent oracle: every crossing is smoothed both ways, each state is a
stack of planar matchings composed directly as diagrams, and loops are
counted explicitly (a walk along the closure). Shares no code with the
algebra tables in tl3 -- its entire value is that independence.

The 2^L states are summed letter by letter, grouped by the planar
matching they leave (Kauffman, Topology 26, 1987, reordered by
distributivity). Three strands have at most 5 such matchings, so the cost
is O(L) polynomial operations; the word length is still capped (default 20).
"""

from __future__ import annotations

from .braid import BraidWord, CapExceeded
from .laurent import A, D, ONE, ZERO, LaurentPoly


# Boundary points: 0,1,2 = top strands, 3,4,5 = bottom strands.
_ID_PAIRING = (3, 4, 5, 0, 1, 2)


class PlanarMatching:
    """Pairing of the 6 boundary points plus loops absorbed so far."""

    def __init__(self, partner=_ID_PAIRING) -> None:
        self.partner = list(partner)
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


def closure_loop_count(matching: PlanarMatching) -> int:
    """Number of circles after joining top strand i to bottom strand i.

    Each circle alternates matching arcs and closure arcs (point p to
    p + 3 mod 6); walk each one from its first unvisited point.
    """
    seen: set[int] = set()
    loops = 0
    for start in range(6):
        if start in seen:
            continue
        loops += 1
        point = start
        while point not in seen:
            mate = matching.partner[point]
            seen.update((point, mate))
            point = (mate + 3) % 6
    return loops


def bracket_state_sum(word: BraidWord, cap: int = 20) -> LaurentPoly:
    """Sum A^(smoothing weight) * d^(loops - 1) over all 2^L smoothings.

    For a positive letter the identity smoothing weighs A and the cap-cup
    smoothing weighs A^-1; signs swap the two weights. The states that
    leave the same matching are carried as one polynomial weight.
    """
    length = len(word)
    if length > cap:
        raise CapExceeded(f"word length {length} exceeds state-sum cap {cap}")

    weights: dict[tuple[int, ...], LaurentPoly] = {_ID_PAIRING: ONE}
    for index, sign in word:
        swept: dict[tuple[int, ...], LaurentPoly] = {}
        # The cap-cup smoothing weighs A^-sign, times d if it closed a loop.
        identity, cup = A**sign, (A**-sign, A**-sign * D)
        for pairing, weight in weights.items():
            swept[pairing] = swept.get(pairing, ZERO) + weight * identity
            matching = PlanarMatching(pairing)
            matching.attach_cap(index)
            capped = tuple(matching.partner)
            swept[capped] = swept.get(capped, ZERO) + weight * cup[matching.loop_count]
        weights = swept

    total = ZERO
    for pairing, weight in weights.items():
        total = total + weight * D ** (closure_loop_count(PlanarMatching(pairing)) - 1)
    return total
