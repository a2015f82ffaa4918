"""Words in the 3-strand braid group: parsing, serialization, writhe.

Two input grammars are accepted (whitespace-separated tokens):

* prefixed form:      ``s1 s2^-1 s1^3``
* signed-integer form: ``1 -2 1``

Mixing the two forms in one string is rejected. A word keeps the runs it
was written in, one (generator, signed exponent) per token; the canonical
serializer emits the prefixed form, one token per run. No free reduction is
ever performed: the word length is part of the contract.

The domain errors of every route live here too. They share the base
``DomainError``, which the CLI maps to exit 3.
"""

from __future__ import annotations

import re
from itertools import repeat
from typing import Callable, Iterator


class DomainError(ValueError):
    """An input outside the domain of a computation."""


class BraidParseError(DomainError):
    def __init__(self, message: str, token: str, position: int):
        super().__init__(f"{message} (token {token!r} at position {position})")
        self.token = token
        self.position = position


class UnknownGenerator(BraidParseError):
    """Generator index outside {1, 2}."""


class ZeroExponent(BraidParseError):
    """Exponent 0 is not a letter."""


class MalformedToken(BraidParseError):
    """Token matches neither grammar, or mixes grammars."""


class CapExceeded(DomainError):
    """Word longer than a cap on the letters a computation expands."""


class OutsideUnitarityRegion(DomainError):
    """The representation is undefined for |phi| > 2 pi / 3."""


class NonUnitaryGate(DomainError):
    """The Hadamard test requires a unitary gate."""


class InvalidPrecision(DomainError):
    """Precision parameters outside their legal ranges."""


class BraidWord:
    """Immutable word of (generator, signed exponent) runs; the empty word is
    the identity braid. ``BraidWord(letters)`` makes one run per (index, sign)
    letter. Equality and hashing follow the letters, so s1 s1 equals s1^2."""

    __slots__ = ("runs",)

    def __init__(self, letters=()):
        self.runs = tuple((index, sign) for index, sign in letters)
        for index, sign in self.runs:
            if index not in (1, 2):
                raise ValueError(f"generator index must be 1 or 2, got {index}")
            if sign not in (1, -1):
                raise ValueError(f"letter sign must be +1 or -1, got {sign}")

    @property
    def letters(self) -> tuple[tuple[int, int], ...]:
        """The (index, sign) pair of each letter, in order."""
        return tuple(self)

    def __len__(self) -> int:
        return sum(abs(k) for _, k in self.runs)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        for index, k in self.runs:
            yield from repeat((index, 1 if k > 0 else -1), abs(k))

    def __eq__(self, other) -> bool:
        if not isinstance(other, BraidWord):
            return NotImplemented
        return self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __repr__(self) -> str:
        return f"BraidWord({to_text(self)!r})"


def _from_runs(runs) -> BraidWord:
    """A word from runs that are already valid."""
    word = BraidWord()
    word.runs = tuple(runs)
    return word


# At most 640 digits, the least limit int() may be set to, so int() accepts
# every number that matches.
_PREFIXED = re.compile(r"^s(\d{1,640})(?:\^(-?\d{1,640}))?$")
_SIGNED = re.compile(r"^[+-]?\d{1,640}$")


def parse_braid(text: str) -> BraidWord:
    """Parse a braid word in either grammar, one run per token."""
    runs: list[tuple[int, int]] = []
    form: str | None = None
    for position, token in enumerate(text.split(), start=1):
        m = _PREFIXED.match(token)
        if m:
            token_form = "prefixed"
            index = int(m.group(1))
            exponent = int(m.group(2)) if m.group(2) is not None else 1
        elif _SIGNED.match(token):
            token_form = "signed"
            value = int(token)
            index = abs(value)
            exponent = 1 if value > 0 else -1
            if value == 0:
                raise UnknownGenerator("0 names no generator", token, position)
        else:
            raise MalformedToken("unrecognized token", token, position)

        if form is None:
            form = token_form
        elif form != token_form:
            raise MalformedToken("mixed prefixed and signed-integer forms", token, position)
        if index not in (1, 2):
            raise UnknownGenerator("the 3-strand braid group has generators 1 and 2 only", token, position)
        if exponent == 0:
            raise ZeroExponent("exponent must be nonzero", token, position)
        runs.append((index, exponent))
    return _from_runs(runs)


def to_text(word: BraidWord) -> str:
    """Canonical serialization: prefixed form, one token per run."""
    return " ".join(f"s{j}" if k == 1 else f"s{j}^{k}" for j, k in word.runs)


def writhe(word: BraidWord) -> int:
    """Sum of the letter signs (crossing signs of the closed diagram)."""
    return sum(k for _, k in word.runs)


def inverse(word: BraidWord) -> BraidWord:
    """Reverse the word and flip every sign."""
    return _from_runs((j, -k) for j, k in reversed(word.runs))


def conjugate(word: BraidWord, by: BraidWord) -> BraidWord:
    """Return by . word . by^-1."""
    return _from_runs(by.runs + word.runs + inverse(by).runs)


def run_images(word: BraidWord, image: Callable[[int, int], object], cap: int) -> tuple[list, list[int]]:
    """The images of a word's distinct runs, and for each run of the word, in
    order, the index of its image.

    ``image(j, k)`` builds the image of the run s_j^k; it is called once per
    distinct run. A word of more than ``cap`` letters raises ``CapExceeded``
    before any image is built.
    """
    length = sum(abs(k) for _, k in word.runs)
    if length > cap:
        raise CapExceeded(f"word length {length} exceeds letter cap {cap}")
    rows: dict[tuple[int, int], int] = {}
    codes = [rows.setdefault(run, len(rows)) for run in word.runs]
    return [image(j, k) for j, k in rows], codes
