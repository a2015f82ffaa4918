"""Exact arithmetic for integer Laurent polynomials in one variable ``A``.

A polynomial is stored sparsely as an exponent -> coefficient map with zero
coefficients never stored, so structural equality coincides with ring
equality. Coefficients are Python ints, hence arbitrary precision.
"""

from __future__ import annotations

import math
from typing import Iterator, Mapping


class ZeroPoint(ValueError):
    """Evaluation at alpha = 0 is undefined (negative exponents)."""


class LaurentPoly:
    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | None = None):
        clean: dict[int, int] = {}
        if terms:
            for exp, coeff in terms.items():
                if coeff:
                    clean[int(exp)] = int(coeff)
        self._terms = clean

    @classmethod
    def monomial(cls, coeff: int, exp: int) -> "LaurentPoly":
        return cls({exp: coeff})

    def terms(self) -> Iterator[tuple[int, int]]:
        """Yield (exponent, coefficient) pairs, descending in exponent."""
        for exp in sorted(self._terms, reverse=True):
            yield exp, self._terms[exp]

    def is_zero(self) -> bool:
        return not self._terms

    # --- ring structure ---------------------------------------------------

    @staticmethod
    def _coerce(other) -> "LaurentPoly | None":
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, int):
            return LaurentPoly({0: other})
        return None

    def __add__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self._terms)
        for exp, coeff in other._terms.items():
            out[exp] = out.get(exp, 0) + coeff
        return LaurentPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out: dict[int, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "LaurentPoly":
        if len(self._terms) == 1:
            ((exp, coeff),) = self._terms.items()
            if coeff in (1, -1):  # a unit: any integer power, in closed form
                return LaurentPoly.monomial(coeff ** abs(exponent), exp * exponent)
        if exponent < 0:
            raise ValueError("negative powers are only defined for the monomials +-A^k")
        result = ONE
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if self._terms.keys() <= {0}:  # a constant equals its int, so hashes as one
            return hash(self._terms.get(0, 0))
        return hash(frozenset(self._terms.items()))

    # --- evaluation and formatting ----------------------------------------

    def eval(self, alpha: complex) -> complex:
        """Evaluate at a nonzero complex point, without cancellation error.

        A long word's coefficients are huge while its value on the unit
        circle is small, so a float sum of c alpha^e loses every digit. This
        runs Horner's rule in fixed-point integers carrying p fraction bits,
        p = bits(sum |c|) + bits(span) + 64 plus the bits by which
        max(|alpha|, 1/|alpha|)^span can grow the partial sums; the error is
        then below 2^-64 times the value's scale, and the result is the
        value at the float alpha, rounded once (Higham, Accuracy and
        Stability of Numerical Algorithms, 2nd ed., section 5.1).
        """
        if alpha == 0:
            raise ZeroPoint("cannot evaluate a Laurent polynomial at 0")
        if not self._terms:
            return 0j
        alpha = complex(alpha)
        low, high = min(self._terms), max(self._terms)
        span = max(high, 0) - min(low, 0)
        p = sum(map(abs, self._terms.values())).bit_length() + span.bit_length() + 64
        p += math.ceil(span * abs(math.log2(abs(alpha))))

        def mul(x, y):
            return (x[0] * y[0] - x[1] * y[1]) >> p, (x[0] * y[1] + x[1] * y[0]) >> p

        def power(x, n: int):
            result = (1 << p, 0)
            while n:
                if n & 1:
                    result = mul(result, x)
                x, n = mul(x, x), n >> 1
            return result

        ratios = (alpha.real.as_integer_ratio(), alpha.imag.as_integer_ratio())
        a = tuple((num << p) // den for num, den in ratios)
        if low < 0:  # alpha^-1 = conj(alpha) / |alpha|^2
            norm = a[0] * a[0] + a[1] * a[1]
            a_low = power(((a[0] << 2 * p) // norm, (-a[1] << 2 * p) // norm), -low)
        else:
            a_low = power(a, low)
        # Horner in beta = alpha^step, with step the gcd of the exponent gaps.
        step = math.gcd(*(e - low for e in self._terms)) or 1
        beta = power(a, step)
        acc = (self._terms[high] << p, 0)
        for exp in range(high - step, low - 1, -step):
            re, im = mul(acc, beta)
            acc = (re + (self._terms.get(exp, 0) << p), im)
        re, im = mul(acc, a_low)
        return complex(re / (1 << p), im / (1 << p))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for exp, coeff in self.terms():
            mag = abs(coeff)
            if exp == 0:
                body = str(mag)
            else:
                var = "A" if exp == 1 else f"A^{exp}"
                body = var if mag == 1 else f"{mag}{var}"
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"{'+' if coeff > 0 else '-'} {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({self._terms!r})"


ZERO = LaurentPoly()
ONE = LaurentPoly.monomial(1, 0)
A = LaurentPoly.monomial(1, 1)
A_INV = LaurentPoly.monomial(1, -1)

# Loop weight of the diagram algebra: d = -A^2 - A^-2.
D = LaurentPoly({2: -1, -2: -1})
