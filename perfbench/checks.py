"""Output checks that rest on closed forms and on properties of the Jones
polynomial, never on stored program output.

Words are lists of (generator, exponent) tokens, exponent != 0, so a run
``s1^37`` is one token. Conventions match the program's documented ones:
the Jones variable is t = A^-4, an angle phi means t = e^{i phi}, so the
evaluation point is A = e^{-i phi / 4}.

Every check returns a list of problems; an empty list means the answer
passed.
"""

from __future__ import annotations

import cmath
import math
import re

Tokens = list[tuple[int, int]]

# Classical and exact values agree to this absolute tolerance, plus
# PER_LETTER_TOL for every letter of the word: double-precision products of
# L unit-modulus 2x2 factors drift by a few ulps per factor.
VALUE_TOL = 1e-9
PER_LETTER_TOL = 1e-14


def value_tol(letters: int) -> float:
    return VALUE_TOL + PER_LETTER_TOL * letters


# --- word arithmetic ------------------------------------------------------


def letters(tokens: Tokens) -> int:
    return sum(abs(k) for _, k in tokens)


def writhe(tokens: Tokens) -> int:
    return sum(k for _, k in tokens)


def mirrored(tokens: Tokens) -> Tokens:
    """Every crossing flipped: the closure's mirror image."""
    return [(g, -k) for g, k in tokens]


def rotated(tokens: Tokens, by: int) -> Tokens:
    """Cyclic rotation by whole tokens: the same closed link."""
    return tokens[by:] + tokens[:by]


def components(tokens: Tokens) -> int:
    """Number of cycles of the braid's permutation of the three strands."""
    strands = [0, 1, 2]
    for g, k in tokens:
        if k % 2:
            strands[g - 1], strands[g] = strands[g], strands[g - 1]
    seen, cycles = set(), 0
    for start in range(3):
        if start not in seen:
            cycles += 1
            i = start
            while i not in seen:
                seen.add(i)
                i = strands[i]
    return cycles


def runs(tokens: Tokens) -> list[int]:
    """Lengths of maximal same-letter runs (same generator, same sign)."""
    out: list[int] = []
    last = None
    for g, k in tokens:
        letter = (g, k > 0)
        if letter == last:
            out[-1] += abs(k)
        else:
            out.append(abs(k))
        last = letter
    return out


def to_text(tokens: Tokens) -> str:
    return " ".join(f"s{g}" if k == 1 else f"s{g}^{k}" for g, k in tokens)


# --- Laurent polynomials in A, as {exponent: coefficient} -----------------

_TERM = re.compile(r"(\d*)(?:A(?:\^(-?\d+))?)?")


def parse_poly(text: str) -> dict[int, int]:
    """Read the program's polynomial text, e.g. ``A^8 - 2A^4 + 1 - A^-4``."""
    text = text.strip()
    if text == "0":
        return {}
    parts = text.split(" ")
    if len(parts) % 2 == 0:
        raise ValueError(f"unbalanced polynomial text {text!r}")
    signed = [("-", parts[0][1:]) if parts[0].startswith("-") else ("+", parts[0])]
    signed += list(zip(parts[1::2], parts[2::2]))
    poly: dict[int, int] = {}
    for sign, body in signed:
        m = _TERM.fullmatch(body)
        if sign not in "+-" or not body or not m:
            raise ValueError(f"bad term {sign}{body!r} in {text!r}")
        has_a = "A" in body
        if not has_a and not m.group(1):
            raise ValueError(f"bad term {body!r} in {text!r}")
        coeff = int(m.group(1) or "1") * (-1 if sign == "-" else 1)
        exp = (int(m.group(2)) if m.group(2) else 1) if has_a else 0
        poly[exp] = poly.get(exp, 0) + coeff
    return {e: c for e, c in poly.items() if c}


def eval_poly(poly: dict[int, int], a: complex) -> complex:
    return sum((c * a**e for e, c in poly.items()), 0j)


def torus_poly(q: int) -> dict[int, int]:
    """V(T(3,q)) = t^{q-1} (1 - t^4 - t^{q+1} + t^{q+3}) / (1 - t^2)
    = t^{q-1} + t^{q+1} - t^{2q}, for q prime to 3, in A with t = A^-4."""
    poly: dict[int, int] = {}
    for e, c in ((q - 1, 1), (q + 1, 1), (2 * q, -1)):
        poly[-4 * e] = poly.get(-4 * e, 0) + c
    return {e: c for e, c in poly.items() if c}


# --- the 2-dimensional representation, computed here ----------------------


def point(phi: float) -> complex:
    """Evaluation point A = e^{-i phi/4} for t = e^{i phi}."""
    return cmath.exp(-0.25j * phi)


def rep_trace(tokens: Tokens, phi: float) -> complex:
    """tr of sigma_j -> A (1 - E_j) + (-A^-3) E_j over the word, for |phi| < 2 pi/3.

    E1, E2 are rank-1 projectors with tr(E1 E2) = 1/d^2, d = -A^2 - A^-2, so
    d E_j satisfies the Temperley-Lieb relations and A + A^-1 d E_j is the
    Kauffman skein image of a crossing. E_j has eigenvalues 0 and 1, so a
    run sigma_j^k maps to A^k (1 - E_j) + (-A^-3)^k E_j in closed form.
    """
    a = point(phi)
    d = -2.0 * math.cos(phi / 2.0)
    c = 1.0 / d
    s = math.sqrt(max(1.0 - c * c, 0.0))
    proj = {1: (1.0, 0.0, 0.0), 2: (c * c, c * s, s * s)}  # (p00, p01, p11)
    lam = -(a**-3)
    m00, m01, m10, m11 = 1 + 0j, 0j, 0j, 1 + 0j
    for g, k in tokens:
        p00, p01, p11 = proj[g]
        base, top = a**k, lam**k
        diff = top - base
        g00, g01, g11 = base + diff * p00, diff * p01, base + diff * p11
        m00, m01 = m00 * g00 + m01 * g01, m00 * g01 + m01 * g11
        m10, m11 = m10 * g00 + m11 * g01, m10 * g01 + m11 * g11
    return m00 + m11


def jones_value(tokens: Tokens, phi: float) -> complex:
    """V(e^{i phi}) = (-A^3)^-w [tr rho_2 + (d^2 - 2) A^w]; the second term is
    the 1-dimensional irrep, where every U_j acts as 0."""
    a = point(phi)
    w = writhe(tokens)
    d = -2.0 * math.cos(phi / 2.0)
    bracket = rep_trace(tokens, phi) + (d * d - 2.0) * a**w
    return (-(a**3)) ** (-w) * bracket


# --- checks on one answer ---------------------------------------------------


def poly_at_one(poly: dict[int, int], tokens: Tokens) -> list[str]:
    """V(1) = (-2)^{c-1}, with c the number of link components."""
    expected = (-2) ** (components(tokens) - 1)
    got = sum(poly.values())
    return [] if got == expected else [f"V(1) = {got}, expected (-2)^(c-1) = {expected}"]


def value_at_one(value: complex, tokens: Tokens) -> list[str]:
    expected = (-2) ** (components(tokens) - 1)
    tol = value_tol(letters(tokens))
    if abs(value - expected) <= tol:
        return []
    return [f"V(1) = {value}, expected {expected} within {tol:.1e}"]


def same_poly(poly: dict[int, int], reference: dict[int, int], what: str) -> list[str]:
    if poly == reference:
        return []
    diff = sorted(e for e in set(poly) | set(reference) if poly.get(e) != reference.get(e))
    return [f"{what}: polynomials differ at exponents {diff[:5]}"]


def mirror_poly(poly: dict[int, int], reference: dict[int, int]) -> list[str]:
    """The mirror image has V(t^-1): every exponent of A negated."""
    return same_poly(poly, {-e: c for e, c in reference.items()}, "mirror is not V(t^-1)")


def torus_matches(poly: dict[int, int], q: int) -> list[str]:
    return same_poly(poly, torus_poly(q), f"(s1 s2)^{q} is not V(T(3,{q}))")


def close(value: complex, expected: complex, tol: float, what: str) -> list[str]:
    if abs(value - expected) <= tol:
        return []
    return [f"{what}: {value} vs {expected}, deviation {abs(value - expected):.3e} > {tol:.1e}"]


def classical_matches_exact(value: complex, poly: dict[int, int], phi: float, tokens: Tokens) -> list[str]:
    expected = eval_poly(poly, point(phi))
    return close(value, expected, value_tol(letters(tokens)), "classical vs exact at the same angle")


def modulus(value: complex, tokens: Tokens, phi: float) -> list[str]:
    """|V(e^{i phi})| against the value computed here; the framing factor
    (-A^3)^{+-w} has modulus 1, so this holds whichever sign it carries."""
    expected = abs(jones_value(tokens, phi))
    return close(abs(value), expected, value_tol(letters(tokens)), "|V| differs from the 2x2 evaluation")


def mirror_conjugate(value: complex, reference: complex, tokens: Tokens) -> list[str]:
    return close(value, reference.conjugate(), value_tol(letters(tokens)), "mirror is not the conjugate")


def same_value(value: complex, reference: complex, tokens: Tokens) -> list[str]:
    return close(value, reference, value_tol(letters(tokens)), "rotation changed the value")


def trace_within(re_est: float, im_est: float, trace: complex, eps1: float) -> list[str]:
    """Each rigorous-mode trace part lies within eps1 of the exact trace."""
    problems = []
    for part, est, exact in (("Re", re_est, trace.real), ("Im", im_est, trace.imag)):
        if not abs(est - exact) <= eps1:
            problems.append(f"{part} tr estimate {est} is {abs(est - exact):.3e} from {exact}, above eps1 = {eps1}")
    return problems


def verify_passed(report: dict) -> list[str]:
    if report.get("state_sum_match") is True:
        return []
    return [f"verify did not match the state sum: {report}"]
