"""Seeded workloads: each yields rounds of CLI operations with their checks.

A round is a fixed list of operations; a run attempts whole rounds, so the
share of scheduled-fault operations is the same in every run. Inputs come
only from the seed; the fault operations use fixed inputs that do not
depend on it.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator

import checks
from checks import Tokens

# Faults kept as scheduled failures (see README.md).
F1 = "F1"  # NonUnitaryGate at phi = 1.0 on a 10^6-letter word
F2 = "F2"  # writhe framing has the wrong sign

PHI_RANGE = 2.0  # |phi| <= 2.0, inside the unitarity region |phi| <= 2 pi / 3
SHORT_EPS1 = 0.1
EPS2 = 1e-9
# Angles at which a 10^6-letter compiled gate keeps a unitarity defect of
# 1e-12 to 5e-12, well under the program's 1e-10 gate. The defect depends on
# the angle, not on the word; at phi = 1.0 it is 2.6e-10 (fault F1).
LONG_QUANTUM_PHIS = (0.05, -0.05, 0.35, -0.35, 1.15, -1.15)
LONG_EPS1 = 0.05

# Sizes per workload; "smoke" runs every workload in seconds.
SIZES = {
    "full": {"short_max": 12, "long": 1_000_000, "exact": 600, "torus_q": 301, "shots_eps1": 0.004},
    "smoke": {"short_max": 6, "long": 20_000, "exact": 40, "torus_q": 20, "shots_eps1": 0.05},
}


@dataclass
class Op:
    """One CLI call: ``python -m jones3 <argv>``, parsed by mode, then checked.

    ``check(value, seen)`` gets the parsed answer and the answers of the
    round's earlier passing operations by key, and returns its problems.
    """

    key: str
    mode: str
    tokens: Tokens
    argv: list[str]
    check: Callable[[object, dict], list[str]]
    fault: str | None = None
    shots: int = 0  # shots per tally, quantum mode only


def _op(key, mode, tokens, extra, check, fault=None, shots=0):
    argv = ["--braid", checks.to_text(tokens), "--mode", mode, *extra]
    return Op(key, mode, tokens, argv, check, fault, shots)


def _quantum(key, tokens, phi, eps1, seed, fault=None):
    def check(v, seen):
        return checks.trace_within(v["re"], v["im"], checks.rep_trace(tokens, phi), eps1)

    extra = ["--phi", repr(phi), "--eps1", repr(eps1), "--eps2", repr(EPS2),
             "--seed", str(seed), "--bound-mode", "rigorous", "--output", "json"]
    return _op(key, "quantum", tokens, extra, check, fault, shots=rigorous_shots(eps1))


def _needs(seen, key):
    if key not in seen:
        raise LookupError(key)
    return seen[key]


def rigorous_shots(eps1: float) -> int:
    """Shots per tally that rigorous mode plans: ceil(4 ln(4/eps2) / eps1^2)."""
    return math.ceil(4.0 * math.log(4.0 / EPS2) / eps1**2)


def random_letters(rng: random.Random, length: int) -> Tokens:
    """One token per letter, uniform over s1, s2, s1^-1, s2^-1."""
    return [(rng.choice((1, 2)), rng.choice((1, -1))) for _ in range(length)]


def random_runs(rng: random.Random, length: int, max_run: int = 159) -> Tokens:
    """Alternating-generator runs s_j^k, |k| uniform in 1..max_run, random sign.

    The mean run of 80 letters keeps a 10^6-letter word near 90 KB of text,
    under Linux's 128 KiB cap on one argument.
    """
    tokens: Tokens = []
    total, g = 0, rng.choice((1, 2))
    while total < length:
        k = min(rng.randint(1, max_run), length - total)
        tokens.append((g, k * rng.choice((1, -1))))
        total += k
        g = 3 - g
    return tokens


def short_calls(rng: random.Random, size: dict) -> list[Op]:
    """Words of 4..12 letters through all four modes; start-up dominates."""
    w = random_letters(rng, rng.randint(4, size["short_max"]))
    phi = rng.uniform(-PHI_RANGE, PHI_RANGE)
    mirror = checks.mirrored(w)
    rot = checks.rotated(w, rng.randrange(1, len(w)))
    return [
        _op("exact", "exact", w, [], lambda v, seen: checks.poly_at_one(v, w)),
        _op("classical", "classical", w, ["--phi", repr(phi)],
            lambda v, seen: checks.classical_matches_exact(v, _needs(seen, "exact"), phi, w)),
        _op("mirror", "classical", mirror, ["--phi", repr(phi)],
            lambda v, seen: checks.mirror_conjugate(v, _needs(seen, "classical"), w)),
        _quantum("quantum", w, phi, SHORT_EPS1, rng.getrandbits(32)),
        _op("verify", "verify", w, [], lambda v, seen: checks.verify_passed(v)),
        _op("rotation", "exact", rot, [],
            lambda v, seen: checks.same_poly(v, _needs(seen, "exact"), "rotation changed the polynomial")),
    ]


@functools.cache
def _fixed_long_word(length: int) -> Tokens:
    return random_runs(random.Random(0), length)


def long_words(rng: random.Random, size: dict) -> list[Op]:
    """10^6-letter words as s_j^k runs: parse, expansion and the chain product."""
    n = size["long"]
    w = random_runs(rng, n)
    phi = rng.uniform(-PHI_RANGE, PHI_RANGE)
    rot = checks.rotated(w, rng.randrange(1, len(w)))
    rot_at_1 = checks.rotated(w, rng.randrange(1, len(w)))
    return [
        _op("classical", "classical", w, ["--phi", repr(phi)], lambda v, seen: checks.modulus(v, w, phi)),
        _op("mirror", "classical", checks.mirrored(w), ["--phi", repr(phi)],
            lambda v, seen: checks.mirror_conjugate(v, _needs(seen, "classical"), w)),
        _op("rotation", "classical", rot, ["--phi", repr(phi)],
            lambda v, seen: checks.same_value(v, _needs(seen, "classical"), w)),
        _op("rotation_at_1", "classical", rot_at_1, ["--phi", "0.0"], lambda v, seen: checks.value_at_one(v, w)),
        _quantum("quantum", w, rng.choice(LONG_QUANTUM_PHIS), LONG_EPS1, rng.getrandbits(32)),
        _quantum("quantum_phi1", _fixed_long_word(n), 1.0, LONG_EPS1, 0, fault=F1),
    ]


def exact_poly(rng: random.Random, size: dict) -> list[Op]:
    """Exact polynomials of 600-letter words: the tl3 fold and big integers."""
    ops = []
    for i in range(2):
        w = random_letters(rng, size["exact"])
        rot = checks.rotated(w, rng.randrange(1, len(w)))
        key = f"exact{i}"
        ops += [
            _op(key, "exact", w, [], lambda v, seen, w=w: checks.poly_at_one(v, w)),
            _op(f"mirror{i}", "exact", checks.mirrored(w), [],
                lambda v, seen, key=key: checks.mirror_poly(v, _needs(seen, key))),
            _op(f"rotation{i}", "exact", rot, [],
                lambda v, seen, key=key: checks.same_poly(v, _needs(seen, key), "rotation changed the polynomial")),
        ]
    q = size["torus_q"]
    torus = [(1, 1), (2, 1)] * q
    ops.append(_op("torus", "exact", torus, [],
                   lambda v, seen: checks.poly_at_one(v, torus) + checks.torus_matches(v, q), fault=F2))
    return ops


def many_shots(rng: random.Random, size: dict) -> list[Op]:
    """Rigorous quantum estimates at 5.5M shots per tally: keyed sampling."""
    return [
        _quantum(f"quantum{i}", random_letters(rng, rng.randint(100, 300)),
                 rng.uniform(-PHI_RANGE, PHI_RANGE), size["shots_eps1"], rng.getrandbits(32))
        for i in range(4)
    ]


WORKLOADS = {
    "short_calls": short_calls,
    "long_words": long_words,
    "exact_poly": exact_poly,
    "many_shots": many_shots,
}


def rounds(workload: str, seed: int, size: str = "full") -> Iterator[list[Op]]:
    """Endless rounds of the workload; the same seed gives the same rounds."""
    make = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield make(rng, SIZES[size])
