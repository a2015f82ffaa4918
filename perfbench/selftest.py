"""Self-test of the output checks: each accepts a right answer and rejects a
wrong one (a value off by ten times its tolerance, or a polynomial with one
coefficient changed). The right answers come from closed forms and from the
2x2 evaluation in checks.py, never from the program.

    python3 perfbench/run.py --self-test
"""

from __future__ import annotations

import random

import checks
import workloads


def _cases():
    rng = random.Random(7)
    w = workloads.random_letters(rng, 9)
    long_w = workloads.random_runs(rng, 5000)
    phi = 0.9
    tol = checks.value_tol(checks.letters(w))
    long_tol = checks.value_tol(checks.letters(long_w))
    trefoil = checks.torus_poly(2)  # t + t^3 - t^4, a knot: V(1) = 1
    poly = checks.torus_poly(5)
    bumped = {**poly, max(poly): poly[max(poly)] + 1}
    value = checks.jones_value(w, phi)
    long_value = checks.jones_value(long_w, phi)
    trace = checks.rep_trace(w, phi)
    torus4 = [(1, 1), (2, 1)] * 4
    at_one = (-2) ** (checks.components(long_w) - 1)
    err = 10 * tol
    return [
        # (name, check on the right answer, check on a wrong answer)
        ("V(1) of a polynomial", lambda: checks.poly_at_one(trefoil, [(1, 1), (2, 1)] * 2),
         lambda: checks.poly_at_one({**trefoil, -4: 2}, [(1, 1), (2, 1)] * 2)),
        ("V(1) of a value", lambda: checks.value_at_one(at_one, long_w),
         lambda: checks.value_at_one(at_one + 10 * long_tol, long_w)),
        ("torus closed form", lambda: checks.torus_matches(checks.torus_poly(4), 4),
         lambda: checks.torus_matches({**checks.torus_poly(4), -12: 2}, 4)),
        ("rotation, exact", lambda: checks.same_poly(dict(poly), poly, "rotation"),
         lambda: checks.same_poly(bumped, poly, "rotation")),
        ("mirror, exact", lambda: checks.mirror_poly({-e: c for e, c in poly.items()}, poly),
         lambda: checks.mirror_poly({-e: c for e, c in bumped.items()}, poly)),
        ("classical vs exact", lambda: checks.classical_matches_exact(checks.eval_poly(poly, checks.point(phi)), poly, phi, w),
         lambda: checks.classical_matches_exact(checks.eval_poly(poly, checks.point(phi)) + err, poly, phi, w)),
        ("mirror, value", lambda: checks.mirror_conjugate(value.conjugate(), value, w),
         lambda: checks.mirror_conjugate(value.conjugate() + err * 1j, value, w)),
        ("rotation, value", lambda: checks.same_value(value, value, w),
         lambda: checks.same_value(value + err, value, w)),
        ("modulus", lambda: checks.modulus(long_value * checks.point(phi) ** 7, long_w, phi),
         lambda: checks.modulus(long_value * (1 + 10 * long_tol), long_w, phi)),
        ("quantum Re part", lambda: checks.trace_within(trace.real + 0.05, trace.imag - 0.05, trace, 0.1),
         lambda: checks.trace_within(trace.real + 1.0, trace.imag, trace, 0.1)),
        ("quantum Im part", lambda: checks.trace_within(trace.real, trace.imag, trace, 0.1),
         lambda: checks.trace_within(trace.real, trace.imag - 1.0, trace, 0.1)),
        ("verify", lambda: checks.verify_passed({"state_sum_match": True, "oracle_deviation": 0.0}),
         lambda: checks.verify_passed({"state_sum_match": False, "oracle_deviation": 0.0})),
        ("2x2 value matches the torus closed form",
         lambda: checks.close(checks.jones_value(torus4, phi), checks.eval_poly(checks.torus_poly(4), checks.point(phi)),
                              1e-12, "torus"),
         lambda: checks.close(checks.jones_value(torus4, phi), checks.eval_poly(checks.torus_poly(5), checks.point(phi)),
                              1e-12, "torus")),
    ]


def _consistency():
    """The checks' own mathematics, tested against facts that do not use them."""
    problems = []
    rng = random.Random(11)
    for _ in range(50):
        w = workloads.random_letters(rng, rng.randint(0, 14))
        expected = (-2) ** (checks.components(w) - 1)
        problems += checks.close(checks.jones_value(w, 0.0), expected, 1e-9, f"V(1) of {w}")
        phi = rng.uniform(-2.0, 2.0)
        merged = []  # the same word with same-letter runs written as powers
        for g, k in w:
            if merged and merged[-1][0] == g and (merged[-1][1] > 0) == (k > 0):
                merged[-1] = (g, merged[-1][1] + k)
            else:
                merged.append((g, k))
        problems += checks.close(checks.rep_trace(merged, phi), checks.rep_trace(w, phi), 1e-9, "run form")
        problems += checks.close(checks.jones_value(checks.mirrored(w), phi), checks.jones_value(w, phi).conjugate(),
                                 1e-9, "mirror")
    for q in (1, 2, 4, 5, 7, 8, 10, 11):
        torus = [(1, 1), (2, 1)] * q
        for phi in (0.3, -1.1, 1.9):
            problems += checks.close(checks.jones_value(torus, phi),
                                     checks.eval_poly(checks.torus_poly(q), checks.point(phi)), 1e-9, f"T(3,{q})")
    text = "A^8 - 2A^4 + 1 - A - 13A^-8"
    if checks.parse_poly(text) != {8: 1, 4: -2, 0: 1, 1: -1, -8: -13}:
        problems.append(f"parse_poly({text!r}) = {checks.parse_poly(text)}")
    if checks.parse_poly("-A^-3") != {-3: -1} or checks.parse_poly("0") != {}:
        problems.append("parse_poly mishandles a leading minus or zero")
    if checks.components([]) != 3 or checks.components([(1, 1), (2, 1)]) != 1 or checks.components([(1, 2)]) != 3:
        problems.append("components() is wrong")
    return problems


def main() -> int:
    failures = 0
    for name, right, wrong in _cases():
        accepted, rejected = not right(), bool(wrong())
        failures += not (accepted and rejected)
        print(f"{'ok  ' if accepted and rejected else 'FAIL'} {name}: right answer "
              f"{'accepted' if accepted else 'rejected'}, wrong answer {'rejected' if rejected else 'accepted'}")
    problems = _consistency()
    for p in problems:
        print(f"FAIL {p}")
    print(f"{'ok  ' if not problems else 'FAIL'} checks' own mathematics on 50 random words and 8 torus knots")
    return 1 if failures or problems else 0
