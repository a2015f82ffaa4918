"""Simulated one-ancilla trace estimation and the end-to-end sampled evaluator.

The real-part circuit is (H x I) . ctrl-U . (H x I) on |0>|k>; measuring the
ancilla gives P(0) = 1/2 + Re<k|U|k>/2. The imaginary-part circuit inserts
the phase gate S on the ancilla after the first Hadamard, giving
P(1) - P(0) = Im<k|U|k>. Probabilities are always obtained by applying the
gates, pairs of rows multiplied with ``tl3.mul``, to the 4-amplitude state;
the closed forms live only in tests. A (2, 2) array may stand for a gate.

Only the count of zeros in n shots is used, and n independent Bernoulli(p0)
shots give Binomial(n, p0) zeros, so each tally is one ``philox.binomial``
draw keyed by (seed, circuit, entry): the count of n keyed uniforms below p0,
found by descending through their order statistics, so it is monotone in p0.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .braid import BraidWord, InvalidPrecision, NonUnitaryGate, writhe
from .rep2 import IDENTITY, Matrix, RepParams, compile_gate
from .tl3 import jones_value, mul

_RE, _IM = 0, 1
_MAX_SHOTS = 1 << 63  # keeps philox.binomial's tree node numbers (below 2^60) in the counter's 64-bit word

_R = complex(1.0 / math.sqrt(2.0))
_HADAMARD: Matrix = ((_R, _R), (_R, -_R))
_PHASE_S: Matrix = ((1 + 0j, 0j), (0j, 1j))


def _require_unitary(gate: Matrix) -> None:
    (a, b), (c, d) = gate
    (p, q), (r, s) = mul(gate, ((a.conjugate(), c.conjugate()), (b.conjugate(), d.conjugate())))
    # hypot, as abs() of a complex raises OverflowError past the float range;
    # NaN ranks highest, as it compares false with everything and max() could drop it.
    defects = [math.hypot(z.real, z.imag) for z in (p - 1, q, r, s - 1)]
    defect = max(defects, key=lambda x: math.inf if math.isnan(x) else x)
    if not defect <= 1e-10:
        raise NonUnitaryGate(f"gate deviates from unitarity by {defect:.3e}")


def pipeline_states(gate: Matrix, k: int, imag: bool) -> list[Matrix]:
    """States after each gate of the circuit, as (ancilla, qubit) amplitudes.

    Each state is a pair of rows, one per value of the ancilla.
    """
    psi = (IDENTITY[k], (0j, 0j))
    states = [psi]
    psi = mul(_HADAMARD, psi)
    states.append(psi)
    if imag:
        psi = mul(_PHASE_S, psi)
        states.append(psi)
    # ctrl-U maps the ancilla-1 row r to U r, which is row 1 of psi U^T.
    psi = (psi[0], mul(psi, tuple(zip(*gate)))[1])
    states.append(psi)
    states.append(mul(_HADAMARD, psi))
    return states


# --- shot planning -------------------------------------------------------


class ShotPlan(NamedTuple):
    epsilon1: float
    epsilon2: float
    n: int
    bound_mode: str


def shots_for(epsilon1: float, epsilon2: float, bound_mode: str = "paper") -> ShotPlan:
    """Shots per diagonal entry per part for the requested joint guarantee.

    ``paper`` uses n = ceil(ln(4/eps2) / (2 eps1^2)); ``rigorous`` uses the
    two-sided Hoeffding bound for a mean of 2n variables in [-1, 1] scaled
    by 2, union-bounded over the two parts: n = ceil(4 ln(4/eps2) / eps1^2).
    Plans of 2^63 shots or more cannot be drawn and are rejected.
    """
    if not epsilon1 > 0:
        raise InvalidPrecision(f"epsilon1 must be positive, got {epsilon1}")
    if not 0 < epsilon2 <= 1:
        raise InvalidPrecision(f"epsilon2 must lie in (0, 1], got {epsilon2}")
    # ln 4 - ln eps2, not ln(4/eps2): 4/eps2 overflows to inf below eps2 = 2.2e-308.
    log_term = math.log(4.0) - math.log(epsilon2)
    if bound_mode == "paper":
        numerator = log_term / 2.0
    elif bound_mode == "rigorous":
        numerator = 4.0 * log_term
    else:
        raise InvalidPrecision(f"bound_mode must be 'paper' or 'rigorous', got {bound_mode!r}")
    # Divided twice: epsilon1**2 raises OverflowError past about 1.3e154.
    shots = numerator / epsilon1 / epsilon1
    if not shots < _MAX_SHOTS:
        raise InvalidPrecision(f"epsilon1 = {epsilon1} plans {shots:.3g} shots per entry, 2^63 or more")
    return ShotPlan(epsilon1, epsilon2, max(math.ceil(shots), 1), bound_mode)


# --- keyed sampling ------------------------------------------------------


def _count_zeros(p0: float, n: int, key: tuple[int, int, int]) -> int:
    """Zeros among n Bernoulli(p0) shots, as one keyed binomial draw."""
    from . import philox

    seed, circuit, entry = key
    if not 0 <= seed < 1 << 64:
        raise InvalidPrecision(f"seed must lie in [0, 2^64), got {seed}")
    # Injectively pack the stream coordinates into the 128-bit Philox key.
    # A gate that passes the unitarity gate can put p0 about 1e-10 past 1,
    # which binomial rejects.
    return philox.binomial(seed | (circuit << 64) | (entry << 65), n, min(max(p0, 0.0), 1.0))


class TraceEstimate(NamedTuple):
    re_estimate: float
    im_estimate: float
    n: int
    seed: int
    shot_counts: dict[str, list[tuple[int, int]]]


def _tally(gate: Matrix, n: int, seed: int, circuit: int) -> tuple[float, list[tuple[int, int]]]:
    """One circuit's trace part and its (zeros, ones) counts on each diagonal entry.

    The real part sums P(0) - P(1) over the entries; the imaginary part sums
    P(1) - P(0).
    """
    _require_unitary(gate)
    if not 1 <= n < _MAX_SHOTS:
        raise InvalidPrecision(f"shot count must lie in [1, 2^63), got {n}")
    part = 0.0
    counts = []
    for k in (0, 1):
        # P(0) is the squared norm of the final state's ancilla-0 row.
        (a, b), _ = pipeline_states(gate, k, imag=circuit == _IM)[-1]
        zeros = _count_zeros(abs(a) ** 2 + abs(b) ** 2, n, (seed, circuit, k))
        counts.append((zeros, n - zeros))
        balance = (2 * zeros - n) / n
        part += -balance if circuit == _IM else balance
    return part, counts


def estimate_trace(gate: Matrix, n: int, seed: int = 0) -> TraceEstimate:
    """Sampled estimate of tr(gate) from 4n keyed Hadamard-test shots."""
    re_est, re_counts = _tally(gate, n, seed, _RE)
    im_est, im_counts = _tally(gate, n, seed, _IM)
    return TraceEstimate(re_est, im_est, n, seed, {"re": re_counts, "im": im_counts})


def approx_re_trace(gate: Matrix, n: int, seed: int = 0) -> float:
    """Normalized (zeros - ones)/n summed over both diagonal entries."""
    return _tally(gate, n, seed, _RE)[0]


def approx_im_trace(gate: Matrix, n: int, seed: int = 0) -> float:
    """Normalized (ones - zeros)/n summed over both diagonal entries."""
    return _tally(gate, n, seed, _IM)[0]


# --- end-to-end sampled evaluator ----------------------------------------


def quantum_3sb(word: BraidWord, params: RepParams, epsilon1: float, epsilon2: float, seed: int = 0,
                bound_mode: str = "paper") -> tuple[complex, TraceEstimate]:
    """Sampled Jones value at the angle of ``params``, plus the raw trace estimate.

    The gate product is compiled once (O(L)); each shot is O(1) afterwards,
    so the sampling stage costs O(n) independent of the word length.
    """
    gate = compile_gate(word, params)
    plan = shots_for(epsilon1, epsilon2, bound_mode)
    estimate = estimate_trace(gate, plan.n, seed)
    trace = estimate.re_estimate + 1j * estimate.im_estimate
    return jones_value(trace, params.alpha, params.delta, writhe(word)), estimate
