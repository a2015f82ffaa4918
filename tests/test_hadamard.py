import math
from decimal import Decimal

import numpy as np
import pytest

from jones3.braid import BraidWord, parse_braid
from jones3.hadamard import (
    InvalidPrecision,
    NonUnitaryGate,
    approx_im_trace,
    approx_re_trace,
    estimate_trace,
    pipeline_states,
    quantum_3sb,
    shots_for,
)
from jones3.rep2 import IDENTITY, compile_gate, make_params
from jones3.tl3 import jones_exact
from conftest import random_unitary

EYE = np.eye(2, dtype=complex)


# --- single circuits, through the keyed tallies ---------------------------


def test_qre_identity_always_zero():
    assert estimate_trace(EYE, 50).shot_counts["re"] == [(50, 0), (50, 0)]


def test_qre_minus_identity_always_one():
    assert estimate_trace(-EYE, 50).shot_counts["re"] == [(0, 50), (0, 50)]


def test_qre_imaginary_diagonal_is_fair_coin():
    gate = np.diag([1j, -1j])
    _, ones = estimate_trace(gate, 10_000).shot_counts["re"][0]
    assert abs(ones / 10_000 - 0.5) < 0.02


def test_qim_constant_phase_always_one():
    gate = np.diag([1j, 1j])
    assert estimate_trace(gate, 50).shot_counts["im"] == [(0, 50), (0, 50)]


def test_qim_real_diagonal_is_fair_coin():
    _, ones = estimate_trace(EYE, 10_000).shot_counts["im"][0]
    assert abs(ones / 10_000 - 0.5) < 0.02


def test_qim_eighth_turn_probability():
    gate = np.diag([np.exp(1j * math.pi / 4), 1.0])
    final = pipeline_states(gate, 0, imag=True)[-1]
    p1 = np.sum(np.abs(final[1]) ** 2)
    assert abs(p1 - (0.5 + math.sqrt(2) / 4)) < 1e-12


def test_non_unitary_rejected():
    with pytest.raises(NonUnitaryGate):
        estimate_trace(2 * EYE, 50)
    with pytest.raises(NonUnitaryGate):
        estimate_trace(np.array([[1, 1], [0, 1]], dtype=complex), 50)
    with pytest.raises(NonUnitaryGate):  # an entry of gate gate^H past the float range
        estimate_trace(((1e154 * (1 + 1j), 0j), (1.3e154 + 0j, 1 + 0j)), 50)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("position", [(0, 0), (1, 1)])
def test_non_finite_gate_rejected(bad, position):
    # NaN compares false with the bound, and an inf entry makes a NaN product.
    array = np.eye(2, dtype=complex)
    array[position] = bad
    for gate in (array, array.tolist()):
        with pytest.raises(NonUnitaryGate):
            estimate_trace(gate, 10)
        with pytest.raises(NonUnitaryGate):
            approx_re_trace(gate, 10)


def test_state_norm_preserved(np_rng):
    for _ in range(20):
        gate = random_unitary(np_rng)
        for imag in (False, True):
            for state in pipeline_states(gate, 1, imag):
                assert abs(np.linalg.norm(state) - 1.0) < 1e-12


def test_exact_circuit_laws(np_rng):
    # Wiring check without sampling: P(0) from the state vector must equal
    # the closed forms for both circuits. The gate as a pair of rows gives
    # the same final state as the array.
    for _ in range(1000):
        gate = random_unitary(np_rng)
        for k in (0, 1):
            final_re = pipeline_states(gate, k, imag=False)[-1]
            p0 = np.sum(np.abs(final_re[0]) ** 2)
            assert abs(p0 - (0.5 + 0.5 * gate[k, k].real)) < 1e-12
            final_im = pipeline_states(gate, k, imag=True)[-1]
            p0 = np.sum(np.abs(final_im[0]) ** 2)
            assert abs((1 - 2 * p0) - gate[k, k].imag) < 1e-12
            assert pipeline_states(gate.tolist(), k, imag=False)[-1] == final_re
            assert pipeline_states(gate.tolist(), k, imag=True)[-1] == final_im


def test_gate_may_be_rows():
    assert estimate_trace(IDENTITY, 50) == estimate_trace(np.eye(2), 50)


# --- trace estimators -----------------------------------------------------


def test_trace_of_identity_is_exact():
    for n in (1, 7, 100):
        assert approx_re_trace(EYE, n, seed=3) == 2.0
        assert approx_re_trace(-EYE, n, seed=3) == -2.0


def test_trace_estimate_close_for_compiled_gate():
    word = BraidWord([(1, 1), (2, 1)])
    gate = compile_gate(word, make_params(math.pi / 3))
    true = np.trace(gate)
    assert abs(approx_re_trace(gate, 100_000, seed=42) - true.real) < 0.02
    assert abs(approx_im_trace(gate, 100_000, seed=42) - true.imag) < 0.02


def test_estimate_trace_consistency():
    gate = compile_gate(parse_braid("s1 s2 s1"), make_params(0.9))
    est = estimate_trace(gate, 500, seed=11)
    assert abs(est.re_estimate) <= 2.0 and abs(est.im_estimate) <= 2.0
    (z0, o0), (z1, o1) = est.shot_counts["re"]
    assert z0 + o0 == est.n and z1 + o1 == est.n
    assert est.re_estimate * est.n == pytest.approx((z0 - o0) + (z1 - o1))
    (z0, o0), (z1, o1) = est.shot_counts["im"]
    assert est.im_estimate * est.n == pytest.approx((o0 - z0) + (o1 - z1))


def test_unbiasedness():
    gate = compile_gate(parse_braid("s1 s2^-1 s2^-1"), make_params(1.2))
    true = np.trace(gate).real
    n, seeds = 50, 10_000
    estimates = [approx_re_trace(gate, n, seed=s) for s in range(seeds)]
    # Per-seed variance is at most 2/n; 3 standard errors of the seed mean.
    stderr = math.sqrt(2 / n / seeds)
    assert abs(np.mean(estimates) - true) < 3 * stderr


def test_reproducibility():
    gate = compile_gate(parse_braid("s1 s2 s1 s2"), make_params(1.0))
    a = estimate_trace(gate, 10_000, seed=99)
    b = estimate_trace(gate, 10_000, seed=99)
    assert a == b
    assert estimate_trace(gate, 10_000, seed=100) != a


def test_one_ulp_change_of_the_gate_moves_no_count():
    # The imaginary-part circuit's P(0) on entry 0 sits 1 ulp below 1/2, and 1 ulp above it once
    # u00's real part moves up one ulp.
    c, s = math.cos(0.05), math.sin(0.05)
    gate = np.array([[complex(c, -4e-16), -s], [s, complex(c, 4e-16)]])
    moved = gate.copy()
    moved[0, 0] = complex(math.nextafter(c, 2), -4e-16)
    p0s = [sum(abs(z) ** 2 for z in pipeline_states(g, 0, imag=True)[-1][0]) for g in (gate, moved)]
    assert p0s[0] < 0.5 < p0s[1]
    for n in (185, 5_527_391):
        for seed in range(50):
            assert estimate_trace(gate, n, seed).shot_counts == estimate_trace(moved, n, seed).shot_counts


def test_p0_just_past_one_is_clamped():
    # Passes the 1e-10 unitarity gate, yet P(0) of the real circuit exceeds 1.
    est = estimate_trace((1 + 4e-11) * np.eye(2), 1000)
    assert est.re_estimate == 2.0


def test_basis_independence(np_rng):
    gate = compile_gate(parse_braid("s1 s2 s2 s1^-1"), make_params(0.8))
    basis_change = random_unitary(np_rng)
    conjugated = basis_change @ gate @ basis_change.conj().T
    n, seeds = 200, 300
    a = [approx_re_trace(gate, n, seed=s) for s in range(seeds)]
    b = [approx_re_trace(conjugated, n, seed=s + seeds) for s in range(seeds)]
    stderr = math.sqrt(2 / n / seeds)
    assert abs(np.mean(a) - np.mean(b)) < 3 * math.sqrt(2) * stderr


# --- shot planning --------------------------------------------------------


def test_shots_for_paper_mode():
    assert shots_for(0.1, 0.1).n == 185
    assert shots_for(1.0, 1.0).n == 1


def test_shots_for_subnormal_epsilon2():
    # 4 / 1e-310 overflows to inf; the plan is ceil(ln(4/eps2) / (2 eps1^2)).
    expected = math.ceil((Decimal(4) / Decimal(1e-310)).ln() / 2 / Decimal(0.1) ** 2)
    assert shots_for(0.1, 1e-310).n == expected == 35760
    assert shots_for(0.1, 0.1).n == 185


def test_shots_for_rigorous_mode():
    assert shots_for(0.1, 0.1, "rigorous").n == 1476


def test_shots_for_rejects_bad_inputs():
    with pytest.raises(InvalidPrecision):
        shots_for(0.0, 0.1)
    with pytest.raises(InvalidPrecision):
        shots_for(0.1, 0.0)
    with pytest.raises(InvalidPrecision):
        shots_for(0.1, 1.5)
    with pytest.raises(InvalidPrecision):
        shots_for(0.1, 0.1, "loose")
    # NaN, an eps1 whose square underflows, and plans of 2^63 shots or more, the
    # draw's limit, which keeps its tree's node numbers within one 64-bit word.
    for eps1, mode in ((math.nan, "paper"), (1e-200, "paper"), (1e-9, "rigorous")):
        with pytest.raises(InvalidPrecision):
            shots_for(eps1, 0.1, mode)
    assert shots_for(1e-9, 0.1).n > 10**18


# --- coverage of the joint estimate ---------------------------------------


def _joint_coverage(gate, n, eps1, seeds=400):
    true = np.trace(gate)
    hits = 0
    for seed in range(seeds):
        re = approx_re_trace(gate, n, seed)
        im = approx_im_trace(gate, n, seed)
        if abs(re - true.real) <= eps1 and abs(im - true.imag) <= eps1:
            hits += 1
    return hits / seeds


COVERAGE_GATE = compile_gate(parse_braid("s1 s2^-1 s1 s1 s2^-1 s1 s2 s2"), make_params(math.pi / 3))


def _binomial_pmf(n, p):
    k = np.arange(n + 1)
    log_choose = np.array([math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1) for i in k])
    return np.exp(log_choose + k * math.log(p) + (n - k) * math.log1p(-p))


def _exact_joint_coverage(gate, n, eps1):
    """P(both parts within eps1), summed over the binomial pmfs of the four tallies.

    Each part is formed from the two entries' counts with the same float
    operations as the estimator, so lattice points at an error of exactly
    eps1 fall on the same side as they do in _joint_coverage.
    """
    true = np.trace(gate)
    balance = (2 * np.arange(n + 1) - n) / n
    coverage = 1.0
    for imag, target in ((False, true.real), (True, true.imag)):
        sign = -1.0 if imag else 1.0
        part = sign * balance[:, None] + sign * balance[None, :]
        p0 = [np.sum(np.abs(pipeline_states(gate, k, imag)[-1][0]) ** 2) for k in (0, 1)]
        joint = np.outer(_binomial_pmf(n, p0[0]), _binomial_pmf(n, p0[1]))
        coverage *= joint[np.abs(part - target) <= eps1].sum()
    return coverage


@pytest.mark.parametrize("bound_mode,expected", [("paper", 0.5006), ("rigorous", 0.9938)])
def test_exact_coverage_matches_monte_carlo(bound_mode, expected):
    n = shots_for(0.1, 0.1, bound_mode).n
    exact = _exact_joint_coverage(COVERAGE_GATE, n, 0.1)
    assert exact == pytest.approx(expected, abs=1e-4)
    seeds = 400
    stderr = math.sqrt(exact * (1 - exact) / seeds)
    assert abs(_joint_coverage(COVERAGE_GATE, n, 0.1, seeds) - exact) <= 4 * stderr


@pytest.mark.parametrize("eps1,eps2", [(0.1, 0.1), (0.2, 0.05)])
def test_coverage_rigorous_mode(eps1, eps2):
    n = shots_for(eps1, eps2, "rigorous").n
    assert _joint_coverage(COVERAGE_GATE, n, eps1) >= 1 - eps2


@pytest.mark.xfail(
    strict=True,
    reason="paper-mode shot count is derived from an overstated concentration "
    "bound; the joint variance lower bound 2/n makes 1-eps2 coverage "
    "unreachable at this n (see the acceptance suite)",
)
@pytest.mark.parametrize("eps1,eps2", [(0.1, 0.1), (0.2, 0.05)])
def test_coverage_paper_mode(eps1, eps2):
    n = shots_for(eps1, eps2, "paper").n
    assert _joint_coverage(COVERAGE_GATE, n, eps1) >= 1 - eps2


# --- end-to-end -----------------------------------------------------------


def test_quantum_empty_word_real_part_exact():
    value, estimate = quantum_3sb(BraidWord(), make_params(0.0), 0.5, 0.5, seed=1)
    # U = I: the real circuit is deterministic, so Re is exactly
    # tr(I) + (delta^2 - 2) = 4. The imaginary circuit is a fair coin, so
    # the imaginary part is sampling noise around 0, not exactly 0.
    assert value.real == 4.0
    assert estimate.re_estimate == 2.0
    assert abs(value.imag) <= 2.0


def test_quantum_matches_exact_oracle_statistically():
    word = parse_braid("s1 s2^-1 s1 s2^-1")
    params = make_params(math.pi / 2)
    eps1, eps2 = 0.05, 0.05
    expected = jones_exact(word).eval(params.alpha)
    hits = 0
    runs = 400
    for seed in range(runs):
        value, _ = quantum_3sb(word, params, eps1, eps2, seed=seed, bound_mode="rigorous")
        if abs(value.real - expected.real) <= eps1 and abs(value.imag - expected.imag) <= eps1:
            hits += 1
    assert hits / runs >= 1 - eps2


def test_quantum_propagates_domain_errors():
    from jones3.rep2 import OutsideUnitarityRegion

    with pytest.raises(OutsideUnitarityRegion):
        quantum_3sb(BraidWord(), make_params(math.pi), 0.1, 0.1)
    with pytest.raises(InvalidPrecision):
        quantum_3sb(BraidWord(), make_params(0.0), -1.0, 0.1)


def test_seed_outside_64_bits_rejected():
    gate = compile_gate(parse_braid("s1 s2"), make_params(0.5))
    for seed in (-1, 2**64, 5 + 2**64):
        with pytest.raises(InvalidPrecision):
            estimate_trace(gate, 10, seed=seed)
    estimate_trace(gate, 10, seed=2**64 - 1)
