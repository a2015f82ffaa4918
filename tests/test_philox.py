import bisect
import math
import random
import subprocess
import sys
from itertools import islice

import numpy as np
import pytest

from jones3 import philox

# The four (circuit, entry) keys hadamard draws from, at the extreme seeds.
KEYS = [seed | (circuit << 64) | (entry << 65) for seed in (0, (1 << 64) - 1) for circuit in (0, 1)
        for entry in (0, 1)]
# Leaves, one and two levels of the tree, the plans of the tests and the benchmark
# (185; 8,844; 35,376; 5,527,391), and n up to the largest the draw takes.
NS = [1, 2, 5, 30, 31, 60, 61, 185, 8_844, 35_376, 5_527_391, 10**9, 1 << 40, 1 << 62, (1 << 63) - 1]
ULP = 2.0**-53
UNIFORM_PS = [random.Random(25 + i).random() for i in range(4)]
NEAR_HALF = [0.5 - k * ULP / 2 for k in range(1, 9)]  # 1 to 8 ulp below 1/2
PS = sorted({0.0, 1.0, 0.5, 0.5 + 2 * ULP, 1e-12, 1 - 1e-12, 4e-18, *UNIFORM_PS, *NEAR_HALF,
             *(math.nextafter(p, 1) for p in UNIFORM_PS)})


@pytest.mark.parametrize("key", [0, 1, (1 << 64) - 1, 1 << 64, (1 << 128) - 1, 0x0123456789ABCDEF_FEDCBA9876543210])
def test_stream_matches_numpy(key):
    # Node 0's stream is numpy's Philox4x64-10 stream of doubles.
    assert list(islice(philox._doubles(key, 0), 20)) == list(np.random.Generator(np.random.Philox(key=key)).random(20))


@pytest.mark.parametrize("n", NS)
def test_binomial_is_monotone_in_p(n):
    for key in KEYS:
        draws = [philox.binomial(key, n, p) for p in PS]
        assert draws == sorted(draws) and 0 <= draws[0] and draws[-1] <= n


@pytest.mark.parametrize("n", [n for n in NS if n <= 1 << 40])
def test_one_ulp_moves_no_draw(n):
    for key in KEYS:
        for p in UNIFORM_PS + NEAR_HALF:
            assert philox.binomial(key, n, p) == philox.binomial(key, n, math.nextafter(p, 1))


@pytest.mark.parametrize("n", [185, 8_844, 35_376, 5_527_391])
@pytest.mark.parametrize("p", [0.3, NEAR_HALF[-1]])
def test_binomial_fits_the_exact_pmf(n, p):
    # Ten bins of about equal probability under Binomial(n, p), from the pmf over 12 standard deviations.
    sd = math.sqrt(n * p * (1 - p))
    ks = range(max(0, int(n * p - 12 * sd)), min(n, int(n * p + 12 * sd)) + 1)
    log_c = math.lgamma(n + 1)
    pmf = [math.exp(log_c - math.lgamma(k + 1) - math.lgamma(n - k + 1) + k * math.log(p) + (n - k) * math.log1p(-p))
           for k in ks]
    cdf = np.cumsum(pmf)
    edges = [ks[int(np.searchsorted(cdf, j / 10))] for j in range(1, 10)]
    expected = np.bincount([bisect.bisect_left(edges, k) for k in ks], weights=pmf, minlength=10)
    draws = [philox.binomial(seed | (1 << 64), n, p) for seed in range(1000)]
    observed = np.bincount([bisect.bisect_left(edges, d) for d in draws], minlength=10)
    assert len(set(edges)) == 9 and abs(expected.sum() - 1) < 1e-6
    chi2 = float(np.sum((observed - 1000 * expected) ** 2 / (1000 * expected)))
    assert chi2 < 27.88  # the 0.999 quantile of chi-squared on 9 degrees of freedom


def test_binomial_edges():
    for n in NS:
        for key in KEYS:
            assert philox.binomial(key, n, 0.0) == 0
            assert philox.binomial(key, n, 1.0) == n
    assert philox.binomial(KEYS[-1], 0, 0.5) == 0
    for key, n, p in ((-1, 5, 0.5), (1 << 128, 5, 0.5), (0, 1 << 63, 0.5)):
        with pytest.raises(ValueError):
            philox.binomial(key, n, p)


def test_binomial_of_a_numpy_float_is_an_int():
    for n in (5, 185, 5_527_391):
        assert type(philox.binomial(KEYS[1], n, np.float64(0.3))) is int


def test_binomial_rejects_what_numpy_rejects():
    for n, p in ((-1, 0.5), (5, -0.1), (5, 1.5), (5, math.nan)):
        with pytest.raises(ValueError):
            np.random.Generator(np.random.Philox(key=0)).binomial(n, p)
        with pytest.raises(ValueError):
            philox.binomial(0, n, p)


def test_quantum_call_loads_no_numpy_random():
    code = (
        "import sys, jones3; from jones3 import cli; loaded = 'jones3.philox' in sys.modules; "
        "cli.main(['--braid', 's1 s2^-1 s1', '--mode', 'quantum', '--phi', '1', '--eps1', '0.1', '--eps2', '0.1']); "
        "print(loaded, 'jones3.philox' in sys.modules, 'numpy.random' in sys.modules)"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.stdout.splitlines()[-1] == "False True False"
