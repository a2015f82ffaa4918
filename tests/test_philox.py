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
# Both sides of p n = 30, the plans of the tests and the benchmark
# (185; 8,844; 35,376; 5,527,391), and n up to the largest int64.
NS = [1, 2, 5, 30, 31, 60, 61, 185, 8_844, 35_376, 5_527_391, 10**9, 1 << 40, 1 << 62, (1 << 63) - 1]
ULP = 2.0**-53
PS = [0.0, 1.0, 0.5, 0.5 - ULP, 0.5 + 2 * ULP, 1e-12, 1 - 1e-12, 4e-18, *(random.Random(25).random() for _ in range(4))]


def numpy_binomial(key, n, p):
    return int(np.random.Generator(np.random.Philox(key=key)).binomial(n, p))


@pytest.mark.parametrize("key", [0, 1, (1 << 64) - 1, 1 << 64, (1 << 128) - 1, 0x0123456789ABCDEF_FEDCBA9876543210])
def test_stream_matches_numpy(key):
    assert list(islice(philox._doubles(key), 20)) == list(np.random.Generator(np.random.Philox(key=key)).random(20))


@pytest.mark.parametrize("n", NS)
def test_binomial_matches_numpy_on_grid(n):
    cases = [(key, p) for key in KEYS for p in PS]
    assert [philox.binomial(key, n, p) for key, p in cases] == [numpy_binomial(key, n, p) for key, p in cases]


def test_binomial_matches_numpy_across_the_inversion_switch():
    # p n = 30 is where numpy switches from inversion to BTPE, on either side of p = 1/2.
    sides = set()
    for n in (61, 185, 8_844, 5_527_391, 1 << 62):
        p30 = 30 / n
        for p in (math.nextafter(p30, 0), p30, math.nextafter(p30, 1)):
            for p in (p, 1 - p):
                sides.add(min(p, 1 - p) * n <= 30)
                assert [philox.binomial(key, n, p) for key in KEYS] == [numpy_binomial(key, n, p) for key in KEYS]
    assert sides == {True, False}


def test_binomial_wraps_like_int64():
    # Draws more than 3.04e9 from the mode make C's -k * k wrap past -2^63,
    # and n + 1 wraps at n = 2^63 - 1; both change numpy's accept test.
    rng = random.Random(2025)
    keys = [rng.getrandbits(128) for _ in range(1500)]
    for n, p in (((1 << 62), 0.5), ((1 << 63) - 1, 4e-18), ((1 << 63) - 1, 1e-16)):
        assert [philox.binomial(key, n, p) for key in keys] == [numpy_binomial(key, n, p) for key in keys]


def test_binomial_rejects_what_numpy_rejects():
    for n, p in ((-1, 0.5), (5, -0.1), (5, 1.5), (5, math.nan)):
        with pytest.raises(ValueError):
            numpy_binomial(0, n, p)
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
