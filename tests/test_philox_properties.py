import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from jones3 import philox  # noqa: E402


@settings(max_examples=400)
@given(
    n=st.one_of(st.integers(0, 100), st.integers(0, (1 << 63) - 1)),
    p=st.floats(0.0, 1.0),
    other=st.floats(0.0, 1.0),
    ulps=st.integers(-8, 8),
    seed=st.integers(0, (1 << 64) - 1),
    circuit=st.integers(0, 1),
    entry=st.integers(0, 1),
)
def test_binomial_is_monotone_in_p(n, p, other, ulps, seed, circuit, entry):
    key = seed | (circuit << 64) | (entry << 65)
    near = p
    for _ in range(abs(ulps)):
        near = math.nextafter(near, 1.0 if ulps > 0 else 0.0)
    draws = [philox.binomial(key, n, q) for q in sorted({p, other, near})]
    assert 0 <= draws[0] and draws == sorted(draws) and draws[-1] <= n
