import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from jones3 import philox  # noqa: E402


@settings(max_examples=400)
@given(
    n=st.one_of(st.integers(0, 100), st.integers(0, (1 << 63) - 1)),
    p=st.floats(0.0, 1.0),
    seed=st.integers(0, (1 << 64) - 1),
    circuit=st.integers(0, 1),
    entry=st.integers(0, 1),
)
def test_binomial_is_numpys_draw(n, p, seed, circuit, entry):
    key = seed | (circuit << 64) | (entry << 65)
    assert philox.binomial(key, n, p) == np.random.Generator(np.random.Philox(key=key)).binomial(n, p)
