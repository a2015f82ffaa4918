"""A keyed binomial draw that is monotone in p, in plain Python.

``binomial(key, n, p)`` counts how many of n uniforms fall below p by descending through their order statistics
(Devroye, Non-Uniform Random Variate Generation, Springer 1986), rescaling p by IEEE subtraction and division by a
positive number, both monotone. Each tree node draws from a Philox4x64-10 stream (Salmon et al., SC 2011) of its
own, a function of (key, node) alone, so the count never falls as p rises, and a one-ulp move of p moves it only
when an order statistic lies in between.
"""

import math
from collections.abc import Iterator
from itertools import count, islice

_M64 = (1 << 64) - 1
_LEAF = 16  # a node of at most this many uniforms counts them one by one


def _doubles(key: int, node: int) -> Iterator[float]:
    """Counters (1, node), (2, node), ...; words become (word >> 11) * 2^-53: numpy's stream at node 0."""
    round_keys = [((key + i * 0x9E3779B97F4A7C15) & _M64, ((key >> 64) + i * 0xBB67AE8584CAA73B) & _M64)
                  for i in range(10)]
    for counter in count(1):
        x0, x1, x2, x3 = counter, node, 0, 0
        for k0, k1 in round_keys:
            p0, p1 = 0xD2E7470EE14C6C93 * x0, 0xCA5A826395121157 * x2
            x0, x1, x2, x3 = (p1 >> 64) ^ x1 ^ k0, p1 & _M64, (p0 >> 64) ^ x3 ^ k1, p0 & _M64
        yield from ((word >> 11) * 2.0**-53 for word in (x0, x1, x2, x3))


def _gamma(doubles: Iterator[float], shape: int) -> float:
    """Gamma(shape) for shape >= 1 (Marsaglia and Tsang, ACM TOMS 26, 2000), normals by Box and Muller."""
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    while True:
        x = math.sqrt(-2.0 * math.log(1.0 - next(doubles))) * math.cos(2.0 * math.pi * next(doubles))
        v = (1.0 + c * x) ** 3
        if v > 0.0 and math.log(1.0 - next(doubles)) < x * x / 2.0 + d * (1.0 - v + math.log(v)):
            return d * v


def binomial(key: int, n: int, p: float) -> int:
    """Binomial(n, p): how many of n uniforms keyed by ``key`` fall below p."""
    p = float(p)  # a numpy scalar p would make the leaf's count a numpy integer
    if not (0 <= key < 1 << 128 and 0 <= n < 1 << 63 and 0.0 <= p <= 1.0):
        raise ValueError(f"binomial needs a 128-bit key, 0 <= n < 2^63 and 0 <= p <= 1, got {key}, {n}, {p}")
    below, node = 0, 1
    while n > _LEAF and 0.0 < p < 1.0:
        # The i-th smallest of n uniforms is Beta(i, n + 1 - i); both gamma shapes are at least 1.
        i, doubles = (n + 1) // 2, _doubles(key, node)
        g = _gamma(doubles, i)
        x = g / (g + _gamma(doubles, n + 1 - i))
        if p < x:  # the i - 1 smaller uniforms are uniform on [0, x)
            n, p, node = i - 1, p / x, 2 * node
        else:  # the n - i larger ones are uniform on (x, 1)
            below, n, p, node = below + i, n - i, (p - x) / (1.0 - x), 2 * node + 1
    if p in (0.0, 1.0):  # what the leaf would count, without n steps at a large n
        return below + (n if p else 0)
    return below + sum(u < p for u in islice(_doubles(key, node), n))
