"""numpy's keyed binomial draw, bit for bit in plain Python.

Philox4x64-10 (Salmon et al., SC 2011), then inversion while n p <= 30, else BTPE (Kachitvichyanukul and
Schmeiser, CACM 31, 1988), copied from numpy's C in its order of operations: integers become floats where
C converts them and wrap where its int64 arithmetic overflows.
"""

import math
from collections.abc import Iterator
from itertools import count

_M64 = (1 << 64) - 1


def _doubles(key: int) -> Iterator[float]:
    """numpy's stream: the counter goes up before each block of 4 words, each made (word >> 11) * 2^-53."""
    round_keys = [((key + i * 0x9E3779B97F4A7C15) & _M64, ((key >> 64) + i * 0xBB67AE8584CAA73B) & _M64)
                  for i in range(10)]
    for counter in count(1):
        x0, x1, x2, x3 = (counter >> shift & _M64 for shift in (0, 64, 128, 192))
        for k0, k1 in round_keys:
            p0, p1 = 0xD2E7470EE14C6C93 * x0, 0xCA5A826395121157 * x2
            x0, x1, x2, x3 = (p1 >> 64) ^ x1 ^ k0, p1 & _M64, (p0 >> 64) ^ x3 ^ k1, p0 & _M64
        yield from ((word >> 11) * 2.0**-53 for word in (x0, x1, x2, x3))


def _int64(v: int) -> int:
    return (v + (1 << 63)) % (1 << 64) - (1 << 63)


def _inversion(doubles: Iterator[float], n: int, p: float) -> int:
    q, qn, np_ = 1.0 - p, math.exp(n * math.log1p(-p)), n * p
    bound = int(min(float(n), np_ + 10.0 * math.sqrt(np_ * q + 1)))
    while True:  # numpy restarts from a new u once x would pass bound
        x, px, u = 0, qn, next(doubles)
        while u > px and x < bound:
            x += 1
            u, px = u - px, ((n - x + 1) * p * px) / (x * q)
        if u <= px:
            return x


def _stirling(x: float) -> float:
    x2 = x * x
    return (13680.0 - (462.0 - (132.0 - (99.0 - 140.0 / x2) / x2) / x2) / x2) / x / 166320.0


def _btpe(doubles: Iterator[float], n: int, p: float) -> int:
    r, q = p, 1.0 - p  # numpy's r = min(p, 1 - p); p <= 1/2 here, so its final flip is off
    fm = n * r + r
    m = math.floor(fm)
    p1 = math.floor(2.195 * math.sqrt(n * r * q) - 4.6 * q) + 0.5
    xm = m + 0.5
    xl, xr, c = xm - p1, xm + p1, 0.134 + 20.5 / (15.3 + m)
    laml, lamr = (a * (1.0 + a / 2.0) for a in ((fm - xl) / (fm - xl * r), (xr - fm) / (xr * q)))
    p2 = p1 * (1.0 + 2.0 * c)
    p3, p4, nrq = p2 + c / laml, p2 + c / laml + c / lamr, n * r * q
    while True:
        u, v = next(doubles) * p4, next(doubles)
        if u <= p1:
            return math.floor(xm - p1 * v + u)
        if u <= p2:
            x = xl + (u - p1) / c
            v = v * c + 1.0 - abs(m - x + 0.5) / p1
            y = math.floor(x) if v <= 1.0 else -1
        elif u <= p3:
            y, v = math.floor(xl + math.log(v) / laml) if v else -1, v * (u - p2) * laml
        else:
            y, v = math.floor(xr - math.log(v) / lamr) if v else n + 1, v * (u - p3) * lamr
        if not 0 <= y <= n:  # also C's rejections of v > 1 and, after its log, of v = 0
            continue
        k = abs(y - m)
        if k <= 20 or float(k) >= nrq / 2.0 - 1:
            s = r / q
            a, f = s * _int64(n + 1), 1.0
            for i in range(min(m, y) + 1, max(m, y) + 1):
                f = f * (a / i - s) if m < y else f / (a / i - s)
            accept = v <= f
        else:
            rho = (k / nrq) * ((k * (k / 3.0 + 0.625) + 0.16666666666666666) / nrq + 0.5)
            t = _int64(-k * k) / (2 * nrq)
            big_a = math.log(v) if v > 0 else -math.inf  # accepts, as C's log(0) = -inf and NaN do
            x1, f1, z, w = float(y + 1), float(m + 1), float(n + 1 - m), float(n - y + 1)
            accept = big_a < t - rho or big_a <= t + rho and big_a <= (
                xm * math.log(f1 / x1) + (n - m + 0.5) * math.log(z / w) + (y - m) * math.log(w * r / (x1 * q))
                + _stirling(f1) + _stirling(z) + _stirling(x1) + _stirling(w))
        if accept:
            return y


def binomial(key: int, n: int, p: float) -> int:
    """numpy's ``Generator.binomial(n, p)`` on a fresh Philox bit generator keyed by ``key``."""
    if not (0 <= key < 1 << 128 and 0 <= n < 1 << 63 and 0.0 <= p <= 1.0):
        raise ValueError(f"binomial needs a 128-bit key, 0 <= n < 2^63 and 0 <= p <= 1, got {key}, {n}, {p}")
    if n == 0 or p == 0.0:
        return 0
    if p <= 0.5:
        return (_inversion if p * n <= 30.0 else _btpe)(_doubles(key), n, p)
    return n - (_inversion if (1.0 - p) * n <= 30.0 else _btpe)(_doubles(key), n, 1.0 - p)
