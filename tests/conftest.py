import os
import random
import sys
from pathlib import Path

import numpy as np
import pytest

# Load the checkout's package without an install, here and in the CLI
# subprocesses the tests start, which inherit PYTHONPATH.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, _SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))

from jones3.braid import BraidWord  # noqa: E402

_ALPHABET = [(1, 1), (1, -1), (2, 1), (2, -1)]


def random_word(rng: random.Random, max_len: int, min_len: int = 0) -> BraidWord:
    length = rng.randint(min_len, max_len)
    return BraidWord(rng.choice(_ALPHABET) for _ in range(length))


def random_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random 2x2 unitary via QR of a complex Gaussian matrix."""
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.fixture
def py_rng() -> random.Random:
    return random.Random(20260824)


@pytest.fixture
def np_rng() -> np.random.Generator:
    return np.random.default_rng(20260824)
