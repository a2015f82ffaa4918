"""Jones polynomial engine for closures of 3-strand braids.

Exact Laurent-polynomial computation, a deterministic O(L) closed-form
matrix evaluator on the unit circle, and a simulated quantum trace
estimator, cross-checked by an independent state sum.

The exact route is plain Python. The names of the float routes (``rep2``,
``hadamard``) are imported, with numpy, on first use.
"""

import importlib
import os

# Matrices here are at most 4x4: an OpenBLAS pool started by numpy's import
# would only spin, taking CPU from the main thread on a busy machine.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .bracket import CapExceeded, bracket_state_sum
from .braid import (
    BraidParseError,
    BraidWord,
    InvalidPrecision,
    MalformedToken,
    NonUnitaryGate,
    OutsideUnitarityRegion,
    UnknownGenerator,
    ZeroExponent,
    conjugate,
    inverse,
    parse_braid,
    to_text,
    writhe,
)
from .laurent import LaurentPoly, ZeroPoint
from .tl3 import jones_exact, jones_rep, jones_value, markov_trace

__version__ = "0.1.0"

# The float routes' names, imported with their module, and numpy, on first use.
_FLOAT_NAMES = {
    "rep2": ("PHI_MAX", "RepParams", "classical_3sb", "compile_gate", "make_params"),
    "hadamard": ("ShotPlan", "TraceEstimate", "approx_im_trace", "approx_re_trace", "estimate_trace",
                 "quantum_3sb", "shots_for"),
}


def __getattr__(name: str):
    if name in ("rep2", "hadamard"):
        return importlib.import_module(f"{__name__}.{name}")
    for module, names in _FLOAT_NAMES.items():
        if name in names:
            return getattr(importlib.import_module(f"{__name__}.{module}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
