"""Jones polynomial engine for closures of 3-strand braids.

Exact Laurent-polynomial computation, a deterministic O(L) closed-form
matrix evaluator on the unit circle, and a simulated quantum trace
estimator, cross-checked by an independent state sum.

Importing the package loads no numpy: only the first float gate
(``rep2.compile_gate``) imports it, so exact mode runs without it.
"""

import os

# Matrices here are at most 4x4: an OpenBLAS pool started by numpy's import
# would only spin, taking CPU from the main thread on a busy machine.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .bracket import CapExceeded, bracket_state_sum
from .braid import (
    BraidParseError,
    BraidWord,
    DomainError,
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
from .hadamard import (ShotPlan, TraceEstimate, approx_im_trace, approx_re_trace, estimate_trace,
                       quantum_3sb, shots_for)
from .laurent import LaurentPoly, ZeroPoint
from .rep2 import PHI_MAX, RepParams, classical_3sb, compile_gate, make_params
from .tl3 import jones_exact, jones_rep, jones_value, markov_trace

__version__ = "0.1.0"
