"""In-process spans around the public functions of each jones3 layer.

The spans are recorded by wrapping module attributes at run time; no file
of the program changes. Each span holds a name, start, end, parent and
operation id; spans stay in memory until the run writes them out. Hooks
record counts at the same boundaries, outside the span they follow.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name). A target the program no longer has is
# skipped, and its metrics read 0.
TARGETS = [
    ("jones3.cli", "main", "cli.main"),
    ("jones3.braid", "parse_braid", "braid.parse"),
    ("jones3.braid", "to_text", "braid.to_text"),
    ("jones3.rep2", "compile_gate", "rep2.compile_gate"),
    ("jones3.rep2", "classical_3sb", "rep2.classical_3sb"),
    ("jones3._kernels", "chain_product", "kernels.chain_product"),
    ("jones3.tl3", "jones_exact", "tl3.jones_exact"),
    ("jones3.tl3", "jones_rep", "tl3.jones_rep"),
    ("jones3.tl3", "markov_trace", "tl3.markov_trace"),
    ("jones3.laurent", "LaurentPoly.eval", "laurent.eval"),
    ("jones3.hadamard", "quantum_3sb", "hadamard.quantum_3sb"),
    ("jones3.hadamard", "estimate_trace", "hadamard.estimate_trace"),
    ("jones3.hadamard", "_count_zeros", "hadamard.count_zeros"),
    ("jones3.bracket", "bracket_state_sum", "bracket.state_sum"),
]

# Per-layer metric -> (unit, better). Times and counts are means per
# operation; unitarity_defect, max_coeff_bits and word_mb are maxima.
METRICS = {
    "startup.import_numpy_s": ("s", "lower"),
    "startup.import_jones3_self_s": ("s", "lower"),
    "cli.main_s": ("s", "lower"),
    "cli.overhead_s": ("s", "lower"),
    "braid.parse_s": ("s", "lower"),
    "braid.letters_per_s": ("1/s", "higher"),
    "braid.to_text_s": ("s", "lower"),
    "braid.letters": ("count", "lower"),
    "braid.tokens": ("count", "lower"),
    "braid.word_mb": ("MB", "lower"),
    "rep2.compile_gate_s": ("s", "lower"),
    "rep2.classical_3sb_s": ("s", "lower"),
    "kernels.chain_product_s": ("s", "lower"),
    "kernels.gate_products": ("count", "lower"),
    "kernels.bytes_computed": ("bytes", "lower"),
    "kernels.unitarity_defect": ("1", "lower"),
    "tl3.jones_rep_s": ("s", "lower"),
    "tl3.markov_trace_s": ("s", "lower"),
    "tl3.jones_exact_s": ("s", "lower"),
    "laurent.eval_s": ("s", "lower"),
    "laurent.terms": ("count", "lower"),
    "laurent.max_coeff_bits": ("count", "lower"),
    "hadamard.quantum_3sb_s": ("s", "lower"),
    "hadamard.estimate_trace_s": ("s", "lower"),
    "hadamard.shots_per_s": ("1/s", "higher"),
    "hadamard.shots": ("count", "lower"),
    "hadamard.blocks": ("count", "lower"),
    "bracket.state_sum_s": ("s", "lower"),
    "bracket.states": ("count", "lower"),
    "trace.untraced_op_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.span_share": ("share", "higher"),
}

SPAN_METRICS = {
    "cli.main_s": "cli.main",
    "braid.parse_s": "braid.parse",
    "braid.to_text_s": "braid.to_text",
    "rep2.compile_gate_s": "rep2.compile_gate",
    "rep2.classical_3sb_s": "rep2.classical_3sb",
    "kernels.chain_product_s": "kernels.chain_product",
    "tl3.jones_rep_s": "tl3.jones_rep",
    "tl3.markov_trace_s": "tl3.markov_trace",
    "tl3.jones_exact_s": "tl3.jones_exact",
    "laurent.eval_s": "laurent.eval",
    "hadamard.quantum_3sb_s": "hadamard.quantum_3sb",
    "hadamard.estimate_trace_s": "hadamard.estimate_trace",
    "bracket.state_sum_s": "bracket.state_sum",
}

_MATRIX_BYTES = 64  # one 2x2 complex128 matrix


def _resolve(module: str, attr: str):
    """(owner object, attribute name, original) or None when absent."""
    owner = sys.modules.get(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None or not callable(getattr(owner, name, None)):
        return None
    return owner, name, getattr(owner, name)


class Tracer:
    """Span and count recorder; install() swaps wrappers in, remove() undoes it."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index, op id)
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        self._swaps: list[tuple] = []

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer.spans.append(None)
            tracer._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.op)
            if hook is not None:
                hook(tracer, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "jones3" or n.startswith("jones3.")]
        for module, attr, name in TARGETS:
            found = _resolve(module, attr)
            if found is None:
                continue
            owner, attr_name, original = found
            wrapper = self._wrap(name, original, _HOOKS.get(name))
            owners = [owner] if isinstance(owner, type) else modules
            for holder in owners:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._swaps.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def remove(self) -> None:
        for holder, key, original in reversed(self._swaps):
            setattr(holder, key, original)
        self._swaps.clear()


def _parse_hook(tracer, args, word):
    tracer.counts["braid.letters"] += len(word)
    tracer.counts["braid.tokens"] += len(args[0].split())


def _chain_hook(tracer, args, result):
    stack = len(args[0])
    tracer.counts["kernels.gate_products"] += max(stack - 1, 0)
    # Computed, not measured: a pairwise tree reads each level once, and the
    # levels sum to under twice the input stack.
    tracer.counts["kernels.bytes_computed"] += 2 * stack * _MATRIX_BYTES


def _gate_hook(tracer, args, gate):
    g = [[complex(gate[i][j]) for j in range(2)] for i in range(2)]
    defect = max(
        abs(sum(g[i][k] * g[j][k].conjugate() for k in range(2)) - (1.0 if i == j else 0.0))
        for i in range(2)
        for j in range(2)
    )
    tracer.maxima["kernels.unitarity_defect"] = max(tracer.maxima["kernels.unitarity_defect"], defect)


def _exact_hook(tracer, args, poly):
    coeffs = [c for _, c in poly.terms()]
    tracer.counts["laurent.terms"] += len(coeffs)
    bits = max((abs(c).bit_length() for c in coeffs), default=0)
    tracer.maxima["laurent.max_coeff_bits"] = max(tracer.maxima["laurent.max_coeff_bits"], bits)


def _count_zeros_hook(tracer, args, zeros):
    n = args[1]
    block = getattr(sys.modules["jones3.hadamard"], "_SHOT_BLOCK", 4096)
    tracer.counts["hadamard.shots"] += n
    tracer.counts["hadamard.blocks"] += math.ceil(n / block)


def _state_sum_hook(tracer, args, poly):
    tracer.counts["bracket.states"] += 2 ** len(args[0])


_HOOKS = {
    "braid.parse": _parse_hook,
    "kernels.chain_product": _chain_hook,
    "rep2.compile_gate": _gate_hook,
    "tl3.jones_exact": _exact_hook,
    "hadamard.count_zeros": _count_zeros_hook,
    "bracket.state_sum": _state_sum_hook,
}


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-operation means of span times and counts, plus derived rates."""
    total: dict[str, float] = defaultdict(float)
    child: dict[int, float] = defaultdict(float)
    for name, start, end, parent, _ in tracer.spans:
        total[name] += end - start
        if parent is not None:
            child[parent] += end - start
    main_self = sum(
        (end - start) - child[i]
        for i, (name, start, end, _, _) in enumerate(tracer.spans)
        if name == "cli.main"
    )
    out = {metric: total[name] / ops for metric, name in SPAN_METRICS.items()}
    for name in ("braid.letters", "braid.tokens", "kernels.gate_products", "kernels.bytes_computed",
                 "laurent.terms", "hadamard.shots", "hadamard.blocks", "bracket.states"):
        out[name] = tracer.counts[name] / ops
    for name in ("kernels.unitarity_defect", "laurent.max_coeff_bits"):
        out[name] = tracer.maxima[name]
    out["cli.overhead_s"] = main_self / ops
    out["trace.span_share"] = 1.0 - main_self / total["cli.main"] if total["cli.main"] else 0.0
    out["braid.letters_per_s"] = tracer.counts["braid.letters"] / total["braid.parse"] if total["braid.parse"] else 0.0
    count_time = total["hadamard.count_zeros"]
    out["hadamard.shots_per_s"] = tracer.counts["hadamard.shots"] / count_time if count_time else 0.0
    return out
