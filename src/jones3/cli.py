"""Command-line front-end: exact, classical, quantum, and verify modes.

Exit codes: 0 success, 1 stdout closed before the report was written
(for example by ``| head -c 100``), 2 usage error, 3 domain error (a
``DomainError``), 4 verification failure. Reports go to stdout (JSON or
compact text), diagnostics to stderr. The default seed is 0, overridable
by the JONES3_SEED environment variable and by --seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

from .bracket import bracket_state_sum
from .braid import DomainError, parse_braid, to_text, writhe
from .hadamard import quantum_3sb
from .laurent import A
from .rep2 import PHI_MAX, classical_3sb, make_params
from .tl3 import jones_exact

# Not a cost limit: the O(L) sweep takes about 1 ms here, 5 s on the worst
# 1000-letter words found. It keeps verify's reports as they were.
MAX_ORACLE_CAP = 20


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jones3",
        description="Jones polynomial of a 3-strand braid closure: "
        "exact Laurent polynomial, closed-form evaluation, or sampled quantum estimate.",
    )
    parser.add_argument("--braid", required=True, help="braid word, e.g. 's1 s2^-1 s1' or '1 -2 1'")
    parser.add_argument(
        "--mode", required=True, choices=["exact", "classical", "quantum", "verify"]
    )
    angle = parser.add_mutually_exclusive_group()
    angle.add_argument("--phi", type=float, help="evaluation angle in radians, t = e^{i phi}")
    angle.add_argument(
        "--phi-frac",
        metavar="P/Q",
        help="evaluation angle as a rational multiple of pi, e.g. 2/3 for 2*pi/3",
    )
    parser.add_argument("--eps1", type=float, help="precision of the quantum estimate")
    parser.add_argument("--eps2", type=float, help="failure probability bound")
    parser.add_argument("--seed", type=int, help="shot-stream seed (default: JONES3_SEED or 0)")
    parser.add_argument("--bound-mode", choices=["paper", "rigorous"], default="paper")
    parser.add_argument("--output", choices=["json", "text"], default="text")
    parser.add_argument(
        "--oracle-cap",
        type=int,
        default=MAX_ORACLE_CAP,
        help=f"max word length for the state-sum check, at most {MAX_ORACLE_CAP}",
    )
    return parser


def _resolve_phi(parser: argparse.ArgumentParser, args) -> float | None:
    if args.phi_frac is not None:
        # An integer or P/Q of at most 640 digits a part; Fraction would build 10^e exactly.
        match = re.fullmatch(r"([+-]?\d{1,640})(?:/(\d{1,640}))?", args.phi_frac.strip())
        if match is not None:
            try:
                return int(match[1]) / int(match[2] or 1) * math.pi
            except (ZeroDivisionError, OverflowError):
                pass
        parser.error(f"--phi-frac expects a fraction like 2/3, got {args.phi_frac!r}")
    return args.phi


def _angle(params) -> dict:
    return {"phi": params.phi, "theta": params.theta, "delta": params.delta}


def _number(value: complex) -> dict:
    return {"re": value.real, "im": value.imag}


def _run_exact(word, phi):
    poly = jones_exact(word)
    report = {"polynomial": str(poly)}
    if phi is not None:
        params = make_params(phi)
        report.update(_angle(params), result=_number(poly.eval(params.alpha)))
    return report


def _run_classical(word, phi):
    params = make_params(phi)
    return {**_angle(params), "result": _number(classical_3sb(word, params))}


def _run_quantum(word, phi, eps1, eps2, seed, bound_mode):
    params = make_params(phi)
    value, estimate = quantum_3sb(word, params, eps1, eps2, seed=seed, bound_mode=bound_mode)
    return {
        **_angle(params),
        "n": estimate.n,
        "seed": seed,
        "bound_mode": bound_mode,
        "result": _number(value),
        "trace_estimate": {
            "re": estimate.re_estimate,
            "im": estimate.im_estimate,
            "n": estimate.n,
            "seed": estimate.seed,
            "shot_counts": estimate.shot_counts,
        },
    }


def _run_verify(word, phi, oracle_cap):
    poly = jones_exact(word)
    report: dict = {"polynomial": str(poly)}
    if len(word) <= oracle_cap:
        # The Jones value is the bracket times the framing unit (-A^3)^-writhe.
        report["state_sum_match"] = (-(A**3)) ** -writhe(word) * bracket_state_sum(word, cap=oracle_cap) == poly

    angles = [phi] if phi is not None else [i * (2 * PHI_MAX / 10) - PHI_MAX for i in range(1, 10)]
    deviation = 0.0
    for angle in angles:
        params = make_params(angle)
        exact_value = poly.eval(params.alpha)
        deviation = max(deviation, abs(classical_3sb(word, params) - exact_value))
    report["oracle_deviation"] = deviation
    return report, deviation <= 1e-9 and report.get("state_sum_match", True)


def _render_text(mode: str, report: dict) -> str:
    if mode == "exact":
        return report["polynomial"]
    if mode == "verify":
        return json.dumps(
            {
                "oracle_deviation": report["oracle_deviation"],
                "state_sum_match": report.get("state_sum_match"),
            }
        )
    return json.dumps(report["result"])


def _write(text: str, status: int) -> int:
    """Print the report and return status, or 1 if the reader closed stdout."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # Point stdout at devnull, so that the interpreter's final flush of
        # the unwritten report does not raise again (the recipe in Python's
        # signal module documentation).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


def main(argv=None) -> int:
    parser = build_parser()
    # --phi-frac, or a prefix argparse takes for it, is joined to its value: "-1/2" reads as an option.
    words = iter(sys.argv[1:] if argv is None else argv)
    args = parser.parse_args([f"{w}={next(words, '')}" if w.startswith("--phi-") and "--phi-frac".startswith(w)
                              else w for w in words])
    phi = _resolve_phi(parser, args)

    if args.mode in ("classical", "quantum") and phi is None:
        parser.error(f"--mode {args.mode} requires --phi or --phi-frac")
    if args.mode == "quantum" and (args.eps1 is None or args.eps2 is None):
        parser.error("--mode quantum requires --eps1 and --eps2")

    if not 0 <= args.oracle_cap <= MAX_ORACLE_CAP:
        parser.error(f"--oracle-cap must lie in [0, {MAX_ORACLE_CAP}], got {args.oracle_cap}")
    seed = args.seed
    if seed is None:
        text = os.environ.get("JONES3_SEED", "") or "0"
        try:
            seed = int(text)
        except ValueError:
            parser.error(f"JONES3_SEED must be an integer, got {text!r}")

    try:
        word = parse_braid(args.braid)
        status = 0
        if args.mode == "exact":
            body = _run_exact(word, phi)
        elif args.mode == "classical":
            body = _run_classical(word, phi)
        elif args.mode == "quantum":
            body = _run_quantum(word, phi, args.eps1, args.eps2, seed, args.bound_mode)
        else:
            body, ok = _run_verify(word, phi, args.oracle_cap)
            status = 0 if ok else 4
        # After the mode, which rejects words too long for len() to count.
        report = {"mode": args.mode, "braid": to_text(word), "L": len(word), "writhe": writhe(word), **body}
    except DomainError as exc:
        error = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(f"error: {exc}", file=sys.stderr)
        return _write(json.dumps(error), 3)

    return _write(json.dumps(report) if args.output == "json" else _render_text(args.mode, report), status)


if __name__ == "__main__":
    sys.exit(main())
