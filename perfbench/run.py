"""End-to-end and per-layer benchmark of the jones3 command line.

Run from the repository root:

    python3 perfbench/run.py --workload short_calls --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --smoke        # every workload at tiny size, both modes
    python3 perfbench/run.py --self-test    # each output check rejects a wrong answer

With --trace 0 the benchmark drives ``python -m jones3`` as a user does: one
closed-loop client, one program process per operation, JONES3_WORKERS=1,
JONES3_SEED and JONES3_BACKEND unset. With --trace 1 it sends the same
operations to ``jones3.cli.main`` in this process, untraced and traced, and
reports per-layer spans and counts. Every answer is checked (checks.py).
The last line of stdout is the JSON result; the full record and the spans
go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_STARTS = 11  # fresh interpreters per run; setup_s is their median
OP_TIMEOUT_S = 120.0

END_TO_END = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

_SETUP_CODE = "import jones3, time; print(repr(time.monotonic()))"
_SPLIT_CODE = (
    "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "import jones3; t2 = time.perf_counter(); print(repr(t1 - t0), repr(t2 - t1))"
)
_DESCRIBE_CODE = """
import json, os, platform
import numpy, jones3
try:
    from jones3._kernels import BACKEND as backend
except ImportError:
    backend = None
try:
    import numba
    has_numba = True
except ImportError:
    has_numba = False
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "nproc": len(os.sched_getaffinity(0)), "backend": backend,
                  "numba_imports": has_numba, "jones3_file": jones3.__file__}))
"""


@dataclass
class Outcome:
    exit: int
    stdout: str
    stderr: str
    wall_s: float
    rss_mb: float = 0.0


class Program:
    """Starts interpreters on the checkout's sources, one at a time."""

    def __init__(self, root: Path):
        self.root = root
        self.src = root / "src"
        env = {k: v for k, v in os.environ.items() if not k.startswith("JONES3_")}
        env.update(PYTHONPATH=str(self.src), JONES3_WORKERS="1")
        self.env = env

    def spawn(self, args: list[str]) -> Outcome:
        """Run ``python <args>`` to exit; wall time from spawn to exit."""
        with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
            start = perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err, env=self.env, cwd=self.root)
            # os.wait4 blocks in the kernel, so the wall time is not rounded
            # to a polling step, and it returns the child's own peak RSS.
            previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
            signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            wall = perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Outcome(proc.returncode, out.read().decode(), err.read().decode(), wall,
                           usage.ru_maxrss / 1024.0)

    def cli(self, argv: list[str]) -> Outcome:
        return self.spawn(["-m", "jones3", *argv])

    def python(self, code: str) -> str:
        outcome = self.spawn(["-c", code])
        if outcome.exit != 0:
            raise RuntimeError(f"python -c failed: {outcome.stderr.strip()}")
        return outcome.stdout

    def setup_time(self) -> float:
        """Fresh interpreter to ``import jones3`` returning (CLOCK_MONOTONIC)."""
        start = time.monotonic()
        return float(self.python(_SETUP_CODE)) - start

    def describe(self) -> dict:
        info = json.loads(self.python(_DESCRIBE_CODE))
        if not Path(info["jones3_file"]).resolve().is_relative_to(self.src.resolve()):
            raise RuntimeError(f"jones3 imported from {info['jones3_file']}, not from {self.src}")
        return info


# --- answers ------------------------------------------------------------------


def parse_output(mode: str, stdout: str):
    if mode == "exact":
        return checks.parse_poly(stdout)
    report = json.loads(stdout)
    if mode == "classical":
        return complex(report["re"], report["im"])
    if mode == "quantum":
        return report["trace_estimate"]
    return report


def judge(op: workloads.Op, outcome: Outcome, seen: dict) -> list[str]:
    """Problems with one answer; a passing answer joins ``seen`` for later checks."""
    if outcome.exit != 0:
        lines = outcome.stderr.strip().splitlines() or ["(no stderr)"]
        return [f"exit {outcome.exit}: {lines[-1]}"]
    try:
        value = parse_output(op.mode, outcome.stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
    try:
        problems = op.check(value, seen)
    except LookupError as exc:
        return [f"reference answer {exc} failed"]
    if not problems:
        seen[op.key] = value
    return problems


def tally(done: list[tuple[int, workloads.Op, Outcome]]) -> tuple[list[dict], dict]:
    """Check every answer, round by round; one record per operation."""
    records, seen, current = [], {}, None
    for rnd, op, outcome in done:
        if rnd != current:
            seen, current = {}, rnd
        problems = judge(op, outcome, seen)
        records.append({
            "round": rnd, "key": op.key, "mode": op.mode, "letters": checks.letters(op.tokens),
            "fault": op.fault, "exit": outcome.exit, "wall_s": outcome.wall_s,
            "rss_mb": outcome.rss_mb, "problems": problems,
        })
    failed = [r for r in records if r["problems"]]
    summary = {
        "correct": all(r["fault"] for r in failed),
        "attempted": len(records),
        "failed": len(failed),
        "failed_by_fault": {f: sum(1 for r in failed if r["fault"] == f) for f in (workloads.F1, workloads.F2)},
        "scheduled_passed": sum(1 for r in records if r["fault"] and not r["problems"]),
    }
    return records, summary


def input_stats(ops: list[workloads.Op]) -> dict:
    """Make-up of the inputs, for the record and the README."""
    letters = [checks.letters(op.tokens) for op in ops]
    run_lengths = [n for op in ops for n in checks.runs(op.tokens)]
    comps = [checks.components(op.tokens) for op in ops]
    writhes = [checks.writhe(op.tokens) for op in ops]
    shots = [op.shots for op in ops if op.shots]
    return {
        "ops": len(ops),
        "letters_min_mean_max": [min(letters), statistics.fmean(letters), max(letters)],
        "tokens_mean": statistics.fmean(len(op.tokens) for op in ops),
        "mean_run_length": statistics.fmean(run_lengths),
        "share_letters_in_runs_over_1": sum(n for n in run_lengths if n > 1) / sum(run_lengths),
        "writhe_min_max": [min(writhes), max(writhes)],
        "components": {c: comps.count(c) for c in sorted(set(comps))},
        "modes": {m: sum(1 for op in ops if op.mode == m) for m in sorted({op.mode for op in ops})},
        "shots_per_tally": sorted(set(shots)),
        "fault_share": sum(1 for op in ops if op.fault) / len(ops),
    }


# --- the two kinds of run -----------------------------------------------------


def end_to_end(program: Program, workload: str, seed: int, seconds: float, size: str, starts: int) -> dict:
    """Whole rounds until the operations have run ``seconds``; set-up probes
    are spread over the run, so a slow spell of the machine moves only some.
    ops_per_s divides successful operations by the time program processes
    ran (spawn to exit, failed ones included), leaving out the probes."""
    environment = program.describe()  # also warms the bytecode cache
    source = workloads.rounds(workload, seed, size)
    setup, done = [], []
    busy, rnd = 0.0, 0
    while rnd == 0 or busy < seconds:
        for op in next(source):
            while len(setup) < starts and busy >= len(setup) * seconds / starts:
                setup.append(program.setup_time())
            outcome = program.cli(op.argv)
            busy += outcome.wall_s
            done.append((rnd, op, outcome))
        rnd += 1
    while len(setup) < starts:
        setup.append(program.setup_time())
    records, summary = tally(done)
    ok = [r for r in records if not r["problems"]]
    metrics = {
        "setup_s": statistics.median(setup),
        "latency_p50_s": statistics.median(r["wall_s"] for r in ok) if ok else 0.0,
        "ops_per_s": len(ok) / busy,
        "peak_rss_mb": max(r["rss_mb"] for r in records),
    }
    return {"environment": environment, "inputs": input_stats([op for _, op, _ in done]), **summary,
            "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
            "setup_samples_s": setup, "operations": records}


def _in_process(argv: list[str]) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = sys.modules["jones3.cli"].main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an uncaught program error is a failed operation, as on the CLI
        code = 1
        err.write(traceback.format_exc())
    return Outcome(code, out.getvalue(), err.getvalue(), perf_counter() - start)


def _parse_peak_mb(text: str) -> float:
    parse = sys.modules["jones3.braid"].parse_braid
    tracemalloc.start()
    try:
        parse(text)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def traced(program: Program, workload: str, seed: int, seconds: float, size: str, starts: int) -> dict:
    """The same operations through ``jones3.cli.main`` in this process, each
    untraced and traced; per-layer metrics come from the traced passes."""
    environment = program.describe()
    split = [tuple(map(float, program.python(_SPLIT_CODE).split())) for _ in range(starts)]
    os.environ.clear()
    os.environ.update(program.env)
    sys.path.insert(0, str(program.src))
    import jones3.cli  # noqa: F401  (the CLI module is looked up per call)

    tracer = tracing.Tracer()
    source = workloads.rounds(workload, seed, size)
    done, untraced, traced_s, word_mb = [], [], [], []
    rnd = 0
    while rnd == 0 or sum(untraced) + sum(traced_s) < seconds:
        for op in next(source):
            tracer.op = len(done)
            # Alternate which pass goes first, so warm caches favour neither.
            for trace_on in ((False, True) if tracer.op % 2 == 0 else (True, False)):
                if trace_on:
                    tracer.install()
                try:
                    outcome = _in_process(op.argv)
                finally:
                    tracer.remove()
                (traced_s if trace_on else untraced).append(outcome.wall_s)
                if trace_on:
                    done.append((rnd, op, outcome))
            word_mb.append(_parse_peak_mb(op.argv[1]))
        rnd += 1
    records, summary = tally(done)
    metrics = tracing.layer_metrics(tracer, len(done))
    metrics.update({
        "startup.import_numpy_s": statistics.median(s[0] for s in split),
        "startup.import_jones3_self_s": statistics.median(s[1] for s in split),
        "braid.word_mb": max(word_mb),
        "trace.untraced_op_s": statistics.fmean(untraced),
        "trace.overhead_s": statistics.fmean(traced_s) - statistics.fmean(untraced),
    })
    spans = OUT / f"{workload}-seed{seed}-spans.jsonl"
    with spans.open("w") as fh:
        for name, start, end, parent, op_id in tracer.spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op_id}) + "\n")
    return {"environment": environment, "inputs": input_stats([op for _, op, _ in done]), **summary,
            "metrics": {k: {"value": metrics[k], "unit": unit} for k, (unit, _) in tracing.METRICS.items()},
            "operations": records}


# --- entry points -------------------------------------------------------------


def smoke(program: Program) -> int:
    """Every workload at tiny size, end to end and traced, one round each."""
    ok = True
    for workload in workloads.WORKLOADS:
        for run in (end_to_end, traced):
            start = perf_counter()
            result = run(program, workload, 0, 0.0, "smoke", 3)
            ok = ok and result["correct"]
            print(f"{workload:12} {run.__name__:10} correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} {result['failed_by_fault']} in {perf_counter() - start:.1f} s")
            for r in result["operations"]:
                if r["problems"] and not r["fault"]:
                    print(f"  {r['key']}: {r['problems']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the jones3 CLI; run from the repository root.")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="every workload at tiny size, in seconds")
    parser.add_argument("--self-test", action="store_true", help="show that each check rejects a wrong answer")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so a running program process is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if args.self_test:
        import selftest

        return selftest.main()
    root = Path.cwd()
    if not (root / "src" / "jones3" / "__init__.py").is_file():
        print(f"error: no src/jones3 under {root}; run from the repository root", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    program = Program(root)
    if args.smoke:
        return smoke(program)
    if args.workload is None:
        parser.error("--workload is required")

    run = traced if args.trace else end_to_end
    result = run(program, args.workload, args.seed, args.seconds, "full", SETUP_STARTS)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace, **result}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    env = result["environment"]
    print(f"# {args.workload} seed={args.seed} python={env['python']} numpy={env['numpy']} nproc={env['nproc']} "
          f"backend={env['backend']} numba_imports={env['numba_imports']}")
    for r in result["operations"]:
        if r["problems"]:
            print(f"# failed {r['key']} ({r['fault'] or 'unscheduled'}): {r['problems'][0]}")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
