import json
import math
import random
import subprocess
import sys

import pytest

BASE = [sys.executable, "-m", "jones3"]


def run_cli(*args, env=None, timeout=None):
    return subprocess.run(BASE + list(args), capture_output=True, text=True, env=env, timeout=timeout)


def test_exact_mode_text():
    r = run_cli("--braid", "s1 s2^-1 s1 s2^-1", "--mode", "exact")
    assert r.returncode == 0
    assert r.stdout.strip() == "A^8 - A^4 + 1 - A^-4 + A^-8"


def test_classical_mode_text():
    r = run_cli("--braid", "", "--mode", "classical", "--phi", "0")
    assert r.returncode == 0
    assert r.stdout.strip() == '{"re": 4.0, "im": 0.0}'


def test_exact_mode_json_with_evaluation():
    r = run_cli("--braid", "s1 s2", "--mode", "exact", "--phi", "0.5", "--output", "json")
    report = json.loads(r.stdout)
    assert report["mode"] == "exact"
    assert report["L"] == 2
    assert report["writhe"] == 2
    assert "polynomial" in report and "result" in report


def test_quantum_mode_json_and_determinism():
    args = [
        "--braid", "s1 s2 s1 s2", "--mode", "quantum",
        "--phi", "1.0", "--eps1", "0.1", "--eps2", "0.1",
        "--seed", "42", "--output", "json",
    ]
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    report = json.loads(first.stdout)
    assert report["n"] == 185
    assert report["seed"] == 42
    assert set(report["trace_estimate"]) == {"re", "im", "n", "seed", "shot_counts"}


def test_phi_frac_boundary():
    r = run_cli("--braid", "s1", "--mode", "classical", "--phi-frac", "2/3", "--output", "json")
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert abs(report["delta"] + 1.0) < 1e-9


def test_phi_frac_overflow_is_usage_error():
    r = run_cli("--braid", "s1", "--mode", "classical", "--phi-frac", "1e400")
    assert r.returncode == 2
    assert "--phi-frac" in r.stderr
    assert "Traceback" not in r.stderr


def test_phi_frac_takes_integers_and_fractions_only():
    # Fraction would build 10^99999999 exactly from the first of these.
    for text in ("1e99999999", "1" * 641 + "/3", "0.5", "2/-3"):
        r = run_cli("--braid", "s1", "--mode", "classical", "--phi-frac", text, timeout=5)
        assert r.returncode == 2, text
        assert "--phi-frac" in r.stderr
    for args in (["--phi-frac"], ["--phi-frac", "1/3", "--phi", "1"]):
        r = run_cli("--braid", "s1", "--mode", "classical", *args)
        assert r.returncode == 2, args
        assert "--phi-frac" in r.stderr
    for args in (["--phi-frac=-1/2"], ["--phi-frac", "-1/2"], ["--phi-fr", "-1/2"], ["--phi-", "-1/2"]):
        r = run_cli("--braid", "s1", "--mode", "classical", *args, "--output", "json")
        assert r.returncode == 0, args
        assert abs(json.loads(r.stdout)["phi"] + math.pi / 2) < 1e-15


def test_phi_outside_region_is_domain_error():
    r = run_cli("--braid", "s1", "--mode", "classical", "--phi", "3.2")
    assert r.returncode == 3
    error = json.loads(r.stdout)
    assert error["error"]["type"] == "OutsideUnitarityRegion"


def test_bad_braid_is_domain_error():
    r = run_cli("--braid", "s3", "--mode", "exact")
    assert r.returncode == 3
    error = json.loads(r.stdout)
    assert error["error"]["type"] == "UnknownGenerator"
    assert r.stderr != ""


def test_braid_echo_keeps_runs():
    r = run_cli("--braid", "s1^3 s2^-2 s1", "--mode", "classical", "--phi", "0.5", "--output", "json")
    report = json.loads(r.stdout)
    assert (report["braid"], report["L"], report["writhe"]) == ("s1^3 s2^-2 s1", 6, 2)


def test_word_over_letter_cap_is_domain_error():
    # 2^63 letters are more than len() can count.
    for braid in ("s1^10000001", "s1^1000000000000", f"s1^{2**63}"):
        for mode in ("classical", "exact"):
            r = run_cli("--braid", braid, "--mode", mode, "--phi", "1.0", timeout=60)
            assert r.returncode == 3, (braid, mode)
            assert json.loads(r.stdout)["error"]["type"] == "CapExceeded"


def test_overlong_numbers_are_domain_errors():
    for braid in ("s1^" + "1" * 5000, "1" * 5000):
        r = run_cli("--braid", braid, "--mode", "classical", "--phi", "1.0")
        assert r.returncode == 3
        assert json.loads(r.stdout)["error"]["type"] == "MalformedToken"
        assert "Traceback" not in r.stderr


def test_missing_phi_is_usage_error():
    r = run_cli("--braid", "s1", "--mode", "classical")
    assert r.returncode == 2


def test_missing_eps_is_usage_error():
    r = run_cli("--braid", "s1", "--mode", "quantum", "--phi", "1.0")
    assert r.returncode == 2


def test_verify_mode():
    r = run_cli("--braid", "s1 s2^-1 s1 s2^-1", "--mode", "verify", "--output", "json")
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert report["state_sum_match"] is True
    assert report["oracle_deviation"] <= 1e-9


def test_verify_checks_framing(capsys):
    from jones3 import cli

    # Nonzero writhes: the state sum is the bracket, off the Jones value by (-A^3)^-writhe.
    for braid in ("s1 s1 s1", "s1^-1 s2^-1", "s1 s2 s1 s2 s1^-1"):
        assert cli.main(["--braid", braid, "--mode", "verify", "--output", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["state_sum_match"] is True


def test_verify_failures_exit_4(monkeypatch, capsys):
    from jones3 import cli
    from jones3.laurent import ONE

    argv = ["--braid", "s1 s2^-1 s1 s2^-1", "--mode", "verify", "--output", "json"]
    with monkeypatch.context() as m:
        m.setattr(cli, "bracket_state_sum", lambda word, cap: ONE)
        assert cli.main(argv) == 4
    report = json.loads(capsys.readouterr().out)
    assert report["state_sum_match"] is False and report["oracle_deviation"] <= 1e-9

    classical_3sb = cli.classical_3sb
    monkeypatch.setattr(cli, "classical_3sb", lambda word, params: classical_3sb(word, params) + 1e-6)
    assert cli.main(argv) == 4
    report = json.loads(capsys.readouterr().out)
    assert report["state_sum_match"] is True and report["oracle_deviation"] > 1e-9


def test_verify_skips_state_sum_above_cap():
    word = " ".join(["s1"] * 25)
    r = run_cli("--braid", word, "--mode", "verify", "--output", "json")
    assert r.returncode == 0
    assert "state_sum_match" not in json.loads(r.stdout)


def test_verify_at_default_oracle_cap_is_fast():
    # Visiting the 2^20 states one at a time took about 9 s.
    word = " ".join(["s1 s2^-1"] * 10)
    r = run_cli("--braid", word, "--mode", "verify", "--output", "json", timeout=5)
    assert r.returncode == 0
    assert json.loads(r.stdout)["state_sum_match"] is True


def test_boundary_warning_is_printed_once():
    angle = ["--phi-frac", "2/3"]
    for args in (
        ["--mode", "quantum", *angle, "--eps1", "0.1", "--eps2", "0.1"],
        ["--mode", "classical", *angle],
        ["--mode", "exact", *angle],
        ["--mode", "verify", *angle],
    ):
        r = run_cli("--braid", "s1 s2", *args)
        assert r.returncode == 0, args
        assert r.stderr.count("RuntimeWarning: phi at the 2*pi/3 boundary") == 1, args


def test_seed_env_override():
    import os

    env = dict(os.environ, JONES3_SEED="7")
    args = [
        "--braid", "s1 s2", "--mode", "quantum",
        "--phi", "0.5", "--eps1", "0.3", "--eps2", "0.3", "--output", "json",
    ]
    r = run_cli(*args, env=env)
    assert json.loads(r.stdout)["seed"] == 7


def test_markov_stabilised_unknot_is_one():
    for word in ("s1 s2", "s1^-1 s2", "s1^-1 s2^-1"):
        r = run_cli("--braid", word, "--mode", "exact")
        assert r.returncode == 0
        assert r.stdout.strip() == "1"


def test_non_finite_phi_is_domain_error():
    for value in ("nan", "inf", "-inf"):
        r = run_cli("--braid", "s1 s2 s1", "--mode", "classical", f"--phi={value}")
        assert r.returncode == 3, value
        assert json.loads(r.stdout)["error"]["type"] == "OutsideUnitarityRegion"


def test_seed_outside_64_bits_is_domain_error():
    for seed in (str(2**64), "-1"):
        r = run_cli(
            "--braid", "s1 s2", "--mode", "quantum", "--phi", "0.5",
            "--eps1", "0.3", "--eps2", "0.3", f"--seed={seed}",
        )
        assert r.returncode == 3, seed
        assert json.loads(r.stdout)["error"]["type"] == "InvalidPrecision"


def test_non_integer_environment_is_usage_error():
    import os

    args = ["--braid", "s1 s2", "--mode", "quantum", "--phi", "0.5", "--eps1", "0.3", "--eps2", "0.3"]
    r = run_cli(*args, env=dict(os.environ, JONES3_SEED="abc"))
    assert r.returncode == 2
    assert "JONES3_SEED" in r.stderr
    assert "Traceback" not in r.stderr


def test_undrawable_shot_plans_are_domain_errors():
    cases = (["--eps1", "nan"], ["--eps1", "1e-200"], ["--eps1", "1e-9", "--bound-mode", "rigorous"])
    for extra in cases:
        r = run_cli("--braid", "s1 s2", "--mode", "quantum", "--phi", "1", "--eps2", "0.1", *extra)
        assert r.returncode == 3, extra
        assert json.loads(r.stdout)["error"]["type"] == "InvalidPrecision"
        assert "Traceback" not in r.stderr


def test_paper_mode_at_tiny_eps1_finishes():
    r = run_cli(
        "--braid", "s1 s2", "--mode", "quantum", "--phi", "1",
        "--eps1", "1e-9", "--eps2", "0.1", "--output", "json",
    )
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert report["n"] > 10**18
    (z0, o0), (z1, o1) = report["trace_estimate"]["shot_counts"]["re"]
    assert z0 + o0 == z1 + o1 == report["n"]


def test_negative_oracle_cap_is_usage_error():
    r = run_cli("--braid", "s1 s2", "--mode", "verify", "--oracle-cap", "-1")
    assert r.returncode == 2
    assert "--oracle-cap" in r.stderr


def test_oracle_cap_above_default_is_usage_error():
    # Past MAX_ORACLE_CAP, which keeps verify's reports as they were; the sweep itself is O(L).
    r = run_cli("--braid", "s1 s2", "--mode", "verify", "--oracle-cap", "21")
    assert r.returncode == 2
    assert "--oracle-cap" in r.stderr


def test_exact_modes_refuse_words_over_exact_cap():
    for mode in ("exact", "verify"):
        r = run_cli("--braid", "s1^3000 s2^-3000 s1^3000 s2^-3000", "--mode", mode, timeout=60)
        assert r.returncode == 3, mode
        assert json.loads(r.stdout)["error"]["type"] == "CapExceeded"


def _random_letters(length):
    rng = random.Random(7)
    return " ".join(f"s{rng.choice((1, 2))}" + rng.choice(("", "^-1")) for _ in range(length))


def test_exact_evaluation_holds_on_long_words():
    # A float sum of the polynomial's terms went wrong from about 300 letters.
    for length in (300, 1000):
        word = _random_letters(length)
        r = run_cli("--braid", word, "--mode", "verify", "--output", "json")
        assert r.returncode == 0, length
        assert json.loads(r.stdout)["oracle_deviation"] <= 1e-9
    exact = run_cli("--braid", word, "--mode", "exact", "--phi", "1.0", "--output", "json")
    classical = run_cli("--braid", word, "--mode", "classical", "--phi", "1.0", "--output", "json")
    value = json.loads(exact.stdout)["result"]
    expected = json.loads(classical.stdout)["result"]
    assert abs(complex(value["re"], value["im"]) - complex(expected["re"], expected["im"])) <= 1e-9


def test_closed_stdout_exits_quietly():
    args = ["--braid", "s1^20000 s2^-20000", "--mode", "classical", "--phi", "1.0", "--output", "json"]
    proc = subprocess.Popen(BASE + args, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert b"Traceback" not in err


def test_non_unitary_gate_is_domain_error(monkeypatch, capsys):
    import numpy as np

    from jones3 import cli, hadamard

    monkeypatch.setattr(hadamard, "compile_gate", lambda word, params: 2 * np.eye(2, dtype=complex))
    status = cli.main(
        ["--braid", "s1", "--mode", "quantum", "--phi", "1.0", "--eps1", "0.1", "--eps2", "0.1"]
    )
    assert status == 3
    out, err = capsys.readouterr()
    assert json.loads(out)["error"]["type"] == "NonUnitaryGate"
    assert "Traceback" not in err


def test_import_starts_no_blas_thread_pool():
    import os

    # numpy is loaded by a float mode, not by the import of jones3. Printed
    # after the call: the variable as numpy saw it, whether numpy is loaded,
    # and the threads of the process, where Linux lists them.
    code = (
        "import os, sys, jones3; from jones3 import cli; cli.main(sys.argv[1:]); "
        "print(os.environ['OPENBLAS_NUM_THREADS'], 'numpy' in sys.modules, "
        "len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else 1)"
    )
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    for mode in ("classical", "quantum"):
        args = ["--braid", "s1 s2", "--mode", mode, "--phi", "1", "--eps1", "0.3", "--eps2", "0.3"]
        r = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env=env)
        assert r.stdout.split()[-3:] == ["1", "True", "1"]
    # A caller's own setting is kept.
    r = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                       env=dict(env, OPENBLAS_NUM_THREADS="2"))
    assert r.stdout.split()[-3] == "2"


def test_exact_mode_loads_no_numpy():
    # Exact calls, text and JSON, with and without an angle, in a fresh
    # interpreter; dataclasses cost about 10 ms of imports.
    code = (
        "import sys, jones3; from jones3 import cli; "
        "codes = [cli.main(['--braid', 's1 s2^-1 s1 s2^-1', '--mode', 'exact', *extra]) "
        "for extra in ([], ['--output', 'json'], ['--phi', '1'], ['--phi-frac', '1/3'])]; "
        "print(codes, sorted({'numpy', 'dataclasses'} & set(sys.modules)))"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    lines = r.stdout.splitlines()
    assert lines[0] == lines[2] == lines[3] == "A^8 - A^4 + 1 - A^-4 + A^-8"
    assert json.loads(lines[1])["polynomial"] == lines[0]
    assert lines[4] == "[0, 0, 0, 0] []"


# Every name the package exports.
PACKAGE_NAMES = [
    "BraidParseError", "BraidWord", "CapExceeded", "DomainError", "InvalidPrecision", "LaurentPoly",
    "MalformedToken", "NonUnitaryGate", "OutsideUnitarityRegion", "PHI_MAX", "RepParams", "ShotPlan",
    "TraceEstimate", "UnknownGenerator", "ZeroExponent", "ZeroPoint", "approx_im_trace", "approx_re_trace",
    "bracket", "bracket_state_sum", "braid", "classical_3sb", "compile_gate", "conjugate",
    "estimate_trace", "hadamard", "inverse", "jones_exact", "jones_rep", "jones_value", "laurent",
    "make_params", "markov_trace", "os", "parse_braid", "quantum_3sb", "rep2", "shots_for", "tl3",
    "to_text", "writhe",
]


def test_package_names_resolve():
    # In a fresh interpreter, with nothing imported but the package itself.
    code = "import sys, jones3; print([n for n in sys.argv[1:] if not hasattr(jones3, n)])"
    r = subprocess.run([sys.executable, "-c", code, *PACKAGE_NAMES], capture_output=True, text=True)
    assert r.stdout.strip() == "[]"

    import jones3
    from jones3 import hadamard, rep2

    assert jones3.compile_gate is rep2.compile_gate and jones3.PHI_MAX == rep2.PHI_MAX
    assert jones3.quantum_3sb is hadamard.quantum_3sb and jones3.ShotPlan is hadamard.ShotPlan
    assert not hasattr(jones3, "no_such_name")


def test_import_is_light():
    # The float modules load with the package; numpy, and dataclasses with
    # the inspect module they import, would add to every call's start-up.
    code = (
        "import sys, jones3; [getattr(jones3, n) for n in sys.argv[1:]]; "
        "print(sorted({'jones3.rep2', 'jones3.hadamard', 'numpy', 'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    r = subprocess.run([sys.executable, "-c", code, *PACKAGE_NAMES], capture_output=True, text=True)
    assert r.stdout.strip() == "['jones3.hadamard', 'jones3.rep2']"


def test_domain_errors_are_one_class_under_every_path():
    import jones3
    from jones3 import bracket, braid, cli, hadamard, rep2

    assert jones3.DomainError is braid.DomainError is cli.DomainError
    assert jones3.CapExceeded is braid.CapExceeded is bracket.CapExceeded
    assert jones3.OutsideUnitarityRegion is braid.OutsideUnitarityRegion is rep2.OutsideUnitarityRegion
    assert jones3.NonUnitaryGate is braid.NonUnitaryGate is hadamard.NonUnitaryGate
    assert jones3.InvalidPrecision is braid.InvalidPrecision is hadamard.InvalidPrecision
    for error in (braid.BraidParseError, braid.CapExceeded, braid.OutsideUnitarityRegion, braid.NonUnitaryGate,
                  braid.InvalidPrecision):
        assert issubclass(error, braid.DomainError), error


def test_every_domain_error_exits_3_and_no_other_error_does(monkeypatch, capsys):
    from jones3 import cli

    class NewDomainError(cli.DomainError):
        pass

    def jones_exact(word):
        raise error

    monkeypatch.setattr(cli, "jones_exact", jones_exact)
    error = NewDomainError("outside")
    assert cli.main(["--braid", "s1", "--mode", "exact"]) == 3
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "NewDomainError"
    error = ValueError("not a domain error")
    with pytest.raises(ValueError, match="not a domain error"):
        cli.main(["--braid", "s1", "--mode", "exact"])


# Around a valid call, each numeric option in turn takes each of these.
GRID_VALUES = ["nan", "inf", "-inf", "0", "-0.0", "5e-324", "1e-200", "1e154", "1e200", "1.7e308",
               repr(2 * math.pi / 3), str(2**64)]


def test_numeric_options_never_raise():
    from jones3 import cli

    valid = {"--phi": "1", "--eps1": "0.1", "--eps2": "0.1", "--seed": "0"}
    for mode in ("exact", "classical", "quantum", "verify"):
        for option in valid:
            for value in GRID_VALUES:
                options = [f"{k}={v}" for k, v in {**valid, option: value}.items()]
                argv = ["--braid", "s1 s2", "--mode", mode, *options]
                try:
                    status = cli.main(argv)
                except SystemExit as exc:
                    status = exc.code
                assert status in (0, 2, 3, 4), (argv, status)
