import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import msproots
from msproots.cli import main


def run_cli(argv):
    buf_out, buf_err = io.StringIO(), io.StringIO()
    with redirect_stdout(buf_out), redirect_stderr(buf_err):
        code = main(argv)
    return code, buf_out.getvalue(), buf_err.getvalue()


def test_eval_golden():
    code, out, err = run_cli(["eval", "--n", "3", "--k", "1", "--lambda", "1,2,3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == -3
    assert payload["lambda"] == "1,2,3"
    assert err == ""


def test_eval_accepts_any_order_and_canonicalizes():
    code, out, err = run_cli(["eval", "--n", "3", "--lambda", "4,0,2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["lambda"] == "1,2,3" and payload["value"] == -3
    assert "canonicalized" in err


def test_eval_keeps_parts_whose_residues_merge():
    # 1 and 4 are distinct but congruent mod 3: residues would evaluate 1,1,1
    for method in ("dp", "naive", "auto"):
        code, out, err = run_cli(["eval", "--n", "3", "--lambda", "1,4,4", "--method", method])
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["lambda"] == "1,4,4" and payload["value"] == 3
        assert payload["method_used"] == ("dp" if method == "auto" else method)
    code, _, err = run_cli(["eval", "--n", "3", "--lambda", "1,4,4", "--method", "closed"])
    assert code == 2 and "closed" in err


@pytest.mark.parametrize("argv, env, flag", [
    (["eval", "--n", "0", "--lambda", "1"], None, "--n"),
    (["eval", "--n", "-3", "--lambda", "1,2,3"], None, "--n"),
    (["expand", "--n", "3", "--k", "0"], None, "--k"),
    (["verify", "--suite", "branching", "--n", "2", "--l", "0"], None, "--l"),
    (["expand", "--n", "3", "--budget", "0"], None, "--budget"),
    (["expand", "--n", "3", "--budget", "-5"], None, "--budget"),
    (["count", "--n", "3", "--budget", "x"], None, "--budget"),
    (["expand", "--n", "3"], "0", "MSPROOTS_BUDGET"),
    (["expand", "--n", "3"], "-5", "MSPROOTS_BUDGET"),
])
def test_nonpositive_sizes_rejected(monkeypatch, argv, env, flag):
    if env is not None:
        monkeypatch.setenv("MSPROOTS_BUDGET", env)
    code, out, err = run_cli(argv)
    assert code == 2 and out == ""
    assert flag in err and "positive integer" in err


def test_eval_methods_agree():
    values = {}
    for method in ("dp", "naive", "closed", "auto"):
        code, out, _ = run_cli(["eval", "--n", "2", "--k", "2",
                                "--lambda", "1,1,2,2", "--method", method])
        assert code == 0
        payload = json.loads(out)
        values[method] = payload["value"]
        if method in ("naive", "dp"):
            assert payload["method_used"] == method
    assert set(values.values()) == {-2}


def test_eval_plain_and_tsv_formats():
    code, out, _ = run_cli(["eval", "--n", "3", "--lambda", "1,2,3", "--format", "plain"])
    assert code == 0 and "value=-3" in out
    code, out, _ = run_cli(["eval", "--n", "3", "--lambda", "1,2,3", "--format", "tsv"])
    assert code == 0 and out.split("\t")[3] == "-3"


def test_eval_usage_errors():
    code, _, err = run_cli(["eval", "--n", "3", "--lambda", "1,2"])
    assert code == 2 and "error" in err
    code, _, err = run_cli(["eval", "--n", "3", "--lambda", "1,x,3"])
    assert code == 2
    code, _, err = run_cli(["eval", "--n", "4", "--lambda", "1,1,2,3", "--method", "closed"])
    assert code == 2 and "closed" in err


def test_expand_golden_example():
    code, out, err = run_cli(["expand", "--n", "3", "--k", "1"])
    assert code == 0
    assert json.loads(out) == [
        {"lambda": "1,1,1", "coefficient": 1},
        {"lambda": "1,2,3", "coefficient": -3},
        {"lambda": "2,2,2", "coefficient": 1},
        {"lambda": "3,3,3", "coefficient": 1},
    ]


def test_expand_tsv():
    code, out, _ = run_cli(["expand", "--n", "2", "--k", "1", "--format", "tsv"])
    assert code == 0
    assert out.splitlines() == ["1,1\t-1", "2,2\t1"]


def test_count_golden():
    code, out, _ = run_cli(["count", "--n", "3", "--k", "1"])
    assert code == 0
    assert json.loads(out) == {"n": 3, "k": 1, "nu": 4, "lambda_tilde": 4, "equal": True}


def test_budget_exhaustion_exit_code():
    code, _, err = run_cli(["expand", "--n", "4", "--k", "4", "--budget", "10"])
    assert code == 3 and "budget" in err


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("MSPROOTS_BUDGET", "10")
    code, _, _ = run_cli(["expand", "--n", "4", "--k", "5"])
    assert code == 3
    monkeypatch.setenv("MSPROOTS_BUDGET", "notanint")
    code, _, err = run_cli(["expand", "--n", "2", "--k", "1"])
    assert code == 2 and "MSPROOTS_BUDGET" in err


def test_verify_suites_take_the_budget(monkeypatch):
    for suite in ("thm11", "thm12", "prop21", "branching"):
        code, out, err = run_cli(["verify", "--suite", suite, "--n", "3", "--budget", "5"])
        assert code == 3 and out == "" and "budget of 5" in err, (suite, err)
        monkeypatch.setenv("MSPROOTS_BUDGET", "5")
        assert run_cli(["verify", "--suite", suite, "--n", "3"])[0] == 3, suite
        monkeypatch.delenv("MSPROOTS_BUDGET")
        assert run_cli(["verify", "--suite", suite, "--n", "3", "--budget", "10000"])[0] == 0, suite


def test_explicit_default_budget_matches_omitted(monkeypatch):
    argv = ["verify", "--suite", "all", "--n", "6", "--format", "plain"]
    omitted = run_cli(argv)
    assert omitted[0] == 0 and "skipping prop21" in omitted[2] and "skipping branching" in omitted[2]
    assert run_cli(argv + ["--budget", "10000000"]) == omitted
    monkeypatch.setenv("MSPROOTS_BUDGET", "10000000")
    assert run_cli(argv) == omitted


@pytest.mark.parametrize("n,k,bound", [(6, 1, 155), (4, 2, 43), (3, 3, 19), (10, 1, 10_422)])
def test_conjecture_and_expand_refuse_at_the_same_budget(n, k, bound):
    # (6, 1) and (10, 1) stop at the walk's down-set, (4, 2) and (3, 3) at the lambda_tilde keys
    for budget, want in ((bound - 1, 3), (bound, 0)):
        outcomes = []
        for command in ("conjecture", "expand", "count"):
            code, _, err = run_cli([command, "--n", str(n), "--k", str(k), "--budget", str(budget)])
            outcomes.append((code, err))
        assert outcomes[0] == outcomes[1] == outcomes[2], (budget, outcomes)
        code, err = outcomes[0]
        assert code == want, (budget, err)
        assert (f"{bound} count vectors or map keys exceed the budget of {bound - 1}" in err) == (want == 3)


def test_verify_single_suite():
    code, out, _ = run_cli(["verify", "--suite", "thm32", "--n", "3", "--k", "1"])
    assert code == 0
    report = json.loads(out)
    assert report["suite"] == "thm32" and report["failures"] == []
    assert set(report) >= {"suite", "n", "k", "instances_checked", "failures", "elapsed_ms"}


def test_verify_lemma_with_and_without_lambda():
    code, out, _ = run_cli(["verify", "--suite", "lemma24", "--n", "3",
                            "--lambda", "1,2,3"])
    assert code == 0 and json.loads(out)["instances_checked"] == 4
    code, out, _ = run_cli(["verify", "--suite", "lemma24", "--n", "2"])
    assert code == 0 and json.loads(out)["instances_checked"] == 50 * 3
    code, _, err = run_cli(["verify", "--suite", "lemma24", "--n", "3", "--lambda", "1,1,2"])
    assert code == 2


def test_verify_branching_flag():
    code, out, _ = run_cli(["verify", "--suite", "branching", "--n", "2", "--k", "1", "--l", "2"])
    assert code == 0
    assert json.loads(out)["l"] == 2


def test_verify_all_emits_array_and_skips_over_budget(capsys=None):
    code, out, err = run_cli(["verify", "--suite", "all", "--n", "5", "--k", "2"])
    assert code == 0
    reports = json.loads(out)
    suites = [r["suite"] for r in reports]
    assert "thm11" in suites and "thm32" in suites
    assert "prop21" not in suites  # over its cap at (5, 2), noted on stderr
    assert "skipping prop21" in err


def test_verify_empty_sweep_is_skipped():
    code, out, _ = run_cli(["verify", "--suite", "all", "--n", "1", "--format", "plain"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "thm11 n=1 k=1: 0 instances, 0 failures [SKIP]"
    assert lines[1] == "thm12 n=1 k=1: 0 instances, 0 failures [SKIP]"
    assert all(line.endswith("[PASS]") for line in lines[2:])
    code, out, _ = run_cli(["verify", "--suite", "all", "--n", "1"])
    assert code == 0
    assert [r.get("skipped", False) for r in json.loads(out)] == [True, True] + [False] * 4


def test_conjecture_command():
    code, out, _ = run_cli(["conjecture", "--n", "6", "--k", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == 80 and len(payload["zero_coefficients"]) == 12
    assert payload["is_prime_power"] is False and payload["consistent_with_conjecture"] is True
    code, out, err = run_cli(["conjecture", "--n", "1"])
    assert code == 2 and out == "" and "n >= 2" in err
    code, out, err = run_cli(["conjecture", "--n", "16"])  # 18,784,170 keys, over the default budget
    assert code == 3 and out == "" and "budget" in err
    code, out, err = run_cli(["conjecture", "--n", "24"])
    assert code == 3 and out == "" and "budget" in err


def test_conjecture_tsv_is_one_row_then_the_zeros():
    code, out, _ = run_cli(["conjecture", "--n", "6", "--format", "tsv"])
    assert code == 0
    head, *zeros = out.splitlines()
    assert head.split("\t") == ["6", "1", "80", "12", "False", "True"]
    assert len(zeros) == 12
    for line in zeros:
        parts = [int(p) for p in line.split(",")]
        assert len(parts) == 6 and sum(parts) % 6 == 0, line


def test_eval_methods_agree_across_family():
    for lam in ("1,1,1", "1,1,2", "1,2,2", "1,2,3", "2,2,2", "1,3,3", "3,3,3"):
        seen = set()
        for method in ("dp", "naive", "auto"):
            code, out, _ = run_cli(["eval", "--n", "3", "--lambda", lam, "--method", method])
            assert code == 0
            seen.add(json.loads(out)["value"])
        assert len(seen) == 1, lam


def test_verify_failures_exit_one(monkeypatch):
    from msproots import cli
    from msproots.verify import Failure, VerificationReport

    def broken(n, k, budget=None):
        return VerificationReport("thm11", n, k, 1,
                                  [Failure("lambda=1,1", "0", "1")], 0.0)

    monkeypatch.setattr(cli.checks, "check_thm11", broken)
    code, out, _ = run_cli(["verify", "--suite", "thm11", "--n", "2", "--k", "1"])
    assert code == 1
    assert json.loads(out)["failures"] == [{"lambda": "lambda=1,1", "expected": "0", "actual": "1"}]


def test_usage_exit_codes():
    code, _, _ = run_cli(["nosuchcommand"])
    assert code == 2
    code, _, _ = run_cli([])
    assert code == 2
    code, _, _ = run_cli(["--help"])
    assert code == 0


def test_closed_pipe_exits_quietly():
    """A reader that stops after one line, as `| head -1` does, is not a mathematical failure."""
    src = str(Path(msproots.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    # about 188 kB of rows, more than a pipe holds, so the writer meets the closed end
    proc = subprocess.Popen([sys.executable, "-m", "msproots.cli", "expand", "--n", "10", "--format", "tsv"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0, err
    assert first == b"1,1,1,1,1,1,1,1,1,1\t-1\n"
    assert err == b""
