"""The benchmark's workloads: seeded inputs, the ops that feed them to msproots
through its public entry points, and the checks on every op's output.

A workload is built from a seed; the package only ever sees the generated
inputs. One pass runs every op of the workload once, in order, from cold
caches. Each op returns its raw output; `check` judges it outside the timed
region, and `deep_check` runs the heavier sampled checks once per run.
"""
from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from math import gcd, prod
from pathlib import Path

from msproots import cli, cyclotomic, groupdet, msp, verify
from msproots.groupdet import prime_term_count
from msproots.msp import EvalInstance, closed_form_value, msp_value_dp, scale_partition
from msproots.partitions import format_partition, is_prime, lambda_tilde_size

EXPECTED = json.loads((Path(__file__).resolve().parent / "expected.json").read_text())


def clear_caches():
    """Empty every memo the package keeps, as a fresh CLI process would find them."""
    msp._dp_value.cache_clear()
    groupdet._expansions.clear()
    cyclotomic.cyclotomic_poly.cache_clear()


def cache_counts():
    """Hits and misses of the package's memos since they were last cleared."""
    dp = msp._dp_value.cache_info()
    return {"msp.dp_cache_hits": dp.hits, "msp.dp_cache_misses": dp.misses,
            "cyclotomic.poly_cache_misses": cyclotomic.cyclotomic_poly.cache_info().misses}


def run_cli(argv):
    """cli.main in-process; returns (exit code, stdout text, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class ExpandSweep:
    """`expand --format tsv` through cli.main, one op per (n, k).

    Nearly all the work is the groupdet shift-and-add accumulator and the
    per-key cyclotomic readout; the msp DP does none. (11, 1) takes about
    15 s on its own and is left out.
    """

    name = "expand_sweep"
    cold_ops = True  # each CLI call is a process of its own for a user
    sizes = ((8, 1), (9, 1), (10, 1), (6, 2), (7, 2))
    samples_per_size = 6

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.ops = list(self.sizes)
        self.rng.shuffle(self.ops)
        self.outputs = {}

    @staticmethod
    def label(op):
        return f"expand {op[0]},{op[1]}"

    def memory_probe(self):
        """The ops run under tracemalloc, which slows them about tenfold: the two smallest."""
        return [(8, 1), (6, 2)]

    @staticmethod
    def op_counts(result):
        return {"cli.output_bytes": len(result[1])}

    def run(self, op):
        n, k = op
        return run_cli(["expand", "--n", str(n), "--k", str(k), "--format", "tsv"])

    def check(self, op, result):
        n, k = op
        code, out, err = result
        if code != 0 or err:
            return [f"{self.label(op)}: exit {code}, stderr {err!r}"]
        errors = []
        recorded = EXPECTED["expand_sweep"][f"{n},{k}"]
        terms = out.count("\n")
        if terms != recorded["terms"]:
            errors.append(f"{self.label(op)}: {terms} terms, recorded {recorded['terms']}")
        if terms > lambda_tilde_size(n, k):
            errors.append(f"{self.label(op)}: {terms} terms exceed lambda_tilde_size")
        if k == 1 and is_prime(n) and terms != prime_term_count(n):
            errors.append(f"{self.label(op)}: {terms} terms, prime formula gives {prime_term_count(n)}")
        digest = hashlib.sha256(out.encode()).hexdigest()
        if digest != recorded["tsv_sha256"]:
            errors.append(f"{self.label(op)}: TSV digest {digest} differs from the recorded one")
        self.outputs[op] = out
        return errors

    def deep_check(self):
        """Seeded coefficients, present and absent, against msp_value_dp."""
        errors = []
        for n, k in self.sizes:
            out = self.outputs.get((n, k))
            if out is None:
                continue
            table = dict(line.split("\t") for line in out.splitlines())
            picks = self.rng.sample(sorted(table), self.samples_per_size // 2)
            while len(picks) < self.samples_per_size:
                parts = [self.rng.randint(1, n) for _ in range(k * n)]
                parts[-1] = (parts[-1] - 1 - sum(parts)) % n + 1  # part sum divisible by n
                picks.append(format_partition(parts))
            for text in picks:
                parts = tuple(int(p) for p in text.split(","))
                want = int(table.get(text, 0))
                got = msp_value_dp(EvalInstance(parts, n, k))
                if got != want:
                    errors.append(f"expand {n},{k}: coefficient of {text} is {want}, msp_value_dp gives {got}")
        return errors


class EvalStream:
    """Distinct `eval --method auto` queries through cli.main, one op per query.

    Parts lie in 1..n and every part sum is divisible by n. One query in
    five has a closed-form shape; the rest go to the DP, whose frontier
    loop does almost all the work, with one readout per query; each query
    starts from cold caches. The multiplicity profiles of the DP queries are fixed,
    and the seed chooses which parts carry them, so the DP work of a pass
    hardly depends on the seed.

    BENCHMARK.json does not list it: on a 2-core host whose speed drifts,
    the runs of three workloads in the time allowed are too short to be
    steady. It stays for measuring the DP kernel at large sizes by hand.
    """

    name = "eval_stream"
    cold_ops = True
    sizes = ((10, 2), (9, 2), (16, 1), (7, 3))
    queries = 50
    closed_every = 5
    max_states = 50_000
    scaled_samples = 3

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}:{seed}")
        shapes = random.Random(f"{self.name}:profiles")
        seen = set()
        self.ops = []
        for i in range(self.queries):
            n, k = self.sizes[i % len(self.sizes)]
            if i % self.closed_every == self.closed_every - 1:
                parts, method = self._closed_query(n, k, i // self.closed_every, seen), "closed"
            else:
                parts, method = self._dp_query(n, k, self._profile(shapes, n, k), seen), "dp"
            seen.add((n, k, parts))
            self.ops.append((n, k, parts, method))
        self.generated = list(self.ops)
        self.rng.shuffle(self.ops)
        self.values = {}

    def _profile(self, shapes, n, k):
        while True:
            draw = [shapes.randint(1, n) for _ in range(k * n)]
            mults = sorted((draw.count(v) for v in set(draw)), reverse=True)
            if prod(m + 1 for m in mults) <= self.max_states:
                return mults

    def _dp_query(self, n, k, mults, seen):
        while True:
            values = self.rng.sample(range(1, n + 1), len(mults))
            parts = tuple(sorted(v for v, m in zip(values, mults) for _ in range(m)))
            if sum(parts) % n == 0 and (n, k, parts) not in seen \
                    and closed_form_value(EvalInstance(parts, n, k)) is None:
                return parts

    def _closed_query(self, n, k, kind, seen):
        """Cycle through the two-low, three-low and two-block closed-form shapes."""
        kn, rng = k * n, self.rng
        while True:
            if kind % 3 == 0:
                u = rng.randint(1, n - 1)
                low = [u, n - u]
            elif kind % 3 == 1:
                u, v = rng.randint(1, n - 1), rng.randint(1, n - 1)
                low = [u, v, (-u - v) % n]
            else:
                lam1 = rng.randint(1, n - 1)
                step = n // gcd(lam1, n)
                low = [lam1] * (step * rng.randint(1, kn // step))
            if all(0 < p < n for p in low) and len(low) < kn:
                parts = tuple(sorted(low + [n] * (kn - len(low))))
                if (n, k, parts) not in seen and closed_form_value(EvalInstance(parts, n, k)) is not None:
                    return parts

    @staticmethod
    def label(op):
        n, k, parts, _ = op
        return f"eval {n},{k} {format_partition(parts)}"

    def memory_probe(self):
        """The ops run under tracemalloc: the first query built at each size, and one closed form."""
        return self.generated[:self.closed_every]

    @staticmethod
    def op_counts(result):
        return {"cli.output_bytes": len(result[1])}

    def run(self, op):
        n, k, parts, _ = op
        return run_cli(["eval", "--n", str(n), "--k", str(k), "--lambda", format_partition(parts),
                        "--method", "auto"])

    def check(self, op, result):
        n, k, parts, method = op
        code, out, err = result
        if code != 0 or err:
            return [f"{self.label(op)}: exit {code}, stderr {err!r}"]
        payload = json.loads(out)
        if payload["lambda"] != format_partition(parts) or payload["method_used"] != method:
            return [f"{self.label(op)}: unexpected echo {payload}"]
        value = payload["value"]
        if self.values.setdefault(op, value) != value:
            return [f"{self.label(op)}: value {value} differs from an earlier pass"]
        return []

    def deep_check(self):
        """Every closed-form answer against the DP; a seeded sample against unit scaling."""
        errors = []
        for op, value in self.values.items():
            n, k, parts, method = op
            if method == "closed" and msp_value_dp(EvalInstance(parts, n, k)) != value:
                errors.append(f"{self.label(op)}: closed form {value} differs from the DP")
        dp_ops = sorted(op for op in self.values if op[3] == "dp")
        for op in self.rng.sample(dp_ops, min(self.scaled_samples, len(dp_ops))):
            n, k, parts, _ = op
            unit = self.rng.choice([l for l in range(2, n) if gcd(l, n) == 1])
            scaled = msp_value_dp(EvalInstance(scale_partition(parts, unit, n), n, k))
            if scaled != self.values[op]:
                errors.append(f"{self.label(op)}: scaling by {unit} gives {scaled}, not {self.values[op]}")
        return errors


class VerifySweep:
    """One verification session through the verify API, one op per suite call.

    Thousands of tiny DP instances with a high memo hit rate, plus the
    naive oracle, partition enumeration, small expansions, relabel and
    leibniz_determinant: a change that speeds up large instances but adds
    per-call overhead shows as a loss here. Calls at the same n share DP
    memo entries, so the seed orders the groups of calls at one n and
    keeps the order within a group: every op then does the same work
    whatever the seed.
    """

    name = "verify_sweep"
    cold_ops = False  # one session: its calls share the package's memos
    calls = (("theorems", (7, 1)), ("theorems", (8, 1)), ("theorems", (5, 2)), ("theorems", (4, 3)),
             ("branching", (4, 2, 1)), ("branching", (5, 1, 1)),
             ("conjecture", (9, 1)), ("conjecture", (6, 1)))
    entry = {"theorems": "check_theorems", "branching": "check_branching",
             "conjecture": "explore_conjecture"}

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}:{seed}")
        groups = {}
        for call in self.calls:
            groups.setdefault(call[1][0], []).append(call)
        order = sorted(groups)
        self.rng.shuffle(order)
        self.ops = [call for n in order for call in groups[n]]

    @staticmethod
    def label(op):
        return f"{op[0]} {','.join(map(str, op[1]))}"

    def memory_probe(self):
        """The ops run under tracemalloc: the calls at n <= 6, in pass order."""
        return [op for op in self.ops if op[1][0] <= 6]

    @staticmethod
    def op_counts(report):
        if hasattr(report, "total"):  # a ConjectureReport classifies every partition it examined
            return {"verify.instances_checked": report.total, "verify.failures": 0}
        return {"verify.instances_checked": report.instances_checked,
                "verify.failures": len(report.failures)}

    def run(self, op):
        suite, params = op
        return getattr(verify, self.entry[suite])(*params)

    def check(self, op, report):
        want = EXPECTED["verify_sweep"][self.label(op)]
        if op[0] == "conjecture":
            got = {"total": report.total, "zeros": len(report.zero_coefficients),
                   "consistent": report.consistent_with_conjecture}
        else:
            got = {"instances_checked": report.instances_checked, "failures": len(report.failures),
                   "sections": report.sections}
        return [] if got == want else [f"{self.label(op)}: got {got}, recorded {want}"]

    def deep_check(self):
        return []


WORKLOADS = {w.name: w for w in (ExpandSweep, EvalStream, VerifySweep)}
