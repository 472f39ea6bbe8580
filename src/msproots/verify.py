"""Machine checks for the identities the evaluators are built on.

Each suite sweeps a finite instance family, compares independently
computed sides exactly, and returns a structured report. Failures are
data, not exceptions, and every failure names a concrete instance that
reproduces it. Only proven statements are asserted hard; the open
nonvanishing question is explored and its evidence recorded, never
encoded as an oracle.
"""
from __future__ import annotations

import random
import time
from collections.abc import Mapping
from functools import cache, reduce
from itertools import combinations, permutations, product
from math import gcd, prod
from operator import getitem, mul
from types import MappingProxyType
from typing import NamedTuple

from .cyclotomic import CyclotomicInt, check_budget, walk_values
from .groupdet import (
    LEIBNIZ_LIMIT,
    MonomialMap,
    exponent_key,
    key_partition,
    leibniz_determinant,
    orbit_expand,
    orbit_values,
    prime_term_count,
    relabeling,
    relabelings,
)
from .msp import (
    NAIVE_LENGTH_LIMIT,
    BudgetExceeded,
    EvalInstance,
    closed_form_two_blocks,
    mansfield_coefficient,
    msp_value_naive,
    msp_values_dp,
    prime_nonvanishing,
    reduce_two_distinct,
)
from .partitions import (
    binomial,
    enumerate_partitions,
    format_partition,
    is_prime,
    is_prime_power,
    lambda_tilde_size,
)

# Sweeps over full partition families are skipped above these fixed sizes so
# a single suite stays desk-scale; the budget does not lift them.
EXHAUSTIVE_CAP = 2500
COEFFICIENT_SWEEP_CAP = 650
PROP21_CAP = 200
LEMMA_PERMUTATION_LIMIT = 7
EVALUATION_POINTS = 2
EVALUATION_PRIME = 2**61 - 1


class TheoremViolation(AssertionError):
    """A machine check contradicted a proven statement."""


class Failure(NamedTuple):
    instance: str
    expected: str
    actual: str

    def to_dict(self):
        return {"lambda": self.instance, "expected": self.expected, "actual": self.actual}


class VerificationReport(NamedTuple):
    suite: str
    n: int
    k: int
    instances_checked: int
    failures: list
    elapsed_ms: float
    sections: Mapping[str, int] = MappingProxyType({})  # read-only: no report shares a dict
    l: int | None = None

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def skipped(self) -> bool:
        """Nothing was checked, so passing shows nothing."""
        return self.instances_checked == 0 and not self.failures

    def to_dict(self):
        out = {
            "suite": self.suite,
            "n": self.n,
            "k": self.k,
            "instances_checked": self.instances_checked,
            "failures": [f.to_dict() for f in self.failures],
            "elapsed_ms": round(self.elapsed_ms, 3),
        }
        if self.skipped:
            out["skipped"] = True
        if self.l is not None:
            out["l"] = self.l
        if self.sections:
            out["sections"] = dict(sorted(self.sections.items()))
        return out


class ConjectureReport(NamedTuple):
    n: int
    k: int
    total: int
    zero_coefficients: list
    is_prime_power: bool
    consistent_with_conjecture: bool
    elapsed_ms: float = 0.0

    def to_dict(self):
        return {
            "n": self.n,
            "k": self.k,
            "total": self.total,
            "zero_coefficients": [format_partition(p) for p in self.zero_coefficients],
            "is_prime_power": self.is_prime_power,
            "consistent_with_conjecture": self.consistent_with_conjecture,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }


def check_lemma_2_4(n: int, parts) -> VerificationReport:
    """Full permutation sum versus n times the reduced sum, per test function.

    The indicator of each residue class is checked (those span every
    period-n function, so passing the basis proves the identity for all
    f), plus the root-power weight itself.
    """
    parts = tuple(parts)
    if len(parts) != n:
        raise ValueError(f"need exactly {n} parts, got {len(parts)}")
    if sum(parts) % n:
        raise ValueError("part sum must be divisible by n")
    if n > LEMMA_PERMUTATION_LIMIT:
        raise BudgetExceeded(f"permutation sweep is limited to n <= {LEMMA_PERMUTATION_LIMIT}")
    t0 = time.perf_counter()
    lhs = [0] * n
    for sigma in permutations(range(1, n + 1)):
        lhs[sum(p * s for p, s in zip(parts, sigma)) % n] += 1
    rhs = [0] * n
    for tau in permutations(range(1, n)):
        rhs[sum(p * s for p, s in zip(parts, tau)) % n] += 1
    text = format_partition(parts)
    failures = []
    for r in range(n):
        if lhs[r] != n * rhs[r]:
            failures.append(Failure(f"lambda={text} f=1[t={r} mod {n}]", str(n * rhs[r]), str(lhs[r])))
    left = CyclotomicInt(n, lhs)
    right = CyclotomicInt(n, [n * c for c in rhs])
    if left.canonical_form() != right.canonical_form():
        failures.append(Failure(f"lambda={text} f=zeta^t", repr(right), repr(left)))
    elapsed = (time.perf_counter() - t0) * 1000
    return VerificationReport("lemma24", n, 1, n + 1, failures, elapsed)


def check_lemma_2_4_sweep(n: int, samples: int = 50, seed: int = 0) -> VerificationReport:
    """Aggregate lemma checks over seeded random integer vectors with sum divisible by n."""
    t0 = time.perf_counter()
    rng = random.Random(f"{seed}:{n}")
    failures = []
    checked = 0
    for _ in range(samples):
        draw = [rng.randrange(-2 * n, 2 * n + 1) for _ in range(n)]
        draw[-1] -= sum(draw) % n
        rep = check_lemma_2_4(n, draw)
        checked += rep.instances_checked
        failures.extend(rep.failures)
    elapsed = (time.perf_counter() - t0) * 1000
    return VerificationReport("lemma24", n, 1, checked, failures, elapsed)


def check_prop_2_1(n: int, k: int, budget: int | None = None) -> VerificationReport:
    """Expand both sides of the generating identity and compare term by term.

    Left side: the product over variables of (1 - x_i^n)^k, multiplied
    out by the binomial theorem. Right side: the sum over zero-padded
    partitions with part sum divisible by n of (-1)^|lambda| e_lambda(x)
    times the evaluated orbit sum. Each side is a dict keyed by exponent
    vector.
    """
    padded = binomial(k * n + n, n)
    if padded > PROP21_CAP:
        raise BudgetExceeded(f"{padded} zero-padded partitions exceed the cap of {PROP21_CAP}")
    t0 = time.perf_counter()
    lhs = {tuple(n * e for e in a): (-1) ** sum(a) * prod(binomial(k, e) for e in a)
           for a in product(range(k + 1), repeat=n)}
    es = [MonomialMap(n, r, {tuple(int(i in s) for i in range(n)): 1 for s in combinations(range(n), r)})
          for r in range(n + 1)]
    lams = [lam for lam in enumerate_partitions(n, k * n, allow_zero=True) if sum(lam) % n == 0]
    values = msp_values_dp(lams, n, k, budget)
    rhs = {}
    for lam in lams:
        value = values[lam]
        if value == 0:
            continue
        signed = (-1) ** sum(lam) * value
        for key, c in reduce(MonomialMap.__mul__, (es[p] for p in lam if p), es[0]).items():
            rhs[key] = rhs.get(key, 0) + signed * c
    failures = []
    for key in sorted(set(lhs) | set(rhs)):
        a, b = lhs.get(key, 0), rhs.get(key, 0)
        if a != b:
            failures.append(Failure(f"monomial exponents={','.join(map(str, key))}", str(a), str(b)))
    elapsed = (time.perf_counter() - t0) * 1000
    return VerificationReport("prop21", n, k, len(lams), failures, elapsed)


def check_branching(n: int, k: int, l: int, budget: int | None = None) -> VerificationReport:
    """Value at k+l versus the sum of split products over contained partitions.

    The sums for all mu are the coefficients of one product of the half-family maps {key: value}.
    Each family is one walk_values batch keyed by exponent vector.
    """
    if n < 1 or k < 1 or l < 1:
        raise ValueError("n, k and l must be positive")
    family_size = binomial((k + l) * n + n - 1, n - 1)
    if family_size > EXHAUSTIVE_CAP:
        raise BudgetExceeded(f"{family_size} partitions at power {k + l} exceed the cap of {EXHAUSTIVE_CAP}")
    t0 = time.perf_counter()
    labels, mus = range(1, n + 1), _family(n, (k + l) * n)
    # the split halves of all mu at powers k and l are the whole families at those powers
    halves = {p: MonomialMap(n, p * n, walk_values(labels, _family(n, p * n), n, budget)) for p in {k, l}}
    split = halves[k] * halves[l]
    values = walk_values(labels, mus, n, budget)
    failures = []
    for mu in mus:
        direct, total = values[mu], split.coefficient(mu)
        if direct != total:
            failures.append(Failure(f"mu={format_partition(key_partition(mu))}", str(direct), str(total)))
    elapsed = (time.perf_counter() - t0) * 1000
    return VerificationReport("branching", n, k, len(mus), failures, elapsed, l=l)


def check_thm11(n: int, k: int, budget: int | None = None) -> VerificationReport:
    """Prime nonvanishing equivalence, the two-block closed form, and the block reduction."""
    return _run("thm11", ["thm11"], n, k, budget)


def check_thm12(n: int, k: int, budget: int | None = None) -> VerificationReport:
    """Near-identity pattern values, vanishing off the residue class, unit scaling.

    Integrality is not a separate sweep: every evaluator readout already
    asserts it.
    """
    return _run("thm12", ["thm12"], n, k, budget)


def check_thm32(n: int, k: int, budget: int | None = None) -> VerificationReport:
    """The expansion that expand prints (orbit_expand's) against the determinant and the evaluators.

    Where neither the Leibniz route nor the coefficient sweep covers the map,
    it is checked at seeded points mod a prime against the determinant from elimination.
    """
    return _run("thm32", ["thm32"], n, k, budget)


def check_theorems(n: int, k: int, budget: int | None = None) -> VerificationReport:
    """Every applicable theorem suite in one report, sections prefixed per suite."""
    return _run("theorems", ["thm11", "thm12", "thm32"], n, k, budget)


def _run(suite, names, n, k, budget) -> VerificationReport:
    """One report from one walk_values batch over the partitions that every named plan reads.

    A plan takes (n, k, budget, split) and returns those partitions as
    exponent vectors over the labels 1..n (every part lies in 1..n) and a
    check, which takes their values, a sections dict and a failure list and
    fills both. split() gives _split_family(n, kn), built at most once for
    the plans that read it. With several plans each section is prefixed by
    its plan's name.
    """
    t0 = time.perf_counter()
    split = cache(lambda: _split_family(n, k * n))
    plans = [(name, *_PLANS[name](n, k, budget, split)) for name in names]
    values = walk_values(range(1, n + 1), [key for _, keys, _ in plans for key in keys], n, budget)
    sections = {}
    failures = []
    for name, _, check in plans:
        own = {}
        check(values, own, failures)
        prefix = f"{name}." if len(plans) > 1 else ""
        sections.update((prefix + section, cnt) for section, cnt in own.items())
    elapsed = (time.perf_counter() - t0) * 1000
    return VerificationReport(suite, n, k, sum(sections.values()), failures, elapsed, sections=sections)


def _family(n, length) -> list:
    """The exponent vectors of every partition of `length` parts in 1..n, in enumerate_partitions order.

    That is descending order, built from the last entry forward: tails[s] holds those of sum s."""
    def lead(s):  # the vectors of sum s with one more entry in front
        return [(a,) + tail for a in range(s, -1, -1) for tail in tails[s - a]]

    tails = [[(s,)] for s in range(length + 1)]
    for _ in range(n - 2):
        tails = [lead(s) for s in range(length + 1)]
    return lead(length) if n > 1 else tails[length]


def _split_family(n, length):
    """(_family(n, length), its vectors whose label sum n divides, the others), each in family order."""
    family = _family(n, length)
    divisible, off = [], []
    labels = range(1, n + 1)
    for key in family:
        (off if sum(map(mul, key, labels)) % n else divisible).append(key)
    return family, divisible, off


def _thm11_plan(n, k, budget, split):
    kn = k * n
    prime = k == 1 and is_prime(n)
    if prime:
        # The prime family's multiplicity vectors are every vector of sum n over the n
        # columns 1..n, so the walk's down-set is every vector of sum <= n: binom(2n, n)
        # DP states. Checked here so that the family is not enumerated first.
        check_budget(binomial(2 * n, n), budget)
    family = split()[0] if prime else []  # k = 1, so the family of length n
    distinct = {}  # one tuple per distinct key: (24, 2) reads 12,996 keys 55,223 times

    def shared(key):
        return distinct.setdefault(key, key)

    def two_blocks(u, w, a):  # the key of a copies of u and kn - a copies of w != u
        return shared(tuple([a if j == u else kn - a if j == w else 0 for j in range(1, n + 1)]))

    blocks = [(lam1, a, two_blocks(lam1, n, a)) for lam1 in range(1, n) for a in range(kn + 1)]
    pairs = []
    for lam1 in range(1, n + 1):
        for lam2 in range(1, n + 1):
            if (lam2 - lam1) % n == 0:
                continue
            for a in range(kn + 1):
                sign, reduced = reduce_two_distinct(lam1, lam2, a, n, k)
                pairs.append((lam1, lam2, a, two_blocks(lam1, lam2, a), sign,
                              shared(exponent_key(reduced.parts, n))))

    def check(values, sections, failures):
        if prime:
            for key in family:
                nonzero = values[key] != 0
                want = prime_nonvanishing(key_partition(key), n)
                if nonzero != want:
                    failures.append(Failure(f"thm11_1 lambda={format_partition(key_partition(key))}",
                                            f"nonzero={want}", f"nonzero={nonzero}"))
            sections["prime_equivalence"] = len(family)

        for lam1, a, key in blocks:
            got = values[key]
            want = closed_form_two_blocks(lam1, a, n, k)
            if got != want:
                failures.append(Failure(f"thm11_2 lambda1={lam1} a={a}", str(want), str(got)))
            elif lam1 * a % n == 0 and want == 0:  # the part sum is lam1 * a mod n
                failures.append(Failure(f"thm11_2 lambda1={lam1} a={a}", "nonzero", "0"))
        sections["two_block_closed_form"] = len(blocks)

        for lam1, lam2, a, key, sign, reduced in pairs:
            got = values[key]
            want = sign * values[reduced]
            if got != want:
                failures.append(Failure(f"thm11_3 lambda1={lam1} lambda2={lam2} a={a}",
                                        str(want), str(got)))
        sections["two_distinct_reduction"] = len(pairs)

    return family + [b[2] for b in blocks] + [p[3] for p in pairs] + [p[5] for p in pairs], check


def _thm12_plan(n, k, budget, split):
    kn = k * n
    candidates = []
    if kn >= 2:
        candidates += [(u, v) for u in range(1, n) for v in range(u, n)]
    if kn >= 3:
        candidates += [(u, v, w)
                       for u in range(1, n) for v in range(u, n) for w in range(v, n)]
    patterns = []
    for low in candidates:
        lam = low + (n,) * (kn - len(low))
        want = mansfield_coefficient(EvalInstance(lam, n, k))
        if want is not None:
            patterns.append((exponent_key(lam, n), want))
    exhaustive = binomial(kn + n - 1, n - 1) <= EXHAUSTIVE_CAP
    family, _, off = split() if exhaustive else ([], [], [])  # unit scaling keeps to the family

    def check(values, sections, failures):
        for key, want in patterns:
            got = values[key]
            if got != want or want == 0:
                failures.append(Failure(f"thm12_pattern lambda={format_partition(key_partition(key))}",
                                        f"{want} (nonzero)", str(got)))
        sections["near_identity_patterns"] = len(patterns)

        if exhaustive:
            failures.extend(Failure(f"thm12_6 lambda={format_partition(key_partition(key))}", "0", str(values[key]))
                            for key in off if values[key] != 0)
            sections["vanishing_off_residue"] = len(off)

            # scale_partition by the unit l relabels the exponent vector by x_j -> x_(l*j)
            scalings = [(l, relabeling(n, l)) for l in range(2, n + 1) if gcd(l, n) == 1]
            bases = list(map(values.__getitem__, family))
            if any(list(map(values.__getitem__, map(image, family))) != bases for _, image in scalings):
                for key, base in zip(family, bases):  # name each moved value, key by key
                    for l, image in scalings:
                        got = values[image(key)]
                        if got != base:
                            failures.append(Failure(f"thm12_8 lambda={format_partition(key_partition(key))} l={l}",
                                                    str(base), str(got)))
            sections["unit_scaling"] = len(family) * len(scalings)

    return [key for key, _ in patterns] + family, check


def _thm32_plan(n, k, budget, split):
    expansion = orbit_expand(n, k, budget)
    tilde = lambda_tilde_size(n, k)
    sweep = tilde <= COEFFICIENT_SWEEP_CAP
    keys = split()[1] if sweep else []
    if sweep and len(keys) != tilde:
        raise TheoremViolation(f"enumeration found {len(keys)} partitions, formula says {tilde}")

    def check(values, sections, failures):
        for key in expansion:
            if sum(map(mul, key, range(1, n + 1))) % n:
                failures.append(Failure(f"thm32_key lambda={format_partition(key_partition(key))}",
                                        "part sum divisible by n", "not divisible"))
        sections["residue_divisibility"] = len(expansion)

        if k == 1 and n <= LEIBNIZ_LIMIT:
            det = leibniz_determinant(n)
            routes = det if expansion == det else sorted(set(expansion) | set(det))
            if routes is not det:
                for key in routes:
                    a, b = expansion.coefficient(key), det.coefficient(key)
                    if a != b:
                        failures.append(Failure(f"thm32_leibniz lambda={format_partition(key_partition(key))}",
                                                str(b), str(a)))
            sections["determinant_routes"] = len(routes)
        elif not sweep:
            rng = random.Random(f"thm32:{n}:{k}")
            for point in range(EVALUATION_POINTS):
                x = [rng.randrange(EVALUATION_PRIME) for _ in range(n)]
                # C(x)[i][s] is the variable labelled by i - s mod n, as in leibniz_determinant
                det = _det_mod([[x[(i - s - 1) % n] for s in range(n)] for i in range(n)], EVALUATION_PRIME)
                want = pow(det, k, EVALUATION_PRIME)
                got = _evaluate_mod(expansion, x, EVALUATION_PRIME)
                if got != want:
                    failures.append(Failure(f"thm32_evaluation point={point}", str(want), str(got)))
            sections["evaluation_points"] = EVALUATION_POINTS

        if sweep:
            run_naive = k * n <= NAIVE_LENGTH_LIMIT
            for key in keys:
                dp = values[key]
                coeff = expansion.coefficient(key)
                if dp != coeff:
                    failures.append(Failure(f"thm32_coefficient lambda={format_partition(key_partition(key))}",
                                            str(coeff), str(dp)))
                if run_naive:
                    lam = key_partition(key)
                    naive = msp_value_naive(EvalInstance(lam, n, k))
                    if naive != dp:
                        failures.append(Failure(f"thm32_naive lambda={format_partition(lam)}",
                                                str(dp), str(naive)))
            sections["coefficient_agreement"] = len(keys)
            if run_naive:
                sections["naive_agreement"] = len(keys)

        if k == 1 and is_prime(n):
            nu, want = len(expansion), prime_term_count(n)
            sections["prime_term_count"] = 1
            if not nu == want == tilde:
                failures.append(Failure(f"corollary p={n}", f"nu={want} equal=True",
                                        f"nu={nu} lambda_tilde={tilde} equal={nu == tilde}"))

        units = [l for l in range(2, n + 1) if gcd(l, n) == 1]
        for l in units:
            if expansion.relabel(l) != expansion:
                failures.append(Failure(f"thm32_automorphism l={l}", "expansion fixed", "expansion moved"))
        sections["automorphism_invariance"] = len(units)

    return keys, check


_PLANS = {"thm11": _thm11_plan, "thm12": _thm12_plan, "thm32": _thm32_plan}


def _det_mod(rows, p: int) -> int:
    """Determinant mod the prime p of a square integer matrix, by Gaussian elimination."""
    rows = [[a % p for a in row] for row in rows]
    det = 1
    for c in range(len(rows)):
        pivot = next((r for r in range(c, len(rows)) if rows[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        head = rows[c]
        det = det * head[c] % p
        inverse = pow(head[c], -1, p)
        for r in range(c + 1, len(rows)):
            factor = rows[r][c] * inverse % p
            rows[r] = [(a - factor * b) % p for a, b in zip(rows[r], head)]
    return det


def _evaluate_mod(poly: MonomialMap, x, p: int) -> int:
    """The sum of c * x^e over the terms of the map, mod p."""
    powers = [[pow(v, e, p) for e in range(poly.degree + 1)] for v in x]
    return sum(prod(map(getitem, powers, key), start=c) % p for key, c in poly.items()) % p


def explore_conjecture(n: int, k: int, budget: int | None = None) -> ConjectureReport:
    """Classify the divisible-sum index set by zero or nonzero coefficient.

    Produces evidence for the open question of which orders n >= 2 leave
    no coefficient zero; nothing conjectural is asserted. The one hard
    assertion is the proven case k = 1 with n prime, where a zero
    coefficient is impossible. The coefficients are orbit_values(n, k),
    one per orbit of the relabelings, whose key guard raises
    BudgetExceeded before any key is enumerated; the zeros are every
    image of a zero representative, as sorted partitions.
    """
    if n < 2 or k < 1:
        raise ValueError("the conjecture concerns orders n >= 2 and powers k >= 1")
    t0 = time.perf_counter()
    values = orbit_values(n, k, budget)
    maps = [image for image, _ in relabelings(n, k)]
    zeros = sorted({key_partition(image(rep)) for rep, value in values.items() if not value for image in maps})
    if k == 1 and is_prime(n) and zeros:
        raise TheoremViolation(
            f"zero coefficient at prime n={n}, k=1: lambda={format_partition(zeros[0])}")
    prime_power = is_prime_power(n)
    elapsed = (time.perf_counter() - t0) * 1000
    return ConjectureReport(n, k, lambda_tilde_size(n, k), zeros, prime_power,
                            prime_power == (not zeros), elapsed)
