"""Bounded partitions and exact counting utilities.

Partitions are plain tuples of integers sorted nondecreasing. Parts of
the standard index family lie in 1..n; the zero-padded family allows 0.
A part equal to n is deliberately kept distinct from a part equal to 0:
the two index different monomial shapes even though evaluation treats
them alike.
"""
from __future__ import annotations

from itertools import combinations_with_replacement
from math import comb, gcd


def binomial(a: int, b: int) -> int:
    """Binomial coefficient, zero outside 0 <= b <= a."""
    return comb(a, b) if 0 <= b <= a else 0


def _prime_factors(n: int) -> dict:
    """{p: e} with n the product of the p^e, by trial division; {} for n <= 1."""
    factors = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        factors[n] = 1  # what is left has no factor up to its square root
    return factors


def divisors(n: int) -> list:
    """Positive divisors of n in increasing order."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    found = [1]
    for p, e in _prime_factors(n).items():
        found = [d * p ** i for d in found for i in range(e + 1)]
    return sorted(found)


def euler_phi(n: int) -> int:
    """Euler's totient, by trial-division factorization."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    result = n
    for p in _prime_factors(n):
        result -= result // p
    return result


def is_prime(n: int) -> bool:
    """Primality by trial division; intended for desk-scale inputs."""
    return _prime_factors(n) == {n: 1}


def is_prime_power(n: int) -> bool:
    """True when n = p^m for a prime p and m >= 1."""
    return len(_prime_factors(n)) == 1


def enumerate_partitions(n: int, length: int, allow_zero: bool = False):
    """All nondecreasing length-`length` tuples with parts in 1..n (0..n if allow_zero).

    Yields each multiset exactly once, in lexicographic order, which keeps
    downstream golden files byte-stable.
    """
    if n < 1 or length < 1:
        raise ValueError("bound and length must be positive")
    lo = 0 if allow_zero else 1
    return combinations_with_replacement(range(lo, n + 1), length)


def _capped(labels, cap: int, most: int) -> list:
    """(vector, sum, label sum) for the exponent vectors over `labels` with entries <= cap and sum <= most.

    Built one label at a time, each entry from its largest value down, so the vectors come in descending order.
    leading_keys builds its heads and tails here, and verify._split_family its families over labels 1..n - 1.
    """
    rows = [((), 0, 0)]
    for j in labels:
        rows = [(v + (e,), s + e, t + e * j) for v, s, t in rows for e in range(min(cap, most - s), -1, -1)]
    return rows


def leading_keys(n: int, degree: int):
    """Exponent vectors of sum `degree` over labels 1..n, labels summing to 0 mod n, led by their largest entry.

    Entry j - 1 is the exponent of label j. They come in descending order, which is ascending
    order of their partitions (parts in 1..n, part sum divisible by n). For each leading entry
    a, from `degree` down, a head over labels 2..(n + 1) // 2 is matched to the tails over the
    rest with the sum and label sum mod n it needs. Heads and tails have entries <= a and sum
    <= degree - a, so the tables for one a stay small.
    """
    if n < 1 or degree < 0:
        raise ValueError("need n >= 1 and degree >= 0")
    half = (n + 1) // 2
    for a in range(degree, -(-degree // n) - 1, -1):  # n entries of at most a must reach the degree
        rest = degree - a
        tails = {}
        for v, s, t in _capped(range(half + 1, n + 1), a, rest):
            tails.setdefault((s, t % n), []).append(v)
        for v, s, t in _capped(range(2, half + 1), a, rest):
            tail_keys = tails.get((rest - s, (-a - t) % n))
            if tail_keys:
                head = (a,) + v
                for tail in tail_keys:
                    yield head + tail


def canonical_residues(parts, n: int) -> tuple:
    """Map every part to its representative in 1..n, then sort."""
    return tuple(sorted((p - 1) % n + 1 for p in parts))


def residues_merge_free(parts, n: int) -> bool:
    """Whether no two distinct parts are congruent mod n.

    Exactly then does canonical_residues keep the multiset shape, and so
    the orbit-sum value at the order-n point.
    """
    distinct = set(parts)
    return len({p % n for p in distinct}) == len(distinct)


def invariant_dimension(n: int, m: int) -> int:
    """Degree-m monomial orbit count for the order-n cyclic relabeling action.

    (1/(n+m)) * sum over d | gcd(n, m) of binom((n+m)/d, n/d) * phi(d);
    the division is exact and asserted.
    """
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    total = sum(binomial((n + m) // d, n // d) * euler_phi(d) for d in divisors(gcd(n, m) or n))
    q, r = divmod(total, n + m)
    if r:
        raise AssertionError(f"orbit-count formula did not divide exactly at (n={n}, m={m})")
    return q


def lambda_tilde_size(n: int, k: int) -> int:
    """Number of length-(k n) partitions with parts in 1..n and part sum divisible by n.

    Evaluates (1/n) * sum over d | n of binom(dk + d - 1, d - 1) * phi(n/d)
    and cross-checks it against the orbit-count formula before returning.
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    total = sum(binomial(d * k + d - 1, d - 1) * euler_phi(n // d) for d in divisors(n))
    q, r = divmod(total, n)
    if r:
        raise AssertionError(f"index-set count did not divide exactly at (n={n}, k={k})")
    cross = invariant_dimension(n, k * n)
    if q != cross:
        raise AssertionError(f"count formulas disagree at (n={n}, k={k}): {q} vs {cross}")
    return q


def parse_partition(text: str) -> tuple:
    """Parse comma-separated parts, in any order, into a sorted tuple."""
    items = [s.strip() for s in text.split(",")]
    if not items or any(not s for s in items):
        raise ValueError(f"bad partition text: {text!r}")
    try:
        return tuple(sorted(int(s) for s in items))
    except ValueError:
        raise ValueError(f"bad partition text: {text!r}") from None


def format_partition(parts) -> str:
    """Canonical text form: sorted parts joined by commas."""
    return ",".join(str(p) for p in sorted(parts))
