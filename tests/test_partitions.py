import random

import pytest

from msproots.groupdet import exponent_key
from msproots.partitions import (
    binomial,
    canonical_residues,
    divisors,
    enumerate_partitions,
    euler_phi,
    format_partition,
    gcd,
    invariant_dimension,
    is_prime,
    is_prime_power,
    lambda_tilde_size,
    leading_keys,
    parse_partition,
)


def test_enumeration_examples():
    got = list(enumerate_partitions(3, 3))
    assert len(got) == 10 == binomial(5, 2)
    assert got[0] == (1, 1, 1) and got[-1] == (3, 3, 3)
    assert list(enumerate_partitions(2, 2)) == [(1, 1), (1, 2), (2, 2)]
    divisible = [lam for lam in enumerate_partitions(3, 3) if sum(lam) % 3 == 0]
    assert divisible == [(1, 1, 1), (1, 2, 3), (2, 2, 2), (3, 3, 3)]


def test_enumeration_counts_and_order():
    for n in range(1, 7):
        for length in range(1, 13):
            items = list(enumerate_partitions(n, length))
            assert len(items) == binomial(length + n - 1, n - 1)
            assert items == sorted(items)
            assert all(lam == tuple(sorted(lam)) for lam in items)
            padded = list(enumerate_partitions(n, length, allow_zero=True))
            assert len(padded) == binomial(length + n, n)


def test_enumeration_rejects_bad_input():
    with pytest.raises(ValueError):
        enumerate_partitions(0, 3)
    with pytest.raises(ValueError):
        enumerate_partitions(3, 0)


def admissible_keys(n, d):
    """The exponent vectors of the partitions of d parts in 1..n with part sum divisible by n."""
    return [exponent_key(lam, n) for lam in enumerate_partitions(n, d) if sum(lam) % n == 0]


def test_leading_keys_are_the_admissible_keys_led_by_their_largest_entry():
    """Same keys in the same order as the filtered admissible stream, up to 120,000 admissible keys."""
    for n in range(1, 13):
        assert list(leading_keys(n, 0)) == [(0,) * n]
        for degree in (n, 2 * n, 3 * n):
            if lambda_tilde_size(n, degree // n) > 120_000:
                continue
            want = [key for key in admissible_keys(n, degree) if key[0] == max(key)]
            assert list(leading_keys(n, degree)) == want, (n, degree)
    for n, degree in [(0, 3), (-1, 0), (3, -1)]:
        with pytest.raises(ValueError):
            next(leading_keys(n, degree))


def test_leading_keys_meet_each_orbit_at_its_first_admissible_key():
    """Under the relabelings x_j -> x_(l*j + c), the first leading key of an orbit is its first admissible key."""
    from msproots.groupdet import relabeling

    def first_keys(keys, n):
        maps = [relabeling(n, l, c) for l in range(1, n + 1) if gcd(l, n) == 1 for c in range(n)]
        seen, firsts = set(), []
        for key in keys:
            if key not in seen:
                firsts.append(key)
                seen.update(image(key) for image in maps)
        return firsts

    orbits = {}
    for n in range(1, 13):
        reps = first_keys(admissible_keys(n, n), n)
        assert first_keys(leading_keys(n, n), n) == reps, n
        orbits[n] = len(reps)
    assert (orbits[10], orbits[12]) == (268, 2806)  # as Burnside's lemma counts them


def test_canonical_residues_examples():
    assert canonical_residues((-1, 0, 7), 3) == (1, 2, 3)
    assert canonical_residues((5, 5), 2) == (1, 1)
    for n in (1, 2, 5):
        lam = (n,) * (2 * n)
        assert canonical_residues(lam, n) == lam


def test_canonical_residues_idempotent_and_sum_preserving():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randrange(1, 8)
        lam = tuple(rng.randrange(-20, 21) for _ in range(rng.randrange(1, 9)))
        canon = canonical_residues(lam, n)
        assert canonical_residues(canon, n) == canon
        assert sum(canon) % n == sum(lam) % n
        assert all(1 <= p <= n for p in canon)


def test_lambda_tilde_size_examples():
    assert lambda_tilde_size(3, 1) == 4
    assert lambda_tilde_size(2, 1) == 2
    assert lambda_tilde_size(6, 1) == 80


def test_lambda_tilde_size_matches_brute_force():
    for n in range(1, 9):
        for k in (1, 2):
            brute = sum(1 for lam in enumerate_partitions(n, k * n) if sum(lam) % n == 0)
            assert lambda_tilde_size(n, k) == brute, (n, k)


def test_invariant_dimension_cross_values():
    assert invariant_dimension(3, 3) == 4
    assert invariant_dimension(2, 2) == 2
    assert invariant_dimension(4, 0) == 1


def test_number_theory_helpers():
    assert euler_phi(6) == 2
    assert euler_phi(1) == 1
    assert gcd(4, 6) == 2
    assert binomial(5, 2) == 10
    assert binomial(3, -1) == 0
    assert binomial(3, 5) == 0
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert [p for p in range(2, 20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert [m for m in range(1, 20) if is_prime_power(m)] == [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19]


def test_number_theory_helpers_match_sympy():
    """The helpers share one trial division; sympy factors independently, small and nonpositive n included."""
    sympy = pytest.importorskip("sympy")
    for n in range(-3, 1200):
        assert is_prime(n) == sympy.isprime(n), n
        assert is_prime_power(n) == (n > 1 and len(sympy.factorint(n)) == 1), n
        if n >= 1:
            assert euler_phi(n) == sympy.totient(n), n
            assert divisors(n) == sympy.divisors(n), n
    for n in (0, -4):
        for helper in (euler_phi, divisors):
            with pytest.raises(ValueError):
                helper(n)


def test_partition_text_round_trip():
    assert parse_partition("3, 1,2") == (1, 2, 3)
    assert parse_partition("-1,0,7") == (-1, 0, 7)
    assert format_partition((2, 1, 3)) == "1,2,3"
    with pytest.raises(ValueError):
        parse_partition("1,,2")
    with pytest.raises(ValueError):
        parse_partition("a,b")
