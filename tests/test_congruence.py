"""The determinant power modulo each prime p dividing n, as an oracle for orbit_expand.

Write n = q * m with q the p-part of n. Modulo p the group determinant of
the cyclic group of order n is that of order m at the class sums, each
raised to the q-th power (Frobenius):

    Theta_n(x)^k = Theta_m(z)^k mod p,   z_r = sum of x_j^q over j = r mod m,

with label m standing for class 0. So every coefficient of orbit_expand(n, k)
is predicted mod p from orbit_expand(m, k), a map over far fewer keys, which
is itself compared with the permutation sum. A key of Theta_n^k whose
exponents are q times a vector `spread` takes the Theta_m^k coefficient of
the class totals of `spread`, times the multinomial ways of spreading each
class total over that class's labels; any other key is predicted 0.
"""
from functools import reduce
from math import factorial, prod
from operator import mul

import pytest

from msproots.groupdet import MonomialMap, exponent_key, leibniz_determinant, orbit_expand
from msproots.partitions import _prime_factors, enumerate_partitions, lambda_tilde_size

SIZES = [(4, 1), (6, 1), (8, 1), (9, 1), (10, 1), (6, 2), (8, 2), (4, 3)]


def admissible_keys(n, d):
    """The exponent vectors of the partitions of d parts in 1..n with part sum divisible by n."""
    return [exponent_key(lam, n) for lam in enumerate_partitions(n, d) if sum(lam) % n == 0]


def predicted(key, small, q, m):
    """The coefficient at `key` of Theta_m(z)^k, z_r the class sums of q-th powers, as an integer."""
    if any(e % q for e in key):
        return 0
    spread = [e // q for e in key]
    totals = [sum(spread[r::m]) for r in range(m)]  # index j is label j + 1, in the class of label j % m + 1
    return small.coefficient(totals) * prod(map(factorial, totals)) // prod(map(factorial, spread))


def mismatches(expansion, n, k):
    """(p, key) for each admissible key of Theta_n^k whose coefficient is not the prediction mod p."""
    checked = set()
    out = []
    for p, e in _prime_factors(n).items():
        q = p ** e
        m = n // q
        small = orbit_expand(m, k)
        # the permutation sum shares neither the walk nor the sign law, so both sides cannot err alike
        assert small == reduce(mul, [leibniz_determinant(m)] * k), (m, k)
        hits = 0
        for key in admissible_keys(n, k * n):
            checked.add(key)
            want = predicted(key, small, q, m)
            hits += want % p != 0
            if (expansion.coefficient(key) - want) % p:
                out.append((p, key))
        assert hits, (n, k, p)  # some coefficient is predicted nonzero mod p
    assert len(checked) == lambda_tilde_size(n, k)
    assert set(expansion) <= checked  # so every stored key was compared
    return out


@pytest.mark.parametrize("n,k", SIZES)
def test_orbit_expand_matches_the_congruence_at_every_prime_of_n(n, k):
    assert mismatches(orbit_expand(n, k), n, k) == []


@pytest.mark.parametrize("present", [True, False])
def test_one_coefficient_raised_by_one_is_caught(present):
    n, k = 6, 1
    expansion = orbit_expand(n, k)
    terms = dict(expansion.items())
    key = next(key for key in admissible_keys(n, k * n) if (key in terms) == present)
    terms[key] = terms.get(key, 0) + 1
    assert mismatches(MonomialMap(n, k * n, terms), n, k) == [(2, key), (3, key)]
