"""Exact expansion of cyclic-group determinants and their powers.

The determinant of the circulant variable matrix for the cyclic group
{1, ..., n} (n labels the identity element) is expanded three ways: the
signed permutation sum, the product of the n character linear forms
(whose k-fold repetition gives the k-th power), and one walk over that
product pruned to a representative key of each orbit under the affine
relabelings (`orbit_values`), whose values at k = 1 fill every orbit and
are raised to the k-th power by sparse products. Monomials live in
sparse exponent-vector maps with exact integer coefficients.
"""
from __future__ import annotations

from functools import reduce
from math import gcd
from operator import getitem, itemgetter, mul
from typing import NamedTuple

from .cyclotomic import BudgetExceeded, check_budget, walk_values
from .partitions import binomial, enumerate_partitions, is_prime, lambda_tilde_size, leading_keys

LEIBNIZ_LIMIT = 8


def exponent_key(parts, n: int) -> tuple:
    """Exponent vector of the monomial x_(p1) x_(p2) ... for parts in 1..n."""
    key = [0] * n
    for p in parts:
        if not 1 <= p <= n:
            raise ValueError(f"part {p} outside 1..{n}")
        key[p - 1] += 1
    return tuple(key)


def relabeling(n: int, l: int, c: int = 0):
    """The key map of the relabeling x_j -> x_(l*j + c): one operator.itemgetter over an exponent vector."""
    source = [(pow(l, -1, n) * (j + 1 - c) - 1) % n for j in range(n)]  # the index that lands on j
    # itemgetter of one index returns a scalar; at n = 1 the one map is the identity
    return itemgetter(*source) if n > 1 else tuple


def key_partition(key) -> tuple:
    """Sorted partition whose multiplicities are the given exponent vector."""
    out = []
    for i, e in enumerate(key):
        out.extend([i + 1] * e)
    return tuple(out)


class MonomialMap:
    """Sparse homogeneous integer polynomial keyed by exponent vectors.

    key[i] is the exponent of variable x_(i+1); every stored key shares
    the same total degree and no zero coefficient is ever stored.
    Instances should be treated as immutable.
    """

    __slots__ = ("n_vars", "degree", "_terms")

    def __init__(self, n_vars, degree, terms):
        self.n_vars = n_vars
        self.degree = degree
        clean = {}
        for key, coeff in terms.items():
            if coeff == 0:
                continue
            key = tuple(key)
            if len(key) != n_vars or sum(key) != degree or min(key, default=0) < 0:
                raise ValueError(f"exponent vector {key} is not {n_vars} nonnegative entries of sum {degree}")
            clean[key] = coeff
        self._terms = clean

    @classmethod
    def _trusted(cls, n_vars, degree, terms):
        """A map over terms already known to fit n_vars and degree and to hold no zero coefficient."""
        self = object.__new__(cls)
        self.n_vars, self.degree, self._terms = n_vars, degree, terms
        return self

    def __len__(self):
        return len(self._terms)

    def __iter__(self):
        return iter(self._terms)

    def __contains__(self, key):
        return tuple(key) in self._terms

    def items(self):
        return self._terms.items()

    def coefficient(self, key) -> int:
        return self._terms.get(tuple(key), 0)

    def __eq__(self, other):
        if not isinstance(other, MonomialMap):
            return NotImplemented
        return (self.n_vars, self.degree, self._terms) == (other.n_vars, other.degree, other._terms)

    __hash__ = None

    def __mul__(self, other):
        """Product of two maps, with each exponent vector packed into one int.

        A key becomes one field of `b` bits per variable (Kronecker
        substitution), where `b` is the bit length of the product's
        degree. No exponent of the product exceeds that degree, so no
        field carries into the next and a key sum is one int add. Each
        product key is unpacked once, at the end. A map times itself visits
        each unordered pair of terms once: c1*c1 for the diagonal and
        2*c1*c2 for each cross pair.
        """
        if not isinstance(other, MonomialMap):
            return NotImplemented
        if self.n_vars != other.n_vars:
            raise ValueError("variable counts differ")
        degree = self.degree + other.degree
        b = degree.bit_length()
        fields = [b * i for i in range(self.n_vars)]

        def packed(m):
            return [(sum([e << pos for e, pos in zip(key, fields)]), c) for key, c in m._terms.items()]

        left = packed(self)
        out = {}
        get = out.get
        if other is self:
            for i, (k1, c1) in enumerate(left):
                key = k1 + k1
                out[key] = get(key, 0) + c1 * c1
                c1 *= 2
                for k2, c2 in left[i + 1:]:
                    key = k1 + k2
                    out[key] = get(key, 0) + c1 * c2
        else:
            right = packed(other)
            for k1, c1 in left:
                for k2, c2 in right:
                    key = k1 + k2
                    out[key] = get(key, 0) + c1 * c2
        field = (1 << b) - 1
        return MonomialMap._trusted(self.n_vars, degree, {tuple([(key >> pos) & field for pos in fields]): c
                                                          for key, c in out.items() if c})

    def relabel(self, l: int) -> "MonomialMap":
        """Apply the variable relabeling x_v -> x_(l*v mod n), representatives in 1..n."""
        n = self.n_vars
        if gcd(l, n) != 1:
            raise ValueError(f"relabeling factor {l} must be coprime to {n}")
        terms = self._terms
        return MonomialMap._trusted(n, self.degree, dict(zip(map(relabeling(n, l), terms), terms.values())))

    def iter_records(self):
        """(partition text, coefficient) pairs sorted by partition for stable export, one at a time.

        Every key has the same total, so descending order of exponent
        vectors is ascending lexicographic order of their partitions. Keys
        are distinct, so sorting them alone gives the order of the pairs.
        Only the sorted keys are held; each text is built when it is reached.
        """
        runs = [[f"{i + 1}," * e for e in range(self.degree + 1)] for i in range(self.n_vars)]
        terms = self._terms
        return (("".join(map(getitem, runs, key))[:-1], terms[key]) for key in sorted(terms, reverse=True))

    def to_records(self):
        """The list of iter_records()."""
        return list(self.iter_records())

    def __repr__(self):
        return f"MonomialMap(n_vars={self.n_vars}, degree={self.degree}, terms={len(self._terms)})"


def leibniz_determinant(n: int) -> MonomialMap:
    """Signed permutation-sum expansion of the circulant determinant.

    Matrix entry (i, s) is the variable indexed by the representative of
    i - s mod n in 1..n. Terms are grouped by the set of columns the first
    rows have taken (Laplace expansion along the rows): row i taking column
    s after u greater columns adds u inversions. Keys are packed one field
    per variable, like terms combined and zeros dropped. 2^n sets, guarded.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n > LEIBNIZ_LIMIT:
        raise BudgetExceeded(f"permutation-sum expansion is limited to n <= {LEIBNIZ_LIMIT}")
    b = n.bit_length()  # no exponent exceeds n
    level = {0: {0: 1}}  # used-column bitmask (column s is bit s - 1) -> {packed key: coeff}
    for i in range(1, n + 1):
        nxt = {}
        for used, terms in level.items():
            for s in range(1, n + 1):
                bit = 1 << (s - 1)
                if used & bit:
                    continue
                sign = -1 if (used >> s).bit_count() % 2 else 1
                step = 1 << (b * ((i - s - 1) % n))
                group = nxt.setdefault(used | bit, {})
                for key, c in terms.items():
                    group[key + step] = group.get(key + step, 0) + sign * c
        level = nxt
    field = (1 << b) - 1
    return MonomialMap(n, n, {tuple([(key >> (b * j)) & field for j in range(n)]): c
                              for key, c in level[(1 << n) - 1].items()})


_expansions: dict = {}


def dedekind_expand(n: int, k: int, budget: int | None = None) -> MonomialMap:
    """Multiply out the k-fold product of the n character linear forms.

    Form i is sum_j zeta_n^(i*j) x_j; the product runs over i = 1..n,
    repeated k times. That is one walk_values call over the labels 1..n
    (row pos is form pos mod n) with every exponent vector of degree kn as
    a target: they fill the box below (kn, ..., kn), so no cap binds and
    each coefficient is read out to an integer exactly once, which raises
    IntegralityViolation if anything non-integral survives. The walk holds
    binom(kn + n, n) count vectors over its rows, checked against the
    budget before the cache is read. Completed expansions are cached per
    (n, k). This literal product is the reference that the tests compare
    orbit_expand against.
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    check_budget(binomial(k * n + n, n), budget)
    cached = _expansions.get((n, k))
    if cached is not None:
        return cached
    keys = [exponent_key(p, n) for p in enumerate_partitions(n, k * n)]
    result = MonomialMap(n, k * n, walk_values(range(1, n + 1), keys, n, budget))
    _expansions[(n, k)] = result
    return result


def relabelings(n: int, k: int = 1) -> list:
    """(key map, sign (-1)^(c(n-1)k)) of each relabeling x_j -> x_(l*j + c), gcd(l, n) = 1, once.

    Scaling by l conjugates the circulant by a permutation matrix; shifting by c multiplies it by a cyclic shift.
    """
    return [(relabeling(n, l, c), -1 if c * (n - 1) * k % 2 else 1)
            for l in range(1, n + 1) if gcd(l, n) == 1 for c in range(n)]


def orbit_values(n: int, k: int, budget: int | None = None) -> dict:
    """{representative: coefficient} of the k-th determinant power, one key per orbit of the relabelings.

    By Theorem 3.2 each coefficient is the orbit-sum value of its key, and the relabelings
    permute the keys with the signs `relabelings` gives. The first key of an orbit in
    lexicographic order (its largest exponent vector) represents it; a shift moves any entry to
    label 1, so that key leads with its largest entry, and the collect streams only
    leading_keys(n, kn) (1,290 of the 9,252 admissible keys at (10, 1)). Its seen set must
    cover the lambda_tilde_size(n, k) admissible keys, checked against the budget first, and is
    released before the walk. One walk_values call over the labels (its rows are the
    determinant's linear forms, form n as row 0) reads every representative once. Every label
    sum is divisible by n, so it stops one row short (Lemma 2.4) and holds the parents'
    down-set, 4,344 count vectors at (10, 1) against 10,422 below the keys, budget-checked.
    """
    tilde = lambda_tilde_size(n, k)  # a ValueError unless n and k are positive
    check_budget(tilde, budget)
    maps = [image for image, _ in relabelings(n)]
    seen = set()
    reps = []
    for key in leading_keys(n, k * n):
        if key not in seen:
            reps.append(key)
            seen.update([image(key) for image in maps])
    if len(seen) != tilde:
        raise AssertionError(f"orbits cover {len(seen)} keys, the index-set size is {tilde}; arithmetic is broken")
    del seen
    return walk_values(range(1, n + 1), reps, n, budget)


def orbit_expand(n: int, k: int, budget: int | None = None) -> MonomialMap:
    """The same k-th determinant power as dedekind_expand: each nonzero value of orbit_values(n, 1)
    written with its sign to its orbit, then k - 1 sparse products. No map holds more than the
    lambda_tilde_size(n, k) admissible keys, checked against the budget first. Nothing is memoized.
    """
    check_budget(lambda_tilde_size(n, k), budget)  # a ValueError unless n and k are positive
    maps = relabelings(n)
    det = {}
    for rep, value in orbit_values(n, 1, budget).items():
        if value:
            for image, sign in maps:
                det[image(rep)] = sign * value
    return reduce(mul, [MonomialMap._trusted(n, n, det)] * k)


class TermCount(NamedTuple):
    nu: int
    lambda_tilde: int
    equal: bool


def count_terms(n: int, k: int, budget: int | None = None) -> TermCount:
    """Surviving-term count of the k-fold expansion against the index-set size."""
    nu = len(orbit_expand(n, k, budget))
    upper = lambda_tilde_size(n, k)
    if nu > upper:
        raise AssertionError(f"term count {nu} exceeds the index-set size {upper}; arithmetic is broken")
    return TermCount(nu, upper, nu == upper)


def prime_term_count(p: int) -> int:
    """Term count at an odd or even prime: (p - 1 + binom(2p-1, p-1)) / p, exactly."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    total = p - 1 + binomial(2 * p - 1, p - 1)
    q, r = divmod(total, p)
    if r:
        raise AssertionError(f"prime term-count formula did not divide exactly at p={p}")
    return q
