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

import struct
from functools import lru_cache, reduce
from itertools import repeat
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


@lru_cache(maxsize=None)
def _layout(n: int, degree: int) -> struct.Struct:
    """Key as one int: big-endian unsigned fields of 1, 2, 4 or 8 bytes (fewest that hold the degree), label 1 first."""
    return struct.Struct(f">{n}{next(c for c in 'BHIQ' if degree < 256 ** struct.calcsize('>' + c))}")


def _pack(layout, key) -> int:
    return int.from_bytes(layout.pack(*key), "big")  # struct.error unless n entries that fit their fields


def _unpacked(layout, packed):
    return map(layout.unpack, map(int.to_bytes, packed, repeat(layout.size), repeat("big")))


class MonomialMap:
    """Sparse homogeneous integer polynomial keyed by exponent vectors.

    key[i] is the exponent of variable x_(i+1); every stored key shares
    the same total degree and no zero coefficient is ever stored. Keys are
    taken and given as tuples and held as ints in `_layout(n_vars, degree)`.
    Instances should be treated as immutable.
    """

    __slots__ = ("n_vars", "degree", "_layout", "_terms")

    def __init__(self, n_vars, degree, terms):
        layout = _layout(n_vars, degree)
        clean = {}
        for key, coeff in terms.items():
            if coeff == 0:
                continue
            key = tuple(key)
            if len(key) != n_vars or sum(key) != degree or min(key, default=0) < 0:
                raise ValueError(f"exponent vector {key} is not {n_vars} nonnegative entries of sum {degree}")
            clean[_pack(layout, key)] = coeff
        self.n_vars, self.degree, self._layout, self._terms = n_vars, degree, layout, clean

    @classmethod
    def _trusted(cls, n_vars, degree, terms):
        """A map over packed keys already known to be in the layout of n_vars and degree, with no zero coefficient."""
        self = object.__new__(cls)
        self.n_vars, self.degree, self._layout, self._terms = n_vars, degree, _layout(n_vars, degree), terms
        return self

    def __len__(self):
        return len(self._terms)

    def __iter__(self):
        return _unpacked(self._layout, self._terms)

    def __contains__(self, key):
        return self.coefficient(key) != 0  # no zero coefficient is stored

    def items(self):
        return zip(self, self._terms.values())

    def coefficient(self, key) -> int:
        try:
            return self._terms.get(int.from_bytes(self._layout.pack(*key), "big"), 0)
        except struct.error:  # the wrong length, or an entry outside its field: no stored key equals it
            return 0

    def __eq__(self, other):
        if not isinstance(other, MonomialMap):
            return NotImplemented
        return (self.n_vars, self.degree, self._terms) == (other.n_vars, other.degree, other._terms)

    __hash__ = None

    def __mul__(self, other):
        """Product of two maps: in the product's layout, whose fields hold its degree, no field carries, so
        a key sum is one int add (Kronecker substitution), and no product key is unpacked. A map times
        itself visits each unordered pair of terms once: c1*c1 for the diagonal, 2*c1*c2 for a cross pair.
        """
        if not isinstance(other, MonomialMap):
            return NotImplemented
        if self.n_vars != other.n_vars:
            raise ValueError("variable counts differ")
        degree = self.degree + other.degree
        layout = _layout(self.n_vars, degree)

        def packed(m):  # m's (key, coefficient) pairs, repacked only if its field width is not the product's
            keys = m._terms if m._layout.size == layout.size else map(_pack, repeat(layout), m)
            return list(zip(keys, m._terms.values()))

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
        return MonomialMap._trusted(self.n_vars, degree, {key: c for key, c in out.items() if c})

    def relabel(self, l: int) -> "MonomialMap":
        """Apply the variable relabeling x_v -> x_(l*v mod n), representatives in 1..n, to the keys laid end to end."""
        n = self.n_vars
        if gcd(l, n) != 1:
            raise ValueError(f"relabeling factor {l} must be coprime to {n}")
        terms, size = self._terms, self._layout.size
        words = struct.Struct(f">{len(terms)}Q") if size <= 8 else None  # then one call packs every key
        keys = words.pack(*terms) if words else b"".join(map(int.to_bytes, terms, repeat(size), repeat("big")))
        moved, pad, width = bytearray(len(keys)), max(size, 8) - size, size // n if n else 0
        for j, source in enumerate(f * width + b for f in relabeling(n, l)(range(n)) for b in range(width)):
            moved[pad + j::pad + size] = keys[pad + source::pad + size]  # image byte j is key byte `source`
        images = words.unpack(moved) if words else map(
            int.from_bytes, map(itemgetter(0), struct.iter_unpack(f"{size}s", moved)), repeat("big"))
        return MonomialMap._trusted(n, self.degree, dict(zip(images, terms.values())))

    def iter_records(self):
        """(partition text, coefficient) pairs sorted by partition for stable export, one at a time.

        Every key has the same total, so descending order of their ints is
        ascending lexicographic order of their partitions. Only the sorted
        ints are held; each key is unpacked and its text built when reached.
        """
        runs = [[f"{i + 1}," * e for e in range(self.degree + 1)] for i in range(self.n_vars)]
        terms, ints = self._terms, sorted(self._terms, reverse=True)
        return (("".join(map(getitem, runs, t))[:-1], terms[x]) for x, t in zip(ints, _unpacked(self._layout, ints)))

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
    s after u greater columns adds u inversions. Keys are built in the map's
    packed layout, like terms combined and zeros dropped. 2^n sets, guarded.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n > LEIBNIZ_LIMIT:
        raise BudgetExceeded(f"permutation-sum expansion is limited to n <= {LEIBNIZ_LIMIT}")
    b = 8 * _layout(n, n).size // n  # bits per field; label j + 1 is the field b * (n - 1 - j) bits up
    level = {0: {0: 1}}  # used-column bitmask (column s is bit s - 1) -> {packed key: coeff}
    for i in range(1, n + 1):
        nxt = {}
        for used, terms in level.items():
            for s in range(1, n + 1):
                bit = 1 << (s - 1)
                if used & bit:
                    continue
                sign = -1 if (used >> s).bit_count() % 2 else 1
                step = 1 << (b * (n - 1 - (i - s - 1) % n))
                group = nxt.setdefault(used | bit, {})
                for key, c in terms.items():
                    group[key + step] = group.get(key + step, 0) + sign * c
        level = nxt
    return MonomialMap._trusted(n, n, {key: c for key, c in level[(1 << n) - 1].items() if c})


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


def _packed_images(n: int, degree: int):
    """key -> its packed images under relabelings(n), in order: each scaling's image packed once and rotated."""
    layout, bits = _layout(n, degree), 8 * _layout(n, degree).size
    twice, full, shifts = (1 << bits) + 1, (1 << bits) - 1, range(0, bits, bits // n)
    scalings = [relabeling(n, l) for l in range(1, n + 1) if gcd(l, n) == 1]
    return lambda key: [(x >> c) & full for x in [_pack(layout, f(key)) * twice for f in scalings] for c in shifts]


def orbit_values(n: int, k: int, budget: int | None = None) -> dict:
    """{representative: coefficient} of the k-th determinant power, one key per orbit of the relabelings.

    By Theorem 3.2 each coefficient is the orbit-sum value of its key, and the relabelings permute the
    keys with the signs `relabelings` gives. An orbit's largest key represents it; a shift moves any
    entry to label 1, so that key leads with its largest entry, and the collect streams only
    leading_keys(n, kn) (1,290 of the 9,252 admissible keys at (10, 1)). Its set of the packed images
    seen must cover the lambda_tilde_size(n, k) admissible keys, checked against the budget first, and
    is released before the walk. One walk_values call over the labels (its rows are the determinant's
    linear forms, form n as row 0) reads every representative once. Every label sum is divisible by n,
    so it stops one row short (Lemma 2.4): a down-set of 4,344 count vectors at (10, 1), not 10,422.
    """
    tilde = lambda_tilde_size(n, k)  # a ValueError unless n and k are positive
    check_budget(tilde, budget)
    layout, images = _layout(n, k * n), _packed_images(n, k * n)
    seen, reps = set(), []  # packed keys, representative tuples
    for key in leading_keys(n, k * n):
        if _pack(layout, key) not in seen:
            reps.append(key)
            seen.update(images(key))
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
    images, signs = _packed_images(n, n), [sign for _, sign in relabelings(n)]
    det = {}
    for rep, value in orbit_values(n, 1, budget).items():
        if value:
            det.update(zip(images(rep), [sign * value for sign in signs]))
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
