"""Evaluation of monomial symmetric polynomials at the root-of-unity point.

For parameters (n, k) the evaluation point is the kn-tuple whose j-th
entry is zeta_n^(j-1), i.e. k copies of every n-th root of unity. The
value of the orbit sum m_lambda there is always a plain integer, and
three independent routes compute it: a direct walk over the distinct
rearrangements of lambda (the reference oracle), a dynamic program over
part multiplicities, and closed forms for special part shapes.

Parts may be arbitrary integers; the value depends only on the multiset
of parts. Note that replacing parts by their residues mod n preserves
the value only when no two distinct parts are congruent (merging values
changes the orbit size), so the closed forms canonicalize internally
only when no two distinct parts are congruent, and the other evaluators
never do.
"""
from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import NamedTuple

from .cyclotomic import BudgetExceeded, CyclotomicInt, walk_values
from .partitions import binomial, canonical_residues, is_prime, residues_merge_free

NAIVE_LENGTH_LIMIT = 9


class EvalInstance(NamedTuple("EvalInstance", [("parts", tuple), ("n", int), ("k", int)])):
    """A partition together with its evaluation parameters (n, k).

    The part tuple must have exactly k*n entries; it is stored sorted.
    The standard index family uses parts in 0..n, but any integers are
    accepted. An instance is a tuple (parts, n, k).
    """
    __slots__ = ()

    def __new__(cls, parts, n: int, k: int):
        if n < 1 or k < 1:
            raise ValueError("n and k must be positive")
        parts = tuple(sorted(parts))
        if len(parts) != k * n:
            raise ValueError(f"expected {k * n} parts for (n={n}, k={k}), got {len(parts)}")
        return super().__new__(cls, parts, n, k)


def msp_value_naive(inst: EvalInstance) -> int:
    """Reference evaluator: sum over all distinct rearrangements of the parts.

    Walks the tree of multiset permutations directly, visiting each
    distinct rearrangement once, and counts the words per zeta exponent
    mod n. Unplaced parts travel down as (value, copies) pairs; once one
    value v is left the branch is forced and closes in one step, and two
    or three values left for the last three positions close as one leaf
    per distinct order. When n divides the part sum, rotations keep the
    residue (Lemma 2.4's cyclic shift): only the words that start with one
    value are walked, and the counts are scaled back exactly. Exponential
    cost; guarded to short lengths.
    """
    n = inst.n
    length = len(inst.parts)
    if length > NAIVE_LENGTH_LIMIT:
        raise BudgetExceeded(f"naive evaluation is limited to {NAIVE_LENGTH_LIMIT} parts, got {length}")
    counts = [0] * n
    tail = [(pos + length - 1) * (length - pos) // 2 for pos in range(length)]  # pos + ... + length-1
    last = length - 3

    def walk(pos, exp, left):
        if len(left) == 1:
            counts[(exp + left[0][0] * tail[pos]) % n] += 1
            return
        if pos == last:  # an order (a, b, c) of the last three adds (a + b + c) * pos + b + 2c
            exp += pos * sum([v * copies for v, copies in left])
            if len(left) == 3:
                (a, _), (b, _), (c, _) = left
                offsets = (b + 2 * c, c + 2 * b, a + 2 * c, c + 2 * a, a + 2 * b, b + 2 * a)
            else:  # a twice and c once: the orders (a, a, c), (a, c, a) and (c, a, a)
                (a, _), (c, _) = left if left[0][1] == 2 else left[::-1]
                offsets = (a + 2 * c, c + 2 * a, 3 * a)
            for offset in offsets:
                counts[(exp + offset) % n] += 1
            return
        for idx, (v, copies) in enumerate(left):
            rest = left[:idx] + ((v, copies - 1),) + left[idx + 1:] if copies > 1 else left[:idx] + left[idx + 1:]
            walk(pos + 1, exp + v * pos, rest)

    left = tuple([(v, inst.parts.count(v)) for v in sorted(set(inst.parts))])
    if length == 1 or sum(inst.parts) % n:
        walk(0, 0, left)
        return CyclotomicInt(n, counts).to_integer()
    # A rotation by one place changes the exponent by length * w_0 - sum, which n divides. Rotating
    # each copy of v to the front maps the words length-to-copies onto those that start with v, so
    # each residue count is length / copies times theirs; the v with fewest copies has fewest words.
    idx = min(range(len(left)), key=lambda i: left[i][1])
    v, copies = left[idx]
    walk(1, 0, left[:idx] + ((v, copies - 1),) + left[idx + 1:] if copies > 1 else left[:idx] + left[idx + 1:])
    return CyclotomicInt(n, _unrotate(counts, length, copies)).to_integer()


def _unrotate(first, length, copies) -> list:
    """Residue counts of all words from those of the words that start with a value of `copies` copies."""
    counts = [divmod(c * length, copies) for c in first]
    if any(r for _, r in counts):
        raise AssertionError(f"counts {first} times {length} positions do not divide by {copies} copies")
    return [q for q, _ in counts]


def msp_value_dp(inst: EvalInstance, budget: int | None = None) -> int:
    """Dynamic program over placed part multiplicities.

    Positions 1..kn are filled in order; a state records how many copies
    of each distinct part are already placed, and carries the summed
    zeta-power weight of every way of reaching it. Assigning part v to
    position j multiplies a path weight by zeta^(v*(j-1)). Each distinct
    rearrangement is counted exactly once because equal parts are only
    interchangeable through their shared counter. When n divides the part
    sum, the walk stops one position short (Lemma 2.4's cyclic shift, in
    walk_values) with one copy of the part of fewest copies left out. The
    walk holds the product of (multiplicity + 1) over distinct parts, so
    lowered, as states, and raises BudgetExceeded before its first row
    when that passes the budget (None: the default). Values are memoized per (parts,
    multiplicities, n, budget), so a memo hit never skips the guard.
    """
    columns = tuple(sorted(set(inst.parts)))
    return _dp_value(columns, tuple(map(inst.parts.count, columns)), inst.n, budget)


def msp_values_dp(partitions, n: int, k: int, budget: int | None = None) -> dict:
    """msp_value_dp at (n, k) of each partition, from one shift-add walk.

    Each partition is a tuple of k*n parts. They share their rows, (v*pos)
    mod n for each part v, so one walk whose columns are the union of their
    distinct parts reaches every one of them: each distinct multiplicity
    vector over those columns is a target of the walk and is read out once.
    The walk's DP states are the count vectors below some target (its
    down-set, which holds every partition's own states), and it raises
    BudgetExceeded before its first row once they pass the budget. Values
    are keyed by the tuples as given, repeats merged. The DP memo is
    neither read nor filled.
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    values = dict.fromkeys(partitions)
    columns = sorted(set().union(*values))
    for parts in values:  # each slot holds its multiplicity vector until the walk
        if len(parts) != k * n:
            raise ValueError(f"expected {k * n} parts for (n={n}, k={k}), got {len(parts)}")
        values[parts] = tuple(map(parts.count, columns))
    walked = walk_values(columns, list(values.values()), n, budget)
    for parts, vec in values.items():
        values[parts] = walked[vec]
    return values


@lru_cache(maxsize=None)
def _dp_value(values, mults, n, budget):
    return walk_values(values, [mults], n, budget)[mults]


def closed_form_two_blocks(lambda1: int, a: int, n: int, k: int) -> int:
    """Value for the partition made of `a` copies of lambda1 and kn - a copies of n.

    With d = gcd(lambda1, n): zero unless (n/d) | a (equivalently, unless
    the part sum is divisible by n); otherwise
    (-1)^(a + a*d/n) * binom(k*d, a*d/n), which is nonzero.
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    if not 0 <= a <= k * n:
        raise ValueError(f"block size a={a} must lie in 0..{k * n}")
    if lambda1 % n == 0:
        raise ValueError(f"lambda1={lambda1} must not be divisible by n={n}")
    d = gcd(lambda1, n)
    step = n // d
    if a % step:
        return 0
    t = a // step
    return (-1) ** ((a + t) % 2) * binomial(k * d, t)


def reduce_two_distinct(lambda1: int, lambda2: int, a: int, n: int, k: int):
    """Sign and reduced instance for `a` copies of lambda1 plus kn - a copies of lambda2.

    The reduced partition has kn - a copies of lambda2 - lambda1 and a
    copies of n, in canonical residues: its two blocks are written
    directly, already sorted. The contract
    value(original) == sign * value(reduced) is checked by the verify
    suites, not assumed here.
    """
    if (lambda2 - lambda1) % n == 0:
        raise ValueError(f"lambda2 - lambda1 = {lambda2 - lambda1} must not be divisible by n={n}")
    if not 0 <= a <= k * n:
        raise ValueError(f"block size a={a} must lie in 0..{k * n}")
    sign = -1 if (k * (n + 1) * lambda1) % 2 else 1
    reduced = ((lambda2 - lambda1 - 1) % n + 1,) * (k * n - a) + (n,) * a
    return sign, EvalInstance(reduced, n, k)


def mansfield_coefficient(inst: EvalInstance) -> int | None:
    """Closed form for partitions that are all n's except two or three parts.

    Matches the canonical residue form against four shapes; each base
    value scales with k (the k = 1 base values are -n/2, -n, n/3, n and
    2n per shape, and the congruence conditions make every division
    exact and every matched value nonzero). Returns None when no shape
    applies, or when two distinct parts are congruent mod n.
    """
    n, k = inst.n, inst.k
    if not residues_merge_free(inst.parts, n):
        return None
    canon = canonical_residues(inst.parts, n)
    low = [p for p in canon if p != n]
    if len(low) == 2:
        u, v = low
        if (u + v) % n:
            return None
        if u == v:
            return -(k * n) // 2  # n | 2u with n not dividing u forces n even
        return -(k * n)
    if len(low) == 3:
        u, v, w = low
        if u == v == w:
            if (3 * u) % n:
                return None
            return (k * n) // 3  # 3 | n is forced
        if u == v or v == w:
            rep, single = (u, w) if u == v else (w, u)
            if (2 * rep + single) % n:
                return None
            return k * n
        if (u + v + w) % n:
            return None
        return 2 * k * n
    return None


def prime_nonvanishing(parts, p: int) -> bool:
    """Whether the length-p partition has part sum divisible by the prime p.

    For k = 1 at a prime this is exactly the nonvanishing criterion; the
    equivalence with a nonzero evaluator value is machine-checked in the
    verify module.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    parts = tuple(parts)
    if len(parts) != p:
        raise ValueError(f"expected {p} parts, got {len(parts)}")
    return sum(parts) % p == 0


def scale_partition(parts, l: int, n: int) -> tuple:
    """Multiply every part by l (coprime to n) and canonicalize to residues 1..n."""
    if gcd(l, n) != 1:
        raise ValueError(f"scaling factor {l} must be coprime to n={n}")
    return canonical_residues([l * p for p in parts], n)


def closed_form_value(inst: EvalInstance):
    """Try the closed forms in turn; returns (value, form_name) or None.

    The shape matchers overlap on some partitions (e.g. a doubled part
    with the rest n's); their values agree there, so the order is
    immaterial. The forms are stated for canonical residues, so None is
    returned when two distinct parts are congruent mod n.
    """
    if not residues_merge_free(inst.parts, inst.n):
        return None
    v = mansfield_coefficient(inst)
    if v is not None:
        return v, "pattern"
    canon = canonical_residues(inst.parts, inst.n)
    low = sorted({p for p in canon if p != inst.n})
    if not low:
        return 1, "two-block"  # every point value raised to the n-th power is 1
    if len(low) == 1:
        a = sum(1 for p in canon if p != inst.n)
        return closed_form_two_blocks(low[0], a, inst.n, inst.k), "two-block"
    return None
