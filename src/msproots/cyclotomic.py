"""Exact readout of cyclotomic integers, and the one walk that builds them.

Values are elements of Z[zeta_n] for a fixed order n, held as length-n
integer coefficient vectors in the working quotient Z[x]/(x^n - 1), where
a product with a root power is a rotation and a sum is a vector add.
`walk_values` is the one walk (rows are character linear forms) and reads
each value out once with `read_packed`, through the cofactor
(x^n - 1) / Phi_n, without unpacking the packed weight. `CyclotomicInt`
reduces an unpacked vector to the canonical basis {1, zeta, ...,
zeta^(phi(n)-1)}, for the oracles that do not walk. Both readouts give
exact integers and raise on anything else.

All integers are arbitrary precision throughout; there is no rounding
path anywhere in this module.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from math import factorial
from operator import countOf, lshift, mul

from .partitions import divisors


class IntegralityViolation(ArithmeticError):
    """A value that was required to be a rational integer is not one."""


class BudgetExceeded(RuntimeError):
    """A computation would exceed its configured size guard."""


DEFAULT_BUDGET = 10_000_000  # the most count vectors or map keys one computation may hold


def check_budget(size: int, budget: int | None) -> None:
    """Raise BudgetExceeded when holding `size` count vectors or map keys passes the budget.

    This is the one size guard: every computation calls it before it
    allocates. A budget of None is DEFAULT_BUDGET.
    """
    if budget is None:
        budget = DEFAULT_BUDGET
    if size > budget:
        raise BudgetExceeded(f"{size} count vectors or map keys exceed the budget of {budget}; "
                             "pass a larger budget to override")


def _divmod_monic(num, den):
    """Quotient and remainder of num by the monic den, exactly over the integers.

    Both are coefficient tuples where index i holds x^i, and den ends in 1.
    The remainder always has len(den) - 1 entries.
    """
    db = len(den) - 1
    low = [(j, b) for j, b in enumerate(den[:db]) if b]
    rem = list(num) + [0] * (db - len(num))
    quot = [0] * (len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if c:
            quot[i - db] = c
            for j, b in low:
                rem[i - db + j] -= c * b
    return tuple(quot), tuple(rem[:db])


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple:
    """The n-th cyclotomic polynomial as a coefficient tuple, monic of degree phi(n).

    x^n - 1 is divided in turn by the polynomial at each proper divisor
    of n, memoized per process. A nonzero remainder can only come from
    broken arithmetic and aborts loudly.
    """
    if n < 1:
        raise ValueError("order must be a positive integer")
    poly = (-1,) + (0,) * (n - 1) + (1,)
    for d in divisors(n)[:-1]:
        poly, rem = _divmod_monic(poly, cyclotomic_poly(d))
        if any(rem):
            raise AssertionError(f"cyclotomic division left a remainder at n={n}; arithmetic is broken")
    return poly


class CyclotomicInt:
    """An element of Z[zeta_n], held for one readout.

    ``coeffs[j]`` multiplies zeta_n^j in the working representation
    Z[x]/(x^n - 1), as a shift-add walk leaves it.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs):
        if order < 1:
            raise ValueError("order must be a positive integer")
        vec = tuple(coeffs)
        if len(vec) != order:
            raise ValueError(f"expected {order} coefficients, got {len(vec)}")
        self.order = order
        self.coeffs = vec

    def canonical_form(self) -> tuple:
        """Coefficients on the power basis 1, zeta, ..., zeta^(phi(n)-1).

        The remainder of the working polynomial modulo the order-n
        cyclotomic polynomial, always of length phi(n).
        """
        return _divmod_monic(self.coeffs, cyclotomic_poly(self.order))[1]

    def to_integer(self) -> int:
        """Read the value out as a plain integer.

        Raises IntegralityViolation when any higher basis coefficient
        survives reduction; callers rely on this to abort loudly.
        """
        cf = self.canonical_form()
        if any(cf[1:]):
            raise IntegralityViolation(
                f"value of order {self.order} is not a rational integer: canonical form {list(cf)}")
        return cf[0]

    def __repr__(self):
        return f"CyclotomicInt({self.order}, {list(self.coeffs)})"


def _slot_bound(length: int, targets) -> int:
    """The most paths into one slot of a walk of L = `length` rows below `targets`: min(L!, m^L)
    bounds each multinomial coefficient when every target, so every kept vector, has <= m nonzero entries.
    """
    return min(factorial(length), (len(targets[0]) - min(map(countOf, targets, repeat(0)))) ** length)


def packed_cofactor(n: int, bound: int):
    """The slot width that `read_packed` needs for weights C with slots in 0..bound, and its constants.

    The cofactor Psi = (x^n - 1) / Phi_n is split as P - N with P, N >= 0. A slot of C*P or C*N
    folded mod x^n - 1 sums slots of C times distinct coefficients of P or N, so it lies in
    0..bound*|Psi|_1 and nothing carries; so |v| <= bound*|Psi|_1, and every slot of C*P - C*N and
    of v*Psi lies within bound*|Psi|_1*|Psi|_inf of 0. The width is that bound's bit length plus
    one, below which balanced digits are unique: 1 bit more than the bound's own bit length at
    n = 1, and 2 to 6 at n = 2..105.
    """
    psi = _divmod_monic((-1,) + (0,) * (n - 1) + (1,), cyclotomic_poly(n))[0]
    width = (bound * sum(map(abs, psi)) * max(map(abs, psi))).bit_length() + 1
    pos = sum([c << width * i for i, c in enumerate(psi) if c > 0])
    neg = sum([-c << width * i for i, c in enumerate(psi) if c < 0])
    return width, (n, width, n * width, (1 << n * width) - 1, (1 << width) - 1, psi[0], pos, neg, pos - neg)


def read_packed(vec: int, cofactor) -> int:
    """The rational integer that the packed weight C = `vec` is in Z[zeta_n], exactly.

    Phi_n * Psi = x^n - 1 and Z[x] has no zero divisors, so C = v mod Phi_n
    exactly when C*Psi = v*Psi mod x^n - 1. Psi has degree below n and
    Psi(0) = -Phi_n(0) = +-1, so v is Psi(0) times slot 0 of C*Psi folded
    mod x^n - 1, and the congruence is one comparison of packed ints.
    Raises IntegralityViolation when C is not a rational integer.
    """
    n, width, shift, low, slot, sign, pos, neg, psi = cofactor
    dp, dn = vec * pos, vec * neg
    dp, dn = (dp & low) + (dp >> shift), (dn & low) + (dn >> shift)  # folded mod x^n - 1
    v = sign * ((dp & slot) - (dn & slot))
    if dp - dn != v * psi:
        raise IntegralityViolation(f"value of order {n} is not a rational integer: working form "
                                   f"{[(vec >> width * e) & slot for e in range(n)]}")
    return v


def walk_values(columns, targets, n, budget=None) -> dict:
    """The orbit-sum values at the root-of-unity point of the target multiplicity vectors, from one walk.

    There is one row per unit of the targets' common sum L (a ValueError if they differ),
    less the last under the cyclic shift below; row pos places the part in column j with
    weight zeta_n^(columns[j]*pos), a rotation. The frontier maps each count vector to a
    weight and starts as {zero vector: 1}; a row raises one entry of a count vector and adds
    its rotated weight into the child's. Only count vectors entrywise below some walked
    vector are kept. For one walked vector, or walked vectors that are every vector of their
    sum below their entrywise maximum (they fill the box), that is a cap test per entry.
    Otherwise the vectors below some walked vector (the down-set) are built once, one level
    per sum, and each vector of level r + 1 pulls the rotated weights of its parents in level
    r. Before any row is built, every count vector the walk will hold is checked with
    check_budget: the vectors below the caps, counted in closed form, or the down-set,
    counted as it is built.

    The walked vectors are the targets, except when n divides L >= 1 and every target's label
    sum c.t = sum_j columns[j]*t_j (Lemma 2.4's cyclic shift). Rotating a word by one row, its
    first part to the end, lowers every other part by one row and moves the first from row 0
    to row L - 1, so its exponent changes by L*c_first - c.t, which n divides: the rotation
    keeps the weight. Rotating one of a word's t_v places that hold column v to the end pairs
    (word, place) one-to-one with (word ending in v, one of L rotations), so
    t_v * W(t) = L * zeta^((L-1)*c_v) * W'(t - e_v), where W' walks rows 0..L-2. The walk
    therefore stops at the parents t - e_v, with v the entry of fewest copies (ties to the
    last), and reads each parent's weight rotated by (L-1)*c_v, scaled by L / t_v. That
    rotated weight is t_v/L * W(t). When W(t) is a rational integer it is rational and an
    algebraic integer, hence an integer, and the division by t_v is exact (asserted). When
    W(t) is not rational, neither is it, and read_packed raises as it would on W(t). Any
    other target set, or L = 0, walks all L rows.

    Both vectors are packed into ints (Kronecker substitution). A weight has n slots of the
    width `packed_cofactor` gives for `_slot_bound` of the rows walked, so no slot carries. A
    push or pull adds the weight shifted left by its rotation, and each state's sum is folded
    mod x^n - 1 once (high n slots onto the low n), as it is read. A count vector has one
    field of `b` bits per entry, which holds the largest walked entry: the cap test (skipped
    when no cap can bind) keeps every entry within it, and a pull only lowers nonzero entries.
    Each target's weight is looked up in the last frontier and read out by `read_packed`,
    keyed by the caller's tuple (repeats merged). No targets, no walk.
    """
    values = dict.fromkeys(targets)
    if not values:
        return values
    targets = list(values)
    length, m = sum(targets[0]), len(targets[0])
    if any(sum(t) != length for t in targets):
        raise ValueError(f"targets must share one sum, got {sorted(set(map(sum, targets)))}")
    labels = [columns[j] for j in range(m)]  # by index: each row is the one pass over `columns`
    reads, times = {}, 1  # under the cyclic shift: target -> (parent, rotation, copies t_v), and L
    if length and not length % n and all(sum(map(mul, labels, t)) % n == 0 for t in targets):
        times, length = length, length - 1
        for t in targets:
            v = min(range(m), key=lambda j: (not t[j], t[j], -j))
            reads[t] = t[:v] + (t[v] - 1,) + t[v + 1:], length * labels[v] % n, t[v]
    walked = list(dict.fromkeys([parent for parent, _, _ in reads.values()])) if reads else targets
    caps = tuple([max(column) for column in zip(*walked)])
    b = max(caps, default=0).bit_length()
    field = (1 << b) - 1
    fields = [b * j for j in range(m)]
    ways = [1] + [0] * length  # ways[s]: vectors of sum s below the caps taken so far
    for c in caps:
        ways = [sum(ways[max(0, s - c):s + 1]) for s in range(length + 1)]
    capped = len(walked) == 1 or ways[length] == len(walked)  # the walked vectors fill the box
    if capped:
        check_budget(sum(ways), budget)
    levels = None if capped else _down_levels(walked, fields, field, length, budget)
    rows = [[(v * pos) % n for v in columns] for pos in range(length)]
    width, cofactor = packed_cofactor(n, _slot_bound(length, walked))
    shift = n * width
    mask = (1 << shift) - 1
    binds = any(c < length for c in caps)
    frontier = {0: 1}
    for r, shifts in enumerate(rows):
        steps = [(1 << pos, t * width, pos, c) for t, pos, c in zip(shifts, fields, caps)]
        nxt = {}
        if levels is None:
            get = nxt.get
            for state, vec in frontier.items():
                vec = (vec & mask) + (vec >> shift)
                for one, left, pos, cap in steps:
                    if binds and (state >> pos) & field >= cap:
                        continue
                    child = state + one
                    nxt[child] = get(child, 0) + (vec << left)
        else:
            level, levels[r + 1] = levels[r + 1], None
            for state in level:
                acc = 0
                for one, left, pos, _ in steps:
                    if (state >> pos) & field:
                        acc += frontier[state - one] << left
                nxt[state] = (acc & mask) + (acc >> shift)
        frontier = nxt
    for t in values:
        parent, turn, copies = reads.get(t) or (t, 0, 1)
        vec = frontier[sum(map(lshift, parent, fields))]
        vec = (vec & mask) + (vec >> shift)
        vec = ((vec << turn * width) & mask) | (vec >> (n - turn) * width)
        values[t], rest = divmod(read_packed(vec, cofactor) * times, copies)
        if rest:
            raise AssertionError(f"the value below {t} times {times} rows does not divide by {copies} copies; "
                                 "arithmetic is broken")
    return values


def _down_levels(targets, fields, field, length, budget) -> list:
    """The packed count vectors entrywise <= some target of sum `length`, as one set per sum 0..length.

    Level length holds the targets and level s the vectors of level s + 1 with one entry
    lowered. Raises BudgetExceeded once they hold more than `budget`.
    """
    level = {sum(map(lshift, t, fields)) for t in targets}
    levels, states = [level], len(level)
    check_budget(states, budget)
    for _ in range(length):
        level = {v - (1 << p) for v in level for p in fields if v >> p & field}
        states += len(level)
        check_budget(states, budget)
        levels.append(level)
    return levels[::-1]
