"""Exact readout of cyclotomic integers, and the walk that builds them.

Values are elements of Z[zeta_n] for a fixed order n, built by
`packed_walk` as length-n integer coefficient vectors in the working
quotient Z[x]/(x^n - 1), where a product with a root power is a rotation
and a sum is a vector add. Reduction modulo the n-th cyclotomic
polynomial happens only at readout, in one of two ways. `CyclotomicInt`
reduces a vector to the basis {1, zeta, ..., zeta^(phi(n)-1)} of
Z[zeta_n], where the form is canonical. `read_packed` reads a walk's
packed weight through the cofactor (x^n - 1) / Phi_n without unpacking
it. Both read out exact integers and raise on anything else.

All integers are arbitrary precision throughout; there is no rounding
path anywhere in this module.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from math import factorial
from operator import countOf

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


def shift_add_walk(rows, targets, n: int, budget: int | None = None):
    """The walk of `packed_walk` at the narrowest safe width, each weight unpacked into its n slots."""
    width = _slot_bound(len(rows), targets).bit_length()
    return ((state, [(vec >> width * e) & ((1 << width) - 1) for e in range(n)])
            for state, vec in packed_walk(rows, targets, n, budget, width))


def packed_walk(rows, targets, n: int, budget: int | None, width: int):
    """Walk count vectors up from zero, rotating and adding in Z[x]/(x^n - 1).

    The frontier maps each count vector to a weight vector and starts as
    {zero vector: 1}. Step r raises one entry j of a count vector by one
    and adds its weight rotated by rows[r][j] into the child's weight.
    Only count vectors entrywise <= at least one of the (non-empty list
    of) targets are kept. For one target that is a cap test per entry.
    For several the vectors below some target (the down-set) are built
    once per call, one level per sum, and row r pulls: each vector of
    level r + 1 sums the rotated weights of its parents in level r, one
    per nonzero entry. If the targets are every vector of sum len(rows)
    below their entrywise maximum, a cap test keeps that down-set without
    the levels. The frontier after the last row is returned as an
    iterator of (count vector, packed weight) pairs, each count vector
    unpacked as it is read; the walk is done before the call returns.
    Before the first row, every count vector the walk will hold is checked
    against the budget (check_budget): for a cap test, the vectors of sum
    <= len(rows) below the caps, counted in closed form; for the levels,
    the down-set, counted as it is built.

    Both vectors are packed into single ints (Kronecker substitution). A
    weight has n slots of `width` bits, so a rotation is two shifts and a
    mask and an add is one int add; no slot carries when `width` holds
    `_slot_bound`. A count vector has one field of `b` bits per entry,
    which holds the largest target entry: the cap test (skipped when no
    cap can bind) keeps every entry within it, and a pull only lowers
    nonzero entries.
    """
    length, m = len(rows), len(targets[0])
    mask = (1 << n * width) - 1
    caps = tuple([max(column) for column in zip(*targets)])
    b = max(caps, default=0).bit_length()
    field = (1 << b) - 1
    fields = [b * j for j in range(m)]
    ways = [1] + [0] * length  # ways[s]: vectors of sum s below the caps taken so far
    for c in caps:
        ways = [sum(ways[max(0, s - c):s + 1]) for s in range(length + 1)]
    # the targets fill the box when they are every vector of sum `length` below the caps
    capped = len(targets) == 1 or (ways[length] <= len(targets) and set(map(sum, targets)) == {length}
                                   and ways[length] == len(set(targets)))
    if capped:
        check_budget(sum(ways), budget)
    levels = None if capped else _down_levels(targets, fields, field, length, budget)
    binds = any(c < length for c in caps)
    frontier = {0: 1}
    for r, shifts in enumerate(rows):
        steps = [(1 << pos, (t % n) * width, (n - t % n) * width, pos, c)
                 for t, pos, c in zip(shifts, fields, caps)]
        nxt = {}
        if levels is None:
            get = nxt.get
            for state, vec in frontier.items():
                for one, left, right, pos, cap in steps:
                    if binds and (state >> pos) & field >= cap:
                        continue
                    child = state + one
                    nxt[child] = get(child, 0) + (((vec << left) & mask) | (vec >> right))
        else:
            level, levels[r + 1] = levels[r + 1], None
            for state in level:
                acc = 0
                for one, left, right, pos, _ in steps:
                    if (state >> pos) & field:
                        vec = frontier[state - one]
                        acc += ((vec << left) & mask) | (vec >> right)
                nxt[state] = acc
        frontier = nxt
    return ((tuple([(state >> pos) & field for pos in fields]), vec) for state, vec in frontier.items())


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
    one, below which balanced digits are unique: 1 bit more than `_slot_bound` needs at n = 1, and
    2 to 6 at n = 2..105.
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
    """One packed walk with a column per part, read out by `read_packed` at each target multiplicity vector.

    This is the walk at the root-of-unity point: placing part v at row pos
    multiplies a path weight by zeta_n^(v*pos). The targets all sum to the
    number of rows, so they are the whole final frontier. Each value is
    stored under the caller's target tuple (a dict keeps the key it
    already holds), not under the walk's equal copy. No targets, no walk.
    """
    values = dict.fromkeys(targets)
    if not values:
        return values
    targets = list(values)
    rows = [[(v * pos) % n for v in columns] for pos in range(sum(targets[0]))]
    width, cofactor = packed_cofactor(n, _slot_bound(len(rows), targets))
    for t, vec in packed_walk(rows, targets, n, budget, width):
        values[t] = read_packed(vec, cofactor)
    return values


def _down_levels(targets, fields, field, length, budget) -> list:
    """The packed count vectors entrywise <= some target, as one set per sum 0..length.

    Level s holds the targets of sum s and each vector of level s + 1 with
    one entry lowered. Raises BudgetExceeded once they hold more than `budget`.
    """
    packed = [(sum(t), sum([c << pos for c, pos in zip(t, fields)])) for t in targets]
    levels, level, states = [], set(), 0
    for s in range(max([length] + [t for t, _ in packed]), -1, -1):
        level = {v - (1 << p) for v in level for p in fields if v >> p & field} | {v for t, v in packed if t == s}
        states += len(level)
        check_budget(states, budget)
        levels.append(level)
    return levels[::-1][:length + 1]
