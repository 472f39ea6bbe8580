"""Exact readout of cyclotomic integers, and the walk that builds them.

Values are elements of Z[zeta_n] for a fixed order n, built by
`shift_add_walk` as length-n integer coefficient vectors in the working
quotient Z[x]/(x^n - 1), where a product with a root power is a rotation
and a sum is a vector add. Reduction modulo the n-th cyclotomic
polynomial happens only at readout; since {1, zeta, ..., zeta^(phi(n)-1)}
is a basis of Z[zeta_n], the reduced form is canonical, so the integer
read out of it is exact.

All integers are arbitrary precision throughout; there is no rounding
path anywhere in this module.
"""
from __future__ import annotations

from functools import lru_cache
from math import factorial

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


@lru_cache(maxsize=None)
def _reduction_rows(n: int) -> tuple:
    """x^e mod the n-th cyclotomic polynomial for e = phi(n)..n-1.

    Each row lists the nonzero (index, coefficient) pairs of one
    remainder on the power basis, so reducing a working vector is its
    first phi(n) coefficients plus a sparse combination of these rows.
    Memoized per process.
    """
    poly = cyclotomic_poly(n)
    phi = len(poly) - 1
    rows = []
    for e in range(phi, n):
        rem = _divmod_monic((0,) * e + (1,), poly)[1]
        rows.append(tuple((i, c) for i, c in enumerate(rem) if c))
    return tuple(rows)


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
        cyclotomic polynomial, always of length phi(n): the first phi(n)
        coefficients plus each higher coefficient times its row of
        `_reduction_rows`.
        """
        coeffs = self.coeffs
        table = _reduction_rows(self.order)
        phi = self.order - len(table)
        out = list(coeffs[:phi])
        for c, row in zip(coeffs[phi:], table):
            if c:
                for i, r in row:
                    out[i] += c * r
        return tuple(out)

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
    """Walk count vectors up from zero, rotating and adding in Z[x]/(x^n - 1).

    The frontier maps each count vector to a length-n weight vector and
    starts as {zero vector: 1}. Step r raises one entry j of a count
    vector by one and adds its weight rotated by rows[r][j] into the
    child's weight. Only count vectors that are entrywise <= at least one
    of the (non-empty list of) targets are kept. For one target that is a
    cap test per entry. For several the vectors below some target (the
    down-set) are built once per call, one level per sum, and row r pulls:
    each vector of level r + 1 sums the rotated weights of its parents in
    level r, one per nonzero entry. If the targets are every vector of sum
    len(rows) below their entrywise maximum, the down-set is every vector
    of sum <= len(rows) below it, and a cap test keeps those without the
    levels. The frontier after the last row (every count vector in it sums
    to len(rows)) is returned as an iterator of (count vector, weight
    vector) pairs, unpacked one pair at a time as it is read; the walk is
    done before the call returns. Before the first row, every count
    vector the walk will hold over all its rows is checked against the
    budget (check_budget): for a cap test, the vectors of sum <= len(rows)
    below the caps, counted in closed form; for the levels, the down-set,
    counted as it is built.

    Inside the walk both vectors are packed into single ints (Kronecker
    substitution). A weight vector has n slots of `width` bits, so a
    rotation is two shifts and a mask and an add is one int add. A slot
    counts the paths into its count vector, at most the multinomial
    coefficient of that vector, which never exceeds min(L!, m^L) for L
    rows when every kept vector has at most m nonzero entries. A kept
    vector lies below a target, so m is the most nonzero entries of any
    target; `width` holds that bound, so no slot carries into the next.
    A count vector has one field of `b` bits per entry, which holds the
    largest target entry: the cap test (skipped when no cap can bind)
    keeps every entry within it, and a pull only lowers nonzero entries.
    """
    length, m = len(rows), len(targets[0])
    spread = max(len(t) - t.count(0) for t in targets)
    width = min(factorial(length), spread ** length).bit_length()
    mask = (1 << n * width) - 1
    caps = tuple([max(column) for column in zip(*targets)])
    b = max(caps, default=0).bit_length()
    field = (1 << b) - 1
    fields = [b * j for j in range(m)]
    ways = [1] + [0] * length  # ways[s]: vectors of sum s below the caps taken so far
    for c in caps:
        ways = [sum(ways[max(0, s - c):s + 1]) for s in range(length + 1)]
    # the targets fill the box when they are every vector of sum `length` below the caps
    capped = len(targets) == 1 or (ways[length] <= len(targets) and all(sum(t) == length for t in targets)
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
    slot = (1 << width) - 1
    slots = [width * e for e in range(n)]
    return ((tuple([(state >> pos) & field for pos in fields]), [(vec >> pos) & slot for pos in slots])
            for state, vec in frontier.items())


def walk_values(columns, targets, n, budget=None) -> dict:
    """One shift-add walk with a column per part, read out at each target multiplicity vector.

    This is the walk at the root-of-unity point: placing part v at row pos
    multiplies a path weight by zeta_n^(v*pos). The targets all sum to the
    number of rows, so they are the whole final frontier. Each value is
    stored under the caller's target tuple (a dict keeps the key it
    already holds), not under the walk's equal copy.
    """
    rows = [[(v * pos) % n for v in columns] for pos in range(sum(targets[0]))]
    values = dict.fromkeys(targets)
    for t, vec in shift_add_walk(rows, targets, n, budget):
        values[t] = CyclotomicInt(n, vec).to_integer()
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
