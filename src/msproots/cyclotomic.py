"""Exact arithmetic in rings of cyclotomic integers.

Values are elements of Z[zeta_n] for a fixed order n, held as length-n
integer coefficient vectors in the working quotient Z[x]/(x^n - 1), where
addition is a vector add and multiplication is a cyclic convolution.
Reduction modulo the n-th cyclotomic polynomial happens only at
comparison and readout time; since {1, zeta, ..., zeta^(phi(n)-1)} is a
basis of Z[zeta_n], the reduced form is canonical and makes equality and
zero tests exact and decidable.

All integers are arbitrary precision throughout; there is no rounding
path anywhere in this module.
"""
from __future__ import annotations

from functools import lru_cache
from math import factorial

from .partitions import divisors


class IntegralityViolation(ArithmeticError):
    """A value that was required to be a rational integer is not one."""


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
    """An element of Z[zeta_n], immutable.

    ``coeffs[j]`` multiplies zeta_n^j in the working representation
    Z[x]/(x^n - 1). Mixed arithmetic with plain ints is supported; two
    values are equal exactly when their canonical forms agree.
    """

    __slots__ = ("order", "coeffs", "_canonical")

    def __init__(self, order, coeffs=None):
        if order < 1:
            raise ValueError("order must be a positive integer")
        if coeffs is None:
            vec = (0,) * order
        else:
            vec = tuple(coeffs)
            if len(vec) != order:
                raise ValueError(f"expected {order} coefficients, got {len(vec)}")
        self.order = order
        self.coeffs = vec
        self._canonical = None

    @classmethod
    def from_int(cls, order, value):
        return cls(order, (value,) + (0,) * (order - 1))

    def _coerce(self, other):
        if isinstance(other, int):
            return CyclotomicInt.from_int(self.order, other)
        if isinstance(other, CyclotomicInt):
            if other.order != self.order:
                raise ValueError(f"cannot combine values of orders {self.order} and {other.order}")
            return other
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CyclotomicInt(self.order, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicInt(self.order, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CyclotomicInt(self.order, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return CyclotomicInt(self.order, tuple(a * other for a in self.coeffs))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = self.order
        out = [0] * n
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o.coeffs):
                    if b:
                        out[(i + j) % n] += a * b
        return CyclotomicInt(n, out)

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative powers are not defined in Z[zeta_n]")
        result = CyclotomicInt.from_int(self.order, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def canonical_form(self) -> tuple:
        """Coefficients on the power basis 1, zeta, ..., zeta^(phi(n)-1).

        The remainder of the working polynomial modulo the order-n
        cyclotomic polynomial, always of length phi(n): the first phi(n)
        coefficients plus each higher coefficient times its row of
        `_reduction_rows`.
        """
        if self._canonical is None:
            coeffs = self.coeffs
            table = _reduction_rows(self.order)
            phi = self.order - len(table)
            out = list(coeffs[:phi])
            for c, row in zip(coeffs[phi:], table):
                if c:
                    for i, r in row:
                        out[i] += c * r
            self._canonical = tuple(out)
        return self._canonical

    def is_zero(self) -> bool:
        return not any(self.canonical_form())

    def is_integer(self) -> bool:
        return not any(self.canonical_form()[1:])

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

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, int):
            cf = self.canonical_form()
            return not any(cf[1:]) and cf[0] == other
        if isinstance(other, CyclotomicInt):
            if self.order == other.order:
                return self.canonical_form() == other.canonical_form()
            return (self.is_integer() and other.is_integer()
                    and self.canonical_form()[0] == other.canonical_form()[0])
        return NotImplemented

    def __hash__(self):
        cf = self.canonical_form()
        if not any(cf[1:]):
            return hash(cf[0])
        return hash((self.order, cf))

    def __repr__(self):
        return f"CyclotomicInt({self.order}, {list(self.coeffs)})"


def root_power(n: int, e: int) -> CyclotomicInt:
    """zeta_n^e as an exact value; the exponent is reduced modulo n."""
    if n < 1:
        raise ValueError("order must be a positive integer")
    vec = [0] * n
    vec[e % n] = 1
    return CyclotomicInt(n, vec)


def shift_add_walk(rows, caps, n: int) -> dict:
    """Walk count vectors up from zero, rotating and adding in Z[x]/(x^n - 1).

    The frontier maps each count vector to a length-n weight vector and
    starts as {zero vector: 1}. Step r raises one entry j of a count
    vector by one, up to caps[j], and adds its weight rotated by
    rows[r][j] into the child's weight. The frontier after the last row
    is returned; every count vector in it sums to len(rows).

    Inside the walk both vectors are packed into single ints (Kronecker
    substitution). A weight vector has n slots of `width` bits, so a
    rotation is two shifts and a mask and an add is one int add. A slot
    counts the paths into its count vector, at most the multinomial
    coefficient of that vector, which never exceeds min(L!, m^L) for L
    rows and m entries; `width` holds that bound, so no slot carries into
    the next. A count vector has one field of `b` bits per entry, enough
    for max(caps), and the cap test is skipped when no cap can bind.
    """
    length, m = len(rows), len(caps)
    width = min(factorial(length), m ** length).bit_length()
    mask = (1 << n * width) - 1
    b = max(caps, default=0).bit_length()
    field = (1 << b) - 1
    binds = any(c < length for c in caps)
    frontier = {0: 1}
    for shifts in rows:
        steps = [(1 << b * j, (t % n) * width, (n - t % n) * width, b * j, c)
                 for j, (t, c) in enumerate(zip(shifts, caps))]
        nxt = {}
        get = nxt.get
        for state, vec in frontier.items():
            for one, left, right, pos, cap in steps:
                if binds and (state >> pos) & field >= cap:
                    continue
                child = state + one
                nxt[child] = get(child, 0) + (((vec << left) & mask) | (vec >> right))
        frontier = nxt
    slot = (1 << width) - 1
    fields = [b * j for j in range(m)]
    slots = [width * e for e in range(n)]
    return {tuple([(state >> pos) & field for pos in fields]): [(vec >> pos) & slot for pos in slots]
            for state, vec in frontier.items()}
