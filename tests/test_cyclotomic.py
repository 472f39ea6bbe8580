import cmath
import random
from math import gcd

import pytest

from msproots.cyclotomic import (
    CyclotomicInt,
    IntegralityViolation,
    _divmod_monic,
    cyclotomic_poly,
    root_power,
    shift_add_walk,
)
from msproots.partitions import euler_phi


def poly_mul(a, b):
    """Product of two coefficient tuples, index i holding x^i."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def to_complex(value):
    """Float probe: evaluate the working representation at e^(2 pi i / n)."""
    n = value.order
    return sum(c * cmath.exp(2j * cmath.pi * j / n) for j, c in enumerate(value.coeffs))


def test_cyclotomic_poly_small_orders():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    # x^6 - 1 divided by phi_1, phi_2 and phi_3, frozen: x^2 - x + 1
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)


def test_cyclotomic_poly_product_recovers_x_n_minus_one():
    for n in range(1, 31):
        prod = (1,)
        d = 1
        while d <= n:
            if n % d == 0:
                prod = poly_mul(prod, cyclotomic_poly(d))
            d += 1
        assert prod == (-1,) + (0,) * (n - 1) + (1,), n


def test_cyclotomic_poly_degree_is_totient():
    for n in range(1, 31):
        assert len(cyclotomic_poly(n)) - 1 == euler_phi(n), n


def test_cyclotomic_poly_rejects_nonpositive():
    with pytest.raises(ValueError):
        cyclotomic_poly(0)


def test_root_power_basics():
    assert root_power(3, 0) == 1
    assert root_power(3, 4) == root_power(3, 1)
    assert root_power(2, 1) == -1  # forced by x + 1
    with pytest.raises(ValueError):
        root_power(0, 1)


def test_root_power_exponents_add():
    for n in (2, 3, 4, 6):
        for e in range(n):
            for f in range(n):
                assert root_power(n, e) * root_power(n, f) == root_power(n, e + f)


def test_root_power_multiplicative_order():
    for n in range(1, 13):
        for e in range(n):
            z = root_power(n, e)
            order = 1
            acc = z
            while not (acc - 1).is_zero():
                acc = acc * z
                order += 1
            assert order == n // gcd(e, n), (n, e)


def test_arithmetic_examples():
    assert (root_power(2, 1) + 1).is_zero()
    assert root_power(3, 1) * root_power(3, 2) == 1
    total = CyclotomicInt(3)
    for j in range(1, 4):
        total = total + root_power(3, j)
    assert total.is_zero()


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        root_power(2, 1) + root_power(3, 1)
    with pytest.raises(ValueError):
        root_power(2, 1) * root_power(3, 1)


def test_canonical_form_examples():
    assert CyclotomicInt(5).canonical_form() == (0, 0, 0, 0)
    assert (root_power(4, 1) ** 2).canonical_form() == (-1, 0)
    assert (1 + root_power(3, 1) + root_power(3, 2)).canonical_form() == (0, 0)


def test_integer_readout():
    assert (1 + root_power(2, 1)).is_zero()
    assert not root_power(3, 1).is_integer()
    assert (root_power(6, 3) * 3).to_integer() == -3
    with pytest.raises(IntegralityViolation):
        root_power(3, 1).to_integer()


def test_integer_equality_across_orders_and_hash():
    a = CyclotomicInt.from_int(2, 5)
    b = CyclotomicInt.from_int(3, 5)
    assert a == b == 5
    assert hash(a) == hash(b) == hash(5)
    assert root_power(4, 1) != root_power(4, 3)


def test_power_and_int_mixing():
    z = root_power(5, 2)
    assert z ** 0 == 1
    assert z ** 7 == root_power(5, 14)
    assert 2 * z - z == z
    assert (3 - z) + (z - 3) == 0


def random_value(rng, n):
    return CyclotomicInt(n, [rng.randrange(-9, 10) for _ in range(n)])


def test_ring_axioms_on_random_values():
    rng = random.Random(20240811)
    for _ in range(200):
        n = rng.randrange(1, 13)
        a, b, c = (random_value(rng, n) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_zero_test_agrees_with_float_probe():
    rng = random.Random(99)
    seen_zero = False
    for _ in range(300):
        n = rng.randrange(1, 13)
        a = random_value(rng, n)
        if rng.random() < 0.3:
            # plant exact zeros: multiples of the full root sum vanish for prime n
            if n in (2, 3, 5, 7, 11):
                a = CyclotomicInt(n, [rng.randrange(-5, 6)] * n)
        exact = a.is_zero()
        seen_zero = seen_zero or exact
        assert exact == (abs(to_complex(a)) < 1e-7), (n, a)
    assert seen_zero


def test_canonical_form_matches_division_remainder():
    rng = random.Random(60)
    for n in range(1, 61):
        poly = cyclotomic_poly(n)
        for _ in range(4):
            vec = [rng.randrange(-10**6, 10**6 + 1) for _ in range(n)]
            assert CyclotomicInt(n, vec).canonical_form() == _divmod_monic(vec, poly)[1], (n, vec)


def reference_walk(rows, caps, n):
    """The walk on tuples and lists, one slot at a time, as the packed kernel must match it."""
    start = [0] * n
    start[0] = 1
    frontier = {(0,) * len(caps): start}
    for shifts in rows:
        nxt = {}
        for state, vec in frontier.items():
            for idx, c in enumerate(state):
                if c < caps[idx]:
                    child = state[:idx] + (c + 1,) + state[idx + 1:]
                    dst = nxt.setdefault(child, [0] * n)
                    for e, a in enumerate(vec):
                        dst[(e + shifts[idx]) % n] += a
        frontier = nxt
    return frontier


def test_shift_add_walk_matches_reference():
    rng = random.Random(5)
    cases = [
        ([], (0, 3), 4),  # no rows: the zero vector with weight 1
        ([[]], (), 2),  # no entries to raise: nothing survives the row
        ([[2, 0, 1]], (1, 1, 1), 3),  # a single row
        ([[0, 0]] * 6, (6, 6), 1),  # n = 1
        ([[1, 2]] * 3, (0, 1), 5),  # caps too small to reach the last row
    ]
    for _ in range(150):
        n = rng.randrange(1, 13)
        m = rng.randrange(1, 5)
        length = rng.randrange(1, 8)
        rows = [[rng.randrange(-n, 2 * n) for _ in range(m)] for _ in range(length)]
        if rng.random() < 0.5:
            caps = tuple(rng.randrange(0, length + 1) for _ in range(m))  # caps that bind
        else:
            caps = tuple(rng.randrange(length, length + 3) for _ in range(m))  # caps that never bind
        cases.append((rows, caps, n))
    for rows, caps, n in cases:
        assert shift_add_walk(rows, caps, n) == reference_walk(rows, caps, n), (rows, caps, n)
