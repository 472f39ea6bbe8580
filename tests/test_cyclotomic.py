import cmath
import random
from itertools import product

import pytest

from msproots.cyclotomic import (
    BudgetExceeded,
    CyclotomicInt,
    IntegralityViolation,
    _divmod_monic,
    cyclotomic_poly,
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


def test_constructor_validation():
    assert repr(CyclotomicInt(3, [1, 0, 2])) == "CyclotomicInt(3, [1, 0, 2])"
    with pytest.raises(ValueError, match="order must be a positive integer"):
        CyclotomicInt(0, ())
    with pytest.raises(ValueError, match="expected 3 coefficients, got 2"):
        CyclotomicInt(3, (1, 2))


def test_canonical_form_examples():
    assert CyclotomicInt(5, (0,) * 5).canonical_form() == (0, 0, 0, 0)
    assert CyclotomicInt(4, (0, 0, 1, 0)).canonical_form() == (-1, 0)  # zeta_4^2
    assert CyclotomicInt(3, (1, 1, 1)).canonical_form() == (0, 0)  # 1 + zeta_3 + zeta_3^2


def test_integer_readout():
    assert not any(CyclotomicInt(2, (1, 1)).canonical_form())  # 1 + zeta_2
    assert any(CyclotomicInt(3, (0, 1, 0)).canonical_form()[1:])  # zeta_3 is not an integer
    assert CyclotomicInt(6, (0, 0, 0, 3, 0, 0)).to_integer() == -3  # 3 * zeta_6^3
    with pytest.raises(IntegralityViolation):
        CyclotomicInt(3, (0, 1, 0)).to_integer()


def random_value(rng, n):
    return CyclotomicInt(n, [rng.randrange(-9, 10) for _ in range(n)])


@pytest.mark.parametrize("n", range(1, 13))
def test_root_power_readout(n):
    """The unit vector at j reads out as zeta_n^j: an integer only for zeta^j = +-1."""
    for j in range(n):
        unit = CyclotomicInt(n, [int(e == j) for e in range(n)])
        cf = unit.canonical_form()
        assert abs(sum(c * cmath.exp(2j * cmath.pi * i / n) for i, c in enumerate(cf))
                   - cmath.exp(2j * cmath.pi * j / n)) < 1e-9, (n, j)
        if j == 0 or 2 * j == n:
            assert unit.to_integer() == (1 if j == 0 else -1), (n, j)
        else:
            with pytest.raises(IntegralityViolation):
                unit.to_integer()


def test_readout_is_additive():
    rng = random.Random(20240811)
    for _ in range(200):
        n = rng.randrange(1, 13)
        a, b = random_value(rng, n), random_value(rng, n)
        total = CyclotomicInt(n, [x + y for x, y in zip(a.coeffs, b.coeffs)])
        assert total.canonical_form() == tuple(
            x + y for x, y in zip(a.canonical_form(), b.canonical_form())), (n, a, b)


def test_full_root_sum_reads_out_as_zero():
    for n in range(2, 13):
        assert CyclotomicInt(n, (1,) * n).to_integer() == 0, n
        rng = random.Random(n)
        a = random_value(rng, n)
        shifted = CyclotomicInt(n, [c + 7 for c in a.coeffs])
        assert shifted.canonical_form() == a.canonical_form(), (n, a)
    assert CyclotomicInt(1, (1,)).to_integer() == 1


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
        exact = not any(a.canonical_form())
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


def pruned_reference(rows, targets, n):
    """reference_walk under the componentwise-max caps, kept to the states <= some target."""
    caps = tuple(max(col) for col in zip(*targets))
    return {state: vec for state, vec in reference_walk(rows, caps, n).items()
            if any(all(c <= t for c, t in zip(state, target)) for target in targets)}


BOX = [t for t in product(range(3), range(2), range(4)) if sum(t) == 3]
GAP = [t for t in BOX if t != (1, 1, 1)]


def test_shift_add_walk_matches_reference():
    rng = random.Random(5)
    cases = [
        ([], [(0, 3)], 4),  # no rows: the zero vector with weight 1
        ([[]], [()], 2),  # no entries to raise: nothing survives the row
        ([[2, 0, 1]], [(1, 1, 1)], 3),  # a single row
        ([[0, 0]] * 6, [(6, 6)], 1),  # n = 1
        ([[1, 2]] * 3, [(0, 1)], 5),  # caps too small to reach the last row
        ([[1, 2, 0]] * 3, [(1, 2, 0), (1, 2, 0), (0, 1, 2)], 4),  # duplicate targets
        ([[3, 1, 2]] * 4, [(1, 1, 1), (2, 1, 1), (0, 3, 1)], 5),  # a target below another
        ([[1, 1]] * 2, [(0, 0), (2, 0), (1, 1)], 3),  # the zero target
        ([[0, 0, 0]] * 3, [(3, 0, 0), (1, 1, 1), (0, 2, 1)], 1),  # several targets at n = 1
        ([[0, 2]] * 2, [(0, 0), (0, 0)], 3),  # only the zero target, twice
        ([[1, 2, 0], [2, 2, 1], [0, 3, 1]], BOX, 5),  # every vector of sum 3 below (2, 1, 3)
        ([[1, 2, 0], [2, 2, 1], [0, 3, 1]], BOX + BOX[:2], 5),  # the same, with repeats
        ([[1, 2, 0], [2, 2, 1], [0, 3, 1]], GAP, 5),  # all but one of them, under the same maximum
        ([[1, 2, 0], [2, 2, 1], [0, 3, 1]], GAP + GAP[:1], 5),  # as many, one repeated in place of one
        ([[1, 2, 0], [2, 2, 1], [0, 3, 1]], GAP + [(1, 1, 2)], 5),  # as many, one of sum 4
        ([[1, 2, 0], [2, 2, 1], [0, 3, 1]], [(2, 2, 1), (1, 0, 1), (0, 1, 0), (0, 4, 0)], 5),  # sums 5, 2, 1, 4
        ([[1, 2, 0], [2, 2, 1], [0, 3, 1]], [(1, 0, 2), (2, 0, 1), (0, 0, 3)], 4),  # no target uses column 1
        ([[2, 0, 1]], [(1, 0, 0), (0, 1, 0), (0, 0, 2)], 3),  # one row, several targets
        ([], [(0, 3), (1, 1)], 4),  # no rows, several targets
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
        cases.append((rows, [caps], n))
    for _ in range(150):
        n = rng.randrange(1, 13)
        m = rng.randrange(1, 5)
        length = rng.randrange(1, 8)
        rows = [[rng.randrange(-n, 2 * n) for _ in range(m)] for _ in range(length)]
        targets = [tuple(rng.randrange(0, length + 2) for _ in range(m)) for _ in range(rng.randrange(2, 7))]
        if rng.random() < 0.5:
            targets.append(rng.choice(targets))  # a duplicate
        cases.append((rows, targets, n))
    for rows, targets, n in cases:
        want = pruned_reference(rows, targets, n)
        if len(targets) == 1:
            assert want == reference_walk(rows, targets[0], n)
        assert dict(shift_add_walk(rows, targets, n)) == want, (rows, targets, n)


class Rows(list):
    """Rows that record each time the walk starts iterating them."""

    def __init__(self, rows, walked):
        super().__init__(rows)
        self.walked = walked

    def __iter__(self):
        self.walked.append(len(self))
        return super().__iter__()


def test_multi_target_budget_boundary_is_the_down_set_size():
    rows = [[1, 2, 0], [2, 2, 1], [0, 3, 1]]
    targets = [(2, 2, 1), (1, 0, 1), (0, 4, 0)]  # sums 5, 2 and 4 over 3 rows
    states = sum(any(all(c <= t for c, t in zip(v, target)) for target in targets)
                 for v in product(range(3), range(5), range(2)))
    assert states == 20  # 18 below (2, 2, 1), which holds (1, 0, 1), and (0, 3, 0), (0, 4, 0)
    want = pruned_reference(rows, targets, 5)
    walked = []
    with pytest.raises(BudgetExceeded) as exc:
        shift_add_walk(Rows(rows, walked), targets, 5, states - 1)
    assert str(exc.value) == (f"{states} count vectors or map keys exceed the budget of {states - 1}; "
                              "pass a larger budget to override")
    assert walked == []
    assert dict(shift_add_walk(Rows(rows, walked), targets, 5, states)) == want
    assert walked == [3]
