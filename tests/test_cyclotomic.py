import cmath
import operator
import random
from itertools import product

import pytest

from msproots.cyclotomic import (
    BudgetExceeded,
    CyclotomicInt,
    IntegralityViolation,
    _divmod_monic,
    _slot_bound,
    cyclotomic_poly,
    packed_cofactor,
    read_packed,
    walk_values,
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


def reference_values(columns, targets, n):
    """The literal pruned walk at the point, each target read out by CyclotomicInt (None: not an integer)."""
    rows = [[v * pos for v in columns] for pos in range(sum(targets[0]))]
    frontier = pruned_reference(rows, targets, n)
    if len(targets) == 1:
        assert frontier == reference_walk(rows, targets[0], n)
    return {t: _integer_or_none(CyclotomicInt(n, frontier[t]).to_integer) for t in targets}


BOX = [t for t in product(range(3), range(2), range(4)) if sum(t) == 3]
GAP = [t for t in BOX if t != (1, 1, 1)]


class Columns(list):
    """Columns that record each time a row is built from them."""

    def __init__(self, columns, walked):
        super().__init__(columns)
        self.walked = walked

    def __iter__(self):
        self.walked.append(len(self))
        return super().__iter__()


def rows_walked(columns, targets, n):
    """L - 1 when n divides L >= 1 and every target's label sum (Lemma 2.4's cyclic shift), else L."""
    length = sum(targets[0])
    if length and length % n == 0 and all(sum(c * x for c, x in zip(columns, t)) % n == 0 for t in targets):
        return length - 1
    return length


def recorded_walk(columns, targets, n):
    """walk_values on `columns` through a Columns recorder, which must see rows_walked rows."""
    walked = []
    try:
        return walk_values(Columns(columns, walked), targets, n)
    finally:
        assert walked == [len(columns)] * rows_walked(columns, targets, n), (columns, targets, n)


def test_walk_values_matches_reference():
    rng = random.Random(5)
    cases = [
        ([3, 4], [(0, 0)], 4),  # no rows: the zero vector with weight 1
        ([], [()], 2),  # no columns and no rows
        ([1, 1], [(0, 0), (0, 0)], 3),  # only the zero target, twice
        ([2, 0, 1], [(1, 0, 0)], 3),  # a single row
        ([2, 0, 1], [(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3),  # one row, several targets
        ([0, 5], [(3, 3)], 1),  # n = 1
        ([0, 1, 2], [(3, 0, 0), (1, 1, 1), (0, 2, 1)], 1),  # several targets at n = 1
        ([4], [(1,)], 1),  # n = 1 and one row: the shift leaves no row to walk
        ([1, 2], [(0, 3)], 3),  # caps that bind
        ([2], [(6,)], 3),  # one column: its cap never binds
        ([1, 2, 4], [(1, 2, 0), (1, 2, 0), (0, 1, 2)], 3),  # a duplicate target
        ([1, 2, 4], BOX, 3),  # every vector of sum 3 below (2, 1, 3)
        ([1, 2, 4], BOX + BOX[:2], 3),  # the same, with repeats
        ([1, 2, 4], GAP, 3),  # all but one of them, under the same maximum
        ([1, 2, 4], GAP + GAP[:1], 3),  # as many, one repeated in place of one
        ([1, 1, 5], BOX, 3),  # a repeated column
        ([1, 2, 4], [(1, 0, 2), (2, 0, 1), (0, 0, 3)], 3),  # no target uses column 1
        ([1, 2, 4], BOX, 5),  # the box at an order whose values are not all integers
        ([1, 2], [(1, 1)], 3),  # zeta_3: not an integer
        # Every label sum divisible by n, so the last row is not walked:
        ([1, 2, 3], [(1, 1, 1)], 3),  # a lone target whose parent drops a count-1 column
        ([1, 4, -2], [(2, 1, 0), (2, 0, 1)], 3),  # both drop their count-1 column: one parent (2, 0, 0)
        ([1, 4, -2], [(2, 1, 0), (2, 0, 1), (0, 3, 0), (1, 1, 1), (0, 0, 3)], 3),  # negative, repeated mod 3
        ([1, 3], [(2, 2)], 2),  # L = 2n
        ([1, 2, 3], [(0, 3, 3), (2, 2, 2), (4, 1, 1), (2, 2, 2)], 3),  # L = 2n, a repeated target
        ([2, 5, -1, 3], [(2, 1, 1, 4), (4, 2, 1, 1), (0, 2, 2, 4)], 4),  # L = 2n, ties for fewest copies
        ([1, 2, 4], [(3, 0, 0), (2, 1, 0)], 3),  # one label sum divisible by 3, one not: all L rows
    ]
    for _ in range(150):  # single targets, their caps binding or (one column, or no rows) not
        n = rng.randrange(1, 13)
        m = rng.randrange(1, 5)
        length = n * rng.randrange(1, 7 // n + 1) if n <= 7 and rng.random() < 0.5 else rng.randrange(0, 8)
        target = [0] * m
        for _ in range(length):
            target[rng.randrange(m)] += 1
        cases.append(([rng.randrange(-n, 2 * n) for _ in range(m)], [tuple(target)], n))
    for _ in range(150):  # sets of one sum: boxes filled or not, repeats and gaps
        n = rng.randrange(1, 8)
        m = rng.randrange(1, 5)
        length = n * rng.randrange(1, 7 // n + 1) if rng.random() < 0.7 else rng.randrange(0, 8)
        caps = [rng.randrange(0, length + 1) for _ in range(m)]
        caps[0] = max(caps[0], length - sum(caps[1:]))  # the box holds a vector of sum `length`
        box = [t for t in product(*[range(c + 1) for c in caps]) if sum(t) == length]
        targets = rng.sample(box, rng.randrange(1, len(box) + 1)) if rng.random() < 0.5 else box[:]
        if rng.random() < 0.5:
            targets.append(rng.choice(targets))  # a repeat
        cases.append(([rng.randrange(-n, 2 * n) for _ in range(m)], targets, n))
    for _ in range(100):  # sets whose every label sum n divides, at L = kn
        n = rng.randrange(1, 7)
        m = rng.randrange(1, 5)
        length = n * rng.randrange(1, 8 // n + 1)
        columns = [rng.randrange(-n, 2 * n) for _ in range(m)]
        box = [t for t in product(range(length + 1), repeat=m)
               if sum(t) == length and sum(map(operator.mul, columns, t)) % n == 0]
        if box:
            targets = rng.sample(box, rng.randrange(1, min(len(box), 6) + 1))
            cases.append((columns, targets + targets[:rng.randrange(2)], n))
    integral = shortened = 0
    for columns, targets, n in cases:
        want = reference_values(columns, targets, n)
        for t, value in want.items():  # each target alone takes the cap test
            if value is None:
                with pytest.raises(IntegralityViolation):
                    recorded_walk(columns, [t], n)
            else:
                assert recorded_walk(columns, [t], n) == {t: value}, (columns, t, n)
        if None in want.values():
            with pytest.raises(IntegralityViolation):
                recorded_walk(columns, targets, n)
        else:
            integral += 1
            assert recorded_walk(columns, targets, n) == want, (columns, targets, n)
        shortened += rows_walked(columns, targets, n) < sum(targets[0])
    assert integral > len(cases) // 2 and shortened > 150


@pytest.mark.parametrize("targets", [
    [(1, 1), (1, 0)],  # sums 2 and 1: the second is below the first
    [(2, 0), (0, 1)],  # sums 2 and 1, neither below the other
    [(0, 0), (2, 0), (1, 1)],  # the zero target among others
])
def test_mixed_target_sums_are_rejected(targets):
    with pytest.raises(ValueError, match="targets must share one sum"):
        walk_values([1, 2], targets, 3)


def test_multi_target_budget_boundary_is_the_down_set_size():
    targets = [(2, 2, 1), (1, 4, 0), (0, 1, 4)]  # sum 5 each, far from filling the box below (2, 4, 4)
    states = sum(any(all(c <= t for c, t in zip(v, target)) for target in targets)
                 for v in product(range(3), range(5), range(5)))
    assert states == 28  # 18 below (2, 2, 1), 10 below (1, 4, 0) and 10 below (0, 1, 4), less 10 counted twice
    want = reference_values([1, 2, 3], targets, 5)
    walked = []
    with pytest.raises(BudgetExceeded) as exc:
        walk_values(Columns([1, 2, 3], walked), targets, 5, states - 1)
    assert str(exc.value) == (f"{states} count vectors or map keys exceed the budget of {states - 1}; "
                              "pass a larger budget to override")
    assert walked == []
    assert walk_values(Columns([1, 2, 3], walked), targets, 5, states) == want
    assert walked == [3] * 5


def _integer_or_none(read, *args):
    try:
        return read(*args)
    except IntegralityViolation:
        return None


def _packed_value(n, slots, bound):
    """read_packed on the slots packed at the width packed_cofactor gives for `bound`, or None if it raises."""
    width, cofactor = packed_cofactor(n, bound)
    return _integer_or_none(read_packed, sum(c << width * i for i, c in enumerate(slots)), cofactor)


@pytest.mark.parametrize("n", list(range(1, 41)) + [105])
def test_packed_readout_matches_the_canonical_form(n):
    """The cofactor readout gives CyclotomicInt's integer, and raises exactly when it does."""
    rng = random.Random(n)
    bound = _slot_bound(n, [(1,) * n])  # a walk of n rows over n columns: n! paths into a slot at most
    phi = cyclotomic_poly(n)
    cases = [[rng.randrange(bound + 1) for _ in range(n)] for _ in range(20)]  # random, mostly not integers
    cases += [[bound] * n, [bound] + [0] * (n - 1)]  # every slot at the bound, and slot 0 alone
    cases += [[rng.choice((0, bound)) for _ in range(n)] for _ in range(10)]
    integers = []
    for _ in range(20):  # v plus multiples of x^i * Phi_n, folded mod x^n - 1
        v = rng.randrange(-bound, bound + 1) if n > 1 else rng.randrange(bound + 1)
        slots = [v] + [0] * (n - 1)
        for i in range(n):
            a = rng.randrange(-3, 4)
            for j, c in enumerate(phi):
                slots[(i + j) % n] += a * c
        if n > 1:  # 1 + x + ... + x^(n-1) is a multiple of Phi_n: lift every slot to 0 or more
            slots = [c - min(slots) for c in slots]
        integers.append((slots, v))
    cases += [slots for slots, _ in integers]
    for slots in cases:
        want = _integer_or_none(CyclotomicInt(n, slots).to_integer)
        assert _packed_value(n, slots, max(bound, *slots)) == want, (n, slots)
    for slots, v in integers:
        assert _packed_value(n, slots, max(bound, *slots)) == v, (n, slots)
    for j in range(1, n):  # zeta^j is a rational integer only as zeta^(n/2) = -1
        zeta = [0] * n
        zeta[j] = 1
        assert _packed_value(n, zeta, bound) == (-1 if 2 * j == n else None), (n, j)
