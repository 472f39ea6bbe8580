import random
from itertools import permutations
from math import gcd

import pytest

import msproots
from msproots import cyclotomic, groupdet, msp
from msproots.msp import BudgetExceeded, EvalInstance, msp_value_dp
from msproots.groupdet import (
    MonomialMap,
    count_terms,
    dedekind_expand,
    exponent_key,
    key_partition,
    leibniz_determinant,
    orbit_expand,
    prime_term_count,
)
from msproots.partitions import enumerate_partitions, format_partition, lambda_tilde_size


def test_leibniz_golden_n3():
    det = leibniz_determinant(3)
    assert dict(det.items()) == {
        (3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1, (1, 1, 1): -3}


def test_leibniz_small_orders():
    assert dict(leibniz_determinant(1).items()) == {(1,): 1}
    assert dict(leibniz_determinant(2).items()) == {(0, 2): 1, (2, 0): -1}


def test_leibniz_guard():
    with pytest.raises(BudgetExceeded):
        leibniz_determinant(9)
    with pytest.raises(ValueError):
        leibniz_determinant(0)


def test_dedekind_equals_leibniz():
    for n in range(1, 6):
        assert dedekind_expand(n, 1) == leibniz_determinant(n), n


def test_dedekind_trivial_group_power():
    assert dict(dedekind_expand(1, 3).items()) == {(3,): 1}


def test_dedekind_power_is_polynomial_product():
    for n in range(1, 5):
        one = dedekind_expand(n, 1)
        assert dedekind_expand(n, 2) == one * one, n
        assert dedekind_expand(n, 3) == one * dedekind_expand(n, 2), n


def test_dedekind_coefficient_example():
    assert dedekind_expand(2, 2).coefficient((2, 2)) == -2


def test_dedekind_coefficient_lookup_by_partition():
    assert dedekind_expand(3, 1).coefficient(exponent_key((1, 2, 3), 3)) == -3
    assert dedekind_expand(3, 1).coefficient(exponent_key((3, 3, 3), 3)) == 1
    assert dedekind_expand(2, 1).coefficient(exponent_key((1, 2), 2)) == 0  # odd weight
    assert dedekind_expand(2, 2).coefficient(exponent_key((1, 1, 2, 2), 2)) == -2
    with pytest.raises(ValueError):
        exponent_key((1, 2, 4), 3)


def test_dedekind_budget_guard():
    groupdet._expansions.pop((4, 3), None)
    with pytest.raises(BudgetExceeded):
        dedekind_expand(4, 3, budget=10)


def test_dedekind_budget_guard_precedes_the_cache():
    assert len(dedekind_expand(4, 3)) == 116
    with pytest.raises(BudgetExceeded):
        dedekind_expand(4, 3, budget=10)


ORBIT_ROUTE_CASES = ([(n, 1) for n in range(1, 10)] + [(n, 2) for n in range(1, 8)]
                     + [(n, 3) for n in range(1, 6)] + [(4, 4), (3, 10), (2, 30)])


@pytest.mark.parametrize("n,k", ORBIT_ROUTE_CASES)
def test_orbit_expand_matches_walk(n, k):
    assert orbit_expand(n, k) == dedekind_expand(n, k)


def test_orbit_expand_keeps_no_memo():
    msproots.clear_caches()
    orbit_expand(6, 2)
    assert not groupdet._expansions and msp._dp_value.cache_info().currsize == 0


@pytest.mark.parametrize("n,k", [(6, 1), (7, 2), (10, 1)])
def test_orbit_expand_needs_no_dp(monkeypatch, n, k):
    want = dedekind_expand(n, k)
    monkeypatch.setattr(msp, "_dp_value", None)
    assert orbit_expand(n, k) == want


def test_orbit_expand_walks_once_and_reads_out_once_per_orbit(monkeypatch):
    walks, readouts = [], []
    walk, readout = groupdet.shift_add_walk, cyclotomic.CyclotomicInt.to_integer

    def counted_walk(rows, targets, n, budget):
        walks.append(len(targets))
        return walk(rows, targets, n, budget)

    def counted_readout(value):
        readouts.append(value.order)
        return readout(value)

    monkeypatch.setattr(groupdet, "shift_add_walk", counted_walk)
    monkeypatch.setattr(cyclotomic.CyclotomicInt, "to_integer", counted_readout)
    assert len(orbit_expand(10, 1)) == 7492
    assert walks == [268]  # one walk, with one target per orbit
    assert readouts == [10] * 268


def _outcome(fn, n, k, budget):
    try:
        return len(fn(n, k, budget))
    except (BudgetExceeded, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("n,k", [(3, 2), (1, 5), (0, 1), (2, 0)])
def test_orbit_expand_outcome_matches_walk(n, k):
    assert _outcome(orbit_expand, n, k, None) == _outcome(dedekind_expand, n, k, None)


@pytest.mark.parametrize("fn,n,k,bound", [
    (orbit_expand, 6, 1, 155),  # the walk's down-set: 155 count vectors, above the 80 keys
    (orbit_expand, 4, 2, 43),  # lambda_tilde_size(4, 2) keys, above the down-set at (4, 1)
    (orbit_expand, 3, 3, 19),
    (orbit_expand, 10, 1, 10_422),
    (dedekind_expand, 4, 3, 1_820),  # binom(kn + n, n) count vectors in the capped walk
])
def test_expansion_guard_boundary(fn, n, k, bound):
    groupdet._expansions.pop((n, k), None)
    assert _outcome(fn, n, k, bound - 1) == (
        BudgetExceeded, f"{bound} count vectors or map keys exceed the budget of {bound - 1}; "
                        "pass a larger budget to override")
    assert _outcome(fn, n, k, bound) == len(orbit_expand(n, k))


def test_orbit_expand_checks_the_orbit_cover(monkeypatch):
    monkeypatch.setattr(groupdet, "lambda_tilde_size", lambda n, k: lambda_tilde_size(n, k) + 1)
    with pytest.raises(AssertionError, match="orbits cover 80 keys"):
        orbit_expand(6, 1)


def test_orbit_expand_maps_pass_the_validating_constructor():
    """The fill and the product build their maps unchecked; the public constructor accepts them as they are."""
    for n, k in [(n, 1) for n in range(1, 11)] + [(n, 2) for n in range(1, 7)]:
        m = orbit_expand(n, k)
        terms = dict(m.items())
        assert 0 not in terms.values(), (n, k)
        assert m == MonomialMap(n, k * n, terms), (n, k)
    m = orbit_expand(7, 2)
    terms = list(m.items())
    random.Random(11).shuffle(terms)
    assert MonomialMap(7, 14, dict(terms)).to_records() == m.to_records()


def test_affine_relabeling_sign_law_on_walk():
    """x_j -> x_(l*j + c) with gcd(l, n) = 1 multiplies each determinant
    coefficient by (-1)^(c(n-1)); this is the law orbit_expand relies on."""
    for n in range(1, 9):
        det = dedekind_expand(n, 1)
        for l in range(1, n + 1):
            if gcd(l, n) != 1:
                continue
            for c in range(n):
                sign = (-1) ** (c * (n - 1))
                for key, coeff in det.items():
                    new = [0] * n
                    for v, e in enumerate(key, start=1):
                        new[(l * v + c - 1) % n] += e
                    assert det.coefficient(new) == sign * coeff, (n, l, c, key)


def test_dedekind_keys_have_divisible_weight():
    for n, k in [(2, 1), (3, 1), (4, 1), (5, 1), (2, 2), (3, 2)]:
        for key in dedekind_expand(n, k):
            assert sum((i + 1) * e for i, e in enumerate(key)) % n == 0, (n, k, key)


def test_count_terms_examples():
    assert count_terms(3, 1) == (4, 4, True)
    assert count_terms(2, 1) == (2, 2, True)
    nu, upper, equal = count_terms(6, 1)
    assert upper == 80 and nu <= upper
    assert nu == 68 and not equal  # 12 coefficients vanish at n = 6
    # cross-check the surviving count against the evaluator route
    alive = sum(
        1 for lam in enumerate_partitions(6, 6)
        if sum(lam) % 6 == 0 and msp_value_dp(EvalInstance(lam, 6, 1)) != 0)
    assert alive == nu


def test_prime_term_count_values():
    assert [prime_term_count(p) for p in (2, 3, 5, 7)] == [2, 4, 26, 246]
    with pytest.raises(ValueError):
        prime_term_count(6)


def test_count_matches_prime_formula():
    for p in (2, 3, 5):
        tc = count_terms(p, 1)
        assert tc.nu == prime_term_count(p) and tc.equal


def test_exponent_key_round_trip():
    key = exponent_key((1, 1, 3), 3)
    assert key == (2, 0, 1)
    assert key_partition(key) == (1, 1, 3)
    for lam in enumerate_partitions(4, 4):
        assert key_partition(exponent_key(lam, 4)) == lam
    with pytest.raises(ValueError):
        exponent_key((0, 1), 3)


def test_monomial_map_validation_and_zero_drop():
    m = MonomialMap(2, 2, {(1, 1): 0, (2, 0): 5})
    assert len(m) == 1 and m.coefficient((1, 1)) == 0
    with pytest.raises(ValueError):
        MonomialMap(2, 2, {(1, 2): 1})
    with pytest.raises(ValueError):
        MonomialMap(2, 2, {(1,): 1})


def test_relabel_fixes_expansions():
    for n, k in [(5, 1), (6, 1), (4, 2)]:
        m = dedekind_expand(n, k)
        for l in range(2, n + 1):
            if __import__("math").gcd(l, n) == 1:
                assert m.relabel(l) == m, (n, k, l)
    with pytest.raises(ValueError):
        dedekind_expand(4, 1).relabel(2)


def _relabel_loop(m, l):
    """MonomialMap.relabel as first written: one key at a time, through the validating constructor."""
    n = m.n_vars
    out = {}
    for key, c in m.items():
        new = [0] * n
        for i, e in enumerate(key):
            if e:
                new[(l * (i + 1) - 1) % n] = e
        out[tuple(new)] = c
    return MonomialMap(n, m.degree, out)


def test_relabel_matches_the_key_loop():
    rng = random.Random(7)
    for n in range(1, 8):
        for degree in (1, n, 2 * n + 1):
            keys = {tuple(lam.count(v) for v in range(1, n + 1)) for lam in
                    (sorted(rng.randint(1, n) for _ in range(degree)) for _ in range(12))}
            m = MonomialMap(n, degree, {key: rng.randint(-5, 5) for key in keys})
            for l in range(-n, 2 * n + 2):
                if gcd(l, n) == 1:
                    assert m.relabel(l) == _relabel_loop(m, l), (n, degree, l)
                else:
                    with pytest.raises(ValueError):
                        m.relabel(l)


def test_membership_reads_the_stored_keys(monkeypatch):
    m = MonomialMap(3, 3, {(1, 1, 1): 0, (3, 0, 0): 2, (0, 1, 2): -1})
    monkeypatch.setattr(MonomialMap, "__iter__", None)  # `in` must not fall back to iteration
    assert (3, 0, 0) in m and [0, 1, 2] in m
    assert (1, 1, 1) not in m and (0, 0, 3) not in m


def _schoolbook_product(a, b):
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            key = tuple(x + y for x, y in zip(k1, k2))
            out[key] = out.get(key, 0) + c1 * c2
    return MonomialMap(a.n_vars, a.degree + b.degree, out)


def _random_map(rng, n, degree, size, big=False):
    terms = {}
    for _ in range(size):
        cuts = sorted(rng.randint(0, degree) for _ in range(n - 1))
        key = tuple(hi - lo for lo, hi in zip([0] + cuts, cuts + [degree]))
        c = rng.randrange(2 ** 64, 2 ** 70) if big else rng.randrange(1, 6)
        terms[key] = c if rng.random() < 0.5 else -c
    return MonomialMap(n, degree, terms)


@pytest.mark.parametrize("n,d1,d2,size,big", [
    (1, 3, 4, 1, False), (1, 0, 5, 1, True), (2, 0, 0, 1, False), (3, 0, 6, 8, False),
    (4, 5, 0, 8, True), (2, 7, 9, 12, False), (5, 4, 4, 30, False), (5, 8, 8, 40, True),
    (8, 8, 8, 60, False), (12, 3, 5, 40, True), (3, 31, 33, 25, False)])
def test_packed_product_matches_schoolbook(n, d1, d2, size, big):
    rng = random.Random(n * 1000 + d1 * 37 + d2)
    for _ in range(5):
        a, b = _random_map(rng, n, d1, size, big), _random_map(rng, n, d2, size, big)
        assert a * b == _schoolbook_product(a, b), (a, b)
        assert b * a == a * b


def test_packed_product_field_width_edges():
    """Product keys that put the whole degree on one variable, beside keys
    whose neighbouring exponents are nonzero: the widest field value."""
    for degree in (1, 2, 3, 4, 7, 8, 15, 16):
        for n in (1, 2, 3, 4):
            for v in range(n):
                lone = [0] * n
                lone[v] = degree
                spread = [0] * n
                for i in range(degree):
                    spread[i % n] += 1
                a = MonomialMap(n, degree, {tuple(lone): 3, tuple(spread): -2})
                one = MonomialMap(n, 0, {(0,) * n: 1})
                assert a * one == _schoolbook_product(a, one) == a, (n, degree, v)
                b = MonomialMap(n, degree, {tuple(lone): 1, tuple(reversed(spread)): 5})
                assert a * b == _schoolbook_product(a, b), (n, degree, v)


def test_packed_product_drops_cancelled_terms():
    plus = MonomialMap(2, 1, {(1, 0): 1, (0, 1): 1})
    minus = MonomialMap(2, 1, {(1, 0): 1, (0, 1): -1})
    assert dict((plus * minus).items()) == {(2, 0): 1, (0, 2): -1}
    big = 2 ** 80
    a = MonomialMap(3, 2, {(2, 0, 0): big, (1, 1, 0): -big})
    b = MonomialMap(3, 1, {(0, 1, 0): 1, (1, 0, 0): 1})
    assert dict((a * b).items()) == {(3, 0, 0): big, (1, 2, 0): -big}
    assert a * b == _schoolbook_product(a, b)
    empty = MonomialMap(3, 4, {})
    assert len(a * empty) == 0 and (a * empty).degree == 6


def test_packed_product_prop21_degree_zero_chain():
    """verify's prop21 folds e_lambda starting from the degree-0 map es[0]."""
    from functools import reduce
    from itertools import combinations
    n = 4
    es = [MonomialMap(n, r, {tuple(int(i in s) for i in range(n)): 1 for s in combinations(range(n), r)})
          for r in range(n + 1)]
    lam = (0, 1, 2, 2, 4)
    assert reduce(MonomialMap.__mul__, (es[p] for p in lam if p), es[0]) == reduce(
        _schoolbook_product, (es[p] for p in lam if p), es[0])


@pytest.mark.parametrize("n", range(4, 9))
def test_square_matches_schoolbook(n):
    det = orbit_expand(n, 1)
    twin = MonomialMap(n, n, dict(det.items()))  # equal to det but not det: the general product
    square = det * det
    assert square == _schoolbook_product(det, det) == det * twin
    assert square.degree == 2 * n


def test_square_with_negative_and_odd_coefficients():
    a = MonomialMap(2, 1, {(1, 0): -3, (0, 1): 5})
    assert dict((a * a).items()) == {(2, 0): 9, (1, 1): -30, (0, 2): 25}
    rng = random.Random(44)
    for n, degree, size, big in [(1, 3, 1, False), (3, 0, 1, True), (3, 4, 12, False),
                                 (5, 6, 40, False), (4, 5, 30, True)]:
        m = _random_map(rng, n, degree, size, big)
        assert any(c < 0 for _, c in m.items()) or len(m) == 1
        assert m * m == _schoolbook_product(m, m) == m * MonomialMap(n, degree, dict(m.items())), m


def _inversion_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def test_leibniz_matches_literal_permutation_sum():
    """The grouped row expansion against the permutation sum written out, signed by inversions."""
    for n in range(1, 8):
        want = {}
        for perm in permutations(range(1, n + 1)):
            key = [0] * n
            for i, s in enumerate(perm, start=1):
                key[(i - s - 1) % n] += 1
            want[tuple(key)] = want.get(tuple(key), 0) + _inversion_sign(perm)
        assert dict(leibniz_determinant(n).items()) == {key: c for key, c in want.items() if c}, n


def _records_by_sorted_partition(m):
    """The export order as it was first defined: sort the partitions themselves."""
    recs = sorted((key_partition(key), c) for key, c in m.items())
    return [(format_partition(p), c) for p, c in recs]


@pytest.mark.parametrize("n,k", [(10, 1), (3, 3), (6, 3), (2, 5)])
def test_records_order_matches_sorted_partitions(n, k):
    m = orbit_expand(n, k)
    assert m.to_records() == _records_by_sorted_partition(m)


def test_records_order_with_two_digit_labels():
    rng = random.Random(12)
    for n, degree in [(10, 3), (12, 5), (13, 1), (11, 0)]:
        m = _random_map(rng, n, degree, 200, big=True)
        assert m.to_records() == _records_by_sorted_partition(m), (n, degree)


def test_records_sorted_by_partition():
    records = dedekind_expand(3, 1).to_records()
    assert records == [("1,1,1", 1), ("1,2,3", -3), ("2,2,2", 1), ("3,3,3", 1)]
    texts = [t for t, _ in dedekind_expand(5, 1).to_records()]
    assert texts == sorted(texts, key=lambda s: tuple(int(x) for x in s.split(",")))


def test_clear_caches_empties_every_memo():
    dedekind_expand(4, 1)
    msp_value_dp(EvalInstance((1, 1, 2, 2), 2, 2))
    cyclotomic.CyclotomicInt(12, [1] * 12).canonical_form()
    memos = (msp._dp_value, cyclotomic.cyclotomic_poly, cyclotomic._reduction_rows)
    assert groupdet._expansions and all(memo.cache_info().currsize for memo in memos)
    msproots.clear_caches()
    assert not groupdet._expansions
    assert [memo.cache_info().currsize for memo in memos] == [0, 0, 0]
