"""MonomialMap holds each key as one int; these tests check it against plain tuple-keyed dicts."""
import random
from math import gcd

import pytest

from msproots import groupdet
from msproots.groupdet import MonomialMap, relabelings


def _random_terms(rng, n, degree, size):
    terms = {}
    for _ in range(size):
        cuts = sorted(rng.randint(0, degree) for _ in range(n - 1))
        terms[tuple(hi - lo for lo, hi in zip([0] + cuts, cuts + [degree]))] = rng.choice([-1, 1]) * rng.randint(1, 9)
    return terms


def _product(a, b):
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            key = tuple(x + y for x, y in zip(k1, k2))
            out[key] = out.get(key, 0) + c1 * c2
    return {key: c for key, c in out.items() if c}


def _relabeled(terms, n, l):
    out = {}
    for key, c in terms.items():
        new = [0] * n
        for v, e in enumerate(key, start=1):
            new[(l * v - 1) % n] = e
        out[tuple(new)] = c
    return out


def _records(terms):
    recs = sorted((sum(([v + 1] * e for v, e in enumerate(key)), []), c) for key, c in terms.items())
    return [(",".join(map(str, p)), c) for p, c in recs]


def test_lookups_never_alias():
    """A key of the wrong length, with a negative entry or with an entry wider than its field is
    simply absent. Packed naively, one byte a field, (0, 257) and (2, -255) would both read (1, 1)."""
    m = MonomialMap(2, 2, {(1, 1): 7, (2, 0): 3})
    assert m.coefficient((1, 1)) == 7 and (1, 1) in m and [2, 0] in m
    for key in [(0, 257), (2, -255), (1, 1, 0), (1,), (), (3, -1), (-1, 3), (2, 2 ** 64)]:
        assert m.coefficient(key) == 0 and key not in m, key
        with pytest.raises(ValueError):
            MonomialMap(2, 2, {key: 1})
    wide = MonomialMap(2, 300, {(150, 150): 5})  # two-byte fields
    assert wide.coefficient((150, 150)) == 5
    assert wide.coefficient((0, 150 * 256 + 150)) == 0 and (0, 2 ** 16) not in wide


@pytest.mark.parametrize("n,d1,d2", [(1, 3, 4), (2, 5, 7), (3, 0, 4), (4, 6, 6), (6, 5, 9), (9, 9, 9), (13, 2, 3)])
def test_products_match_tuple_dicts(n, d1, d2):
    rng = random.Random(n * 100 + d1 * 10 + d2)
    a, b = _random_terms(rng, n, d1, 25), _random_terms(rng, n, d2, 25)
    ma, mb = MonomialMap(n, d1, a), MonomialMap(n, d2, b)
    assert dict((ma * mb).items()) == _product(a, b)
    assert dict((ma * ma).items()) == _product(a, a)
    assert (ma * mb).degree == d1 + d2


def test_product_past_one_byte_fields():
    """Degree 200 times degree 100 at n = 2: the factors hold one-byte fields, the product two-byte ones."""
    rng = random.Random(5)
    a, b = _random_terms(rng, 2, 200, 40), _random_terms(rng, 2, 100, 40)
    ma, mb = MonomialMap(2, 200, a), MonomialMap(2, 100, b)
    product = ma * mb
    assert (ma._layout.size, mb._layout.size, product._layout.size) == (2, 2, 4)
    assert dict(product.items()) == _product(a, b)
    assert dict((ma * ma).items()) == _product(a, a)
    assert product.to_records() == _records(_product(a, b))


def test_degree_zero_one_variable_and_empty_maps():
    one = MonomialMap(3, 0, {(0, 0, 0): 4})
    assert list(one) == [(0, 0, 0)] and dict((one * one).items()) == {(0, 0, 0): 16}
    single = MonomialMap(1, 5, {(5,): -2})
    assert dict((single * single).items()) == {(10,): 4} and single.relabel(1) == single
    assert single.to_records() == [("1,1,1,1,1", -2)]
    empty = MonomialMap(4, 6, {})
    assert len(empty) == 0 and list(empty) == [] and empty.to_records() == []
    assert len(empty * empty) == 0 and empty.relabel(3) == empty and (0, 0, 0, 6) not in empty


@pytest.mark.parametrize("n,degree", [(1, 4), (2, 3), (5, 7), (7, 12), (8, 8), (9, 30), (10, 10), (12, 300)])
def test_relabel_items_records_and_equality_match_tuple_dicts(n, degree):
    rng = random.Random(n * 1000 + degree)
    terms = _random_terms(rng, n, degree, 60)
    m = MonomialMap(n, degree, terms)
    assert dict(m.items()) == terms and sorted(m) == sorted(terms)
    assert all(type(key) is tuple for key in m) and all(type(key) is tuple for key, _ in m.items())
    assert m.to_records() == _records(terms)
    packed = {groupdet._pack(m._layout, key): c for key, c in terms.items()}
    assert MonomialMap._trusted(n, degree, packed) == m
    for l in range(1, n + 1):
        if gcd(l, n) == 1:
            assert dict(m.relabel(l).items()) == _relabeled(terms, n, l), l
            assert m.relabel(l) == MonomialMap(n, degree, _relabeled(terms, n, l)), l


def test_packed_orbit_images_are_the_relabelings():
    """The scaled images packed once and rotated by whole fields are relabelings(n, k)'s images, in order."""
    rng = random.Random(3)
    for n in range(1, 10):
        for k in (1, 2, 3):
            layout, images = groupdet._layout(n, k * n), groupdet._packed_images(n, k * n)
            maps = relabelings(n, k)
            for key in _random_terms(rng, n, k * n, 20):
                got = list(zip(images(key), [sign for _, sign in maps]))
                assert got == [(groupdet._pack(layout, image(key)), sign) for image, sign in maps], (n, k, key)
                assert [layout.unpack(x.to_bytes(layout.size, "big")) for x, _ in got] == [
                    tuple(image(key)) for image, _ in maps], (n, k, key)
