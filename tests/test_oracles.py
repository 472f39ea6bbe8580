"""The package against sympy, an oracle it did not write."""
import random

import pytest

from msproots.cyclotomic import CyclotomicInt, cyclotomic_poly
from msproots.groupdet import dedekind_expand, leibniz_determinant

sympy = pytest.importorskip("sympy")


def test_cyclotomic_poly_matches_sympy():
    x = sympy.Symbol("x")
    for n in range(1, 61):
        want = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
        assert list(cyclotomic_poly(n)) == want, n


def test_canonical_form_matches_sympy_remainder():
    x = sympy.Symbol("x")
    rng = random.Random(7)
    for n in range(1, 31):
        phi = sympy.Poly(sympy.cyclotomic_poly(n, x), x)
        for _ in range(5):
            vec = [rng.randrange(-50, 51) for _ in range(n)]
            rem = sympy.rem(sympy.Poly(vec[::-1], x), phi).all_coeffs()[::-1]
            want = tuple(rem) + (0,) * (phi.degree() - len(rem))
            assert CyclotomicInt(n, vec).canonical_form() == want, (n, vec)


def test_circulant_determinant_matches_sympy():
    for n in range(1, 7):
        xs = sympy.symbols(f"x1:{n + 1}")
        # entry (i, s) is x_r with r the representative of i - s mod n in 1..n
        matrix = sympy.Matrix(n, n, lambda i, s: xs[(i - s - 1) % n])
        # berkowitz: the default, bareiss, is about 15x slower at n = 6
        want = sympy.Poly(matrix.det(method="berkowitz"), *xs).as_dict()
        assert dict(leibniz_determinant(n).items()) == want, n
        assert dict(dedekind_expand(n, 1).items()) == want, n


def test_modular_elimination_matches_sympy_det():
    from msproots.verify import EVALUATION_PRIME, _det_mod

    rng = random.Random(11)
    matrices = [[[0, 1], [1, 0]], [[0, 0], [0, 5]], [[2, 4], [1, 2]]]  # a row swap, a zero column, rank 1
    for n in range(1, 7):
        matrices += [[[rng.randrange(-EVALUATION_PRIME, EVALUATION_PRIME) for _ in range(n)] for _ in range(n)]
                     for _ in range(4)]
        matrices.append([[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)])
    for rows in matrices:
        assert _det_mod(rows, EVALUATION_PRIME) == sympy.Matrix(rows).det() % EVALUATION_PRIME, rows
