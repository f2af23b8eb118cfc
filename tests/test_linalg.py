"""The fraction-free kernel in `skewmori.linalg` against sympy as an oracle."""

import random
from fractions import Fraction
from math import gcd

import pytest
import sympy

from skewmori import linalg


def sym(rows, ncols):
    return sympy.Matrix(len(rows), ncols,
                        [sympy.Rational(x.numerator, x.denominator)
                         for row in rows for x in map(Fraction, row)])


def frac(x):
    return Fraction(int(x.p), int(x.q))


def random_matrix(rng, nrows, ncols, rank=None, rational=False):
    """Seeded matrix of at most the given rank (a product of two random factors)."""
    rank = min(nrows, ncols) if rank is None else rank
    left = [[rng.randint(-4, 4) for _ in range(rank)] for _ in range(nrows)]
    right = [[rng.randint(-4, 4) * (rng.random() < 0.8) for _ in range(ncols)]
             for _ in range(rank)]
    rows = [[sum(row[k] * right[k][j] for k in range(rank)) for j in range(ncols)]
            for row in left]
    if rational:
        rows = [[Fraction(x, rng.randint(1, 6)) for x in row] for row in rows]
    return [tuple(row) for row in rows]


def cases(seed, count=60):
    """Square, wide and tall, full-rank and rank-deficient, integer and rational."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rank = rng.randint(0, min(nrows, ncols)) if i % 2 else None
        out.append(random_matrix(rng, nrows, ncols, rank, rational=i % 3 == 0))
    return out


SWAPS = [(0, 1), (1, 0)], [(0, 0, 1), (0, 2, 0), (3, 0, 0)], [(0, 0), (0, 5), (2, 1)]
NEGATIVE_LAST_PIVOT = [(1, 0, 1), (0, -1, 1)]
ZERO_ROWS = [(0, 0, 0), (1, 2, 3), (0, 0, 0)]


def unit_kernel(rows, ncols):
    """Kernel vectors with a 1 in their free coordinate, read off sympy's rref."""
    red, pivots = sym(rows, ncols).rref()
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -frac(red[i, f])
        basis.append(v)
    return basis


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rank_matches_sympy(seed):
    for rows in cases(seed) + list(SWAPS) + [NEGATIVE_LAST_PIVOT, ZERO_ROWS]:
        assert linalg.rank(rows) == sym(rows, len(rows[0])).rank(), rows


def test_rank_edge_cases():
    assert linalg.rank([]) == 0
    assert linalg.rank([(0, 0, 0)]) == 0
    assert linalg.rank(ZERO_ROWS) == 1


@pytest.mark.parametrize("seed", [3, 4])
def test_det_matches_sympy(seed):
    rng = random.Random(seed)
    for i in range(80):
        n = rng.randint(1, 6)
        rank = n if i % 3 else rng.randint(0, n)
        rows = random_matrix(rng, n, n, rank, rational=i % 2 == 0)
        got = linalg.det(rows)
        assert got == frac(sym(rows, n).det()), rows
        if i % 2:
            assert type(got) is int


def test_det_pivot_swaps_and_signs():
    assert linalg.det(SWAPS[0]) == -1
    assert linalg.det(SWAPS[1]) == -6
    assert linalg.det([(1, 0), (0, -1)]) == -1
    assert linalg.det([]) == 1
    assert linalg.det([(Fraction(1, 2), 0), (0, Fraction(2, 3))]) == Fraction(1, 3)
    with pytest.raises(ValueError):
        linalg.det([(1, 2)])


@pytest.mark.parametrize("seed", [5, 6])
def test_inverse_matches_sympy(seed):
    rng = random.Random(seed)
    tried = 0
    while tried < 40:
        n = rng.randint(1, 5)
        rows = random_matrix(rng, n, n, rational=tried % 2 == 0)
        if linalg.det(rows) == 0:
            continue
        expected = sym(rows, n).inv()
        got = linalg.inverse(rows)
        assert [[frac(expected[i, j]) for j in range(n)] for i in range(n)] == \
            [list(row) for row in got]
        tried += 1
    assert linalg.inverse(SWAPS[1]) == [(0, 0, Fraction(1, 3)), (0, Fraction(1, 2), 0),
                                        (1, 0, 0)]


def test_inverse_of_singular_matrix_raises():
    with pytest.raises(ValueError, match="singular"):
        linalg.inverse([(1, 2), (2, 4)])
    with pytest.raises(ValueError, match="singular"):
        linalg.inverse([(0, 0), (0, 0)])


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_kernel_basis_is_primitive_and_a_positive_multiple(seed):
    # Equal up to a positive factor to the basis a rational elimination gives,
    # the vectors with a 1 in their free coordinate.
    for rows in cases(seed) + list(SWAPS) + [NEGATIVE_LAST_PIVOT, ZERO_ROWS]:
        ncols = len(rows[0])
        basis = linalg.kernel_basis(rows, ncols)
        expected = unit_kernel(rows, ncols)
        assert len(basis) == len(expected) == ncols - linalg.rank(rows)
        for v, w in zip(basis, expected):
            assert all(type(x) is int for x in v) and gcd(*v) == 1
            assert all(linalg.dot(row, v) == 0 for row in rows)
            scale = next(a / b for a, b in zip(v, w) if b)
            assert scale > 0 and all(a == scale * b for a, b in zip(v, w))


def test_kernel_with_a_negative_last_pivot():
    red, pivots, sign = linalg.rref(NEGATIVE_LAST_PIVOT)
    assert red[-1][pivots[-1]] < 0 and sign == 1
    assert linalg.kernel_basis(NEGATIVE_LAST_PIVOT) == [(-1, 1, 1)]
    assert linalg.kernel_basis([], 2) == [(1, 0), (0, 1)]
    with pytest.raises(ValueError):
        linalg.kernel_basis([(1, 2, 3)], 2)


def test_rref_is_a_multiple_of_the_reduced_echelon_form():
    for rows in cases(10) + list(SWAPS):
        ncols = len(rows[0])
        red, pivots, _ = linalg.rref(rows)
        expected, sym_pivots = sym(rows, ncols).rref()
        assert pivots == list(sym_pivots) and len(red) == len(pivots)
        d = red[-1][pivots[-1]] if red else 1
        for i, row in enumerate(red):
            assert row[pivots[i]] == d
            assert [Fraction(x, d) for x in row] == [frac(expected[i, j]) for j in range(ncols)]
    assert linalg.rref(SWAPS[0])[2] == -1


def test_echelon_form_keeps_pivots_sign_and_last_pivot():
    for rows in cases(11) + list(SWAPS) + [ZERO_ROWS, NEGATIVE_LAST_PIVOT]:
        ncols = len(rows[0])
        full, pivots, sign = linalg.rref(rows)
        ech, ech_pivots, ech_sign = linalg.rref(rows, echelon=True)
        assert (ech_pivots, ech_sign, len(ech)) == (pivots, sign, len(full))
        if ech:
            assert ech[-1][pivots[-1]] == full[-1][pivots[-1]]
        for row, p in zip(ech, pivots):
            assert row[p] != 0 and not any(row[:p])
        for i, p in enumerate(pivots):
            assert all(row[p] == 0 for row in ech[i + 1:])
        assert sym(ech + full, ncols).rank() == len(pivots)


@pytest.mark.parametrize("rows", [[(1,), (3, 4)], [(1, 2), (3,)]])
def test_ragged_rows_are_refused(rows):
    for call in (lambda: linalg.rank(rows), lambda: linalg.rref(rows),
                 lambda: linalg.rref(rows, echelon=True)):
        with pytest.raises(ValueError, match="column count"):
            call()


def test_matmul_against_sympy():
    rng = random.Random(12)
    for i in range(40):
        n, k, m = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a = random_matrix(rng, n, k, rational=i % 2 == 0)
        b = random_matrix(rng, k, m, rational=i % 3 == 0)
        got = linalg.matmul(a, b)
        want = sym(a, k) * sym(b, m)
        assert [list(row) for row in got] == [[frac(want[r, c]) for c in range(m)]
                                              for r in range(n)]
        if i % 2 and i % 3:
            assert all(type(x) is int for row in got for x in row)
    with pytest.raises(ValueError):
        linalg.matmul([(1, 2)], [(1,), (2,), (3,)])


def test_floats_are_refused():
    for call in (lambda: linalg.rank([(0.5, 1)]), lambda: linalg.det([(1.0,)]),
                 lambda: linalg.primitive((1, 0.25))):
        with pytest.raises(ValueError, match="inexact"):
            call()


def test_primitive_and_dot():
    assert linalg.primitive((Fraction(1, 2), Fraction(-3, 4))) == (2, -3)
    assert linalg.primitive((0, -6, 4)) == (0, -3, 2)
    with pytest.raises(ValueError):
        linalg.primitive((0, 0))
    assert linalg.dot((1, 2, 3), (4, -5, 6)) == 12
    with pytest.raises(ValueError):
        linalg.dot((1, 2), (1, 2, 3))
