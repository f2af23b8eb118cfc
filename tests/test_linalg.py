"""The fraction-free kernel in `skewmori.linalg` against sympy as an oracle."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
import sympy

from oracles import inverse
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
        got = inverse(rows)
        assert [[frac(expected[i, j]) for j in range(n)] for i in range(n)] == \
            [list(row) for row in got]
        tried += 1
    assert inverse(SWAPS[1]) == [(0, 0, Fraction(1, 3)), (0, Fraction(1, 2), 0), (1, 0, 0)]


def test_inverse_of_singular_matrix_raises():
    with pytest.raises(ValueError, match="singular"):
        inverse([(1, 2), (2, 4)])
    with pytest.raises(ValueError, match="singular"):
        inverse([(0, 0), (0, 0)])


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


def textbook_rref(rows, echelon=False):
    """Bareiss elimination that rewrites every other row at every step: the oracle."""
    m = [linalg.clear_denominators(row)[0] for row in rows]
    pivots, sign, prev, r = [], 1, 1, 0
    for c in range(len(m[0]) if m else 0):
        if r == len(m):
            break
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
            sign = -sign
        row, d, lo = m[r], m[r][c], c if echelon else 0
        for i in range(r + 1, len(m)) if echelon else range(len(m)):
            if i != r:
                f = m[i][c]
                m[i] = m[i][:lo] + tuple((d * x - f * y) // prev for x, y in zip(m[i][lo:], row[lo:]))
        pivots.append(c)
        prev = d
        r += 1
    return m[:r], pivots, sign


def sparse_matrix(rng, nrows, ncols, density, rational=False):
    rows = [[rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(ncols)]
            for _ in range(nrows)]
    for _ in range(rng.randint(0, 2)):  # repeated and zero rows
        i, j = rng.randrange(nrows), rng.randrange(nrows)
        rows[i] = list(rows[j]) if rng.random() < 0.5 else [0] * ncols
    if rational:
        rows = [[Fraction(x, rng.randint(1, 6)) for x in row] for row in rows]
    return [tuple(row) for row in rows]


def terracini_matrix(rng, n, h, bound):
    """terracini_dims's rows: x ^ e_m and y ^ e_m for h random pairs (x, y) and every m,
    at the pairs i < j <= n, where x ^ e_m has x_i at (i, m) and -x_j at (m, j)."""
    pairs = list(combinations(range(n + 1), 2))
    rows = []
    for _ in range(h):
        x, y = ([rng.randint(-bound, bound) for _ in range(n + 1)] for _ in range(2))
        for m in range(n + 1):
            rows += [tuple(v[i] if j == m else -v[j] if i == m else 0 for i, j in pairs)
                     for v in (x, y)]
    return rows


def oracle_cases():
    """Sparse (density 0.1-0.5), dense, wide, tall, rank-deficient, rational and Terracini."""
    rng = random.Random("sparse-bareiss")
    out = list(SWAPS) + [NEGATIVE_LAST_PIVOT, ZERO_ROWS]
    for i in range(400):
        nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
        if i % 4 == 0:
            nrows, ncols = rng.randint(8, 16), rng.randint(1, 5)
        elif i % 4 == 1:
            nrows, ncols = rng.randint(1, 5), rng.randint(8, 16)
        density = rng.choice([0.1, 0.2, 0.3, 0.4, 0.5, 1.0])
        out.append(sparse_matrix(rng, nrows, ncols, density, rational=i % 5 == 0))
    out += cases(13)
    out += [terracini_matrix(rng, n, h, bound) for n in range(2, 9)
            for h in range(1, (n + 1) // 2 + 1) for bound in (1, 100)]
    return out


@pytest.mark.parametrize("echelon", [False, True])
def test_rref_matches_the_textbook_elimination(echelon):
    # skipping the rows a step would only rescale leaves every output unchanged
    for rows in oracle_cases():
        assert linalg.rref(rows, echelon) == textbook_rref(rows, echelon), rows


def test_bareiss_on_skipped_rows_and_unit_divisors():
    # entries in -1..2 give rows a step skips (a zero in its pivot column), echelon
    # rows cleared behind a zero prefix, and later steps dividing by 1
    rng = random.Random("unit-divisors")
    skipped = unit = 0
    for _ in range(300):
        nrows, ncols = rng.randint(2, 8), rng.randint(2, 8)
        rows = [tuple(rng.choice((-1, 0, 0, 1, 2)) for _ in range(ncols)) for _ in range(nrows)]
        for echelon in (False, True):
            assert linalg._bareiss(list(rows), echelon) == textbook_rref(rows, echelon), rows
        ech, pivots, _ = textbook_rref(rows, echelon=True)
        if pivots:  # a row below the first pivot row with a zero in the first pivot column
            column = [row[pivots[0]] for row in rows]
            skipped += 0 in column[column.index(next(filter(None, column))) + 1:]
        unit += any(row[p] == 1 for row, p in zip(ech[:-1], pivots))
    assert skipped >= 100 and unit >= 100, (skipped, unit)


def pivot_order(rows):
    """The row order rref's pivot rule gives, found by rational elimination."""
    m, order, r = [list(map(Fraction, row)) for row in rows], list(range(len(rows))), 0
    for c in range(len(m[0]) if m else 0):
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p], order[r], order[p] = m[p], m[r], order[p], order[r]
        for i in range(r + 1, len(m)):
            f = m[i][c] / m[r][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return order


def test_echelon_pivot_entries_are_leading_minors():
    # row i's pivot entry is the minor of the scaled, row-permuted matrix on
    # its first i + 1 rows and pivot columns
    for rows in oracle_cases()[:200]:
        ech, pivots, _ = linalg.rref(rows, echelon=True)
        scaled = [linalg.clear_denominators(row)[0] for row in rows]
        permuted = [scaled[i] for i in pivot_order(rows)]
        for i, p in enumerate(pivots):
            minor = sympy.Matrix([[permuted[a][b] for b in pivots[:i + 1]] for a in range(i + 1)])
            assert ech[i][p] == minor.det(), rows


@pytest.mark.parametrize("rows", [[(1,), (3, 4)], [(1, 2), (3,)]])
def test_ragged_rows_are_refused(rows):
    for call in (lambda: linalg.rank(rows), lambda: linalg.rref(rows),
                 lambda: linalg.rref(rows, echelon=True)):
        with pytest.raises(ValueError, match="column count"):
            call()


def test_matmul_against_sympy():
    rng = random.Random(12)
    types = Counter()
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
        # an int where the entry is integral, a Fraction only where it is not
        for x in (x for row in got for x in row):
            assert type(x) is (int if x.denominator == 1 else Fraction), (a, b)
            types[type(x), i % 3 == 0] += 1
    # integral and non-integral entries of products by a fractional matrix both occur
    assert types[int, True] >= 20 and types[Fraction, True] >= 20, types
    with pytest.raises(ValueError):
        linalg.matmul([(1, 2)], [(1,), (2,), (3,)])


def test_floats_are_refused():
    for call in (lambda: linalg.rank([(0.5, 1)]), lambda: linalg.det([(1.0,)]),
                 lambda: linalg.primitive((1, 0.25))):
        with pytest.raises(ValueError, match="inexact"):
            call()


def test_public_entries_validate_each_row_once(monkeypatch):
    # the elimination itself takes the cleared integer rows unchecked
    calls, real = [], linalg.clear_denominators
    monkeypatch.setattr(linalg, "clear_denominators", lambda v: calls.append(v) or real(v))
    rows = [(2, 1, 0), (1, Fraction(3, 2), 1), (0, 1, 4)]
    for entry in (linalg.rref, linalg.rank, linalg.det, linalg.kernel_basis):
        calls.clear()
        entry(rows)
        assert len(calls) == 3, entry


def test_primitive_and_dot():
    assert linalg.primitive((Fraction(1, 2), Fraction(-3, 4))) == (2, -3)
    assert linalg.primitive((0, -6, 4)) == (0, -3, 2)
    with pytest.raises(ValueError):
        linalg.primitive((0, 0))
    assert linalg.dot((1, 2, 3), (4, -5, 6)) == 12
    with pytest.raises(ValueError):
        linalg.dot((1, 2), (1, 2, 3))
