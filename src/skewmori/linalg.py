"""Small exact linear algebra over the rationals.

Vectors are tuples of ``fractions.Fraction`` (integers are accepted and
coerced), matrices are sequences of such row tuples.  Ambient dimensions in
this package stay tiny (at most a few dozen), so dense fraction Gaussian
elimination is all that is ever needed; nothing here uses floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Vector = tuple  # tuple[Fraction, ...] in practice


def vec(entries) -> Vector:
    return tuple(Fraction(e) for e in entries)


def dot(u, v) -> Fraction:
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v)), Fraction(0))


def is_zero_vector(v) -> bool:
    return all(x == 0 for x in v)


def rref(rows):
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    m = [list(map(Fraction, row)) for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return [tuple(row) for row in m[:r]], pivots


def rank(rows) -> int:
    return len(rref(rows)[0])


def kernel_basis(rows, ncols=None):
    """Basis of {x : A x = 0} for the matrix A with the given rows."""
    rows = [tuple(map(Fraction, row)) for row in rows]
    if ncols is None:
        if not rows:
            raise ValueError("ncols required for an empty matrix")
        ncols = len(rows[0])
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        basis.append(tuple(v))
    return basis


def det(rows) -> Fraction:
    m = [list(map(Fraction, row)) for row in rows]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant of a non-square matrix")
    result = Fraction(1)
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            result = -result
        result *= m[c][c]
        pv = m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] / pv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return result


def inverse(rows):
    """Exact matrix inverse; raises ValueError on singular input."""
    n = len(rows)
    m = [list(map(Fraction, row)) + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot_row is None:
            raise ValueError("singular matrix")
        m[c], m[pivot_row] = m[pivot_row], m[c]
        pv = m[c][c]
        m[c] = [x / pv for x in m[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return [tuple(row[n:]) for row in m]


def matmul(a, b):
    bt = list(zip(*b))
    return [tuple(dot(row, col) for col in bt) for row in a]


def primitive(v):
    """Scale a nonzero rational vector to coprime integers, keeping direction."""
    fr = [Fraction(x) for x in v]
    if all(x == 0 for x in fr):
        raise ValueError("primitive form of the zero vector")
    mult = lcm(*(x.denominator for x in fr)) if fr else 1
    ints = [int(x * mult) for x in fr]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def sign_normalize(v):
    """Primitive form with the first nonzero entry positive (unoriented normals)."""
    p = primitive(v)
    lead = next(x for x in p if x != 0)
    return p if lead > 0 else tuple(-x for x in p)
