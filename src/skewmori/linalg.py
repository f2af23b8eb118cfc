"""Small exact linear algebra with one fraction-free elimination kernel.

Vectors are tuples and matrices are sequences of row tuples, with ``int``
or ``fractions.Fraction`` entries; anything else (a float in particular) is
refused with ``ValueError`` rather than rounded.  Every elimination is the
integer-preserving pass ``rref`` (Bareiss, "Sylvester's identity and
multistep integer-preserving Gaussian elimination", Math. Comp. 1968):
each row is scaled to integers first (rows the package already holds as
integers enter unchecked through ``_bareiss``) and every step divides
exactly by the previous pivot, so ``rank``, ``det`` and ``kernel_basis``
never leave the integers.  A step rewrites only the rows with a nonzero entry in its pivot
column: the others would merely be scaled by d/prev, so each row keeps the
pivot of the step that last rewrote it and is scaled up to date when it
becomes the pivot row or the reduction ends.  ``rank`` and ``det`` stop at
echelon form; only ``kernel_basis`` and ``inverse`` reduce fully.  A
quotient only appears where it is the answer: ``inverse``, ``matmul`` by a
fractional matrix and ``det`` of one.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul


def dot(u, v):
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum(map(mul, u, v))


def clear_denominators(v):
    """(integer tuple w, positive integer s) with w = s * v and s minimal."""
    if all(type(x) is int for x in v):
        return tuple(v), 1
    for x in v:
        if not isinstance(x, (int, Fraction)):
            raise ValueError(f"inexact entry {x!r}: use int or Fraction")
    scale = lcm(*(x.denominator for x in v))
    return tuple(x.numerator * (scale // x.denominator) for x in v), scale


def rref(rows, echelon=False):
    """Fraction-free Gauss-Jordan elimination; returns (rows, pivots, sign).

    ``rows`` are the nonzero rows of the eliminated integer matrix (after
    each input row is scaled to integers), ``pivots`` their pivot columns
    and ``sign`` the sign of the row permutation.  Every pivot entry equals
    the last pivot d, so the rows divided by d are the reduced row echelon
    form, and d is sign times the determinant of the scaled pivot minor.
    With ``echelon`` only the rows below each pivot are cleared, from the
    pivot column on (both rows are zero left of it): the pivots, the sign
    and d are the same, but the pivot entry of row i is the minor on the
    first i + 1 rows and pivot columns rather than d.  Ragged rows raise.

    Rows are rescaled lazily.  ``den[i]`` is the pivot of the last step
    that rewrote row i (1 before any step), and after a step with pivot d
    the Bareiss row is the stored row times d / den[i], an integer row: the
    factors d_k / d_(k-1) of the steps that skipped it multiply out to that
    ratio.  So a step with pivot row y rewrites each row x whose entry f in
    the pivot column is nonzero as (d x - f y) / den[i], which is Bareiss's
    (d x' - f' y) / prev for the up-to-date x' = x prev / den[i], and leaves
    every other row alone.  The pivot row is brought up to date first, and
    full reduction rescales any row that still lags at the end.
    """
    m = [clear_denominators(row)[0] for row in rows]
    if any(len(row) != len(m[0]) for row in m):
        raise ValueError("rows do not match the column count")
    return _bareiss(m, echelon)


def _bareiss(m, echelon=False):
    """``rref`` on a list of integer row tuples of one length, unchecked; rewrites m."""
    den = [1] * len(m)
    pivots, sign, prev, r = [], 1, 1, 0
    for c in range(len(m[0]) if m else 0):
        if r == len(m):
            break
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
            den[r], den[p] = den[p], den[r]
            sign = -sign
        if den[r] != prev:
            e = den[r]
            m[r] = tuple([x * prev // e for x in m[r]])
        row, d, lo = m[r], m[r][c], c if echelon else 0
        den[r], tail = d, row[lo:]
        for i in range(r + 1, len(m)) if echelon else range(len(m)):
            f = m[i][c]
            if f and i != r:
                e, den[i] = den[i], d
                m[i] = m[i][:lo] + tuple([(d * x - f * y) // e for x, y in zip(m[i][lo:], tail)])
        pivots.append(c)
        prev = d
        r += 1
    if not echelon:
        m[:r] = [row if e == prev else tuple([x * prev // e for x in row])
                 for row, e in zip(m[:r], den)]
    return m[:r], pivots, sign


def rank(rows) -> int:
    return len(rref(rows, echelon=True)[0])


def kernel_basis(rows, ncols=None):
    """Primitive integer basis of {x : A x = 0} for the matrix A with the given rows."""
    if ncols is None:
        if not rows:
            raise ValueError("ncols required for an empty matrix")
        ncols = len(rows[0])
    if any(len(row) != ncols for row in rows):
        raise ValueError("rows do not match the column count")
    red, pivots, _ = rref(rows)
    d = red[-1][pivots[-1]] if red else 1
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [0] * ncols
        v[f] = abs(d)
        for row, p in zip(red, pivots):
            v[p] = -row[f] if d > 0 else row[f]
        basis.append(primitive(v))
    return basis


def det(rows):
    """Exact determinant: an int for integer input, a Fraction otherwise."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant of a non-square matrix")
    cleared = [clear_denominators(row) for row in rows]
    red, pivots, sign = _bareiss([row for row, _ in cleared], echelon=True)
    if len(pivots) < n:
        return 0
    d = sign * red[-1][-1] if n else 1
    scale = prod(s for _, s in cleared)
    return d if scale == 1 else Fraction(d, scale)


def inverse(rows):
    """Exact matrix inverse; raises ValueError on singular input."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("inverse of a non-square matrix")
    red, pivots, _ = rref([tuple(row) + tuple(int(i == j) for j in range(n))
                           for i, row in enumerate(rows)])
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    d = red[-1][n - 1] if n else 1
    return [tuple(Fraction(x, d) for x in row[n:]) for row in red]


def matmul(a, b):
    """Exact product; each column of b is scaled to integers once, not per term."""
    cols = [clear_denominators(col) for col in zip(*b)]
    return [tuple(dot(row, ints) if s == 1 else Fraction(dot(row, ints), s)
                  for ints, s in cols) for row in a]


def primitive(v):
    """Scale a nonzero rational vector to coprime integers, keeping direction."""
    ints, _ = clear_denominators(v)
    g = gcd(*ints)
    if g == 0:
        raise ValueError("primitive form of the zero vector")
    return tuple(x // g for x in ints)


def sign_normalize(v):
    """Primitive form with the first nonzero entry positive (unoriented normals)."""
    p = primitive(v)
    lead = next(x for x in p if x != 0)
    return p if lead > 0 else tuple(-x for x in p)


class Record:
    """Immutable ``_fields``, equal only within one class, hashed and shown by value.

    The package's one value type: cones, skew matrices, polynomials, classes,
    chambers and regions.  Each subclass's slot setters are collected once, so
    a record is built with one call per field; copy and pickle rebuild through
    ``_make``, as the values were checked when the original was built.
    """

    __slots__ = _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)

    def __init__(self, *values):
        if len(values) != len(self._setters):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} values")
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

    @classmethod
    def _make(cls, *values):
        """The record with these field values, skipping ``cls.__init__``'s checks."""
        record = object.__new__(cls)
        Record.__init__(record, *values)
        return record

    def __setattr__(self, *args):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __reduce__(self):
        return self._make, self._values()

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"
