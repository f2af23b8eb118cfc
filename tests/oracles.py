"""Exact oracles used only by the tests: a general matrix inverse, against which
`skew_inverse` is checked, strict membership in the interior of a cone, and the
Pfaffian by first-row expansion, against which `pfaffian_value` is checked."""

from fractions import Fraction

from skewmori import linalg
from skewmori.pfaffian import _check_index_set


def inverse(rows):
    """Exact matrix inverse from one full fraction-free reduction of [A | I];
    raises ValueError on singular input."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("inverse of a non-square matrix")
    red, pivots, _ = linalg.rref([tuple(row) + tuple(int(i == j) for j in range(n))
                                  for i, row in enumerate(rows)])
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    d = red[-1][n - 1] if n else 1
    return [tuple(Fraction(x, d) for x in row[n:]) for row in red]


def interior_contains(cone, v):
    """Whether v is positive on every facet normal of the cone."""
    v, _ = linalg.clear_denominators(v)
    if len(v) != cone.ambient_rank:
        raise ValueError("dimension mismatch")
    return all(linalg.dot(f, v) > 0 for f in cone.facets)


def pfaffian_by_expansion(matrix, indices=None):
    """Exact Pfaffian of a principal minor by first-row expansion, memoised per
    index subset: pf(I) = sum_p (-1)^(p-1) z_(i0, ip) pf(I without i0, ip)."""
    if indices is None:
        indices = range(matrix.size)
    idx = _check_index_set(matrix.size - 1, indices)
    memo = {}

    def pf(I):
        if not I:
            return 1
        if I not in memo:
            total = 0
            for pos in range(1, len(I)):
                z = matrix.entry(I[0], I[pos])
                if z:
                    term = z * pf(I[1:pos] + I[pos + 1:])
                    total += term if pos % 2 else -term
            memo[I] = total
        return memo[I]

    return pf(idx)
