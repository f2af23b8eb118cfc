"""Exact oracles used only by the tests: a general matrix inverse, against which
`skew_inverse` is checked, and strict membership in the interior of a cone."""

from fractions import Fraction

from skewmori import linalg


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
