"""Exact oracles used only by the tests: a general matrix inverse, against which
`skew_inverse` is checked, strict membership in the interior of a cone, the
Pfaffian by first-row expansion, against which `pfaffian_value` is checked, and
the plane masks and chunk entries of the chamber engine's sign layout, from dot
products and built cones."""

from fractions import Fraction
from functools import cache

from skewmori import linalg
from skewmori.cones import Cone
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


def planes_through(config, x):
    """The mask of the spanned planes h of a degree configuration with h.x = 0."""
    return sum(1 << k for k, h in enumerate(config.planes) if linalg.dot(h, x) == 0)


class DotOracle:
    """Per degree configuration, the built cone of each kept basis and, per signed
    plane normal g, the degrees N_g = {v : g.v < 0}, each from dot products."""

    def __init__(self, config):
        self.config = config
        self.cones = [Cone.from_generators([config.vectors[i] for i in range(len(config.vectors))
                                            if mask >> i & 1])
                      for mask, _ in config.bases]
        self.below = {g: frozenset(i for i, v in enumerate(config.vectors) if linalg.dot(g, v) < 0)
                      for g in config.normals}
        self.empty = [s for g, s in self.below.items() if linalg.dot(g, config.polarization) < 0]
        self.bases_on = {}  # per normal, the mask of the built cones with that facet
        for i, cone in enumerate(self.cones):
            for f in cone.facets:
                self.bases_on[f] = self.bases_on.get(f, 0) | 1 << i

    @cache
    def labels(self, mask):
        """The labels of the families whose degrees the degree mask holds."""
        return frozenset(label for label, degree in self.config.families
                         if mask >> self.config.vectors.index(degree) & 1)

    def nonempty(self, s):
        return bool(s) and not any(e <= s for e in self.empty)

    def signature(self, x):
        """The minimal N_g with g.x < 0 that hold no N_h with h.p < 0, as labels."""
        sets = {s for g, s in self.below.items() if linalg.dot(g, x) < 0}
        sets = {s for s in sets if self.nonempty(s)}
        return frozenset(frozenset().union(*(self.config.owners[i] for i in s))
                         for s in sets if not any(t < s for t in sets))

    @cache
    def entry(self, j, key):
        """The chunk entry of the sign bytes ``key`` (0x00, 0x80, 0xc0 where h.x < 0,
        = 0, > 0) of the planes j, j + 1, ...: the masks of the kept bases with a
        facet normal +-h_k negative (cut) or zero (tight) at those signs, and the
        degree masks of the nonempty N_g of the normals g negative there."""
        cut = tight = 0
        cocircuits = set()
        for k, s in enumerate(key, j):
            h = self.config.planes[k]
            sign = {0x00: -1, 0x80: 0, 0xc0: 1}[s]
            for g, value in ((h, sign), (tuple(-x for x in h), -sign)):
                if value < 0 and self.nonempty(self.below[g]):
                    cocircuits.add(sum(1 << i for i in self.below[g]))
                cut |= self.bases_on.get(g, 0) if value < 0 else 0
                tight |= self.bases_on.get(g, 0) if value == 0 else 0
        return cut, tight, frozenset(cocircuits)
