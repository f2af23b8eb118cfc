"""Exact rational polyhedral cones with double (generator/facet) descriptions.

Conversion between the two descriptions runs the double description method
in integers: rational input is scaled to primitive integer vectors, then
constraints are added one at a time to a (lineality, rays) pair whose
vectors stay primitive integer tuples.  The sets of constraints the rays
are tight on decide ray adjacency, with no elimination, and give the
irredundant constraints of a full-dimensional cone.  So one pass over the
generators of a pointed cone C canonicalises it, even when C is
lower-dimensional: the pass computes the dual cone, whose lineality is
C^perp, and every generator vanishes on C^perp, so a generator's tight set
over the dual's rays does not depend on which representative of each ray
the pass returned.  C is pointed iff no generator is tight on every dual
ray, and then its extremal rays are the generators with inclusion-maximal
tight sets.  Only a non-pointed cone takes a second pass.  Floats are
refused, so membership, duality and intersection are exact.

Extremal rays are kept in canonical primitive integer form and sorted
lexicographically, which makes every operation deterministic and lets two
pointed cones be compared by their rays alone.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd
from operator import mul

from . import linalg
from .linalg import Record, clear_denominators, dot, primitive, sign_normalize


def _unit(rank, i):
    return tuple(int(j == i) for j in range(rank))


def _both_signs(vectors):
    return [w for v in vectors for w in (v, tuple(-x for x in v))]


def _reduce(v):
    """Primitive form of a nonzero integer vector (no denominators to clear)."""
    g = gcd(*v)
    return tuple(v) if g == 1 else tuple(x // g for x in v)


def _double_description(normals, ambient_rank):
    """Lineality basis and extremal rays of {x : a.x >= 0 for all a}.

    The normals are integer vectors; each nonzero one is scaled to a
    primitive vector first.  Returns (lineality, rays, tight): lists of
    primitive integer tuples, the rays sorted and extremal modulo the
    lineality space, and for each ray the bitmask of the indices, among the
    nonzero normals only, of the normals it is tight on (bit i for the i-th).
    Two rays are adjacent iff no third ray is tight on every normal both are
    tight on (Fukuda-Prodon, "Double description method revisited", 1996).
    """
    lin = [_unit(ambient_rank, i) for i in range(ambient_rank)]
    rays = []  # (vector, bitmask of tight constraint indices)
    idx = -1  # index of the current normal among the nonzero ones

    for a in normals:
        if not any(a):
            continue
        a = _reduce(a)
        idx += 1
        bit = 1 << idx

        values = [sum(map(mul, a, l)) for l in lin]
        pivot = next((i for i, v in enumerate(values) if v), None)
        if pivot is not None:
            l0, v0 = lin[pivot], values[pivot]
            if v0 < 0:
                l0 = tuple(-x for x in l0)
                v0 = -v0
            # a primitive vector with a.l = 0 would combine and reduce to itself
            lin = [l if not vl else _reduce([v0 * x - vl * y for x, y in zip(l, l0)])
                   for i, (l, vl) in enumerate(zip(lin, values)) if i != pivot]
            new_rays = []
            for r, tight in rays:
                vr = sum(map(mul, a, r))
                if not vr:
                    new_rays.append((r, tight | bit))
                    continue
                r2 = [v0 * x - vr * y for x, y in zip(r, l0)]
                if any(r2):
                    new_rays.append((_reduce(r2), tight | bit))
            new_rays.append((l0, bit - 1))  # tight on every earlier normal
            rays = list(dict(new_rays).items())
            continue

        plus, zero, minus = [], [], []
        for r, tight in rays:
            v = sum(map(mul, a, r))
            if v > 0:
                plus.append((r, tight, v))
            elif v == 0:
                zero.append((r, tight | bit))
            else:
                minus.append((r, tight, v))
        need = ambient_rank - len(lin) - 2
        new_rays = [(r, t) for r, t, _ in plus] + zero
        for rp, tp, vp in plus:
            for rm, tm, vm in minus:
                common = tp & tm
                if common.bit_count() < need:
                    continue
                # adjacent iff only rp and rm are tight on all of common: stop at a third
                holders = 0
                for _, t in rays:
                    if common & t == common:
                        holders += 1
                        if holders > 2:
                            break
                else:
                    w = tuple(vp * x - vm * y for x, y in zip(rm, rp))
                    new_rays.append((_reduce(w), common | bit))
        rays = list(dict(new_rays).items())

    lineality = []
    if lin:
        lin_rows, pivots, _ = linalg._bareiss(lin)
        lineality = [primitive(l if l[p] > 0 else [-x for x in l])
                     for l, p in zip(lin_rows, pivots)]
    rays.sort()
    return lineality, [r for r, _ in rays], [t for _, t in rays]


def _facets(normals, rays, tight):
    """Sorted primitive facet normals of {x : a.x >= 0}; None if it is lower-dimensional.

    ``rays`` and ``tight`` are a pass over ``normals``.  Every normal vanishes
    on the pass's lineality, so its set of tight rays does not depend on the
    representative of each ray modulo the lineality.  Unless a normal is
    tight on every ray (as all are if there is none), the cone is
    full-dimensional, and a facet's rays together with the lineality span
    its hyperplane: a normal tight on exactly those rays is the facet's
    normal, and the facets are the normals whose sets of tight rays are
    inclusion-maximal.
    """
    normals = [a for a in normals if any(a)]
    masks = [0] * len(normals)
    for j, t in enumerate(tight):
        while t:
            low = t & -t
            masks[low.bit_length() - 1] |= 1 << j
            t ^= low
    if (1 << len(rays)) - 1 in masks:
        return None
    kept = set()
    for m in sorted(set(masks), key=int.bit_count, reverse=True):
        if all(m & k != m for k in kept):
            kept.add(m)
    return sorted({primitive(a) for a, m in zip(normals, masks) if m in kept})


class Cone(Record):
    """A rational polyhedral cone through the origin.

    ``rays`` are the extremal rays (canonical primitive integers, sorted);
    ``facets`` are inward halfspace normals, with linear equalities stored
    as +/- pairs; ``lineality`` is a basis of the largest linear subspace
    contained in the cone (empty iff the cone is pointed).  Instances are
    immutable records, safe to share between threads.

    The extremal rays of a pointed cone are unique up to positive scaling,
    so in primitive form and sorted they are canonical: two pointed cones
    are equal iff their ambient ranks and ``rays`` are, and ``__eq__``
    compares them so.  A non-pointed cone's rays are representatives modulo
    the lineality, so any other pair is compared by mutual containment.
    """

    __slots__ = _fields = ("ambient_rank", "rays", "facets", "lineality")

    def __init__(self, ambient_rank, rays, facets, lineality=()):
        super().__init__(int(ambient_rank), tuple(rays), tuple(facets), tuple(lineality))

    @classmethod
    def from_generators(cls, vectors, ambient_rank=None):
        """Nonnegative hull of the given vectors.

        Redundant generators are dropped; the empty (or all-zero) list gives
        the zero cone, for which ``ambient_rank`` must be supplied.  One pass
        computes the dual: its rays, with its lineality (the cone's
        orthogonal complement) as +/- pairs, are the cone's facets.  Every
        generator vanishes on that lineality, so its tight set over the
        dual's rays is well defined, and when no generator is tight on every
        dual ray the cone is pointed and its rays are the dual's facets.
        Only a non-pointed cone takes a second pass, over its facets.
        """
        vs = [clear_denominators(v)[0] for v in vectors]
        if vs:
            ranks = {len(v) for v in vs}
            if len(ranks) != 1:
                raise ValueError("dimension mismatch among generators")
            if ambient_rank is not None and ambient_rank != ranks.pop():
                raise ValueError("generators do not match the ambient rank")
            ambient_rank = len(vs[0])
        elif ambient_rank is None:
            raise ValueError("ambient rank required for the zero cone")
        vs = [v for v in vs if any(v)]
        if not vs:
            units = [_unit(ambient_rank, i) for i in range(ambient_rank)]
            return cls(ambient_rank, (), sorted(_both_signs(units)), ())

        dual_lin, dual_rays, tight = _double_description(vs, ambient_rank)
        facets = sorted(dual_rays + _both_signs(dual_lin))
        rays = _facets(vs, dual_rays, tight)  # the dual's facets, if the cone is pointed
        if rays is not None:
            return cls(ambient_rank, rays, facets, ())
        lineality, rays, _ = _double_description(facets, ambient_rank)
        return cls(ambient_rank, rays, facets, lineality)

    @classmethod
    def from_inequalities(cls, normals, ambient_rank):
        """Cone {x : a.x >= 0 for every normal a}, canonicalized."""
        ns = [clear_denominators(a)[0] for a in normals]
        for a in ns:
            if len(a) != ambient_rank:
                raise ValueError("dimension mismatch among inequalities")
        lineality, rays, tight = _double_description(ns, ambient_rank)
        facets = None if lineality else _facets(ns, rays, tight)
        if facets is not None:
            return cls(ambient_rank, rays, facets, ())
        return cls.from_generators(rays + _both_signs(lineality), ambient_rank)

    @classmethod
    def zero(cls, ambient_rank):
        return cls.from_generators([], ambient_rank)

    @property
    def pointed(self):
        return not self.lineality

    def dim(self):
        return linalg.rank(self.rays + self.lineality)

    def contains(self, v):
        v, _ = clear_denominators(v)
        if len(v) != self.ambient_rank:
            raise ValueError("dimension mismatch")
        return all(dot(f, v) >= 0 for f in self.facets)

    def interior_contains(self, v):
        v, _ = clear_denominators(v)
        if len(v) != self.ambient_rank:
            raise ValueError("dimension mismatch")
        return all(dot(f, v) > 0 for f in self.facets)

    def is_subset(self, other):
        if self.ambient_rank != other.ambient_rank:
            raise ValueError("dimension mismatch")
        for r in self.rays:
            if not other.contains(r):
                return False
        for l in self.lineality:
            if not other.contains(l) or not other.contains(tuple(-x for x in l)):
                return False
        return True

    def __eq__(self, other):
        if not isinstance(other, Cone):
            return NotImplemented
        if self.pointed and other.pointed:  # canonical rays, see the class docstring
            return self.ambient_rank == other.ambient_rank and self.rays == other.rays
        return (self.ambient_rank == other.ambient_rank
                and self.is_subset(other) and other.is_subset(self))

    def __hash__(self):
        return hash((self.ambient_rank, self.rays, self.lineality))

    def dual(self):
        """Dual cone {y : y.x >= 0 for all x in self} under the dot product."""
        if not self.facets:
            return Cone.zero(self.ambient_rank)
        return Cone.from_generators(self.facets, self.ambient_rank)

    def intersect(self, other):
        if self.ambient_rank != other.ambient_rank:
            raise ValueError("dimension mismatch")
        return Cone.from_inequalities(self.facets + other.facets, self.ambient_rank)

    def interior_point(self):
        """Sum of the extremal rays; interior for full-dimensional pointed cones."""
        if not self.rays:
            raise ValueError("cone has no rays")
        return tuple(sum(c) for c in zip(*self.rays))

    def to_json(self):
        return {"rank": self.ambient_rank,
                "rays": [list(r) for r in self.rays],
                "facets": [list(f) for f in self.facets]}

    def __repr__(self):
        flag = "" if self.pointed else ", not pointed"
        return f"Cone(rank={self.ambient_rank}, rays={list(self.rays)}{flag})"


def nonneg_combination(vectors, target):
    """Exact coefficients c >= 0 with sum c_i v_i = target, or None.

    Phase-one simplex with Bland's rule over rationals.  This is deliberately
    independent of the facet machinery above so the two can cross-check each
    other (Farkas' lemma both ways).  Entries must be ``int`` or
    ``Fraction``; a float is refused with ``ValueError``.
    """
    for x in (*(x for v in vectors for x in v), *target):
        if not isinstance(x, (int, Fraction)):
            raise ValueError(f"inexact entry {x!r}: use int or Fraction")
    vs = [tuple(map(Fraction, v)) for v in vectors]
    t = tuple(map(Fraction, target))
    m = len(t)
    n = len(vs)
    for v in vs:
        if len(v) != m:
            raise ValueError("dimension mismatch")

    # rows: columns are [c_1..c_n | artificials | rhs]
    rows = []
    for i in range(m):
        coeffs = [vs[j][i] for j in range(n)]
        b = t[i]
        if b < 0:
            coeffs = [-x for x in coeffs]
            b = -b
        rows.append(coeffs + [Fraction(0)] * m + [b])
    for i in range(m):
        rows[i][n + i] = Fraction(1)
    basis = [n + i for i in range(m)]

    # objective row: minimize the sum of artificials; reduced costs of the
    # artificial columns start at 1 - 1 = 0
    z = [Fraction(0)] * (n + m + 1)
    for i in range(m):
        for j in range(n + m + 1):
            z[j] += rows[i][j]
    for i in range(m):
        z[n + i] = Fraction(0)

    while True:
        enter = next((j for j in range(n + m) if z[j] > 0), None)
        if enter is None:
            break
        ratios = [(rows[i][-1] / rows[i][enter], basis[i], i)
                  for i in range(m) if rows[i][enter] > 0]
        if not ratios:
            return None  # unbounded cannot occur in phase one, defensive
        _, _, leave = min(ratios)
        pv = rows[leave][enter]
        rows[leave] = [x / pv for x in rows[leave]]
        for i in range(m):
            if i != leave and rows[i][enter] != 0:
                f = rows[i][enter]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[leave])]
        f = z[enter]
        z = [x - f * y for x, y in zip(z, rows[leave])]
        basis[leave] = enter

    if any(rows[i][-1] != 0 for i in range(m) if basis[i] >= n):
        return None
    coeffs = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            coeffs[basis[i]] = rows[i][-1]
    return coeffs


def hyperplanes_spanned_by(vectors, ambient_rank):
    """Normals (sign-normalized) of all hyperplanes spanned by subsets of the vectors."""
    normals = set()
    for subset in combinations(vectors, ambient_rank - 1):
        kernel = linalg.kernel_basis(subset, ambient_rank)
        if len(kernel) == 1:
            normals.add(sign_normalize(kernel[0]))
    return sorted(normals)
