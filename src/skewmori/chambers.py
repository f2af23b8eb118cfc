"""Chamber decompositions of the effective cone of A(n).

The degrees of the total-coordinate-ring generators form a vector
configuration in the Picard lattice.  The chamber containing a divisor class
w is the intersection of all cones spanned by subsets of the configuration
that contain w.  The decomposition walks the chamber graph (Keicher,
"Computing the GIT-fan", 2012) from the chamber of the polarization, crossing
each facet inside the effective cone at one exact point past it, on the side
of the facet's ray sum of every spanned hyperplane missing that sum; the
crossed facets are the walls, and each chamber is canonicalized once.

Stable base loci are handled combinatorially.  A set G of generator families
is *forced* at w when w is not a nonnegative combination of the degrees of
the remaining families, i.e. every monomial of every multiple of w must use
a variable from G.  The common zero locus of a family union is nonempty in
the ambient toric model exactly when the same test fails at a polarization
class in the interior of the nef chamber; base loci are compared through the
antichain of minimal forced, nonempty family sets.  Two chambers belong to
the same stable-base-locus region iff these antichains agree, which can glue
chambers into non-convex regions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import combinations

from . import geometry
from .cones import Cone, hyperplanes_spanned_by
from .linalg import dot


@dataclass(frozen=True)
class GeneratorGroup:
    """One family of Cox generators sharing a degree: label, degree, count."""
    label: str
    degree: tuple
    multiplicity: int


class VectorConfiguration:
    """Degrees of the generator families plus the ambient effective cone.

    ``polarization`` is an interior point of the nef chamber; it pins down
    the ambient toric model and is used to discard family sets whose common
    zero locus is empty there.
    """

    def __init__(self, rank, groups, polarization):
        self.rank = int(rank)
        self.groups = tuple(groups)
        self.polarization = tuple(int(c) for c in polarization)
        self.vectors = sorted({g.degree for g in self.groups})
        self.ambient = Cone.from_generators(self.vectors, self.rank)
        for g in self.groups:
            if len(g.degree) != self.rank:
                raise ValueError("degree vector does not match the rank")
            if not self.ambient.contains(g.degree):
                raise ValueError("degree outside the ambient cone")
        self._subset_cones = {}
        self._labels = tuple(g.label for g in self.groups)
        if len(set(self._labels)) != len(self._labels):
            raise ValueError("duplicate group labels")

    def labels(self):
        return self._labels

    def subset_cone(self, vectors):
        key = frozenset(vectors)
        cone = self._subset_cones.get(key)
        if cone is None:
            cone = Cone.from_generators(sorted(key), self.rank)
            self._subset_cones[key] = cone
        return cone

    def cone_without(self, excluded_labels):
        """Hull of the degrees of every family outside the excluded set."""
        keep = [g.degree for g in self.groups if g.label not in excluded_labels]
        return self.subset_cone(keep) if keep else Cone.zero(self.rank)


def configuration_for(n):
    """Degree configuration of A(n), polarized at the interior of the nef cone."""
    groups = [GeneratorGroup(g.label, g.degree.coeffs, g.multiplicity)
              for g in geometry.cox_generator_degrees(n)]
    nef_gens = [g.coeffs for g in geometry.nef_generators(n)]
    polarization = tuple(sum(c) for c in zip(*nef_gens))
    return VectorConfiguration(geometry.picard_rank(n), groups, polarization)


def first_blowup_configuration(n):
    """Degree configuration of the single blow-up A(n)_1, in the (H, E_1) lattice.

    The strict transform of the size-(2k+2) sub-Pfaffian hypersurface has
    class (k+1) H - k E_1; sizes run to n+1 for odd n (the full Pfaffian)
    and to n for even n.
    """
    from math import comb
    if n < 4:
        raise ValueError("the single blow-up model needs n >= 4")
    top = (n - 1) // 2
    groups = []
    for k in range(top + 1):
        size = 2 * k + 2
        groups.append(GeneratorGroup(f"T{size}", (k + 1, -k), comb(n + 1, size)))
    groups.append(GeneratorGroup("S1", (0, 1), 1))
    return VectorConfiguration(2, groups, (3, -1))


def group_is_forced(config, labels, w):
    """Raw test: w is not in the hull of the degrees outside the given families."""
    if isinstance(labels, str):
        labels = {labels}
    return not config.cone_without(frozenset(labels)).contains(w)


def _group_set_nonempty(config, labels):
    """The common zero locus of the families is nonempty in the toric model."""
    return not group_is_forced(config, labels, config.polarization)


def forced_groups(config, w):
    """Families whose variables appear in every monomial of every multiple of w.

    Families whose zero locus is empty in the ambient toric model are
    dropped, which matches the geometric stable base locus; the raw
    combinatorial test is ``group_is_forced``.
    """
    w = tuple(w)
    if not config.ambient.contains(w):
        raise ValueError("class outside the effective cone")
    out = set()
    for g in config.groups:
        if not group_is_forced(config, {g.label}, w):
            continue
        if not _group_set_nonempty(config, {g.label}):
            continue
        out.add(g.label)
    return frozenset(out)


def sbl_signature(config, w):
    """Antichain of minimal forced, nonempty family sets at w.

    This is a complete combinatorial invariant of the stable base locus in
    the ambient toric model: singletons are divisorial components, larger
    sets are deeper strata (e.g. intersections of two boundary divisors).
    """
    w = tuple(w)
    labels = config.labels()
    forced = []
    for size in range(1, len(labels) + 1):
        for subset in combinations(labels, size):
            s = frozenset(subset)
            if any(prev <= s for prev in forced):
                continue  # not minimal
            if group_is_forced(config, s, w) and _group_set_nonempty(config, s):
                forced.append(s)
    return frozenset(forced)


@dataclass(frozen=True)
class GKZChamber:
    """A cell of the chamber decomposition with its base-locus data."""
    cone: Cone
    representative: tuple
    forced: frozenset
    signature: frozenset = field(compare=False)

    @property
    def rays(self):
        return self.cone.rays

    def is_maximal(self):
        return self.cone.dim() == self.cone.ambient_rank


@dataclass(frozen=True)
class Region:
    """A stable-base-locus region: chambers glued along vanished walls."""
    signature: frozenset
    labels: frozenset  # forced singleton families (divisorial part)
    chambers: tuple    # indices into Decomposition.chambers


class Decomposition:
    """Chambers, the sorted (i, j, facet rays) walls between chambers i < j,
    and the stable-base-locus regions."""

    def __init__(self, config, chambers, walls):
        self.config = config
        self.chambers = tuple(chambers)
        self.walls = tuple(walls)
        self._regions = None

    @property
    def regions(self):
        if self._regions is None:
            by_signature = {}
            for idx, ch in enumerate(self.chambers):
                by_signature.setdefault(ch.signature, []).append(idx)
            regions = []
            for sig, idxs in by_signature.items():
                labels = frozenset(s for group in sig if len(group) == 1 for s in group)
                regions.append(Region(sig, labels, tuple(idxs)))
            regions.sort(key=lambda r: (sorted(sorted(g) for g in r.signature), r.chambers))
            self._regions = tuple(regions)
        return self._regions


def _canonical_chamber(config, w):
    """Intersection of every subset cone containing w (subsets up to the rank suffice)."""
    rank = config.rank
    facets = set(config.ambient.facets)
    for size in range(1, rank + 1):
        for subset in combinations(config.vectors, size):
            cone = config.subset_cone(subset)
            if cone.contains(w):
                facets.update(cone.facets)
    return Cone.from_inequalities(sorted(facets), rank)


def _past_wall(hyperplanes, p, c):
    """t*p + (p - c) for the least t >= 1 keeping p's side of each hyperplane missing p."""
    d = tuple(a - b for a, b in zip(p, c))
    t = 1 + max([0] + [-dot(h, d) // dot(h, p) for h in hyperplanes if dot(h, p)])
    return tuple(t * a + b for a, b in zip(p, d))


def gkz_chambers(config):
    """All maximal chambers of the configuration, canonically ordered."""
    rank = config.rank
    # Walk times on 2 vCPUs, CPython 3.11.7: 0.8 s at n = 10 and 2.7 s at
    # n = 11 (rank 5); rank 6 took 10 s at n = 12 and 90 s at n = 13.
    if rank > 5:
        raise ValueError("chamber decomposition supported up to rank 5")
    if config.ambient.dim() < rank:
        raise ValueError("ambient cone is not full-dimensional")
    start = _canonical_chamber(config, config.polarization)
    if start.dim() < rank:
        raise ValueError("polarization is not interior to a chamber")
    hyperplanes = hyperplanes_spanned_by(config.vectors, rank)

    found, crossed = [start], set()
    for cone in found:  # grows as the walk finds neighbours
        c = cone.interior_point()
        for f in cone.facets:
            on = tuple(r for r in cone.rays if dot(f, r) == 0)
            p = tuple(sum(r[i] for r in on) for i in range(rank))
            if not config.ambient.interior_contains(p):
                continue  # a facet of the effective cone
            nxt = next((d for d in found if d is not cone and d.contains(p)), None)
            if nxt is None:
                w = _past_wall(hyperplanes, p, c)
                nxt = _canonical_chamber(config, w)
                if not (nxt.interior_contains(w) and nxt.contains(p)):
                    raise ArithmeticError("wall crossing missed the neighbouring chamber")
                found.append(nxt)
            crossed.add((*sorted((cone.rays, nxt.rays)), on))

    found.sort(key=lambda cone: cone.rays)
    index = {cone.rays: i for i, cone in enumerate(found)}
    walls = sorted((index[a], index[b], on) for a, b, on in crossed)
    chambers = []
    for cone in found:
        rep = cone.interior_point()
        chambers.append(GKZChamber(cone, rep, forced_groups(config, rep),
                                   sbl_signature(config, rep)))
    return Decomposition(config, chambers, walls)


def chamber_of(config, w):
    """The chamber (or lower-dimensional face) of the class w."""
    w = tuple(w)
    if not config.ambient.contains(w):
        raise ValueError("class outside the effective cone")
    cone = _canonical_chamber(config, w)
    return GKZChamber(cone, w, forced_groups(config, w), sbl_signature(config, w))


@cache
def decomposition_for(n):
    return gkz_chambers(configuration_for(n))


def conjecture_counts(n):
    """(computed, predicted) number of base-locus regions outside the movable cone.

    Predicted: 2^((n-2)/2) - 1 for even n and 2^((n-1)/2) - 2 for odd n.
    """
    dec = decomposition_for(n)
    mov = geometry.movable_cone(n)
    outside = set()
    for region in dec.regions:
        classes = {mov.contains(dec.chambers[i].representative) for i in region.chambers}
        if len(classes) != 1:
            raise ArithmeticError("region straddles the movable boundary")
        if not classes.pop():
            outside.add(region.signature)
    if n % 2 == 0:
        predicted = 2 ** ((n - 2) // 2) - 1
    else:
        predicted = 2 ** ((n - 1) // 2) - 2
    return len(outside), predicted


def conjecture_label_sets(n):
    """(computed, predicted) divisorial base-locus labels outside the movable cone.

    Every label set is a frozenset of S_i families; the prediction lists all
    nonempty subsets for even n, and all but the full one for odd n.
    """
    dec = decomposition_for(n)
    mov = geometry.movable_cone(n)
    computed = set()
    for region in dec.regions:
        if not mov.contains(dec.chambers[region.chambers[0]].representative):
            computed.add(region.labels)
    count = (n - 2) // 2 if n % 2 == 0 else (n - 1) // 2
    names = [f"S{i}" for i in range(1, count + 1)]
    predicted = set()
    for size in range(1, count + 1):
        for subset in combinations(names, size):
            predicted.add(frozenset(subset))
    if n % 2 == 1:
        predicted.discard(frozenset(names))
    return computed, predicted


def blowup_one_decomposition(n):
    """Chamber decomposition of the effective cone of the single blow-up A(n)_1."""
    return gkz_chambers(first_blowup_configuration(n))


def first_blowup_intervals(n):
    """Rank-two chambers of A(n)_1 as half-open wall intervals.

    Walls sit at E_1 and the classes (k+1) H - k E_1.  Boundary classes
    follow the interval convention [E_1, D_2), [D_2, D_4], (D_4, D_6], ...:
    a wall belongs to the side whose base locus it shares.
    """
    dec = blowup_one_decomposition(n)
    rays = [(0, 1)] + [(k + 1, -k) for k in range((n - 1) // 2 + 1)]
    intervals = []
    for idx in range(len(rays) - 1):
        left, right = rays[idx], rays[idx + 1]
        cone = Cone.from_generators([left, right], 2)
        member = next(i for i, ch in enumerate(dec.chambers) if ch.cone == cone)
        closed_left = idx == 0 or idx == 1
        closed_right = idx != 0
        intervals.append({
            "left": left, "right": right,
            "closed_left": closed_left, "closed_right": closed_right,
            "chamber": member, "forced": dec.chambers[member].forced,
            "signature": dec.chambers[member].signature,
        })
    return intervals


def dictionary_label(label):
    """Geometric reading of a family label: S_i is a boundary divisor E_i,
    T{2k+2} is the (strict transform of the) rank-2k degeneracy locus."""
    if label.startswith("S"):
        return f"E{label[1:]}"
    if label.startswith("T"):
        size = int(label[1:])
        return f"sec{size // 2 - 1}"
    return label


def describe_signature(signature):
    """Human-readable stable base locus: unions of intersections of strata.

    Within one stratum a collection of Pfaffian families simplifies to the
    smallest degeneracy locus: V(T_{2a+2}) meets V(T_{2b+2}) in the rank-2a
    locus for a < b.
    """
    if not signature:
        return "empty"
    parts = []
    for group in sorted(signature, key=lambda g: (len(g), sorted(g))):
        divisors = sorted(dictionary_label(l) for l in group if l.startswith("S"))
        secants = [int(l[1:]) // 2 - 1 for l in group if l.startswith("T")]
        pieces = divisors + ([f"sec{min(secants)}"] if secants else [])
        parts.append("&".join(pieces))
    return " u ".join(parts)
