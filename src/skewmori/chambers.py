"""Chamber decompositions of the effective cone of A(n).

The degrees of the total-coordinate-ring generators form a vector
configuration V in the Picard lattice, given as (label, degree) pairs, one per
family: a family's size moves no chamber.  The chamber of a divisor class w is the
intersection of all subset cones containing w.  The decomposition walks the
chamber graph (Keicher, "Computing the GIT-fan", 2012) from the polarization
through generic classes only; by Caratheodory those lie in basis cones alone,
and the bases holding one cut out its chamber.  Each wall inside the effective
cone is crossed once, at an exact point past it.  A class w of the effective
cone lifts to a generic w' = t w + d, for d interior to it and on no spanned
hyperplane and t keeping w's side of every hyperplane missing w; the chamber
of w' holds w, and the cell of w is its face cut out by the facets through w.
The lift's signs, those facets and the signature below read only w's sign
vector over the spanned hyperplanes, so each answer is memoised per sign vector.

A set G of generator families is *forced* at w when w is not a nonnegative
combination of the degrees of the remaining families, and *empty* when it is
forced at the polarization p, a class interior to the nef chamber: its common
zero locus is empty in the ambient toric model.  Stable base loci are compared
through the antichain of minimal forced, nonempty family sets; chambers with
equal antichains share a region, which can be non-convex.  The minimal forced
sets are the minimal cocircuits N_h = {v in V : h.v < 0} with h.w < 0, for h a
signed spanned-hyperplane normal (Bjorner-Las Vergnas-Sturmfels-White-Ziegler,
*Oriented Matroids*, 1993, ch. 3): N_h is forced, as h >= 0 off it, and for a
forced G Farkas gives y with y.w < 0 <= y.v off G, whose cell in the
arrangement of the v^perp and w^perp is pointed, as V spans, with a ray y' off
w^perp, cut out by V alone, so N_y' lies in G.  G is empty iff it holds an N_h
with h.p < 0.  None of this needs w generic.  Chambers and regions are
immutable ``linalg.Record`` values.
"""

from __future__ import annotations

from functools import cache, reduce
from itertools import combinations
from operator import mul, or_

from . import geometry
from .cones import Cone, hyperplanes_spanned_by
from .linalg import Record, dot


class VectorConfiguration:
    """Degrees of (label, degree) generator families plus the ambient effective cone.

    ``polarization`` is an interior point of the nef chamber; it pins down
    the ambient toric model and is used to discard family sets whose common
    zero locus is empty there.  Built once with it: the K spanned hyperplanes
    h_k, ``planes``; ``normals``, +h_k then -h_k; ``bases``, each independent
    ``rank``-subset of ``vectors`` as (vector mask, mask of its facets' normals),
    the facet opposite v lying on the hyperplane missing v alone;
    ``cocircuits``, per normal h the mask of N_h, or 0 if it holds an empty
    stratum; ``direction``, the h_k.d of the lift.
    """

    def __init__(self, rank, families, polarization):
        self.rank = int(rank)
        self.families = tuple(families)
        self.polarization = tuple(int(c) for c in polarization)
        self.vectors = sorted({degree for _, degree in self.families})
        self.ambient = Cone.from_generators(self.vectors, self.rank)
        self._subset_cones, self._chambers, self._faces, self._cells = {}, {}, {}, {}
        self.labels = tuple(label for label, _ in self.families)
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate family labels")
        # each family has one degree, so a degree set and the families of its
        # degrees determine each other: minimality and nonemptiness carry over
        self.owners = [frozenset(label for label, degree in self.families if degree == v)
                       for v in self.vectors]
        self.planes = planes = hyperplanes_spanned_by(self.vectors, self.rank)
        self.normals = normals = planes + [tuple(-x for x in h) for h in planes]
        sides = [[dot(h, v) for v in self.vectors] for h in normals]
        zeros = [sum(1 << i for i, x in enumerate(side) if not x) for side in sides[:len(planes)]]
        cocircuits = [sum(1 << i for i, x in enumerate(side) if x < 0) for side in sides]
        empty = [c for c, h in zip(cocircuits, normals) if dot(h, self.polarization) < 0]
        self.cocircuits = [0 if any(e & c == e for e in empty) else c for c in cocircuits]
        self.bases = []
        for subset in combinations(range(len(self.vectors)), self.rank):
            mask = sum(1 << i for i in subset)
            facets = covered = 0
            for k, zero in enumerate(zeros):
                off = mask & ~zero
                if off and not off & (off - 1):
                    covered |= off
                    facets |= 1 << k + len(planes) * (sides[k][off.bit_length() - 1] < 0)
            if covered == mask:
                self.bases.append((mask, facets))
        # d = t p + (1, m, ..., m^(r-1)): the last term is on no h_k, as each
        # |h_k| < m/2, and t keeps the polarization's side of every other h_k
        m = 2 * max(abs(x) for h in planes for x in h) + 1
        _, self.direction = _lift([dot(h, self.polarization) for h in planes],
                                  [dot(h, [m ** i for i in range(self.rank)]) for h in planes])

    def subset_cone(self, vectors):
        key = frozenset(vectors)
        if key not in self._subset_cones:
            self._subset_cones[key] = Cone.from_generators(sorted(key), self.rank)
        return self._subset_cones[key]


def configuration_for(n):
    """Degree configuration of A(n), polarized at the interior of the nef cone."""
    families = [(g.label, g.degree.coeffs) for g in geometry.cox_generator_degrees(n)]
    polarization = tuple(map(sum, zip(*(g.coeffs for g in geometry.nef_generators(n)))))
    return VectorConfiguration(geometry.picard_rank(n), families, polarization)


def first_blowup_configuration(n):
    """Degree configuration of the single blow-up A(n)_1, in the (H, E_1) lattice:
    the strict transform of the size-(2k+2) sub-Pfaffian hypersurface has class
    (k+1) H - k E_1, for sizes up to n+1 for odd n (the full Pfaffian), n for even n."""
    if n < 4:
        raise ValueError("the single blow-up model needs n >= 4")
    # `blowup1 --json` takes 2.9-3.9 s at n = 400 and 4.0-4.1 s at n = 450, fresh (2 vCPUs,
    # CPython 3.11.7)
    if n > 400:
        raise ValueError("the single blow-up model is supported up to n = 400")
    families = [(f"T{2 * k + 2}", (k + 1, -k)) for k in range((n - 1) // 2 + 1)]
    return VectorConfiguration(2, families + [("S1", (0, 1))], (3, -1))


def sbl_signature(config, w):
    """Antichain of minimal forced, nonempty family sets at w.

    This is a complete combinatorial invariant of the stable base locus in
    the ambient toric model: singletons are divisorial components, larger
    sets are deeper strata (e.g. intersections of two boundary divisors).
    They are the minimal cocircuits N_h with h.w < 0 that hold no empty
    stratum (see the module docstring); w need not be generic.  A class
    outside the effective cone is refused with ``ValueError``.
    """
    return _signature(config, _signs(_plane_values(config, w))[1])


def _plane_values(config, w):
    """The h.w over the spanned hyperplanes h; a class outside the effective
    cone, or inexact or of the wrong length, is refused with ``ValueError``."""
    if not config.ambient.contains(w):
        raise ValueError("class outside the effective cone")
    return [sum(map(mul, h, w)) for h in config.planes]


def _signs(values):
    """Masks of the normals +h_k then -h_k with h_k.w > 0, and with h_k.w < 0."""
    pos = neg = 0
    for k, x in enumerate(values):
        if x > 0:
            pos |= 1 << k
        elif x < 0:
            neg |= 1 << k
    return pos | neg << len(values), neg | pos << len(values)


def _signature(config, below):
    """``sbl_signature`` of the classes w with h.w < 0 for the normals h in ``below``."""
    cocircuits = config.cocircuits
    found = []
    for c in sorted({cocircuits[k] for k in _bits(below)} - {0}, key=int.bit_count):
        if not any(f & c == f for f in found):
            found.append(c)
    return frozenset(frozenset().union(*(config.owners[i] for i in _bits(c))) for c in found)


def _divisorial(signature):
    """The forced singleton families of a signature: its divisorial part."""
    return frozenset(l for s in signature if len(s) == 1 for l in s)


class GKZChamber(Record):
    """A cell of the chamber decomposition with its base-locus signature."""
    __slots__ = _fields = ("cone", "representative", "signature")

    @property
    def forced(self):
        return _divisorial(self.signature)

    @property
    def rays(self):
        return self.cone.rays

    def is_maximal(self):
        return self.cone.dim() == self.cone.ambient_rank


class Region(Record):
    """A stable-base-locus region: chambers glued along vanished walls."""
    __slots__ = _fields = ("signature", "chambers")  # chambers index Decomposition.chambers

    @property
    def labels(self):
        return _divisorial(self.signature)


class Decomposition:
    """Chambers, sorted (i, j, facet rays) walls of chambers i < j, and regions."""

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
            regions = [Region(sig, tuple(idxs)) for sig, idxs in by_signature.items()]
            regions.sort(key=lambda r: (sorted(sorted(g) for g in r.signature), r.chambers))
            self._regions = tuple(regions)
        return self._regions


def _bits(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _canonical_chamber(config, held):
    """The chamber of the generic classes the bases ``held`` hold: the
    intersection of their cones, memoised on the configuration.  Each basis
    cone lies in the effective cone, so its facets cut out no more."""
    if held not in config._chambers:
        normals = sorted(config.normals[k] for k in _bits(reduce(or_, (f for _, f in held))))
        config._chambers[held] = Cone.from_inequalities(normals, config.rank)
    return config._chambers[held]


def _held(config, w, name="class", values=None):
    """Masks of the bases holding w (``values`` are its h.w, if known).  A basis
    holding w on its boundary puts w in a lower-dimensional subset cone, a wall,
    and no basis holds a w outside the effective cone; either is a ``ValueError``."""
    if values is None:
        values = [dot(h, w) for h in config.planes]
    above, below = _signs(values)
    held = tuple(b for b in config.bases if not b[1] & below)
    if not held or any(f & ~above for _, f in held):
        raise ValueError(f"{name} {w} is not interior to a chamber")
    return held


def _lift(values, direction):
    """(t, plane values of t w + d) for the plane values of w and of d: the
    least t >= 1 keeping w's side of every hyperplane missing w."""
    t = 1 + max([0] + [-b // a for a, b in zip(values, direction) if a])
    return t, [t * a + b for a, b in zip(values, direction)]


# Walk times: 0.6 s at n = 11 (rank 5), 0.8 s at n = 12 and 5 s at n = 13 (rank 6,
# 486 bases, 1285 chambers); `chamber --json` takes 0.3-0.5 s at n = 14 and 0.5-0.7 s
# at n = 15 (rank 7), 0.44-0.62 s to refuse a class outside Eff at n = 15, and 1.0-1.1 s
# at n = 16 (rank 8), fresh (2 vCPUs, CPython 3.11.7).
RANK_BUDGETS = {"chamber decomposition": 6, "chamber queries": 7}


def check_rank(task, rank):
    """Refuse a Picard rank past the task's budget; O(1), so callers keyed by n
    check it before building the configuration."""
    if rank > RANK_BUDGETS[task]:
        raise ValueError(f"{task} supported up to rank {RANK_BUDGETS[task]}")


def gkz_chambers(config):
    """All maximal chambers of the configuration, canonically ordered."""
    check_rank("chamber decomposition", config.rank)
    start, planes = _held(config, config.polarization, "polarization"), config.planes
    found, queue, walls = {start: _canonical_chamber(config, start)}, [start], {}
    for held in queue:  # grows as the walk finds neighbours
        cone = found[held]
        c = cone.interior_point()
        for f in cone.facets:
            on = tuple(r for r in cone.rays if dot(f, r) == 0)
            p = tuple(sum(r[i] for r in on) for i in range(config.rank))
            if not config.ambient.interior_contains(p):
                continue  # a facet of the effective cone
            if on not in walls:  # cross it; the walls dict maps it to its two chambers
                # w = t*p + (p - c), lifted off p's hyperplanes, lies just past the wall
                d = tuple(a - b for a, b in zip(p, c))
                t, values = _lift([dot(h, p) for h in planes], [dot(h, d) for h in planes])
                nxt = _held(config, w := tuple(t * a + b for a, b in zip(p, d)), values=values)
                if nxt not in found:
                    found[nxt] = _canonical_chamber(config, nxt)
                    queue.append(nxt)
                if nxt == held or not found[nxt].contains(p):
                    raise ArithmeticError("wall crossing missed the neighbouring chamber")
                walls[on] = (cone.rays, found[nxt].rays)
            elif cone.rays not in walls[on]:
                raise ArithmeticError("three chambers share a wall")
    order = sorted(found.items(), key=lambda item: item[1].rays)
    index = {cone.rays: i for i, (_, cone) in enumerate(order)}
    walls = sorted((*sorted((index[a], index[b])), on) for on, (a, b) in walls.items())
    return Decomposition(config, [GKZChamber(cone, w := cone.interior_point(), sbl_signature(
        config, w)) for _, cone in order], walls)


def chamber_of(config, w):
    """The chamber (or lower-dimensional face) of the class w, with its signature.

    Both depend only on w's sign vector over the spanned hyperplanes h (the lift
    t w + d has the sign of h.w, or of the fixed h.d where h.w = 0; the tight
    facets are the h with h.w = 0; the signature reads the h with h.w < 0), so
    they are memoised per sign vector: a warm query is one pass over the planes."""
    check_rank("chamber queries", config.rank)
    w = tuple(w)
    values = _plane_values(config, w)  # refuses a w outside the effective cone
    above, below = _signs(values)
    if above not in config._cells:
        held = _held(config, w, values=_lift(values, config.direction)[1])
        cone = _canonical_chamber(config, held)
        tight = [f for f in cone.facets if not dot(f, w)]
        if tight:  # the face of the chamber that holds w in its relative interior
            rays = tuple(r for r in cone.rays if not any(dot(f, r) for f in tight))
            if rays not in config._faces:
                config._faces[rays] = Cone.from_generators(rays, config.rank)
            cone = config._faces[rays]
        config._cells[above] = cone, _signature(config, below)
    cone, signature = config._cells[above]
    return GKZChamber(cone, w, signature)


@cache
def decomposition_for(n):
    check_rank("chamber decomposition", geometry.picard_rank(n))
    return gkz_chambers(configuration_for(n))


def conjecture_counts(n):
    """(computed, predicted) number of base-locus regions outside the movable cone.

    Predicted: 2^((n-2)/2) - 1 for even n and 2^((n-1)/2) - 2 for odd n.
    """
    dec, mov, outside = decomposition_for(n), geometry.movable_cone(n), set()
    for region in dec.regions:
        classes = {mov.contains(dec.chambers[i].representative) for i in region.chambers}
        if len(classes) != 1:
            raise ArithmeticError("region straddles the movable boundary")
        if not classes.pop():
            outside.add(region.signature)
    return len(outside), 2 ** ((n - 2) // 2) - 1 if n % 2 == 0 else 2 ** ((n - 1) // 2) - 2


def conjecture_label_sets(n):
    """(computed, predicted) divisorial base-locus labels outside the movable cone.

    Every label set is a frozenset of S_i families; the prediction lists all
    nonempty subsets for even n, and all but the full one for odd n.
    """
    dec, mov = decomposition_for(n), geometry.movable_cone(n)
    computed = {region.labels for region in dec.regions
                if not mov.contains(dec.chambers[region.chambers[0]].representative)}
    names = [f"S{i}" for i in range(1, (n - 1) // 2 + 1)]
    return computed, {frozenset(s) for size in range(1, len(names) + 1 - n % 2)
                      for s in combinations(names, size)}


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
    for idx, (left, right) in enumerate(zip(rays, rays[1:])):
        member = next(i for i, ch in enumerate(dec.chambers) if ch.rays == (left, right))
        intervals.append({"left": left, "right": right, "closed_left": idx <= 1,
                          "closed_right": idx != 0, "chamber": member,
                          "forced": dec.chambers[member].forced,
                          "signature": dec.chambers[member].signature})
    return intervals


def dictionary_label(label):
    """Geometric reading of a family label: S_i is a boundary divisor E_i,
    T{2k+2} is the (strict transform of the) rank-2k degeneracy locus."""
    if label.startswith("S"):
        return f"E{label[1:]}"
    if label.startswith("T"):
        return f"sec{int(label[1:]) // 2 - 1}"
    return label


def describe_signature(signature):
    """Human-readable stable base locus: unions of intersections of strata.

    Within one stratum a collection of Pfaffian families simplifies to the
    smallest degeneracy locus: V(T_{2a+2}) meets V(T_{2b+2}) in the rank-2a
    locus for a < b.
    """
    parts = []
    for group in sorted(signature, key=lambda g: (len(g), sorted(g))):
        secants = [int(l[1:]) // 2 - 1 for l in group if l.startswith("T")]
        parts.append("&".join(sorted(dictionary_label(l) for l in group if l.startswith("S"))
                              + ([f"sec{min(secants)}"] if secants else [])))
    return " u ".join(parts) if parts else "empty"
