"""Chamber decompositions of the effective cone of A(n).

The degrees of the total-coordinate-ring generators form a vector
configuration V in the Picard lattice, given as (label, degree) pairs, one per
family: a family's size moves no chamber.  The chamber of a divisor class w is the
intersection of all subset cones containing w.  The decomposition walks the
chamber graph (Keicher, "Computing the GIT-fan", 2012) from the polarization
through generic classes only; by Caratheodory those lie in basis cones alone,
and the bases holding one cut out its chamber.  Each wall inside the effective
cone is crossed once, just past it.  Classes just past w along d are read in
sign order (Edelsbrunner-Muecke, "Simulation of Simplicity", 1990): a spanned
hyperplane h takes the sign of h.w, or of h.d where h.w = 0, the sign of t w + d
for every large t, and t = max|h| sum|d_i| + 1 will do, as |h.d| < t.  A wall
is crossed from the sum of its rays along minus the sum of the chamber's other
rays.  A class w of the effective cone is read along a fixed class on no
spanned hyperplane, so the chamber its signs select holds w, and the cell of w
is its face cut out by the facets through w.  Those signs, facets and the
signature below read only w's sign vector over the spanned hyperplanes, so each
answer is memoised per sign vector.  The walk, the queries and the signatures
read that vector from one integer: with the K planes packed into B-bit fields,
sum_i w_i (sum_k h_k[i] 2^(B k)) + sum_k 2^(B - 1) 2^(B k) holds h_k.w +
2^(B - 1) in field k.  Each |h_k.w| is at most max|h| sum|w_i|, at most
2^(B - 1) - 1 for the B chosen, so every field lies in [1, 2^B) and no carry or
borrow crosses a field: its top bit is set iff h_k.w >= 0, and after
subtracting 1 from every field iff h_k.w > 0.  Each facet of the effective cone
is +h_k or -h_k, so membership is a test of those two masks too.  The held bases
and the signature are read per chunk of 8 key bytes, and the rays of a wall or a
face by plane masks: the planes through a ray are its key's 0x80 bytes.

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
from math import comb
from operator import and_, mul, or_

from . import geometry
from .cones import Cone, hyperplanes_spanned_by
from .linalg import Record, clear_denominators, dot

_ON = bytes.maketrans(b"\x00\x80\xc0", b"010")  # a sign byte to "1" where h.w = 0
_ZERO = bytes.maketrans(b"\x80\xc0", b"\xff\x00")  # a sign byte to 0xff where h.w = 0


class VectorConfiguration:
    """Degrees of (label, degree) generator families plus the ambient effective cone.

    ``polarization`` is an interior point of the nef chamber; it pins down
    the ambient toric model and is used to discard family sets whose common
    zero locus is empty there.  Built once with it: the K spanned hyperplanes
    h_k, ``planes``; ``normals``, +h_k then -h_k; ``bases``, the bases that cut
    out chambers, as (vector mask, mask of its facets' normals): the independent
    ``rank``-subsets whose cones hold no degree off their rays, of equal cones
    (from parallel degrees) only the first.  An r-subset S is independent iff
    for each v in S the others lie on exactly one spanned hyperplane, which
    misses v and carries the facet opposite v.  A basis cone holding a degree v
    off its rays is split by the stellar subdivision at v into smaller basis cones
    (De Loera-Rambau-Santos, *Triangulations*, 2010, sec. 4.3), one of which holds
    any generic class it holds, on its boundary if on the first's boundary, so
    such a basis cuts out nothing more; ``facet_bases``, per normal the mask of
    the bases with a facet on it; ``cocircuits``, per normal h the mask of N_h,
    or 0 if it holds an empty stratum; ``height``, the largest |h_k[i]|;
    ``nudge``, the class just past p along (1, m, ..., m^(r-1)), so on no h_k:
    its signs break h_k.w = 0; ``effective``, the masks of the planes with +h_k
    and with -h_k a facet normal of the effective cone, which needs degrees
    spanning the lattice (else no basis holds any class); ``plane_of``, per
    normal +-h_k its plane k.  Filled lazily: per chunk of 8 planes a table (see
    ``_entries``), per fan ray its plane mask (``_through``), per cocircuit its labels.
    """

    def __init__(self, rank, families, polarization):
        self.rank = int(rank)
        self.families = tuple(families)
        self.polarization = tuple(int(c) for c in polarization)
        self.vectors = sorted({degree for _, degree in self.families})
        self.ambient = Cone.from_generators(self.vectors, self.rank)
        self._subset_cones, self._chambers, self._faces, self._cells = {}, {}, {}, {}
        self._packings, self._through, self._labels = {}, {}, {}
        self.labels = tuple(label for label, _ in self.families)
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate family labels")
        # each family has one degree, so a degree set and the families of its
        # degrees determine each other: minimality and nonemptiness carry over
        self.owners = [frozenset(label for label, degree in self.families if degree == v)
                       for v in self.vectors]
        self.planes = planes = hyperplanes_spanned_by(self.vectors, self.rank)
        self.normals = normals = planes + [tuple(-x for x in h) for h in planes]
        # per plane, its values on the degrees: -h_k's are their negations
        sides = [[dot(h, v) for v in self.vectors] for h in planes]
        neg = [sum(1 << i for i, x in enumerate(side) if x < 0) for side in sides]
        pos = [sum(1 << i for i, x in enumerate(side) if x > 0) for side in sides]
        cocircuits, positive = neg + pos, pos + neg  # per normal, the degrees with h.v < 0, > 0
        through = [sum(1 << k for k, x in enumerate(c) if not x)  # per degree, the planes on it
                   for c in zip(*sides)]
        values = [dot(h, self.polarization) for h in planes]
        empty = [c for c, x in zip(cocircuits, values + [-x for x in values]) if x < 0]
        self.cocircuits = [0 if any(e & c == e for e in empty) else c for c in cocircuits]
        self.bases, self.facet_bases, kept = [], [0] * len(normals), set()
        for subset in combinations(range(len(self.vectors)), self.rank):
            # a degree in the cone is below no facet; one off its rays is above two
            facets = below = once = twice = 0
            for i in subset:
                plane = reduce(and_, (through[j] for j in subset if j != i),
                               (1 << len(planes)) - 1)  # at rank 1, every plane
                if not plane or plane & (plane - 1) or plane & through[i]:
                    break  # the others span no hyperplane missing i: S is dependent
                k = plane.bit_length() - 1
                k += len(planes) * (sides[k][i] < 0)  # the normal positive on i
                facets |= 1 << k
                below |= cocircuits[k]
                twice |= once & positive[k]
                once |= positive[k]
            else:
                if not twice & ~below and facets not in kept:
                    kept.add(facets)
                    for k in _bits(facets):
                        self.facet_bases[k] |= 1 << len(self.bases)
                    self.bases.append((sum(1 << i for i in subset), facets))
        # (1, m, ..., m^(r-1)) is on no h_k, as each |h_k| < m/2
        self.height = max(abs(x) for h in planes for x in h)
        m = 2 * self.height + 1
        self.nudge = _past(self, self.polarization, [m ** i for i in range(self.rank)])
        index = {h: k for k, h in enumerate(normals)}
        if any(f not in index for f in self.ambient.facets):
            raise ValueError(f"the degrees do not span rank {self.rank}")
        facets = sum(1 << index[f] for f in self.ambient.facets)
        self.effective = facets & (1 << len(planes)) - 1, facets >> len(planes)
        self.plane_of = {h: k % len(planes) for h, k in index.items()}
        self._tables = [(j, {}) for j in range(0, len(planes), 8)]
        self._nudged = int.from_bytes(_signs(self, self.nudge), "big")  # see _lift

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
    # `blowup1 --json` takes 0.26-0.44 s and 18 MB peak RSS at n = 400, and 0.31-0.49 s at
    # n = 450 with both caps lifted, fresh (2 vCPUs, CPython 3.11.7)
    if n > 400:
        raise ValueError("the single blow-up model is supported up to n = 400")
    families = [(f"T{2 * k + 2}", (k + 1, -k)) for k in range((n - 1) // 2 + 1)]
    return VectorConfiguration(2, families + [("S1", (0, 1))], (3, -1))


def sbl_signature(config, signs):
    """Antichain of minimal forced, nonempty family sets at a class w of the
    effective cone, read off its sign key ``signs`` as the union of the cocircuit
    sets of its chunk entries (see ``_entries``), each one's labels memoised per mask.

    This is a complete combinatorial invariant of the stable base locus in
    the ambient toric model: singletons are divisorial components, larger
    sets are deeper strata (e.g. intersections of two boundary divisors).
    They are the minimal cocircuits N_h with h.w < 0 that hold no empty
    stratum (see the module docstring); w need not be generic.
    """
    found = []
    for c in sorted(set().union(*(entry[2] for entry in _entries(config, signs))),
                    key=int.bit_count):
        for f in found:
            if f & c == f:
                break
        else:
            found.append(c)
    return frozenset(config._labels.get(c) or config._labels.setdefault(
        c, frozenset().union(*(config.owners[i] for i in _bits(c)))) for c in found)


def _divisorial(signature):
    """The forced singleton families of a signature: its divisorial part."""
    return frozenset(l for s in signature if len(s) == 1 for l in s)


class GKZChamber(Record):
    """A cell of the chamber decomposition with its base-locus signature."""
    __slots__ = _fields = ("cone", "representative", "signature")

    def __init__(self, cone, representative, signature):  # one per query: no generic loop
        set_cone, set_representative, set_signature = self._setters
        set_cone(self, cone)
        set_representative(self, representative)
        set_signature(self, signature)

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
    """Indices of the set bits, ascending: one find per set bit in the binary
    digits, so linear in the length of a long mask as well as in its bits."""
    digits, out = bin(mask)[:1:-1], []
    i = digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return out


def _canonical_chamber(config, held):
    """The chamber of the generic classes the bases ``held`` hold: the
    intersection of their cones, cut out by their facets, memoised on the
    configuration.  Each basis cone lies in the effective cone, and the bases
    kept by the configuration are those whose cones hold no smaller one."""
    if held not in config._chambers:
        facets = reduce(or_, (config.bases[i][1] for i in _bits(held)))
        normals = sorted(config.normals[k] for k in _bits(facets))
        config._chambers[held] = Cone.from_inequalities(normals, config.rank)
    return config._chambers[held]


def _past(config, w, d):
    """The class t w + d, t = max|h| sum|d_i| + 1: just past w along d, in sign order."""
    t = config.height * sum(map(abs, d)) + 1
    return tuple(t * a + b for a, b in zip(w, d))


def _entries(config, signs):
    """Per chunk of 8 planes, the entry of its bytes of the sign key: the masks of
    the bases with a facet normal negative there (cut) and with a facet plane
    through the class there (tight), and the set of the nonzero cocircuits of the
    normals negative there; a pure function of the bytes, filled in lazily."""
    return [table.get(signs[j:j + 8]) or _entry(config, j, table, signs[j:j + 8])
            for j, table in config._tables]


def _entry(config, j, table, key):
    facet_bases, K = config.facet_bases, len(config.planes)  # normal k + K is -h_k
    # the normals negative at the class: +h_k if h_k.w < 0, -h_k if h_k.w > 0
    below = [k + K * (s == 0xc0) for k, s in enumerate(key, j) if s != 0x80]
    entry = table[key] = (reduce(or_, (facet_bases[k] for k in below), 0),
                          reduce(or_, (facet_bases[k] | facet_bases[k + K]
                                       for k, s in enumerate(key, j) if s == 0x80), 0),
                          frozenset(config.cocircuits[k] for k in below) - {0})
    return entry


def _lift(config, signs):
    """The key of t w + nudge from w's key: its 0x80 bytes the nudge's, on no plane."""
    on = int.from_bytes(signs.translate(_ZERO), "big")  # 0xff where h.w = 0
    return (int.from_bytes(signs, "big") & ~on | config._nudged & on).to_bytes(len(signs), "big")


def _through(config, rays):
    """Per ray, the mask of the planes through it, read once from its sign key."""
    return [config._through.get(r) or config._through.setdefault(
        r, int(_signs(config, r)[::-1].translate(_ON), 2)) for r in rays]


def _held(config, w, name="class", signs=None):
    """Mask of the bases holding the integer class w: those with no facet normal h
    with h.w < 0, none cut in the chunk entries of its key (``signs``, if given).
    A basis holding w on its boundary puts w in a lower-dimensional subset cone, a
    wall, and no basis holds a w outside Eff; either is a ``ValueError``."""
    signs, cut, tight = signs or _signs(config, w), 0, 0
    for entry in _entries(config, signs) if signs else ():
        cut |= entry[0]
        tight |= entry[1]
    held = (1 << len(config.bases)) - 1 & ~cut
    if signs is None or not held or held & tight:
        raise ValueError(f"{name} {w} is not interior to a chamber")
    return held


# A decomposition of v degrees in rank r is priced C(v, r) C(v, r - 1): 2.1e5 at n = 12,
# 7.3e5 at n = 13, 2.9e6 at n = 14 (rank 7, 292 bases, 2394 chambers), 1.03e7 at n = 15 and
# 4.0e6 for the single blow-up at its cap n = 400 (rank 2, 201 degrees).  The price bounds
# the walk: at n = 15 (13532 chambers) it takes 12.5 s in process.  Fresh, with --json,
# `gkz` takes 0.70-0.85 s at n = 13 and 1.6-1.9 s at n = 14, and `blowup1 --n 400`
# 0.21-0.23 s (2 vCPUs, CPython 3.11.7, pinned to one CPU).
MAX_CHAMBER_WORK = 5_000_000

# `chamber --json` takes 0.09-0.16 s at n = 14, 0.10-0.14 s at n = 15 (rank 7) and 0.07 s there
# to refuse a class outside Eff, and with this edge lifted 0.14-0.16 s at n = 16 (rank 8), fresh
# (2 vCPUs, CPython 3.11.7, pinned to one CPU).  The CLI checks it before building, `chamber_of`
# on a memo miss, as each first query is; a price of the build from the sizes should replace it.
MAX_QUERY_RANK = 7


def check_query_rank(rank):
    """Refuse chamber queries past ``MAX_QUERY_RANK``; O(1), so callers keyed by n
    check it before building the configuration."""
    if rank > MAX_QUERY_RANK:
        raise ValueError(f"chamber queries supported up to rank {MAX_QUERY_RANK}")


def check_chamber_work(vectors, rank):
    """Refuse a decomposition of ``vectors`` degrees in ``rank`` priced past
    ``MAX_CHAMBER_WORK``, from the sizes alone, so callers keyed by n check it
    before building the configuration.  C(v, r) >= 2^m for m = min(r, v - r), so
    a large m is refused before any binomial of a huge n is computed."""
    if (min(rank, vectors - rank) >= MAX_CHAMBER_WORK.bit_length()
            or comb(vectors, rank) * comb(vectors, rank - 1) > MAX_CHAMBER_WORK):
        raise ValueError(f"chamber decomposition of {vectors} degrees in rank {rank} "
                         f"exceeds the work budget of {MAX_CHAMBER_WORK}")


def gkz_chambers(config):
    """All maximal chambers of the configuration, canonically ordered."""
    check_chamber_work(len(config.vectors), config.rank)
    start = _held(config, config.polarization, "polarization")
    found, queue, walls = {start: _canonical_chamber(config, start)}, [start], {}
    boundary, plane_of = set(config.ambient.facets), config.plane_of
    for held in queue:  # grows as the walk finds neighbours
        cone = found[held]
        total = cone.interior_point()  # the sum of its rays
        through = _through(config, cone.rays)
        for f in cone.facets:
            if f in boundary:
                continue  # on a facet of the effective cone, which holds the chamber
            on = tuple(r for r, m in zip(cone.rays, through) if m >> plane_of[f] & 1)
            if on not in walls:  # cross it; the walls dict maps it to its two chambers
                # p, the sum of the wall's rays, pushed off the chamber along minus the
                # sum of the rays off the wall, in sign order: just past the wall
                p = tuple(map(sum, zip(*on)))
                nxt = _held(config, _past(config, p, [a - b for a, b in zip(p, total)]))
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
    return Decomposition(config, [GKZChamber(cone, w, sbl_signature(config, _signs(config, w)))
                                  for _, cone in order for w in [cone.interior_point()]], walls)


def _packing(config, width):
    """The planes packed into K fields of B = 8 ``width`` bits, memoised per width:
    per coordinate i the integer sum_k h_k[i] 2^(B k), the mask of every field's
    top bit (also the offset 2^(B - 1) per field), the mask of every field's
    lowest bit, and the top-bit masks of the planes with +h_k and with -h_k a
    facet normal of the effective cone."""
    bits, planes = 8 * width, config.planes
    ones = sum(1 << bits * k for k in range(len(planes)))

    def spread(mask):  # plane mask -> mask of those fields' top bits
        return sum(1 << bits * k + bits - 1 for k in _bits(mask))

    columns = [sum(h[i] << bits * k for k, h in enumerate(planes)) for i in range(config.rank)]
    packing = config._packings[width] = (
        columns, ones << bits - 1, ones, *map(spread, config.effective))
    return packing


def _signs(config, v):
    """The sign key of the integer class v, None outside the effective cone: per
    plane the top byte of its field of the >= 0 mask or'ed with the > 0 mask shifted
    down one bit, 0x00, 0x80 or 0xc0 where h_k.v < 0, = 0 or > 0, whatever the
    width of the whole-byte fields (see the module docstring), which are enough
    that max|h| sum|v_i| <= 2^(B - 1) - 1, so no field carries."""
    width = (config.height * sum(map(abs, v))).bit_length() // 8 + 1
    columns, half, ones, nonneg_facets, nonpos_facets = (config._packings.get(width)
                                                         or _packing(config, width))
    x = sum(map(mul, v, columns), half)
    nonneg, pos = x & half, x - ones & half
    if nonneg & nonneg_facets != nonneg_facets or pos & nonpos_facets:
        return None
    key = (nonneg | pos >> 1).to_bytes(width * len(config.planes), "little")
    return key if width == 1 else key[width - 1::width]


def chamber_of(config, w):
    """The chamber (or lower-dimensional face) of the class w, with its signature.

    Both depend only on w's sign vector over the spanned hyperplanes h (the class
    just past w along ``config.nudge`` has the sign of h.w, or of h.nudge where
    h.w = 0, see ``_lift``; the tight facets are the facet planes among the 0x80
    bytes of w's key; the signature reads the h with h.w < 0), so they are
    memoised per sign key, read from one packed integer with no denominator pass
    for an all-int w.  A class outside Eff has no key; a miss, as every
    configuration's first query is, refuses a rank past ``MAX_QUERY_RANK``."""
    w = tuple(w)
    try:  # an all-int w needs no denominator pass; other entries fail in _signs
        signs = _signs(config, w)
    except (AttributeError, TypeError, ArithmeticError):
        signs = _signs(config, clear_denominators(w)[0])  # refuses an inexact w
    if len(w) != config.rank:
        raise ValueError("dimension mismatch")
    if signs is None:
        raise ValueError("class outside the effective cone")
    cell = config._cells.get(signs)
    if cell is None:
        check_query_rank(config.rank)
        cone = _canonical_chamber(config, _held(config, w, signs=_lift(config, signs)))
        tight = int(signs[::-1].translate(_ON), 2) & sum(1 << config.plane_of[f]
                                                         for f in cone.facets)
        if tight:  # the face of the chamber that holds w in its relative interior
            rays = tuple(r for r, m in zip(cone.rays, _through(config, cone.rays))
                         if m & tight == tight)
            if rays not in config._faces:
                config._faces[rays] = Cone.from_generators(rays, config.rank)
            cone = config._faces[rays]
        cell = config._cells[signs] = cone, sbl_signature(config, signs)
    return GKZChamber(cell[0], w, cell[1])


@cache
def decomposition_for(n):
    # priced from the sizes of `cox_generator_degrees(n)`, before any build: T4..T{2r+2}
    # and S1..S_r, plus one more S for odd n, in rank r + 1
    r = geometry.exceptional_count(n)
    check_chamber_work(2 * r + 1 + n % 2, r + 1)
    return gkz_chambers(configuration_for(n))


def _regions_outside_movable(n):
    """The base-locus regions of A(n) outside the movable cone; a region with
    chambers on both sides of its boundary is an ``ArithmeticError``."""
    dec, mov, outside = decomposition_for(n), geometry.movable_cone(n), []
    for region in dec.regions:
        classes = {mov.contains(dec.chambers[i].representative) for i in region.chambers}
        if len(classes) != 1:
            raise ArithmeticError("region straddles the movable boundary")
        if not classes.pop():
            outside.append(region)
    return outside


def conjecture_counts(n):
    """(computed, predicted) number of base-locus regions outside the movable cone.

    Predicted: 2^((n-2)/2) - 1 for even n and 2^((n-1)/2) - 2 for odd n.
    """
    computed = len(_regions_outside_movable(n))
    return computed, 2 ** ((n - 2) // 2) - 1 if n % 2 == 0 else 2 ** ((n - 1) // 2) - 2


def conjecture_label_sets(n):
    """(computed, predicted) divisorial base-locus labels outside the movable cone.

    Every label set is a frozenset of S_i families; the prediction lists all
    nonempty subsets for even n, and all but the full one for odd n.
    """
    computed = {region.labels for region in _regions_outside_movable(n)}
    names = [f"S{i}" for i in range(1, (n - 1) // 2 + 1)]
    return computed, {frozenset(s) for size in range(1, len(names) + 1 - n % 2)
                      for s in combinations(names, size)}


def blowup_one_decomposition(n):
    """Chamber decomposition of the effective cone of the single blow-up A(n)_1."""
    return gkz_chambers(first_blowup_configuration(n))


def first_blowup_intervals(n):
    """Rank-two chambers of A(n)_1 as half-open wall intervals.

    Walls sit at E_1 and the classes (k+1) H - k E_1.  An interval is closed at a
    wall ray iff the signature there is its own, so a wall belongs to each side whose
    base locus it shares: [E_1, D_2), [D_2, D_4], (D_4, D_6], ...
    """
    dec = blowup_one_decomposition(n)
    rays = [(0, 1)] + [(k + 1, -k) for k in range((n - 1) // 2 + 1)]
    at = [sbl_signature(dec.config, _signs(dec.config, r)) for r in rays]
    intervals = []
    for idx, (left, right) in enumerate(zip(rays, rays[1:])):
        ch = next(ch for ch in dec.chambers if ch.rays == (left, right))
        intervals.append({"left": left, "right": right, "closed_left": at[idx] == ch.signature,
                          "closed_right": at[idx + 1] == ch.signature, "forced": ch.forced,
                          "signature": ch.signature})
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
