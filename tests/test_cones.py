import json
import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm

import pytest
from sympy import QQ
from sympy.polys.matrices import DomainMatrix
from hypothesis import given, settings, strategies as st

from skewmori.chambers import configuration_for, gkz_chambers
from skewmori.cones import Cone, _double_description, nonneg_combination
from skewmori import cones, geometry


OCTANT2 = Cone.from_generators([(1, 0), (0, 1)])


def test_redundant_generator_dropped():
    c = Cone.from_generators([(1, 0), (0, 1), (1, 1)])
    assert c.rays == ((0, 1), (1, 0))


def test_simplicial_rank3():
    c = Cone.from_generators([(1, 0, 0), (2, -1, 0), (3, -2, -1)])
    assert len(c.rays) == 3 and c.dim() == 3


def test_proportional_generators_collapse():
    c = Cone.from_generators([(1, 1), (2, 2)])
    assert c.rays == ((1, 1),)


def test_generator_dimension_mismatch():
    with pytest.raises(ValueError):
        Cone.from_generators([(1, 0), (1, 0, 0)])


def test_dual_octant_self_dual():
    assert OCTANT2.dual() == OCTANT2


def test_dual_halfquadrant():
    # facet systems solved by hand: normals of <(1,0),(1,1)> are (0,1), (1,-1)
    c = Cone.from_generators([(1, 0), (1, 1)])
    assert set(c.dual().rays) == {(0, 1), (1, -1)}
    assert c.dual().dual() == c


def test_dual_nef_is_mori_cone():
    # cross-module: the dot-dual of Nef(A(6)) is the Mori cone transported
    # through the intersection pairing (sign flip on the e_i coordinates)
    flipped = {(c.coeffs[0],) + tuple(-x for x in c.coeffs[1:])
               for c in geometry.mori_generators(6)}
    assert set(geometry.nef_cone(6).dual().rays) == flipped
    assert geometry.nef_cone(6) == geometry.divisor_cone_dual_to(geometry.mori_cone(6))


def test_intersect_octant_halfplane():
    half = Cone.from_inequalities([(1, -1)], 2)  # x >= y
    assert set(OCTANT2.intersect(half).rays) == {(1, 0), (1, 1)}


def test_intersect_idempotent():
    c = Cone.from_generators([(1, 0, 0), (1, 1, 0), (1, 1, 1)])
    assert c.intersect(c) == c


def test_intersect_emergent_ray():
    # the two 2-planes <D_2, D_8> and <D_6, E_1> in the rank-3 lattice of
    # A(7) meet in the ray 6H - 3E_1 - 2E_2
    left = Cone.from_generators([(1, 0, 0), (4, -3, -2)])
    right = Cone.from_generators([(3, -2, -1), (0, 1, 0)])
    meet = left.intersect(right)
    assert meet.contains((6, -3, -2))
    assert meet.rays == ((6, -3, -2),)


def test_intersect_dimension_mismatch():
    with pytest.raises(ValueError):
        OCTANT2.intersect(Cone.from_generators([(1, 0, 0)]))


def test_contains_boundary_and_interior():
    assert OCTANT2.contains((0, 0))
    assert not OCTANT2.interior_contains((0, 0))
    assert OCTANT2.interior_contains((1, 1))


def test_contains_on_lattice_cones():
    assert geometry.nef_cone(6).contains((2, -1, 0))
    assert geometry.eff_cone(6).contains((1, 1, 1))
    assert not geometry.movable_cone(6).contains((0, 1, 0))


def test_extremal_ray_count_movable8():
    assert len(geometry.movable_cone(8).rays) == 5


def test_dim_octant3():
    assert Cone.from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1)]).dim() == 3


def test_equal_up_to_redundancy():
    a = Cone.from_generators([(1, 0), (0, 1)])
    b = Cone.from_generators([(0, 1), (1, 0), (1, 1)])
    assert a == b


def test_zero_cone_and_full_space():
    zero = Cone.zero(3)
    full = Cone.from_inequalities([], 3)
    assert zero.rays == () and zero.dim() == 0 and zero.pointed
    assert zero.contains((0, 0, 0)) and not zero.contains((1, 0, 0))
    assert full.dim() == 3 and not full.pointed
    assert zero.dual() == full and full.dual() == zero


def test_not_pointed_flagged():
    half = Cone.from_generators([(1, 0), (-1, 0), (0, 1)])
    assert not half.pointed
    assert half.lineality == ((1, 0),)


def test_json_round_trip():
    for cone in (OCTANT2, geometry.nef_cone(8), geometry.eff_cone(7)):
        data = json.loads(json.dumps(cone.to_json()))
        parsed = Cone.from_inequalities(data["facets"], data["rank"])
        assert [list(r) for r in parsed.rays] == data["rays"]
        assert parsed == cone
        assert data["rays"] == [list(r) for r in cone.rays]


def test_canonical_order_deterministic():
    gens = [(3, -2, -1), (1, 0, 0), (2, -1, 0), (5, -3, -1), (1, 0, 0)]
    rng = random.Random(11)
    reference = Cone.from_generators(gens).rays
    for _ in range(10):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert Cone.from_generators(shuffled).rays == reference


small_vec = st.tuples(*([st.integers(-6, 6)] * 3))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(small_vec, min_size=1, max_size=5))
def test_biduality_property(gens):
    c = Cone.from_generators(gens, 3)
    assert c.dual().dual() == c


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(small_vec, min_size=1, max_size=4), small_vec)
def test_farkas_both_ways(gens, v):
    c = Cone.from_generators(gens, 3)
    generators = list(c.rays)
    for l in c.lineality:
        generators.append(l)
        generators.append(tuple(-x for x in l))
    member = c.contains(v)
    witness = nonneg_combination(generators, v) if generators else None
    if not generators:
        assert member == all(x == 0 for x in v)
    else:
        assert member == (witness is not None)
        if witness is not None:
            combo = [sum(w * g[i] for w, g in zip(witness, generators)) for i in range(3)]
            assert combo == list(map(lambda x: x, v)) or tuple(combo) == tuple(v)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(small_vec, min_size=1, max_size=4),
       st.lists(small_vec, min_size=1, max_size=4), small_vec)
def test_intersection_soundness(gens1, gens2, v):
    c1 = Cone.from_generators(gens1, 3)
    c2 = Cone.from_generators(gens2, 3)
    both = c1.intersect(c2)
    assert both.contains(v) == (c1.contains(v) and c2.contains(v))


def test_biduality_random_rank_up_to_5():
    rng = random.Random(5)
    for _ in range(200):
        rank = rng.randint(2, 5)
        gens = [tuple(rng.randint(-5, 5) for _ in range(rank))
                for _ in range(rng.randint(1, rank + 3))]
        c = Cone.from_generators(gens, rank)
        assert c.dual().dual() == c


def test_rational_generators_are_exact():
    c = Cone.from_generators([(Fraction(1, 2), 1), (1, 0)])
    assert c == Cone.from_generators([(1, 2), (1, 0)])
    assert c.contains((Fraction(1, 3), Fraction(2, 3)))
    assert not c.interior_contains((Fraction(1, 3), Fraction(2, 3)))
    assert not c.contains((Fraction(1, 3), Fraction(3, 4)))


def random_normals(rng, rank, ambient, bound):
    """Seeded normals of exactly the given rank, with repeated and redundant rows.

    With bound 1 the rows are {-1, 0, 1} combinations of a {-1, 0, 1}
    basis, so many rays are tight on more normals than their codimension
    and the cardinality filter alone cannot decide adjacency.  Half the systems are flipped towards a random
    point, so that the cone they cut out is not just the origin.
    """
    while True:
        basis = [[rng.randint(-bound, bound) for _ in range(ambient)] for _ in range(rank)]
        rows = [tuple(sum(rng.randint(-bound, bound) * b[j] for b in basis)
                      for j in range(ambient))
                for _ in range(rng.randint(rank, rank + 4))]
        if exact(rows, ambient).rank() == rank:
            break
    if rng.random() < 0.5:
        point = [rng.randint(-3, 3) for _ in range(ambient)]
        rows = [a if sum(x * p for x, p in zip(a, point)) >= 0 else tuple(-x for x in a)
                for a in rows]
    rows.append(rng.choice(rows))  # repeated
    a, b = rng.sample(rows, 2)
    rows.append(tuple(2 * x + y for x, y in zip(a, b)))  # implied by a and b
    rng.shuffle(rows)
    return rows


def exact(rows, ncols):
    """sympy's exact matrix over QQ."""
    return DomainMatrix([[QQ(x) for x in row] for row in rows], (len(rows), ncols), QQ)


def brute_force_rays(normals, ambient):
    """Extremal rays of a pointed {x : a.x >= 0}: the kernel vectors of the
    rank-(d - 1) subsets of normals, oriented to satisfy every normal."""
    rays = set()
    for subset in combinations(sorted(set(normals)), ambient - 1):
        kernel = exact(subset, ambient).nullspace().to_list()
        if len(kernel) != 1:
            continue
        scale = lcm(*(int(x.denominator) for x in kernel[0]))
        ints = [int(x.numerator) * (scale // int(x.denominator)) for x in kernel[0]]
        v = tuple(x // gcd(*ints) for x in ints)
        for ray in (v, tuple(-x for x in v)):
            if all(sum(x * y for x, y in zip(a, ray)) >= 0 for a in normals):
                rays.add(ray)
    return rays


@pytest.mark.parametrize("seed", range(6))
def test_double_description_against_brute_force(seed):
    rng = random.Random(f"double-description:{seed}")
    for rank, pointed, bound in product(range(2, 6), (True, False), (1, 1, 3)):
        ambient = rank if pointed else rank + rng.randint(1, 2)
        normals = random_normals(rng, rank, ambient, bound)
        cone = Cone.from_inequalities(normals, ambient)
        expected = brute_force_rays(normals, ambient) if pointed else None
        # the canonical cone, and the one pass over the redundant normals, whose
        # rays the passes inside from_inequalities would clean up
        for lineality, rays in ((cone.lineality, cone.rays),
                                _double_description(normals, ambient)[:2]):
            assert len(set(rays)) == len(rays)
            for r in rays:
                assert all(sum(x * y for x, y in zip(a, r)) >= 0 for a in normals)
            if pointed:
                assert not lineality
                assert set(rays) == expected, normals
                continue
            assert len(lineality) == ambient - rank, normals
            for r in rays:
                tight = [a for a in normals if sum(x * y for x, y in zip(a, r)) == 0]
                rank_tight = exact(tight, ambient).rank() if tight else 0
                assert rank_tight == ambient - len(lineality) - 1, normals


@pytest.mark.parametrize("seed", range(6))
def test_tight_masks_are_the_zero_products(seed):
    """Bit i of a ray's tight mask is set iff the i-th nonzero normal is tight on it."""
    rng = random.Random(f"double-description:{seed}")
    for rank, pointed, bound in product(range(2, 6), (True, False), (1, 1, 3)):
        ambient = rank if pointed else rank + rng.randint(1, 2)
        normals = random_normals(rng, rank, ambient, bound)
        half = len(normals) // 2
        # the brute-force test's normals, then with a zero normal, which takes no index
        for system in (normals, normals[:half] + [(0,) * ambient] + normals[half:]):
            _, rays, tight = _double_description(system, ambient)
            nonzero = [a for a in system if any(a)]
            assert len(tight) == len(rays)
            for r, mask in zip(rays, tight):
                assert mask == sum(1 << i for i, a in enumerate(nonzero)
                                   if sum(x * y for x, y in zip(a, r)) == 0), system


@pytest.mark.parametrize("build", [
    lambda: Cone.from_generators([(0.5, 1.0), (1, 0)]),
    lambda: Cone.from_generators([(0.0, 0.0)]),
    lambda: Cone.from_inequalities([(1, 0), (0.0, 1)], 2),
    lambda: OCTANT2.contains((0.5, 1)),
    lambda: OCTANT2.interior_contains((1, 1.0)),
    lambda: nonneg_combination([(1, 0)], (0.1, 0)),
])
def test_floats_are_refused(build):
    with pytest.raises(ValueError, match="inexact"):
        build()


def random_vectors(rng, rank):
    """Seeded vectors spanning a random subspace, all in one simplicial cone of
    it (a pointed hull) or not, with zero, repeated and non-primitive vectors."""
    basis = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(rng.randint(1, rank))]
    low = 0 if rng.random() < 0.5 else -2
    vectors = [tuple(sum(rng.randint(low, 3) * b[j] for b in basis) for j in range(rank))
               for _ in range(rng.randint(0, 8))]
    if vectors and rng.random() < 0.4:
        vectors.append(tuple(rng.choice((2, 3)) * x for x in rng.choice(vectors)))
    if vectors and rng.random() < 0.3:
        vectors.append(rng.choice(vectors))
    if rng.random() < 0.2:
        vectors.insert(rng.randint(0, len(vectors)), (0,) * rank)
    return vectors


def passes_canonical(vectors, rank, inequalities):
    """(rays, facets, lineality) as the passes alone give it: V->H->V from
    generators, and H->V first from inequalities."""
    if inequalities:
        lineality, rays, _ = _double_description(vectors, rank)
        vectors = rays + [v for l in lineality for v in (l, tuple(-x for x in l))]
    vectors = [v for v in vectors if any(v)]
    if not vectors:
        units = [tuple(int(j == i) for j in range(rank)) for i in range(rank)]
        return (), tuple(sorted(units + [tuple(-x for x in u) for u in units])), ()
    dual_lin, dual_rays, _ = _double_description(vectors, rank)
    facets = sorted(dual_rays + [v for l in dual_lin for v in (l, tuple(-x for x in l))])
    lineality, rays, _ = _double_description(facets, rank)
    return tuple(rays), tuple(facets), tuple(lineality)


@pytest.mark.parametrize("seed", range(3))
def test_one_pass_against_the_passes(seed, monkeypatch):
    calls = []
    monkeypatch.setattr(cones, "_double_description",
                        lambda *a: calls.append(a) or _double_description(*a))
    rng = random.Random(f"one-pass:{seed}")
    one_pass = 0
    for i in range(300):
        rank = 1 + i % 6
        vectors = [] if i < 6 else random_vectors(rng, rank)
        for inequalities, build in ((False, Cone.from_generators),
                                    (True, Cone.from_inequalities)):
            calls.clear()
            cone = build(vectors, rank)
            got = (cone.rays, cone.facets, cone.lineality)
            assert got == passes_canonical(vectors, rank, inequalities), vectors
            if cone.pointed and cone.dim() == rank:
                assert len(calls) == 1, vectors  # the one pass sufficed
                one_pass += 1
    assert one_pass > 100


def test_walk_makes_one_pass_per_chamber(monkeypatch):
    calls = []
    monkeypatch.setattr(cones, "_double_description",
                        lambda *a: calls.append(a) or _double_description(*a))
    dec = gkz_chambers(configuration_for(8))
    assert len(dec.chambers) == 15
    assert len(calls) == 16  # the effective cone, then one per chamber
