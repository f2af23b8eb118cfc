import random
import re
from fractions import Fraction
from itertools import combinations

import pytest

from skewmori import chambers, geometry
from skewmori.chambers import (
    VectorConfiguration,
    blowup_one_decomposition,
    chamber_of,
    configuration_for,
    conjecture_counts,
    conjecture_label_sets,
    decomposition_for,
    dictionary_label,
    describe_signature,
    first_blowup_configuration,
    first_blowup_intervals,
    gkz_chambers,
)
from skewmori.cones import Cone, nonneg_combination
from skewmori.linalg import dot, rank


A6_CHAMBERS = [
    {(1, 0, 0), (2, -1, 0), (3, -2, -1)},   # nef
    {(1, 0, 0), (2, -1, 0), (0, 0, 1)},
    {(2, -1, 0), (3, -2, -1), (0, 0, 1)},
    {(1, 0, 0), (0, 1, 0), (0, 0, 1)},
    {(1, 0, 0), (0, 1, 0), (3, -2, -1)},
]

A7_CHAMBERS = [
    {(1, 0, 0), (2, -1, 0), (3, -2, -1)},   # nef
    {(1, 0, 0), (2, -1, 0), (0, 0, 1)},
    {(2, -1, 0), (3, -2, -1), (0, 0, 1)},
    {(1, 0, 0), (0, 1, 0), (0, 0, 1)},
    {(3, -2, -1), (4, -3, -2), (0, 0, 1)},
    {(1, 0, 0), (3, -2, -1), (6, -3, -2)},  # second movable chamber
    {(0, 1, 0), (1, 0, 0), (6, -3, -2)},
    {(4, -3, -2), (3, -2, -1), (6, -3, -2)},
    {(0, 1, 0), (4, -3, -2), (6, -3, -2)},
]


def test_chamber_counts():
    for n, expected in [(4, 2), (5, 3), (6, 5), (7, 9), (8, 15)]:
        assert len(decomposition_for(n).chambers) == expected, n


def test_unit_vectors_single_chamber():
    config = VectorConfiguration(
        2, [("A", (1, 0)), ("B", (0, 1))], (1, 1))
    assert len(gkz_chambers(config).chambers) == 1


def test_a6_chamber_rays():
    got = [set(ch.rays) for ch in decomposition_for(6).chambers]
    assert len(got) == 5
    for want in A6_CHAMBERS:
        assert want in got


def test_a7_chamber_rays_and_emergent_ray():
    got = [set(ch.rays) for ch in decomposition_for(7).chambers]
    assert len(got) == 9
    for want in A7_CHAMBERS:
        assert want in got
    assert any((6, -3, -2) in rays for rays in got)


def test_chamber_of_nef_interior_a8():
    config = configuration_for(8)
    w = tuple(sum(c) for c in zip(*(g.coeffs for g in geometry.nef_generators(8))))
    ch = chamber_of(config, w)
    assert ch.is_maximal()
    assert set(ch.rays) == {(1, 0, 0, 0), (4, -3, -2, -1), (2, -1, 0, 0), (3, -2, -1, 0)}
    assert ch.forced == frozenset()


def test_chamber_of_boundary_ray_is_face():
    config = configuration_for(6)
    ch = chamber_of(config, (2, -1, 0))  # a nef generator ray
    assert not ch.is_maximal()
    assert ch.rays == ((2, -1, 0),)


def test_chamber_of_exceptional_side():
    # a class heavy on E_1 with a little H sits in the <D_2, E_1, E_2> chamber
    config = configuration_for(6)
    ch = chamber_of(config, (1, 3, 1))
    assert set(ch.rays) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    assert ch.forced == frozenset({"S1", "S2"})


def test_chamber_of_outside_effective():
    with pytest.raises(ValueError, match="outside the effective cone"):
        chamber_of(configuration_for(6), (-1, 0, 0))


def test_chamber_of_refuses_floats():
    with pytest.raises(ValueError, match="inexact"):
        chamber_of(configuration_for(6), (1.0, 3, 1))


def test_forced_groups_a6_examples():
    config = configuration_for(6)
    # interior of <D_2, D_4, E_2>
    assert chamber_of(config, (3, -1, 1)).forced == frozenset({"S2"})
    # interior of the nef cone
    assert chamber_of(config, (6, -3, -1)).forced == frozenset()
    # interior of <D_2, E_1, E_2>
    assert chamber_of(config, (1, 1, 1)).forced == frozenset({"S1", "S2"})


def test_forced_raw_rule_vs_filtered():
    # on <D_4, D_6, E_2> the raw monomial test also forces the T6 family, but
    # its zero locus is empty in the ambient toric model, so the stable base
    # locus keeps only E_2 and the two E_2 chambers merge
    config = configuration_for(6)
    w = (5, -3, 0)

    def others(label):
        return [degree for other, degree in config.families if other != label]

    assert nonneg_combination(others("T6"), w) is None
    assert chamber_of(config, w).forced == frozenset({"S2"})
    assert nonneg_combination(others("S2"), w) is None


def test_sbl_region_counts_and_merge():
    assert len(decomposition_for(6).regions) == 4
    assert len(decomposition_for(7).regions) == 8
    dec8 = decomposition_for(8)
    assert len(dec8.regions) == 9
    assert sorted(len(r.chambers) for r in dec8.regions) == [1, 1, 1, 1, 1, 2, 2, 3, 3]


def test_a7_wall_removal():
    # the two chambers <D_2,D_4,E_2> and <D_4,D_6,E_2> form one region
    dec = decomposition_for(7)
    pair = [{(1, 0, 0), (2, -1, 0), (0, 0, 1)}, {(2, -1, 0), (3, -2, -1), (0, 0, 1)}]
    idxs = {i for i, ch in enumerate(dec.chambers) if set(ch.rays) in pair}
    region = next(r for r in dec.regions if idxs <= set(r.chambers))
    assert set(region.chambers) == idxs
    assert region.labels == frozenset({"S2"})


def test_movable_chambers_are_separate_regions():
    # both movable chambers have no divisorial base locus, but only the nef
    # one has an empty stable base locus
    dec = decomposition_for(7)
    nef_idx = next(i for i, ch in enumerate(dec.chambers)
                   if set(ch.rays) == A7_CHAMBERS[0])
    flop_idx = next(i for i, ch in enumerate(dec.chambers)
                    if set(ch.rays) == A7_CHAMBERS[5])
    nef_ch, flop_ch = dec.chambers[nef_idx], dec.chambers[flop_idx]
    assert nef_ch.forced == flop_ch.forced == frozenset()
    assert nef_ch.signature == frozenset()
    assert flop_ch.signature == frozenset({frozenset({"S1", "S3"})})
    assert describe_signature(flop_ch.signature) == "E1&E3"
    regions = {next(k for k, r in enumerate(dec.regions) if i in r.chambers)
               for i in (nef_idx, flop_idx)}
    assert len(regions) == 2


def test_refinement_invariant():
    for n in (6, 7, 8):
        dec = decomposition_for(n)
        nef = geometry.nef_cone(n)
        mov = geometry.movable_cone(n)
        eff = geometry.eff_cone(n)
        for ch in dec.chambers:
            w = ch.representative
            assert eff.contains(w)
            inside = sum([nef.contains(w), mov.contains(w), eff.contains(w)])
            assert inside >= 1
            if nef.contains(w):
                assert ch.forced == frozenset()
            # chamber interiors never straddle the nef or movable boundary
            for cone in (nef, mov):
                assert cone.contains(w) == all(cone.contains(r) for r in ch.rays)


def test_coverage_and_disjointness():
    rng = random.Random(13)
    for n in (6, 7, 8, 9):
        dec = decomposition_for(n)
        config = configuration_for(n)
        found = {ch.rays for ch in dec.chambers}
        eff_rays = [g.coeffs for g in geometry.eff_generators(n)]
        for _ in range(40):
            coeffs = [Fraction(rng.randint(0, 9)) for _ in eff_rays]
            if not any(coeffs):
                continue
            w = tuple(sum(c * Fraction(r[i]) for c, r in zip(coeffs, eff_rays))
                      for i in range(len(eff_rays[0])))
            holding = [ch for ch in dec.chambers if ch.cone.contains(w)]
            strict = [ch for ch in dec.chambers if ch.cone.interior_contains(w)]
            assert len(holding) >= 1
            assert len(strict) <= 1
            if strict:
                assert chamber_of(config, w).rays in found


def pairwise_walls(dec):
    """Every pair of chambers meeting in a codimension-one cone, with its rays."""
    walls = []
    for i, j in combinations(range(len(dec.chambers)), 2):
        shared = dec.chambers[i].cone.intersect(dec.chambers[j].cone)
        if shared.dim() == dec.config.rank - 1:
            walls.append((i, j, shared.rays))
    return walls


def test_walls_between_chambers():
    for dec in [decomposition_for(n) for n in (6, 7, 8)] + [
            gkz_chambers(first_blowup_configuration(7))]:
        assert list(dec.walls) == pairwise_walls(dec)
    dec = decomposition_for(6)
    assert all(len(rays) >= 1 for _, _, rays in dec.walls)
    # nef shares a wall with both adjacent movable-boundary chambers
    nef_idx = next(i for i, ch in enumerate(dec.chambers) if set(ch.rays) == A6_CHAMBERS[0])
    assert any(nef_idx in (i, j) for i, j, _ in dec.walls)


def test_polarization_on_a_wall_is_refused():
    families = [("A", (1, 0)), ("B", (0, 1)), ("C", (1, 1))]
    assert len(gkz_chambers(VectorConfiguration(2, families, (2, 1))).chambers) == 2
    with pytest.raises(ValueError, match="polarization"):
        gkz_chambers(VectorConfiguration(2, families, (1, 1)))


def test_determinism_fresh_recomputation():
    first = gkz_chambers(configuration_for(6))
    second = gkz_chambers(configuration_for(6))
    assert [ch.rays for ch in first.chambers] == [ch.rays for ch in second.chambers]
    assert [r.chambers for r in first.regions] == [r.chambers for r in second.regions]
    assert [ch.forced for ch in first.chambers] == [ch.forced for ch in second.chambers]


def test_conjecture_counts_and_labels():
    for n, expected in [(6, 3), (7, 6), (8, 7)]:
        computed, predicted = conjecture_counts(n)
        assert computed == expected and predicted == expected
        comp, pred = conjecture_label_sets(n)
        assert comp == pred


def test_rank_guard():
    with pytest.raises(ValueError):
        decomposition_for(14)


def test_blowup_one_counts():
    for n, expected in [(4, 2), (5, 3), (6, 3), (7, 4), (8, 4), (9, 5)]:
        assert len(blowup_one_decomposition(n).chambers) == expected, n


def test_blowup_one_intervals_n5():
    iv = first_blowup_intervals(5)
    assert [(r["left"], r["right"]) for r in iv] == [
        ((0, 1), (1, 0)), ((1, 0), (2, -1)), ((2, -1), (3, -2))]
    assert [(r["closed_left"], r["closed_right"]) for r in iv] == [
        (True, False), (True, True), (False, True)]
    assert [sorted(r["forced"]) for r in iv] == [["S1"], [], ["T6"]]


def test_blowup_one_walls_n6():
    iv = first_blowup_intervals(6)
    assert [r["right"] for r in iv] == [(1, 0), (2, -1), (3, -2)]


def test_blowup_one_sec_labels():
    # (D_{2h}, D_{2h+2}] carries the stable base locus of the rank-2h
    # degeneracy locus: the jointly forced tail of Pfaffian families
    # T_{2h+2}, ..., whose common zero locus is exactly that stratum
    for n in (7, 8):
        iv = first_blowup_intervals(n)
        top = (n - 1) // 2
        for idx, row in enumerate(iv[2:], start=2):
            tail = frozenset(f"T{2 * k + 2}" for k in range(idx, top + 1))
            assert row["signature"] == frozenset({tail})
            assert describe_signature(row["signature"]) == f"sec{idx}"
    assert dictionary_label("T6") == "sec2"
    assert dictionary_label("S2") == "E2"


def test_blowup_one_mcd_equals_sbl():
    for n in (5, 6, 7, 8):
        dec = blowup_one_decomposition(n)
        assert len(dec.regions) == len(dec.chambers)


def test_label_monotonicity_along_rank_two_ray():
    # from D_2 toward E_1 the base locus grows (empty into E_1); from D_2
    # downward the base loci are nested secants of increasing index
    iv = first_blowup_intervals(8)
    assert sorted(iv[0]["forced"]) == ["S1"] and iv[1]["forced"] == frozenset()
    sec_indices = [int(describe_signature(r["signature"])[3:]) for r in iv[2:]]
    assert sec_indices == sorted(sec_indices)
    assert all(i >= 2 for i in sec_indices)


def test_region_listing_order_stable():
    dec = decomposition_for(6)
    regions = dec.regions
    assert regions == dec.regions
    assert sum(len(r.chambers) for r in regions) == len(dec.chambers)


def test_one_decomposition_per_n(monkeypatch):
    calls = []
    original = chambers.gkz_chambers

    def counting(config):
        calls.append(config.rank)
        return original(config)

    monkeypatch.setattr(chambers, "gkz_chambers", counting)
    decomposition_for.cache_clear()
    first = decomposition_for(6)
    second = decomposition_for(6)
    conjecture_counts(6)
    conjecture_label_sets(6)
    assert len(calls) == 1
    assert first is second


def subset_chamber(config, w):
    """Oracle for the cell of w: the intersection of every subset cone holding
    it.  By Caratheodory the subsets of at most ``rank`` degrees suffice."""
    facets = set(config.ambient.facets)
    for size in range(1, config.rank + 1):
        for subset in combinations(config.vectors, size):
            cone = config.subset_cone(subset)
            if cone.contains(w):
                facets.update(cone.facets)
    return Cone.from_inequalities(sorted(facets), config.rank)


def subset_signature(config, w):
    """Oracle for the signature: every family set, smallest first, that is
    forced at w, not forced at the polarization, and holds no set found before."""
    def forced(families, v):
        return not config.subset_cone([degree for label, degree in config.families
                                       if label not in families]).contains(v)

    found = []
    for size in range(1, len(config.labels) + 1):
        for s in map(frozenset, combinations(config.labels, size)):
            if (not any(prev <= s for prev in found) and forced(s, w)
                    and not forced(s, config.polarization)):
                found.append(s)
    return frozenset(found)


def assert_oracle(config, w, got):
    want = subset_chamber(config, w)
    assert (got.cone.rays, got.cone.facets, got.cone.lineality) == (
        want.rays, want.facets, want.lineality), w
    assert got.signature == subset_signature(config, w), w


def vector_sum(vectors):
    return tuple(map(sum, zip(*vectors)))


def combination(vectors, rng, low, high):
    """A random combination of the vectors with integer coefficients in [low, high]."""
    coeffs = [rng.randint(low, high) for _ in vectors]
    return vector_sum([[c * x for x in v] for c, v in zip(coeffs, vectors)])


def oracle_points(dec, rng, count=8):
    """Representatives, rays and pairwise ray sums of every chamber, ray sums of
    every wall, and random nonnegative combinations of the degrees."""
    config, points = dec.config, set()
    for ch in dec.chambers:
        points.update([ch.representative, *ch.rays])
        points.update(map(vector_sum, combinations(ch.rays, 2)))
    points.update(vector_sum(on) for _, _, on in dec.walls)
    for _ in range(count):
        pick = rng.sample(config.vectors, rng.randint(1, min(4, len(config.vectors))))
        points.add(combination(pick, rng, 0, 5))
    return sorted(points)


def assert_walk_and_queries_match_oracle(config, rng, limit=None):
    """Every walk chamber, and chamber_of at the oracle points (a random
    ``limit`` of them, if given), against the oracles."""
    dec = gkz_chambers(config)
    for ch in dec.chambers:
        assert_oracle(config, ch.representative, ch)
    points = oracle_points(dec, rng)
    for w in points if limit is None else rng.sample(points, min(limit, len(points))):
        assert_oracle(config, w, chamber_of(config, w))
    return dec


@pytest.mark.parametrize("model,n", [("A", n) for n in range(4, 11)] + [
    ("blowup", n) for n in range(4, 10)])
def test_generic_path_against_chamber_of(model, n):
    # the walk and chamber_of read chambers and base loci off the bases and
    # the cocircuits; the oracles intersect every subset cone and test every
    # family set, at generic classes, rays, walls and random classes
    config = configuration_for(n) if model == "A" else first_blowup_configuration(n)
    assert_walk_and_queries_match_oracle(config, random.Random(f"{model}{n}"))


def test_chamber_of_against_oracle_n11():
    config, rng = configuration_for(11), random.Random(11)
    points = [config.polarization, config.vectors[0], vector_sum(config.vectors[:2])]
    for _ in range(3):
        pick = rng.sample(config.vectors, 3)
        points.append(combination(pick, rng, 1, 5))
    for w in points:
        assert_oracle(config, w, chamber_of(config, w))


def answer(ch):
    return ch.cone.rays, ch.cone.facets, ch.cone.lineality, ch.signature


@pytest.mark.parametrize("n", [8, 11])
def test_chamber_of_independent_of_cache_state_and_order(n):
    # each class on a fresh configuration, then all of them twice on one warm
    # configuration in shuffled order: the sign-vector, chamber and face memos
    # change no answer, and the second pass adds no cell, face or chamber
    dec, rng = decomposition_for(n), random.Random(f"order{n}")
    rays = sorted({r for ch in dec.chambers for r in ch.rays})
    points = sorted({*rng.sample([vector_sum(on) for _, _, on in dec.walls], 20),
                     *rng.sample(rays, min(15, len(rays))),
                     *(ch.representative for ch in rng.sample(dec.chambers, 5)),
                     *(combination(rng.sample(dec.config.vectors, rng.randint(1, 4)), rng, 1, 9)
                       for _ in range(20))})
    fresh = {w: answer(chamber_of(configuration_for(n), w)) for w in points}
    warm = configuration_for(n)
    for w in rng.sample(points, len(points)):
        assert answer(chamber_of(warm, w)) == fresh[w], w
    memos = [dict(warm._cells), dict(warm._faces), dict(warm._chambers)]
    assert all(memos)
    for w in rng.sample(points, len(points)):
        assert answer(chamber_of(warm, w)) == fresh[w], w
    for memo, before in zip((warm._cells, warm._faces, warm._chambers), memos):
        assert memo == before and all(memo[k] is v for k, v in before.items())


def sign_vector(config, w):
    return tuple((x > 0) - (x < 0) for x in (dot(h, w) for h in config.planes))


def assert_sign_vector_rule(config, points):
    """Query ``points`` on ``config``, then per sign vector over the spanned
    hyperplanes its first class w, 3w, its second class w2 and w + w2 again:
    each warm answer equals the cold answer on a fresh copy of the configuration,
    and the memo holds one entry per sign vector.  Returns how many sums it tried."""
    cells = {}
    for w in points:
        cells.setdefault(sign_vector(config, w), []).append(w)
        chamber_of(config, w)
    sums = 0
    for ws in cells.values():
        classes = [ws[0], tuple(3 * x for x in ws[0])]
        if len(ws) > 1:
            classes += [ws[1], vector_sum(ws[:2])]
            sums += 1
        for v in classes:
            assert sign_vector(config, v) == sign_vector(config, ws[0]), v
            cold = VectorConfiguration(config.rank, config.families, config.polarization)
            assert answer(chamber_of(config, v)) == answer(chamber_of(cold, v)), v
    assert len(config._cells) == len(cells)
    return sums


@pytest.mark.parametrize("n, count", [(8, 60), (11, 20)])
def test_chamber_of_answer_depends_on_sign_vector_alone(n, count):
    dec, rng = decomposition_for(n), random.Random(f"signs{n}")
    rays = sorted({r for ch in dec.chambers for r in ch.rays})
    points = [*rng.sample(rays, min(10, len(rays))), *(ch.representative for ch in dec.chambers[:5]),
              *(vector_sum(on) for _, _, on in dec.walls[:5])]
    points += [combination(rng.sample(dec.config.vectors, rng.randint(1, 2)), rng, 1, 4)
               for _ in range(count)]
    assert assert_sign_vector_rule(configuration_for(n), points)


def test_chamber_of_refuses_on_a_memoised_sign_vector():
    # (10.0, -6, -3, -1) and (10, -6, -3, -1, 0) would share the sign vector of
    # (10, -6, -3, -1): the refusals come before the memo is read
    config = configuration_for(8)
    chamber_of(config, (10, -6, -3, -1))
    cells = dict(config._cells)
    assert len(cells) == 1
    for w, message in (((10.0, -6, -3, -1), "inexact entry 10.0: use int or Fraction"),
                       ((-10, 6, 3, 1), "class outside the effective cone"),
                       ((0, 0, 0, -1), "class outside the effective cone"),
                       ((10, -6, -3), "dimension mismatch"),
                       ((10, -6, -3, -1, 0), "dimension mismatch")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            chamber_of(config, w)
    assert config._cells == cells


def random_configuration(rng):
    """Rank 2-4, 3-8 distinct degrees spanning a pointed cone (each has positive
    coordinate sum), sometimes a second family on one degree, and a random
    interior polarization off every spanned hyperplane."""
    r = rng.randint(2, 4)
    while True:
        degrees = set()
        for _ in range(rng.randint(3, 8)):
            v = tuple(rng.randint(-2, 3) for _ in range(r))
            if sum(v) > 0:
                degrees.add(v)
        degrees = sorted(degrees)
        if len(degrees) >= 3 and rank(degrees) == r:
            break
    families = [(f"G{i}", v) for i, v in enumerate(degrees)]
    if rng.random() < 0.3:
        families.append(("twin", rng.choice(degrees)))
    while True:
        polarization = combination(degrees, rng, 1, 4)
        config = VectorConfiguration(r, families, polarization)
        if all(dot(h, polarization) for h in config.planes):
            return config


def test_random_configurations_against_oracle():
    rng, sums = random.Random(2024), 0
    for i in range(40):
        config = random_configuration(rng)
        dec = assert_walk_and_queries_match_oracle(config, rng, limit=25)
        for _ in range(10):  # random effective classes lie in a found chamber
            w = combination(config.vectors, rng, 0, 6)
            assert any(ch.cone.contains(w) for ch in dec.chambers), w
        # classes for the sign-vector rule come from their own stream, which
        # leaves the configurations drawn above as they were
        signs = random.Random(f"signs{i}")
        sums += assert_sign_vector_rule(
            VectorConfiguration(config.rank, config.families, config.polarization),
            [combination(signs.sample(config.vectors, signs.randint(1, 3)), signs, 1, 3)
             for _ in range(15)])
    assert sums


def test_generic_path_refuses_walls():
    for n in (6, 7, 8):
        config, dec = configuration_for(n), decomposition_for(n)
        held = chambers._held(config, dec.chambers[0].representative)
        assert held and all(len(chambers._bits(mask)) == config.rank for mask, _ in held)
        for _, _, on in dec.walls:
            with pytest.raises(ValueError, match="not interior to a chamber"):
                chambers._held(config, tuple(map(sum, zip(*on))))
        for w in [g.coeffs for g in geometry.eff_generators(n)] + [(-1,) + (0,) * (config.rank - 1)]:
            with pytest.raises(ValueError, match="not interior to a chamber"):
                chambers._held(config, w)


def test_rank_six_pins():
    dec = decomposition_for(12)
    assert (len(dec.chambers), len(dec.regions), len(dec.walls)) == (318, 91, 1018)
    assert conjecture_counts(12) == (66, 31)


def test_families_sharing_a_degree():
    # a degree shared by two families is dropped only when both are: the
    # cocircuit masks are per degree, the signature per family set
    plane = {"A": (1, 0), "B": (0, 1), "C": (1, 1), "D": (1, 1), "E": (1, 0)}
    space = {"A": (1, 0, 0), "B": (0, 1, 0), "C": (0, 0, 1), "D": (1, 1, 0),
             "E": (1, 1, 0), "F": (0, 1, 1), "H": (1, 0, 0)}
    signatures = []
    for degrees, polarization in ((plane, (1, 2)), (space, (3, 2, 1))):
        config = VectorConfiguration(len(polarization), list(degrees.items()), polarization)
        dec = assert_walk_and_queries_match_oracle(config, random.Random(len(degrees)))
        signatures += [ch.signature for ch in dec.chambers]
    assert frozenset({frozenset({"A", "E"})}) in signatures
