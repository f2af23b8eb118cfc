import hashlib
import random
import re
from decimal import Decimal
from fractions import Fraction
from itertools import combinations, product

import pytest

from oracles import DotOracle, interior_contains, planes_through
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
            strict = [ch for ch in dec.chambers if interior_contains(ch.cone, w)]
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
    # the decomposition is priced by work, C(v, r) C(v, r - 1), not by rank: n = 14
    # (rank 7) runs, n = 15 (rank 7 too) is refused
    with pytest.raises(ValueError, match="exceeds the work budget"):
        decomposition_for(15)
    with pytest.raises(ValueError, match="exceeds the work budget"):
        gkz_chambers(configuration_for(15))
    # chamber_of refuses rank 8 on a memo miss: the first query, and its repeat
    config = configuration_for(16)
    for _ in range(2):
        with pytest.raises(ValueError, match="^chamber queries supported up to rank 7$"):
            chamber_of(config, config.polarization)
    assert not config._cells


def test_work_guard_reads_the_sizes_of_the_degree_list():
    # decomposition_for prices A(n) from 2r + 1 + n % 2 degrees in rank r + 1
    # without building them; pin that count against the list itself
    for n in range(2, 61):
        r = geometry.exceptional_count(n)
        degrees = {g.degree.coeffs for g in geometry.cox_generator_degrees(n)}
        assert (len(degrees), geometry.picard_rank(n)) == (2 * r + 1 + n % 2, r + 1), n
    # the single blow-up at its cap n = 400, T2..T400 and S1 in rank 2, stays inside it
    chambers.check_chamber_work(201, 2)


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


def test_blowup_interval_closures_follow_the_signatures():
    # a wall ray is closed on each side whose signature it shares: [E_1, D_2), [D_2, D_4],
    # then (D_2k, D_2k+2] up to the last Pfaffian
    for n in range(4, 61):
        iv = first_blowup_intervals(n)
        assert [(r["closed_left"], r["closed_right"]) for r in iv] == [
            (True, False), (True, True)] + [(False, True)] * (len(iv) - 2), n


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
    # change no answer, and the second pass adds no cell, face or chamber; then
    # the walk after those queries, and the queries after a walk on a fresh
    # configuration: the chunk tables, ray masks and label memos each fills change
    # no answer of the other, and equal keys hold equal entries
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
    assert chamber_digest(gkz_chambers(warm)) == chamber_digest(dec)
    walked = configuration_for(n)
    gkz_chambers(walked)
    for w in points:
        assert answer(chamber_of(walked, w)) == fresh[w], w
    for (_, a), (_, b) in zip(warm._tables, walked._tables):
        assert a and b and all(a[key] == b[key] for key in a.keys() & b.keys())
    a, b = warm._labels, walked._labels
    assert a and b and all(a[mask] == b[mask] for mask in a.keys() & b.keys())


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
                       ((10, Decimal(-6), -3, -1), "inexact entry Decimal('-6'): use int or Fraction"),
                       (("10", -6, -3, -1), "inexact entry '10': use int or Fraction"),
                       ((-10, 6, 3, 1), "class outside the effective cone"),
                       ((0, 0, 0, -1), "class outside the effective cone"),
                       ((10, -6, -3), "dimension mismatch"),
                       ((10, -6, -3, -1, 0), "dimension mismatch")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            chamber_of(config, w)
    assert config._cells == cells


def test_chamber_of_key_is_independent_of_scale_and_field_width():
    # w, 3w, 10^40 w and w/3 share one sign vector: the same answer and one memo entry
    # however wide the packed fields are, and each answer keeps its class as given
    dec, rng = decomposition_for(8), random.Random("scales")
    config = configuration_for(8)
    rays = sorted({r for ch in dec.chambers for r in ch.rays})
    points = [*rays, *(vector_sum(on) for _, _, on in dec.walls),
              *(ch.representative for ch in dec.chambers),
              *(combination(rng.sample(config.vectors, rng.randint(1, 4)), rng, 1, 9)
                for _ in range(40))]
    for w in points:
        want = answer(chamber_of(config, w))
        for v in (tuple(3 * x for x in w), tuple(10 ** 40 * x for x in w),
                  tuple(Fraction(x, 3) for x in w)):
            got = chamber_of(config, v)
            assert answer(got) == want and got.representative == v, v
            assert all(type(x) is type(y) for x, y in zip(got.representative, v))
    assert len(config._cells) == len({sign_vector(config, w) for w in points})


def width_edges(config, w):
    """Per field width of b = 1..8 bytes, its largest bound 2^(8b - 1) - 1 on every
    |h.w| and the scales t around it, for which max|h| sum|t w_i| bounds every |h.(t w)|."""
    bound = config.height * sum(map(abs, w))
    for b in range(1, 9):
        edge = 2 ** (8 * b - 1) - 1
        yield edge, range(max(1, edge // bound - 4), edge // bound + 5)


def test_chamber_of_next_to_a_field_width_edge():
    # classes in Eff (on a wall, on a facet of Eff, in a chamber) scaled across each
    # width edge keep their answers and memo entries; classes with one facet value -1
    # and the others positive, pushed along that facet across each edge, are refused
    config = configuration_for(8)
    height, facets = config.height, config.ambient.facets
    for w in ((10, -6, -3, -1), (2, -1, 0, 0), (7, -2, -1, 1)):
        want = answer(chamber_of(config, w))
        cells = dict(config._cells)
        for _, scales in width_edges(config, w):
            for t in scales:
                assert answer(chamber_of(config, tuple(t * x for x in w))) == want, (w, t)
        assert config._cells == cells
    assert len(config._cells) == 3

    def one_value_minus_one(w):
        low, second = sorted(dot(f, w) for f in facets)[:2]
        return low == -1 and second > 0

    for facet in facets:
        d = next(d for d in product((-1, 0, 1), repeat=4) if dot(facet, d) == -1)
        along = vector_sum(r for r in config.ambient.rays if dot(facet, r) == 0)
        for edge, scales in width_edges(config, along):
            outside = [w for w in (tuple(x + t * y for x, y in zip(d, along)) for t in scales)
                       if one_value_minus_one(w)]
            bounds = [height * sum(map(abs, w)) for w in outside]
            assert min(bounds) <= edge < max(bounds)
            for w in outside:
                with pytest.raises(ValueError, match="^class outside the effective cone$"):
                    chamber_of(config, w)
    assert len(config._cells) == 3


def key_by_dots(config, x):
    """The sign key of x from dot products: per plane 0x00, 0x80 or 0xc0 where
    h.x < 0, = 0 or > 0, or None outside the effective cone."""
    if any(dot(f, x) < 0 for f in config.ambient.facets):
        return None
    return bytes((0x00, 0x80, 0xc0)[s + 1] for s in sign_vector(config, x))


def held_by_cones(cones, x):
    """The mask of the kept bases whose built cones hold x, or None if none holds
    it or one holds it on its boundary."""
    held = 0
    for i, cone in enumerate(cones):
        if cone.contains(x):
            if any(dot(f, x) == 0 for f in cone.facets):
                return None
            held |= 1 << i
    return held or None


def assert_sign_helpers(oracle, w, d):
    """``_signs``, the chunk entries of its key, the key lifted along the nudge,
    ``_held`` and ``sbl_signature`` at w and at ``_past(w, d)``, the signs of the
    latter (those of w, else of d), and the labels memoised per cocircuit mask,
    against dot products and the built basis cones.  Returns
    how many planes have h.w = +-1 and h.d = -+max|h| sum|d_i|, where no smaller
    push than ``_past``'s reads the sign of w."""
    config = oracle.config
    x = chambers._past(config, w, d)
    assert sign_vector(config, x) == tuple(
        a or b for a, b in zip(sign_vector(config, w), sign_vector(config, d))), (w, d)
    for y in (w, x):
        key = chambers._signs(config, y)
        assert key == key_by_dots(config, y), y
        if key is not None:
            assert chambers._entries(config, key) == [
                oracle.entry(j, key[j:j + 8]) for j in range(0, len(key), 8)], y
            assert chambers.sbl_signature(config, key) == oracle.signature(y), y
            assert chambers._lift(config, key) == key_by_dots(
                config, chambers._past(config, y, config.nudge)), y
        held = held_by_cones(oracle.cones, y) if key is not None else None
        if held is None:
            with pytest.raises(ValueError, match="not interior to a chamber"):
                chambers._held(config, y)
        else:
            assert chambers._held(config, y) == held, y
    assert set(config._labels) <= set(config.cocircuits)
    assert all(labels == oracle.labels(mask) for mask, labels in config._labels.items())
    bound = config.height * sum(map(abs, d))
    return sum(abs(a) == 1 and a * b == -bound
               for a, b in zip((dot(h, w) for h in config.planes), (dot(h, d) for h in config.planes)))


@pytest.mark.parametrize("model, n", [("A", n) for n in range(4, 13)] + [
    ("blowup", 9), ("blowup", 60)])
def test_sign_helpers_against_dot_products(model, n):
    # classes: wall sums, rays and representatives; directions: minus the sum of
    # the rays off a wall, from either side (the walk's crossing, which must land
    # strictly inside the other chamber), and signed unit vectors e_i at a
    # coordinate where some |h[i]| = max|h|; the first wall and the first unit
    # direction are also scaled, class and direction apart, across every field
    # width edge
    dec = decomposition_for(n) if model == "A" else blowup_one_decomposition(n)
    config = configuration_for(n) if model == "A" else first_blowup_configuration(n)
    rng = random.Random(f"sign helpers {model}{n}")
    oracle = DotOracle(config)
    walls = rng.sample(dec.walls, min(8, len(dec.walls)))
    rays = sorted({r for ch in dec.chambers for r in ch.rays})
    classes = [vector_sum(on) for _, _, on in walls] + rng.sample(rays, min(6, len(rays))) + [
        ch.representative for ch in rng.sample(dec.chambers, min(6, len(dec.chambers)))]
    tall = [h for h in config.planes if max(map(abs, h)) == config.height]
    classes += [r for r in rays if any(abs(dot(h, r)) == 1 for h in tall)][:4]
    units = [tuple(s * (j == i) for j in range(config.rank)) for i in range(config.rank)
             for s in (1, -1) if any(abs(h[i]) == config.height for h in config.planes)]
    crossings = []
    for i, j, on in walls:
        p = vector_sum(on)
        for a, b in ((i, j), (j, i)):
            d = tuple(x - y for x, y in zip(p, dec.chambers[a].representative))
            crossings.append((p, d))
            x = chambers._past(config, p, d)
            assert all(dot(f, x) > 0 for f in dec.chambers[b].cone.facets), (p, d)
            assert chambers._canonical_chamber(config, chambers._held(config, x)) == (
                dec.chambers[b].cone)
    pushes = [(w, d) for w in classes for d in units]
    cases = crossings + pushes
    for w, d in (crossings[0], pushes[0]):
        for _, scales in width_edges(config, w):
            cases += [(tuple(t * x for x in w), d) for t in scales]
        for _, scales in width_edges(config, d):
            cases += [(w, tuple(t * x for x in d)) for t in scales]
    assert sum(assert_sign_helpers(oracle, w, d) for w, d in cases)
    assert set(range(1, 10)) <= set(config._packings)
    # the plane of each normal, and the planes through each fan ray, as the walk and
    # chamber_of read them from the rays' sign keys
    assert sorted(config.plane_of.items()) == sorted(
        (g, k) for k, h in enumerate(config.planes) for g in (h, tuple(-x for x in h)))
    assert chambers._through(config, rays) == [planes_through(config, r) for r in rays]
    assert set(config._through) == set(rays) and config._labels


def locus_within(s, t):
    """Whether the stable base locus of signature s lies in that of t: each family set
    of s cuts out a stratum inside one of t's, so it contains one of t's sets."""
    return all(any(g >= h for h in t) for g in s)


@pytest.mark.parametrize("n, facts", [
    (6, (6, 0, 5, 1)), (7, (12, 0, 11, 1)), (8, (28, 0, 22, 6)), (9, (68, 0, 58, 10)),
    (10, (149, 0, 112, 37)), (11, (472, 0, 379, 93)), (12, (1018, 0, 739, 279))])
def test_wall_signatures(n, facts):
    # toric-model facts at the sum of each wall's rays, which has a zero plane value:
    # (walls, walls with a signature of neither chamber, walls between two signatures
    # that take the smaller locus, walls inside a region that take its signature)
    dec = decomposition_for(n)
    new = smaller = inside = 0
    for i, j, on in dec.walls:
        at = chamber_of(dec.config, vector_sum(on)).signature
        a, b = dec.chambers[i].signature, dec.chambers[j].signature
        new += at not in (a, b)
        if a == b:
            inside += at == a
        else:
            smaller += at == (a if locus_within(a, b) else b if locus_within(b, a) else None)
    assert (len(dec.walls), new, smaller, inside) == facts


def test_degrees_must_span_the_lattice():
    # chamber_of reads membership in the effective cone off the spanned planes, so every
    # facet of that cone must be one; degrees in a plane of rank 3 leave facets off them
    with pytest.raises(ValueError, match="^the degrees do not span rank 3$"):
        VectorConfiguration(3, [("A", (1, 0, 0)), ("B", (0, 1, 0)), ("C", (1, 1, 0))], (1, 1, 0))


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
        assert held and all(len(chambers._bits(config.bases[i][0])) == config.rank
                            for i in chambers._bits(held))
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


def test_rank_seven_pins():
    # toric-model regression values, not checked against the paper; the digest pins the
    # whole walk, as test_whole_walk_digests does at n = 12
    dec = decomposition_for(14)
    assert (len(dec.chambers), len(dec.regions), len(dec.walls)) == (2394, 440, 9345)
    assert chamber_digest(dec) == (
        "501c06863a946e0778890e8c6892c812dcec15d10d26479147bd779ae03c7707")


def independent_subsets(config):
    """Every ``rank``-subset of the degrees of full rank, as (vector mask, built
    cone), in the order of ``combinations``."""
    found = []
    for subset in combinations(range(len(config.vectors)), config.rank):
        vectors = [config.vectors[i] for i in subset]
        if rank(vectors) == config.rank:
            found.append((sum(1 << i for i in subset), Cone.from_generators(vectors)))
    return found


def test_minimal_held_bases_cut_out_the_chamber():
    # the chamber from the kept held bases against the cone cut out by every
    # independent subset holding the class, on a configuration no walk has touched
    for n in range(4, 13):
        config, dec = configuration_for(n), decomposition_for(n)
        cones = [cone for _, cone in independent_subsets(config)]
        for ch in dec.chambers:
            held = chambers._held(config, ch.representative)
            everything = Cone.from_inequalities(sorted(
                {f for cone in cones if cone.contains(ch.representative) for f in cone.facets}),
                config.rank)
            assert chambers._canonical_chamber(config, held) == everything == ch.cone, n


def minimal_by_subset_cones(config):
    """Oracle for ``config.bases``: the vector masks of the independent subsets
    whose built cones hold no other one, where of equal cones only an earlier
    one counts as held."""
    cones = independent_subsets(config)
    return [mask for i, (mask, outer) in enumerate(cones)
            if not any(cone.is_subset(outer) and (j < i or not outer.is_subset(cone))
                       for j, (_, cone) in enumerate(cones) if j != i)]


def twin_count(config):
    """The independent subsets whose cone equals an earlier one's."""
    cones = [cone.rays for _, cone in independent_subsets(config)]
    return len(cones) - len(set(cones))


@pytest.mark.parametrize("n", range(4, 11))
def test_inner_bases_against_subset_cones(n):
    # the kept bases are those whose cones hold no other basis cone; they are
    # read off the per-degree plane masks, the oracle off built cones
    config = configuration_for(n)
    assert [mask for mask, _ in config.bases] == minimal_by_subset_cones(config), n


def test_parallel_degrees_keep_one_of_equal_basis_cones():
    # (1, 0) and (2, 0) give the bases {C, A} and {C, B} one cone: only the earlier
    # one is kept, and the chamber is still cut out
    config = VectorConfiguration(2, [("A", (1, 0)), ("B", (2, 0)), ("C", (0, 1))], (1, 1))
    assert [mask for mask, _ in config.bases] == [0b011]  # vectors sorted: C, A, B
    assert minimal_by_subset_cones(config) == [0b011] and twin_count(config) == 1
    dec = assert_walk_and_queries_match_oracle(config, random.Random(3))
    assert [ch.rays for ch in dec.chambers] == [((0, 1), (1, 0))]


def parallel_configuration(rng):
    """A random configuration plus one to three of its degrees scaled by 2 or 3,
    each a family of its own.  The spanned hyperplanes, and so the polarization's
    genericity, are unchanged; bases through parallel degrees have equal cones."""
    config = random_configuration(rng)
    picks = [(rng.randint(2, 3), v) for v in rng.sample(config.vectors, rng.randint(1, 3))]
    extra = tuple((f"P{i}", tuple(c * x for x in v)) for i, (c, v) in enumerate(picks))
    return VectorConfiguration(config.rank, config.families + extra, config.polarization)


def test_random_parallel_degrees_against_oracle():
    # drawn from a stream of their own, which leaves the configurations of
    # test_random_configurations_against_oracle as they were
    rng, twins = random.Random("parallel"), 0
    for _ in range(15):
        config = parallel_configuration(rng)
        assert [mask for mask, _ in config.bases] == minimal_by_subset_cones(config)
        twins += twin_count(config)  # the kept bases hold no twins, so count all of them
        assert_walk_and_queries_match_oracle(config, rng, limit=25)
    assert twins


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


def chamber_digest(dec):
    """SHA-256 over every chamber's rays, facets, representative and signature,
    then the walls."""
    h = hashlib.sha256()
    for ch in dec.chambers:
        h.update(repr((ch.rays, ch.cone.facets, ch.representative,
                       sorted(sorted(g) for g in ch.signature))).encode())
    h.update(repr(dec.walls).encode())
    return h.hexdigest()


def test_whole_walk_digests():
    # the whole walk, chambers, signatures and walls, at n = 12 and for the single
    # blow-up at n = 60
    assert chamber_digest(decomposition_for(12)) == (
        "aab9169ecafac6e95f620c9df50c9c4693f2c7c3a80cdcee6b698569e2979505")
    assert chamber_digest(blowup_one_decomposition(60)) == (
        "35cc2938d637aedcd4f2bbf7fe50ae64395b440c8825608eb359c965bf13c9a3")


def test_kept_basis_counts():
    # toric-model regression values: the bases that cut out chambers, for n = 4..15
    # and for the single blow-up at its cap
    assert [len(configuration_for(n).bases) for n in range(4, 16)] == [
        2, 3, 5, 9, 14, 25, 39, 68, 107, 185, 292, 504]
    assert len(first_blowup_configuration(400).bases) == 200


def test_straddling_region_raises_in_both_conjecture_readers(monkeypatch):
    # a stand-in movable cone, the ray through one chamber of a merged region,
    # holds that chamber's representative but not the others'
    region = next(r for r in decomposition_for(7).regions if len(r.chambers) > 1)
    ray = decomposition_for(7).chambers[region.chambers[0]].representative
    monkeypatch.setattr(geometry, "movable_cone", lambda n: Cone.from_generators([ray]))
    for reader in (conjecture_counts, conjecture_label_sets):
        with pytest.raises(ArithmeticError, match="straddles the movable boundary"):
            reader(7)
