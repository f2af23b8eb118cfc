"""Self-contained verification suite replaying every tabulated invariant.

Each check is exact: chamber counts, stable-base-locus region counts and
merge patterns, explicit chamber ray lists, cone dualities, the Fano index
table, the multiplicity grid, secant dimensions against the tangent-space
oracle, Cox generator counts, the region-count conjecture, and randomized
property suites (seeded, reproducible).  No network, no external solver.
"""

from __future__ import annotations

import random
from math import comb

from . import chambers, cones, geometry, linalg, pfaffian

A8_CHAMBERS = [
    {(0, 0, 1, 0), (1, 0, 0, 0), (4, -3, -2, -1), (2, -1, 0, 0)},
    {(0, 0, 1, 0), (3, -2, -1, 0), (4, -3, -2, -1), (2, -1, 0, 0)},
    {(0, 1, 0, 0), (0, 0, 0, 1), (1, 0, 0, 0), (6, -3, -2, 0)},
    {(0, 1, 0, 0), (0, 0, 0, 1), (4, -3, -2, -1), (6, -3, -2, 0)},
    {(0, 0, 0, 1), (0, 0, 1, 0), (1, 0, 0, 0), (2, -1, 0, 0)},
    {(0, 0, 0, 1), (0, 0, 1, 0), (3, -2, -1, 0), (2, -1, 0, 0)},
    {(0, 0, 0, 1), (0, 0, 1, 0), (4, -3, -2, -1), (3, -2, -1, 0)},
    {(0, 0, 0, 1), (1, 0, 0, 0), (2, -1, 0, 0), (3, -2, -1, 0)},
    {(0, 0, 0, 1), (1, 0, 0, 0), (6, -3, -2, 0), (3, -2, -1, 0)},
    {(0, 0, 0, 1), (4, -3, -2, -1), (6, -3, -2, 0), (3, -2, -1, 0)},
    {(0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0), (4, -3, -2, -1)},
    {(0, 1, 0, 0), (1, 0, 0, 0), (4, -3, -2, -1), (6, -3, -2, 0)},
    {(0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0)},
    {(1, 0, 0, 0), (4, -3, -2, -1), (2, -1, 0, 0), (3, -2, -1, 0)},
    {(1, 0, 0, 0), (4, -3, -2, -1), (6, -3, -2, 0), (3, -2, -1, 0)},
]
A8_NEF = A8_CHAMBERS[13]
A8_SECOND_MOVABLE = A8_CHAMBERS[14]
A8_MERGED_PAIRS = [A8_CHAMBERS[0:2], A8_CHAMBERS[2:4]]
A8_MERGED_TRIPLES = [A8_CHAMBERS[4:7], A8_CHAMBERS[7:10]]

MOVABLE_RAYS = {
    6: {(3, -2, -1), (1, 0, 0), (2, -1, 0)},
    7: {(3, -2, -1), (1, 0, 0), (6, -3, -2), (2, -1, 0)},
    8: {(4, -3, -2, -1), (3, -2, -1, 0), (1, 0, 0, 0), (2, -1, 0, 0), (6, -3, -2, 0)},
}

FANO_TABLE = {2: 3, 3: 6, 4: 2, 5: 5, 6: 1, 7: 1, 8: 1}


def check_chamber_counts(cfg):
    expected = {4: 2, 5: 3, 6: 5, 7: 9, 8: 15}
    got = {n: len(chambers.decomposition_for(n).chambers) for n in expected}
    rays7 = {r for ch in chambers.decomposition_for(7).chambers for r in ch.rays}
    ok = got == expected and (6, -3, -2) in rays7
    return ok, f"counts {got}, emergent A(7) ray (6,-3,-2) present: {(6, -3, -2) in rays7}"


def check_base_locus_regions(cfg):
    expected = {6: 4, 7: 8, 8: 9}
    got = {n: len(chambers.decomposition_for(n).regions) for n in expected}
    dec8 = chambers.decomposition_for(8)
    sizes = sorted(len(r.chambers) for r in dec8.regions)
    merged_ok = sizes == [1, 1, 1, 1, 1, 2, 2, 3, 3]

    def region_index(rayset):
        idx = next(i for i, ch in enumerate(dec8.chambers) if set(ch.rays) == rayset)
        return next(k for k, r in enumerate(dec8.regions) if idx in r.chambers)

    for group in A8_MERGED_PAIRS + A8_MERGED_TRIPLES:
        indices = {region_index(g) for g in group}
        if len(indices) != 1 or len(dec8.regions[indices.pop()].chambers) != len(group):
            merged_ok = False
    for single in A8_CHAMBERS[10:]:
        if len(dec8.regions[region_index(single)].chambers) != 1:
            merged_ok = False
    ok = got == expected and merged_ok
    return ok, f"region counts {got}, A(8) merge sizes {sizes}"


def check_a8_chamber_rays(cfg):
    dec8 = chambers.decomposition_for(8)
    got = [set(ch.rays) for ch in dec8.chambers]
    missing = [sorted(w) for w in A8_CHAMBERS if w not in got]
    extra = [sorted(g) for g in got if g not in A8_CHAMBERS]
    nef_ok = A8_NEF in got and A8_SECOND_MOVABLE in got
    mov = set(geometry.movable_cone(8).rays)
    ok = not missing and not extra and nef_ok and mov == MOVABLE_RAYS[8]
    return ok, f"15/15 explicit ray lists matched, missing={missing}, extra={extra}"


def check_movable(cfg):
    counts = {}
    ray_ok = count_ok = True
    for n in range(4, 14):
        k = (n - 1) // 2 if n % 2 == 1 else n // 2
        expected = 2 ** (k - 1) if n % 2 == 1 else 2 ** (k - 2) + 1
        rays = geometry.movable_cone(n).rays
        counts[n] = len(rays)
        count_ok = count_ok and counts[n] == expected
        ray_ok = ray_ok and (n not in MOVABLE_RAYS or set(rays) == MOVABLE_RAYS[n])
    return ray_ok and count_ok, f"ray lists 6..8 match: {ray_ok}; counts 4..13: {counts}"


def check_dualities(cfg):
    for n in range(4, 13):
        nef = geometry.nef_cone(n)
        eff = geometry.eff_cone(n)
        mov = geometry.movable_cone(n)
        if nef != geometry.divisor_cone_dual_to(geometry.mori_cone(n)):
            return False, f"Nef != dual(Mori) at n={n}"
        if eff != geometry.divisor_cone_dual_to(geometry.moving_curve_cone(n)):
            return False, f"Eff != dual(moving curves) at n={n}"
        if not (nef.is_subset(mov) and mov.is_subset(eff)):
            return False, f"Nef <= Mov <= Eff fails at n={n}"
    return True, "Nef = dual(Mori), Eff = dual(mov curves), Nef <= Mov <= Eff for n = 4..12"


def check_fano(cfg):
    table = {n: geometry.fano_index(n) for n in range(2, 9)}
    if table != FANO_TABLE:
        return False, f"index table {table}"
    if geometry.anticanonical(4).coeffs != (10, -2):
        return False, "-K at n=4 mismatch"
    if geometry.anticanonical(5).coeffs != (15, -5):
        return False, "-K at n=5 mismatch"
    for n in range(4, 13):
        mk = geometry.anticanonical(n)
        if not all(geometry.pair(mk, c) > 0 for c in geometry.mori_generators(n)):
            return False, f"-K not ample against the Mori generators at n={n}"
    return True, f"indices {table}; -K(4)=(10,-2), -K(5)=(15,-5); positivity for n = 4..12"


def check_multiplicity(cfg):
    n_values = range(2, 9) if cfg["n"] is None else [cfg["n"]]
    rows = pfaffian.multiplicity_grid(n_values)
    bad = [(n, k, h, got, want) for n, k, h, got, want in rows if got != want]
    return not bad, f"{len(rows)} grid entries, mismatches: {bad}"


def check_secant_dims(cfg):
    rows = []
    for n in range(3, 9):
        dims = pfaffian.terracini_dims(n, (n + 1) // 2 - 1, seed=cfg["seed"])
        for h, t in enumerate(dims, 1):
            d = pfaffian.dim_secant(n, h)
            c = pfaffian.codim_secant(n, h)
            rows.append((n, h, d, t, d + c == comb(n + 1, 2) - 1))
    bad = [(n, h, d, t) for n, h, d, t, s in rows if d != t or not s]
    return not bad, f"{len(rows)} (n,h) pairs, mismatches: {bad}"


def check_cox(cfg):
    totals = {n: sum(g.multiplicity for g in geometry.cox_generator_degrees(n)) for n in (4, 5)}
    if totals != {4: 16, 5: 32}:
        return False, f"generator totals {totals}"
    for n in range(2, 11):
        for g in geometry.cox_generator_degrees(n):
            if g.label.startswith("T"):
                size = int(g.label[1:])
                if g.multiplicity != comb(n + 1, size):
                    return False, f"multiplicity of {g.label} at n={n}"
            elif g.multiplicity != 1:
                return False, f"multiplicity of {g.label} at n={n}"
    return True, f"totals {totals}; binomial multiplicities for n = 2..10"


def check_conjecture(cfg):
    details = {}
    for n in (6, 7, 8):
        computed, predicted = chambers.conjecture_counts(n)
        comp, pred = chambers.conjecture_label_sets(n)
        labels_ok = comp == pred
        details[n] = (computed, predicted, labels_ok)
        if computed != predicted or not labels_ok:
            return False, f"details {details}"
    return True, f"(computed, predicted, labels match) by n: {details}"


def check_properties(cfg):
    rng = random.Random(f"verify-properties:{cfg['seed']}")

    def random_skew(size, bound=9):
        # one draw per pair i < j in row order; skew and integral by construction
        pairs = pfaffian.var_pairs(size - 1)
        upper = [rng.randint(-bound, bound) for _ in pairs]
        return pfaffian.SkewMatrix._make(size, {p: v for p, v in zip(pairs, upper) if v})

    def random_cone(rank, count):
        gens = []
        while len(gens) < count:
            v = tuple(rng.randint(-5, 5) for _ in range(rank))
            if any(v):
                gens.append(v)
        return cones.Cone.from_generators(gens, rank)

    for _ in range(200):
        size = rng.choice([2, 4, 6, 8, 10])
        z = random_skew(size)
        if pfaffian.pfaffian_value(z) ** 2 != linalg.det(z.to_rows()):
            return False, "pf^2 = det failed"

    count = 0
    while count < 100:
        size = rng.choice([2, 4, 6, 8])
        z = random_skew(size)
        if pfaffian.pfaffian_value(z) == 0:
            continue
        inv = pfaffian.skew_inverse(z)
        prod = linalg.matmul(z.to_rows(), inv.to_rows())
        if any(prod[i][j] != (1 if i == j else 0) for i in range(size) for j in range(size)):
            return False, "skew inverse is not an inverse"
        if pfaffian.skew_inverse(inv) != z:
            return False, "skew inverse is not an involution"
        count += 1

    for _ in range(100):
        size = rng.choice([4, 5, 6])
        k = rng.randint(1, min(3, size - 1))
        z = random_skew(size, bound=4)
        w = pfaffian.wedge_power(z, k)
        sign = (-1) ** k
        m = len(w)
        if any(w[j][i] != sign * w[i][j] for i in range(m) for j in range(m)):
            return False, "wedge-power transpose sign failed"
        if linalg.rank(w) != comb(z.rank(), k):
            return False, "wedge-power rank failed"

    for _ in range(200):
        rank = rng.randint(2, 5)
        c = random_cone(rank, rng.randint(1, rank + 3))
        if c.dual().dual() != c:
            return False, "cone biduality failed"
    return True, ("pf^2 = det x200, skew-inverse involution x100, "
                  "wedge sign/rank x100, cone biduality x200")


CRITERIA = [
    ("chamber-counts", "chambers", "GKZ chamber counts 2,3,5,9,15 for n=4..8", check_chamber_counts),
    ("sbl-regions", "sbl", "stable-base-locus regions 4,8,9 and the A(8) merge pattern", check_base_locus_regions),
    ("a8-chambers", "mcd8", "all 15 explicit A(8) chamber ray lists", check_a8_chamber_rays),
    ("movable-cones", "movable", "movable rays for n=6,7,8 and ray counts for n=4..13", check_movable),
    ("cone-dualities", "dualities", "Nef/Mori and Eff/moving-curve dualities, sandwich", check_dualities),
    ("fano-table", "fano", "Fano indices, -K at n=4,5, Mori positivity", check_fano),
    ("multiplicity-grid", "multiplicity", "vanishing orders equal max(k-h+1,0)", check_multiplicity),
    ("secant-dimensions", "secant", "dimension formula equals the tangent-space oracle", check_secant_dims),
    ("cox-generators", "cox", "generator totals 16/32 and binomial multiplicities", check_cox),
    ("region-conjecture", "conjecture", "region counts and labels outside the movable cone", check_conjecture),
    ("property-suites", "properties", "randomized exact property suites", check_properties),
]

SUITES = sorted({suite for _, suite, _, _ in CRITERIA})


def run(only=None, n=None, seed=0):
    """Run the suite (optionally one sub-suite); returns an ordered report."""
    if only is not None and only not in SUITES:
        raise ValueError(f"unknown suite {only!r}; choose from {', '.join(SUITES)}")
    if n is not None and n < 2:
        raise ValueError("n must be at least 2")
    cfg = {"n": n, "seed": seed}
    selected = [c for c in CRITERIA if only is None or c[1] == only]
    checks = []
    for name, suite, description, fn in selected:
        ok, detail = fn(cfg)
        checks.append({"name": name, "suite": suite, "description": description,
                       "ok": bool(ok), "detail": detail})
    return {"config": cfg, "checks": checks,
            "passed": sum(c["ok"] for c in checks), "total": len(checks)}
