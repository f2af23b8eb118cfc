import json
import random
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from oracles import inverse, pfaffian_by_expansion
from skewmori import linalg, pfaffian
from skewmori.pfaffian import (
    Polynomial,
    SkewMatrix,
    codim_secant,
    dim_secant,
    multiplicity,
    pfaffian_value,
    secant_sample,
    skew_inverse,
    sub_pfaffian,
    terracini_dim,
    terracini_dims,
    validate_complete_form,
    vanishing_order,
    var_index,
    var_pairs,
    wedge_power,
)


def random_skew(rng, size, bound=9):
    rows = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            v = rng.randint(-bound, bound)
            rows[i][j] = v
            rows[j][i] = -v
    return SkewMatrix(rows)


def monomial(n, *pairs, coef=1):
    """coef times the product of the variables z_ij for the given pairs."""
    exp = [0] * len(var_pairs(n))
    for i, j in pairs:
        exp[var_index(n, i, j)] += 1
    return Polynomial(n, {tuple(exp): coef})


def evaluate(polynomial, matrix):
    """Exact value at a SkewMatrix with size at least the support needs."""
    point, total = polynomial._coordinates(matrix), 0
    for exp, coef in polynomial.terms.items():
        value = coef
        for z, e in zip(point, exp):
            if e:
                value *= z ** e
        total += value
    return total


def pfaffian_by_elimination(matrix):
    """Independent oracle: Schur-complement elimination on 2x2 pivot blocks."""
    m = matrix.size
    if m % 2 == 1:
        return Fraction(0)
    a = [[Fraction(x) for x in row] for row in matrix.to_rows()]
    result = Fraction(1)
    for k in range(0, m, 2):
        pivot_col = next((j for j in range(k + 1, m) if a[k][j] != 0), None)
        if pivot_col is None:
            return Fraction(0)
        if pivot_col != k + 1:
            a[k + 1], a[pivot_col] = a[pivot_col], a[k + 1]
            for row in a:
                row[k + 1], row[pivot_col] = row[pivot_col], row[k + 1]
            result = -result
        p = a[k][k + 1]
        result *= p
        for i in range(k + 2, m):
            for j in range(k + 2, m):
                a[i][j] += (a[k + 1][i] * a[k][j] - a[k][i] * a[k + 1][j]) / p
    return result


def test_two_by_two_convention():
    assert str(sub_pfaffian(3, [0, 1])) == "z01"
    assert pfaffian_value(SkewMatrix([[0, 5], [-5, 0]])) == 5


def test_four_by_four_expansion():
    p = sub_pfaffian(3, [0, 1, 2, 3])
    assert str(p) == "z01*z23 - z02*z13 + z03*z12"
    # cross-check pf^2 = det on random integer specializations
    rng = random.Random(1)
    for _ in range(20):
        z = random_skew(rng, 4)
        assert evaluate(p, z) ** 2 == linalg.det(z.to_rows())


def test_odd_pfaffian_rejected():
    with pytest.raises(ValueError, match="odd"):
        sub_pfaffian(4, [0, 1, 2])
    with pytest.raises(ValueError, match="repeated"):
        sub_pfaffian(3, [0, 0, 1, 1])
    with pytest.raises(ValueError, match="repeated"):
        sub_pfaffian(3, [0, 1, 1, 2])
    with pytest.raises(ValueError, match="repeated"):
        pfaffian_value(SkewMatrix.zero(4), [2, 2])
    with pytest.raises(ValueError, match="negative"):
        sub_pfaffian(-4, [])


def test_empty_index_set_is_one():
    assert sub_pfaffian(3, []) == monomial(3)
    assert str(sub_pfaffian(-1, [])) == "1"


def test_sub_pfaffian_equals_the_checked_constructor():
    # sub_pfaffian skips Polynomial.__init__; its terms must pass that check unchanged
    for size in range(9):
        for count in range(0, size + 1, 2):
            for indices in combinations(range(size), count):
                p = sub_pfaffian(size - 1, indices)
                checked = Polynomial(size - 1, p.terms)
                assert p == checked and hash(p) == hash(checked)
                assert all(type(c) is int and abs(c) == 1 for c in p.terms.values())


def test_pf_squared_is_det():
    rng = random.Random(2)
    for _ in range(40):
        size = rng.choice([2, 4, 6, 8, 10])
        z = random_skew(rng, size)
        assert pfaffian_value(z) ** 2 == linalg.det(z.to_rows())


def test_expansion_matches_elimination():
    rng = random.Random(3)
    for _ in range(40):
        size = rng.choice([2, 4, 6, 8])
        z = random_skew(rng, size)
        assert pfaffian_value(z) == pfaffian_by_elimination(z)


def test_pivot_pair_elimination_matches_the_expansion():
    # entry bounds 1 and 2 make zero pivots, index swaps and zero rows common
    rng = random.Random(29)
    for bound in (1, 2, 9):
        for _ in range(150):
            z = random_skew(rng, rng.choice([2, 4, 6, 8, 10]), bound)
            value = pfaffian_value(z)
            assert value == pfaffian_by_expansion(z) and type(value) is int
        for _ in range(50):
            z = random_skew(rng, rng.randint(4, 10), bound)
            indices = rng.sample(range(z.size), 4)
            assert pfaffian_value(z, indices) == pfaffian_by_expansion(z, indices)
        for _ in range(30):
            rows = random_skew(rng, rng.choice([2, 4, 6]), bound).to_rows()
            d = rng.randint(1, 6)
            z = SkewMatrix([[Fraction(x, d) for x in row] for row in rows])
            value = pfaffian_value(z)
            assert value == pfaffian_by_expansion(z) and type(value) is (Fraction if z._upper else int)
        for _ in range(30):
            # one Fraction outside the minor, inside it, or inside it as x/1: the Pfaffian
            # of the minor is an int iff every entry of the minor is one
            rows = random_skew(rng, rng.randint(5, 9), bound).to_rows()
            indices = sorted(rng.sample(range(len(rows)), 4))
            outside = [i for i in range(len(rows)) if i not in indices]
            for inside, x in ((False, Fraction(2 * rng.randint(-bound, bound) + 1, 2)),
                              (True, Fraction(2 * rng.randint(-bound, bound) + 1, 2)),
                              (True, Fraction(rng.choice((-1, 1)) * rng.randint(1, bound)))):
                i, j = sorted(rng.sample(indices, 2) if inside else
                              (rng.choice(outside), rng.choice(indices)))
                changed = [list(row) for row in rows]
                changed[i][j], changed[j][i] = x, -x
                z = SkewMatrix(changed)
                value = pfaffian_value(z, indices)
                assert value == pfaffian_by_expansion(z, indices), (changed, indices)
                assert type(value) is (Fraction if inside else int)


def generic_skew(size):
    """The generic skew matrix as a sympy Matrix, with its variables in var_pairs order."""
    zs = [sympy.Symbol(f"z{i}_{j}") for i, j in var_pairs(size - 1)]
    entry = dict(zip(var_pairs(size - 1), zs))
    rows = [[entry[i, j] if i < j else -entry[j, i] if j < i else 0
             for j in range(size)] for i in range(size)]
    return sympy.Matrix(rows), zs


@pytest.mark.parametrize("m", [2, 4, 6])
def test_pf_squared_is_symbolic_det(m):
    matrix, zs = generic_skew(m)
    pf = sum(c * sympy.prod(z ** e for z, e in zip(zs, exp))
             for exp, c in sub_pfaffian(m - 1, range(m)).terms.items())
    assert sympy.expand(pf ** 2 - matrix.det(method="berkowitz")) == 0


def sympy_order(f, zs, point, max_order):
    """Least order of a nonzero partial of f at the point, capped at max_order + 1."""
    for order in range(max_order + 1):
        for vs in combinations_with_replacement(zs, order):
            if (sympy.diff(f, *vs) if vs else f).subs(point) != 0:
                return order
    return max_order + 1


def test_vanishing_order_matches_sympy_partials():
    rng = random.Random(12)
    n = 3
    zs = generic_skew(n + 1)[1]
    orders = set()
    for trial in range(60):
        values = [rng.randint(-2, 2) for _ in zs]
        if trial % 3 == 0:
            values = [Fraction(v, 2) for v in values]
        point = dict(zip(zs, (sympy.Rational(v) for v in values)))

        def through_point(k):
            v = Fraction(values[k])
            return v.denominator * zs[k] - v.numerator

        # a random polynomial of degree <= 1 in each variable, times up to two
        # linear forms through the point, so every exponent stays <= 3
        f = sum(rng.randint(-3, 3) * sympy.prod(rng.sample(zs, rng.randint(0, 3)))
                for _ in range(rng.randint(1, 4)))
        for _ in range(rng.randint(0, 2)):
            picks = rng.sample(range(len(zs)), rng.randint(1, 2))
            f *= sum(rng.choice([-2, -1, 1, 2]) * through_point(k) for k in picks)
        f = sympy.Poly(sympy.expand(f), *zs)
        assert all(c.is_integer for c in f.coeffs())
        p = Polynomial(n, {exp: int(c) for exp, c in f.terms()})
        assert max((e for exp in p.terms for e in exp), default=0) <= 3
        # every other point sits in a matrix one size larger, whose extra
        # entries the polynomial does not read
        size = n + 1 + trial % 2
        rows = [[0] * size for _ in range(size)]
        for i, j in var_pairs(size - 1):
            v = values[var_index(n, i, j)] if j <= n else rng.randint(-2, 2)
            rows[i][j], rows[j][i] = v, -v
        matrix = SkewMatrix(rows)
        # the order capped at c is min(order, c + 1), so one sympy pass covers caps 0..4
        want = sympy_order(f.as_expr(), zs, point, 4)
        for cap in range(5):
            assert vanishing_order(p, matrix, cap) == min(want, cap + 1)
        orders.add(want)
    assert orders >= {0, 1, 2, 3}


def test_evaluate_known_variable():
    z = SkewMatrix([[0, 5, 1], [-5, 0, 2], [-1, -2, 0]])
    assert evaluate(monomial(2, (0, 1)), z) == 5


def test_evaluate_unknown_variable():
    p = monomial(5, (4, 5))
    with pytest.raises(ValueError, match="unknown variable"):
        evaluate(p, SkewMatrix([[0, 1], [-1, 0]]))


def test_full_pfaffian_vanishes_on_rank_two():
    z = secant_sample(5, 1, bound=20, seed=7)
    assert evaluate(sub_pfaffian(5, range(6)), z) == 0


def test_secant_sample_ranks():
    assert secant_sample(4, 1, bound=10, seed=0).rank() == 2
    z = secant_sample(5, 3, bound=10, seed=0)
    assert z.rank() == 6 and pfaffian_value(z) != 0
    r = secant_sample(7, 3, bound=10, seed=1).rank()
    assert r == 6 and r % 2 == 0
    # all 4x4 sub-Pfaffians vanish on a rank-2 point
    z = secant_sample(4, 1, bound=10, seed=3)
    for a in range(2):
        for b in range(a + 1, 3):
            for c in range(b + 1, 4):
                for d in range(c + 1, 5):
                    assert evaluate(sub_pfaffian(4, (a, b, c, d)), z) == 0


def test_secant_sample_rank_contract():
    # `skewmori sample` reports rank 2h without recomputing it
    for n in range(1, 9):
        for h in range(1, (n + 1) // 2 + 1):
            for bound in (1, 2, 100):
                for seed in (0, 1):
                    assert secant_sample(n, h, bound=bound, seed=seed).rank() == 2 * h


def dense_secant_sample(n, h, bound, seed):
    """secant_sample written out densely: the sum of h matrices x y^t - y x^t drawn off
    the same stream, drawn again until sympy finds rank 2h; also the number of draws."""
    rng = random.Random(f"secant:{seed}")
    for draws in range(1, pfaffian.MAX_DRAWS + 1):
        rows = [[0] * (n + 1) for _ in range(n + 1)]
        for _ in range(h):
            x = [rng.randint(-bound, bound) for _ in range(n + 1)]
            y = [rng.randint(-bound, bound) for _ in range(n + 1)]
            for i in range(n + 1):
                for j in range(n + 1):
                    rows[i][j] += x[i] * y[j] - y[i] * x[j]
        if DomainMatrix.from_list(rows, sympy.ZZ).rank() == 2 * h:
            return SkewMatrix(rows), draws
    raise AssertionError("no sample")


def test_secant_sample_matches_the_dense_sum():
    redrawn = 0
    for n in range(1, 13):
        for h in range(1, (n + 1) // 2 + 1):
            for bound in (1, 2, 100, 10 ** 6):
                for seed in range(3):
                    want, draws = dense_secant_sample(n, h, bound, seed)
                    got = secant_sample(n, h, bound=bound, seed=seed)
                    assert got == want and got.to_rows() == want.to_rows(), (n, h, bound, seed)
                    redrawn += draws > 1
    # at bound 1 some draws fall short of rank 2h, so the redraws are compared too
    assert redrawn


def test_secant_sample_sums_its_wedges_as_it_goes():
    # h wedges of C(n + 1, 2) entries each, about 2 * 10^4 at bound 100: summed into one
    # running list, the peak stays below what ten such lists take, let alone h = 20
    n, h = 60, 20
    secant_sample(n, h, seed=1)
    tracemalloc.start()
    try:
        secant_sample(n, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * (8 + sys.getsizeof(2 * 10 ** 4)) * comb(n + 1, 2)


def test_secant_sample_gives_up(monkeypatch):
    monkeypatch.setattr(linalg, "rank", lambda rows: 0)
    with pytest.raises(ValueError, match=f"{pfaffian.MAX_DRAWS} draws"):
        secant_sample(4, 1, bound=10, seed=0)


def test_secant_sample_rejects_h_zero():
    with pytest.raises(ValueError):
        secant_sample(4, 0)
    with pytest.raises(ValueError):
        secant_sample(4, 3)


def test_rank_of_zero_and_wedge():
    assert SkewMatrix.zero(5).rank() == 0
    z = secant_sample(6, 1, bound=5, seed=11)
    assert z.rank() == 2


def test_vanishing_order_cases():
    z = SkewMatrix([[0, 3], [-3, 0]])
    assert vanishing_order(monomial(1, (0, 1)), z, 2) == 0
    z0 = SkewMatrix.zero(2)
    assert vanishing_order(monomial(1, (0, 1)), z0, 2) == 1
    # sentinel when the cap is too small
    assert vanishing_order(monomial(1, (0, 1)), z0, 0) == 1
    # identically-zero polynomial never becomes nonzero
    assert vanishing_order(Polynomial(1, {}), z0, 3) == 4
    with pytest.raises(ValueError, match="unknown variable"):
        vanishing_order(monomial(5, (4, 5)), z0, 2)
    # a smaller matrix is fine when it holds the support
    assert vanishing_order(monomial(5, (0, 1)), z, 2) == 0
    assert vanishing_order(monomial(5, (0, 1), (0, 1)), z0, 2) == 2


def test_vanishing_order_on_secant_points():
    z1 = secant_sample(7, 1, bound=15, seed=5)
    p6 = sub_pfaffian(7, range(6))  # k = 2
    assert vanishing_order(p6, z1, 3) == 2
    z2 = secant_sample(7, 2, bound=15, seed=5)
    p4 = sub_pfaffian(7, range(4))  # k = 1
    assert vanishing_order(p4, z2, 2) == 0


def test_multiplicity_examples():
    assert multiplicity(7, 2, 1) == 2
    assert multiplicity(7, 1, 2) == 0
    assert multiplicity(6, 2, 2) == 1


def uncapped_estimate(n, k, h, trials, seed, bound):
    """The orders at random rank-2h points, one full Taylor pass to order k + 1 each:
    special points only raise the order, so the least is the generic order once one
    point is generic."""
    p = sub_pfaffian(n, range(2 * k + 2))
    return [vanishing_order(p, secant_sample(n, h, bound=bound, seed=f"{seed}:{t}"), k + 1)
            for t in range(trials)]


def test_exact_grid_pinned_through_twelve():
    # one Taylor pass at the rank-2h normal form per entry, max(k - h + 1, 0) throughout
    rows = pfaffian.multiplicity_grid(range(2, 13))
    assert rows == [(n, k, h, max(k - h + 1, 0), max(k - h + 1, 0)) for n in range(2, 13)
                    for k in range((n + 1) // 2) for h in range(1, (n + 1) // 2 + 1)]
    assert len(rows) == 181


def count_passes(monkeypatch):
    """Empty the memoised orders and record (p.n, size, rank, cap) for every Taylor pass."""
    pfaffian._orders.cache_clear()
    calls, real = [], pfaffian.vanishing_order
    monkeypatch.setattr(pfaffian, "vanishing_order", lambda p, z, cap: calls.append(
        (p.n, z.size, z.rank(), cap)) or real(p, z, cap))
    return calls


def test_grid_reads_one_pass_per_k_and_capped_h(monkeypatch):
    # pf(Z_{0..2k+1}) has no variable outside rows 0..2k+1, where J_h is J_min(h, k+1):
    # the 181 entries through n = 12 take one pass per (k, min(h, k + 1)), 21 in all
    calls = count_passes(monkeypatch)
    rows = pfaffian.multiplicity_grid(range(2, 13))
    assert len(rows) == 181 and len(calls) == len(set(calls)) == 21
    assert all(n + 1 == size == 2 * cap for n, size, _, cap in calls)


def test_single_query_equals_the_grid():
    for n in range(2, 13):
        assert pfaffian.multiplicity_grid([n]) == [
            (n, k, h, multiplicity(n, k, h), max(k - h + 1, 0))
            for k in range((n + 1) // 2) for h in range(1, (n + 1) // 2 + 1)]


def test_repeated_single_query_takes_no_second_pass(monkeypatch):
    # one pass per h <= k + 1 at size 2k + 2, whatever n, and none for a repeat
    calls = count_passes(monkeypatch)
    assert multiplicity(8, 3, 2) == 2
    assert [(size, cap) for _, size, _, cap in calls] == [(8, 4)] * 4
    assert multiplicity(8, 3, 2) == multiplicity(1000, 3, 2) == 2 and multiplicity(9, 3, 5) == 0
    assert len(calls) == 4


def test_multiplicity_parameter_validation():
    with pytest.raises(ValueError):
        multiplicity(4, 2, 1)
    with pytest.raises(ValueError):
        multiplicity(7, 2, 5)
    with pytest.raises(ValueError, match="k must be >= 0"):
        multiplicity(7, -1, 1)


def test_secant_dimensions():
    assert dim_secant(4, 1) == 6
    assert dim_secant(5, 1) == 8
    assert dim_secant(7, 2) == 21
    assert codim_secant(7, 3) == 1
    for n in range(3, 9):
        for h in range(1, (n + 1) // 2):
            assert dim_secant(n, h) + codim_secant(n, h) == comb(n + 1, 2) - 1
    with pytest.raises(ValueError):
        dim_secant(7, 4)


def test_terracini_oracle():
    assert terracini_dim(4, 1, seed=0) == 6
    assert terracini_dim(5, 1, seed=0) == 8
    assert terracini_dim(7, 2, seed=0) == 21


@pytest.mark.parametrize("n", [9, 10, 11, 12])
def test_terracini_oracle_past_eight(n):
    top = (n + 1) // 2 - 1
    assert terracini_dims(n, top, seed=0) == [dim_secant(n, h) for h in range(1, top + 1)]


def unit_wedge(n, x, m):
    """Coordinates of x ^ e_m at the pairs i < j <= n: x_i at (i, m), -x_j at (m, j)."""
    return [x[i] if j == m else -x[j] if i == m else 0 for i, j in combinations(range(n + 1), 2)]


def textbook_terracini(n, top, bound=100, seed=0):
    """The oracle for every h <= top: each attempt inserts all 2(n+1) rows x ^ e_m, y ^ e_m of
    its points one at a time into a row echelon basis, and reads the rank after h points."""
    best = [0] * top
    for attempt in range(3):
        rng = random.Random(f"terracini:{seed}:{attempt}")
        basis = []  # (pivot column, row), each row zero at the pivots of the rows before it
        for h in range(top):
            x = [rng.randint(-bound, bound) for _ in range(n + 1)]
            y = [rng.randint(-bound, bound) for _ in range(n + 1)]
            for m in range(n + 1):
                for v in (unit_wedge(n, x, m), unit_wedge(n, y, m)):
                    for c, row in basis:
                        if v[c]:
                            v = [row[c] * a - v[c] * b for a, b in zip(v, row)]
                    if any(v):
                        v = linalg.primitive(v)
                        basis.append((next(c for c, a in enumerate(v) if a), v))
            best[h] = max(best[h], len(basis) - 1)
    return best


@pytest.mark.parametrize("bound", [1, 2, 100])
def test_terracini_dims_match_the_per_h_oracle(bound):
    for n in range(3, 13):
        top = (n + 1) // 2
        for seed in range(3):
            assert terracini_dims(n, top, bound, seed) == textbook_terracini(n, top, bound, seed), \
                (n, seed)


def terracini_draws(n, h, bound, seed, attempt):
    """The pairs (x, y) one attempt of terracini_dims draws, in order."""
    rng = random.Random(f"terracini:{seed}:{attempt}")
    return [([rng.randint(-bound, bound) for _ in range(n + 1)],
             [rng.randint(-bound, bound) for _ in range(n + 1)]) for _ in range(h)]


def test_terracini_dims_on_degenerate_draws():
    # at bound 1 an attempt may draw dependent points, and then the maximum over the
    # attempts and the cut after each point's rows decide the answer (at n = 3, seed 292,
    # both do); where a draw has x ^ y = 0, fewer of its rows are provably dependent
    for n in (3, 4, 5):
        top = (n + 1) // 2
        for seed in range(300):
            assert terracini_dims(n, top, 1, seed) == textbook_terracini(n, top, 1, seed), (n, seed)
    # the seeds above reach y parallel to x (y = -x) and a zero vector (y = 0)
    assert any(y == [-v for v in x] and any(x) for x, y in terracini_draws(4, 2, 1, 14, 2))
    assert any(not any(y) for x, y in terracini_draws(5, 3, 1, 25, 0))


@pytest.mark.parametrize("n", [9, 10])
def test_multiplicity_grid_past_eight(n):
    # the least order over random points, entry by entry, is an oracle independent of the
    # normal form
    rows = pfaffian.multiplicity_grid([n])
    assert len(rows) == 25
    assert rows == [(n, k, h, min(uncapped_estimate(n, k, h, 5, f"0:{n}", 100)),
                     max(k - h + 1, 0)) for _, k, h, _, _ in rows]


def wedge_power_cases(size):
    """Seeded integer, rational and rank-deficient skew matrices of one size."""
    rng = random.Random(f"wedge-power:{size}")
    rational = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            rational[i][j] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
            rational[j][i] = -rational[i][j]
    out = [random_skew(rng, size, bound=5), SkewMatrix(rational)]
    if size >= 4:
        out.append(secant_sample(size - 1, 1, bound=5, seed=size))
    return out


@pytest.mark.parametrize("size", range(2, 8))
def test_wedge_power_entries_are_sympy_minors(size):
    """Every entry of every wedge power against sympy's determinant of that minor."""
    subsets = {k: list(combinations(range(size), k)) for k in range(1, size)}
    for z in wedge_power_cases(size):
        integral = all(type(x) is int for row in z.to_rows() for x in row)
        oracle = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                                for x in map(Fraction, row)] for row in z.to_rows()])
        assert oracle.rank() == z.rank()
        # sympy's exact matrices over QQ: the same determinants, much faster per minor
        oracle = DomainMatrix.from_Matrix(oracle).convert_to(sympy.QQ)
        for k, ks in subsets.items():
            w = wedge_power(z, k)
            assert len(w) == len(ks) and all(len(row) == len(ks) for row in w)
            for I, row in zip(ks, w):
                for J, got in zip(ks, row):
                    assert type(got) is (int if integral else Fraction)
                    want = oracle.extract(list(I), list(J)).det()
                    assert got == Fraction(int(want.numerator), int(want.denominator)), \
                        (z, k, I, J)


def test_wedge_power_identity_and_rank():
    rng = random.Random(9)
    z = random_skew(rng, 5)
    w1 = wedge_power(z, 1)
    assert [list(r) for r in w1] == [list(r) for r in z.to_rows()]
    z2 = secant_sample(4, 1, bound=5, seed=2)
    assert linalg.rank(wedge_power(z2, 2)) == 1
    for _ in range(10):
        z = random_skew(rng, 6, bound=4)
        for k in (2, 3):
            w = wedge_power(z, k)
            sign = (-1) ** k
            m = len(w)
            assert all(w[j][i] == sign * w[i][j] for i in range(m) for j in range(m))
            assert linalg.rank(w) == comb(z.rank(), k)
    with pytest.raises(ValueError):
        wedge_power(z, 6)


def test_skew_inverse():
    assert skew_inverse(SkewMatrix([[0, 1], [-1, 0]])) == SkewMatrix([[0, -1], [1, 0]])
    rng = random.Random(10)
    done = 0
    while done < 10:
        z = random_skew(rng, 6)
        if pfaffian_value(z) == 0:
            continue
        inv = skew_inverse(z)
        prod = linalg.matmul(z.to_rows(), inv.to_rows())
        assert all(prod[i][j] == (1 if i == j else 0) for i in range(6) for j in range(6))
        assert skew_inverse(inv) == z
        done += 1
    with pytest.raises(ValueError, match="odd"):
        skew_inverse(SkewMatrix.zero(3))
    with pytest.raises(ValueError, match="singular"):
        skew_inverse(SkewMatrix.zero(4))


def skew_cases(seed, size):
    """Seeded dense, sparse and rational skew matrices of one size."""
    rng = random.Random(f"skew-cases:{seed}:{size}")
    out = [random_skew(rng, size), random_skew(rng, size, bound=1)]
    for make in (lambda: rng.choice([0, 0, 0, rng.randint(-3, 3)]),
                 lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 6))):
        rows = [[0] * size for _ in range(size)]
        for i in range(size):
            for j in range(i + 1, size):
                rows[i][j] = make()
                rows[j][i] = -rows[i][j]
        out.append(SkewMatrix(rows))
    return out


def refusal(fn, *args):
    try:
        return fn(*args), None
    except ValueError as exc:
        return None, str(exc)


def forced_pivot_case(rng, pairs, size):
    """G^t J G, J the skew matrix with +1 at each of the given pairs and G a seeded integer
    upper-triangular matrix with nonzero diagonal, divided by a random d: its leading
    principal Pfaffians are those of J times nonzero factors, so the pair elimination
    meets its first zero pivot where J's leading Pfaffians first vanish."""
    j = [[0] * size for _ in range(size)]
    for a, b in pairs:
        j[a][b], j[b][a] = 1, -1
    g = [[rng.choice((1, -1, 2, 3)) if r == c else rng.randint(-3, 3) if r < c else 0
          for c in range(size)] for r in range(size)]
    rows = linalg.matmul(list(zip(*g)), linalg.matmul(j, g))
    d = rng.choice((1, 1, 2, 5))
    return SkewMatrix([[Fraction(x, d) for x in row] for row in rows])


def assert_inverse_matches_the_oracle(z):
    """skew_inverse against the general inverse of the full matrix: the same entries,
    each an int where integral and a Fraction only where not, or the same refusal."""
    got, why = refusal(skew_inverse, z)
    want, want_why = refusal(inverse, z.to_rows())
    if z.size % 2:
        assert why == "odd-size skew matrices are singular" and want_why is not None
        return why
    assert why == want_why, z.to_rows()
    if why is None:
        assert got._upper == SkewMatrix(want)._upper, z.to_rows()
        assert all(type(x) is (int if x.denominator == 1 else Fraction)
                   for x in got._upper.values())
    return why


@pytest.mark.parametrize("size", range(17))
def test_skew_inverse_matches_the_general_inverse(size):
    """The pivot-pair pass on the bordered matrix against the general inverse."""
    whys = [assert_inverse_matches_the_oracle(z) for seed in range(12)
            for z in skew_cases(seed, size)]
    if size % 2:
        assert len(whys) == 48
    elif size:
        assert "singular matrix" in whys  # the sparse cases reach the singular refusal


@pytest.mark.parametrize("size", range(2, 17, 2))
def test_skew_inverse_through_forced_swaps_and_late_refusals(size):
    """A zero pivot, and so a swap, at every pair but the last, and a zero last pivot."""
    rng = random.Random(f"forced-pivots:{size}")
    for k in range(0, size - 2, 2):
        # J pairs k with k + 2 and k + 1 with k + 3: its leading Pfaffians vanish first at k + 2
        pairs = [(p, p + 1) for p in range(0, size, 2) if p not in (k, k + 2)]
        for _ in range(3):
            z = forced_pivot_case(rng, pairs + [(k, k + 2), (k + 1, k + 3)], size)
            rows = z.to_rows()
            assert all(linalg.det([r[:p] for r in rows[:p]]) for p in range(0, k + 1, 2))
            assert linalg.det([r[:k + 2] for r in rows[:k + 2]]) == 0
            assert assert_inverse_matches_the_oracle(z) is None
    # J pairs every index but the last two: only the last pivot is zero, with no index left
    # to swap in, and the border is no place to look for one
    for _ in range(3):
        z = forced_pivot_case(rng, [(p, p + 1) for p in range(0, size - 2, 2)], size)
        rows = z.to_rows()
        assert linalg.det([r[:size - 2] for r in rows[:size - 2]]) and not linalg.det(rows)
        assert assert_inverse_matches_the_oracle(z) == "singular matrix"


def test_skew_inverse_is_one_elimination_at_size_16(monkeypatch):
    """One pivot-pair pass, no Gauss-Jordan and no sub-Pfaffian adjugate, in well under a
    second."""
    z = next(z for z in skew_cases(0, 16)[::-1] if pfaffian_value(z))
    want = SkewMatrix(inverse(z.to_rows()))
    calls = []
    monkeypatch.setattr(pfaffian, "_eliminate_pairs",
                        lambda *a, _run=pfaffian._eliminate_pairs: calls.append(a) or _run(*a))
    monkeypatch.setattr(linalg, "_bareiss", lambda *a: pytest.fail("Gauss-Jordan"))
    monkeypatch.setattr(pfaffian, "pfaffian_value", lambda *a: pytest.fail("adjugate"))
    start = time.perf_counter()
    got = skew_inverse(z)
    assert time.perf_counter() - start < 1.0
    assert got == want and len(calls) == 1


def test_to_rows_matches_entry():
    for size in range(9):
        for z in skew_cases(size, size):
            rows = z.to_rows()
            assert type(rows) is list and all(type(row) is tuple for row in rows)
            assert len(rows) == size and all(len(row) == size for row in rows)
            for i, row in enumerate(rows):
                for j, x in enumerate(row):
                    assert x == z.entry(i, j) and type(x) is type(z.entry(i, j))


def test_validate_complete_form():
    nondegenerate = SkewMatrix([[0, 1], [-1, 0]])
    assert validate_complete_form([(nondegenerate, [])])

    # rank-2 form on a 5-dim space, then a rank-2 form on its 3-dim kernel
    first = SkewMatrix([[0, 1, 0, 0, 0], [-1, 0, 0, 0, 0], [0, 0, 0, 0, 0],
                        [0, 0, 0, 0, 0], [0, 0, 0, 0, 0]])
    second = SkewMatrix([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    first_kernel = linalg.kernel_basis(first.to_rows(), first.size)
    second_kernel = linalg.kernel_basis(second.to_rows(), second.size)
    chain = [(first, first_kernel), (second, second_kernel)]
    assert validate_complete_form(chain)

    # a zero form in the middle is not allowed
    bad = [(first, first_kernel),
           (SkewMatrix.zero(3), [(1, 0, 0), (0, 1, 0), (0, 0, 1)])]
    assert not validate_complete_form(bad)

    # wrong kernel basis
    assert not validate_complete_form([(first, [(1, 0, 0, 0, 0), (0, 0, 1, 0, 0),
                                                (0, 0, 0, 1, 0)])])
    # stopping too early (kernel dimension 3)
    assert not validate_complete_form([(first, first_kernel)])
    # size mismatch between stages raises
    with pytest.raises(ValueError):
        validate_complete_form([(first, first_kernel), (nondegenerate, [])])


def test_polynomial_json_round_trip():
    p = sub_pfaffian(4, [0, 1, 2, 3])
    data = json.loads(json.dumps(p.to_json()))
    assert len(data["vars"]) == comb(5, 2)
    assert Polynomial(4, {tuple(t["exp"]): t["coef"] for t in data["terms"]}) == p


def test_skew_matrix_json_round_trip():
    z = SkewMatrix([[0, Fraction(1, 2), 3], [Fraction(-1, 2), 0, -7], [-3, 7, 0]])
    data = json.loads(json.dumps(z.to_json()))
    rows = [[0] * data["size"] for _ in range(data["size"])]
    for i, row in enumerate(data["upper"]):
        for j, x in enumerate(row, start=i + 1):
            rows[i][j], rows[j][i] = Fraction(x), -Fraction(x)
    assert SkewMatrix(rows) == z


def test_skew_matrix_validation():
    with pytest.raises(ValueError):
        SkewMatrix([[1, 2], [-2, 0]])
    with pytest.raises(ValueError):
        SkewMatrix([[0, 2], [2, 0]])


@pytest.mark.parametrize("build", [
    lambda: SkewMatrix([[0, 0.1], [-0.1, 0]]),
    lambda: SkewMatrix([[0, 1, 0.5], [-1, 0, 2], [-0.5, -2, 0]]),
    lambda: validate_complete_form([(SkewMatrix([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]),
                                     [(0, 0, 1.0)])]),
    lambda: Polynomial(1, {(1,): 2.7}),
    lambda: Polynomial(1, {(1.9,): 3}),
    lambda: Polynomial(1, {(1,): Fraction(1, 2)}),
    lambda: Polynomial(1, {(1,): "2"}),
])
def test_floats_are_refused(build):
    with pytest.raises(ValueError, match="inexact"):
        build()


def test_entries_stay_exact():
    z = SkewMatrix([[0, 5, 1], [-5, 0, 2], [-1, -2, 0]])
    assert all(type(x) is int for row in z.to_rows() for x in row)
    assert type(pfaffian_value(SkewMatrix([[0, 5], [-5, 0]]))) is int
    assert type(evaluate(sub_pfaffian(2, [0, 1]), z)) is int
    half = SkewMatrix([[0, Fraction(1, 2)], [Fraction(-1, 2), 0]])
    assert half.entry(0, 1) == Fraction(1, 2) and pfaffian_value(half) == Fraction(1, 2)
    assert all(type(x) is int for row in secant_sample(5, 2, seed=4).to_rows() for x in row)
