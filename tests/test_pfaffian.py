import json
import random
import time
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from skewmori import linalg, pfaffian, verify
from skewmori.pfaffian import (
    Polynomial,
    SkewMatrix,
    codim_secant,
    dim_secant,
    multiplicity_estimate,
    pfaffian_value,
    secant_sample,
    skew_inverse,
    sub_pfaffian,
    terracini_dim,
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
        assert p.evaluate(z) ** 2 == linalg.det(z.to_rows())


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
    assert monomial(2, (0, 1)).evaluate(z) == 5


def test_evaluate_unknown_variable():
    p = monomial(5, (4, 5))
    with pytest.raises(ValueError, match="unknown variable"):
        p.evaluate(SkewMatrix([[0, 1], [-1, 0]]))


def test_full_pfaffian_vanishes_on_rank_two():
    z = secant_sample(5, 1, bound=20, seed=7)
    assert sub_pfaffian(5, range(6)).evaluate(z) == 0


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
                    assert sub_pfaffian(4, (a, b, c, d)).evaluate(z) == 0


def test_secant_sample_rank_contract():
    # `skewmori sample` reports rank 2h without recomputing it
    for n in range(1, 9):
        for h in range(1, (n + 1) // 2 + 1):
            for bound in (1, 2, 100):
                for seed in (0, 1):
                    assert secant_sample(n, h, bound=bound, seed=seed).rank() == 2 * h


def test_secant_sample_gives_up(monkeypatch):
    monkeypatch.setattr(SkewMatrix, "rank", lambda self: 0)
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
    assert multiplicity_estimate(7, 2, 1, trials=3, seed=0, bound=30) == 2
    assert multiplicity_estimate(7, 1, 2, trials=3, seed=0, bound=30) == 0
    assert multiplicity_estimate(6, 2, 2, trials=3, seed=0, bound=30) == 1


def uncapped_estimate(n, k, h, trials, seed, bound):
    """The minimum over all trials of a full Taylor pass to order k + 1."""
    p = sub_pfaffian(n, range(2 * k + 2))
    return [vanishing_order(p, secant_sample(n, h, bound=bound, seed=f"{seed}:{t}"), k + 1)
            for t in range(trials)]


def test_capped_estimate_matches_uncapped_minimum():
    # multiplicity_estimate caps each later trial at the best order so far
    lowered = 0
    for n in range(2, 9):
        for bound in (1, 2, 100):
            for k in range((n + 1) // 2):
                for h in range(1, (n + 1) // 2 + 1):
                    orders = uncapped_estimate(n, k, h, 5, n, bound)
                    assert multiplicity_estimate(n, k, h, trials=5, seed=n, bound=bound) == min(orders)
                    assert multiplicity_estimate(n, k, h, trials=1, seed=n, bound=bound) == orders[0]
                    lowered += min(orders) < orders[0]
    # some later trial does lower the first trial's order, so the capped passes decide
    assert lowered


def counted(calls, f):
    def wrapper(*args, **kwargs):
        calls.append(repr((args, kwargs)))
        return f(*args, **kwargs)
    return wrapper


def test_grid_shares_samples_and_pfaffians(monkeypatch):
    # the grid equals multiplicity_estimate entry by entry, while it builds each
    # sub-Pfaffian once and draws each (n, h, trial) sample once, when needed
    pfaffians, samples = [], []
    monkeypatch.setattr(pfaffian, "sub_pfaffian", counted(pfaffians, sub_pfaffian))
    monkeypatch.setattr(pfaffian, "secant_sample", counted(samples, secant_sample))
    for seed in range(3):
        for bound in (1, 2, 100):
            for trials in (1, 5):
                pfaffians.clear()
                samples.clear()
                rows = verify.multiplicity_grid(range(2, 9), trials, seed, bound)
                assert len(pfaffians) == len(set(pfaffians)) == sum((n + 1) // 2 for n in range(2, 9))
                drawn = list(samples)
                samples.clear()
                assert rows == [(n, k, h, multiplicity_estimate(
                    n, k, h, trials=trials, seed=f"{seed}:{n}", bound=bound), max(k - h + 1, 0))
                    for n, k, h, _, _ in rows]
                assert len(drawn) == len(set(drawn)) < len(samples) and set(drawn) == set(samples)


def test_multiplicity_parameter_validation():
    with pytest.raises(ValueError):
        multiplicity_estimate(4, 2, 1)
    with pytest.raises(ValueError):
        multiplicity_estimate(7, 2, 5)
    with pytest.raises(ValueError):
        multiplicity_estimate(7, 2, 1, trials=0)


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
    for h in range(1, (n + 1) // 2):
        assert terracini_dim(n, h, seed=0) == dim_secant(n, h), h


@pytest.mark.parametrize("n", [9, 10])
def test_multiplicity_grid_past_eight(n):
    rows = verify.multiplicity_grid([n], 5, 0, 100)
    assert len(rows) == 25
    assert all(got == want == max(k - h + 1, 0) for _, k, h, got, want in rows)


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


@pytest.mark.parametrize("size", range(9))
def test_skew_inverse_matches_the_general_inverse(size):
    """The one-denominator pass against linalg.inverse of the full matrix."""
    odd = singular = 0
    for seed in range(12):
        for z in skew_cases(seed, size):
            got, why = refusal(skew_inverse, z)
            want, want_why = refusal(linalg.inverse, z.to_rows())
            if size % 2:
                assert why == "odd-size skew matrices are singular" and want_why is not None
                odd += 1
                continue
            assert why == want_why, z.to_rows()
            if why is not None:
                singular += 1
                continue
            want = SkewMatrix(want)
            assert got._upper == want._upper, z.to_rows()
            assert [type(x) for x in got._upper.values()] == \
                [type(x) for x in want._upper.values()]
            assert all(type(x) is Fraction for x in got._upper.values())
    if size % 2:
        assert odd == 48
    elif size:
        assert singular > 0  # the sparse cases reach the singular refusal


def test_skew_inverse_is_one_elimination_at_size_16(monkeypatch):
    """No sub-Pfaffian adjugate: one rref of the 16 x 32 matrix, in well under a second."""
    z = next(z for z in skew_cases(0, 16)[::-1] if pfaffian_value(z))
    want = SkewMatrix(linalg.inverse(z.to_rows()))
    calls = []
    monkeypatch.setattr(linalg, "rref", lambda *a, _rref=linalg.rref: calls.append(a)
                        or _rref(*a))
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
    assert type(sub_pfaffian(2, [0, 1]).evaluate(z)) is int
    half = SkewMatrix([[0, Fraction(1, 2)], [Fraction(-1, 2), 0]])
    assert half.entry(0, 1) == Fraction(1, 2) and pfaffian_value(half) == Fraction(1, 2)
    assert all(type(x) is int for row in secant_sample(5, 2, seed=4).to_rows() for x in row)
