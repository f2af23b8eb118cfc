import copy
import pickle
from fractions import Fraction
from math import comb, gcd

import pytest

from skewmori.chambers import GKZChamber, Region
from skewmori.cones import Cone
from skewmori.geometry import (
    CoxGenerator,
    CurveClass,
    DivisorClass,
    anticanonical,
    cox_generator_degrees,
    curve_cone_dual_to,
    divisor_class_D,
    divisor_cone_dual_to,
    eff_cone,
    eff_generators,
    exceptional_class,
    exceptional_count,
    fano_index,
    mori_cone,
    mori_generators,
    movable_cone,
    moving_curve_cone,
    nef_cone,
    nef_generators,
    pair,
)
from skewmori.pfaffian import SkewMatrix, sub_pfaffian


def test_lattice_ranks():
    assert [exceptional_count(n) for n in range(2, 9)] == [0, 0, 1, 1, 2, 2, 3]
    with pytest.raises(ValueError):
        exceptional_count(1)


def test_divisor_classes():
    assert divisor_class_D(6, 2).coeffs == (3, -2, -1)
    assert divisor_class_D(8, 3).coeffs == (4, -3, -2, -1)
    assert divisor_class_D(6, 0).coeffs == (1, 0, 0)
    assert divisor_class_D(9, 0).coeffs == (1, 0, 0, 0)
    # boundary class of odd n, truncated to the lattice rank
    assert divisor_class_D(7, 3).coeffs == (4, -3, -2)
    assert divisor_class_D(5, 2).coeffs == (3, -2)
    with pytest.raises(ValueError):
        divisor_class_D(6, 3)
    with pytest.raises(ValueError):
        divisor_class_D(7, 4)


def test_exceptional_classes():
    assert exceptional_class(6, 1).coeffs == (0, 1, 0)
    assert exceptional_class(8, 3).coeffs == (0, 0, 0, 1)
    assert exceptional_class(5, 1).coeffs == (0, 1)
    with pytest.raises(ValueError):
        exceptional_class(6, 3)


@pytest.mark.parametrize("build", [
    lambda: DivisorClass(4, (1.5, 0)),
    lambda: DivisorClass(4, (2.0, 0)),
    lambda: DivisorClass(4, (Fraction(1, 2), 0)),
    lambda: CurveClass(6, (1, 0.5, 0)),
    lambda: CurveClass(6, ("1", 0, 0)),
])
def test_floats_are_refused(build):
    with pytest.raises(ValueError, match="inexact"):
        build()


def test_integer_classes_kept():
    coeffs = CurveClass(6, [True, 0, -2]).coeffs
    assert coeffs == (1, 0, -2) and all(type(c) is int for c in coeffs)


RECORDS = {
    "DivisorClass": (lambda: DivisorClass(4, (1, 0)), lambda: DivisorClass(4, (0, 1)),
                     "DivisorClass(n=4, coeffs=(1, 0))"),
    "CurveClass": (lambda: CurveClass(4, [1, 0]), lambda: CurveClass(6, (1, 0, 0)),
                   "CurveClass(n=4, coeffs=(1, 0))"),
    "CoxGenerator": (lambda: CoxGenerator("S1", DivisorClass(4, (0, 1)), 1),
                     lambda: CoxGenerator("S1", DivisorClass(4, (0, 1)), 2),
                     "CoxGenerator(label='S1', degree=DivisorClass(n=4, coeffs=(0, 1)), "
                     "multiplicity=1)"),
    "Cone": (lambda: Cone.from_generators([(1, 0), (0, 1)]),
             lambda: Cone.from_generators([(1, 0), (1, 1)]),
             "Cone(rank=2, rays=[(0, 1), (1, 0)])"),
    "Cone-not-pointed": (lambda: Cone.from_generators([(1, 0), (-1, 0), (0, 1)]),
                         lambda: Cone.from_generators([(1, 0), (-1, 0), (0, -1)]),
                         "Cone(rank=2, rays=[(0, 1)], not pointed)"),
    "SkewMatrix": (lambda: SkewMatrix([[0, 1], [-1, 0]]),
                   lambda: SkewMatrix([[0, Fraction(1, 2)], [Fraction(-1, 2), 0]]),
                   "SkewMatrix(size=2)"),
    "Polynomial": (lambda: sub_pfaffian(3, range(4)), lambda: sub_pfaffian(3, (0, 1)),
                   "Polynomial(n=3, 3 terms)"),
    "GKZChamber": (lambda: GKZChamber(Cone.from_generators([(1, 0), (0, 1)]), (1, 1), frozenset()),
                   lambda: GKZChamber(Cone.from_generators([(1, 0), (0, 1)]), (2, 1), frozenset()),
                   "GKZChamber(cone=Cone(rank=2, rays=[(0, 1), (1, 0)]), representative=(1, 1), "
                   "signature=frozenset())"),
    "Region": (lambda: Region(frozenset({frozenset({"S1"})}), (0, 1)),
               lambda: Region(frozenset(), (0, 1)),
               "Region(signature=frozenset({frozenset({'S1'})}), chambers=(0, 1))"),
}


@pytest.mark.parametrize("make, make_other, text", RECORDS.values(), ids=RECORDS)
def test_records_are_immutable_values(make, make_other, text):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != make_other() and not a == make_other()
    assert a != tuple(getattr(a, name) for name in a._fields)
    assert repr(a) == text
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(twin) is type(a) and twin == a and hash(twin) == hash(a)
    for name in a._fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b


def test_records_of_different_classes_differ():
    divisor, curve = DivisorClass(4, (1, 0)), CurveClass(4, (1, 0))
    assert divisor != curve and curve != divisor
    assert divisor != (4, (1, 0)) and (4, (1, 0)) != divisor
    assert len({divisor, curve}) == 2
    assert pickle.loads(pickle.dumps(divisor)) == divisor


def test_pairing():
    D2, D4, D6 = (divisor_class_D(6, k) for k in range(3))
    assert pair(D2, CurveClass(6, (1, 0, 0))) == 1
    assert pair(D4, CurveClass(6, (1, -2, 1))) == 0
    assert pair(D6, CurveClass(6, (0, 1, -2))) == 0
    with pytest.raises(ValueError):
        pair(D2, CurveClass(8, (1, 0, 0, 0)))


def test_generator_lists():
    assert [g.coeffs for g in eff_generators(8)] == [
        (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (4, -3, -2, -1)]
    assert [g.coeffs for g in nef_generators(6)] == [(1, 0, 0), (2, -1, 0), (3, -2, -1)]
    assert [g.coeffs for g in nef_generators(4)] == [(1, 0), (2, -1)]
    # rank-one degenerate cases
    assert [g.coeffs for g in eff_generators(3)] == [(1,)]
    assert [g.coeffs for g in nef_generators(2)] == [(1,)]


def test_mori_generators():
    assert [c.coeffs for c in mori_generators(6)] == [(1, -2, 1), (0, 1, -2), (0, 0, 1)]
    assert [c.coeffs for c in mori_generators(7)] == [(1, -2, 1), (0, 1, -2), (0, 0, 1)]
    assert [c.coeffs for c in mori_generators(4)] == [(1, -2), (0, 1)]
    assert len(mori_generators(9)) == 4
    with pytest.raises(ValueError):
        mori_generators(3)


def test_moving_curve_inequalities():
    # for n = 6: m_1, m_2 >= 0 and 3d - 2m_1 - m_2 >= 0 (with m_i = -c_i)
    assert set(moving_curve_cone(6).facets) == {(0, -1, 0), (0, 0, -1), (3, 2, 1)}


def test_dualities_and_sandwich():
    for n in range(4, 13):
        assert nef_cone(n) == divisor_cone_dual_to(mori_cone(n))
        assert eff_cone(n) == divisor_cone_dual_to(moving_curve_cone(n))
        assert moving_curve_cone(n) == curve_cone_dual_to(eff_cone(n))
        assert nef_cone(n).is_subset(movable_cone(n))
        assert movable_cone(n).is_subset(eff_cone(n))


def test_movable_rays():
    assert set(movable_cone(6).rays) == {(3, -2, -1), (1, 0, 0), (2, -1, 0)}
    assert set(movable_cone(7).rays) == {(3, -2, -1), (1, 0, 0), (6, -3, -2), (2, -1, 0)}
    assert set(movable_cone(8).rays) == {
        (4, -3, -2, -1), (3, -2, -1, 0), (1, 0, 0, 0), (2, -1, 0, 0), (6, -3, -2, 0)}


def test_movable_ray_counts():
    for n in range(4, 14):
        k = (n - 1) // 2 if n % 2 == 1 else n // 2
        expected = 2 ** (k - 1) if n % 2 == 1 else 2 ** (k - 2) + 1
        assert len(movable_cone(n).rays) == expected, n


def test_movable_ray_counts_beyond_13():
    # the formula of the test above, at n = 20 and 21; n = 31 is refused
    assert len(movable_cone(20).rays) == 257
    assert len(movable_cone(21).rays) == 512
    with pytest.raises(ValueError):
        movable_cone(31)


def test_movable_equals_nef_for_small_n():
    for n in (4, 5, 6):
        assert movable_cone(n) == nef_cone(n)


@pytest.mark.parametrize("order", [range(4, 14), range(13, 3, -1)])
def test_movable_cone_cold_and_warm_agree(order):
    # the cache hands out one shared cone per n, equal to a fresh build in either order
    movable_cone.cache_clear()
    cold = {n: movable_cone(n) for n in order}
    for n in order:
        assert movable_cone(n) is cold[n]
        assert movable_cone.__wrapped__(n) == cold[n], n


def test_cox_generator_counts():
    assert sum(g.multiplicity for g in cox_generator_degrees(4)) == 16
    assert sum(g.multiplicity for g in cox_generator_degrees(5)) == 32
    assert {g.degree.coeffs for g in cox_generator_degrees(6)} == {
        (1, 0, 0), (2, -1, 0), (3, -2, -1), (0, 1, 0), (0, 0, 1)}
    for n in range(2, 11):
        for g in cox_generator_degrees(n):
            if g.label.startswith("T"):
                assert g.multiplicity == comb(n + 1, int(g.label[1:]))
            else:
                assert g.multiplicity == 1


def test_classes_are_primitive():
    for n in range(4, 13):
        for g in eff_generators(n) + nef_generators(n):
            assert gcd(*(abs(c) for c in g.coeffs)) == 1
    assert divisor_class_D(8, 0).coeffs == (1, 0, 0, 0)


def test_anticanonical_and_fano():
    assert anticanonical(4).coeffs == (10, -2)
    assert anticanonical(5).coeffs == (15, -5)
    assert {n: fano_index(n) for n in range(2, 9)} == {
        2: 3, 3: 6, 4: 2, 5: 5, 6: 1, 7: 1, 8: 1}
    for n in range(9, 13):
        assert fano_index(n) == 1
    for n in range(4, 13):
        mk = anticanonical(n)
        assert all(pair(mk, c) > 0 for c in mori_generators(n))
