"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All checks are exact (arbitrary-precision rationals throughout), so the
tolerance everywhere is exact equality.  The same checks back the
``skewmori verify`` command.
"""

import pytest

from skewmori import pfaffian, verify

CONFIG = {"n": None, "seed": 0}


def _criterion(number, name, check):
    ok, detail = check(CONFIG)
    print(f"{'PASS' if ok else 'FAIL'}  criterion {number:>2} ({name}): {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_01_chamber_counts():
    _criterion(1, "chamber counts 2,3,5,9,15", verify.check_chamber_counts)


def test_criterion_02_sbl_region_counts():
    _criterion(2, "SBL regions 4,8,9 with the A(8) merge pattern", verify.check_base_locus_regions)


def test_criterion_03_a8_chamber_ray_lists():
    _criterion(3, "explicit A(8) movable/nef chamber rays", verify.check_a8_chamber_rays)


def test_criterion_04_movable_cones():
    _criterion(4, "movable rays for n=6,7,8 and counts for n=4..13", verify.check_movable)


def test_criterion_05_cone_dualities():
    _criterion(5, "Nef=dual(Mori), Eff=dual(mov curves), sandwich", verify.check_dualities)


def test_criterion_06_fano_table():
    _criterion(6, "Fano indices and -K data", verify.check_fano)


def test_criterion_07_multiplicity_grid():
    _criterion(7, "vanishing-order grid equals max(k-h+1,0)", verify.check_multiplicity)


def test_criterion_08_secant_dimensions():
    _criterion(8, "dimension formula equals the tangent-space oracle", verify.check_secant_dims)


def test_criterion_09_cox_generators():
    _criterion(9, "Cox generator totals and multiplicities", verify.check_cox)


def test_criterion_10_region_conjecture():
    _criterion(10, "region counts/labels outside the movable cone", verify.check_conjecture)


def test_criterion_11_property_suites():
    _criterion(11, "exact randomized property suites", verify.check_properties)


@pytest.mark.parametrize("seed", [0, 7])
def test_property_suite_matrices_equal_the_checked_construction(seed, monkeypatch):
    # the suite builds its skew matrices unchecked; each must be the matrix that
    # SkewMatrix(rows) checks and builds from the same entries
    made, make = [], pfaffian.SkewMatrix._make.__func__

    def checked_make(cls, size, upper):
        rows = [[0] * size for _ in range(size)]
        for (i, j), x in upper.items():
            rows[i][j], rows[j][i] = x, -x
        matrix = make(cls, size, upper)
        assert matrix == pfaffian.SkewMatrix(rows), (size, upper)
        made.append(all(type(x) is int for x in upper.values()))
        return matrix

    inverted = []
    monkeypatch.setattr(pfaffian.SkewMatrix, "_make", classmethod(checked_make))
    monkeypatch.setattr(pfaffian, "skew_inverse", lambda z, _run=pfaffian.skew_inverse:
                        inverted.append(z) or _run(z))
    ok, detail = verify.check_properties({"n": None, "seed": seed})
    assert ok, detail
    # 400 or more drawn (integer) matrices, and the skew inverses of 100 of them and of
    # those inverses; an inverse holds ints where integral, and Fractions reach the check
    assert len(made) - len(inverted) >= 400 and len(inverted) == 200, len(made)
    assert made.count(False) > 0


def test_full_verify_run_is_green():
    report = verify.run()
    assert report["passed"] == report["total"] == len(verify.CRITERIA)
