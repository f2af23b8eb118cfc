"""Divisor and curve lattices of the moduli spaces A(n) of complete skew-forms.

A(n) is the iterated blow-up of P(wedge^2 V), dim V = n+1, along the rank-2
locus (a Grassmannian of lines) and the strict transforms of its higher
degeneracy loci.  Its Picard lattice has basis H, E_1, ..., E_r with

    r = (n-3)/2 for odd n,   r = (n-2)/2 for even n,

since for odd n the last center is already a divisor and that blow-up is an
isomorphism.  Divisor classes are integer vectors in this basis; curve
classes live in the dual basis l, e_1, ..., e_r with the pairing
H.l = 1, H.e_i = 0, E_i.l = 0, E_i.e_j = -delta_ij.

The distinguished classes are D_{2k+2} = (k+1)H - sum_h (k-h+1) E_h (strict
transforms of the size-(2k+2) sub-Pfaffian hypersurfaces) and, for odd n,
the boundary class D_{n+1} obtained by truncating the same formula at
k = (n-1)/2.  All cones (effective, nef, movable, Mori, moving curves) are
generated or cut out by these classes.  Classes, generators and cones are
immutable ``linalg.Record`` values.
"""

from __future__ import annotations

from functools import cache, reduce
from math import comb, gcd

from .cones import Cone
from .linalg import Record


def exceptional_count(n):
    """Number r of exceptional basis classes E_i of A(n)."""
    if n < 2:
        raise ValueError("n must be at least 2")
    return (n - 3) // 2 if n % 2 == 1 else (n - 2) // 2


def picard_rank(n):
    return exceptional_count(n) + 1


def _int_coefficients(n, coeffs, lattice):
    """The coefficients as ints, as many as the lattice's rank; anything else is refused."""
    if not all(isinstance(c, int) for c in coeffs):
        raise ValueError(f"inexact coefficients {tuple(coeffs)!r}: use int")
    if len(coeffs) != picard_rank(n):
        raise ValueError(f"coefficient vector does not match the {lattice} rank")
    return tuple(map(int, coeffs))


class DivisorClass(Record):
    """Integer vector in the basis (H, E_1, ..., E_r)."""
    __slots__ = _fields = ("n", "coeffs")

    def __init__(self, n, coeffs):
        super().__init__(n, _int_coefficients(n, coeffs, "Picard"))

    def __str__(self):
        return "(" + ",".join(str(c) for c in self.coeffs) + ")"


class CurveClass(Record):
    """Integer vector in the basis (l, e_1, ..., e_r)."""
    __slots__ = _fields = ("n", "coeffs")

    def __init__(self, n, coeffs):
        super().__init__(n, _int_coefficients(n, coeffs, "lattice"))


class CoxGenerator(Record):
    """One generator family of the total coordinate ring: label, degree, count."""
    __slots__ = _fields = ("label", "degree", "multiplicity")


def pair(divisor, curve):
    """Intersection pairing: H.l = 1, H.e_i = 0, E_i.l = 0, E_i.e_j = -delta_ij."""
    if divisor.n != curve.n:
        raise ValueError("classes on different lattices")
    d = divisor.coeffs
    c = curve.coeffs
    return d[0] * c[0] - sum(a * b for a, b in zip(d[1:], c[1:]))


def divisor_class_D(n, k):
    """Class D_{2k+2} = (k+1)H - sum_{h=1}^{k} (k-h+1) E_h, truncated to the rank.

    For odd n the value k = (n-1)/2 is allowed and gives the boundary class
    D_{n+1} = ((n+1)/2) H - sum_h ((n-2h+1)/2) E_h.
    """
    r = exceptional_count(n)
    if n % 2 == 1:
        if not (0 <= k <= (n - 3) // 2 or k == (n - 1) // 2):
            raise ValueError(f"k={k} out of range for odd n={n}")
    else:
        if not 0 <= k <= (n - 2) // 2:
            raise ValueError(f"k={k} out of range for even n={n}")
    coeffs = [k + 1] + [-(k - h + 1) if h <= k else 0 for h in range(1, r + 1)]
    return DivisorClass(n, coeffs)


def exceptional_class(n, i):
    r = exceptional_count(n)
    if not 1 <= i <= r:
        raise ValueError(f"no exceptional class E_{i} for n={n}")
    return DivisorClass(n, tuple(int(j == i) for j in range(r + 1)))


def hyperplane_class(n):
    return divisor_class_D(n, 0)


def eff_generators(n):
    """Extremal rays of the effective cone: the E_i plus one boundary D class."""
    if n in (2, 3):
        return [hyperplane_class(n)]
    r = exceptional_count(n)
    gens = [exceptional_class(n, i) for i in range(1, r + 1)]
    if n % 2 == 1:
        gens.append(divisor_class_D(n, (n - 1) // 2))
    else:
        gens.append(divisor_class_D(n, (n - 2) // 2))
    return gens


def nef_generators(n):
    """Extremal rays of the nef cone: all classes D_2, D_4, ..."""
    if n in (2, 3):
        return [hyperplane_class(n)]
    return [divisor_class_D(n, j) for j in range(exceptional_count(n) + 1)]


def eff_cone(n):
    return Cone.from_generators([g.coeffs for g in eff_generators(n)])


def nef_cone(n):
    return Cone.from_generators([g.coeffs for g in nef_generators(n)])


def mori_generators(n):
    """Extremal curve classes of the Mori cone.

    With e_0 := l the rays are e_i - 2 e_{i+1} + e_{i+2} for i = 0..r-2,
    then e_{r-1} - 2 e_r, then e_r; the same shape for both parities.
    """
    if n < 4:
        raise ValueError("the Mori generators need n >= 4")
    r = exceptional_count(n)
    rank = r + 1
    gens = []
    for i in range(r - 1):
        v = [0] * rank
        v[i] = 1
        v[i + 1] = -2
        v[i + 2] = 1
        gens.append(CurveClass(n, v))
    v = [0] * rank
    v[r - 1] = 1
    v[r] = -2
    gens.append(CurveClass(n, v))
    v = [0] * rank
    v[r] = 1
    gens.append(CurveClass(n, v))
    return gens


def mori_cone(n):
    return Cone.from_generators([c.coeffs for c in mori_generators(n)])


def moving_curve_cone(n):
    """Curve classes dl - sum m_i e_i with m_i >= 0 and the degree inequality.

    Cut out directly by the inequality system: m_i >= 0 for all i together
    with (n+1)/2 d - sum_i ((n-2i+1)/2) m_i >= 0 for odd n, and
    n/2 d - sum_i ((n-2i)/2) m_i >= 0 for even n.  In the raw (l, e_i)
    coordinates m_i = -c_i.
    """
    if n < 4:
        raise ValueError("the moving-curve cone needs n >= 4")
    r = exceptional_count(n)
    rank = r + 1
    normals = []
    for i in range(1, rank):
        u = [0] * rank
        u[i] = -1
        normals.append(tuple(u))
    if n % 2 == 1:
        big = [(n + 1) // 2] + [(n - 2 * i + 1) // 2 for i in range(1, rank)]
    else:
        big = [n // 2] + [(n - 2 * i) // 2 for i in range(1, rank)]
    normals.append(tuple(big))
    return Cone.from_inequalities(normals, rank)


def _pairing_flip(v):
    return (v[0],) + tuple(-x for x in v[1:])


def _dual_under_pairing(cone):
    """Classes pairing >= 0 with every class of the cone.

    The pairing matrix diag(1, -1, ..., -1) is its own transpose, so the
    same inequalities give the dual of a curve cone and of a divisor cone.
    """
    gens = list(cone.rays)
    for l in cone.lineality:
        gens.append(l)
        gens.append(tuple(-x for x in l))
    return Cone.from_inequalities([_pairing_flip(g) for g in gens], cone.ambient_rank)


def divisor_cone_dual_to(curve_cone):
    """Divisor classes pairing >= 0 with every class of a curve cone."""
    return _dual_under_pairing(curve_cone)


def curve_cone_dual_to(divisor_cone):
    """Curve classes pairing >= 0 with every class of a divisor cone."""
    return _dual_under_pairing(divisor_cone)


def cox_generator_degrees(n):
    """Generator families of the total coordinate ring of A(n).

    One family T{2k+2} of all size-(2k+2) sub-Pfaffian sections per even size
    up to n-1 (odd n) or n (even n), of degree D_{2k+2} and multiplicity
    C(n+1, 2k+2); plus the multiplicity-one boundary sections S_i.  For odd n
    the last S has degree D_{n+1}.
    """
    gens, r = [], exceptional_count(n)
    for k in range(r + 1):
        size = 2 * k + 2
        gens.append(CoxGenerator(f"T{size}", divisor_class_D(n, k), comb(n + 1, size)))
    for i in range(1, r + 1):
        gens.append(CoxGenerator(f"S{i}", exceptional_class(n, i), 1))
    if n % 2 == 1:
        i = (n - 1) // 2
        gens.append(CoxGenerator(f"S{i}", divisor_class_D(n, i), 1))
    return gens


@cache
def movable_cone(n):
    """Intersection over each generator of the hull of all the other degrees.

    Families of multiplicity >= 2 contribute the full effective cone, so only
    the multiplicity-one generators cut anything.
    """
    if n < 4:
        raise ValueError("the movable cone needs n >= 4")
    # rays double every two steps: in process n = 30 takes 1.3-1.5 s, n = 31 5.8-8.8 s
    # (2 vCPUs, CPython 3.11.7)
    if n > 30:
        raise ValueError("the movable cone is supported up to n = 30")
    gens = cox_generator_degrees(n)
    degree_count = {}
    for g in gens:
        degree_count[g.degree.coeffs] = degree_count.get(g.degree.coeffs, 0) + g.multiplicity
    all_degrees = sorted(degree_count)
    # the hull of all degrees holds every one of these, so the first starts the intersection
    cuts = [Cone.from_generators([d for d in all_degrees if d != g.degree.coeffs])
            for g in gens if degree_count[g.degree.coeffs] == 1]
    return reduce(Cone.intersect, cuts)


def anticanonical(n):
    """-K = (N+1) H - sum_h (codim_h - 1) E_h over the blown-up degeneracy loci."""
    from .pfaffian import codim_secant
    r = exceptional_count(n)
    nminus = comb(n + 1, 2) - 1
    coeffs = [nminus + 1] + [-(codim_secant(n, h) - 1) for h in range(1, r + 1)]
    return DivisorClass(n, coeffs)


def fano_index(n):
    """Largest integer dividing -K in the Picard lattice.

    For n >= 4 the Fano property is asserted by pairing -K strictly
    positively with every Mori generator.
    """
    mk = anticanonical(n)
    if n >= 4:
        for c in mori_generators(n):
            if pair(mk, c) <= 0:
                raise ArithmeticError(f"-K fails positivity against {c} for n={n}")
    return gcd(*(abs(c) for c in mk.coeffs))
