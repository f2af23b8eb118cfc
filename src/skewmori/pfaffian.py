"""Pfaffian calculus for generic and exact skew-symmetric matrices.

The generic matrix of size n+1 has independent upper-triangle entries
z_ij (0 <= i < j <= n); sub-Pfaffians of its principal minors are sparse
integer polynomials in those entries.  Sign convention: pf([[0,a],[-a,0]]) = a,
with first-row expansion

    pf(Z_I) = sum_j (-1)^(j-1) z_{i0,ij} pf(Z_{I \\ {i0,ij}}),   pf(Z_empty) = 1,

so that pf(Z)^2 = det(Z).

Points come as ``SkewMatrix`` values with ``int`` or ``Fraction`` entries,
kept as given.  Orders of vanishing are read off the exact Taylor expansion
at a point; the multiplicity grid reads them at the rank-2h normal form,
where they are exact.  No numerical tolerance exists anywhere in this module.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from itertools import accumulate, combinations, compress
from math import comb, isqrt, prod

from . import linalg
from .linalg import Record, dot


def var_pairs(n):
    """Upper-triangle index pairs (i, j), i < j <= n, in lexicographic order."""
    return [(i, j) for i in range(n + 1) for j in range(i + 1, n + 1)]


def var_index(n, i, j):
    if not 0 <= i < j <= n:
        raise ValueError(f"unknown variable z_({i},{j}) for size {n + 1}")
    # pairs with first index < i, then offset within row i
    return i * n - i * (i - 1) // 2 + (j - i - 1)


def var_name(n, i, j):
    return f"z{i}{j}" if n <= 9 else f"z{i}_{j}"


class Polynomial(Record):
    """Sparse multivariate polynomial with integer coefficients in the z_ij.

    ``terms`` maps exponent tuples (aligned with ``var_pairs(n)``) to nonzero
    integer coefficients; any other coefficient or exponent is refused with
    ``ValueError``.  Instances are immutable records.
    """

    __slots__ = _fields = ("n", "terms")

    def __init__(self, n, terms=None):
        width = len(var_pairs(n))
        clean = {}
        for exp, coef in (terms or {}).items():
            exp = tuple(exp)
            if len(exp) != width:
                raise ValueError("exponent width does not match the variable set")
            if not all(isinstance(x, int) for x in (*exp, coef)):
                raise ValueError(f"inexact term {exp!r}: {coef!r}; use int exponents "
                                 "and coefficients")
            if coef:
                clean[exp] = clean.get(exp, 0) + coef
        super().__init__(int(n), {e: c for e, c in clean.items() if c})

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __repr__(self):
        return f"Polynomial(n={self.n}, {len(self.terms)} terms)"

    def support_pairs(self):
        """Variable pairs that actually occur in some term."""
        pairs = var_pairs(self.n)
        used = set()
        for exp in self.terms:
            for k, e in enumerate(exp):
                if e:
                    used.add(pairs[k])
        return sorted(used)

    def _coordinates(self, matrix):
        """Entries of a SkewMatrix in ``var_pairs`` order; it must hold the support."""
        if matrix.size <= self.n:
            for (i, j) in self.support_pairs():
                if j >= matrix.size:
                    raise ValueError(f"unknown variable z_({i},{j}) for size {matrix.size}")
        return [matrix._upper.get(pair, 0) for pair in var_pairs(self.n)]

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: t[0], reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        pairs = var_pairs(self.n)
        pieces = []
        for exp, coef in self.sorted_terms():
            factors = []
            for k, e in enumerate(exp):
                if e == 1:
                    factors.append(var_name(self.n, *pairs[k]))
                elif e > 1:
                    factors.append(f"{var_name(self.n, *pairs[k])}^{e}")
            mono = "*".join(factors) if factors else "1"
            if abs(coef) != 1 or not factors:
                mono = f"{abs(coef)}*{mono}" if factors else str(abs(coef))
            pieces.append(("- " if coef < 0 else "+ ") + mono)
        out = " ".join(pieces)
        return out[2:] if out.startswith("+ ") else "-" + out[2:]

    def to_json(self):
        return {"vars": [var_name(self.n, i, j) for i, j in var_pairs(self.n)],
                "terms": [{"exp": list(e), "coef": c} for e, c in self.sorted_terms()]}


class SkewMatrix(Record):
    """Skew-symmetric matrix with exact entries (zero diagonal).

    Entries are kept as given: ``int`` or ``Fraction``; anything else, a
    float in particular, is refused with ``ValueError``.  ``_upper`` maps
    each i < j with a nonzero entry to it.  Instances are immutable records.
    """

    __slots__ = _fields = ("size", "_upper")

    def __init__(self, rows):
        rows = [tuple(row) for row in rows]
        size = len(rows)
        if any(len(r) != size for r in rows):
            raise ValueError("matrix is not square")
        for row in rows:
            linalg.clear_denominators(row)
        for i in range(size):
            if rows[i][i] != 0:
                raise ValueError("diagonal must vanish")
            for j in range(i + 1, size):
                if rows[j][i] != -rows[i][j]:
                    raise ValueError("matrix is not skew-symmetric")
        upper = {}
        for i in range(size):
            for j in range(i + 1, size):
                if rows[i][j]:
                    upper[(i, j)] = rows[i][j]
        super().__init__(size, upper)

    @classmethod
    def zero(cls, size):
        return cls([[0] * size for _ in range(size)])

    def entry(self, i, j):
        if i == j:
            return 0
        if i < j:
            return self._upper.get((i, j), 0)
        return -self._upper.get((j, i), 0)

    def to_rows(self):
        rows = [[0] * self.size for _ in range(self.size)]
        for (i, j), x in self._upper.items():
            rows[i][j], rows[j][i] = x, -x
        return [tuple(row) for row in rows]

    def _scaled_rows(self, idx):
        """(rows, s, exact): the rows of s A on the sorted index list idx as int lists, s the
        least common denominator of the entries there, exact iff every one is an int."""
        m, minor = len(idx), self._upper
        if m < self.size:  # the minor's stored entries, renumbered
            pos = dict(zip(idx, range(m)))
            minor = {(pos[i], pos[j]): x for (i, j), x in minor.items() if i in pos and j in pos}
        ints, s = linalg.clear_denominators(minor.values())
        rows = [[0] * m for _ in range(m)]
        for (p, q), x in zip(minor, ints):
            rows[p][q], rows[q][p] = x, -x
        return rows, s, all(type(x) is int for x in minor.values())

    def is_zero(self):
        return not self._upper

    def __hash__(self):
        return hash((self.size, frozenset(self._upper.items())))

    def rank(self):
        return linalg.rank(self.to_rows())

    def to_json(self):
        return {"size": self.size,
                "upper": [[str(self.entry(i, j)) for j in range(i + 1, self.size)]
                          for i in range(self.size - 1)]}

    def __repr__(self):
        return f"SkewMatrix(size={self.size})"


def _check_index_set(n, indices):
    if n < -1:
        raise ValueError(f"negative matrix size {n + 1}")
    idx = tuple(sorted(indices))
    if len(set(idx)) != len(idx):
        raise ValueError(f"repeated index in {idx}")
    if len(idx) % 2 == 1:
        raise ValueError("odd Pfaffian undefined")
    if idx and (idx[0] < 0 or idx[-1] > n):
        raise ValueError(f"index set exceeds matrix size {n + 1}")
    return idx


# Cap on the exponent entries sub_pfaffian writes: (|I| - 1)!! terms of
# C(size, 2) exponents each.  The full Pfaffian of size 14 needs 135135 * 91, and
# the Taylor passes at k = 5, 10395 * 66.  Writing them as JSON costs more than
# building them: cli.MAX_PFAFFIAN_REPORT prices that.
MAX_PFAFFIAN_ENTRIES = 15_000_000


def sub_pfaffian(n, indices):
    """Symbolic Pfaffian of the principal minor of the generic matrix on `indices`.

    One term per perfect matching of the sorted index set: pairing its first
    index with the one in position p of the rest contributes (-1)^p z_{first,that}
    times a matching of what is left, so every coefficient is +1 or -1.  Raises
    ValueError when the terms would hold more than MAX_PFAFFIAN_ENTRIES entries.
    """
    width = comb(n + 1, 2) if n >= 0 else 0
    # the width alone first, so a huge size is refused before its indices are sorted
    if width > MAX_PFAFFIAN_ENTRIES:
        raise ValueError(f"matrix size {n + 1} exceeds the budget of "
                         f"{MAX_PFAFFIAN_ENTRIES} term entries")
    idx = _check_index_set(n, indices)
    if width * prod(range(len(idx) - 1, 0, -2)) > MAX_PFAFFIAN_ENTRIES:
        raise ValueError(f"sub-Pfaffian on {len(idx)} indices of size {n + 1} exceeds "
                         f"the budget of {MAX_PFAFFIAN_ENTRIES} term entries")
    terms = {}

    def match(rest, sign, exp):
        if not rest:
            terms[tuple(exp)] = sign
            return
        for pos in range(1, len(rest)):
            k = var_index(n, rest[0], rest[pos])
            exp[k] = 1
            match(rest[1:pos] + rest[pos + 1:], sign if pos % 2 else -sign, exp)
            exp[k] = 0

    match(idx, 1, [0] * len(var_pairs(n)))
    # distinct 0/1 exponent tuples with coefficients +-1: nothing for __init__ to check
    return Polynomial._make(n, terms)


def pfaffian_value(matrix, indices=None):
    """Exact numeric Pfaffian of a principal minor (whole matrix by default): an int
    when every entry of the minor is an ``int``, a Fraction otherwise.

    One _eliminate_pairs pass on the minor's entries scaled by their common denominator
    s (the Pfaffian on 2m indices scales by s^m).  skew_inverse runs the same pass on a
    bordered matrix, by Pf([[A, B], [-B^t, 0]]) = Pf(A) Pf(B^t A^-1 B) (Schur complement).
    """
    if indices is None:
        indices = range(matrix.size)
    idx = _check_index_set(matrix.size - 1, indices)
    b, scale, exact = matrix._scaled_rows(idx)
    sign, q = _eliminate_pairs(b, len(idx))
    return sign * q if exact else Fraction(sign * q, scale ** (len(idx) // 2))


def _eliminate_pairs(b, pivots):
    """(sign, q): fraction-free elimination on pivot pairs, in place, of the integer skew
    matrix b (both triangles given), by the Pfaffian form of Sylvester's identity (Knuth,
    "Overlapping Pfaffians", 1996), with pivots among its first ``pivots`` (even) indices.

    Before the step at the pair (k, k + 1), k even, each entry (i, j), k <= i < j, is the
    Pfaffian on the first k indices and i, j, and q = b_k(k+1) is the pivot.  A zero pivot
    swaps in a later index j < pivots with b_kj != 0, which flips the sign; with none,
    q = 0 and the pass stops.  Each entry with k + 1 < i < j becomes
    (q b_ij - b_ki b_(k+1)j + b_kj b_(k+1)i) / prev, prev the pivot before q (1 at first),
    an exact division that reads the upper triangle alone: only it is written, and the
    lower one is rebuilt before a swap.  The last q is sign times the Pfaffian.
    """
    m, sign, prev = len(b), 1, 1
    for k in range(0, pivots, 2):
        row = b[k]
        if not row[k + 1]:
            j = next((j for j in range(k + 2, pivots) if row[j]), None)
            if j is None:
                return sign, 0
            for i, c in combinations(range(k + 1, m), 2):
                b[c][i] = -b[i][c]
            b[k + 1], b[j] = b[j], b[k + 1]
            for r in b:
                r[k + 1], r[j] = r[j], r[k + 1]
            sign = -sign
        q, nxt = row[k + 1], b[k + 1]
        for i in range(k + 2, m):
            bi, ri, ni = b[i], row[i], nxt[i]
            for j in range(i + 1, m):
                bi[j] = (q * bi[j] - ri * nxt[j] + row[j] * ni) // prev
        prev = q
    return sign, prev


def _check_h(n, h):
    """Refuse an h outside 1..(n+1)//2, the nonzero half-ranks at size n + 1."""
    if not 1 <= h <= (n + 1) // 2:
        raise ValueError(f"h={h} out of range 1..{(n + 1) // 2} for n={n}")


def _rng(label, seed):
    return random.Random(f"{label}:{seed}")


def _wedge(pairs, x, y):
    """Coordinates of the rank-two skew matrix x y^t - y x^t at the index pairs."""
    return [x[i] * y[j] - x[j] * y[i] for i, j in pairs]


# Draws before secant_sample gives up.  A draw has rank 2h generically; even
# at bound 1, 2000 seeded samples over n = 1..8 needed at most 7 draws.
MAX_DRAWS = 1000

# Fresh, with --json (2 vCPUs, CPython 3.11.7): the `sample` edges for h = 1..60 and
# bounds 1..10^6 take 0.7-2.4 s and at most 167 MB; the six passes at k = 5 (4.3e7)
# take 0.8-1.2 s as `multiplicity --k 5 --h 1` at any n, and the grid at n = 12, its
# passes for k <= 5 (4.54e7), 0.8-1.2 s.
MAX_SAMPLING_WORK = 60_000_000


def sample_work(n, h, bound):
    """(n+1)^2 (44 + 4 h b) + (n+1) h^3 b^1.5, b the bound's bits over 7: printing the
    point, summing its h wedges and the rank check on the 2h drawn vectors, a fit to the
    times of `sample --json`."""
    b = max(1, bound.bit_length() / 7)
    return (n + 1) ** 2 * (44 + 4 * h * b) + (n + 1) * h ** 3 * b ** 1.5


def taylor_work(k):
    """(2k+1)!! (2^(k+7) + C(2k+2, 2)): the size-(2k+2) sub-Pfaffian's terms times the cost
    of expanding each at a point of that size, fit to vanishing_order at max_order k+1."""
    return prod(range(2 * k + 1, 0, -2)) * (2 ** (k + 7) + comb(2 * k + 2, 2))


def secant_sample(n, h, bound=100, seed=0):
    """Random integer point of rank exactly 2h: a sum of h integer wedges x ^ y.

    With M the matrix of columns x_1, y_1, ..., x_h, y_h, the sum is M Omega M^t
    for an invertible Omega, so its rank is that of M.  Resamples until M has
    rank 2h, which holds generically, and raises ValueError after MAX_DRAWS draws.
    """
    _check_h(n, h)
    if bound < 1:
        raise ValueError("bound must be positive")
    if sample_work(n, h, bound) > MAX_SAMPLING_WORK:
        raise ValueError(f"a rank-{2 * h} sample of size {n + 1} exceeds the sampling budget")
    rng, pairs = _rng("secant", seed), var_pairs(n)
    for _ in range(MAX_DRAWS):
        xy = [[rng.randint(-bound, bound) for _ in range(n + 1)] for _ in range(2 * h)]
        if linalg.rank(xy) == 2 * h:
            coords = [0] * len(pairs)
            for x, y in zip(xy[::2], xy[1::2]):  # a running sum: three lists live, not h
                coords = [c + w for c, w in zip(coords, _wedge(pairs, x, y))]
            # skew and integral by construction: nothing for __init__ to check
            return SkewMatrix._make(n + 1, {p: c for p, c in zip(pairs, coords) if c})
    raise ValueError(f"no rank-{2 * h} point in {MAX_DRAWS} draws with bound {bound}")


def vanishing_order(polynomial, matrix, max_order):
    """Smallest j <= max_order with a nonzero order-j iterated partial at the point.

    One pass over the terms expands each monomial prod (z_k + x_k)^e_k of
    p(z + x) binomially at the point z, keeping x-exponents of total degree
    at most max_order; the coefficient of x^a is the partial d^a p(z) / a!.
    Returns max_order + 1 when every partial up to the cap vanishes.  Order 0
    means the polynomial itself is nonzero at the point.
    """
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    point = polynomial._coordinates(matrix)
    # (k, e) -> the nonzero (a, C(e, a) z_k^(e - a)) of (z_k + x_k)^e, a ascending
    rows = {}
    taylor = {}
    width = range(len(point))
    for exp, coef in polynomial.terms.items():
        # (degree, x-exponent) -> coefficient, one factor (z_k + x_k)^e at a time,
        # over the nonzero exponents only
        expansion = {(0, ()): coef}
        for k, e in zip(compress(width, exp), filter(None, exp)):
            row = rows.get((k, e))
            if row is None:
                row = rows[k, e] = [(a, w) for a in range(min(e, max_order) + 1)
                                    if (w := comb(e, a) * point[k] ** (e - a))]
            grown = {}
            for (degree, shift), c in expansion.items():
                for a, w in row:
                    if degree + a > max_order:
                        break
                    grown[degree + a, shift + ((k, a),) if a else shift] = c * w
            expansion = grown
        for key, c in expansion.items():
            taylor[key] = taylor.get(key, 0) + c
    return min((degree for (degree, _), c in taylor.items() if c), default=max_order + 1)


@cache
def _orders(k):
    """Orders of pf(Z_{0..2k+1}) at J_1, ..., J_(k+1) of size 2k + 2, one Taylor pass to
    its degree k + 1 each: exact, and shared by every n (multiplicity_grid)."""
    p = sub_pfaffian(2 * k + 1, range(2 * k + 2))
    return tuple(vanishing_order(p, SkewMatrix._make(
        2 * k + 2, {(2 * i, 2 * i + 1): 1 for i in range(h)}), k + 1) for h in range(1, k + 2))


def multiplicity(n, k, h):
    """The grid's entry at (n, k, h): the order of vanishing of pf(Z_{0..2k+1}) along the
    rank-2h locus at size n + 1, read at J_min(h, k+1) of size 2k + 2 whatever n.

    Priced as taylor_work(k) against MAX_SAMPLING_WORK, before any build; the price
    grows with k, so a huge k is refused at the first k' <= k over the budget, before
    its (2k + 1)!! is formed.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if 2 * k + 2 > n + 1:
        raise ValueError(f"sub-Pfaffian size {2 * k + 2} exceeds matrix size {n + 1}")
    _check_h(n, h)
    if any(taylor_work(j) > MAX_SAMPLING_WORK for j in range(k + 1)):
        raise ValueError(f"the vanishing order at k = {k} exceeds the sampling budget")
    return _orders(k)[min(h, k + 1) - 1]


def multiplicity_grid(n_values):
    """Orders of vanishing of pf(Z_{0..2k+1}) along the rank-2h loci against
    max(k-h+1, 0), each read exactly at J_h = e0^e1 + ... + e_{2h-2}^e_{2h-1}.

    Lower bound, at every point A of rank 2h: pf(A + X) on I = {0..2k+1} expands
    multilinearly into the sum over even J within I of +-pf(A_J) pf(X_{I-J}), of
    degree |I-J|/2 in X, and pf(A_J) = 0 for |J| > rank A = 2h; so every term of
    degree below k + 1 - h vanishes.  Equality: the order is upper semicontinuous,
    so on the irreducible locus its generic value is its least, at most that at
    J_h; one Taylor pass at J_h to the degree k + 1 of p reads it exactly, and
    where it meets the bound it is the generic order.  p has no variable outside
    rows 0..2k+1, and J_h restricted to them is J_min(h, k+1) of size 2k + 2, so
    the order depends on (k, min(h, k + 1)) alone and is read once, at that size,
    for every n.  Priced as the passes it runs against MAX_SAMPLING_WORK, before any
    build; a huge n is refused at the first partial sum over it.
    """
    top = max(n_values, default=0)
    if any(work > MAX_SAMPLING_WORK
           for work in accumulate(map(taylor_work, range((top + 1) // 2)))):
        raise ValueError(f"the multiplicity grid at n = {top} exceeds the sampling budget")
    return [(n, k, h, _orders(k)[min(h, k + 1) - 1], max(k - h + 1, 0)) for n in n_values
            for k in range((n + 1) // 2) for h in range(1, (n + 1) // 2 + 1)]


def dim_secant(n, h):
    """Projective dimension of the rank-2h degeneracy locus, h < floor((n+1)/2)."""
    if not 1 <= h < (n + 1) // 2:
        raise ValueError(f"h={h} outside the dimension formula's range for n={n}")
    return 2 * (n - 1) * h + h - 1 - 2 * h * (h - 1)


def codim_secant(n, h):
    """Codimension in P^(N-) with N- = C(n+1,2) - 1; dim + codim = N-."""
    if not 1 <= h < (n + 1) // 2:
        raise ValueError(f"h={h} outside the codimension formula's range for n={n}")
    num = n * n + n - 2 * h * (2 * n - 2 * h + 1)
    assert num % 2 == 0
    return num // 2


# `secant` takes 6-7 ns per unit of terracini_work at bound 100 (fresh, --json, 2 vCPUs,
# CPython 3.11.7) on the edge of one h > 1: 2.8 s at (24, 4), 2.4 s at (17, 8) (4.0e8), but
# 0.7 ns at h = 1: 0.24-0.31 s at (58, 1), as the fit predates the basis of 2n - 1 rows per
# point.  A listing is one elimination for its largest h and is priced so: 2.4 s at n = 17
# and, refused, 3.7 s at n = 18 (5.5e8, as (18, 8)).  At bound 10^6 one h costs 1.1-4.5
# times its time at bound 100 ((46, 1) 0.16 -> 0.18 s, (22, 3) 0.74 -> 3.2 s, (19, 4)
# 0.92 -> 4.2 s); the weight (bits / 7)^1.4 is 4.35 at 10^6, and the edges there take
# 0.15-2.2 s with --json ((42, 1), (26, 2), (20, 3), (17, 4), (15, 5), (14, 6) and the
# listing at n = 14), and those at 10^3-10^5 0.16-2.3 s.
MAX_TERRACINI_WORK = 450_000_000


def terracini_work(n, h, bound):
    """((rows * rank)^2 * columns)^(3/4), weighed by (b / 7)^1.4, b the bound's bits over 7:
    a fit to terracini_dims's times on all 2h(n+1) rows x ^ e_m, y ^ e_m, not the h(2n-1) kept."""
    rows, rank = 2 * h * (n + 1), dim_secant(n, h) + 1
    weight = max(1, bound.bit_length() / 7) ** 1.4
    return weight * isqrt(isqrt(((rows * rank) ** 2 * comb(n + 1, 2)) ** 3))


def terracini_dims(n, h, bound=100, seed=0):
    """Dimensions of the spans of j generic tangent spaces of the rank-2 locus, j = 1..h.

    The affine tangent space at [x ^ y] is x ^ V + y ^ V; the projective
    dimension of the join of j of them is the rank of their stacked
    coordinate vectors minus one, each space given by _tangent_rows (a basis
    of 2n - 1 rows when x ^ y != 0).  An attempt draws its pairs in order,
    so the blocks for j pairs are the first j blocks for h, and one
    fraction-free elimination of the transpose answers every j: a column of
    the transpose is a pivot iff it is independent of the columns before
    it, so the rank of the first j blocks is the number of pivots before
    the end of block j.  Random integer samples only ever undershoot the
    generic value, so each entry is the maximum over a few attempts.
    """
    _check_h(n, h)
    if bound < 1:
        raise ValueError("bound must be positive")
    best, pairs = [0] * h, var_pairs(n)
    for attempt in range(3):
        rng = _rng("terracini", f"{seed}:{attempt}")
        rows, cuts = [], []
        for _ in range(h):
            x = [rng.randint(-bound, bound) for _ in range(n + 1)]
            y = [rng.randint(-bound, bound) for _ in range(n + 1)]
            rows += _tangent_rows(pairs, x, y)
            cuts.append(len(rows))
        pivots = linalg._bareiss(list(zip(*rows)), echelon=True)[1]
        best = [max(b, sum(p < cut for p in pivots) - 1) for cut, b in zip(cuts, best)]
    return best


def _tangent_rows(pairs, x, y):
    """The rows x ^ e_m, then y ^ e_m, spanning x ^ V + y ^ V, less three dependent ones:
    x ^ e_a for the first a with x_a != 0, as sum_m x_m (x ^ e_m) = x ^ x = 0; y ^ e_b for
    the first b with y_b != 0, likewise; and y ^ e_c for the first c with the Pluecker
    coordinate p_bc = x_b y_c - x_c y_b != 0, as x ^ y, in x ^ V, is the sum over m != b of
    (p_bm / y_b) (y ^ e_m).  With x ^ y = 0 there is no c, and a zero x (or y) has no a (b)."""
    a = next((m for m, v in enumerate(x) if v), None)
    b = next((m for m, v in enumerate(y) if v), None)
    c = None if b is None else next((m for m, v in enumerate(y) if x[b] * v - x[m] * y[b]), None)
    # v ^ e_m is v_i at (i, m) and -v_j at (m, j)
    return [[v[i] if j == m else -v[j] if i == m else 0 for i, j in pairs]
            for v, skip in ((x, (a,)), (y, (b, c))) for m in range(len(v)) if m not in skip]


def terracini_dim(n, h, bound=100, seed=0):
    """Dimension of the span of h generic tangent spaces: the last of terracini_dims."""
    return terracini_dims(n, h, bound, seed)[-1]


def wedge_power(matrix, k):
    """Matrix of all k x k minors, rows and columns indexed by k-subsets.

    Entry (I, J) is det of the submatrix with rows I and columns J; the
    transpose equals (-1)^k times the matrix, and its rank is C(rank, k).
    Minors are Laplace expansions along their first row: each row suffix I
    gets the dict of all its |I|-column minors, built from the dict of I[1:],
    so all row sets share the minors of their lower rows.  The terms (j, odd
    position, J without j) of each column set J are listed once per size and
    call.  Entries are ints for an integer matrix and Fractions otherwise.
    """
    m = matrix.size
    if not 1 <= k <= m - 1:
        raise ValueError(f"wedge power {k} out of range 1..{m - 1}")
    # one common denominator D: the k x k minors of D * A are D^k times those of A
    rows, scale, _ = matrix._scaled_rows(range(m))
    memo = {(): {(): 1}}
    laplace = {s: [(J, [(j, p % 2, J[:p] + J[p + 1:]) for p, j in enumerate(J)])
                   for J in combinations(range(m), s)] for s in range(1, k + 1)}

    def minors(I):
        """{J: det of rows I and columns J} over the |I|-subsets J, in combinations order."""
        if I in memo:
            return memo[I]
        row, sub, got = rows[I[0]], minors(I[1:]), {}
        for J, terms in laplace[len(I)]:
            total = 0
            for j, odd, rest in terms:
                if row[j]:
                    total += -row[j] * sub[rest] if odd else row[j] * sub[rest]
            got[J] = total
        memo[I] = got
        return got

    subsets = combinations(range(m), k)
    if scale == 1:
        return [tuple(minors(I).values()) for I in subsets]
    return [tuple(Fraction(x, scale ** k) for x in minors(I).values()) for I in subsets]


def skew_inverse(matrix):
    """Exact inverse of an invertible skew matrix; skew again, and an involution.

    With s the common denominator of the entries, _eliminate_pairs runs on the integer
    bordered matrix M = [[sA, I], [-I, 0]] of size 2n, pivots among A's n indices.  Its
    entry (n+i, n+j) ends as the Pfaffian of M on A's indices and n+i, n+j, which the
    Schur-complement identity Pf([[A, B], [-B^t, 0]]) = Pf(A) Pf(B^t A^-1 B) makes
    Pf(sA) (sA)^-1_ij, and its last pivot q is Pf(sA), both times the sign of the swaps.
    Those permute A's indices alone, so the sign cancels in A^-1_ij = s M'_(n+i)(n+j) / q:
    an ``int`` where integral, a ``Fraction`` only where not.  Raises ValueError on
    singular input.
    """
    n = matrix.size
    if n % 2 == 1:
        raise ValueError("odd-size skew matrices are singular")
    rows, s, _ = matrix._scaled_rows(range(n))
    b = [row + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    b += [[-int(i == j) for j in range(n)] + [0] * n for i in range(n)]
    _, q = _eliminate_pairs(b, n)
    if not q:
        raise ValueError("singular matrix")
    return SkewMatrix._make(n, {(i, j): x // q if (x := s * b[n + i][n + j]) % q == 0
                                else Fraction(x, q)
                                for i in range(n) for j in range(i + 1, n) if b[n + i][n + j]})


def validate_complete_form(stages):
    """Check a chain of 2-forms, each living on the kernel of the previous one.

    ``stages`` is a list of (SkewMatrix, kernel_basis) pairs where the kernel
    basis is a sequence of vectors.  True iff every form is nonzero, each
    basis exactly spans the kernel of its form, and the final form is
    nondegenerate or has a one-dimensional kernel.  Size mismatches between
    consecutive stages raise ValueError.
    """
    if not stages:
        raise ValueError("empty sequence of forms")
    expected_size = stages[0][0].size
    nullity = None
    for matrix, basis in stages:
        if matrix.size != expected_size:
            raise ValueError(f"form of size {matrix.size} on a space of dimension {expected_size}")
        if matrix.is_zero():
            return False
        # a positive integer multiple keeps both kernel membership and rank
        basis = [linalg.clear_denominators(b)[0] for b in basis]
        for b in basis:
            if len(b) != matrix.size:
                raise ValueError("kernel vector of wrong length")
        nullity = matrix.size - matrix.rank()
        if len(basis) != nullity:
            return False
        rows = matrix.to_rows()
        for b in basis:
            if any(dot(row, b) != 0 for row in rows):
                return False
        if basis and linalg.rank(basis) != len(basis):
            return False
        expected_size = len(basis)
    return nullity in (0, 1)
