"""Pfaffian calculus for generic and exact skew-symmetric matrices.

The generic matrix of size n+1 has independent upper-triangle entries
z_ij (0 <= i < j <= n); sub-Pfaffians of its principal minors are sparse
integer polynomials in those entries.  Sign convention: pf([[0,a],[-a,0]]) = a,
with first-row expansion

    pf(Z_I) = sum_j (-1)^(j-1) z_{i0,ij} pf(Z_{I \\ {i0,ij}}),   pf(Z_empty) = 1,

so that pf(Z)^2 = det(Z).

Points come as ``SkewMatrix`` values with ``int`` or ``Fraction`` entries,
kept as given.  Rank-2h points of the Pfaffian degeneracy loci are sampled
as sums of h random wedges x ^ y with integer entries, and orders of
vanishing are read off the exact Taylor expansion at the point, so no
numerical tolerance exists anywhere in this module.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import comb, isqrt, lcm, prod

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

    def is_zero(self):
        return not self.terms

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

    def evaluate(self, matrix):
        """Exact value at a SkewMatrix with size at least the support needs."""
        point = self._coordinates(matrix)
        total = 0
        for exp, coef in self.terms.items():
            value = coef
            for z, e in zip(point, exp):
                if e:
                    value *= z ** e
            total += value
        return total

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
# a single estimate at k = 5 and n = 50 (3.8 s fresh) 10395 * 1275.  Writing them
# as JSON costs more than building them: cli.MAX_PFAFFIAN_REPORT prices that.
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
    return Polynomial(n, terms)


def pfaffian_value(matrix, indices=None):
    """Exact numeric Pfaffian of a principal minor (whole matrix by default)."""
    if indices is None:
        indices = range(matrix.size)
    idx = _check_index_set(matrix.size - 1, indices)
    upper = matrix._upper
    memo = {}

    def pf(I):
        if not I:
            return 1
        if I in memo:
            return memo[I]
        i0 = I[0]
        total = 0
        for pos in range(1, len(I)):
            z = upper.get((i0, I[pos]))
            if z:
                term = z * pf(I[1:pos] + I[pos + 1:])
                total += term if pos % 2 else -term
        memo[I] = total
        return total

    return pf(idx)


def _check_h(n, h):
    """Refuse an h outside 1..(n+1)//2, the nonzero half-ranks at size n + 1."""
    if not 1 <= h <= (n + 1) // 2:
        raise ValueError(f"h={h} out of range 1..{(n + 1) // 2} for n={n}")


def _rng(label, seed):
    return random.Random(f"{label}:{seed}")


def _wedge_pair(x, y):
    """The rank-two skew matrix x y^t - y x^t."""
    size = len(x)
    rows = [[x[i] * y[j] - x[j] * y[i] for j in range(size)] for i in range(size)]
    return rows


# Draws before secant_sample gives up.  A draw has rank 2h generically; even
# at bound 1, 2000 seeded samples over n = 1..8 needed at most 7 draws.
MAX_DRAWS = 1000

# A draw takes up to about 45 ns per unit of sample_work, and a Taylor pass to order
# k + 1 up to 45 ns per unit of taylor_work (2 vCPUs, CPython 3.11.7): secant_sample
# takes 1.3 s at (n, h) = (800, 1) (3.1e7) and 8.3 s at (200, 20) with bound 10^6
# (1.7e8); vanishing_order 1.6-1.7 s at (n, k) = (11, 5) (4.3e7), fresh.  Printing
# adds to `sample` at h = 1: `--n 1100 --h 1 --json` (5.9e7) takes 3.1-3.4 s fresh.
MAX_SAMPLING_WORK = 60_000_000


def sample_work(n, h, bound):
    """(n+1)^2 h (48 + h b^2), b the bound's bits over 7: a fit to secant_sample's times."""
    return (n + 1) ** 2 * h * (48 + h * max(1, bound.bit_length() / 7) ** 2)


def taylor_work(n, k):
    """(2k+1)!! (2^(k+7) + C(n+1, 2)): terms of a size-(2k+2) sub-Pfaffian times the
    cost of expanding each at a point, a fit to vanishing_order's times at max_order k+1.

    multiplicity_estimate caps its passes lower, so it costs less than it is priced."""
    return prod(range(2 * k + 1, 0, -2)) * (2 ** (k + 7) + comb(n + 1, 2))


def secant_sample(n, h, bound=100, seed=0):
    """Random integer point of rank exactly 2h: a sum of h integer wedges x ^ y.

    Resamples until the rank is exactly 2h, which holds generically, and
    raises ValueError after MAX_DRAWS draws.
    """
    _check_h(n, h)
    if bound < 1:
        raise ValueError("bound must be positive")
    if sample_work(n, h, bound) > MAX_SAMPLING_WORK:
        raise ValueError(f"a rank-{2 * h} sample of size {n + 1} exceeds the sampling budget")
    rng = _rng("secant", seed)
    for _ in range(MAX_DRAWS):
        rows = [[0] * (n + 1) for _ in range(n + 1)]
        for _ in range(h):
            x = [rng.randint(-bound, bound) for _ in range(n + 1)]
            y = [rng.randint(-bound, bound) for _ in range(n + 1)]
            w = _wedge_pair(x, y)
            for i in range(n + 1):
                for j in range(n + 1):
                    rows[i][j] += w[i][j]
        z = SkewMatrix(rows)
        if z.rank() == 2 * h:
            return z
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
    for exp, coef in polynomial.terms.items():
        # (degree, x-exponent) -> coefficient, one factor (z_k + x_k)^e at a time
        expansion = {(0, ()): coef}
        for k, e in enumerate(exp):
            if not e:
                continue
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


def multiplicity_estimate(n, k, h, trials=5, seed=0, bound=100):
    """Vanishing order of a fixed size-(2k+2) sub-Pfaffian at rank-2h points.

    Minimum over independent samples; special points can only raise the
    order, so the minimum recovers the generic value.
    """
    return _capped_minimum(n, k, h, trials, bound, lambda: sub_pfaffian(n, range(2 * k + 2)),
                           lambda t: secant_sample(n, h, bound=bound, seed=f"{seed}:{t}"))


def _capped_minimum(n, k, h, trials, bound, build, sample):
    """multiplicity_estimate's refusals, then the least vanishing order of
    p = build() at sample(0), ..., sample(trials - 1), each drawn when needed."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if 2 * k + 2 > n + 1:
        raise ValueError(f"sub-Pfaffian size {2 * k + 2} exceeds matrix size {n + 1}")
    _check_h(n, h)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if trials * (taylor_work(n, k) + sample_work(n, h, bound)) > MAX_SAMPLING_WORK:
        raise ValueError(f"the estimate at (n, k, h) = ({n}, {k}, {h}) with {trials} trials "
                         "exceeds the sampling budget")
    p = build()
    # p has degree k + 1; each trial's pass is capped to return min(best, its order)
    best = k + 1
    for t in range(trials):
        best = vanishing_order(p, sample(t), max_order=best - 1)
        if best == 0:
            break
    return best


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


def _wedge_coordinates(n, x, v_index):
    """Coordinates of x ^ e_{v_index} in the upper-triangle basis of size n+1."""
    coords = []
    for (i, j) in var_pairs(n):
        c = 0
        if j == v_index:
            c += x[i]
        if i == v_index:
            c -= x[j]
        coords.append(c)
    return tuple(coords)


# `secant` takes 10-16 ns per unit of terracini_work at bound 100 (fresh, --json, 2 vCPUs,
# CPython 3.11.7) on the edge of one h: 4.1 s at (58, 1), 6.4 s at (24, 4), 5.2 s at
# (17, 8) (4.0e8).  A listing is one elimination for its largest h and is priced so:
# 4.8 s at n = 17 (4.0e8) and, refused, 9.0 s at n = 18 (5.5e8, as (18, 8)).  Past
# bound 100 the `secant` command weighs the work by (bits / 7)^1.4: see cli.MAX_BOUND.
MAX_TERRACINI_WORK = 450_000_000


def terracini_work(n, h):
    """((rows * rank)^2 * columns)^(3/4) of terracini_dim's matrix: a fit to its times."""
    rows, rank = 2 * h * (n + 1), dim_secant(n, h) + 1
    return isqrt(isqrt(((rows * rank) ** 2 * comb(n + 1, 2)) ** 3))


def terracini_dims(n, h, bound=100, seed=0):
    """Dimensions of the spans of j generic tangent spaces of the rank-2 locus, j = 1..h.

    The affine tangent space at [x ^ y] is x ^ V + y ^ V; the projective
    dimension of the join of j of them is the rank of their stacked
    coordinate vectors minus one.  An attempt draws its pairs in order, so
    the rows for j pairs are the first 2j(n+1) rows for h, and one
    fraction-free elimination of the transpose answers every j: a column of
    the transpose is a pivot iff it is independent of the columns before
    it, so the rank of the first 2j(n+1) rows is the number of pivots below
    2j(n+1).  Random integer samples only ever undershoot the generic value,
    so each entry is the maximum over a few attempts.
    """
    _check_h(n, h)
    if bound < 1:
        raise ValueError("bound must be positive")
    best, size = [0] * h, 2 * (n + 1)
    for attempt in range(3):
        rng = _rng("terracini", f"{seed}:{attempt}")
        rows = []
        for _ in range(h):
            x = [rng.randint(-bound, bound) for _ in range(n + 1)]
            y = [rng.randint(-bound, bound) for _ in range(n + 1)]
            for m in range(n + 1):
                rows.append(_wedge_coordinates(n, x, m))
                rows.append(_wedge_coordinates(n, y, m))
        pivots = linalg._bareiss(list(zip(*rows)), echelon=True)[1]
        best = [max(b, sum(p < size * j for p in pivots) - 1) for j, b in enumerate(best, 1)]
    return best


def terracini_dim(n, h, bound=100, seed=0):
    """Dimension of the span of h generic tangent spaces: the last of terracini_dims."""
    return terracini_dims(n, h, bound, seed)[-1]


def wedge_power(matrix, k):
    """Matrix of all k x k minors, rows and columns indexed by k-subsets.

    Entry (I, J) is det of the submatrix with rows I and columns J; the
    transpose equals (-1)^k times the matrix, and its rank is C(rank, k).
    Minors are Laplace expansions along their first row: each row suffix I
    gets the dict of all its |I|-column minors, built from the dict of I[1:],
    so all row sets share the minors of their lower rows.  Entries are ints
    for an integer matrix and Fractions otherwise.
    """
    m = matrix.size
    if not 1 <= k <= m - 1:
        raise ValueError(f"wedge power {k} out of range 1..{m - 1}")
    # one common denominator D: the k x k minors of D * A are D^k times those of A
    flat, scale = linalg.clear_denominators([x for row in matrix.to_rows() for x in row])
    rows = [flat[i * m:(i + 1) * m] for i in range(m)]
    memo = {(): {(): 1}}

    def minors(I):
        """{J: det of rows I and columns J} over the |I|-subsets J, in combinations order."""
        if I in memo:
            return memo[I]
        row, sub, got = rows[I[0]], minors(I[1:]), {}
        for J in combinations(range(m), len(I)):
            total = 0
            for p, j in enumerate(J):
                if row[j]:
                    term = row[j] * sub[J[:p] + J[p + 1:]]
                    total += -term if p % 2 else term
            got[J] = total
        memo[I] = got
        return got

    subsets = combinations(range(m), k)
    if scale == 1:
        return [tuple(minors(I).values()) for I in subsets]
    return [tuple(Fraction(x, scale ** k) for x in minors(I).values()) for I in subsets]


def skew_inverse(matrix):
    """Exact inverse of an invertible skew matrix; skew again, and an involution.

    With s the common denominator of the entries, one fraction-free pass
    reduces the integer matrix [sA | I] to [dI | (d/s) A^-1], so the inverse
    is s/d times its right half; only the upper triangle is read off, as
    Fractions.  Raises ValueError on singular input.
    """
    n = matrix.size
    if n % 2 == 1:
        raise ValueError("odd-size skew matrices are singular")
    s = lcm(*(x.denominator for x in matrix._upper.values()))
    scaled = SkewMatrix._make(n, {p: x.numerator * (s // x.denominator)
                                  for p, x in matrix._upper.items()})
    red, pivots, _ = linalg._bareiss([row + tuple(int(i == j) for j in range(n))
                                      for i, row in enumerate(scaled.to_rows())])
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    d = red[-1][n - 1] if n else 1
    return SkewMatrix._make(n, {(i, j): Fraction(s * red[i][n + j], d)
                                for i in range(n) for j in range(i + 1, n) if red[i][n + j]})


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
