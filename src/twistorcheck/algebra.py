"""Exact verification of the pointwise identities behind the bound chain.

Everything here runs in exact arithmetic with no tolerances: a single failed
check is a transcription bug in the inequality chain, not numerical noise.  The
objects are free algebraic models -- coefficient tensors with the right
antisymmetries and skew matrices -- so no manifold is involved.

The checks accept any exact rationals (``int`` or ``fractions.Fraction``).  The
sweep draws rational samples but hands the checks Python ints: each sampled
object (the C cube, the C' cube, a skew matrix, V) is multiplied by the lcm of
its denominators.  Every checked statement is homogeneous of degree 1 or 2 in
the entries of one object, and the wedge identity is bilinear in its two
matrices, so scaling an object by a positive factor preserves every equality
and inequality exactly, and the case-1 ratio 4 sum C^2 / sum d^2 is scale-free.

Verified facts, each for every index combination:

  * 2 C_ijk = d_ijk - d_jki + d_kij (and the two cyclic companions);
  * 4 (C_ijk^2 + C_jki^2 + C_kij^2)
      = 3 (d_ijk^2 + d_jki^2 + d_kij^2) - 2 d_ijk d_jki - 2 d_ijk d_kij - 2 d_jki d_kij
     <= 5 (d_ijk^2 + d_jki^2 + d_kij^2), with aggregate sum C^2 <= 5/4 sum d^2;
  * for n = 2:  sum C^2 = 2 (d_121^2 + d_212^2) = sum d^2;
  * the splitting of a skew matrix into commuting and anticommuting parts
    under J0 is exact, with the parts orthogonal in -tr(PQ);
  * the canonical complex structure (psi, V) -> (J0 psi, -V J0) squares to - Id;
  * the quadratic wedge identity
    sum_ij (w_ij ^ w_{j,i+n} + w_{i,j+n} ^ w_{j+n,i+n}) = -1/2 sum_ij alpha_ij ^ beta_ij
    read as a bilinear form in a pair of skew matrices.

A 2n x 2n matrix is read in n x n blocks, M = [[A, B], [C, D]], with
J0 = [[0, -I], [I, 0]].  Then J0 M = [[-C, -D], [A, B]], M J0 = [[B, -A],
[D, -C]] and J0 M J0 = [[-D, C], [B, -A]], so the J0 tests and the splitting
compare and halve blocks without forming any product.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import chain, product
from operator import add, eq, itemgetter, mul, neg, sub

from .errors import NotInSigma

MAX_N = 6  # exhaustive index loops stay cheap up to here

NUMERATOR_RANGE = 10**6
DENOMINATOR_RANGE = 10**3

# random.Random.randint(a, b) draws getrandbits(k) until the value is below the
# width b - a + 1, with k = width.bit_length(); random_fraction runs that loop
# itself, so it makes the same rng calls as randint and returns the same values.
_NUMERATOR_WIDTH = 2 * NUMERATOR_RANGE + 1
_NUMERATOR_BITS = _NUMERATOR_WIDTH.bit_length()
_DENOMINATOR_BITS = DENOMINATOR_RANGE.bit_length()


@dataclass(frozen=True)
class CheckResult:
    """Boolean verdict plus a serialized counterexample when it fails."""

    ok: bool
    counterexample: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def random_fraction(rng: random.Random) -> tuple:
    """One random rational as its (numerator, denominator) pair.

    The numerator lies in [-10^6, 10^6] and the denominator in [1, 10^3].  The
    pair and the rng state afterwards are those of
    ``(rng.randint(-10**6, 10**6), rng.randint(1, 10**3))``.
    """
    bits = rng.getrandbits
    p = bits(_NUMERATOR_BITS)
    while p >= _NUMERATOR_WIDTH:
        p = bits(_NUMERATOR_BITS)
    q = bits(_DENOMINATOR_BITS)
    while q >= DENOMINATOR_RANGE:
        q = bits(_DENOMINATOR_BITS)
    return p - NUMERATOR_RANGE, q + 1


def _scaled_draws(rng: random.Random, count: int, factor: int = 1) -> list:
    """``count`` random rationals, all multiplied by ``factor`` times the lcm of
    their denominators, so every entry is an int."""
    pairs = [random_fraction(rng) for _ in range(count)]
    scale = factor * math.lcm(*(q for _, q in pairs))
    return [p * (scale // q) for p, q in pairs]


def _half(x):
    """x / 2 exactly: an even int halves to an int, anything else to a Fraction."""
    if isinstance(x, int) and not x & 1:
        return x >> 1
    return Fraction(x) / 2


@cache
def _skew_row_getters(dim: int, planes: int) -> tuple:
    """Row getters that lay out ``planes`` skew dim x dim matrices from
    ``(0, *values, *(-v for v in values))``: each matrix takes its strict upper
    triangle, row by row, from the next dim (dim - 1) / 2 values."""
    count = planes * dim * (dim - 1) // 2
    slots = iter(range(1, count + 1))
    layouts = []
    for _ in range(planes):
        rows = [[0] * dim for _ in range(dim)]
        for a in range(dim):
            for b in range(a + 1, dim):
                rows[a][b] = next(slots)
                rows[b][a] = rows[a][b] + count
        layouts.append(tuple(itemgetter(*row) for row in rows))
    return tuple(layouts)


def _skew_planes(values: list, dim: int, planes: int) -> tuple:
    """``planes`` skew dim x dim matrices whose strict upper triangles, row by row,
    are ``values`` in order."""
    ext = (0, *values, *map(neg, values))
    return tuple(
        tuple(row(ext) for row in layout) for layout in _skew_row_getters(dim, planes)
    )


def _flat_index(n: int, i: int, j: int, k: int) -> int:
    return (i * n + j) * n + k


@cache
def _cube_permutation(n: int, order: str) -> itemgetter:
    """Getter that permutes a flat n x n x n cube read in (i, j, k) order: at
    position (i, j, k) its result holds the entry ``order`` names, so "jki"
    gives the entry (j, k, i)."""
    slots = ["ijk".index(name) for name in order]
    return itemgetter(*(
        _flat_index(n, *(triple[s] for s in slots)) for triple in product(range(n), repeat=3)
    ))


@cache
def _orbit_representatives(n: int) -> tuple:
    """The lexicographically smallest triple of each cyclic-rotation orbit, in
    (i, j, k) order, with the flat indices of (i, j, k), (j, k, i), (k, i, j)."""
    return tuple(
        ((i, j, k), _flat_index(n, i, j, k), _flat_index(n, j, k, i), _flat_index(n, k, i, j))
        for i, j, k in product(range(n), repeat=3)
        if (i, j, k) <= (j, k, i) and (i, j, k) <= (k, i, j)
    )


def _flatten_cube(c: tuple) -> tuple:
    return tuple(chain.from_iterable(chain.from_iterable(c)))


@dataclass(frozen=True)
class RationalCTensor:
    """Free algebraic model of the C / C' coefficient tensors.

    Entries are exact rationals, antisymmetric in the last two indices; the
    constructor rejects anything else.  ``random`` draws each cube with int
    entries, scaled by the lcm of that cube's denominators.
    """

    n: int
    C: tuple
    Cp: tuple

    def __post_init__(self):
        if not 2 <= self.n <= MAX_N:
            raise ValueError(f"n must lie in [2, {MAX_N}]")
        for name in ("C", "Cp"):
            t = getattr(self, name)
            if len(t) != self.n or any(
                len(p) != self.n or any(len(r) != self.n for r in p) for p in t
            ):
                raise ValueError(f"{name} must be an n x n x n nested tuple")
            for i in range(self.n):
                for j in range(self.n):
                    for k in range(j, self.n):
                        if t[i][j][k] != -t[i][k][j]:
                            raise ValueError(
                                f"{name}[{i}][{j}][{k}] breaks antisymmetry in the last two indices"
                            )

    @classmethod
    def random(cls, n: int, rng: random.Random) -> "RationalCTensor":
        count = n * n * (n - 1) // 2
        C, Cp = (_skew_planes(_scaled_draws(rng, count), n, n) for _ in range(2))
        return cls(n=n, C=C, Cp=Cp)

    @cached_property
    def _cubes(self) -> tuple:
        """("C", C, d) and ("C'", C', d') with flat cubes in (i, j, k) order and
        d_ijk = C_ijk - C_jik.

        Built on first use and kept, so every check of one tensor reads the
        same d and d'.
        """
        jik = _cube_permutation(self.n, "jik")
        cubes = []
        for name, cube in (("C", self.C), ("C'", self.Cp)):
            c = _flatten_cube(cube)
            cubes.append((name, c, tuple(map(sub, c, jik(c)))))
        return tuple(cubes)


def check_identity_c1(t: RationalCTensor) -> CheckResult:
    """2 C_ijk = d_ijk - d_jki + d_kij, exactly, for all triples, C and C'."""
    n = t.n
    jki, kij = _cube_permutation(n, "jki"), _cube_permutation(n, "kij")
    for name, c, dd in t._cubes:
        lhs = list(map(add, c, c))
        rhs = list(map(add, map(sub, dd, jki(dd)), kij(dd)))
        if lhs != rhs:
            first = next(m for m, (x, y) in enumerate(zip(lhs, rhs)) if x != y)
            i, jk = divmod(first, n * n)
            j, k = divmod(jk, n)
            return CheckResult(False, f"{name} triple (i,j,k)=({i + 1},{j + 1},{k + 1})")
    return CheckResult(True)


def check_case1_inequality(t: RationalCTensor) -> tuple:
    """Per-triple expansion equality, the <= 5 bound, and the aggregate 5/4 bound.

    Returns (CheckResult, ratio) with ratio the larger over C and C' of the
    aggregate 4 sum C^2 / sum d^2, read off the sums the 5/4 bound forms; it
    lies in [1, 4] and is zero if both d vanish.

    Both sides of the per-triple statement are invariant under cyclic rotation
    of (i, j, k), so each rotation orbit is checked once through its
    lexicographically smallest representative; that still certifies the
    statement for every triple.
    """
    # the ratio kept as a (numerator, denominator) pair, compared by cross-multiplying
    num, den = 0, 1

    def result(failure: str | None = None) -> tuple:
        return CheckResult(failure is None, failure), Fraction(num, den)

    for name, c, dd in t._cubes:
        c2, d2 = list(map(mul, c, c)), list(map(mul, dd, dd))
        for (i, j, k), p, q, r in _orbit_representatives(t.n):
            x, y, z = dd[p], dd[q], dd[r]
            s3 = d2[p] + d2[q] + d2[r]
            lhs = 4 * (c2[p] + c2[q] + c2[r])
            expansion = 3 * s3 - 2 * (x * y + x * z + y * z)
            if lhs != expansion:
                return result(f"{name} expansion equality at ({i + 1},{j + 1},{k + 1})")
            if lhs > 5 * s3:
                return result(f"{name} 5-bound at ({i + 1},{j + 1},{k + 1})")
        total, total_d2 = 4 * sum(c2), sum(d2)
        if total > 5 * total_d2:
            return result(f"aggregate 5/4 bound for {name}")
        if total_d2 > 0 and total * den > num * total_d2:
            num, den = total, total_d2
    return result()


def check_case2_identities(t: RationalCTensor) -> CheckResult:
    """The n = 2 equalities sum C^2 = 2 (d_121^2 + d_212^2) = sum d^2, both tensors."""
    if t.n != 2:
        raise ValueError("case-2 identities are specific to n = 2")
    for name, c, dd in t._cubes:
        sum_c2 = sum(map(mul, c, c))
        sum_d2 = sum(map(mul, dd, dd))
        middle = 2 * (dd[_flat_index(2, 0, 1, 0)] ** 2 + dd[_flat_index(2, 1, 0, 1)] ** 2)
        if not (sum_c2 == middle == sum_d2):
            return CheckResult(
                False, f"{name}: sum C^2={sum_c2}, 2(d121^2+d212^2)={middle}, sum d^2={sum_d2}"
            )
    return CheckResult(True)


# --- exact skew-matrix algebra -------------------------------------------------

@dataclass(frozen=True)
class RationalSkewMatrix:
    """Skew 2n x 2n matrix over exact rationals, a tuple of row tuples.

    ``random`` draws int entries scaled by twice the lcm of the denominators,
    so the halves that ``skew_decompose`` takes stay ints.
    """

    n: int
    entries: tuple

    def __post_init__(self):
        dim = 2 * self.n
        if len(self.entries) != dim or any(len(r) != dim for r in self.entries):
            raise ValueError(f"entries must be {dim} x {dim}")
        for a in range(dim):
            for b in range(a, dim):
                if self.entries[a][b] != -self.entries[b][a]:
                    raise ValueError(f"entry ({a}, {b}) breaks skew symmetry")

    @classmethod
    def random(cls, n: int, rng: random.Random) -> "RationalSkewMatrix":
        dim = 2 * n
        values = _scaled_draws(rng, dim * (dim - 1) // 2, factor=2)
        return cls(n=n, entries=_skew_planes(values, dim, 1)[0])

    @classmethod
    def from_rows(cls, n: int, rows) -> "RationalSkewMatrix":
        return cls(n=n, entries=tuple(tuple(Fraction(x) for x in row) for row in rows))


def _negated(m: tuple) -> tuple:
    return tuple(tuple(map(neg, row)) for row in m)


def _mat_add(x: tuple, y: tuple) -> tuple:
    return tuple(tuple(map(add, xr, yr)) for xr, yr in zip(x, y))


def skew_decompose(omega: RationalSkewMatrix) -> tuple:
    """Exact splitting of a skew matrix into its J0-commuting and anticommuting parts.

    Returns (u_part, sigma_part) with
    u_part = (omega - J0 omega J0)/2 and sigma_part = (omega + J0 omega J0)/2.
    With J0 omega J0 = [[-D, C], [B, -A]] the upper rows are
    [(A + D)/2, (B - C)/2] and [(A - D)/2, (B + C)/2]; the lower rows follow
    from the upper ones, [-(B - C)/2, (A + D)/2] and [(B + C)/2, -(A - D)/2].
    """
    n = omega.n
    u_rows, s_rows = [], []
    for upper, lower in zip(omega.entries[:n], omega.entries[n:]):
        moved = lower[n:] + tuple(map(neg, lower[:n]))  # [D, -C]
        u_rows.append(tuple(map(_half, map(add, upper, moved))))
        s_rows.append(tuple(map(_half, map(sub, upper, moved))))
    u_rows += [tuple(map(neg, row[n:])) + row[:n] for row in u_rows]
    s_rows += [row[n:] + tuple(map(neg, row[:n])) for row in s_rows]
    return (
        RationalSkewMatrix(n=n, entries=tuple(u_rows)),
        RationalSkewMatrix(n=n, entries=tuple(s_rows)),
    )


def commutes_with_j0(m: RationalSkewMatrix) -> bool:
    """J0 M = M J0, that is C = -B and D = A."""
    n = m.n
    return all(
        lower[n:] == upper[:n] and all(map(eq, lower[:n], map(neg, upper[n:])))
        for upper, lower in zip(m.entries[:n], m.entries[n:])
    )


def anticommutes_with_j0(m: RationalSkewMatrix) -> bool:
    """J0 M = -M J0, that is C = B and D = -A."""
    n = m.n
    return all(
        lower[:n] == upper[n:] and all(map(eq, lower[n:], map(neg, upper[:n])))
        for upper, lower in zip(m.entries[:n], m.entries[n:])
    )


def trace_pairing(p: RationalSkewMatrix, q: RationalSkewMatrix):
    """The invariant pairing -tr(PQ) used on so(2n)."""
    dim = 2 * p.n
    return -sum(p.entries[a][b] * q.entries[b][a] for a in range(dim) for b in range(dim))


def canonical_j1(psi: RationalSkewMatrix, V: tuple) -> tuple:
    """One application of the canonical complex structure (psi, V) -> (J0 psi, -V J0).

    ``psi`` must anticommute with J0 (raise NotInSigma otherwise); the first
    output slot anticommutes again and applying the map twice negates both
    slots exactly.
    """
    if not anticommutes_with_j0(psi):
        raise NotInSigma("psi does not anticommute with J0")
    n = psi.n
    V = tuple(V)
    if len(V) != 2 * n:
        raise ValueError(f"V must have length {2 * n}")
    # J0 psi = [[-C, -D], [A, B]]: the lower rows negated, then the upper rows
    new_psi = RationalSkewMatrix(n=n, entries=_negated(psi.entries[n:]) + psi.entries[:n])
    # -V J0 : (V J0)_b = V_{b+n} for b < n, -(V_{b-n}) otherwise
    new_v = tuple(map(neg, V[n:])) + V[:n]
    return new_psi, new_v


def _alpha_of(m: tuple, n: int):
    return [[m[i][n + j] + m[n + i][j] for j in range(n)] for i in range(n)]


def _beta_of(m: tuple, n: int):
    return [[m[n + i][n + j] - m[i][j] for j in range(n)] for i in range(n)]


def check_wedge_identity(P: RationalSkewMatrix, Q: RationalSkewMatrix) -> CheckResult:
    """Exact equality of the two bilinear forms of the quadratic wedge identity.

    With P = w(X) and Q = w(Y) for a skew matrix of 1-forms w, the left side
    is sum_ij (w_ij ^ w_{j,i+n} + w_{i,j+n} ^ w_{j+n,i+n})(X, Y) and the right
    side is -1/2 sum_ij (alpha_ij ^ beta_ij)(X, Y); they are compared as
    2 lhs = -sum_ij (alpha_ij ^ beta_ij)(X, Y), without a division.
    """
    if P.n != Q.n:
        raise ValueError("matrices must share the same n")
    n = P.n
    p, q = P.entries, Q.entries
    lhs = 0
    for i in range(n):
        for j in range(n):
            lhs += (
                p[i][j] * q[j][i + n]
                - q[i][j] * p[j][i + n]
                + p[i][j + n] * q[j + n][i + n]
                - q[i][j + n] * p[j + n][i + n]
            )
    ap, bp = _alpha_of(p, n), _beta_of(p, n)
    aq, bq = _alpha_of(q, n), _beta_of(q, n)
    wedge_sum = 0
    for i in range(n):
        for j in range(n):
            wedge_sum += ap[i][j] * bq[i][j] - aq[i][j] * bp[i][j]
    if 2 * lhs != -wedge_sum:
        return CheckResult(False, f"lhs={lhs} rhs={_half(-wedge_sum)}")
    return CheckResult(True)


def run_algebra_sweep(n_list, samples: int, seed: int) -> dict:
    """Seeded randomized sweep of every exact check; returns per-check pass counts.

    The report carries the first counterexample encountered (if any) and,
    for each n >= 3, the sample with the largest case-1 ratio
    4 sum C^2 / sum d^2: its index and the ratio as an exact fraction.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    n_list = list(n_list)
    for n in n_list:
        if not 2 <= n <= MAX_N:
            raise ValueError(f"n must lie in [2, {MAX_N}], got {n}")
    # the rng seed depends only on (seed, n): a repeated n would replay its samples
    if len(set(n_list)) != len(n_list):
        raise ValueError(f"half-dimensions must be distinct, got {n_list}")
    report = {"seed": seed, "samples": samples, "n_list": n_list, "checks": {}, "failures": []}
    counts: dict = {}

    def record(name: str, ok: bool, detail: str | None, n: int, k: int):
        slot = counts.setdefault(name, {"pass": 0, "fail": 0})
        slot["pass" if ok else "fail"] += 1
        if not ok:
            report["failures"].append(
                {"check": name, "n": n, "sample": k, "detail": detail or ""}
            )

    worst_case1 = []
    for n in n_list:
        rng = random.Random(seed * 100003 + n)
        worst = None
        for k in range(samples):
            tensor = RationalCTensor.random(n, rng)
            if n >= 3:
                res = check_identity_c1(tensor)
                record("identity_c1", res.ok, res.counterexample, n, k)
                res, ratio = check_case1_inequality(tensor)
                if worst is None or ratio > worst[0]:
                    worst = ratio, k
                record("case1_inequality", res.ok, res.counterexample, n, k)
            else:
                res = check_case2_identities(tensor)
                record("case2_identities", res.ok, res.counterexample, n, k)

            skew = RationalSkewMatrix.random(n, rng)
            u_part, sigma_part = skew_decompose(skew)
            ok = (
                commutes_with_j0(u_part)
                and anticommutes_with_j0(sigma_part)
                and _mat_add(u_part.entries, sigma_part.entries) == skew.entries
                and trace_pairing(u_part, sigma_part) == 0
            )
            record("skew_decompose", ok, None if ok else "decomposition failed", n, k)

            V = tuple(_scaled_draws(rng, 2 * n))
            psi = sigma_part
            try:
                psi1, v1 = canonical_j1(psi, V)
                psi2, v2 = canonical_j1(psi1, v1)
            except NotInSigma as exc:  # a broken split hands J1 a psi outside sigma
                record("canonical_j1_square", False, str(exc), n, k)
            else:
                ok = (
                    anticommutes_with_j0(psi1)
                    and psi2.entries == _negated(psi.entries)
                    and v2 == tuple(map(neg, V))
                )
                record("canonical_j1_square", ok, None if ok else "J1^2 != -Id", n, k)

            Q = RationalSkewMatrix.random(n, rng)
            res = check_wedge_identity(skew, Q)
            record("wedge_identity", res.ok, res.counterexample, n, k)
        if worst is not None:
            worst_case1.append({"n": n, "sample": worst[1], "ratio": str(worst[0])})
    report["checks"] = counts
    report["worst_case1"] = worst_case1
    report["all_pass"] = not report["failures"]
    return report
