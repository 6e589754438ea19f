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
and inequality exactly, and the worst per-triple ratio is scale-free.

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
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import NotInSigma

MAX_N = 6  # exhaustive index loops stay cheap up to here

NUMERATOR_RANGE = 10**6
DENOMINATOR_RANGE = 10**3


@dataclass(frozen=True)
class CheckResult:
    """Boolean verdict plus a serialized counterexample when it fails."""

    ok: bool
    counterexample: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def random_fraction(rng: random.Random) -> tuple:
    """One random rational as its (numerator, denominator) pair.

    The numerator lies in [-10^6, 10^6] and the denominator in [1, 10^3].
    """
    return rng.randint(-NUMERATOR_RANGE, NUMERATOR_RANGE), rng.randint(1, DENOMINATOR_RANGE)


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


def _zero_cube(n: int) -> list:
    return [[[0] * n for _ in range(n)] for _ in range(n)]


def _freeze_cube(c: list) -> tuple:
    return tuple(tuple(tuple(row) for row in plane) for plane in c)


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
        cubes = []
        for _ in range(2):
            values = iter(_scaled_draws(rng, n * n * (n - 1) // 2))
            cube = _zero_cube(n)
            for i in range(n):
                for j in range(n):
                    for k in range(j + 1, n):
                        v = next(values)
                        cube[i][j][k] = v
                        cube[i][k][j] = -v
            cubes.append(_freeze_cube(cube))
        return cls(n=n, C=cubes[0], Cp=cubes[1])


def d_from_c(t: RationalCTensor) -> tuple:
    """Exact d_ijk = C_ijk - C_jik and its primed companion."""
    n = t.n
    d = _freeze_cube(
        [[[t.C[i][j][k] - t.C[j][i][k] for k in range(n)] for j in range(n)] for i in range(n)]
    )
    dp = _freeze_cube(
        [[[t.Cp[i][j][k] - t.Cp[j][i][k] for k in range(n)] for j in range(n)] for i in range(n)]
    )
    return d, dp


def check_identity_c1(t: RationalCTensor) -> CheckResult:
    """2 C_ijk = d_ijk - d_jki + d_kij, exactly, for all triples, C and C'."""
    d, dp = d_from_c(t)
    n = t.n
    for name, c, dd in (("C", t.C, d), ("C'", t.Cp, dp)):
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if 2 * c[i][j][k] != dd[i][j][k] - dd[j][k][i] + dd[k][i][j]:
                        return CheckResult(
                            False, f"{name} triple (i,j,k)=({i + 1},{j + 1},{k + 1})"
                        )
    return CheckResult(True)


def check_case1_inequality(t: RationalCTensor) -> tuple:
    """Per-triple expansion equality, the <= 5 bound, and the aggregate 5/4 bound.

    Returns (CheckResult, worst_ratio) with worst_ratio the maximum over
    triples of 4 (C_ijk^2 + C_jki^2 + C_kij^2) / (d_ijk^2 + d_jki^2 + d_kij^2),
    zero if no triple has a nonzero denominator.

    Both sides of the per-triple statement are invariant under cyclic rotation
    of (i, j, k), so each rotation orbit is checked once through its
    lexicographically smallest representative; that still certifies the
    statement for every triple.
    """
    d, dp = d_from_c(t)
    n = t.n
    # worst ratio kept as a (numerator, denominator) pair, compared by cross-multiplying
    worst_num, worst_den = 0, 1

    def result(failure: str | None = None) -> tuple:
        return CheckResult(failure is None, failure), Fraction(worst_num, worst_den)

    for name, c, dd in (("C", t.C, d), ("C'", t.Cp, dp)):
        total_c2 = sum(x * x for plane in c for row in plane for x in row)
        total_d2 = sum(x * x for plane in dd for row in plane for x in row)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if (j, k, i) < (i, j, k) or (k, i, j) < (i, j, k):
                        continue
                    x, y, z = dd[i][j][k], dd[j][k][i], dd[k][i][j]
                    s3 = x * x + y * y + z * z
                    lhs = 4 * (c[i][j][k] ** 2 + c[j][k][i] ** 2 + c[k][i][j] ** 2)
                    expansion = 3 * s3 - 2 * (x * y + x * z + y * z)
                    if lhs != expansion:
                        return result(f"{name} expansion equality at ({i + 1},{j + 1},{k + 1})")
                    if lhs > 5 * s3:
                        return result(f"{name} 5-bound at ({i + 1},{j + 1},{k + 1})")
                    if s3 > 0 and lhs * worst_den > worst_num * s3:
                        worst_num, worst_den = lhs, s3
        if 4 * total_c2 > 5 * total_d2:
            return result(f"aggregate 5/4 bound for {name}")
    return result()


def check_case2_identities(t: RationalCTensor) -> CheckResult:
    """The n = 2 equalities sum C^2 = 2 (d_121^2 + d_212^2) = sum d^2, both tensors."""
    if t.n != 2:
        raise ValueError("case-2 identities are specific to n = 2")
    d, dp = d_from_c(t)
    for name, c, dd in (("C", t.C, d), ("C'", t.Cp, dp)):
        sum_c2 = sum(c[i][j][k] ** 2 for i in range(2) for j in range(2) for k in range(2))
        sum_d2 = sum(dd[i][j][k] ** 2 for i in range(2) for j in range(2) for k in range(2))
        middle = 2 * (dd[0][1][0] ** 2 + dd[1][0][1] ** 2)
        if not (sum_c2 == middle == sum_d2):
            return CheckResult(
                False, f"{name}: sum C^2={sum_c2}, 2(d121^2+d212^2)={middle}, sum d^2={sum_d2}"
            )
    return CheckResult(True)


# --- exact skew-matrix algebra -------------------------------------------------

@dataclass(frozen=True)
class RationalSkewMatrix:
    """Skew 2n x 2n matrix over exact rationals.

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
        values = iter(_scaled_draws(rng, dim * (dim - 1) // 2, factor=2))
        m = [[0] * dim for _ in range(dim)]
        for a in range(dim):
            for b in range(a + 1, dim):
                v = next(values)
                m[a][b] = v
                m[b][a] = -v
        return cls(n=n, entries=tuple(tuple(r) for r in m))

    @classmethod
    def from_rows(cls, n: int, rows) -> "RationalSkewMatrix":
        return cls(n=n, entries=tuple(tuple(Fraction(x) for x in row) for row in rows))


def _j0_left(m: tuple, n: int) -> tuple:
    """J0 M computed by block moves: (J0 M) = [[-M_lower], [M_upper]]."""
    lower = tuple(tuple(-x for x in m[n + i]) for i in range(n))
    upper = tuple(m[i] for i in range(n))
    return lower + upper


def _j0_right(m: tuple, n: int) -> tuple:
    """M J0 by column moves: each row becomes (right half, -(left half))."""
    return tuple(row[n:] + tuple(-x for x in row[:n]) for row in m)


def _mat_add(x: tuple, y: tuple) -> tuple:
    return tuple(tuple(xa + ya for xa, ya in zip(xr, yr)) for xr, yr in zip(x, y))


def _mat_half_sum(x: tuple, y: tuple, sign: int) -> tuple:
    """(x + sign * y) / 2, entry by entry, exactly."""
    return tuple(
        tuple(_half(xa + sign * ya) for xa, ya in zip(xr, yr)) for xr, yr in zip(x, y)
    )


def skew_decompose(omega: RationalSkewMatrix) -> tuple:
    """Exact splitting of a skew matrix into its J0-commuting and anticommuting parts.

    Returns (u_part, sigma_part) with
    u_part = (omega - J0 omega J0)/2 and sigma_part = (omega + J0 omega J0)/2.
    """
    n = omega.n
    conj = _j0_right(_j0_left(omega.entries, n), n)  # J0 omega J0
    u_part = _mat_half_sum(omega.entries, conj, -1)
    sigma_part = _mat_half_sum(omega.entries, conj, 1)
    return (
        RationalSkewMatrix(n=n, entries=u_part),
        RationalSkewMatrix(n=n, entries=sigma_part),
    )


def commutes_with_j0(m: RationalSkewMatrix) -> bool:
    return _j0_left(m.entries, m.n) == _j0_right(m.entries, m.n)


def anticommutes_with_j0(m: RationalSkewMatrix) -> bool:
    left = _j0_left(m.entries, m.n)
    right = _j0_right(m.entries, m.n)
    return all(x == -y for lrow, rrow in zip(left, right) for x, y in zip(lrow, rrow))


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
    new_psi = RationalSkewMatrix(n=n, entries=_j0_left(psi.entries, n))
    # -V J0 : (V J0)_b = V_{b+n} for b < n, -(V_{b-n}) otherwise
    new_v = tuple(-V[n + b] for b in range(n)) + tuple(V[b] for b in range(n))
    return new_psi, new_v


def random_sigma_matrix(n: int, rng: random.Random) -> RationalSkewMatrix:
    """Random skew matrix anticommuting with J0 (the sigma part of a random skew)."""
    _, sigma = skew_decompose(RationalSkewMatrix.random(n, rng))
    return sigma


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

    The report carries the first counterexample encountered (if any) and the
    largest per-triple ratio observed in the quadratic expansion bound.
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

    worst_ratio = Fraction(0)
    for n in n_list:
        rng = random.Random(seed * 100003 + n)
        for k in range(samples):
            tensor = RationalCTensor.random(n, rng)
            if n >= 3:
                res = check_identity_c1(tensor)
                record("identity_c1", res.ok, res.counterexample, n, k)
                res, ratio = check_case1_inequality(tensor)
                worst_ratio = max(worst_ratio, ratio)
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
            psi1, v1 = canonical_j1(psi, V)
            psi2, v2 = canonical_j1(psi1, v1)
            ok = (
                anticommutes_with_j0(psi1)
                and all(
                    psi2.entries[a][b] == -psi.entries[a][b]
                    for a in range(2 * n)
                    for b in range(2 * n)
                )
                and v2 == tuple(-x for x in V)
            )
            record("canonical_j1_square", ok, None if ok else "J1^2 != -Id", n, k)

            Q = RationalSkewMatrix.random(n, rng)
            res = check_wedge_identity(skew, Q)
            record("wedge_identity", res.ok, res.counterexample, n, k)
    report["checks"] = counts
    report["max_case1_ratio"] = str(worst_ratio)
    report["all_pass"] = not report["failures"]
    return report
