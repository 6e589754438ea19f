"""Exact verification of the pointwise identities behind the bound chain.

Everything here runs in exact arithmetic with no tolerances: a single failed
check is a transcription bug in the inequality chain, not numerical noise.  The
objects are free algebraic models -- coefficient tensors with the right
antisymmetries and skew matrices -- so no manifold is involved.

Every object is a batch: an int64 array holds its entries with leading axes
over samples, and a single object is a batch of shape ().  A constructor takes
integers in [-INT64_BOUND, INT64_BOUND], within which no sum a check forms
leaves int64 (see INT64_BOUND), and refuses anything else -- floats, bools,
rationals, larger ints -- with a ValueError.  Every checked statement is
homogeneous of degree 1 or 2 in the entries of one object, and the wedge
identity is bilinear in its two matrices, so scaling an object by a positive
factor preserves every equality and inequality and the case-1 ratio
4 sum C^2 / sum d^2: an integer object stands for each of its rational
multiples.  The case-1 ratios come back as int64 numerators and denominators;
the sweep compares them, the one product of degree 4, on Python ints.

The sweep draws its samples in chunks, one sample after another.  A sample at
half dimension n draws n^3 + 3 n^2 entries, and a chunk holds as many samples
as CHUNK_DRAWS of them allow: 691, 256, 123, 69 and 42 at n = 2, ..., 6.  A
chunk takes all its entries from one getrandbits call, 64 bits per entry, so a
report does not depend on the chunk size.  It sends each chunk once through
each check, the coefficient tensor's checks first and the matrices' checks once
the tensor is gone.  A skew matrix's draws are doubled, so its halves are
integers too.

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
from functools import cache, cached_property
from itertools import product

import numpy as np

from .errors import NotInSigma

MAX_N = 6  # exhaustive index loops stay cheap up to here
CHUNK_DRAWS = 13824  # entries the sweep draws and checks as one batch: 256 samples at n = 3
ENTRY_RANGE = 10**6  # a drawn entry lies in [-ENTRY_RANGE, ENTRY_RANGE]
# Every entry lies in [-INT64_BOUND, INT64_BOUND] (a drawn skew matrix is
# doubled, so this is 2 ENTRY_RANGE), and objects are held as int64.  With n <=
# MAX_N and |entry| <= B, every sum and product a check forms stays exact: d is
# at most 2B, a per-triple sum 60 B^2, and the largest, the case-1 aggregate
# 5 sum d^2 over n^3 triples, at most 5 MAX_N^3 (2B)^2 = 4320 B^2 = 1.7e16 at
# B = 2e6, about 530 times below 2^63 = 9.2e18.  The wedge sums reach 288 B^2
# and -tr(PQ) 144 B^2.  Only the case-1 ratio's cross-multiplication is of
# degree 4, and the sweep runs it on Python ints.
INT64_BOUND = 2 * ENTRY_RANGE

_CUBE_NAMES = ("C", "C'")
_OUTSIDE_SIGMA = "psi does not anticommute with J0"


@dataclass(frozen=True)
class CheckResult:
    """Verdict plus a serialized counterexample when it fails.  For a batch both
    are arrays over the samples, and the result is truthy when every sample passes."""

    ok: bool
    counterexample: str | None = None

    def __bool__(self) -> bool:
        return bool(np.all(self.ok))


def _result(bad, describe) -> CheckResult:
    """CheckResult of samples failing where ``bad`` is set, with ``describe(index)`` text."""
    if np.ndim(bad) == 0:
        return CheckResult(not bad, describe(()) if bad else None)
    texts = np.empty(bad.shape, object)  # None until a failing sample's text
    for index in zip(*np.nonzero(bad)):
        texts[index] = describe(index)
    return CheckResult(~bad, texts)


def random_fraction(rng: random.Random) -> tuple:
    """One random rational as its (numerator, denominator) pair of Python ints: one draw over 1."""
    return int(_draw_ints(rng, 1)[0]), 1


def _draw_ints(rng: random.Random, count: int) -> np.ndarray:
    """``count`` successive int entries in [-ENTRY_RANGE, ENTRY_RANGE], as an int64 array.

    Each entry is the next 64-bit word of getrandbits modulo 2 ENTRY_RANGE + 1,
    so it equals ``rng.getrandbits(64) % (2 * ENTRY_RANGE + 1) - ENTRY_RANGE``
    (a bias below 2e-13) and any split of a draw gives the same entries.
    """
    words = np.frombuffer(rng.getrandbits(64 * count).to_bytes(8 * count, "little"), "<u8")
    return (words % np.uint64(2 * ENTRY_RANGE + 1)).astype(np.int64) - np.int64(ENTRY_RANGE)


def _exact(x) -> np.ndarray:
    """A new int64 array of the entries of ``x``, an integer array (or nested
    ints) with every entry in [-INT64_BOUND, INT64_BOUND]; ValueError otherwise."""
    a = np.asarray(x)
    # both ends compared: np.abs(INT64_MIN) is negative
    if np.issubdtype(a.dtype, np.integer) and ((a >= -INT64_BOUND) & (a <= INT64_BOUND)).all():
        return a.astype(np.int64)
    raise ValueError(f"entries must be integers of magnitude at most INT64_BOUND = {INT64_BOUND}")


def _halves(x: np.ndarray) -> np.ndarray:
    """x / 2 entrywise, of an array of even integers; an odd entry raises ValueError."""
    if (x & 1).any():
        raise ValueError("skew_decompose takes even entries: a half would not be an integer")
    return x >> 1


def _ratio_text(p: int, q: int) -> str:
    """p / q (q > 0) in lowest terms as the fractions module writes it: "p/q", or "p" if q = 1."""
    g = math.gcd(p, q)
    return str(p // g) if g == q else f"{p // g}/{q // g}"


def _total(x: np.ndarray, axis) -> np.ndarray:
    """Exact sum over ``axis``, as an array of ``x``'s dtype (0-d for one sample)."""
    return np.asarray(x.sum(axis), dtype=x.dtype)


def _pair(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    return np.concatenate((left, right), axis=-1)


def _skew_entries(x, shape: tuple, message: str) -> tuple:
    """Integer entries as a read-only int64 array (see ``_exact``) ending in axes
    ``shape``, and the first index (b >= a) where its last two axes are not skew.

    Skewness is a_ab + a_ba = 0 on the upper triangle with its diagonal, one
    exact sum per entry pair; only a broken array is searched for the index.
    """
    a = _exact(x)
    a.flags.writeable = False
    if a.shape[a.ndim - len(shape):] != shape:
        raise ValueError(message)
    i, j = _upper_triangle(shape[-1])
    sums = a[..., i, j] + a[..., j, i]
    if not sums.any():
        return a, None
    *batch, k = np.argwhere(sums)[0].tolist()  # the triangle runs row by row
    return a, [*batch, int(i[k]), int(j[k])]


@cache
def _upper_triangle(dim: int) -> tuple:
    """Row and column indices of the upper triangle of a dim x dim matrix, diagonal included."""
    indices = np.triu_indices(dim)
    for x in indices:
        x.flags.writeable = False  # cached: every caller shares them
    return indices


@cache
def _skew_layout(dim: int, planes: int) -> np.ndarray:
    """Index array that lays out ``planes`` skew dim x dim matrices from ``(0,
    *values, *-values)``, each strict upper triangle row by row from the next values."""
    count = planes * dim * (dim - 1) // 2
    a, b = np.triu_indices(dim, 1)
    slots = np.arange(1, count + 1).reshape(planes, -1)
    layout = np.zeros((planes, dim, dim), dtype=np.intp)
    layout[:, a, b], layout[:, b, a] = slots, slots + count
    layout.flags.writeable = False  # cached: every caller shares it
    return layout


def _skew_planes(values: np.ndarray, dim: int, planes: int) -> np.ndarray:
    """``planes`` skew dim x dim matrices per sample, upper triangles from ``values``."""
    zero = np.zeros(values.shape[:-1] + (1,), dtype=values.dtype)
    return np.concatenate((zero, values, -values), axis=-1)[..., _skew_layout(dim, planes)]


def _check_n(n: int, low: int) -> None:
    if not low <= n <= MAX_N:
        raise ValueError(f"n must lie in [{low}, {MAX_N}]")


def _triple(i: int, j: int, k: int) -> str:
    return f"({i + 1},{j + 1},{k + 1})"


@cache
def _orbits(n: int) -> tuple:
    """The lexicographically smallest triple of each cyclic-rotation orbit, in
    (i, j, k) order, and a (3, orbits) array with the flat indices of their
    (i, j, k), (j, k, i) and (k, i, j)."""
    triples = [t for t in product(range(n), repeat=3) if t <= t[1:] + t[:1] and t <= t[2:] + t[:2]]
    flat = np.array(
        [[np.ravel_multi_index(t[s:] + t[:s], (n,) * 3) for t in triples] for s in range(3)]
    )
    flat.flags.writeable = False  # cached: every caller shares it
    return tuple(triples), flat


class RationalCTensor:
    """Free algebraic model of the C / C' coefficient tensors.

    ``C`` and ``Cp`` are int64 arrays of shape batch + (n, n, n),
    antisymmetric in the last two indices; the constructor takes integer arrays
    or nested sequences of ints within INT64_BOUND and refuses anything else.
    ``random`` draws each cube's upper triangles.
    """

    def __init__(self, n: int, C, Cp):
        _check_n(n, 2)
        cubes = []
        for name, cube in (("C", C), ("Cp", Cp)):
            t, broken = _skew_entries(cube, (n, n, n), f"{name} must be an n x n x n nested tuple")
            if broken:
                index = "".join(f"[{x}]" for x in broken)
                raise ValueError(f"{name}{index} breaks antisymmetry in the last two indices")
            cubes.append(t)
        self.n, self.cubes = n, np.stack(cubes, axis=-4)  # C, C' on the axis before their three
        self.cubes.flags.writeable = False
        self.C, self.Cp = self.cubes[..., 0, :, :, :], self.cubes[..., 1, :, :, :]

    @classmethod
    def random(cls, n: int, rng: random.Random) -> "RationalCTensor":
        _check_n(n, 2)  # before the draw: a refused call leaves the rng as it was
        return cls._of_draws(n, _draw_ints(rng, n * n * (n - 1)))

    @classmethod
    def _of_draws(cls, n: int, draws: np.ndarray) -> "RationalCTensor":
        """Tensors of drawn entries: C from the first half, C' from the second."""
        planes = _skew_planes(draws, n, 2 * n)
        return cls(n, planes[..., :n, :, :], planes[..., n:, :, :])

    @cached_property
    def d(self) -> np.ndarray:
        """d_ijk = C_ijk - C_jik of both cubes, laid out like ``cubes``; built on
        first use and kept, so every check of one tensor reads the same d and d'."""
        return self.cubes - self.cubes.swapaxes(-3, -2)


def _flat(t: RationalCTensor) -> tuple:
    """``cubes`` and ``d`` of a tensor with each cube flattened in (i, j, k) order."""
    return tuple(x.reshape(x.shape[:-3] + (-1,)) for x in (t.cubes, t.d))


def check_identity_c1(t: RationalCTensor) -> CheckResult:
    """2 C_ijk = d_ijk - d_jki + d_kij, exactly, for all triples, C and C'."""
    c, d = t.cubes, t.d
    rhs = d - np.moveaxis(d, -1, -3) + np.moveaxis(d, -3, -1)
    wrong = (c + c != rhs).reshape(c.shape[:-4] + (-1,))  # C's triples, then C''s

    def describe(s):
        cube, flat = divmod(int(np.argmax(wrong[s])), t.n**3)
        return f"{_CUBE_NAMES[cube]} triple (i,j,k)={_triple(*np.unravel_index(flat, (t.n,) * 3))}"

    return _result(wrong.any(-1), describe)


def check_case1_inequality(t: RationalCTensor) -> tuple:
    """Per-triple expansion equality, the <= 5 bound, and the aggregate 5/4 bound.

    Returns (CheckResult, top, bottom): int64 arrays of shape batch + (2,) with
    each cube's aggregate ratio 4 sum C^2 / sum d^2 = top / bottom, C before C'.
    A counted ratio lies in [1, 4]; a cube is not counted, 0 / 1, where its d
    vanishes or it or C fails.  C is checked before C', each through its
    triples and then its aggregate.

    Both sides of the per-triple statement are invariant under cyclic rotation
    of (i, j, k), so each rotation orbit is checked once through its
    lexicographically smallest representative; that still certifies the
    statement for every triple.
    """
    triples, orbit = _orbits(t.n)
    c, d = _flat(t)
    c2, d2 = c * c, d * d
    x, y, z = (d[..., o] for o in orbit)
    s3 = _total(d2[..., orbit], -2)
    lhs = 4 * _total(c2[..., orbit], -2)
    off = lhs != 3 * s3 - 2 * (x * y + x * z + y * z)
    over = lhs > 5 * s3
    total, total_d2 = 4 * _total(c2, -1), _total(d2, -1)
    bad = (off | over).any(-1) | (total > 5 * total_d2)  # per sample and cube
    passed = np.logical_and.accumulate(~bad, axis=-1)
    counted = passed & (total_d2 > 0)
    top, bottom = np.where(counted, total, 0), np.where(counted, total_d2, 1)

    def describe(s):
        m = int(np.argmax(bad[s]))
        wrong = off[s][m] | over[s][m]
        if not wrong.any():
            return f"aggregate 5/4 bound for {_CUBE_NAMES[m]}"
        o = int(np.argmax(wrong))
        kind = "expansion equality" if off[s][m][o] else "5-bound"
        return f"{_CUBE_NAMES[m]} {kind} at {_triple(*triples[o])}"

    return _result(~passed[..., -1], describe), top, bottom


def check_case2_identities(t: RationalCTensor) -> CheckResult:
    """The n = 2 equalities sum C^2 = 2 (d_121^2 + d_212^2) = sum d^2, both tensors."""
    if t.n != 2:
        raise ValueError("case-2 identities are specific to n = 2")
    c, d = _flat(t)
    sum_c2, sum_d2 = _total(c * c, -1), _total(d * d, -1)
    middle = 2 * (d[..., 2] ** 2 + d[..., 5] ** 2)  # flat (i, j, k) = (0, 1, 0) and (1, 0, 1)
    bad = (sum_c2 != middle) | (middle != sum_d2)

    def describe(s):
        m = int(np.argmax(bad[s]))
        sums = f"sum C^2={sum_c2[s][m]}, 2(d121^2+d212^2)={middle[s][m]}, sum d^2={sum_d2[s][m]}"
        return f"{_CUBE_NAMES[m]}: {sums}"

    return _result(bad.any(-1), describe)


# --- exact skew-matrix algebra -------------------------------------------------

class RationalSkewMatrix:
    """Skew 2n x 2n integer matrices, 1 <= n <= MAX_N, from integers within INT64_BOUND.

    ``array`` is int64 of shape batch + (2n, 2n); ``entries`` reads it as
    tuples of rows.  ``random`` draws entries and doubles them, so the halves
    that ``skew_decompose`` takes stay integers.
    """

    def __init__(self, n: int, entries):
        _check_n(n, 1)
        dim = 2 * n
        m, broken = _skew_entries(entries, (dim, dim), f"entries must be {dim} x {dim}")
        if broken:
            raise ValueError(f"entry {tuple(broken)} breaks skew symmetry")
        self.n, self.array = n, m

    @cached_property
    def entries(self) -> tuple:
        def rows(x):
            return tuple(map(rows, x)) if isinstance(x, list) else x

        return rows(self.array.tolist())

    @classmethod
    def random(cls, n: int, rng: random.Random) -> "RationalSkewMatrix":
        _check_n(n, 1)  # before the draw: a refused call leaves the rng as it was
        return cls._of_draws(n, _draw_ints(rng, n * (2 * n - 1)))

    @classmethod
    def _of_draws(cls, n: int, draws: np.ndarray) -> "RationalSkewMatrix":
        """The skew matrices of drawn upper triangles, doubled so their halves stay ints."""
        return cls(n, _skew_planes(2 * draws, 2 * n, 1)[..., 0, :, :])


def _blocks(m: RationalSkewMatrix) -> tuple:
    """The n x n blocks A, B, C, D of M = [[A, B], [C, D]]."""
    n, a = m.n, m.array
    return a[..., :n, :n], a[..., :n, n:], a[..., n:, :n], a[..., n:, n:]


def skew_decompose(omega: RationalSkewMatrix) -> tuple:
    """Exact splitting of a skew matrix into its J0-commuting and anticommuting parts.

    Returns (u_part, sigma_part) with
    u_part = (omega - J0 omega J0)/2 and sigma_part = (omega + J0 omega J0)/2.
    With J0 omega J0 = [[-D, C], [B, -A]] the upper rows are
    [(A + D)/2, (B - C)/2] and [(A - D)/2, (B + C)/2]; the lower rows follow
    from the upper ones, [-(B - C)/2, (A + D)/2] and [(B + C)/2, -(A - D)/2].
    The halves must be integers: an omega with even entries always passes, and
    an odd entry of A + D, A - D, B - C or B + C raises ValueError.
    """
    n = omega.n
    A, B, C, D = _blocks(omega)
    upper, moved = _pair(A, B), _pair(D, -C)
    u, s = _halves(upper + moved), _halves(upper - moved)
    u_rows = np.concatenate((u, _pair(-u[..., n:], u[..., :n])), axis=-2)
    s_rows = np.concatenate((s, _pair(s[..., n:], -s[..., :n])), axis=-2)
    return RationalSkewMatrix(n, u_rows), RationalSkewMatrix(n, s_rows)


def commutes_with_j0(m: RationalSkewMatrix):
    """J0 M = M J0, that is C = -B and D = A; one verdict per sample."""
    A, B, C, D = _blocks(m)
    return ((C == -B) & (D == A)).all((-2, -1))


def anticommutes_with_j0(m: RationalSkewMatrix):
    """J0 M = -M J0, that is C = B and D = -A; one verdict per sample."""
    A, B, C, D = _blocks(m)
    return ((C == B) & (D == -A)).all((-2, -1))


def trace_pairing(p: RationalSkewMatrix, q: RationalSkewMatrix):
    """The invariant pairing -tr(PQ) used on so(2n)."""
    return -_total(p.array * q.array.swapaxes(-1, -2), (-2, -1))[()]


def canonical_j1(psi: RationalSkewMatrix, V) -> tuple:
    """One application of the canonical complex structure (psi, V) -> (J0 psi, -V J0).

    ``psi`` must anticommute with J0 in every sample (raise NotInSigma
    otherwise); the first output slot anticommutes again and applying the map
    twice negates both slots exactly.  One V comes back as a tuple.
    """
    if not np.all(anticommutes_with_j0(psi)):
        raise NotInSigma(_OUTSIDE_SIGMA)
    n, a = psi.n, psi.array
    V = _exact(V)
    if V.shape[-1:] != (2 * n,):
        raise ValueError(f"V must have length {2 * n}")
    # J0 psi = [[-C, -D], [A, B]]: the lower rows negated, then the upper rows
    new_psi = RationalSkewMatrix(n, np.concatenate((-a[..., n:, :], a[..., :n, :]), axis=-2))
    # -V J0 : (V J0)_b = V_{b+n} for b < n, -(V_{b-n}) otherwise
    new_v = _pair(-V[..., n:], V[..., :n])
    return new_psi, (tuple(new_v.tolist()) if new_v.ndim == 1 else new_v)


def _alpha_of(m: np.ndarray, n: int) -> np.ndarray:
    return m[..., :n, n:] + m[..., n:, :n]


def _beta_of(m: np.ndarray, n: int) -> np.ndarray:
    return m[..., n:, n:] - m[..., :n, :n]


def check_wedge_identity(P: RationalSkewMatrix, Q: RationalSkewMatrix) -> CheckResult:
    """Exact equality of the two bilinear forms of the quadratic wedge identity.

    With P = w(X) and Q = w(Y) for a skew matrix of 1-forms w, the left side
    is sum_ij (w_ij ^ w_{j,i+n} + w_{i,j+n} ^ w_{j+n,i+n})(X, Y) and the right
    side is -1/2 sum_ij (alpha_ij ^ beta_ij)(X, Y); they are compared as
    2 lhs = -sum_ij (alpha_ij ^ beta_ij)(X, Y), without a division.  On the
    left, sum_{i<n} sum_c P_ic Q_{c,i+n} joins the two terms with P first.
    """
    if P.n != Q.n:
        raise ValueError("matrices must share the same n")
    n, p, q = P.n, P.array, Q.array
    pq, qp = (x[..., :n, :] * y[..., n:].swapaxes(-1, -2) for x, y in ((p, q), (q, p)))
    (ap, bp), (aq, bq) = ((_alpha_of(m, n), _beta_of(m, n)) for m in (p, q))
    lhs, wedge = _total(pq - qp, (-2, -1)), _total(ap * bq - aq * bp, (-2, -1))
    return _result(2 * lhs != -wedge, lambda s: f"lhs={lhs[s]} rhs={_ratio_text(-int(wedge[s]), 2)}")


def run_algebra_sweep(n_list, samples: int, seed: int) -> dict:
    """Seeded randomized sweep of every exact check; returns per-check pass counts.

    The report carries every counterexample, by sample and then by check,
    and, for each n >= 3, the first sample with the largest case-1 ratio
    4 sum C^2 / sum d^2 of either cube: its index and the ratio as an exact fraction.
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
    worst_case1 = []
    for n in n_list:
        rng = random.Random(seed * 100003 + n)
        worst = (-1, 1, 0)  # top, bottom and sample of the largest ratio so far
        # per sample, the draws of C and C', the skew matrix, V, then Q
        ends = np.cumsum((n * n * (n - 1), n * (2 * n - 1), 2 * n, n * (2 * n - 1)))
        chunk = max(1, CHUNK_DRAWS // int(ends[-1]))
        for start in range(0, samples, chunk):
            size = min(chunk, samples - start)
            draws = _draw_ints(rng, size * ends[-1]).reshape(size, ends[-1])
            cubes, skew, V, Q = np.split(draws, ends[:-1], axis=1)
            tensor, results = RationalCTensor._of_draws(n, cubes), []
            if n >= 3:
                results.append(("identity_c1", check_identity_c1(tensor)))
                res, top, bottom = check_case1_inequality(tensor)
                # on Python ints: the cross-multiplication is of degree 4 in the entries
                for k, pairs in enumerate(zip(top.tolist(), bottom.tolist())):
                    for p, q in zip(*pairs):
                        if p * worst[1] > worst[0] * q:
                            worst = p, q, start + k
                results.append(("case1_inequality", res))
            else:
                results.append(("case2_identities", check_case2_identities(tensor)))
            del tensor  # with its cached d, before the matrices are built: one kind alive at a time
            skew, Q = (RationalSkewMatrix._of_draws(n, x) for x in (skew, Q))
            u_part, sigma_part = skew_decompose(skew)
            inside = anticommutes_with_j0(sigma_part)
            ok = commutes_with_j0(u_part) & inside
            ok &= (u_part.array + sigma_part.array == skew.array).all((-2, -1))
            ok &= trace_pairing(u_part, sigma_part) == 0
            results.append(("skew_decompose", _result(~ok, lambda s: "decomposition failed")))
            # J1 rejects a batch with any psi outside sigma: such samples run on psi = 0
            psi = sigma_part
            if not inside.all():
                psi = RationalSkewMatrix(n, np.where(inside[:, None, None], psi.array, 0))
            psi1, v1 = canonical_j1(psi, V)
            psi2, v2 = canonical_j1(psi1, v1)
            ok = inside & anticommutes_with_j0(psi1) & (v2 == -V).all(-1)
            ok &= (psi2.array == -psi.array).all((-2, -1))
            j1_text = ("J1^2 != -Id", _OUTSIDE_SIGMA)
            results.append(("canonical_j1_square", _result(~ok, lambda s: j1_text[not inside[s]])))
            results.append(("wedge_identity", check_wedge_identity(skew, Q)))
            for name, res in results:
                passes = int(np.count_nonzero(res.ok))
                slot = counts.setdefault(name, {"pass": 0, "fail": 0})
                slot["pass"], slot["fail"] = slot["pass"] + passes, slot["fail"] + size - passes
            if not all(res for _, res in results):
                report["failures"] += [
                    {"check": name, "n": n, "sample": start + k,
                     "detail": res.counterexample[k] or ""}
                    for k in range(size)
                    for name, res in results
                    if not res.ok[k]
                ]
        if n >= 3:
            worst_case1.append({"n": n, "sample": worst[2], "ratio": _ratio_text(*worst[:2])})
    report["checks"] = counts
    report["worst_case1"] = worst_case1
    report["all_pass"] = not report["failures"]
    return report
