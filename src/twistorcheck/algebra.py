"""Exact verification of the pointwise identities behind the bound chain.

Everything here runs in exact arithmetic with no tolerances: a single failed
check is a transcription bug in the inequality chain, not numerical noise.  The
objects are free algebraic models -- coefficient tensors with the right
antisymmetries and skew matrices -- so no manifold is involved.

Every object is a batch: a numpy ``dtype=object`` array holds its exact
rational entries (``int`` or ``fractions.Fraction``) with leading axes over
samples, and a single object is a batch of shape ().  numpy runs the loops and
Python's exact arithmetic each entry operation, so no float is ever formed.  The
sweep draws ALGEBRA_CHUNK samples at a time, one sample after another: it takes
blocks of 32-bit words from getrandbits and numpy parses them as randint's
rejection loops would, so the values and the rng state afterwards are those of
one randint pair per rational.  It sends each chunk once through each check and
hands the checks Python ints: each sampled object (the C cube, the C' cube, a
skew matrix, V) is multiplied by the lcm of its denominators.  Every checked
statement is homogeneous of degree 1 or 2 in the entries of one object, and the
wedge identity is bilinear in its two matrices, so scaling an object by a
positive factor preserves every equality and inequality exactly, and the case-1
ratio 4 sum C^2 / sum d^2 is scale-free.

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

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import product

import numpy as np

from .errors import NotInSigma

MAX_N = 6  # exhaustive index loops stay cheap up to here
ALGEBRA_CHUNK = 32  # samples the sweep draws and checks as one batch

NUMERATOR_RANGE = 10**6
DENOMINATOR_RANGE = 10**3

# random.Random.randint(a, b) draws getrandbits(k) until the value is below the
# width b - a + 1, with k = width.bit_length(), and getrandbits(k) with k <= 32
# is the next 32-bit word shifted right by 32 - k.  So a numerator accepts a
# word below _NUMERATOR_CUT, a denominator one below _DENOMINATOR_CUT (the
# larger cut), and getrandbits(32 * k) returns the next k words, least
# significant first: _draw_pairs parses blocks of words the way randint would.
_NUMERATOR_WIDTH = 2 * NUMERATOR_RANGE + 1
_NUMERATOR_SHIFT = 32 - _NUMERATOR_WIDTH.bit_length()
_DENOMINATOR_SHIFT = 32 - DENOMINATOR_RANGE.bit_length()
_NUMERATOR_CUT = _NUMERATOR_WIDTH << _NUMERATOR_SHIFT
_DENOMINATOR_CUT = DENOMINATOR_RANGE << _DENOMINATOR_SHIFT

_CUBE_NAMES = ("C", "C'")
_OUTSIDE_SIGMA = "psi does not anticommute with J0"
_fractions = np.frompyfunc(Fraction, 2, 1)


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
    texts = np.full(bad.shape, None, dtype=object)
    for index in zip(*np.nonzero(bad)):
        texts[index] = describe(index)
    return CheckResult(~bad, texts)


def random_fraction(rng: random.Random) -> tuple:
    """One random rational as its (numerator, denominator) pair.

    The numerator lies in [-10^6, 10^6] and the denominator in [1, 10^3].  The
    pair and the rng state afterwards are those of
    ``(rng.randint(-10**6, 10**6), rng.randint(1, 10**3))``.
    """
    return tuple(_draw_pairs(rng, 1)[0])


def _draw_pairs(rng: random.Random, count: int) -> np.ndarray:
    """``count`` successive random_fraction pairs as a (count, 2) object array.

    Each block of words is the fewest the missing pairs can take, two per pair
    less one for a numerator already accepted, so no word is drawn past the
    last denominator.  A word at or above _DENOMINATOR_CUT is rejected in
    either slot; one in [_NUMERATOR_CUT, _DENOMINATOR_CUT) is rejected only in
    a numerator slot, so only those words go through the loop that tracks the
    slot, and every other word fills the next one.
    """
    blocks, taken = [], 0  # accepted words, numerator and denominator slots alternating
    while taken < 2 * count:
        missing = 2 * count - taken
        words = np.frombuffer(rng.getrandbits(32 * missing).to_bytes(4 * missing, "little"), "<u4")
        words = words[words < _DENOMINATOR_CUT]
        middle = np.flatnonzero(words >= _NUMERATOR_CUT).tolist()
        if middle:
            keep, skipped = np.ones(len(words), dtype=bool), 0
            for k in middle:
                if (taken + k - skipped) % 2 == 0:  # a numerator slot
                    keep[k] = False
                    skipped += 1
            words = words[keep]
        blocks.append(words)
        taken += len(words)
    words = np.concatenate(blocks).astype(np.int64).reshape(count, 2)
    pairs = (words >> (_NUMERATOR_SHIFT, _DENOMINATOR_SHIFT)) + (-NUMERATOR_RANGE, 1)
    return pairs.astype(object)


def _scaled(pairs: np.ndarray, factor: int = 1) -> np.ndarray:
    """The rationals p/q of ``pairs`` times ``factor`` times the lcm of each object's q."""
    p, q = pairs[..., 0], pairs[..., 1]
    return p * (factor * np.lcm.reduce(q, axis=-1, keepdims=True, initial=1) // q)


def _halves(x: np.ndarray) -> np.ndarray:
    """x / 2 exactly, entrywise: to an int where the half is integral, else to a Fraction."""
    h = x // 2
    odd = h + h != x
    h[odd] = [Fraction(v) / 2 for v in x[odd]]
    return h


def _total(x: np.ndarray, axis) -> np.ndarray:
    """Exact sum over ``axis``, as an object array (0-d for one sample)."""
    return np.asarray(x.sum(axis), dtype=object)


def _pair(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    return np.concatenate((left, right), axis=-1)


def _skew_entries(x, shape: tuple, message: str) -> tuple:
    """A nested sequence of exact rationals as a read-only object array ending in
    axes ``shape``, and the first index (b >= a) where its last two axes are not skew.

    Skewness is a_ab + a_ba = 0 on the upper triangle with its diagonal, one
    exact sum per entry pair; only a broken array is searched for the index.
    """
    a = np.array(x, dtype=object)
    a.flags.writeable = False
    if a.shape[a.ndim - len(shape):] != shape:
        raise ValueError(message)
    i, j = _upper_triangle(shape[-1])
    sums = a[..., i, j] + a[..., j, i]
    if not any(sums.ravel().tolist()):
        return a, None
    *batch, k = np.argwhere(sums.astype(bool))[0].tolist()  # the triangle runs row by row
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
    zero = np.zeros(values.shape[:-1] + (1,), dtype=object)
    return np.concatenate((zero, values, -values), axis=-1)[..., _skew_layout(dim, planes)]


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

    ``C`` and ``Cp`` are object arrays of shape batch + (n, n, n) of exact
    rationals, antisymmetric in the last two indices; the constructor takes any
    nested sequences and rejects anything else.  ``random`` draws each cube
    with int entries, scaled by the lcm of that cube's denominators.
    """

    def __init__(self, n: int, C, Cp):
        if not 2 <= n <= MAX_N:
            raise ValueError(f"n must lie in [2, {MAX_N}]")
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
        return cls._of_draws(n, _draw_pairs(rng, n * n * (n - 1)))

    @classmethod
    def _of_draws(cls, n: int, pairs: np.ndarray) -> "RationalCTensor":
        """Tensors of drawn pairs: C from the first half, C' from the second."""
        half = pairs.shape[-2] // 2
        values = _pair(_scaled(pairs[..., :half, :]), _scaled(pairs[..., half:, :]))
        planes = _skew_planes(values, n, 2 * n)
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

    Returns (CheckResult, ratio) with ratio, a Fraction per sample, the larger
    over C and C' of the aggregate 4 sum C^2 / sum d^2; it lies in [1, 4] and is
    zero if both d vanish.  C is checked before C', each through its triples and
    then its aggregate, and a failing sample's ratio reads only the cubes before.

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
    # the larger of C's and C''s ratio, by cross-multiplying over positive bottoms
    primed = top[..., 1] * bottom[..., 0] > top[..., 0] * bottom[..., 1]
    ratio = _fractions(*(np.where(primed, x[..., 1], x[..., 0]) for x in (top, bottom)))

    def describe(s):
        m = int(np.argmax(bad[s]))
        wrong = off[s][m] | over[s][m]
        if not wrong.any():
            return f"aggregate 5/4 bound for {_CUBE_NAMES[m]}"
        o = int(np.argmax(wrong))
        kind = "expansion equality" if off[s][m][o] else "5-bound"
        return f"{_CUBE_NAMES[m]} {kind} at {_triple(*triples[o])}"

    return _result(~passed[..., -1], describe), ratio


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
    """Skew 2n x 2n matrices over exact rationals, from any nested sequence.

    ``array`` has shape batch + (2n, 2n); ``entries`` reads it as tuples of
    rows.  ``random`` draws int entries scaled by twice the lcm of the
    denominators, so the halves that ``skew_decompose`` takes stay ints.
    """

    def __init__(self, n: int, entries):
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
        return cls._of_draws(n, _draw_pairs(rng, n * (2 * n - 1)))

    @classmethod
    def _of_draws(cls, n: int, pairs: np.ndarray) -> "RationalSkewMatrix":
        return cls(n, _skew_planes(_scaled(pairs, factor=2), 2 * n, 1)[..., 0, :, :])


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
    V = np.asarray(V, dtype=object)
    if V.shape[-1:] != (2 * n,):
        raise ValueError(f"V must have length {2 * n}")
    # J0 psi = [[-C, -D], [A, B]]: the lower rows negated, then the upper rows
    new_psi = RationalSkewMatrix(n, np.concatenate((-a[..., n:, :], a[..., :n, :]), axis=-2))
    # -V J0 : (V J0)_b = V_{b+n} for b < n, -(V_{b-n}) otherwise
    new_v = _pair(-V[..., n:], V[..., :n])
    return new_psi, (tuple(new_v) if new_v.ndim == 1 else new_v)


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
    return _result(2 * lhs != -wedge, lambda s: f"lhs={lhs[s]} rhs={Fraction(-wedge[s], 2)}")


def run_algebra_sweep(n_list, samples: int, seed: int) -> dict:
    """Seeded randomized sweep of every exact check; returns per-check pass counts.

    The report carries every counterexample, by sample and then by check,
    and, for each n >= 3, the sample with the largest case-1 ratio
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
    worst_case1 = []
    for n in n_list:
        rng = random.Random(seed * 100003 + n)
        worst = None
        # per sample, the draws of C and C', the skew matrix, V, then Q
        ends = np.cumsum((n * n * (n - 1), n * (2 * n - 1), 2 * n, n * (2 * n - 1)))
        for start in range(0, samples, ALGEBRA_CHUNK):
            size = min(ALGEBRA_CHUNK, samples - start)
            pairs = _draw_pairs(rng, size * ends[-1]).reshape(size, ends[-1], 2)
            cubes, skew, V, Q = np.split(pairs, ends[:-1], axis=1)
            tensor, V = RationalCTensor._of_draws(n, cubes), _scaled(V)
            skew, Q = (RationalSkewMatrix._of_draws(n, x) for x in (skew, Q))
            results = []
            if n >= 3:
                results.append(("identity_c1", check_identity_c1(tensor)))
                res, ratio = check_case1_inequality(tensor)
                k = int(np.argmax(ratio))
                if worst is None or ratio[k] > worst[0]:
                    worst = ratio[k], start + k
                results.append(("case1_inequality", res))
            else:
                results.append(("case2_identities", check_case2_identities(tensor)))
            u_part, sigma_part = skew_decompose(skew)
            ok = commutes_with_j0(u_part) & anticommutes_with_j0(sigma_part)
            ok &= (u_part.array + sigma_part.array == skew.array).all((-2, -1))
            ok &= trace_pairing(u_part, sigma_part) == 0
            results.append(("skew_decompose", _result(~ok, lambda s: "decomposition failed")))
            # J1 rejects a batch with any psi outside sigma: such samples run on psi = 0
            psi, inside = sigma_part, anticommutes_with_j0(sigma_part)
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
        if worst is not None:
            worst_case1.append({"n": n, "sample": worst[1], "ratio": str(worst[0])})
    report["checks"] = counts
    report["worst_case1"] = worst_case1
    report["all_pass"] = not report["failures"]
    return report
