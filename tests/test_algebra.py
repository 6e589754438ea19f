"""Exact rational checks: identities, inequalities, decomposition, wedge identity."""

import json
import operator
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from twistorcheck import (
    NotInSigma,
    RationalCTensor,
    RationalSkewMatrix,
    algebra,
    canonical_j1,
    check_case1_inequality,
    check_case2_identities,
    check_identity_c1,
    check_wedge_identity,
    cli,
    run_algebra_sweep,
    skew_decompose,
)
from twistorcheck.algebra import (
    ENTRY_RANGE,
    anticommutes_with_j0,
    commutes_with_j0,
    trace_pairing,
)


def random_sigma_matrix(n, rng):
    """Random skew matrix anticommuting with J0 (the sigma part of a random skew)."""
    _, sigma = skew_decompose(RationalSkewMatrix.random(n, rng))
    return sigma


def d_from_c(t):
    """Exact d_ijk = C_ijk - C_jik and its primed companion, as nested tuples."""
    n = t.n
    return tuple(
        tuple(tuple(tuple(c[i][j][k] - c[j][i][k] for k in range(n)) for j in range(n)) for i in range(n))
        for c in (t.C, t.Cp)
    )


def tensor_from_entries(n, c_entries, cp_entries=()):
    """Build a RationalCTensor from sparse {(i,j,k): value} with mirrors added."""
    cubes = []
    for entries in (c_entries, cp_entries):
        cube = [[[0] * n for _ in range(n)] for _ in range(n)]
        for (i, j, k), v in dict(entries).items():
            cube[i][j][k] = v
            cube[i][k][j] = -v
        cubes.append(tuple(tuple(tuple(r) for r in p) for p in cube))
    return RationalCTensor(n=n, C=cubes[0], Cp=cubes[1])


def skew_from_entries(n, entries):
    dim = 2 * n
    m = [[0] * dim for _ in range(dim)]
    for (a, b), v in dict(entries).items():
        m[a][b] = v
        m[b][a] = -v
    return RationalSkewMatrix(n=n, entries=tuple(tuple(r) for r in m))


def j0_skew(n):
    return skew_from_entries(n, {(i, n + i): -1 for i in range(n)})


class TestDFromC:
    def test_zero(self):
        d, dp = d_from_c(tensor_from_entries(3, {}))
        assert all(x == 0 for p in d for r in p for x in r)
        assert all(x == 0 for p in dp for r in p for x in r)

    def test_n3_example(self):
        t = tensor_from_entries(3, {(0, 1, 2): 1})
        d, _ = d_from_c(t)
        assert d[0][1][2] == 1 and d[1][0][2] == -1
        assert d[0][2][1] == -1 and d[2][0][1] == 1
        assert d[1][2][0] == 0 and d[2][1][0] == 0

    def test_n2_example(self):
        t = tensor_from_entries(2, {(0, 1, 0): 2, (1, 0, 1): 3})
        d, _ = d_from_c(t)
        assert d[0][1][0] == 2 and d[1][0][0] == -2
        assert d[1][0][1] == 3 and d[0][1][1] == -3
        assert d[0][0][0] == 0 and d[1][1][1] == 0

    def test_antisymmetry_enforced_by_constructor(self):
        bad = [[[0] * 2 for _ in range(2)] for _ in range(2)]
        bad[0][0][1] = 1  # no mirror: breaks antisymmetry in (j, k)
        frozen = tuple(tuple(tuple(r) for r in p) for p in bad)
        with pytest.raises(ValueError):
            RationalCTensor(n=2, C=frozen, Cp=frozen)

    def test_n_bounds(self):
        with pytest.raises(ValueError):
            RationalCTensor.random(1, random.Random(0))
        with pytest.raises(ValueError):
            RationalCTensor.random(7, random.Random(0))


@pytest.mark.parametrize(
    "cls, n",
    [(RationalCTensor, 1), (RationalCTensor, 7), (RationalSkewMatrix, 0), (RationalSkewMatrix, 7)],
)
def test_a_refused_random_call_draws_nothing(cls, n):
    """n is checked before the draw, so a refused call leaves the rng as it was."""
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match=r"^n must lie in"):
        cls.random(n, rng)
    assert rng.getstate() == state


def test_skew_matrix_n_bounds():
    """A skew matrix takes 1 <= n <= MAX_N, the range its int64 bound is derived for."""
    assert algebra.MAX_N == 6
    assert RationalSkewMatrix(1, [[0, 3], [-3, 0]]).entries == ((0, 3), (-3, 0))
    for n in (0, 7):
        with pytest.raises(ValueError, match=r"^n must lie in \[1, 6\]"):
            RationalSkewMatrix(n, np.zeros((2 * n, 2 * n), dtype=np.int64))


class TestCyclicIdentity:
    def test_zero_tensor(self):
        assert check_identity_c1(tensor_from_entries(3, {}))

    def test_hand_example(self):
        # 2 C_123 = d_123 - d_231 + d_312 = 1 - 0 + 1 = 2
        assert check_identity_c1(tensor_from_entries(3, {(0, 1, 2): 1}))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_random_sweep(self, n):
        rng = random.Random(100 + n)
        for _ in range(200):
            assert check_identity_c1(RationalCTensor.random(n, rng))


class TestCase1:
    def test_hand_example_ratio(self):
        ok, top, bottom = check_case1_inequality(tensor_from_entries(3, {(0, 1, 2): 1}))
        assert ok
        # 4 (C_123^2 + C_132^2) = 8 over d_123^2 + d_132^2 + d_213^2 + d_312^2 = 4;
        # C' vanishes and reads 0 / 1
        assert top.tolist() == [8, 0] and bottom.tolist() == [4, 1]
        assert top.dtype == bottom.dtype == np.int64

    def test_zero_tensor(self):
        ok, top, bottom = check_case1_inequality(tensor_from_entries(3, {}))
        assert ok and top.tolist() == [0, 0] and bottom.tolist() == [1, 1]

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_random_sweep_and_ratio_cap(self, n):
        rng = random.Random(200 + n)
        for _ in range(200):
            ok, top, bottom = check_case1_inequality(RationalCTensor.random(n, rng))
            assert ok
            # per orbit, 4 sum C^2 = 4 sum d^2 - (d+d+d)^2 lies in [sum d^2, 4 sum d^2]
            # (Cauchy-Schwarz below), so each cube's ratio lies in [1, 4]
            assert (bottom <= top).all() and (top <= 4 * bottom).all()


class TestCase2:
    def test_hand_example(self):
        # C_121 = 2, C_212 = 3: sum C^2 = 26 = 2 (d_121^2 + d_212^2) = sum d^2
        assert check_case2_identities(tensor_from_entries(2, {(0, 1, 0): 2, (1, 0, 1): 3}))

    def test_zero(self):
        assert check_case2_identities(tensor_from_entries(2, {}))

    def test_random_sweep(self):
        rng = random.Random(31)
        for _ in range(500):
            assert check_case2_identities(RationalCTensor.random(2, rng))

    def test_requires_n2(self):
        with pytest.raises(ValueError):
            check_case2_identities(tensor_from_entries(3, {}))


class TestSkewDecompose:
    def test_j0_is_unitary_part(self):
        om = j0_skew(2)
        u_part, sigma_part = skew_decompose(om)
        assert u_part.entries == om.entries
        assert all(x == 0 for row in sigma_part.entries for x in row)

    def test_single_block(self):
        om = skew_from_entries(2, {(0, 1): 2})
        u_part, sigma_part = skew_decompose(om)
        assert commutes_with_j0(u_part)
        assert anticommutes_with_j0(sigma_part)
        total = [
            [u_part.entries[a][b] + sigma_part.entries[a][b] for b in range(4)] for a in range(4)
        ]
        assert tuple(tuple(r) for r in total) == om.entries

    @pytest.mark.parametrize(
        "om",
        [
            # odd entries whose J0 partners are odd too: A +- D and B +- C are even
            RationalSkewMatrix(n=2, entries=(
                (0, 1, 1, 5), (-1, 0, 7, 3), (-1, -7, 0, 3), (-5, -3, -3, 0))),
            # {(0, 1): 1/3, (0, 3): -5/7, (1, 2): 2/9} scaled by 2 * 63 to even integers
            skew_from_entries(2, {(0, 1): 42, (0, 3): -90, (1, 2): 28}),
        ],
        ids=["odd-int", "fraction"],
    )
    def test_exact_halves(self, om):
        """Halving is exact: the parts hold ints, never a float or a floor."""
        n, dim = om.n, 4
        j0 = j0_skew(n).entries
        matmul = lambda x, y: [  # noqa: E731
            [sum(x[a][c] * y[c][b] for c in range(dim)) for b in range(dim)] for a in range(dim)
        ]
        conj = matmul(matmul(j0, om.entries), j0)
        u_part, sigma_part = skew_decompose(om)
        for a in range(dim):
            for b in range(dim):
                u, s = u_part.entries[a][b], sigma_part.entries[a][b]
                assert type(u) is int and type(s) is int
                assert 2 * u == om.entries[a][b] - conj[a][b]
                assert 2 * s == om.entries[a][b] + conj[a][b]

    def test_an_odd_entry_is_refused(self):
        """An odd entry whose half in a part is not an integer is refused."""
        with pytest.raises(ValueError, match="^skew_decompose takes even entries"):
            skew_decompose(skew_from_entries(2, {(0, 1): 1}))
        assert skew_decompose(skew_from_entries(2, {(0, 1): 2}))[0].entries[0][1] == 1

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_random_reconstruction_and_orthogonality(self, n):
        rng = random.Random(400 + n)
        for _ in range(100):
            om = RationalSkewMatrix.random(n, rng)
            u_part, sigma_part = skew_decompose(om)
            assert commutes_with_j0(u_part)
            assert anticommutes_with_j0(sigma_part)
            for a in range(2 * n):
                for b in range(2 * n):
                    assert u_part.entries[a][b] + sigma_part.entries[a][b] == om.entries[a][b]
            assert trace_pairing(u_part, sigma_part) == 0


def j0_matrix(n):
    """J0 = [[0, -I], [I, 0]] as rows."""
    dim = 2 * n
    return [[-1 if b == a + n else 1 if a == b + n else 0 for b in range(dim)] for a in range(dim)]


def matmul(x, y):
    """Row-by-column product."""
    columns = list(zip(*y))
    return [[sum(map(operator.mul, row, col)) for col in columns] for row in x]


def doubled_reference_parts(om):
    """omega - J0 omega J0 and omega + J0 omega J0, twice the two parts."""
    j0 = j0_matrix(om.n)
    conj = matmul(matmul(j0, om.entries), j0)
    return [
        [[x + sign * c for x, c in zip(row, crow)] for row, crow in zip(om.entries, conj)]
        for sign in (-1, 1)
    ]


def reference_commutation(m):
    """(J0 M == M J0, J0 M == -M J0) from matrix products."""
    j0 = j0_matrix(m.n)
    left, right = matmul(j0, m.entries), matmul(m.entries, j0)
    return left == right, left == [[-x for x in row] for row in right]


def perturbed(m, a, b, delta):
    """m with entry (a, b) moved by delta and (b, a) by -delta, so it stays skew."""
    rows = [list(row) for row in m.entries]
    rows[a][b] += delta
    rows[b][a] -= delta
    return RationalSkewMatrix(n=m.n, entries=tuple(tuple(row) for row in rows))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_block_j0_tests_and_split_equal_matrix_products(n):
    """The block forms of the J0 tests and the split agree with J0 products.

    Each random skew matrix, its two parts and a one-entry perturbation of each
    go through both; the perturbations make every verdict occur.
    """
    rng = random.Random(1300 + n)
    dim = 2 * n
    verdicts = set()
    for _ in range(500):
        om = RationalSkewMatrix.random(n, rng)
        u_part, sigma_part = skew_decompose(om)
        doubled = [[[2 * x for x in row] for row in part.entries] for part in (u_part, sigma_part)]
        assert doubled == doubled_reference_parts(om)
        a = rng.randrange(dim - 1)
        b = rng.randrange(a + 1, dim)
        parts = (om, u_part, sigma_part)
        for m in parts + tuple(perturbed(m, a, b, 1) for m in parts):
            verdict = (commutes_with_j0(m), anticommutes_with_j0(m))
            assert verdict == reference_commutation(m)
            verdicts.add(verdict)
    assert verdicts == {(True, False), (False, True), (False, False)}


class TestCanonicalJ1:
    def test_vector_slot_example(self):
        n = 2
        zero = skew_from_entries(n, {})
        e1 = tuple(1 if i == 0 else 0 for i in range(4))
        psi1, v1 = canonical_j1(zero, e1)
        assert v1 == (0, 0, 1, 0)  # -e1 J0 = +e3
        psi2, v2 = canonical_j1(psi1, v1)
        assert v2 == tuple(-x for x in e1)
        assert all(x == 0 for row in psi2.entries for x in row)

    def test_matrix_slot_square(self):
        rng = random.Random(77)
        psi = random_sigma_matrix(2, rng)
        zero_v = (0,) * 4
        psi1, v1 = canonical_j1(psi, zero_v)
        assert anticommutes_with_j0(psi1)
        psi2, v2 = canonical_j1(psi1, v1)
        assert psi2.entries == tuple(tuple(-x for x in row) for row in psi.entries)
        assert v2 == zero_v

    @pytest.mark.parametrize("n", [2, 3])
    def test_square_is_minus_identity(self, n):
        rng = random.Random(500 + n)
        for _ in range(100):
            psi = random_sigma_matrix(n, rng)
            V = tuple(rng.randint(-50, 50) for _ in range(2 * n))
            psi1, v1 = canonical_j1(psi, V)
            psi2, v2 = canonical_j1(psi1, v1)
            assert v2 == tuple(-x for x in V)
            assert psi2.entries == tuple(tuple(-x for x in row) for row in psi.entries)

    def test_not_in_sigma(self):
        with pytest.raises(NotInSigma):
            canonical_j1(j0_skew(2), (0,) * 4)

    def test_v_of_the_wrong_length(self):
        with pytest.raises(ValueError, match="^V must have length 4$"):
            canonical_j1(skew_from_entries(2, {}), (0,) * 3)


class TestWedgeIdentity:
    def test_equal_arguments(self):
        rng = random.Random(8)
        P = RationalSkewMatrix.random(2, rng)
        assert check_wedge_identity(P, P)

    def test_matrices_of_different_n(self):
        with pytest.raises(ValueError, match="^matrices must share the same n$"):
            check_wedge_identity(skew_from_entries(2, {}), skew_from_entries(3, {}))

    def test_specific_pair(self):
        n = 2
        P = skew_from_entries(n, {(0, 1): 1})
        Q = skew_from_entries(n, {(1, n + 0): 1})
        assert check_wedge_identity(P, Q)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_random_sweep(self, n):
        rng = random.Random(600 + n)
        for _ in range(200):
            P = RationalSkewMatrix.random(n, rng)
            Q = RationalSkewMatrix.random(n, rng)
            assert check_wedge_identity(P, Q)


class TestSkewMatrixType:
    def test_skewness_enforced(self):
        with pytest.raises(ValueError):
            RationalSkewMatrix(n=1, entries=((1, 0), (0, 0)))

    def test_from_rows(self):
        m = skew_from_rows(1, [[0, 1], [-1, 0]])
        assert m.entries[0][1] == 1


def skew_from_rows(n, rows):
    """The skew matrix with the given rows, entries as ints."""
    return RationalSkewMatrix(n=n, entries=[[int(x) for x in row] for row in rows])


def reference_draws(rng, count):
    """The draw in pure Python, value by value: each entry is the next 64-bit
    word modulo 2 * 10^6 + 1, shifted to [-10^6, 10^6]."""
    return [rng.getrandbits(64) % (2 * 10**6 + 1) - 10**6 for _ in range(count)]


@pytest.mark.parametrize("count", [1, 2, 7, 1728])
def test_draw_is_the_getrandbits_oracle(count):
    """The draw equals the oracle's values and leaves the rng where the oracle does."""
    rng, ref = random.Random(1300 + count), random.Random(1300 + count)
    draws = algebra._draw_ints(rng, count)
    assert draws.shape == (count,) and draws.dtype == np.int64
    assert draws.tolist() == reference_draws(ref, count)
    assert rng.getstate() == ref.getstate()
    assert algebra.random_fraction(rng) == (reference_draws(ref, 1)[0], 1)
    assert rng.getstate() == ref.getstate()


def test_random_fraction_is_a_pair_of_python_ints():
    numerator, denominator = algebra.random_fraction(random.Random(5))
    assert type(numerator) is int and denominator == 1
    assert -ENTRY_RANGE <= numerator <= ENTRY_RANGE


class WordRandom(random.Random):
    """A Random whose getrandbits serves the given 64-bit words, least significant first."""

    def __init__(self, words):
        super().__init__(0)
        self.words = words

    def getrandbits(self, k):
        assert k == 64 * len(self.words)
        return sum(w << (64 * i) for i, w in enumerate(self.words))


def test_draw_reads_words_unsigned():
    """The lowest and highest words and the residues at the ends of the range."""
    width = 2 * ENTRY_RANGE + 1
    words = [0, width - 1, width, 2**63, 2**64 - 1]
    assert ENTRY_RANGE == 10**6
    assert algebra._draw_ints(WordRandom(words), len(words)).tolist() == [
        w % width - ENTRY_RANGE for w in words
    ]


def test_any_split_of_a_draw_gives_the_same_entries():
    """Each entry takes exactly 64 bits, so the draws of any split concatenate to one draw."""
    whole = algebra._draw_ints(random.Random(31), 100).tolist()
    for cuts in ([50], [1, 2, 3], [0, 37, 37, 99]):
        rng, bounds = random.Random(31), [0, *cuts, 100]
        parts = [algebra._draw_ints(rng, b - a).tolist() for a, b in zip(bounds, bounds[1:])]
        assert sum(parts, []) == whole


def draws_per_sample(n):
    """Entries one sweep sample draws: n^2 (n - 1) / 2 each for the upper
    triangles of C and C', n (2n - 1) each for the skew matrix and Q, 2n for V."""
    return n * n * (n - 1) + 2 * n * (2 * n - 1) + 2 * n


def chunk_size(n):
    """Samples in a full sweep chunk: as many as CHUNK_DRAWS entries allow, at least one."""
    return max(1, algebra.CHUNK_DRAWS // draws_per_sample(n))


def test_sweep_draws_a_chunk_in_one_call(monkeypatch):
    """A sweep chunk reads its entries through one getrandbits call, with no
    call of random_fraction."""
    calls = []

    class Counting(random.Random):
        def getrandbits(self, k):
            calls.append(k)
            return super().getrandbits(k)

    samples = 700
    expected = run_algebra_sweep([2, 3], samples=samples, seed=0)
    monkeypatch.setattr(algebra, "random", SimpleNamespace(Random=Counting))
    monkeypatch.setattr(algebra, "random_fraction", None)
    assert run_algebra_sweep([2, 3], samples=samples, seed=0) == expected
    sizes = {2: [691, 9], 3: [256, 256, 188]}
    assert calls == [64 * size * draws_per_sample(n) for n in (2, 3) for size in sizes[n]]


def record_chunk_draws(monkeypatch):
    """The entry counts of the sweep's draws, one per chunk, as the sweep makes them."""
    counts, draw = [], algebra._draw_ints

    def recording(rng, count):
        counts.append(count)
        return draw(rng, count)

    monkeypatch.setattr(algebra, "_draw_ints", recording)
    return counts


@pytest.mark.parametrize("n, size", [(2, 172), (3, 64), (4, 30), (5, 17), (6, 10)])
def test_sweep_chunk_draws_stay_within_the_budget(n, size, monkeypatch):
    """Each chunk draws its samples in one call, a full chunk as many as fit
    the budget: here a budget of 3456 entries."""
    monkeypatch.setattr(algebra, "CHUNK_DRAWS", 3456)
    counts = record_chunk_draws(monkeypatch)
    assert chunk_size(n) == size
    assert run_algebra_sweep([n], samples=size + 1, seed=8)["all_pass"]
    assert counts == [size * draws_per_sample(n), draws_per_sample(n)]
    assert max(counts) <= algebra.CHUNK_DRAWS


def test_default_chunks_hold_as_many_samples_as_the_budget_allows(monkeypatch):
    """At the default budget a full chunk holds 691, 256, 123, 69 and 42
    samples at n = 2, ..., 6, each drawn in one call."""
    assert algebra.CHUNK_DRAWS == 13824
    sizes = dict(zip(range(2, 7), (691, 256, 123, 69, 42)))
    counts = record_chunk_draws(monkeypatch)
    for n, size in sizes.items():
        assert chunk_size(n) == size
        counts.clear()
        assert run_algebra_sweep([n], samples=size + 1, seed=8)["all_pass"]
        assert counts == [size * draws_per_sample(n), draws_per_sample(n)]
        assert max(counts) <= algebra.CHUNK_DRAWS


# One entry per chunk gives 1-sample chunks, 7 * 54 gives 7 samples at
# n = 3 (18 at n = 2, 3 at n = 4), and the default budget and a large one
# put the 35 samples of each n in one chunk.
CHUNK_BUDGETS = (1, 7 * 54, algebra.CHUNK_DRAWS, 10**6)


def slipped_beta(m, n):
    return m[..., :n, :n] - m[..., n:, n:]


def swapped_split(omega, split=algebra.skew_decompose):
    return split(omega)[::-1]


@pytest.mark.parametrize(
    "control",
    [None, ("_beta_of", slipped_beta), ("skew_decompose", swapped_split)],
    ids=["passing", "slipped-beta", "swapped-split"],
)
def test_sweep_report_does_not_depend_on_chunking(control, monkeypatch):
    """Counts, worst case-1 samples and the failures, by sample and then by
    check across chunk boundaries, are the same whatever the chunk size."""
    if control:
        monkeypatch.setattr(algebra, *control)
    reports = []
    for budget in CHUNK_BUDGETS:
        monkeypatch.setattr(algebra, "CHUNK_DRAWS", budget)
        reports.append(run_algebra_sweep([2, 3, 4], samples=35, seed=12))
    assert all(report == reports[0] for report in reports[1:])
    assert reports[0]["all_pass"] == (control is None)
    if control:
        failures = [(f["n"], f["sample"]) for f in reports[0]["failures"]]
        assert failures == sorted(failures) and len(set(failures)) == 3 * 35


@pytest.mark.parametrize("n", [2, 3, 4])
def test_integer_draws_are_scaled_reference_draws(n):
    """A random tensor lays out its reference draws as its cubes' upper
    triangles, and a random skew matrix its doubled reference draws."""
    rng, ref_rng = random.Random(900 + n), random.Random(900 + n)
    dim = 2 * n
    slots = [(i, j, k) for i in range(n) for j in range(n) for k in range(j + 1, n)]
    upper = [(a, b) for a in range(dim) for b in range(a + 1, dim)]
    for _ in range(20):
        t = RationalCTensor.random(n, rng)
        for cube in (t.C, t.Cp):
            assert [cube[i][j][k] for i, j, k in slots] == reference_draws(ref_rng, len(slots))
            assert all(cube[i][k][j] == -cube[i][j][k]
                       for i in range(n) for j in range(n) for k in range(n))
        m = RationalSkewMatrix.random(n, rng)
        assert [m.entries[a][b] for a, b in upper] == [
            2 * x for x in reference_draws(ref_rng, len(upper))
        ]
        assert all(type(x) is int for row in m.entries for x in row)
        assert rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("n", [3, 4])
def test_case1_ratio_is_scale_free(n):
    """An int sample and that sample times a positive int give the same verdict
    and case-1 ratios, top bottom' = top' bottom: by this homogeneity an int
    sample checks each of its rational multiples."""
    rng = random.Random(950 + n)
    for _ in range(20):
        draws = np.array([rng.randint(-10**3, 10**3) for _ in range(n * n * (n - 1))])
        t = RationalCTensor._of_draws(n, draws)
        scale = rng.randint(2, 2 * 10**3)  # the scaled entries stay within INT64_BOUND
        ok, top, bottom = check_case1_inequality(t)
        ref_ok, ref_top, ref_bottom = check_case1_inequality(
            RationalCTensor(n, scale * t.C, scale * t.Cp))
        assert ok and ref_ok
        for p, q, ref_p, ref_q in zip(*(x.tolist() for x in (top, bottom, ref_top, ref_bottom))):
            assert p * ref_q == ref_p * q and ref_p == scale**2 * p


def test_sweep_smoke_deterministic():
    a = run_algebra_sweep([2, 3], samples=20, seed=42)
    b = run_algebra_sweep([2, 3], samples=20, seed=42)
    assert a == b
    assert a["all_pass"]
    assert a["checks"]["identity_c1"]["pass"] == 20
    assert a["checks"]["case2_identities"]["pass"] == 20
    assert a["checks"]["wedge_identity"]["pass"] == 40
    (slot,) = a["worst_case1"]
    assert slot["n"] == 3 and 0 <= slot["sample"] < 20
    assert 1 <= Fraction(slot["ratio"]) <= 4


def test_sweep_names_its_worst_case1_sample(monkeypatch):
    """Per n >= 3, the first sample with the largest ratio the case-1 check returned."""
    from twistorcheck import algebra

    seen = {}
    check = algebra.check_case1_inequality

    def recording(t):
        # the sweep hands the check a chunk of samples and gets (top, bottom)
        # pairs per sample, one per cube
        res, top, bottom = check(t)
        pairs = zip(top.tolist(), bottom.tolist())
        seen.setdefault(t.n, []).extend(max(map(Fraction, *pair)) for pair in pairs)
        return res, top, bottom

    monkeypatch.setattr(algebra, "check_case1_inequality", recording)
    report = run_algebra_sweep([2, 3, 4], samples=15, seed=5)
    assert [slot["n"] for slot in report["worst_case1"]] == [3, 4]
    for slot in report["worst_case1"]:
        ratios = seen[slot["n"]]
        assert slot["ratio"] == str(max(ratios))
        assert slot["sample"] == ratios.index(max(ratios))
    # the value depends on the draws: another seed names another ratio
    other = run_algebra_sweep([3], samples=15, seed=6)["worst_case1"][0]
    assert other["ratio"] != report["worst_case1"][0]["ratio"]


def test_sweep_keeps_the_first_of_equal_ratios(monkeypatch):
    """Ratios are compared by value and only a strictly larger one replaces the
    running maximum: with every cube of every sample at ratio k / k = 1, the
    worst sample is the first, across chunk boundaries too."""
    check = algebra.check_case1_inequality

    def level(t):
        res, top, _ = check(t)
        k = np.arange(1, len(top) + 1)[:, None] * np.ones(2, np.int64)
        return res, k, k

    monkeypatch.setattr(algebra, "check_case1_inequality", level)
    (slot,) = run_algebra_sweep([3], samples=300, seed=5)["worst_case1"]
    assert slot == {"n": 3, "sample": 0, "ratio": "1"}


@pytest.mark.parametrize("step", [1, -1], ids=["second-larger", "second-smaller"])
def test_sweep_compares_ratios_a_float_cannot_tell_apart(step, monkeypatch):
    """The float pre-screen leaves every ratio within rounding of the chunk's
    largest to the exact comparison: 3 and (3 q + step) / q at q = 10^16 are
    the same float, and the exactly larger one is named."""
    check = algebra.check_case1_inequality
    q = 10**16

    def near_three(t):
        res, top, _ = check(t)
        tops = np.full(top.shape, 3 * q, np.int64)
        tops[1, 1] += step
        return res, tops, np.full(top.shape, q, np.int64)

    monkeypatch.setattr(algebra, "check_case1_inequality", near_three)
    (slot,) = run_algebra_sweep([3], samples=2, seed=5)["worst_case1"]
    expected = {1: (1, f"{3 * q + 1}/{q}"), -1: (0, "3")}[step]
    assert (slot["sample"], slot["ratio"]) == expected


def test_sweep_rejects_bad_input():
    with pytest.raises(ValueError):
        run_algebra_sweep([2], samples=0, seed=1)
    with pytest.raises(ValueError):
        run_algebra_sweep([9], samples=1, seed=1)


def test_sweep_rejects_duplicate_n():
    # the rng seed depends only on (seed, n), so a repeat would replay the same samples
    with pytest.raises(ValueError, match="distinct"):
        run_algebra_sweep([2, 3, 2], samples=3, seed=1)


# --- list-built objects and batches -------------------------------------------

SIGMA_ROWS = [[0, 1, 0, 2], [-1, 0, -2, 0], [0, 2, 0, -1], [-2, 0, 1, 0]]


def nested_lists(n, entries):
    cube = [[[0] * n for _ in range(n)] for _ in range(n)]
    for (i, j, k), v in entries.items():
        cube[i][j][k], cube[i][k][j] = v, -v
    return cube


def test_list_built_objects_go_through_every_check():
    """Constructors normalise any nested sequence, so list rows reach every check."""
    rows = [[0, 2, 0, 0], [-2, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    listed = RationalSkewMatrix(n=2, entries=rows)
    tupled = RationalSkewMatrix(n=2, entries=tuple(map(tuple, rows)))
    sigma = RationalSkewMatrix(n=2, entries=SIGMA_ROWS)
    assert anticommutes_with_j0(sigma) and not commutes_with_j0(sigma)
    (u, s), (u_ref, s_ref) = skew_decompose(listed), skew_decompose(tupled)
    assert u.entries == u_ref.entries and s.entries == s_ref.entries
    assert commutes_with_j0(listed) == commutes_with_j0(tupled)
    assert anticommutes_with_j0(listed) == anticommutes_with_j0(tupled)
    assert trace_pairing(listed, sigma) == trace_pairing(tupled, sigma) == 4
    psi1, v1 = canonical_j1(sigma, [1, 2, 3, 4])
    assert psi1.entries == tuple(tuple(-x for x in row) for row in SIGMA_ROWS[2:]) + tuple(
        map(tuple, SIGMA_ROWS[:2])
    )
    assert v1 == (-3, -4, 1, 2)
    assert check_wedge_identity(listed, sigma) and check_wedge_identity(sigma, listed)
    cases = ((3, {(0, 1, 2): 1}, {(2, 0, 1): 3}), (2, {(0, 1, 0): 2}, {(1, 0, 1): 5}))
    for n, c_entries, cp_entries in cases:
        t = RationalCTensor(n, nested_lists(n, c_entries), nested_lists(n, cp_entries))
        ref = tensor_from_entries(n, c_entries, cp_entries)
        assert check_identity_c1(t) and check_identity_c1(ref)
        if n == 2:
            assert check_case2_identities(t) and check_case2_identities(ref)
        else:
            (ok, *ratio), (ref_ok, *ref_ratio) = (check_case1_inequality(x) for x in (t, ref))
            assert ok and ref_ok and [x.tolist() for x in ratio] == [x.tolist() for x in ref_ratio]


def test_constructor_errors_name_the_first_offending_index():
    bad = nested_lists(3, {(1, 0, 2): 4})
    bad[1][2][0] = 0  # C[1][0][2] = 4 has no mirror
    bad[2][2][2] = 1  # a later diagonal entry is not zero either
    with pytest.raises(ValueError, match=r"^C\[1\]\[0\]\[2\] breaks antisymmetry"):
        RationalCTensor(3, bad, nested_lists(3, {}))
    with pytest.raises(ValueError, match=r"^Cp\[1\]\[2\]\[2\] breaks antisymmetry"):
        RationalCTensor(3, nested_lists(3, {}), [bad[0], bad[2], bad[2]])
    rows = [list(row) for row in SIGMA_ROWS]
    rows[3][3], rows[1][2] = 7, 5
    with pytest.raises(ValueError, match=r"^entry \(1, 2\) breaks skew symmetry"):
        RationalSkewMatrix(2, rows)
    # in a batch the index starts with the sample's
    with pytest.raises(ValueError, match=r"^entry \(1, 1, 2\) breaks skew symmetry"):
        RationalSkewMatrix(2, [SIGMA_ROWS, rows])
    with pytest.raises(ValueError, match="must be 4 x 4"):
        RationalSkewMatrix(2, [row[:3] for row in SIGMA_ROWS])


def test_skew_gate_finds_a_break_on_the_diagonal_or_in_the_last_sample():
    """The gate sums each upper entry with its mirror, diagonal included, over
    every sample, and names the first broken index as before."""
    rows = [list(row) for row in SIGMA_ROWS]
    rows[2][2] = 1
    with pytest.raises(ValueError, match=r"^entry \(2, 2\) breaks skew symmetry$"):
        RationalSkewMatrix(2, rows)
    cube = nested_lists(3, {(0, 1, 2): 4})
    cube[1][2][2] = -1
    with pytest.raises(ValueError, match=r"^C\[1\]\[2\]\[2\] breaks antisymmetry"):
        RationalCTensor(3, cube, nested_lists(3, {}))
    rows = [list(row) for row in SIGMA_ROWS]
    rows[3][0] = 3  # rows[0][3] is 2
    with pytest.raises(ValueError, match=r"^entry \(2, 0, 3\) breaks skew symmetry$"):
        RationalSkewMatrix(2, [SIGMA_ROWS, SIGMA_ROWS, rows])
    with pytest.raises(ValueError, match=r"^Cp\[1\]\[1\]\[2\]\[2\] breaks antisymmetry"):
        RationalCTensor(3, [nested_lists(3, {})] * 2, [nested_lists(3, {}), cube])


def test_skew_gate_compares_values_not_kinds():
    """Entries of any integer dtype, or numpy ints among Python ints, are held
    as int64 and compared by value, in a matrix and in a cube."""
    rows = [[0, np.int8(3), 0, 0], [-3, np.uint16(0), 0, 0], [np.int32(0), 0, 0, 0], [0, 0, 0, 0]]
    m = RationalSkewMatrix(2, rows)
    assert m.array.dtype == np.int64 and m.entries[1][0] == -3
    for dtype in (np.int8, np.int16, np.int32):
        m = RationalSkewMatrix(2, np.array(SIGMA_ROWS, dtype=dtype))
        assert m.array.dtype == np.int64 and m.entries == RationalSkewMatrix(2, SIGMA_ROWS).entries
    cube = np.array(nested_lists(3, {(0, 1, 2): 3}), dtype=np.int16)
    t = RationalCTensor(3, cube, nested_lists(3, {}))
    assert t.cubes.dtype == np.int64 and t.C[0, 2, 1] == -3


def part_ratio(c, d):
    """One cube's 4 sum C^2 / sum d^2, 0 where d vanishes."""
    total = sum(x * x for x in np.ravel(d))
    return Fraction(4 * sum(x * x for x in np.ravel(c)), total) if total else 0


def test_case1_ratio_is_the_larger_of_the_two_cubes():
    """Per sample and cube the check returns 4 sum C^2 and sum d^2 as top and
    bottom, from which the sweep reads the larger ratio of C and C': with a tie,
    one vanishing d and two, and a sample whose C' fails, which keeps C's."""
    c = {(0, 1, 2): 1, (1, 0, 2): 3}
    low, high = {(0, 1, 2): 1, (1, 2, 0): 1}, {(0, 1, 2): 1, (1, 0, 2): 1}  # ratios 4/3 and 4
    cases = [
        (c, {k: 5 * v for k, v in c.items()}),  # C' = 5 C: a tie in value
        ({}, c),
        ({}, {}),
        (low, high),  # its C' fails below
    ]
    t = RationalCTensor(3, *([nested_lists(3, x) for x in cubes] for cubes in zip(*cases)))
    d = t.d.copy()
    d[3, 1, 0, 1, 2] += 1
    res, top, bottom = check_case1_inequality(with_d(t, d))
    assert list(res.ok) == [True, True, True, False]
    assert res.counterexample[3].startswith("C' ")
    assert top.dtype == bottom.dtype == np.int64 and top.shape == bottom.shape == (4, 2)
    ratio = [list(map(Fraction, *pair)) for pair in zip(top.tolist(), bottom.tolist())]
    for k in range(3):
        assert ratio[k] == [part_ratio(t.cubes[k, m], d[k, m]) for m in range(2)]
    assert ratio[0][0] == ratio[0][1] > 0
    assert ratio[1] == [0, part_ratio(t.Cp[1], d[1, 1])] and ratio[1][1] > 0
    assert top[2].tolist() == [0, 0] and bottom[2].tolist() == [1, 1]  # no d: 0 / 1
    failed_c = part_ratio(t.C[3], d[3, 0])
    assert ratio[3] == [failed_c, 0] and failed_c < part_ratio(t.Cp[3], d[3, 1])


def alone(obj, k):
    """Sample k of a batch as an object of batch shape ()."""
    if isinstance(obj, RationalCTensor):
        return RationalCTensor(obj.n, obj.C[k], obj.Cp[k])
    return RationalSkewMatrix(obj.n, obj.array[k])


def drawn_batch(cls, n, size, seed):
    """``size`` drawn objects of one kind as one batch of shape (size,)."""
    rng = random.Random(seed)
    singles = [cls.random(n, rng) for _ in range(size)]
    if cls is RationalCTensor:
        return cls(n, [t.C for t in singles], [t.Cp for t in singles])
    return cls(n, [m.array for m in singles])


def with_d(t, d):
    """``t`` reading ``d`` in place of its own d and d'."""
    t.__dict__["d"] = d
    return t


def assert_same_verdicts(batch, singles):
    """A batch CheckResult holds, per sample, the verdict and text of that sample alone."""
    assert len(batch.ok) == len(singles)
    for k, single in enumerate(singles):
        assert type(single.ok) is bool
        assert batch.ok[k] == single.ok
        assert batch.counterexample[k] == single.counterexample


SIZE, MIDDLE = 7, 3


@pytest.mark.parametrize(
    "n, cube, where",
    [(3, 0, (0, 1, 2)), (3, 1, (2, 2, 0)), (4, 1, (1, 0, 3)), (2, 0, (0, 1, 0)), (2, 1, (1, 1, 0))],
)
def test_tensor_batch_is_its_samples_checked_alone(n, cube, where):
    """One sample in the middle of a drawn batch reads a doctored d entry: every
    tensor check gives each sample the verdict, text and ratio it gets alone."""
    t = drawn_batch(RationalCTensor, n, SIZE, 40 + n)
    d = t.d.copy()
    d[(MIDDLE, cube) + where] += 1
    t = with_d(t, d)
    singles = [with_d(alone(t, k), d[k]) for k in range(SIZE)]
    checks = [check_identity_c1, check_case2_identities] if n == 2 else [check_identity_c1]
    for check in checks:
        res = check(t)
        assert_same_verdicts(res, [check(s) for s in singles])
        assert not res.ok[MIDDLE] and res.ok.sum() == SIZE - 1
    if n >= 3:
        res, top, bottom = check_case1_inequality(t)
        alone_results = [check_case1_inequality(s) for s in singles]
        assert_same_verdicts(res, [r for r, _, _ in alone_results])
        assert top.tolist() == [x.tolist() for _, x, _ in alone_results]
        assert bottom.tolist() == [x.tolist() for _, _, x in alone_results]
        assert not res.ok[MIDDLE]
        # a failure in C keeps no ratio; one in C' keeps C's
        assert top[MIDDLE, 1] == 0 and (top[MIDDLE, 0] == 0) == (cube == 0)


@pytest.mark.parametrize("n", [2, 3])
def test_wedge_batch_is_its_samples_checked_alone(n, monkeypatch):
    """A beta that slips only at an entry 7 fails the one sample that holds it."""
    P = drawn_batch(RationalSkewMatrix, n, SIZE, 60 + n)
    Q = drawn_batch(RationalSkewMatrix, n, SIZE, 70 + n)
    rows = P.array.copy()
    rows[MIDDLE, 0, 1], rows[MIDDLE, 1, 0] = 7, -7
    P = RationalSkewMatrix(n, rows)
    beta = algebra._beta_of
    monkeypatch.setattr(algebra, "_beta_of", lambda m, n: beta(m, n) + (m[..., :n, :n] == 7))
    res = check_wedge_identity(P, Q)
    assert_same_verdicts(res, [check_wedge_identity(alone(P, k), alone(Q, k)) for k in range(SIZE)])
    assert not res.ok[MIDDLE] and res.ok.sum() == SIZE - 1


@pytest.mark.parametrize("n", [2, 3])
def test_skew_batch_is_its_samples_checked_alone(n):
    """Split, J0 tests, pairing and J1 give each sample what it gets alone."""
    om = drawn_batch(RationalSkewMatrix, n, SIZE, 80 + n)
    u_part, sigma_part = skew_decompose(om)
    for k in range(SIZE):
        u_k, s_k = skew_decompose(alone(om, k))
        assert alone(u_part, k).entries == u_k.entries
        assert alone(sigma_part, k).entries == s_k.entries
        assert trace_pairing(om, sigma_part)[k] == trace_pairing(alone(om, k), s_k)
    # the middle sample is a u part, the others are not split at all
    rows = om.array.copy()
    rows[MIDDLE] = u_part.array[MIDDLE]
    mixed = RationalSkewMatrix(n, rows)
    for test in (commutes_with_j0, anticommutes_with_j0):
        verdicts = test(mixed)
        assert list(verdicts) == [test(alone(mixed, k)) for k in range(SIZE)]
    assert list(commutes_with_j0(mixed)) == [k == MIDDLE for k in range(SIZE)]
    V = np.array([[10 * k + b for b in range(2 * n)] for k in range(SIZE)])
    psi1, v1 = canonical_j1(sigma_part, V)
    for k in range(SIZE):
        psi1_k, v1_k = canonical_j1(alone(sigma_part, k), tuple(V[k]))
        assert alone(psi1, k).entries == psi1_k.entries and tuple(v1[k]) == v1_k
    # one psi outside sigma makes J1 reject the batch, as it rejects that sample alone
    rows = sigma_part.array.copy()
    rows[MIDDLE] = om.array[MIDDLE]
    with pytest.raises(NotInSigma):
        canonical_j1(RationalSkewMatrix(n, rows), V)
    with pytest.raises(NotInSigma):
        canonical_j1(alone(om, MIDDLE), V[MIDDLE])


def exact_kinds(arrays):
    return {type(x) for a in arrays for x in np.asarray(a, dtype=object).flat}


def test_every_entry_and_every_compared_sum_is_exact(monkeypatch):
    """No float enters: every constructed object's entries and every sum a check
    compares are held in int64 arrays, through a sweep and on hand-built inputs
    (rationals scaled to integers)."""
    seen = {"_skew_entries": [], "_total": []}
    for name, arrays in seen.items():
        fn = getattr(algebra, name)

        def recording(*args, fn=fn, arrays=arrays):
            out = fn(*args)
            arrays.append(out[0] if isinstance(out, tuple) else out)
            return out

        monkeypatch.setattr(algebra, name, recording)
    report = run_algebra_sweep([2, 3], samples=40, seed=3)
    assert report["all_pass"]
    # 1/3, -2/5 and 7/2 times 30; 1/3 and 5/7 times 21; 1/3, -5/7 and 3 times 42
    t = tensor_from_entries(3, {(0, 1, 2): 10, (1, 0, 2): -12}, {(2, 1, 0): 105})
    assert check_identity_c1(t) and check_case1_inequality(t)[0]
    assert check_case2_identities(tensor_from_entries(2, {(0, 1, 0): 7}, {(1, 0, 1): 15}))
    om = skew_from_entries(3, {(0, 1): 14, (0, 4): -30, (2, 5): 126})
    u_part, sigma_part = skew_decompose(om)
    assert trace_pairing(u_part, sigma_part) == 0
    assert check_wedge_identity(om, sigma_part)
    for name, arrays in seen.items():
        assert arrays, name
        assert exact_kinds(arrays) == {int}, name
        assert {np.asarray(a).dtype for a in arrays} == {np.dtype(np.int64)}, name


# --- int64 alone, and a Python-int reference ----------------------------------

INT64_MIN = int(np.iinfo(np.int64).min)
BOUND_MESSAGE = rf"^entries must be integers of magnitude at most INT64_BOUND = {algebra.INT64_BOUND}$"


def test_int64_bound_leaves_a_wide_margin_at_max_n():
    """The largest sum a check forms on entries in [-B, B], the case-1
    aggregate 5 sum d^2 <= 5 MAX_N^3 (2B)^2, stays 500 times inside int64."""
    B, n = algebra.INT64_BOUND, algebra.MAX_N
    assert B >= 2 * ENTRY_RANGE
    assert 500 * 5 * n**3 * (2 * B) ** 2 < 2**63


def test_exact_holds_int64_only_within_the_bound():
    """An integer array or nested ints inside [-B, B] become a new int64 array;
    an array holding INT64_MIN, whose abs is negative, an entry just past B or
    anything that is not integer is refused."""
    B = algebra.INT64_BOUND
    within = (
        np.array([-B, 0, B]), np.array([[1, -2]], dtype=np.int32), np.zeros((0, 2), np.int64),
        np.array([1, 2], dtype=np.uint8), [[1, 2]],
    )
    for x in within:
        out = algebra._exact(x)
        assert out.dtype == np.int64 and out.tolist() == np.asarray(x).tolist()
        assert not np.shares_memory(out, x)
    wide = (
        np.array([INT64_MIN]), np.array([0, INT64_MIN, 1]), np.array([B + 1]),
        np.array([-B - 1, 0]), np.array([2**62]), np.array([2**63], dtype=np.uint64),
        [[1, 2**70]], [Fraction(1, 2)], [0.0], np.array([True]),
    )
    for x in wide:
        with pytest.raises(ValueError, match=BOUND_MESSAGE):
            algebra._exact(x)


# entries an object refuses, each placed at a skew pair (v, w)
REFUSED = {
    "float": (0.5, -0.5),
    "fraction": (Fraction(1, 2), Fraction(-1, 2)),
    "int64-min": (INT64_MIN, INT64_MIN),  # -INT64_MIN wraps to INT64_MIN in int64
    "past-the-bound": (algebra.INT64_BOUND + 1, -algebra.INT64_BOUND - 1),
    "2**70": (2**70, -(2**70)),
}


def refused_inputs(kind):
    """A 2 x 2 skew matrix, a 2 x 2 x 2 cube and a V of length 2 of ``kind`` entries."""
    if kind == "bool":
        return np.zeros((2, 2), bool), np.zeros((2, 2, 2), bool), np.zeros(2, bool)
    v, w = REFUSED[kind]
    return [[0, v], [w, 0]], [[[0, v], [w, 0]], [[0, 0], [0, 0]]], [v, 0]


@pytest.mark.parametrize("kind", ["float", "bool", "fraction", "int64-min", "past-the-bound", "2**70"])
def test_objects_refuse_entries_that_are_not_bounded_integers(kind):
    """A skew matrix, either cube of a tensor and J1's V each refuse a float, a
    bool array, a Fraction, INT64_MIN, an entry past the bound and an int past
    int64, with one ValueError that names the bound: no such entry reaches a check."""
    matrix, cube, V = refused_inputs(kind)
    zero_cube, zero = np.zeros((2, 2, 2), np.int64), RationalSkewMatrix(1, np.zeros((2, 2), np.int64))
    builds = (
        lambda: RationalSkewMatrix(1, matrix),
        lambda: RationalCTensor(2, cube, zero_cube),
        lambda: RationalCTensor(2, zero_cube, cube),
        lambda: canonical_j1(zero, V),
    )
    for build in builds:
        with pytest.raises(ValueError, match=BOUND_MESSAGE):
            build()


def test_a_pair_that_wraps_to_skew_is_refused_before_the_skew_gate():
    """INT64_MIN + INT64_MIN wraps to 0 in int64, so the pair would pass the
    skew gate's sum; it is refused for its magnitude first.  A float array of
    integral values is refused too."""
    pair = np.array([[0, INT64_MIN], [INT64_MIN, 0]])
    assert pair.dtype == np.int64 and not (pair + pair.T).any()
    with pytest.raises(ValueError, match=BOUND_MESSAGE):
        RationalSkewMatrix(1, pair)
    with pytest.raises(ValueError, match=BOUND_MESSAGE):
        RationalCTensor(2, np.zeros((2, 2, 2)), np.zeros((2, 2, 2), np.int64))


# The sweep's names the package resolves from twistorcheck.algebra on first use.
ALGEBRA_NAMES = (
    "CheckResult",
    "RationalCTensor",
    "RationalSkewMatrix",
    "canonical_j1",
    "check_case1_inequality",
    "check_case2_identities",
    "check_identity_c1",
    "check_wedge_identity",
    "run_algebra_sweep",
    "skew_decompose",
)

FOOTPRINT_CHILD = """\
import json, sys
sys.path.insert(0, sys.argv[1])
from twistorcheck import catalog, cli
cli.build_parser()
catalog.resolve("nk-s6")
watched = ("fractions", "decimal", "twistorcheck.algebra")
codes = [cli.main(["scan", "--manifold", "nk-s6", "--grid", "1", "--out", sys.argv[2]])]
after_scan = sorted(set(watched) & set(sys.modules))
codes.append(cli.main(["verify-algebra", "--samples", "2", "--out", sys.argv[2]]))
import twistorcheck as tc
print(json.dumps({
    "codes": codes,
    "after_scan": after_scan,
    "after_sweep": sorted(set(watched) & set(sys.modules)),
    "same_sweep": tc.run_algebra_sweep is sys.modules["twistorcheck.algebra"].run_algebra_sweep,
    "all": tc.__all__,
}))
"""


def test_importing_the_cli_loads_no_fractions(tmp_path):
    """The package's exact arithmetic is int64 alone, and only verify-algebra
    loads it: a fresh interpreter that takes the benchmark's set-up steps (the
    CLI imported, its parser built, nk-s6 resolved) and runs a scan has loaded
    neither fractions, decimal nor twistorcheck.algebra; verify-algebra then
    loads the sweep, still without fractions or decimal, and the package's
    names for the sweep resolve to it."""
    src = str(Path(algebra.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", FOOTPRINT_CHILD, src, str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout)
    assert found["codes"] == [0, 0]
    assert found["after_scan"] == []
    assert found["after_sweep"] == ["twistorcheck.algebra"]
    assert found["same_sweep"]
    assert set(ALGEBRA_NAMES) <= set(found["all"])


def object_exact(x):
    """The reference arithmetic: the entries of ``x`` as Python ints in an
    object array, on which every check expression runs unbounded."""
    return np.array(x, dtype=object)


@pytest.mark.parametrize(
    "control", [None, ("_beta_of", slipped_beta)], ids=["passing", "slipped-beta"]
)
def test_int64_sweep_report_is_the_object_sweep_report(control, monkeypatch):
    """The sweep on int64 arrays and on the same draws held as Python ints in
    object arrays writes the same report bytes at n = 2, ..., 6, failure texts
    included: no int64 sum wraps, and every sum runs in the arithmetic the
    objects are held in."""
    if control:
        monkeypatch.setattr(algebra, *control)
    total, kinds = algebra._total, []

    def recording(x, axis):
        kinds.append(x.dtype)
        return total(x, axis)

    monkeypatch.setattr(algebra, "_total", recording)
    args = ([2, 3, 4, 5, 6], 45, 21)
    int64 = cli._to_json(run_algebra_sweep(*args))
    assert set(kinds) == {np.dtype(np.int64)}
    monkeypatch.setattr(algebra, "_exact", object_exact)
    kinds.clear()
    assert cli._to_json(run_algebra_sweep(*args)) == int64
    assert set(kinds) == {np.dtype(object)}


def extreme_values(count):
    """Rows of ``count`` entries at +-INT64_BOUND: all plus, all minus, both
    alternations and four seeded random sign patterns."""
    rng = random.Random(17)
    rows = [[1] * count, [-1] * count, [(-1) ** k for k in range(count)],
            [(-1) ** (k + 1) for k in range(count)]]
    rows += [[rng.choice((-1, 1)) for _ in range(count)] for _ in range(4)]
    return algebra.INT64_BOUND * np.array(rows, dtype=np.int64)


def verdicts(res):
    return np.asarray(res.ok).tolist(), [str(x) for x in res.counterexample]


def extreme_results(dtype, monkeypatch):
    """Every check on an extreme batch at MAX_N, its objects held in ``dtype``
    (object: ``_exact`` builds Python ints): verdicts, texts, (top, bottom)
    ratios and built entries, as Python values."""
    with monkeypatch.context() as m:
        if dtype is object:
            m.setattr(algebra, "_exact", object_exact)
        n = algebra.MAX_N
        cubes = algebra._skew_planes(extreme_values(n * n * (n - 1)), n, 2 * n)
        t = RationalCTensor(n, cubes[:, :n], cubes[:, n:])
        rows = extreme_values(n * (2 * n - 1))
        P, Q = (RationalSkewMatrix(n, algebra._skew_planes(r, 2 * n, 1)[:, 0]) for r in (rows, rows[::-1]))
        u_part, sigma_part = skew_decompose(P)
        assert {x.array.dtype for x in (P, Q, u_part, sigma_part)} == {t.cubes.dtype} == {np.dtype(dtype)}
        psi1, v1 = canonical_j1(sigma_part, extreme_values(2 * n))
        psi2, v2 = canonical_j1(psi1, v1)
        res, top, bottom = check_case1_inequality(t)
        out = {
            "c1": verdicts(check_identity_c1(t)),
            "case1": verdicts(res),
            "ratio": (top.tolist(), bottom.tolist()),
            "wedge": verdicts(check_wedge_identity(P, Q)),
        }
        d = t.d.copy()
        d[1, 0, 0, 1, 2] += 1  # one sample's d off by one: failure texts at extreme sums
        t = with_d(t, d)
        res, top, bottom = check_case1_inequality(t)
        out["c1 doctored"] = verdicts(check_identity_c1(t))
        out["case1 doctored"], out["ratio doctored"] = verdicts(res), (top.tolist(), bottom.tolist())
        m.setattr(algebra, "_beta_of", slipped_beta)
        out["wedge slipped"] = verdicts(check_wedge_identity(P, Q))
    arrays = {
        "split": (u_part.array, sigma_part.array),
        "j0 tests": (commutes_with_j0(u_part), anticommutes_with_j0(sigma_part)),
        "pairings": (trace_pairing(u_part, sigma_part), trace_pairing(P, Q)),
        "j1 twice": (psi2.array, v2),
    }
    return out | {k: [np.asarray(x).tolist() for x in v] for k, v in arrays.items()}


def test_extreme_batch_is_the_same_in_int64_and_object_arithmetic(monkeypatch):
    """At MAX_N, with every entry at +-INT64_BOUND in several sign patterns,
    int64 and Python-int arithmetic give the same verdicts, ratios and texts."""
    int64 = extreme_results(np.int64, monkeypatch)
    assert int64 == extreme_results(object, monkeypatch)
    samples = len(int64["c1"][0])
    for name in ("c1", "case1", "wedge"):
        assert int64[name] == ([True] * samples, ["None"] * samples), name
    top, bottom = int64["ratio"]
    assert all(q <= p <= 4 * q for pair in zip(top, bottom) for p, q in zip(*pair))
    for name in ("c1 doctored", "case1 doctored"):
        ok, texts = int64[name]
        assert [k for k in range(samples) if not ok[k]] == [1] and texts[1] != "None", name
    ok, texts = int64["wedge slipped"]
    assert not all(ok) and all(t.startswith("lhs=") for k, t in enumerate(texts) if not ok[k])
    assert int64["j0 tests"] == [[True] * samples] * 2
