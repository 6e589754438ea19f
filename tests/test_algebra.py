"""Exact rational checks: identities, inequalities, decomposition, wedge identity."""

import math
import operator
import random
from fractions import Fraction
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
    run_algebra_sweep,
    skew_decompose,
)
from twistorcheck.algebra import (
    DENOMINATOR_RANGE,
    NUMERATOR_RANGE,
    anticommutes_with_j0,
    commutes_with_j0,
    trace_pairing,
)

F = Fraction


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
        cube = [[[F(0)] * n for _ in range(n)] for _ in range(n)]
        for (i, j, k), v in dict(entries).items():
            cube[i][j][k] = F(v)
            cube[i][k][j] = -F(v)
        cubes.append(tuple(tuple(tuple(r) for r in p) for p in cube))
    return RationalCTensor(n=n, C=cubes[0], Cp=cubes[1])


def skew_from_entries(n, entries):
    dim = 2 * n
    m = [[F(0)] * dim for _ in range(dim)]
    for (a, b), v in dict(entries).items():
        m[a][b] = F(v)
        m[b][a] = -F(v)
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
        bad = [[[F(0)] * 2 for _ in range(2)] for _ in range(2)]
        bad[0][0][1] = F(1)  # no mirror: breaks antisymmetry in (j, k)
        frozen = tuple(tuple(tuple(r) for r in p) for p in bad)
        with pytest.raises(ValueError):
            RationalCTensor(n=2, C=frozen, Cp=frozen)

    def test_n_bounds(self):
        with pytest.raises(ValueError):
            RationalCTensor.random(1, random.Random(0))
        with pytest.raises(ValueError):
            RationalCTensor.random(7, random.Random(0))


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
        ok, worst = check_case1_inequality(tensor_from_entries(3, {(0, 1, 2): 1}))
        assert ok
        # 4 (C_123^2 + C_132^2) = 8 over d_123^2 + d_132^2 + d_213^2 + d_312^2 = 4
        assert worst == F(2)

    def test_zero_tensor(self):
        ok, worst = check_case1_inequality(tensor_from_entries(3, {}))
        assert ok and worst == 0

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_random_sweep_and_ratio_cap(self, n):
        rng = random.Random(200 + n)
        worst_seen = F(0)
        for _ in range(200):
            ok, worst = check_case1_inequality(RationalCTensor.random(n, rng))
            assert ok
            assert 1 <= worst <= 4
            worst_seen = max(worst_seen, worst)
        # per orbit, 4 sum C^2 = 4 sum d^2 - (d+d+d)^2, so the aggregate never tops 4
        assert worst_seen <= 4


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
        om = skew_from_entries(2, {(0, 1): 1})
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
            RationalSkewMatrix(n=2, entries=(
                (0, 1, -1, 5), (-1, 0, 7, 2), (1, -7, 0, 4), (-5, -2, -4, 0))),
            skew_from_entries(2, {(0, 1): F(1, 3), (0, 3): F(-5, 7), (1, 2): F(2, 9)}),
        ],
        ids=["odd-int", "fraction"],
    )
    def test_exact_halves(self, om):
        """Halving is exact: odd ints give Fraction halves, never a float or a floor."""
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
                assert isinstance(u, (int, Fraction)) and isinstance(s, (int, Fraction))
                assert 2 * u == om.entries[a][b] - conj[a][b]
                assert 2 * s == om.entries[a][b] + conj[a][b]
        assert any(isinstance(x, Fraction) for row in u_part.entries for x in row)

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
        e1 = tuple(F(1) if i == 0 else F(0) for i in range(4))
        psi1, v1 = canonical_j1(zero, e1)
        assert v1 == (F(0), F(0), F(1), F(0))  # -e1 J0 = +e3
        psi2, v2 = canonical_j1(psi1, v1)
        assert v2 == tuple(-x for x in e1)
        assert all(x == 0 for row in psi2.entries for x in row)

    def test_matrix_slot_square(self):
        rng = random.Random(77)
        psi = random_sigma_matrix(2, rng)
        zero_v = tuple(F(0) for _ in range(4))
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
            V = tuple(F(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(2 * n))
            psi1, v1 = canonical_j1(psi, V)
            psi2, v2 = canonical_j1(psi1, v1)
            assert v2 == tuple(-x for x in V)
            assert psi2.entries == tuple(tuple(-x for x in row) for row in psi.entries)

    def test_not_in_sigma(self):
        with pytest.raises(NotInSigma):
            canonical_j1(j0_skew(2), tuple(F(0) for _ in range(4)))


class TestWedgeIdentity:
    def test_equal_arguments(self):
        rng = random.Random(8)
        P = RationalSkewMatrix.random(2, rng)
        assert check_wedge_identity(P, P)

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
            RationalSkewMatrix(n=1, entries=((F(1), F(0)), (F(0), F(0))))

    def test_from_rows(self):
        m = skew_from_rows(1, [[0, 1], [-1, 0]])
        assert m.entries[0][1] == 1


def skew_from_rows(n, rows):
    """The skew matrix with the given rows, entries as Fractions."""
    return RationalSkewMatrix(n=n, entries=[[F(x) for x in row] for row in rows])


def scaled_draws(rng, count):
    """``count`` random rationals times the lcm of their denominators, as the sweep draws V."""
    return algebra._scaled(algebra._draw_pairs(rng, count))


def reference_draw(rng, count):
    """Fraction draws making the rng calls of the integer path, with their lcm.

    The lcm is taken over the denominators as drawn, before Fraction reduces them.
    """
    pairs = [
        (rng.randint(-NUMERATOR_RANGE, NUMERATOR_RANGE), rng.randint(1, DENOMINATOR_RANGE))
        for _ in range(count)
    ]
    return [Fraction(p, q) for p, q in pairs], math.lcm(*(q for _, q in pairs))


def assert_scaled(ints, fractions, scale):
    assert len(ints) == len(fractions)
    for x, ref in zip(ints, fractions):
        assert type(x) is int
        assert x == ref * scale


def assert_skew_scaled(rng, ref_rng, n):
    """A random skew matrix carries twice the lcm, so its halves are ints too."""
    dim = 2 * n
    upper = [(a, b) for a in range(dim) for b in range(a + 1, dim)]
    m = RationalSkewMatrix.random(n, rng)
    ref, lcm = reference_draw(ref_rng, len(upper))
    assert_scaled([m.entries[a][b] for a, b in upper], ref, 2 * lcm)
    assert all(type(x) is int for row in m.entries for x in row)


class ScriptedRandom(random.Random):
    """A Random whose 32-bit words come from a script, served as CPython serves
    them: getrandbits(k) is the next word shifted right by 32 - k for k <= 32,
    and the next k / 32 words, least significant first, for a multiple of 32."""

    def __init__(self, words):
        super().__init__(0)
        self.words, self.used, self.requests = list(words), 0, []

    def getrandbits(self, k):
        self.requests.append(k)
        count = max(1, k // 32)
        assert k <= 32 or k % 32 == 0
        words = self.words[self.used:self.used + count]
        assert len(words) == count, "script exhausted"
        self.used += count
        if k <= 32:
            return words[0] >> (32 - k)
        return sum(w << (32 * i) for i, w in enumerate(words))


def randint_pairs(rng, count):
    return [
        [rng.randint(-NUMERATOR_RANGE, NUMERATOR_RANGE), rng.randint(1, DENOMINATOR_RANGE)]
        for _ in range(count)
    ]


# Words by how randint's two loops read them: LOW fills either slot, MID only a
# denominator slot, HIGH neither.
LOW = (0, algebra._NUMERATOR_CUT - 1, 1234567890, 3_000_000_000)
MID = (algebra._NUMERATOR_CUT, algebra._DENOMINATOR_CUT - 1)
HIGH = (algebra._DENOMINATOR_CUT, 2**32 - 1)
A, B, C, D = LOW


@pytest.mark.parametrize(
    "count, words, requests",
    [
        # a numerator slot rejects a middle word, the next numerator is pending
        (2, [A, B, MID[0], C, D], [128, 32]),
        # a denominator slot accepts a middle word
        (1, [A, MID[1]], [64]),
        # no slot accepts a high word
        (1, [HIGH[0], A, B], [64, 32]),
        (1, [A, HIGH[1], B], [64, 32]),
        # a block that ends on an accepted numerator
        (2, [A, B, C, HIGH[0], D], [128, 32]),
        # the slot parity after several rejections, over three blocks
        (3, [MID[0], MID[1], A, MID[0], MID[1], B, HIGH[0], MID[0], C, D], [192, 96, 32]),
    ],
)
def test_block_draw_parses_words_as_randint(count, words, requests):
    """Each branch of the block parser gives randint's pairs and leaves the rng
    where randint leaves it, drawing only the words the missing pairs can use."""
    rng, ref = ScriptedRandom(words), ScriptedRandom(words)
    assert algebra._draw_pairs(rng, count).tolist() == randint_pairs(ref, count)
    assert rng.used == ref.used == len(words)
    assert rng.requests == requests


@pytest.mark.parametrize("count", [1, 2, 7, 1728])
def test_block_draw_is_a_randint_loop(count):
    rng, ref = random.Random(1300 + count), random.Random(1300 + count)
    pairs = algebra._draw_pairs(rng, count)
    assert pairs.shape == (count, 2) and pairs.dtype == object
    assert pairs.tolist() == randint_pairs(ref, count)
    assert all(type(x) is int for x in pairs.flat)
    assert rng.getstate() == ref.getstate()
    pair = algebra.random_fraction(rng)
    assert type(pair) is tuple and list(pair) == randint_pairs(ref, 1)[0]
    assert rng.getstate() == ref.getstate()


def test_sweep_draws_a_chunk_in_a_few_blocks(monkeypatch):
    """A sweep chunk reads its words through a few getrandbits calls, with no
    call of random_fraction."""
    calls = []

    class Counting(random.Random):
        def getrandbits(self, k):
            calls.append(k)
            return super().getrandbits(k)

    samples = 200
    expected = run_algebra_sweep([2, 3], samples=samples, seed=0)
    monkeypatch.setattr(algebra, "random", SimpleNamespace(Random=Counting))
    monkeypatch.setattr(algebra, "random_fraction", None)
    assert run_algebra_sweep([2, 3], samples=samples, seed=0) == expected
    chunks = 2 * -(-samples // algebra.ALGEBRA_CHUNK)
    assert chunks <= len(calls) <= 4 * chunks


@pytest.mark.parametrize("n", [2, 3, 4])
def test_integer_draws_are_scaled_reference_draws(n):
    """Each sampled object equals its Fraction draw times a positive common scale."""
    rng, ref_rng = random.Random(900 + n), random.Random(900 + n)
    dim = 2 * n
    slots = [(i, j, k) for i in range(n) for j in range(n) for k in range(j + 1, n)]
    for _ in range(20):
        t = RationalCTensor.random(n, rng)
        for cube in (t.C, t.Cp):
            ref, lcm = reference_draw(ref_rng, len(slots))
            assert_scaled([cube[i][j][k] for i, j, k in slots], ref, lcm)
            assert all(cube[i][k][j] == -cube[i][j][k]
                       for i in range(n) for j in range(n) for k in range(n))
        assert_skew_scaled(rng, ref_rng, n)  # the decomposed matrix
        ref, lcm = reference_draw(ref_rng, dim)
        assert_scaled(scaled_draws(rng, dim), ref, lcm)  # V
        assert_skew_scaled(rng, ref_rng, n)  # the wedge partner
        assert rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("n", [3, 4])
def test_case1_ratio_is_scale_free(n):
    """An int sample and its Fraction reference give the same verdict and worst ratio."""
    rng, ref_rng = random.Random(950 + n), random.Random(950 + n)
    slots = [(i, j, k) for i in range(n) for j in range(n) for k in range(j + 1, n)]
    for _ in range(20):
        ok, worst = check_case1_inequality(RationalCTensor.random(n, rng))
        c_ref = zip(slots, reference_draw(ref_rng, len(slots))[0])
        cp_ref = zip(slots, reference_draw(ref_rng, len(slots))[0])
        ref_ok, ref_worst = check_case1_inequality(tensor_from_entries(n, c_ref, cp_ref))
        assert ok and ref_ok
        assert type(worst) is Fraction and worst == ref_worst


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
        # the sweep hands the check a chunk of samples and gets one ratio per sample
        res, ratio = check(t)
        seen.setdefault(t.n, []).extend(ratio)
        return res, ratio

    monkeypatch.setattr(algebra, "check_case1_inequality", recording)
    report = run_algebra_sweep([2, 3, 4], samples=15, seed=5)
    assert [slot["n"] for slot in report["worst_case1"]] == [3, 4]
    for slot in report["worst_case1"]:
        ratios = seen[slot["n"]]
        assert Fraction(slot["ratio"]) == max(ratios)
        assert slot["sample"] == ratios.index(max(ratios))
    # the value depends on the draws: another seed names another ratio
    other = run_algebra_sweep([3], samples=15, seed=6)["worst_case1"][0]
    assert other["ratio"] != report["worst_case1"][0]["ratio"]


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
    rows = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    listed = RationalSkewMatrix(n=2, entries=rows)
    tupled = RationalSkewMatrix(n=2, entries=tuple(map(tuple, rows)))
    sigma = RationalSkewMatrix(n=2, entries=SIGMA_ROWS)
    assert anticommutes_with_j0(sigma) and not commutes_with_j0(sigma)
    (u, s), (u_ref, s_ref) = skew_decompose(listed), skew_decompose(tupled)
    assert u.entries == u_ref.entries and s.entries == s_ref.entries
    assert commutes_with_j0(listed) == commutes_with_j0(tupled)
    assert anticommutes_with_j0(listed) == anticommutes_with_j0(tupled)
    assert trace_pairing(listed, sigma) == trace_pairing(tupled, sigma) == 2
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
            (ok, ratio), (ref_ok, ref_ratio) = check_case1_inequality(t), check_case1_inequality(ref)
            assert ok and ref_ok and ratio == ref_ratio


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
    rows[2][2] = F(1, 2)
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
    """A Fraction against its negated Fraction and an int 0 against Fraction(0)
    are skew, in a matrix and in a cube."""
    rows = [[0, F(1, 3), 0, 0], [F(-1, 3), F(0), 0, 0], [F(0), 0, 0, 0], [0, 0, 0, F(0)]]
    assert RationalSkewMatrix(2, rows).entries[1][0] == F(-1, 3)
    cube = nested_lists(3, {(0, 1, 2): F(1, 3)})
    cube[0][1][0], cube[2][1][1] = F(0), F(0)
    assert RationalCTensor(3, cube, nested_lists(3, {})).C[0, 2, 1] == F(-1, 3)


def part_ratio(c, d):
    """One cube's 4 sum C^2 / sum d^2, 0 where d vanishes."""
    total = sum(x * x for x in np.ravel(d))
    return Fraction(4 * sum(x * x for x in np.ravel(c)), total) if total else 0


def test_case1_ratio_is_the_larger_of_the_two_cubes():
    """Per sample the ratio is max over C and C' of 4 sum C^2 / sum d^2, with a
    tie, one vanishing d and two, and a sample whose C' fails, whose ratio reads C."""
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
    res, ratio = check_case1_inequality(with_d(t, d))
    assert list(res.ok) == [True, True, True, False]
    assert res.counterexample[3].startswith("C' ")
    assert all(type(r) is Fraction for r in ratio)
    for k in range(3):
        parts = [part_ratio(t.cubes[k, m], d[k, m]) for m in range(2)]
        assert ratio[k] == max(parts)
    assert part_ratio(t.C[0], d[0, 0]) == part_ratio(t.Cp[0], d[0, 1]) > 0
    assert ratio[1] > 0 and ratio[2] == 0
    failed_c = part_ratio(t.C[3], d[3, 0])
    assert ratio[3] == failed_c < part_ratio(t.Cp[3], d[3, 1])


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
        res, ratio = check_case1_inequality(t)
        alone_results = [check_case1_inequality(s) for s in singles]
        assert_same_verdicts(res, [r for r, _ in alone_results])
        assert list(ratio) == [r for _, r in alone_results]
        assert all(type(r) is Fraction for r in ratio)
        assert not res.ok[MIDDLE]
        # a failure in C keeps no ratio; one in C' keeps C's
        assert (ratio[MIDDLE] == 0) == (cube == 0)


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
    V = np.array([[10 * k + b for b in range(2 * n)] for k in range(SIZE)], dtype=object)
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
    compares are ints or Fractions, through a sweep and on Fraction inputs."""
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
    t = tensor_from_entries(3, {(0, 1, 2): F(1, 3), (1, 0, 2): F(-2, 5)}, {(2, 1, 0): F(7, 2)})
    assert check_identity_c1(t) and check_case1_inequality(t)[0]
    assert check_case2_identities(tensor_from_entries(2, {(0, 1, 0): F(1, 3)}, {(1, 0, 1): F(5, 7)}))
    om = skew_from_entries(3, {(0, 1): F(1, 3), (0, 4): F(-5, 7), (2, 5): 3})
    u_part, sigma_part = skew_decompose(om)
    assert trace_pairing(u_part, sigma_part) == 0
    assert check_wedge_identity(om, sigma_part)
    for name, arrays in seen.items():
        assert arrays, name
        assert exact_kinds(arrays) == {int, Fraction}, name
