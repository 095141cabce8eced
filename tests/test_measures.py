import hashlib
import math
import random
from itertools import chain, compress, islice

import numpy as np
import pytest

from affdim import CaseTag, InvalidSystemError, chain_density, decompose, validate_system
from affdim.hausdorff import LAW_PRECISION, _last_level, _levels, chain_potential, dimension as dim_h
from affdim.measures import (
    PrefixMeasure,
    _laws,
    _stream,
    chain_measure,
    empirical_local_dimension,
    letter_measure,
    pair_measure,
    sample_prefix,
    stationary_chain_measure,
)
from affdim.oracle import admissible_words, window_pairs
from conftest import (
    BATTERY,
    FULL3,
    GOLDEN,
    MIXED3,
    SPARSE5,
    SWAP,
    mp_fixed_point,
    random_irreducible,
    sys_full,
    sys_golden,
)


PERIODIC3 = ((0, 1, 1), (1, 0, 0), (1, 0, 0))
#: (matrix, p, q, a, b) over every case tag and matrix shape the sampler sees
SAMPLED_SYSTEMS = [(GOLDEN, *pqab) for pqab in BATTERY] + [
    (PERIODIC3, 1, 2, 0, 0),
    (PERIODIC3, 2, 4, 0, 0),
    (MIXED3, 4, 6, 1, 3),
    (MIXED3, 2, 5, 1, 0),
    (SPARSE5, 2, 4, 0, 1),
]

#: sha256 of repr((first, transitions)) of ``chain_measure(i, s)`` for
#: i = 1..15 on each divisible-general entry of SAMPLED_SYSTEMS, recorded
#: while the laws came from the per-length chain-potential tables; golden
#: (2,3;0,0) and (4,6;1,3) share p1/q1 = 2/3, so their laws agree
CHAIN_LAW_DIGESTS = [
    (GOLDEN, (2, 3, 0, 0), "53c28fa72e74c5a0e78a39275c70f81fbc59975d398300b2f2575b0d1b8f439e"),
    (GOLDEN, (3, 5, 1, 2), "2b1f1fa0c2f245c0942e744349799f6168d13d49cd0af5be8140807652563097"),
    (GOLDEN, (4, 6, 1, 3), "53c28fa72e74c5a0e78a39275c70f81fbc59975d398300b2f2575b0d1b8f439e"),
    (MIXED3, (4, 6, 1, 3), "03dfa39e6491092c34fb206ce5cda65258c29c607ac488b07719253098fe095b"),
    (MIXED3, (2, 5, 1, 0), "64d0d3b693f4745c162630dd8c42eec171216e8fae783ddfaa7f4e3983b3da87"),
]

#: sha256 of repr((first, transitions)) of ``pair_measure`` on golden
#: (2,4;0,1), MIXED3 and SPARSE5 (4,6;0,1), then ``stationary_chain_measure``
#: for (1,2;0,0) and (2,4;0,0) on each of the three, recorded when the
#: infinite chains began to read stream level N instead of the fixed point
VIEW_LAW_DIGEST = "01faa4e050e8f1b91afd44f4866ab8f1876251c8bc674246db860d7e4de8c12a"


def marginal_entropy(measure, matrix, j: int) -> float:
    """H(alpha_j) in base m from the measure's j-letter marginals."""
    total = 0.0
    for word in admissible_words(matrix, j):
        p = measure.word_probability(word)
        if p > 0:
            total -= p * math.log(p)
    return total / math.log(matrix.m)


class TestLetterMeasure:
    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_uniform(self, m):
        mu = letter_measure(m)
        assert mu.first == tuple(1.0 / m for _ in range(m))
        assert sum(mu.first) == pytest.approx(1.0)

    def test_entropy_is_one(self, golden):
        mu = letter_measure(2)
        assert marginal_entropy(mu, golden, 1) == pytest.approx(1.0, abs=1e-12)


class TestPairMeasure:
    def test_golden_values(self):
        mu = pair_measure(sys_golden(2, 4, 0, 1))
        root2 = math.sqrt(2)
        assert mu.first[0] == pytest.approx(root2 / (1 + root2), abs=1e-12)
        assert mu.word_probability((0, 1)) == pytest.approx(
            (1 / root2) / (1 + root2), abs=1e-12
        )
        assert mu.word_probability((0, 0)) == mu.word_probability((0, 1))
        assert mu.word_probability((1, 1)) == 0.0

    def test_full_matrix_uniform_pairs(self):
        mu = pair_measure(sys_full(2, 4, 0, 1))
        for x in range(2):
            for y in range(2):
                assert mu.word_probability((x, y)) == pytest.approx(0.25, abs=1e-12)

    def test_rejects_divisible(self):
        with pytest.raises(InvalidSystemError):
            pair_measure(sys_golden(2, 4, 0, 0))

    @pytest.mark.parametrize("d", [2, 3, 10**20 + 39])
    def test_equals_python_sums_at_p_over_q(self, d):
        # the length-2 chain of the stream at p1/q1 is the pair law at p/q,
        # normalized by Python's left-to-right sum
        for rows in (GOLDEN, MIXED3, SPARSE5):
            s = validate_system(2 * d, 3 * d, 0, 1, rows)
            assert s.case_tag is CaseTag.NON_DIVISIBLE
            weights = [r ** (s.p / s.q) for r in s.matrix.row_sums]
            first = tuple(w / sum(weights) for w in weights)
            uniform = tuple(tuple(a / sum(row) for a in row) for row in rows)
            mu = pair_measure(s)
            assert (mu.first, mu.transitions) == (first, (uniform,))


class TestChainMeasure:
    def test_length_one_is_uniform(self):
        mu = chain_measure(1, sys_golden(2, 3, 0, 0))
        assert mu.first == (0.5, 0.5)

    def test_pair_first_letter_golden(self):
        mu = chain_measure(2, sys_golden(2, 3, 0, 0))
        # first letters weighted by row sum^(S2/S1), S2/S1 = (1/9)/(1/6) = 2/3
        t = 2 ** (2 / 3)
        assert mu.first[0] == pytest.approx(t / (t + 1), abs=1e-12)
        assert mu.word_probability((1, 1)) == 0.0

    @pytest.mark.parametrize("i", [2, 3, 4])
    def test_marginal_consistency_random(self, i):
        rng = random.Random(2024 + i)
        for _ in range(8):
            mat = random_irreducible(rng.choice((2, 3)), rng)
            s = validate_system(2, 3, 0, 0, mat)
            mu = chain_measure(i, s)
            for j in range(1, i):
                for word in admissible_words(mat, j):
                    lhs = mu.word_probability(word)
                    rhs = sum(mu.word_probability(word + (y,)) for y in range(mat.m))
                    assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_probabilities_normalized_and_positive(self):
        s = sys_golden(2, 3, 0, 0)
        for i in (2, 3, 4):
            mu = chain_measure(i, s)
            words = admissible_words(s.matrix, i)
            probs = [mu.word_probability(w) for w in words]
            assert sum(probs) == pytest.approx(1.0, abs=1e-12)
            assert all(p > 0 for p in probs)

    @pytest.mark.parametrize("rows, pqab, digest", CHAIN_LAW_DIGESTS)
    def test_laws_pinned(self, rows, pqab, digest):
        # lengths 1..15 reach past the families that the sample pins draw
        s = validate_system(*pqab, rows)
        h = hashlib.sha256()
        for i in range(1, 16):
            mu = chain_measure(i, s)
            h.update(repr((mu.first, mu.transitions)).encode())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("pqab", [(2, 3, 0, 0), (3, 5, 1, 2), (2, 5, 1, 0), (3, 8, 2, 0)])
    def test_laws_equal_the_chain_potential_tables(self, pqab):
        # the reference: first letters u[0]^e0 / value, and after level l the
        # row x weights an admissible y by u[l][y]^e_l / u[l-1][x]
        rng = random.Random(sum(pqab))
        for rows in [GOLDEN, MIXED3, SPARSE5, PERIODIC3] + [
            random_irreducible(m, rng) for m in (2, 3, 4, 5)
        ]:
            s = validate_system(*pqab, rows)
            for i in range(2, 9):
                pot = chain_potential(i, s)
                e, u = pot.exponents, pot.u
                first = tuple(ux ** e[0] / pot.value for ux in u[0])
                transitions = tuple(
                    tuple(
                        tuple(u[l][y] ** e[l] / u[l - 1][x] if edge else 0.0
                              for y, edge in enumerate(row))
                        for x, row in enumerate(s.matrix.rows)
                    )
                    for l in range(1, i)
                )
                mu = chain_measure(i, s)
                assert (mu.first, mu.transitions) == (first, transitions)

    def test_entropy_identity(self):
        # weighted marginal entropies collapse to the potential payoff
        rng = random.Random(77)
        mats = [GOLDEN] + [random_irreducible(3, rng) for _ in range(3)]
        for rows in mats:
            s = validate_system(2, 3, 0, 0, rows)
            for i in (2, 3, 4):
                mu = chain_measure(i, s)
                pot = chain_potential(i, s)
                lhs = sum(
                    float(chain_density(i, j, s)) * marginal_entropy(mu, s.matrix, j)
                    for j in range(1, i + 1)
                )
                rhs = float(pot.weight()) * pot.log_value()
                assert lhs == pytest.approx(rhs, abs=1e-10)


class TestChainLaws:
    @staticmethod
    def reference(s, count):
        """The laws of the first ``count`` stream levels as Python floats,
        each normalized by Python's left-to-right ``sum``."""
        def normalized(weights):
            total = sum(weights)
            return [w / total for w in weights]

        stream = islice(chain([[1.0] * s.m], _levels(s.matrix, s.p1 / s.q1)), count)
        return [
            (normalized(w), [normalized([a * wy for a, wy in zip(row, w)]) for row in s.matrix.rows])
            for w in stream
        ]

    @pytest.mark.parametrize("m", range(2, 13))
    def test_arrays_equal_python_sums(self, m):
        # the cumsum's last column adds left to right as sum() does, so the
        # array laws are bit-equal to the per-level tuples: each block's
        # last row is the first-letter law, the rows before it the
        # transitions
        rng = random.Random(1900 + m)
        for _ in range(12):
            pqab = rng.choice([
                (2, 3, 0, 0), (3, 5, 1, 2), (2, 5, 1, 0), (3, 8, 2, 0), (4, 6, 1, 3),
                (4, 6, 0, 1), (6, 9, 0, 1), (1, 2, 0, 0), (2, 4, 0, 0),
            ])
            s = validate_system(*pqab, random_irreducible(m, rng))
            count = rng.randint(1, 30)
            laws = _laws(s, _stream(s, count))
            expected = self.reference(s, count)
            assert laws[:, -1].tolist() == [first for first, _ in expected]
            assert laws[:, :-1].tolist() == [level_rows for _, level_rows in expected]


class TestStationaryMeasure:
    def test_rows_are_stochastic(self):
        mu = stationary_chain_measure(sys_golden(1, 2, 0, 0))
        assert sum(mu.first) == pytest.approx(1.0, abs=1e-12)
        for row in mu.transition(1):
            assert sum(row) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_finite_chain_case(self):
        with pytest.raises(InvalidSystemError):
            stationary_chain_measure(sys_golden(2, 3, 0, 0))

    #: the float rounding of the stream and of the normalization: each level
    #: is within about (1 + r (m - 1)) / (1 - r) ulp of the exact map's, in
    #: both weights of a ratio, and a law adds m ulp; under 32 ulp for m <= 5
    ROUNDING = 2.0**-48

    def test_laws_hold_the_fixed_point(self):
        # every law of infinite chains reads stream level N, which lies
        # within relative LAW_PRECISION of the laws of the fixed point
        # t^q1 = A t, here a 45-digit mpmath one
        import mpmath as mp

        checked = 0
        for rows in (GOLDEN, SWAP, FULL3, MIXED3, SPARSE5, PERIODIC3):
            for q1 in (2, 3, 7, 24):
                s = validate_system(1, q1, 0, 0, rows)
                mu = stationary_chain_measure(s)
                with mp.workdps(45):
                    t = mp_fixed_point(rows, q1)
                    laws = [[x / mp.fsum(t) for x in t]]
                    laws += [[a * y / mp.fsum(compress(t, row)) for a, y in zip(row, t)] for row in rows]
                    for got, exact in zip([mu.first, *mu.transition(1)], laws):
                        for g, e in zip(got, exact):
                            assert abs(g - e) <= (LAW_PRECISION + self.ROUNDING) * e, (rows, q1)
                checked += 1
        assert checked == 24

    def test_pair_and_stationary_laws_pinned(self):
        h = hashlib.sha256()
        views = [(pair_measure, GOLDEN, (2, 4, 0, 1))]
        views += [(pair_measure, rows, (4, 6, 0, 1)) for rows in (MIXED3, SPARSE5)]
        views += [
            (stationary_chain_measure, rows, pqab)
            for pqab in [(1, 2, 0, 0), (2, 4, 0, 0)]
            for rows in (GOLDEN, MIXED3, SPARSE5)
        ]
        for view, rows, pqab in views:
            mu = view(validate_system(*pqab, rows))
            h.update(repr((mu.first, mu.transitions)).encode())
        assert h.hexdigest() == VIEW_LAW_DIGEST


class TestSampling:
    def test_deterministic_per_seed(self):
        s = sys_golden(1, 2, 0, 0)
        a = sample_prefix(s, 500, seed=42)
        b = sample_prefix(s, 500, seed=42)
        c = sample_prefix(s, 500, seed=43)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize(
        "pqab", [(1, 2, 0, 0), (2, 3, 0, 0), (2, 4, 0, 1), (2, 4, 0, 0), (4, 6, 1, 3)]
    )
    def test_samples_are_admissible(self, pqab):
        s = sys_golden(*pqab)
        word = sample_prefix(s, 600, seed=7)
        for u, v in window_pairs(600, s):
            assert s.matrix.rows[word[u - 1]][word[v - 1]] == 1

    def test_full_matrix_iid_uniform(self):
        s = sys_full(1, 2, 0, 0)
        word = sample_prefix(s, 20_000, seed=1)
        assert abs(word.mean() - 0.5) < 0.02

    def test_prefix_probability_matches_sampler(self):
        s = sys_golden(2, 3, 0, 0)
        pm = PrefixMeasure(s, 40)
        letters, neg_log2 = pm.sample(np.random.default_rng(5))
        evaluated = pm.neg_log_prob(letters)
        assert evaluated == pytest.approx(neg_log2 / math.log2(s.m), abs=1e-9)

    def test_prefix_probability_of_excluded_word(self):
        s = sys_golden(1, 2, 0, 0)
        pm = PrefixMeasure(s, 4)
        assert pm.neg_log_prob([1, 1, 0, 0]) == math.inf  # x1 x2 = 11 excluded

    @pytest.mark.parametrize("letter", [-1, 2])
    def test_prefix_probability_rejects_letters_outside_alphabet(self, letter):
        # -1 would otherwise index the last table row and score as letter 1
        pm = PrefixMeasure(sys_golden(2, 3, 0, 0), 6)
        word = [0, 0, 1, 0, 0, 0]
        assert math.isfinite(pm.neg_log_prob(word))
        word[2] = letter
        with pytest.raises(ValueError, match="letters"):
            pm.neg_log_prob(word)

    @pytest.mark.parametrize(
        "pqab, digest",
        [
            ((2, 3, 0, 0), "e31a53585ce49a5fdd0a2105436bcc49916da8e3ec4195b7962b6605074f9114"),
            ((4, 6, 1, 3), "a30d6f6e2da33b326815135f328284101dbc0b8c74ae3379eb98ab1b423605fa"),
            ((1, 2, 0, 0), "cab689db97059eeff4eb042ac09e07ff95b754d5c2464ece1b2fda9e3432aa46"),
            ((2, 4, 0, 1), "f36e467bf24e0c199b5a697966e6cc457293dca2e92b248c4ae8ab971ae08d44"),
            ((2, 4, 0, 0), "dcfd7496c1cf4f0d9c853de1a85d1395fb423aa280d94b494eef604f3ec5c62d"),
        ],
    )
    def test_sample_prefix_pinned(self, pqab, digest):
        # sha256 of the letters as the `sample` command prints them, recorded
        # from the sampler built on the per-chain `decompose` walk
        letters = sample_prefix(sys_golden(*pqab), 5000, seed=11)
        text = "".join(str(int(v)) for v in letters)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "rows, pqab, digest",
        [
            (PERIODIC3, (1, 2, 0, 0), "ef9a39916dc6356ae3fe74b74ebfe239ba64b80bde323b895d204306cd11b475"),
            (MIXED3, (4, 6, 1, 3), "1ba38e086af88a1a7976ae5935a67e1d2810ccf1bca016cd4954dcce12a07b6a"),
            (MIXED3, (2, 5, 1, 0), "224edb00cb37067ba55cc10af84f11665846439855ba08d9871e835d86e3a472"),
            (SPARSE5, (2, 4, 0, 1), "e3d37ebc0a063c7761ff3b3a08a5600ce41acde45eebff64870756e68dc9afc5"),
        ],
    )
    def test_sample_prefix_pinned_beyond_golden(self, rows, pqab, digest):
        # recorded like the golden pins, from the sampler that regrouped the
        # chains into families and walked the successor map per family
        letters = sample_prefix(validate_system(*pqab, rows), 5000, seed=11)
        text = "".join(str(int(v)) for v in letters)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "pqab, n, neg_log2, local",
        [
            ((1, 2, 0, 0), 37, "0x1.d9d721319be46p+4", ("0x1.9f6bf304eadd4p-1", "0x1.b807e000ab94dp-7")),
            ((1, 2, 0, 0), 50_000, "0x1.3dcc1dc5d807cp+15", ("0x1.9f610c72f2ed4p-1", "0x1.90d2b9ec32636p-12")),
            ((2, 4, 0, 0), 37, "0x1.0cd65c59620e3p+5", ("0x1.d104155c56952p-1", "0x1.255a9555c7b71p-7")),
            ((2, 4, 0, 0), 50_000, "0x1.6210bc301692cp+15", ("0x1.cf815518f3c8ep-1", "0x1.02d062515dba5p-12")),
            ((2, 4, 0, 1), 37, "0x1.071a8a7cde05ap+5", ("0x1.ce04652b037f5p-1", "0x1.2bc8ca3fe85d7p-6")),
            ((2, 4, 0, 1), 50_000, "0x1.5a4aaa47ce785p+15", ("0x1.c576196f67430p-1", "0x1.33b61b2f7d4dbp-12")),
            ((2, 3, 0, 0), 37, "0x1.044fcd91a0838p+5", ("0x1.c6d1ce8e47286p-1", "0x1.cabd830e6fc98p-7")),
            ((2, 3, 0, 0), 50_000, "0x1.5427901e75b20p+15", ("0x1.bd45530f5838ep-1", "0x1.e39e8c31c02cap-14")),
            ((4, 6, 1, 3), 37, "0x1.16041ad38c08dp+5", ("0x1.e373cdcbb202fp-1", "0x1.b55dd1b9d3468p-7")),
            ((4, 6, 1, 3), 50_000, "0x1.6d6b6f1948c8ep+15", ("0x1.deb66962e216fp-1", "0x1.f1fa55b84202ap-13")),
        ],
    )
    def test_float_bits_pinned(self, pqab, n, neg_log2, local):
        # float.hex of the draw's -log2 P (seed 11) and of the local
        # dimension's (mean, stderr) (seed 3, 4 samples), one system per case
        # tag, recorded while the draw walked the positions level by level
        # through per-level index arrays; the p1 = 1 rows were re-recorded
        # when the infinite chains began to read stream level N
        s = sys_golden(*pqab)
        _, value = PrefixMeasure(s, n).sample(np.random.default_rng(11))
        assert value.hex() == neg_log2
        mean, stderr = empirical_local_dimension(s, n, seed=3, samples=4)
        assert (mean.hex(), stderr.hex()) == local

    @pytest.mark.parametrize("system", SAMPLED_SYSTEMS)
    @pytest.mark.parametrize("n", [10, 1000, 50_000])
    def test_score_of_a_sample_is_its_draw_probability(self, system, n):
        # scoring reads the same per-position log2 table the draw filled,
        # and sums it in the same order, so the two agree exactly
        rows, *pqab = system
        s = validate_system(*pqab, rows)
        pm = PrefixMeasure(s, n)
        for seed in range(4):
            letters, neg_log2 = pm.sample(np.random.default_rng(seed))
            assert pm.neg_log_prob(letters) == neg_log2 / math.log2(s.m)


class TestLawTable:
    @staticmethod
    def expected(family, s, depth):
        """The table of ``family`` over ``depth`` levels, every law normalized
        by Python's left-to-right ``sum``: singletons 1/m, pairs row sums to
        the power p/q, "inf" the stream level N of ``hausdorff._last_level``
        at every level, and divisible-general lengths the stream of
        ``TestChainLaws.reference``."""
        def normalized(weights):
            total = sum(weights)
            return [w / total for w in weights]

        def row_laws(w):
            return [normalized([a * wy for a, wy in zip(row, w)]) for row in s.matrix.rows]

        zero = [[0.0] * s.m] * s.m
        if family == "inf":
            _, N, _ = _last_level(s, s.q1 - 1, LAW_PRECISION / math.log2(s.m))
            first, rows = TestChainLaws.reference(s, N + 1)[-1]
            return [[first] * s.m] + [rows] * (depth - 1)
        if family == 1:
            return [[[1 / s.m] * s.m] * s.m] + [zero] * (depth - 1)
        if s.case_tag is CaseTag.NON_DIVISIBLE:
            first = normalized([r ** (s.p / s.q) for r in s.matrix.row_sums])
            return ([[first] * s.m, row_laws([1.0] * s.m)] + [zero] * depth)[:depth]
        stream = TestChainLaws.reference(s, family)
        return [[stream[-1][0]] * s.m] + [
            stream[family - 1 - j][1] if j < family else zero for j in range(1, depth)
        ]

    def test_rows_equal_the_chain_laws(self):
        # the table is filled from one pass over the chain stream, with the
        # levels read in reverse; every row must be the family's own law,
        # formed independently of the table's numpy path
        rng = random.Random(1601)
        cases = []
        for _ in range(60):
            p = rng.randint(1, 4)
            q = rng.randint(p + 1, 8)
            a = rng.randint(0, 5)
            s = validate_system(p, q, a, rng.randint(a, 5), random_irreducible(rng.randint(2, 4), rng))
            cases.append((s, rng.choice((1, 7, 300, 3000, 20_000))))
        # non-divisible pairs whose tables reach a second level, so the
        # successor rows are checked on matrices whose rows differ in
        # support and sum
        pairs = [
            validate_system(*pqab, rows)
            for rows, pqab in [
                (MIXED3, (4, 6, 0, 1)),
                (MIXED3, (6, 9, 0, 1)),
                (SPARSE5, (4, 6, 0, 1)),
                (SPARSE5, (6, 9, 0, 1)),
                (GOLDEN, (2, 4, 0, 1)),
            ]
        ]
        cases += [(s, n) for s in pairs for n in (300, 3000)]
        for s, n in cases:
            pm = PrefixMeasure(s, n)
            depth = pm.laws.shape[1]
            if s in pairs:
                assert s.case_tag is CaseTag.NON_DIVISIBLE and 2 in pm.families and depth >= 2
            for f, family in enumerate(pm.families):
                assert pm.laws[f].tolist() == self.expected(family, s, depth), family
            # one block of m + 1 rows per stream level the families read, not
            # one per (family, level) pair: blocks 0..longest, where block 0
            # is stream level N when there are infinite chains (p1 = 1, and
            # the longest finite family is 1) and the zero law otherwise
            longest = 0 if pm.families == ("inf",) else pm.families[-1]
            assert pm._log2.size == (longest + 1) * (s.m + 1) * s.m
        assert {s.case_tag for s, _ in cases} == set(CaseTag)


class TestLocalDimension:
    def test_full_matrix_exactly_one(self):
        mean, stderr = empirical_local_dimension(sys_full(1, 2, 0, 0), 2000, seed=0, samples=5)
        assert mean == 1.0
        assert stderr == 0.0

    def test_classical_converges(self):
        s = sys_golden(1, 2, 0, 0)
        target = dim_h(s, tol=1e-10).value
        mean, stderr = empirical_local_dimension(s, 20_000, seed=11, samples=12)
        assert abs(mean - target) <= 0.02

    @pytest.mark.parametrize("pqab", [(1, 2, 0, 0), (2, 4, 0, 0)])
    def test_periodic_fixed_point_converges(self, pqab):
        # period 2, so the fixed point and the stationary sampler run on a
        # matrix that is not primitive
        s = validate_system(*pqab, PERIODIC3)
        target = dim_h(s, tol=1e-10).value
        mean, _ = empirical_local_dimension(s, 20_000, seed=11, samples=12)
        assert abs(mean - target) <= 0.02

    def test_nondivisible_converges(self):
        s = sys_golden(2, 4, 0, 1)
        target = dim_h(s).value
        mean, _ = empirical_local_dimension(s, 20_000, seed=12, samples=12)
        assert abs(mean - target) <= 0.02

    @pytest.mark.parametrize("pqab", [(2, 3, 0, 0), (4, 6, 1, 3)])
    def test_divisible_general_within_three_standard_errors(self, pqab):
        # Billingsley's lemma: the optimal measure's local dimension is the
        # Hausdorff value, so the sampled mean must sit within sampling
        # error of the series.  Weights that are not the census limits miss
        # here by more than 8 standard errors on both systems.
        s = sys_golden(*pqab)
        target = dim_h(s, tol=1e-10).value
        mean, stderr = empirical_local_dimension(s, 10**6, seed=1, samples=50)
        assert stderr > 0
        assert abs(mean - target) <= 3 * stderr, (mean, stderr, target)

    def test_degenerate_converges(self):
        s = sys_golden(2, 4, 0, 0)
        target = dim_h(s, tol=1e-10).value
        mean, _ = empirical_local_dimension(s, 20_000, seed=13, samples=12)
        assert abs(mean - target) <= 0.02

    @pytest.mark.parametrize(
        "rows, pqab, pinned",
        [
            (PERIODIC3, (1, 2, 0, 0), "(0.643318172355702, 0.0008936521867147002)"),
            (MIXED3, (4, 6, 1, 3), "(0.9344596788660591, 0.0006418852611092424)"),
        ],
    )
    def test_pinned(self, rows, pqab, pinned):
        # recorded from the sampler that regrouped the chains into families;
        # the p1 = 1 row was re-recorded when the infinite chains began to
        # read stream level N
        s = validate_system(*pqab, rows)
        assert repr(empirical_local_dimension(s, 5000, seed=3, samples=4)) == pinned

    @pytest.mark.parametrize(
        "pqab, pinned",
        [
            ((2, 4, 0, 1), "(0.887701651581806, 0.0008014310117949374)"),
            ((2, 4, 0, 0), "(0.9063951805307322, 0.0005910347925588486)"),
        ],
    )
    def test_pinned_pairs_and_degenerate(self, pqab, pinned):
        # the non-divisible and the degenerate families on golden, recorded
        # before the sampler fixed its row bases at build time
        s = sys_golden(*pqab)
        assert repr(empirical_local_dimension(s, 5000, seed=3, samples=4)) == pinned

    def test_seeded_reproducibility(self):
        s = sys_golden(1, 2, 0, 0)
        r1 = empirical_local_dimension(s, 3000, seed=3, samples=4)
        r2 = empirical_local_dimension(s, 3000, seed=3, samples=4)
        assert r1 == r2
