import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

from toxtraj import permanova
from toxtraj.permanova import PERMUTATION_BLOCK, PermanovaResult, permanova_test, pseudo_f, ss_decomposition
from toxtraj.synth import generate_null_pair
from toxtraj.util import substream


def scalar_exceed(a, b, n_permutations, seed):
    """#{F_perm >= F_obs}, one permutation at a time. Block j holds
    permutations [64j, 64j + 64): one substream(seed, "permanova", "block", j)
    shuffles each of its rows of 0..n-1, and permutation i keeps the first k
    entries of its row, k the smaller group's size, as indices into the rows
    in lexicographic order. F comes from the SST = SSB + SSW identity."""
    x = np.vstack([a, b])
    n = x.shape[0]
    xs = x[np.lexsort(x.T[::-1])]
    k = min(len(a), len(b))
    f_obs = pseudo_f(*ss_decomposition(a, b), n)
    total = xs.sum(axis=0)
    grand = total / n
    sst = float(((xs - grand) ** 2).sum())
    exceed = 0
    for j, start in enumerate(range(0, n_permutations, 64)):
        size = min(64, n_permutations - start)
        draws = substream(seed, "permanova", "block", j).permuted(np.tile(np.arange(n), (size, 1)), axis=1)
        for row in draws:
            s = xs[row[:k]].sum(axis=0)
            ssb = k * float(((s / k - grand) ** 2).sum()) + (n - k) * float((((total - s) / (n - k) - grand) ** 2).sum())
            ssw = sst - ssb
            if ssw <= 0.0:
                f = math.inf if ssb > 0.0 else 0.0
            else:
                f = ssb / (ssw / (n - 2))
            exceed += f >= f_obs
    return exceed


def recorded_draws(monkeypatch):
    """The (B, k) index block of every _block_f call, in call order."""
    blocks = []
    block_f = permanova._block_f

    def recording(xs, idx, *args):
        blocks.append(np.array(idx))
        return block_f(xs, idx, *args)

    monkeypatch.setattr(permanova, "_block_f", recording)
    return blocks


class BandProbe:
    """Wraps _block_f and _f_from_counts for one permanova_test call on
    ``a`` and ``b``: ``fallbacks`` counts the rows sent back to
    _f_from_counts, and ``disagreements`` the rows _block_f certified whose
    verdict against F_obs differs from _f_from_counts's. ``z_scale`` scales
    the band's float32 term."""

    def __init__(self, monkeypatch, a, b, z_scale=1.0):
        x = np.vstack([a, b])
        xs = x[np.lexsort(x.T[::-1])]
        total = xs.sum(axis=0)
        self.fallbacks = 0
        self.disagreements = 0
        block_f, f_from_counts = permanova._block_f, permanova._f_from_counts

        def counting(*args):
            self.fallbacks += 1
            return f_from_counts(*args)

        def checking(z32, idx, sst, z_half, x_abs, f_obs):
            f, unsure = block_f(z32, idx, sst, z_half * z_scale, x_abs, f_obs)
            for row in np.flatnonzero(~unsure):
                exact = f_from_counts(xs, idx[row], total, sst) >= f_obs
                self.disagreements += bool(f[row] >= f_obs) != exact
            return f, unsure

        monkeypatch.setattr(permanova, "_f_from_counts", counting)
        monkeypatch.setattr(permanova, "_block_f", checking)


def _equivalence_cases():
    rng = np.random.default_rng(20)
    base = np.random.default_rng(0).normal(size=(3, 3)) + 1e6
    uneven = rng.normal(size=(15, 4))
    r0, r1 = [0.1, 0.7], [0.3, 0.2]
    return {
        # 18 of the 20 arrangements split the rows 2 + 1 against 1 + 2, as
        # observed: their F equals F_obs but for rounding, which depends on
        # the order the drawn rows are summed in.
        "ties-3+3": (np.array([r0, r0, r1]), np.array([r0, r1, r1]), 3 * PERMUTATION_BLOCK),
        # Exact 0/1 rows: the 3 + 0 arrangements have SSW exactly 0.
        "exact-rows-3+3": (np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0]]),
                           np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]]), PERMUTATION_BLOCK),
        # Repeated rows far from the origin: the rounding of tied
        # arrangements' F exceeds 1e-9 relative.
        "shifted-1e6": (base[[2, 0, 1, 2, 2, 2, 2]], base[[2, 2, 2, 1]], 2 * PERMUTATION_BLOCK),
        "zero-within": (np.zeros((3, 2)), np.ones((4, 2)), PERMUTATION_BLOCK),
        "unequal-4+11": (uneven[:4] + 0.5, uneven[4:], 2 * PERMUTATION_BLOCK),
        "not-a-block-multiple": (uneven[:7], uneven[7:], 2 * PERMUTATION_BLOCK + 7),
        # Column 0 ties, -0.0 against 0.0 among them, between rows that differ
        # later: the later columns order those rows.
        "column-0-ties": (np.column_stack([[0.0, 1.0, -0.0, 1.0, 0.5], uneven[:5, 1]]),
                          np.column_stack([[1.0, 0.0, 0.5, -0.0], uneven[5:9, 1]]), 2 * PERMUTATION_BLOCK),
    }


class TestSsDecomposition:
    def test_hand_case(self):
        # A = {0, 1}, B = {2, 3} on the line.
        ssb, ssw = ss_decomposition([[0.0], [1.0]], [[2.0], [3.0]])
        assert ssb == pytest.approx(4.0)
        assert ssw == pytest.approx(1.0)

    def test_identical_groups_zero_between(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(10, 4))
        ssb, _ = ss_decomposition(a, a.copy())
        assert ssb == pytest.approx(0.0, abs=1e-12)

    def test_total_ss_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n_a = int(rng.integers(1, 12))
            n_b = int(rng.integers(1, 12))
            dim = int(rng.integers(1, 8))
            a = rng.normal(size=(n_a, dim))
            b = rng.normal(size=(n_b, dim))
            ssb, ssw = ss_decomposition(a, b)
            x = np.vstack([a, b])
            sst = float(((x - x.mean(axis=0)) ** 2).sum())
            assert ssb + ssw == pytest.approx(sst, abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ss_decomposition(np.zeros((2, 3)), np.zeros((2, 4)))


class TestPseudoF:
    def test_hand_case_continuation(self):
        assert pseudo_f(4.0, 1.0, 4) == pytest.approx(8.0)

    def test_zero_between(self):
        assert pseudo_f(0.0, 5.0, 10) == 0.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(6, 3))
        b = rng.normal(loc=1.0, size=(7, 3))
        ssb1, ssw1 = ss_decomposition(a, b)
        ssb2, ssw2 = ss_decomposition(2 * a, 2 * b)
        assert ssb2 == pytest.approx(4 * ssb1)
        assert ssw2 == pytest.approx(4 * ssw1)
        assert pseudo_f(ssb2, ssw2, 13) == pytest.approx(pseudo_f(ssb1, ssw1, 13))

    def test_degenerate_within(self):
        assert math.isinf(pseudo_f(3.0, 0.0, 5))

    def test_too_few_observations(self):
        with pytest.raises(ValueError):
            pseudo_f(1.0, 1.0, 2)


@st.composite
def tied_rows(draw):
    """Rows whose column 0 holds few values, so it ties in runs; the other
    columns tie too, -0.0 against 0.0 included, or are normal draws."""
    n, d = draw(st.integers(1, 60)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
    x[rng.random(size=(n, d)) < 0.2] = -0.0
    if draw(st.booleans()):
        x[:, 1:] = rng.normal(size=(n, d - 1))
    return x


class TestCanonicalOrder:
    @settings(max_examples=300, deadline=None)
    @given(x=tied_rows())
    def test_equals_lexsort(self, x):
        np.testing.assert_array_equal(permanova._canonical_order(x), np.lexsort(x.T[::-1]))


class TestPermanovaTest:
    def test_result_fields_and_df(self):
        a, b = generate_null_pair(10, 4, 3, seed=0)
        result = permanova_test(a, b, n_permutations=99, seed=1)
        assert isinstance(result, PermanovaResult)
        assert result.df == (1, 18)
        assert result.n_permutations == 99
        assert 1 / 100 <= result.p_value <= 1.0
        assert result.eta_squared == pytest.approx(
            result.ss_between / (result.ss_between + result.ss_within)
        )

    def test_swap_invariance(self):
        a, b = generate_null_pair(8, 3, 4, seed=2)
        r1 = permanova_test(a, b, n_permutations=199, seed=3)
        r2 = permanova_test(b, a, n_permutations=199, seed=3)
        assert r1.p_value == r2.p_value
        assert r1.pseudo_f == pytest.approx(r2.pseudo_f)

    def test_rigid_motion_invariance_of_f(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(9, 6))
        b = rng.normal(loc=0.5, size=(9, 6))
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        shift = rng.normal(size=6)
        r1 = permanova_test(a, b, n_permutations=99, seed=5)
        r2 = permanova_test(a @ q + shift, b @ q + shift, n_permutations=99, seed=5)
        assert r1.pseudo_f == pytest.approx(r2.pseudo_f, rel=1e-9)
        assert r1.ss_between == pytest.approx(r2.ss_between, rel=1e-9)
        assert r1.ss_within == pytest.approx(r2.ss_within, rel=1e-9)

    def test_p_floor_attained_on_separated_groups(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(20, 5))
        b = rng.normal(loc=10.0, size=(20, 5))
        result = permanova_test(a, b, n_permutations=499, seed=7)
        assert result.p_value == pytest.approx(1 / 500)

    def test_zero_permutations_rejected(self):
        a, b = generate_null_pair(5, 2, 2, seed=8)
        with pytest.raises(ValueError):
            permanova_test(a, b, n_permutations=0)

    def test_deterministic_across_workers(self):
        a, b = generate_null_pair(15, 5, 4, seed=9)
        results = [
            permanova_test(a, b, n_permutations=299, seed=10, workers=w) for w in (1, 2, 8)
        ]
        assert len({r.p_value for r in results}) == 1
        assert len({r.pseudo_f for r in results}) == 1

    def test_observed_f_matches_public_ops(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(7, 3))
        b = rng.normal(loc=0.3, size=(9, 3))
        result = permanova_test(a, b, n_permutations=49, seed=12)
        ssb, ssw = ss_decomposition(a, b)
        assert result.pseudo_f == pytest.approx(pseudo_f(ssb, ssw, 16), rel=1e-12)

    def test_degenerate_flag(self):
        a = np.zeros((3, 2))
        b = np.ones((3, 2))
        result = permanova_test(a, b, n_permutations=19, seed=13)
        assert result.degenerate
        assert math.isinf(result.pseudo_f)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_names_group_and_row(self, bad):
        a, b = generate_null_pair(6, 3, 2, seed=14)
        b = np.array(b, dtype=np.float64)
        b[4, 1] = bad
        with pytest.raises(ValueError, match="group_b row 4 has non-finite"):
            permanova_test(a, b, n_permutations=99, seed=15)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("workers", [1, 2, 8])
    @pytest.mark.parametrize("case", sorted(_equivalence_cases()))
    def test_matches_scalar_permutation_loop(self, case, workers):
        a, b, n_permutations = _equivalence_cases()[case]
        result = permanova_test(a, b, n_permutations=n_permutations, seed=16, workers=workers)
        exceed = scalar_exceed(a, b, n_permutations, seed=16)
        assert result.exceed == exceed
        assert round(result.p_value * (1 + n_permutations)) - 1 == exceed
        assert result.p_value == (1 + exceed) / (1 + n_permutations)

    def test_draws_are_uniform_over_k_subsets(self, monkeypatch):
        # 6 rows, 3 drawn: each of the 20 subsets has probability 1/20.
        blocks = recorded_draws(monkeypatch)
        a, b = generate_null_pair(3, 2, 2, seed=17)
        permanova_test(a, b, n_permutations=10_000, seed=18)
        draws = np.sort(np.vstack(blocks), axis=1)
        assert draws.shape == (10_000, 3)
        subsets = {s: i for i, s in enumerate(itertools.combinations(range(6), 3))}
        counts = np.bincount([subsets[tuple(row)] for row in draws.tolist()], minlength=20)
        assert stats.chisquare(counts).pvalue > 1e-3

    @pytest.mark.parametrize("seed", range(5))
    def test_consecutive_blocks_draw_differently(self, monkeypatch, seed):
        blocks = recorded_draws(monkeypatch)
        a, b = generate_null_pair(3, 2, 2, seed=19)
        permanova_test(a, b, n_permutations=3 * PERMUTATION_BLOCK, seed=seed)
        assert [blk.shape for blk in blocks] == [(PERMUTATION_BLOCK, 3)] * 3
        for first, second in zip(blocks, blocks[1:]):
            assert not np.array_equal(first, second)

    @settings(max_examples=200, deadline=None)
    @given(x=arrays(np.float64, st.tuples(st.integers(3, 9), st.integers(1, 4)),
                    elements=st.sampled_from([0.0, -0.0, 1.0, -2.5]) | st.floats(-1e3, 1e3)))
    @example(x=np.array([[0.0, 2.0], [-0.0, 1.0], [1.0, 0.0]]))
    @example(x=np.array([[1.0, 3.0], [0.5, 9.0], [1.0, 2.0]]))
    @example(x=np.array([[1.0, 2.0], [0.0, 5.0], [1.0, 2.0]]))
    @example(x=np.array([[0.0], [3.0], [-0.0], [1.0]]))
    def test_rows_in_lexsort_order(self, x):
        # Every F is computed over the pooled rows in np.lexsort(x.T[::-1])
        # order, compared bit for bit, whether column 0 ties (-0.0 == 0.0
        # included) or not. _block_f here leaves every row to _f_from_counts,
        # which records the rows it is given.
        seen = []
        f_from_counts = permanova._f_from_counts

        def recording(xs, *args):
            seen.append(xs)
            return f_from_counts(xs, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(permanova, "_block_f", lambda z32, idx, *args: (np.zeros(len(idx)), np.ones(len(idx), bool)))
            mp.setattr(permanova, "_f_from_counts", recording)
            permanova_test(x[:1], x[1:], n_permutations=1)
        assert np.array_equal(seen[0].view(np.int64), x[np.lexsort(x.T[::-1])].view(np.int64))

    def test_planted_tie_inside_float32_band_counted_exactly(self, monkeypatch):
        # 4 + 4 rows: the observed split and its complement have F_obs in
        # exact arithmetic, and 12 of the 640 draws pick one of them. Float32
        # rounding puts their batched F on either side of F_obs, so each must
        # go back. The rows sit far from the origin, so float64 rounding
        # splits the tied verdicts too.
        x = np.random.default_rng(0).normal(size=(8, 16)) + 1000.0
        a, b = x[:4], x[4:]
        probe = BandProbe(monkeypatch, a, b)
        result = permanova_test(a, b, n_permutations=640, seed=21)
        assert result.exceed == scalar_exceed(a, b, 640, seed=21)
        assert probe.fallbacks >= 12 and probe.disagreements == 0
        # A band of float64's width certifies tied rows on float32's word.
        monkeypatch.undo()
        narrow = BandProbe(monkeypatch, a, b, z_scale=2.0**-29)
        permanova_test(a, b, n_permutations=640, seed=21)
        assert narrow.disagreements > 0

    def test_null_bulk_rows_fall_back(self, monkeypatch):
        # F_obs in the bulk of its null distribution, n = 400 and d = 200: some
        # permuted F fall within the band and go back to _f_from_counts.
        a, b = generate_null_pair(200, 50, 4, seed=1)
        probe = BandProbe(monkeypatch, a, b)
        result = permanova_test(a, b, n_permutations=1024, seed=1)
        assert 0.2 < result.p_value < 0.8
        assert probe.fallbacks >= 1 and probe.disagreements == 0
        assert result.exceed == scalar_exceed(a, b, 1024, seed=1)

    def test_more_workers_than_blocks(self):
        a, b = generate_null_pair(9, 4, 3, seed=20)
        serial = permanova_test(a, b, n_permutations=70, seed=21, workers=1)
        assert permanova_test(a, b, n_permutations=70, seed=21, workers=8) == serial
        assert serial.p_value == (1 + serial.exceed) / 71

    def test_null_rejection_rate_small_sweep(self):
        # Smaller companion to the acceptance calibration.
        hits = 0
        trials = 200
        for i in range(trials):
            a, b = generate_null_pair(8, 3, 3, seed=1000 + i)
            if permanova_test(a, b, n_permutations=199, seed=i).p_value < 0.05:
                hits += 1
        assert 0.02 <= hits / trials <= 0.08
