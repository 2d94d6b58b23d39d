import math

import numpy as np
import pytest

from toxtraj.permanova import PERMUTATION_BLOCK, PermanovaResult, permanova_test, pseudo_f, ss_decomposition
from toxtraj.synth import generate_null_pair
from toxtraj.util import substream


def scalar_exceed(a, b, n_permutations, seed):
    """#{F_perm >= F_obs}, one permutation at a time: the smaller group's
    size drawn from substream(seed, "permanova", i) over the rows in
    lexicographic order, F from the SST = SSB + SSW identity."""
    x = np.vstack([a, b])
    n = x.shape[0]
    xs = x[np.lexsort(x.T[::-1])]
    k = min(len(a), len(b))
    f_obs = pseudo_f(*ss_decomposition(a, b), n)
    total = xs.sum(axis=0)
    grand = total / n
    sst = float(((xs - grand) ** 2).sum())
    exceed = 0
    for i in range(n_permutations):
        s = xs[substream(seed, "permanova", i).permutation(n)[:k]].sum(axis=0)
        ssb = k * float(((s / k - grand) ** 2).sum()) + (n - k) * float((((total - s) / (n - k) - grand) ** 2).sum())
        ssw = sst - ssb
        if ssw <= 0.0:
            f = math.inf if ssb > 0.0 else 0.0
        else:
            f = ssb / (ssw / (n - 2))
        exceed += f >= f_obs
    return exceed


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
        assert round(result.p_value * (1 + n_permutations)) - 1 == exceed
        assert result.p_value == (1 + exceed) / (1 + n_permutations)

    def test_null_rejection_rate_small_sweep(self):
        # Smaller companion to the acceptance calibration.
        hits = 0
        trials = 200
        for i in range(trials):
            a, b = generate_null_pair(8, 3, 3, seed=1000 + i)
            if permanova_test(a, b, n_permutations=199, seed=i).p_value < 0.05:
                hits += 1
        assert 0.02 <= hits / trials <= 0.08
