import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from oracles import closed_form_ols, tiefree_u_pvalue
import toxtraj
from toxtraj.stats import (
    _exact_u_pvalue,
    _normal_u_pvalue,
    cohens_kappa,
    mann_whitney_u,
    norm_cdf,
    ols_trend,
    pearson_r,
    t_cdf,
)

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestSpecialFunctions:
    def test_norm_cdf_tabulated(self):
        # Classic table values.
        assert abs(norm_cdf(0.0) - 0.5) < 1e-15
        assert abs(norm_cdf(1.959963984540054) - 0.975) < 1e-12
        assert abs(norm_cdf(-1.6448536269514722) - 0.05) < 1e-12
        assert abs(norm_cdf(-3.0) - 0.0013498980316300933) < 1e-14

    def test_t_cdf_tabulated(self):
        # t-table quantiles: CDF at the 97.5% critical value is 0.975.
        for df, crit in [(1, 12.706204736432095), (4, 2.7764451051977987), (10, 2.228138851986273), (30, 2.0422724563012373)]:
            assert abs(t_cdf(crit, df) - 0.975) < 1e-10
        assert abs(t_cdf(0.0, 7) - 0.5) < 1e-15


class TestOlsTrend:
    def test_exact_line_perfect_fit(self):
        fit = ols_trend([0, 1, 2, 3], [0, 2, 4, 6])
        assert fit.slope == pytest.approx(2.0)
        assert fit.p_value == 0.0
        assert fit.stderr_slope == 0.0

    def test_constant_response(self):
        fit = ols_trend([0, 1, 2, 3], [5, 5, 5, 5])
        assert fit.slope == 0.0
        assert fit.p_value == 1.0

    def test_textbook_oracle(self):
        x = [0, 1, 2, 3, 4]
        y = [1.1, 1.9, 3.2, 3.8, 5.1]
        fit = ols_trend(x, y)
        slope, intercept, stderr, t, p = closed_form_ols(x, y)
        assert abs(fit.slope - slope) < 1e-9
        assert abs(fit.intercept - intercept) < 1e-9
        assert abs(fit.stderr_slope - stderr) < 1e-9
        assert abs(fit.t_stat - t) < 1e-9
        assert abs(fit.p_value - p) < 1e-9

    def test_matches_scipy_linregress_sweep(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(3, 40))
            x = rng.normal(size=n)
            y = 0.5 * x + rng.normal(size=n)
            fit = ols_trend(x, y)
            ref = sps.linregress(x, y)
            assert abs(fit.slope - ref.slope) < 1e-9
            assert abs(fit.p_value - ref.pvalue) < 1e-9

    def test_degenerate_x(self):
        with pytest.raises(ValueError, match="degenerate"):
            ols_trend([2, 2, 2], [1, 2, 3])

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            ols_trend([0, 1], [0, 1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_is_named(self, bad):
        # A NaN p would compare false against alpha and file the user under
        # no trend; it must be an error instead.
        with pytest.raises(ValueError, match="non-finite"):
            ols_trend([0, 1, 2, 3], [1.0, bad, 2.0, 3.0])

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=20)
        y = rng.normal(size=20)
        base = ols_trend(x, y)
        shifted = ols_trend(x, y + 17.5)
        assert shifted.slope == pytest.approx(base.slope, abs=1e-12)
        assert shifted.t_stat == pytest.approx(base.t_stat, rel=1e-9)
        assert shifted.p_value == pytest.approx(base.p_value, rel=1e-9)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=15)
        y = rng.normal(size=15)
        base = ols_trend(x, y)
        scaled = ols_trend(x, 3.0 * y)
        assert scaled.slope == pytest.approx(3.0 * base.slope, rel=1e-12)
        assert scaled.t_stat == pytest.approx(base.t_stat, rel=1e-9)
        assert scaled.p_value == pytest.approx(base.p_value, rel=1e-9)


class TestMannWhitney:
    def test_exact_one_sixth(self):
        result = mann_whitney_u([1, 2], [3, 4], alternative="less")
        assert result.u_statistic == 0.0
        assert result.method == "exact"
        assert result.p_value == pytest.approx(1 / 6)

    def test_all_tied(self):
        result = mann_whitney_u([7, 7, 7], [7, 7, 7], alternative="two_sided")
        assert result.u_statistic == 4.5
        assert result.p_value == 1.0
        assert result.method == "normal_approx"

    def test_exact_vs_enumeration_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n1, n2 = int(rng.integers(2, 8)), int(rng.integers(2, 8))
            a = rng.normal(size=n1)
            b = rng.normal(size=n2)
            for alt in ("greater", "less", "two_sided"):
                mine = mann_whitney_u(a, b, alternative=alt)
                assert mine.method == "exact"
                assert mine.p_value == pytest.approx(
                    tiefree_u_pvalue(mine.u_statistic, n1, n2, alt), abs=1e-12
                )

    def test_exact_and_normal_agree_8v8(self):
        # Sweep: tie-free 8 vs 8, both paths within 0.02.
        rng = np.random.default_rng(13)
        for _ in range(60):
            a = rng.normal(size=8)
            b = rng.normal(loc=rng.uniform(-1, 1), size=8)
            u = mann_whitney_u(a, b).u_statistic
            for alt in ("greater", "less", "two_sided"):
                exact = _exact_u_pvalue(u, 8, 8, alt)
                approx = _normal_u_pvalue(u, 8, 8, 0.0, alt)
                assert abs(exact - approx) < 0.02

    def test_matches_scipy_asymptotic_with_ties(self):
        rng = np.random.default_rng(17)
        alt_map = {"greater": "greater", "less": "less", "two_sided": "two-sided"}
        for _ in range(60):
            a = rng.integers(1, 6, size=30)
            b = rng.integers(1, 6, size=30)
            for alt, scipy_alt in alt_map.items():
                mine = mann_whitney_u(a, b, alternative=alt)
                ref = sps.mannwhitneyu(a, b, alternative=scipy_alt, method="asymptotic")
                assert mine.u_statistic == pytest.approx(float(ref.statistic))
                assert mine.p_value == pytest.approx(float(ref.pvalue), abs=1e-12)

    def test_null_calibration_discrete(self):
        # Two-sided p on same-distribution discrete samples: rejection rate
        # near nominal 5% over 1000 seeded runs.
        rng = np.random.default_rng(23)
        hits = 0
        for _ in range(1000):
            a = rng.integers(1, 6, size=30)
            b = rng.integers(1, 6, size=30)
            if mann_whitney_u(a, b).p_value < 0.05:
                hits += 1
        assert 0.03 <= hits / 1000 <= 0.07

    def test_empty_input(self):
        with pytest.raises(ValueError):
            mann_whitney_u([], [1.0])

    def test_non_finite_is_named(self):
        with pytest.raises(ValueError, match="non-finite"):
            mann_whitney_u([math.nan, 1, 2], [2, 3, 4])

    @given(
        st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=12),
        st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=12),
    )
    @settings(max_examples=100, deadline=None)
    def test_u_sum_invariant(self, a, b):
        ua = mann_whitney_u(a, b, alternative="greater").u_statistic
        ub = mann_whitney_u(b, a, alternative="greater").u_statistic
        assert ua + ub == pytest.approx(len(a) * len(b))
        assert 0.0 <= ua <= len(a) * len(b)


class TestPearson:
    def test_exact_lines(self):
        assert pearson_r([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)
        assert pearson_r([1, 2, 3], [6, 4, 2]) == pytest.approx(-1.0)

    def test_definition_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a = rng.normal(size=30)
            b = rng.normal(size=30)
            da, db = a - a.mean(), b - b.mean()
            expected = (da * db).sum() / math.sqrt((da**2).sum() * (db**2).sum())
            assert abs(pearson_r(a, b) - expected) < 1e-12

    def test_zero_variance(self):
        with pytest.raises(ValueError):
            pearson_r([1, 1, 1], [1, 2, 3])
        # The mean of [0.1] * 3 rounds, leaving ~1e-17 residuals.
        with pytest.raises(ValueError):
            pearson_r([0.1, 0.1, 0.1], [1, 2, 3])

    @given(
        st.lists(finite_floats, min_size=3, max_size=20),
        st.floats(min_value=0.1, max_value=10),
        st.floats(min_value=-100, max_value=100),
    )
    @example(values=[0.1, 0.1, 0.1], scale=1.0, shift=0.0)
    @example(values=[0.0, 0.0, 1e-41], scale=1.0, shift=1.0)
    @example(values=[0.0, 0.0, 2.7e-281], scale=1.0, shift=0.0)
    @example(values=[0.0, 0.0, 5e-324], scale=2.0, shift=0.0)
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_affine_invariance(self, values, scale, shift):
        rng = np.random.default_rng(abs(hash(tuple(values))) % 2**32)
        a = np.asarray(values)
        b = rng.normal(size=a.size)
        if np.ptp(a) == 0 or np.ptp(b) == 0:
            return
        # float64 keeps affine invariance only while the spread survives the map.
        assume(scale * np.ptp(a) > 1e-6 * (abs(shift) + scale * np.abs(a).max()))
        r1 = pearson_r(a, b)
        assert pearson_r(b, a) == pytest.approx(r1, abs=1e-12)
        assert pearson_r(scale * a + shift, b) == pytest.approx(r1, abs=1e-9)


class TestCohensKappa:
    def test_perfect_agreement(self):
        assert cohens_kappa(["x", "y", "x"], ["x", "y", "x"]) == 1.0

    def test_confusion_45_5_5_45(self):
        a = ["p"] * 50 + ["n"] * 50
        b = ["p"] * 45 + ["n"] * 5 + ["p"] * 5 + ["n"] * 45
        assert cohens_kappa(a, b) == pytest.approx(0.8)

    def test_chance_agreement_near_zero(self):
        rng = np.random.default_rng(29)
        a = list(rng.integers(0, 4, size=20000))
        b = list(rng.permutation(a))
        assert abs(cohens_kappa(a, b)) < 0.05

    def test_single_shared_category(self):
        assert cohens_kappa(["a", "a"], ["a", "a"]) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cohens_kappa([1], [1, 2])

    @given(st.lists(st.sampled_from("abc"), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_symmetry(self, labels):
        rng = np.random.default_rng(len(labels))
        other = [str(x) for x in rng.integers(0, 3, size=len(labels))]
        assert cohens_kappa(labels, other) == pytest.approx(cohens_kappa(other, labels))


def test_scipy_stats_is_never_imported():
    # scipy.stats costs a process about 33 MB of RSS and 0.6 s to import;
    # the kernel needs only scipy.special, which scipy.spatial loads anyway.
    code = (
        "import sys\n"
        "import toxtraj.cli\n"
        "from toxtraj.stats import mann_whitney_u, ols_trend\n"
        "ols_trend([0, 1, 2, 3], [1.0, 3.0, 2.0, 4.0])\n"
        "mann_whitney_u([1, 2, 3, 9], [2, 3, 4, 5])\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))\n"
    )
    src = str(Path(toxtraj.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
