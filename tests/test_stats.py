"""Scaling fits, concentration measures, audience overlap filtering, and
the OLS harness, checked against hand-computable cases and closed-form
simple-regression formulas.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from attnflow import (
    AllZero,
    DegenerateX,
    InsufficientData,
    NegativeValue,
    SessionLog,
    SingularDesign,
    TooFewPoints,
    TooFewRows,
    build_flow_network,
    concentration,
    duplication_filter,
    fit_power_law,
    gini,
    node_flows,
    ols_regress,
    regression_feature_table,
    source_distances,
    fundamental_matrix,
    transition_matrix,
    write_duplication_csv,
    write_zipf_csv,
    zipf_table,
)


class TestFitPowerLaw:
    def test_exact_square_law(self):
        x = np.arange(1.0, 51.0)
        fit = fit_power_law(x, x**2)
        assert fit.exponent == pytest.approx(2.0, abs=1e-12)
        assert fit.intercept == pytest.approx(0.0, abs=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.stderr_exponent == pytest.approx(0.0, abs=1e-9)
        assert fit.n_points == 50
        assert fit.dropped_nonpositive == 0

    def test_planted_coefficients(self):
        x = np.linspace(2.0, 400.0, 80)
        fit = fit_power_law(x, 3.0 * x**1.4)
        assert fit.exponent == pytest.approx(1.4, abs=1e-12)
        assert fit.intercept == pytest.approx(np.log(3.0), abs=1e-12)

    def test_noisy_recovery(self):
        rng = np.random.default_rng(314)
        x = rng.lognormal(mean=2.0, sigma=1.0, size=500)
        y = 2.5 * x**1.4 * rng.lognormal(sigma=0.1, size=500)
        fit = fit_power_law(x, y)
        assert fit.exponent == pytest.approx(1.4, abs=0.05)
        assert abs(fit.exponent - 1.4) < 4 * fit.stderr_exponent

    def test_nonpositive_dropped_and_counted(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 0.0, 5.0, -1.0])
        y = np.array([1.0, 4.0, 9.0, 16.0, 4.0, -2.0, 9.0])
        fit = fit_power_law(x, y)
        assert fit.dropped_nonpositive == 3
        assert fit.n_points == 4
        clean = fit_power_law(x[:4], y[:4])
        assert fit.exponent == pytest.approx(clean.exponent, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(scale=st.floats(min_value=0.1, max_value=10.0, allow_nan=False))
    def test_exponent_scale_invariant(self, scale):
        x = np.linspace(1.0, 30.0, 40)
        y = 0.7 * x**1.8
        base = fit_power_law(x, y)
        rescaled = fit_power_law(scale * x, y)
        assert rescaled.exponent == pytest.approx(base.exponent, abs=1e-9)

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            fit_power_law([1.0, 2.0, -3.0], [1.0, 2.0, 3.0])

    def test_degenerate_x(self):
        with pytest.raises(DegenerateX):
            fit_power_law([2.0, 2.0, 2.0, 2.0], [1.0, 2.0, 3.0, 4.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fit_power_law([1.0, 2.0], [1.0, 2.0, 3.0])


class TestGini:
    def test_single_owner(self):
        assert gini([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.75, abs=1e-12)

    def test_uniform_is_zero(self):
        assert gini([3.0] * 10) == pytest.approx(0.0, abs=1e-12)

    def test_two_values(self):
        assert gini([0.0, 1.0]) == pytest.approx(0.5, abs=1e-12)
        assert gini([1.0, 3.0]) == pytest.approx(0.25, abs=1e-12)

    def test_mean_absolute_difference_form(self):
        rng = np.random.default_rng(5)
        x = rng.exponential(size=40)
        n = x.size
        mad = np.abs(x[:, None] - x[None, :]).sum() / (n * n)
        assert gini(x) == pytest.approx(mad / (2 * x.mean()), abs=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(17)
        x = rng.pareto(2.0, size=200) + 0.01
        assert abs(gini(x) - gini(7.31 * x)) <= 1e-12

    def test_order_invariance(self):
        x = [5.0, 1.0, 3.0, 1.0]
        assert gini(x) == gini(sorted(x))

    def test_negative_rejected(self):
        with pytest.raises(NegativeValue):
            gini([1.0, -0.5])

    def test_all_zero_rejected(self):
        with pytest.raises(AllZero):
            gini([0.0, 0.0])
        with pytest.raises(AllZero):
            gini([])

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=2,
            max_size=30,
        ).filter(lambda xs: sum(xs) > 0)
    )
    def test_bounded(self, xs):
        g = gini(xs)
        n = len(xs)
        assert -1e-12 <= g <= 1.0 - 1.0 / n + 1e-12

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.1, max_value=1e3, allow_nan=False),
            min_size=3,
            max_size=20,
        )
    )
    def test_equalizing_transfer_never_increases(self, xs):
        x = np.asarray(xs)
        g0 = gini(x)
        lo, hi = int(np.argmin(x)), int(np.argmax(x))
        if lo == hi:
            return
        eps = (x[hi] - x[lo]) / 4.0
        y = x.copy()
        y[hi] -= eps
        y[lo] += eps
        assert gini(y) <= g0 + 1e-9


class TestZipf:
    def test_descending_with_stable_ties(self):
        table = zipf_table([3.0, 5.0, 5.0, 1.0], labels=("a", "b", "c", "d"))
        assert table == [(1, "b", 5.0), (2, "c", 5.0), (3, "a", 3.0), (4, "d", 1.0)]

    def test_without_labels(self):
        assert zipf_table([1.0, 2.0]) == [(1, 2.0), (2, 1.0)]

    def test_empty(self):
        with pytest.raises(AllZero):
            zipf_table([])

    def test_concentration_bundle(self, star_net):
        stats = node_flows(star_net)
        report = concentration(stats.through_flow, labels=stats.items)
        assert report.zipf[0][1] == "hub"
        assert report.gini == pytest.approx(gini([3.0, 1.0, 1.0, 1.0]))
        d = report.to_dict()
        assert set(d) == {"gini", "zipf"}


def _audience_log(memberships: dict[str, list[str]]) -> SessionLog:
    """One single-visit session per (user, item) membership."""
    return SessionLog.from_sessions(
        {user: [[item] for item in items] for user, items in memberships.items()}
    )


class TestDuplicationFilter:
    def test_overlap_at_independence_is_kept(self):
        # 100 users; two items with 50-user audiences sharing exactly 25
        members = {}
        for u in range(100):
            items = []
            if u < 50:
                items.append("a")
            if 25 <= u < 75:
                items.append("b")
            if not items:
                items = ["filler"]
            members[f"u{u:03d}"] = items
        report = duplication_filter(_audience_log(members))
        assert report.n_users == 100
        assert report.observed[("a", "b")] == 25
        assert report.expected[("a", "b")] == pytest.approx(25.0)
        assert ("a", "b") in report.kept

    def test_below_expectation_removed(self):
        # 50-user audiences overlapping in only 10 users: expected 25
        members = {}
        for u in range(100):
            items = []
            if u < 50:
                items.append("a")
            if 40 <= u < 90:
                items.append("b")
            if not items:
                items = ["filler"]
            members[f"u{u:03d}"] = items
        report = duplication_filter(_audience_log(members))
        assert report.observed[("a", "b")] == 10
        assert ("a", "b") not in report.kept
        assert report.degrees_after["a"] <= report.degrees_before["a"]

    def test_disjoint_audiences_never_form_edge(self):
        members = {"u1": ["a"], "u2": ["a"], "u3": ["b"], "u4": ["b"]}
        report = duplication_filter(_audience_log(members))
        assert ("a", "b") not in report.observed
        assert report.retained_fraction() == 0.0

    def test_counts_users_not_visits(self):
        log = SessionLog.from_sessions(
            {
                "u1": [["a", "a", "a", "b"]],
                "u2": [["a"], ["b", "b"]],
                "u3": [["a"]],
            }
        )
        report = duplication_filter(log)
        assert report.observed[("a", "b")] == 2
        assert report.audience_sizes == {"a": 3, "b": 2}

    def test_kept_subset_of_observed(self):
        rng = np.random.default_rng(99)
        members = {
            f"u{u}": [f"i{k}" for k in range(12) if rng.random() < 0.3] or ["i0"]
            for u in range(80)
        }
        report = duplication_filter(_audience_log(members))
        assert set(report.kept) <= set(report.observed)
        for pair, count in report.kept.items():
            assert count >= report.expected[pair]

    def test_single_item_rejected(self):
        with pytest.raises(InsufficientData):
            duplication_filter(_audience_log({"u1": ["a"], "u2": ["a"]}))

    def test_independent_audiences_retain_about_half(self):
        """With independently drawn audiences the observed overlap clears
        its expectation about half the time, so the filter keeps a stable
        middle fraction of edges across repeated draws.
        """
        rng = np.random.default_rng(20240817)
        n_users, n_items = 200, 20
        probs = rng.uniform(0.15, 0.45, size=n_items)
        for _ in range(50):
            draws = rng.random((n_users, n_items)) < probs
            members = {}
            for u in range(n_users):
                items = [f"i{k:02d}" for k in np.flatnonzero(draws[u])]
                members[f"u{u:03d}"] = items or ["i00"]
            report = duplication_filter(_audience_log(members))
            assert 0.35 <= report.retained_fraction() <= 0.65


_audiences = st.dictionaries(
    st.text(alphabet="uvwxyz", min_size=1, max_size=3),
    st.lists(
        st.lists(
            st.sampled_from(["a", "b", "c", "d", "e,f", 'g"h', "é", "i j"]), min_size=1, max_size=5
        ),
        min_size=1,
        max_size=3,
    ),
    min_size=1,
    max_size=12,
)


class TestDuplicationArrays:
    """The array filter against the dict loop it replaced."""

    @settings(max_examples=150)
    @given(_audiences)
    def test_matches_dict_loop(self, tmp_path_factory, duplication_by_dicts, sessions):
        log = SessionLog.from_sessions(sessions)
        if len(log.item_registry) < 2:
            with pytest.raises(InsufficientData):
                duplication_filter(log)
            return
        report = duplication_filter(log)
        ref = duplication_by_dicts(log)
        for name in ("observed", "kept"):
            assert list(getattr(report, name).items()) == list(ref[name].items())
        # the same pairs in the same order, each expectation bit for bit
        assert [(pair, value.hex()) for pair, value in report.expected.items()] == [
            (pair, value.hex()) for pair, value in ref["expected"].items()
        ]
        assert report.degrees_before == ref["degrees_before"]
        assert report.degrees_after == ref["degrees_after"]
        assert report.audience_sizes == ref["audience_sizes"]
        assert report.retained_fraction() == (
            len(ref["kept"]) / len(ref["observed"]) if ref["observed"] else 0.0
        )
        path = tmp_path_factory.mktemp("dup") / "duplication.csv"
        write_duplication_csv(path, report)
        assert path.read_bytes() == ref["csv"]

    def test_len_builds_no_dict(self):
        report = duplication_filter(
            _audience_log({"u1": ["a", "b"], "u2": ["a", "b", "c"], "u3": ["c"]})
        )
        assert (len(report.observed), len(report.kept)) == (3, 1)
        assert report.retained_fraction() == 1 / 3
        for pairs in (report.observed, report.expected, report.kept):
            assert "_dict" not in vars(pairs)
        assert report.kept == {("a", "b"): 2}
        assert "_dict" in vars(report.kept)

    def test_pairs_build_the_network_of_their_dict(self):
        """The pairs are over sorted items, not SOURCE and SINK first, so
        build_flow_network reads them as the mapping they are.
        """
        report = duplication_filter(
            _audience_log({"u1": ["a", "b", "c"], "u2": ["a", "b", "c"], "u3": ["d"]})
        )
        assert len(report.kept) == 3
        net = build_flow_network(report.kept)
        expected = build_flow_network(dict(report.kept))
        assert net.items == expected.items == ("a", "b", "c")
        assert (net.flow != expected.flow).nnz == 0


class TestOlsRegress:
    def test_exact_line_no_intercept(self):
        x = np.arange(1.0, 11.0)
        result = ols_regress(2.0 * x, {"x": x}, intercept=False)
        assert result.names == ("x",)
        assert result.estimates[0] == pytest.approx(2.0, abs=1e-12)
        assert result.stderr[0] == pytest.approx(0.0, abs=1e-10)
        assert result.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_simple_regression(self):
        """One-feature OLS against the textbook slope/intercept/SE formulas."""
        rng = np.random.default_rng(7)
        x = rng.normal(size=60)
        y = 1.0 + 2.0 * x + rng.normal(scale=0.5, size=60)
        result = ols_regress(y, {"x": x})
        n = x.size
        sxx = ((x - x.mean()) ** 2).sum()
        slope = ((x - x.mean()) * (y - y.mean())).sum() / sxx
        intercept = y.mean() - slope * x.mean()
        resid = y - intercept - slope * x
        sigma2 = (resid**2).sum() / (n - 2)
        se_slope = np.sqrt(sigma2 / sxx)
        se_intercept = np.sqrt(sigma2 * (1.0 / n + x.mean() ** 2 / sxx))
        assert result.estimates[0] == pytest.approx(intercept, abs=1e-12)
        assert result.estimates[1] == pytest.approx(slope, abs=1e-12)
        assert result.stderr[0] == pytest.approx(se_intercept, abs=1e-12)
        assert result.stderr[1] == pytest.approx(se_slope, abs=1e-12)

    def test_multifeature_recovery(self):
        rng = np.random.default_rng(11)
        n = 400
        f1 = rng.normal(size=n)
        f2 = rng.normal(size=n)
        y = 0.5 + 1.5 * f1 - 0.75 * f2 + rng.normal(scale=0.3, size=n)
        result = ols_regress(y, {"f1": f1, "f2": f2})
        truth = {"const": 0.5, "f1": 1.5, "f2": -0.75}
        for name, est, se in zip(result.names, result.estimates, result.stderr):
            assert abs(est - truth[name]) < 3.5 * se

    def test_duplicate_column_named(self):
        x = np.arange(1.0, 20.0)
        with pytest.raises(SingularDesign) as exc:
            ols_regress(x, {"a": x, "b": x})
        assert {"a", "b"} <= set(exc.value.columns)
        assert "const" not in exc.value.columns

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            ols_regress([1.0, 2.0, 3.0], {"a": [1, 2, 3], "b": [2, 1, 2]})

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ols_regress([1.0, 2.0], {"a": [1.0, 2.0, 3.0]})

    def test_report_shapes(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=30)
        result = ols_regress(2 * x + 1, {"x": x})
        d = result.to_dict()
        assert [c["name"] for c in d["coefficients"]] == ["const", "x"]
        assert d["n_observations"] == 30
        text = result.table()
        assert "const" in text and "R^2" in text


class TestFeatureTable:
    def _stats_and_distance(self, net):
        fm = fundamental_matrix(transition_matrix(net))
        return node_flows(net, fm), source_distances(fm)

    def test_cyclic_network_keeps_all_rows(self, balanced_cyclic_net):
        stats, l0 = self._stats_and_distance(balanced_cyclic_net)
        table = regression_feature_table(stats, l0)
        assert table.dropped == 0
        assert set(table.columns) == {"ln_D", "ln_S", "ln_C", "l"}
        np.testing.assert_allclose(table.columns["l"], l0)  # unlogged
        np.testing.assert_allclose(table.response, np.log(stats.through_flow))
        np.testing.assert_allclose(table.columns["ln_D"], np.log(stats.dissipation))

    def test_star_drops_everything(self, star_net):
        # hub has no dissipation and leaves have no source inflow, so no
        # row survives the positivity screen
        stats, l0 = self._stats_and_distance(star_net)
        with pytest.raises(TooFewRows):
            regression_feature_table(stats, l0)

    def test_length_mismatch(self, balanced_cyclic_net):
        stats, _ = self._stats_and_distance(balanced_cyclic_net)
        with pytest.raises(ValueError):
            regression_feature_table(stats, np.ones(3))

    def test_regression_on_features_runs(self, balanced_cyclic_net):
        stats, l0 = self._stats_and_distance(balanced_cyclic_net)
        table = regression_feature_table(stats, l0)
        result = ols_regress(table.response, table.columns)
        assert result.n_observations == len(table.items)
        assert np.isfinite(result.estimates).all()


class TestStatsCsvWriters:
    def test_zipf_csv(self, tmp_path):
        path = tmp_path / "zipf.csv"
        write_zipf_csv(path, zipf_table([2.0, 8.0], labels=("a", "b")))
        assert path.read_text() == "rank,value\n1,8.0\n2,2.0\n"

    def test_duplication_csv(self, tmp_path):
        report = duplication_filter(
            _audience_log({"u1": ["a", "b"], "u2": ["a", "b"], "u3": ["a"]})
        )
        path = tmp_path / "dup.csv"
        write_duplication_csv(path, report)
        lines = path.read_text().splitlines()
        assert lines[0] == "item,audience,degree_before,degree_after"
        assert len(lines) == 3
