import math
import warnings

import numpy as np
import pytest

from pairvar.errors import DataError, DomainError
from pairvar.model import (
    PairedDataset,
    VarianceForm,
    VarianceModel,
    build_dataset,
    estimating_equation_bias,
    load_csv,
)


def exp_linear(t1, t2):
    return VarianceModel(VarianceForm.EXP_LINEAR, (t1, t2))


class TestVarianceAt:
    """Point values of h through VarianceModel.__call__."""

    def test_exp_linear_identity(self):
        assert float(exp_linear(0.0, 0.0)(5.0)) == 1.0

    def test_power(self):
        m = VarianceModel(VarianceForm.POWER, (0.0, 2.0))
        assert float(m(3.0)) == pytest.approx(9.0, abs=1e-12)

    def test_exp_linear_pooled_estimate_point(self):
        # frozen from 40-digit arithmetic: exp(4.84 - 0.927*10.21)
        v = float(exp_linear(4.84, -0.927)(10.21))
        assert v == pytest.approx(0.009806890775851390, rel=1e-12)

    def test_exp_linear_const(self):
        m = VarianceModel(VarianceForm.EXP_LINEAR_CONST, (0.0, 0.0, 0.0))
        assert float(m(2.0)) == pytest.approx(2.0)

    def test_monotone_decreasing_for_negative_slope(self):
        m = exp_linear(4.84, -0.927)
        grid = np.linspace(7.3, 13.9, 200)
        vals = m(grid)
        assert np.all(np.diff(vals) < 0)

    def test_coefficient_count_enforced(self):
        with pytest.raises(ValueError):
            VarianceModel(VarianceForm.EXP_LINEAR, (1.0, 2.0, 3.0))
        with pytest.raises(ValueError):
            VarianceModel(VarianceForm.EXP_LINEAR_CONST, (1.0, 2.0))

    FORMS = [
        (VarianceForm.EXP_LINEAR, (1.2, -0.4)),
        (VarianceForm.POWER, (0.3, 1.7)),
        (VarianceForm.EXP_LINEAR_CONST, (1.2, -0.4, -2.0)),
    ]

    @pytest.mark.parametrize("form,theta", FORMS)
    def test_log_gradient_matches_finite_differences(self, form, theta):
        eps = 1e-6
        mus = np.random.default_rng(7).uniform(1.0, 5.0, 4)
        grad, _ = VarianceModel(form, theta).log_derivatives(mus)
        assert grad.shape == (form.n_params, mus.size)
        for k in range(form.n_params):
            up = list(theta)
            up[k] += eps
            dn = list(theta)
            dn[k] -= eps
            fd = (np.log(VarianceModel(form, tuple(up))(mus))
                  - np.log(VarianceModel(form, tuple(dn))(mus))) / (2 * eps)
            assert np.allclose(grad[k], fd, rtol=1e-5, atol=1e-10)

    @pytest.mark.parametrize("form,theta", FORMS)
    def test_log_hessian_matches_finite_differences(self, form, theta):
        # None where log h is linear in theta: there every finite
        # difference of the gradient vanishes
        eps = 1e-5
        mus = np.array([2.0, 4.0])
        _, hess = VarianceModel(form, theta).log_derivatives(mus)
        assert (hess is None) == (form is not VarianceForm.EXP_LINEAR_CONST)
        for k in range(form.n_params):
            up = list(theta)
            up[k] += eps
            dn = list(theta)
            dn[k] -= eps
            fd = (VarianceModel(form, tuple(up)).log_derivatives(mus)[0]
                  - VarianceModel(form, tuple(dn)).log_derivatives(mus)[0]) / (2 * eps)
            expect = np.zeros_like(fd) if hess is None else hess[k]
            assert np.allclose(expect, fd, rtol=1e-4, atol=1e-10)

    def test_const_term_past_exp_overflow_gives_infinite_h(self):
        m = VarianceModel(VarianceForm.EXP_LINEAR_CONST, (1.0, -1.0, 800.0))
        h = m(10.0)
        assert type(h) is float and h == math.inf
        assert np.all(m(np.array([9.0, 10.0])) == np.inf)
        edge = VarianceModel(VarianceForm.EXP_LINEAR_CONST,
                             (1.0, -1.0, 709.782712893384))
        assert math.isfinite(edge(10.0))

    @pytest.mark.parametrize("form,theta", [
        (VarianceForm.EXP_LINEAR, (4.84, -0.927)),
        (VarianceForm.POWER, (3.9, -3.0)),
        (VarianceForm.EXP_LINEAR_CONST, (4.84, -0.927, -6.0)),
    ])
    def test_float_input_matches_array_path_bit_for_bit(self, form, theta):
        # a Python float mu gives a float with the array path's bits,
        # through exp overflow (mu < -760 here) and underflow (mu > 810),
        # signed zeros, infinities and NaN
        m = VarianceModel(form, theta)
        rng = np.random.default_rng(17)
        mus = np.concatenate([
            rng.uniform(7.3, 13.9, 50_000), rng.uniform(-1000.0, 1000.0, 49_990),
            [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308,
             np.inf, -np.inf, np.nan, -np.nan]])
        with np.errstate(all="ignore"):
            want = m(mus)
            got = [m(mu) for mu in mus.tolist()]
        assert all(isinstance(h, float) for h in got)
        if form is not VarianceForm.POWER:
            assert all(type(h) is float for h in got)
        assert np.array_equal(np.array(got).view(np.int64),
                              want.view(np.int64))

    def test_scaled_model_halves_variance(self):
        for form, theta in [
            (VarianceForm.EXP_LINEAR, (4.84, -0.927)),
            (VarianceForm.POWER, (0.3, 1.7)),
            (VarianceForm.EXP_LINEAR_CONST, (4.84, -0.927, -6.0)),
        ]:
            m = VarianceModel(form, theta)
            half = m.scaled(0.5)
            mus = np.linspace(7.3, 13.9, 7)
            assert np.allclose(half(mus), 0.5 * m(mus), rtol=1e-12)


class TestPairStats:
    """Pair means and variance statistics from PairedDataset.ybar and s2."""

    def test_equal_pair(self):
        d = PairedDataset(["p"], [3.5], [3.5])
        assert (d.ybar[0], d.s2[0]) == (3.5, 0.0)

    def test_simple_values(self):
        d = PairedDataset(["p", "q"], [8.0, 7.5], [10.0, 8.0])
        assert (d.ybar[0], d.s2[0]) == (9.0, 2.0)
        assert d.ybar[1] == pytest.approx(7.75)
        assert d.s2[1] == pytest.approx(0.125)

    def test_identity_holds_over_random_pairs(self):
        # (y1-ybar)^2 + (y2-ybar)^2 == s2, elementwise to machine precision
        rng = np.random.default_rng(42)
        y1 = rng.normal(10, 3, 10**6)
        y2 = rng.normal(10, 3, 10**6)
        ybar = (y1 + y2) / 2
        s2 = (y1 - y2) ** 2 / 2
        recon = (y1 - ybar) ** 2 + (y2 - ybar) ** 2
        assert np.max(np.abs(recon - s2)) < 1e-9

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            PairedDataset(["p"], [math.nan], [1.0])
        with pytest.raises(ValueError):
            PairedDataset(["p"], [1.0], [math.inf])


class TestPairedDataset:
    """Validation and storage of the array-backed dataset."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_names_the_first_bad_id(self, bad):
        y1 = [8.0, 9.0, bad, bad]
        with pytest.raises(ValueError,
                           match=r"non-finite intensities for 'c': \("):
            PairedDataset(["a", "b", "c", "d"], y1, [8.5, 9.5, 9.0, 9.0])
        with pytest.raises(ValueError, match="'b'"):
            PairedDataset(["a", "b"], [8.0, 9.0], [8.5, bad])

    @pytest.mark.parametrize("ids, y1, y2", [
        (["a", "b"], [8.0], [9.0]),
        (["a"], [8.0, 9.0], [9.0, 10.0]),
        (["a", "b"], [8.0, 9.0], [9.0]),
        (["a"], [[8.0]], [[9.0]]),
    ])
    def test_shapes_must_agree(self, ids, y1, y2):
        with pytest.raises(ValueError, match="one length"):
            PairedDataset(ids, y1, y2)

    def test_arrays_are_read_only_copies(self):
        y1 = np.array([8.0, 9.0])
        d = PairedDataset(["a", "b"], y1, [8.5, 10.0])
        y1[0] = 0.0
        assert d.y1[0] == 8.0
        for name in ("y1", "y2", "ybar", "s2"):
            arr = getattr(d, name)
            assert arr.dtype == np.float64
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0

    def test_empty(self):
        d = PairedDataset([], [], [])
        assert d.n == 0 and d.ids() == []
        assert d.y1.shape == d.ybar.shape == (0,)
        assert build_dataset([]).n == 0

    def test_identity_equality(self):
        a = PairedDataset(["a"], [8.0], [9.0])
        b = PairedDataset(["a"], [8.0], [9.0])
        assert a == a and a != b
        assert len({a, b}) == 2


class TestEstimatingEquationBias:
    def test_zero_slope_is_unbiased(self):
        for t1 in (-2.0, 0.0, 5.0):
            first, second = estimating_equation_bias((t1, 0.0), [8.0, 10.0, 12.0])
            assert first == pytest.approx(0.0, abs=1e-14)
            assert second == pytest.approx(0.0, abs=1e-12)

    def test_frozen_values(self):
        # frozen from 40-digit arithmetic of the closed forms
        first, _ = estimating_equation_bias((5.0, -1.0), [10.0])
        assert first == pytest.approx(-0.0016859062945326580, rel=1e-12)
        first, second = estimating_equation_bias((5.0, -0.5), [8.0])
        assert first == pytest.approx(-0.18517757333797590, rel=1e-12)
        assert second == pytest.approx(-2.2868322519792591, rel=1e-12)

    def test_components_vanish_as_slope_to_zero(self):
        # The limit is zero but the approach is not monotone over wide
        # ranges (the slope^2 factor competes with the growing variance),
        # so only the tail of the sequence is checked.
        mus = [8.0, 9.5, 11.0]
        prev = np.inf
        for t2 in (-1e-2, -1e-3, -1e-4, -1e-5):
            first, second = estimating_equation_bias((5.0, t2), mus)
            size = max(abs(first), abs(second))
            assert size < prev
            prev = size
        # second component decays linearly in the slope with constant ~ h/2
        assert prev < 1e-3

    def test_matches_monte_carlo(self):
        # Monte Carlo oracle: average the equation left-hand sides over
        # simulated pairs at the true theta and compare with the formulas.
        rng = np.random.default_rng(2024)
        configs = [
            ((5.0, -1.0), [9.0, 10.0, 11.0]),
            ((5.0, -0.5), [8.0, 10.0]),
            ((4.0, -0.7), [8.5, 12.0, 13.0]),
            ((3.0, -0.3), [9.0]),
            ((5.5, -0.9), [7.5, 10.5, 13.5]),
        ]
        nsim = 200_000
        for theta, mus in configs:
            t1, t2 = theta
            mus_arr = np.asarray(mus)
            h = np.exp(t1 + t2 * mus_arr)
            y1 = rng.normal(mus_arr, np.sqrt(h), size=(nsim, mus_arr.size))
            y2 = rng.normal(mus_arr, np.sqrt(h), size=(nsim, mus_arr.size))
            ybar = (y1 + y2) / 2
            s2 = (y1 - y2) ** 2 / 2
            w = s2 * np.exp(-t1 - t2 * ybar)
            eq1 = 1.0 - np.mean(w, axis=1)
            eq2 = np.mean(ybar, axis=1) - np.mean(ybar * w, axis=1)
            exp1, exp2 = estimating_equation_bias(theta, mus)
            for mc, exact in ((eq1, exp1), (eq2, exp2)):
                se = mc.std(ddof=1) / math.sqrt(nsim)
                assert abs(mc.mean() - exact) < 3 * se + 1e-12

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            estimating_equation_bias((5.0, -1.0), [])
        with pytest.raises(DomainError):
            estimating_equation_bias((5.0, -1.0, 0.0), [10.0])


class TestDatasetIngestion:
    def test_tie_filtering_warns_and_drops(self):
        rows = [("a", 1.0, 2.0), ("b", 3.0, 3.0), ("c", 4.0, 5.0)]
        with pytest.warns(UserWarning, match="1 pair"):
            ds = build_dataset(rows)
        assert ds.n == 2
        assert ds.ids() == ["a", "c"]

    def test_tie_dropping_keeps_order_and_values(self):
        rows = [("a", 8.0, 9.0), ("b", 9.5, 9.5), ("c", 10.0, 10.5),
                ("d", math.inf, math.inf), ("e", 11.0, 10.0)]
        with pytest.warns(UserWarning) as rec:
            ds = build_dataset(rows, bounds=(7.0, 12.0))
        assert [str(w.message) for w in rec] == [
            "dropped 2 pair(s) with identical measurements"]
        assert ds.ids() == ["a", "c", "e"]
        assert ds.y1.tolist() == [8.0, 10.0, 11.0]
        assert ds.y2.tolist() == [9.0, 10.5, 10.0]
        assert ds.bounds == (7.0, 12.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kept = build_dataset(rows[:3], drop_ties=False)
        assert kept.ids() == ["a", "b", "c"]

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            PairedDataset(["a"], [1.0], [2.0], bounds=(5.0, 5.0))
        with pytest.raises(ValueError, match="a < b"):
            PairedDataset(["a"], [1.0], [2.0], bounds=(6.0, 5.0))

    def test_default_bounds(self):
        ds = build_dataset([("a", 1.0, 2.0)])
        assert ds.bounds == (7.3, 13.9)

    def test_stats_arrays(self):
        ds = build_dataset([("a", 8.0, 10.0), ("b", 7.5, 8.0)])
        assert np.allclose(ds.ybar, [9.0, 7.75])
        assert np.allclose(ds.s2, [2.0, 0.125])

    def test_load_csv_roundtrip(self, tmp_path):
        p = tmp_path / "pairs.csv"
        p.write_text("id,y1,y2\npep1,8.25,8.5\npep2,10.0,10.1\n")
        ds = load_csv(p)
        assert ds.n == 2
        assert ds.ids()[0] == "pep1"
        assert ds.y2[1] == pytest.approx(10.1)

    def test_load_csv_raw_applies_log(self, tmp_path):
        p = tmp_path / "pairs.csv"
        p.write_text("id,y1,y2\npep1,1000,2000\n")
        ds = load_csv(p, raw=True)
        assert ds.y1[0] == pytest.approx(math.log(1000))
        assert ds.y2[0] == pytest.approx(math.log(2000))

    def test_load_csv_rejects_nonfinite_with_row_number(self, tmp_path):
        p = tmp_path / "pairs.csv"
        p.write_text("id,y1,y2\npep1,8.0,9.0\npep2,nan,9.0\n")
        with pytest.raises(DataError, match="row 3"):
            load_csv(p)

    def test_load_csv_rejects_garbage_with_row_number(self, tmp_path):
        p = tmp_path / "pairs.csv"
        p.write_text("id,y1,y2\npep1,8.0,abc\n")
        with pytest.raises(DataError, match="row 2"):
            load_csv(p)

    def test_load_csv_rejects_bad_header(self, tmp_path):
        p = tmp_path / "pairs.csv"
        p.write_text("peptide,a,b\nx,1,2\n")
        with pytest.raises(DataError):
            load_csv(p)

    def test_load_csv_ties_dropped(self, tmp_path):
        p = tmp_path / "pairs.csv"
        p.write_text("id,y1,y2\npep1,8.0,8.0\npep2,8.0,9.0\n")
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            ds = load_csv(p)
        assert ds.n == 1
        assert any("dropped 1" in str(w.message) for w in rec)
