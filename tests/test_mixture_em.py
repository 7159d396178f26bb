import dataclasses
import math

import numpy as np
import pytest

from pairvar import mixture_em
from pairvar.errors import NumericalError
from pairvar.macl import macl_fit
from pairvar.mixture_em import (
    LOG_2PI,
    MixtureEstimate,
    SupportGrid,
    build_support,
    em_fit,
    fit_mixture,
    mixture_log_lik,
    responsibilities,
)
from pairvar.model import PairedDataset, PairedObservation, VarianceForm, VarianceModel

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

# float64 exp(x) is subnormal below the first and 0 below the second
EXP_SUBNORMAL = -708.3964185322641
EXP_UNDERFLOW = -745.1332191019412


def exp_linear(t1, t2):
    return VarianceModel(VarianceForm.EXP_LINEAR, (t1, t2))


def dataset_from_arrays(y1, y2, bounds=(7.3, 13.9)):
    pairs = tuple(PairedObservation(str(i), float(a), float(b))
                  for i, (a, b) in enumerate(zip(y1, y2)))
    return PairedDataset(pairs, bounds=bounds)


def simulate_dataset(n, theta, seed, lo=8.0, hi=12.0,
                     form=VarianceForm.EXP_LINEAR):
    rng = np.random.default_rng(seed)
    mus = rng.uniform(lo, hi, n)
    sd = np.sqrt(VarianceModel(form, theta)(mus))
    return dataset_from_arrays(rng.normal(mus, sd), rng.normal(mus, sd))


class PlainEngine(mixture_em._EmEngine):
    """Oracle: the E-step as plain np.exp on a freshly gathered block."""

    def e_step(self, theta, pi):
        pi = np.asarray(pi, dtype=float)
        active = np.flatnonzero(pi > 0.0)
        h = VarianceModel(self.form, tuple(theta))(self.points[active])
        head = np.log(pi[active]) - LOG_2PI - np.log(h)
        out = self.sq_dev[:, active] * (-0.5 / h)[None, :]
        out += head[None, :]
        top = out.max(axis=1, keepdims=True)
        np.subtract(out, top, out=out)
        np.exp(out, out=out)
        totals = out.sum(axis=1)
        ll = float((top.ravel() + np.log(totals)).sum())
        out /= totals[:, None]
        return active, self.sq_dev[:, active], ll, out


class TestBuildSupport:
    def test_degenerate_range_single_point(self):
        grid = build_support(exp_linear(0.0, 0.0), 5.0, 5.0, 0.25)
        assert grid.points == (5.0,)

    def test_unit_variance_unit_steps(self):
        grid = build_support(exp_linear(0.0, 0.0), 0.0, 3.0, 1.0)
        assert np.allclose(grid.points, [0.0, 1.0, 2.0, 3.0])

    def test_second_from_top_point(self):
        # frozen from 40-digit arithmetic: 13.9 - 0.25*sqrt(exp(4.84-0.927*13.9))
        grid = build_support(exp_linear(4.84, -0.927), 7.3, 13.9, 0.25)
        assert grid.points[-1] == 13.9
        assert grid.points[-2] == pytest.approx(13.895523636858971, rel=1e-12)

    def test_lowest_point_clamped(self):
        grid = build_support(exp_linear(4.84, -0.927), 7.3, 13.9, 0.25)
        assert grid.points[0] == 7.3
        pts = grid.array
        assert np.all(np.diff(pts) > 0)
        # spacing respects the recursion: gap <= d * sd at the upper point
        gaps = np.diff(pts)
        sds = np.sqrt(exp_linear(4.84, -0.927)(pts[1:]))
        assert np.all(gaps <= 0.25 * sds + 1e-12)

    def test_grid_explosion_guarded(self):
        with pytest.raises(NumericalError):
            build_support(exp_linear(-80.0, 0.0), 0.0, 1.0, 0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_support(exp_linear(0.0, 0.0), 1.0, 0.0, 0.25)
        with pytest.raises(ValueError):
            build_support(exp_linear(0.0, 0.0), 0.0, 1.0, -1.0)
        with pytest.raises(ValueError):
            SupportGrid(points=(1.0, 1.0), spacing_d=0.25)


class TestResponsibilities:
    def test_single_component_all_one(self):
        ds = dataset_from_arrays([8.0, 9.0, 10.0], [8.5, 9.5, 10.5])
        grid = SupportGrid(points=(9.0,), spacing_d=0.25)
        w = responsibilities(ds, exp_linear(0.0, 0.0), grid, [1.0]).w
        assert np.allclose(w, 1.0)

    def test_equidistant_symmetric_split(self):
        ds = dataset_from_arrays([10.0], [10.0 + 1e-9])
        grid = SupportGrid(points=(9.0, 11.0), spacing_d=1.0)
        w = responsibilities(ds, exp_linear(0.0, 0.0), grid, [0.5, 0.5]).w
        assert np.allclose(w, 0.5, atol=1e-6)

    def test_rows_sum_to_one(self):
        ds = simulate_dataset(100, (5.0, -1.0), seed=1)
        grid = build_support(exp_linear(5.0, -1.0), 7.3, 13.9, 0.5)
        pi = np.full(grid.J, 1.0 / grid.J)
        w = responsibilities(ds, exp_linear(5.0, -1.0), grid, pi).w
        assert np.max(np.abs(w.sum(axis=1) - 1.0)) < 1e-10

    def test_zero_weight_columns_are_zero(self):
        ds = simulate_dataset(20, (5.0, -1.0), seed=2)
        grid = SupportGrid(points=(9.0, 10.0, 11.0), spacing_d=1.0)
        w = responsibilities(ds, exp_linear(5.0, -1.0), grid, [0.5, 0.0, 0.5]).w
        assert w.shape == (20, 3)
        assert np.all(w[:, 1] == 0.0)
        assert np.max(np.abs(w.sum(axis=1) - 1.0)) < 1e-10

    def test_underflow_names_offending_pair(self):
        # second pair so far from the only support point that its density
        # is zero even in log space
        ds = dataset_from_arrays([10.0, 1e155], [10.5, 1e155], bounds=(0.0, 20.0))
        grid = SupportGrid(points=(10.0,), spacing_d=0.25)
        with pytest.raises(NumericalError, match="'1'"):
            responsibilities(ds, exp_linear(0.0, 0.0), grid, [1.0])


class TestMixtureLogLik:
    def test_standard_normal_pair_at_origin(self):
        ds = dataset_from_arrays([0.0], [1e-12], bounds=(-1.0, 1.0))
        grid = SupportGrid(points=(0.0,), spacing_d=0.25)
        ll = mixture_log_lik(ds, exp_linear(0.0, 0.0), grid, [1.0])
        assert ll == pytest.approx(-math.log(2 * math.pi), abs=1e-9)

    def test_zero_weight_component_is_inert(self):
        ds = simulate_dataset(20, (5.0, -1.0), seed=2)
        grid = SupportGrid(points=(9.0, 10.0, 11.0), spacing_d=1.0)
        m = exp_linear(5.0, -1.0)
        base = mixture_log_lik(ds, m, grid, [0.5, 0.5, 0.0])
        two = mixture_log_lik(ds, m, SupportGrid(points=(9.0, 10.0), spacing_d=1.0),
                              [0.5, 0.5])
        assert base == pytest.approx(two, abs=1e-12)

    def test_matches_direct_summation_oracle(self):
        # brute-force density sums without the log-sum-exp rearrangement
        rng = np.random.default_rng(7)
        ds = simulate_dataset(30, (2.0, -0.3), seed=3)
        grid = SupportGrid(points=tuple(np.linspace(8, 12, 7)), spacing_d=0.5)
        pi = rng.dirichlet(np.ones(7))
        m = exp_linear(2.0, -0.3)
        ll = mixture_log_lik(ds, m, grid, pi)
        direct = 0.0
        for pair in ds.pairs:
            total = 0.0
            for p, mu in zip(pi, grid.points):
                h = float(m(mu))
                dens = (1.0 / (2 * math.pi * h)) * math.exp(
                    -((pair.y1 - mu) ** 2 + (pair.y2 - mu) ** 2) / (2 * h))
                total += p * dens
            direct += math.log(total)
        assert ll == pytest.approx(direct, abs=1e-9)


def exp_grid():
    """Dense grid over [-800, 0] plus the float64 edges of exp, the fast
    path's thresholds and their neighbours, -inf, NaN and both zeros."""
    edges = []
    for c in (EXP_UNDERFLOW, EXP_SUBNORMAL, -700.0, -746.0):
        lo = hi = c
        edges.append(c)
        for _ in range(3):
            lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
            edges += [lo, hi]
    x = np.concatenate([np.linspace(-800.0, 0.0, 159968), edges,
                        [-np.inf, np.nan, 0.0, -0.0]])
    assert x.size == 400 * 400
    return np.random.default_rng(0).permutation(x)


def same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.int64),
                          np.asarray(b).view(np.int64))


class TestFastExp:
    def test_grid_covers_every_branch(self):
        x = exp_grid()
        for lo, hi in ((-np.inf, -746.0), (-746.0, EXP_UNDERFLOW),
                       (EXP_UNDERFLOW, EXP_SUBNORMAL), (EXP_SUBNORMAL, -700.0),
                       (-700.0, 0.0)):
            assert np.count_nonzero((x >= lo) & (x < hi)) >= 7

    def test_one_dimensional(self):
        x = exp_grid()
        assert same_bits(mixture_em._exp(x.copy()), np.exp(x))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_contiguous_layouts(self, order):
        x = np.reshape(exp_grid(), (400, 400), order=order)
        y = np.array(x, order=order)
        out = mixture_em._exp(y)
        assert out is y
        assert out.flags[f"{order}_CONTIGUOUS"]
        assert same_bits(out, np.exp(x))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_strided_view_in_place(self, order):
        x = exp_grid().reshape(400, 400)
        big = np.full((800, 1200), 3.0, order=order)
        big[::2, ::3] = x
        mixture_em._exp(big[::2, ::3])
        assert same_bits(big[::2, ::3], np.exp(x))
        untouched = np.ones(big.shape, dtype=bool)
        untouched[::2, ::3] = False
        assert np.all(big[untouched] == 3.0)

    def test_special_values(self):
        x = np.array([-np.inf, np.nan, 0.0, -0.0, -1e300, -746.0,
                      EXP_UNDERFLOW, np.nextafter(EXP_UNDERFLOW, 0.0)])
        out = mixture_em._exp(x.copy())
        assert same_bits(out, np.exp(x))
        assert out[0] == 0.0 and np.isnan(out[1]) and out[7] > 0.0


def oracle_fit(monkeypatch, *args, **kwargs):
    with monkeypatch.context() as m:
        m.setattr(mixture_em, "_EmEngine", PlainEngine)
        return em_fit(*args, **kwargs)


def subnormal_share(ds, grid, model):
    """Share of log-joint entries, relative to their row maximum, that
    fall where float64 exp is subnormal, at uniform weights."""
    engine = mixture_em._EmEngine(ds, grid, model.form)
    h = model(engine.points)
    lj = engine.sq_dev * (-0.5 / h)[None, :] - np.log(h)[None, :]
    lj -= lj.max(axis=1, keepdims=True)
    return float(np.mean((lj < EXP_SUBNORMAL) & (lj >= EXP_UNDERFLOW)))


class TestEngineOracle:
    CASES = {
        "exp-linear": (VarianceForm.EXP_LINEAR, (5.0, -1.0), 8.0, 12.0),
        "power": (VarianceForm.POWER, (5.0, -4.0), 8.0, 12.0),
        "exp-linear-const": (VarianceForm.EXP_LINEAR_CONST,
                             (4.84, -0.927, -4.0), 8.0, 12.0),
        # small variance over a short range: the log joint spans ~[-900, 0]
        "subnormal-band": (VarianceForm.EXP_LINEAR, (-4.6, -0.05), 8.0, 11.0),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_em_fit_matches_plain_e_step(self, case, monkeypatch):
        form, theta, lo, hi = self.CASES[case]
        model = VarianceModel(form, theta)
        ds = simulate_dataset(200, theta, seed=31, lo=lo, hi=hi, form=form)
        grid = build_support(model, 7.3, 13.9, 0.25)
        if case == "subnormal-band":
            assert subnormal_share(ds, grid, model) > 0.01
        fast = em_fit(ds, grid, model, max_iter=300)
        slow = oracle_fit(monkeypatch, ds, grid, model, max_iter=300)
        assert fast.iterations > 50
        if case != "exp-linear-const":
            # support points dropped out, so the active block was re-gathered
            assert fast.active_points < grid.J
        assert fast.theta_hat == slow.theta_hat
        assert fast.pi_hat == slow.pi_hat
        assert fast.log_lik_path == slow.log_lik_path
        assert fast.log_lik == slow.log_lik
        assert fast.iterations == slow.iterations
        assert fast.converged == slow.converged


class TestEmFit:
    def test_single_point_grid_forced_mixture(self):
        ds = simulate_dataset(200, (5.0, -1.0), seed=4)
        grid = SupportGrid(points=(10.0,), spacing_d=0.25)
        est = em_fit(ds, grid, exp_linear(5.0, -1.0))
        assert est.pi_hat == (1.0,)
        # with all mass at mu1 the fitted variance is the mean squared
        # deviation around mu1
        t = (ds.y1 - 10.0) ** 2 + (ds.y2 - 10.0) ** 2
        target = float(np.mean(t)) / 2.0
        fitted = float(VarianceModel(VarianceForm.EXP_LINEAR, est.theta_hat)(10.0))
        assert fitted == pytest.approx(target, rel=1e-6)

    def test_ascent_on_random_small_datasets(self):
        rng = np.random.default_rng(11)
        for trial in range(50):
            n = int(rng.integers(5, 51))
            t1 = float(rng.uniform(1.0, 6.0))
            t2 = float(rng.uniform(-1.2, -0.2))
            mus = rng.uniform(8.0, 12.0, n)
            sd = np.sqrt(np.exp(t1 + t2 * mus))
            ds = dataset_from_arrays(rng.normal(mus, sd), rng.normal(mus, sd))
            j = int(rng.integers(2, 11))
            grid = SupportGrid(points=tuple(np.linspace(7.5, 13.5, j)),
                               spacing_d=0.5)
            est = em_fit(ds, grid, exp_linear(t1, t2), max_iter=300)
            path = np.asarray(est.log_lik_path)
            assert np.all(np.diff(path) >= -1e-8)
            assert abs(sum(est.pi_hat) - 1.0) < 1e-12
            w = responsibilities(ds, exp_linear(*est.theta_hat), grid,
                                 est.pi_hat).w
            assert np.max(np.abs(w.sum(axis=1) - 1.0)) < 1e-10

    def test_deterministic(self):
        ds = simulate_dataset(150, (5.0, -1.0), seed=6)
        grid = build_support(exp_linear(5.0, -1.0), 7.3, 13.9, 0.5)
        a = em_fit(ds, grid, exp_linear(5.0, -0.9))
        b = em_fit(ds, grid, exp_linear(5.0, -0.9))
        assert a.theta_hat == b.theta_hat
        assert a.pi_hat == b.pi_hat
        assert a.log_lik == b.log_lik

    def test_acceleration_reaches_plain_em_fixed_point(self):
        ds = simulate_dataset(250, (5.0, -0.5), seed=9)
        start = macl_fit(ds).theta_hat
        grid = build_support(exp_linear(*start), 7.3, 13.9, 0.25)
        fast = em_fit(ds, grid, exp_linear(*start), accelerate=True)
        slow = em_fit(ds, grid, exp_linear(*start), accelerate=False,
                      max_iter=30000)
        assert fast.converged and slow.converged
        assert fast.theta_hat == pytest.approx(slow.theta_hat, abs=2e-3)
        assert fast.iterations < slow.iterations

    def test_iterations_never_exceed_max_iter(self):
        ds = simulate_dataset(300, (4.84, -0.927), seed=13)
        grid = build_support(exp_linear(4.84, -0.927), 7.3, 13.9, 0.25)
        for max_iter in range(1, 13):
            est = em_fit(ds, grid, exp_linear(4.84, -0.927), max_iter=max_iter)
            assert not est.converged
            assert est.iterations <= max_iter
            assert len(est.log_lik_path) <= max_iter + 1

    def test_exact_budget_keeps_converged_count(self):
        ds = simulate_dataset(150, (5.0, -1.0), seed=6)
        grid = build_support(exp_linear(5.0, -1.0), 7.3, 13.9, 0.5)
        full = em_fit(ds, grid, exp_linear(5.0, -0.9))
        tight = em_fit(ds, grid, exp_linear(5.0, -0.9), max_iter=full.iterations)
        assert full.converged and tight.converged
        assert tight == full

    def test_diagnostics(self):
        ds = simulate_dataset(150, (5.0, -1.0), seed=6)
        grid = build_support(exp_linear(5.0, -1.0), 7.3, 13.9, 0.5)
        plain = em_fit(ds, grid, exp_linear(5.0, -0.9), accelerate=False,
                       max_iter=200)
        assert (plain.jumps_accepted, plain.jumps_rejected) == (0, 0)
        fast = em_fit(ds, grid, exp_linear(5.0, -0.9))
        assert fast.jumps_accepted > 0 and fast.jumps_rejected > 0
        for est in (plain, fast):
            assert est.active_points == np.count_nonzero(est.pi_hat)
            assert est.mstep_fallbacks == 0
            # every map but a rejected jump's adds a path entry; so does
            # the final likelihood
            assert len(est.log_lik_path) == est.iterations - est.jumps_rejected + 1

    def test_counts_mstep_fallbacks(self, monkeypatch):
        # a score root that moves Q downhill sends every M-step to the
        # Nelder-Mead fallback
        real = mixture_em.solve_weighted_equations

        def downhill(*args, **kwargs):
            res = real(*args, **kwargs)
            return dataclasses.replace(
                res, theta_hat=(res.theta_hat[0] + 20.0, *res.theta_hat[1:]))

        monkeypatch.setattr(mixture_em, "solve_weighted_equations", downhill)
        ds = simulate_dataset(60, (5.0, -1.0), seed=3)
        grid = SupportGrid(points=tuple(np.linspace(8.0, 12.0, 5)), spacing_d=1.0)
        est = em_fit(ds, grid, exp_linear(5.0, -1.0), max_iter=4)
        assert est.mstep_fallbacks == est.iterations == 4

    def test_mixture_estimate_validation(self):
        with pytest.raises(ValueError):
            MixtureEstimate(theta_hat=(1.0, -1.0), pi_hat=(0.5, 0.4),
                            log_lik=0.0, iterations=1, converged=True)
        with pytest.raises(ValueError):
            MixtureEstimate(theta_hat=(1.0, -1.0), pi_hat=(1.5, -0.5),
                            log_lik=0.0, iterations=1, converged=True)


@pytest.mark.slow
class TestGridInsensitivity:
    def test_halving_spacing_barely_moves_estimate(self):
        ds = simulate_dataset(2000, (5.0, -1.0), seed=12)
        coarse, _ = fit_mixture(ds, d=0.25)
        fine, _ = fit_mixture(ds, d=0.125)
        assert abs(coarse.theta_hat[0] - fine.theta_hat[0]) < 0.05
        assert abs(coarse.theta_hat[1] - fine.theta_hat[1]) < 0.05
