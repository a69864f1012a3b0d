"""Flowlines, fixed points, periodic orbits, Floquet data, and the CZ index."""

import gc

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg as sla
import scipy.optimize
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from curllab import contact, dynamics
from curllab.contact import conley_zehnder
from curllab.dynamics import (
    EIG_TOL,
    NEWTON_TOL,
    SCAN_TOL,
    Trajectory,
    _orbit_seeds,
    _orthonormal_complement,
    _project_return_map,
    abc_field,
    cz_index_from_path,
    find_fixed_points,
    find_periodic_orbits,
    find_periodic_orbits_batch,
    flow,
    named_field,
    newton_zero,
    parse_section,
    shear_field,
    solve_lanes,
    torus_distance,
    variational_flow,
)
from curllab.errors import FrameError, StiffnessError
from curllab.fields import FieldJet, FourierField, flat as lower_index, flat_metric


class FrozenJet:
    """Linear test system: constant drift with a frozen Jacobian, a jet of
    the two-method protocol (value and value_and_jacobian, each at a point
    or at rows)."""

    truncation = 1

    def __init__(self, drift, jacobian):
        self.drift = np.asarray(drift, float)
        self.jac = np.asarray(jacobian, float)

    def value(self, x):
        """The drift plus the frozen Jacobian at a point (3,) or rows (P, 3)."""
        return self.drift + np.asarray(x, float) @ self.jac.T

    def value_and_jacobian(self, x):
        value = self.value(x)
        return value, np.broadcast_to(self.jac, value.shape + (3,)).copy()

    def jacobian(self, x):
        return self.jac.copy()


class TestFlow:
    @pytest.mark.parametrize("integrate", [flow, variational_flow])
    def test_jet_does_not_outlive_its_flow(self, integrate):
        # the jet built for the flow must die with its last reference:
        # nothing the integration leaves behind may hold it
        gc.collect()
        gc.disable()
        try:
            before = {id(o) for o in gc.get_objects() if isinstance(o, FieldJet)}
            field = abc_field(1.0, 0.7, 0.3)
            integrate(field, (0.1, 0.2, 0.3), 2.0)
            del field
            left = [o for o in gc.get_objects()
                    if isinstance(o, FieldJet) and id(o) not in before]
        finally:
            gc.enable()
        assert left == []

    def test_shear_straight_line(self):
        traj = flow(shear_field(1), (0.0, 0.0, 0.0), 1.0, tol=1e-12)
        np.testing.assert_allclose(traj.final, [0.0, 1.0, 0.0], atol=1e-10)

    def test_zero_field_constant(self):
        u = FourierField.zeros("vector", 1)
        traj = flow(u, (1.0, 2.0, 3.0), 5.0, n_samples=16)
        np.testing.assert_allclose(traj.points, np.tile([1, 2, 3], (16, 1)),
                                   atol=1e-12)

    def test_self_convergence(self):
        # coarse integration agrees with a much tighter reference run
        u = abc_field(1, 1, 1)
        tol = 1e-8
        coarse = flow(u, (0.1, 0.2, 0.3), 2 * np.pi, tol=tol)
        ref = flow(u, (0.1, 0.2, 0.3), 2 * np.pi, tol=tol / 100)
        assert np.linalg.norm(coarse.final - ref.final) <= 10 * tol * 100

    def test_winding_counters(self):
        u = FourierField.constant("vector", [1.0, 0.0, 0.0])
        traj = flow(u, (0.0, 0.0, 0.0), 3 * 2 * np.pi, tol=1e-11)
        winding = np.round((traj.final - traj.points[0]) / (2 * np.pi))
        assert tuple(winding) == (3, 0, 0)

    def test_integrable_field_conserves_height(self):
        tol = 1e-10
        traj = flow(shear_field(1), (0.3, 0.4, 1.1), 20.0, tol=tol,
                    n_samples=200)
        assert np.abs(traj.points[:, 2] - 1.1).max() <= 10 * tol

    def test_sample_times(self):
        u = abc_field(1, 1, 1)
        assert flow(u, (0.1, 0.2, 0.3), 2.5).ts.tolist() == [0.0, 2.5]
        traj, Ms = variational_flow(u, (0.1, 0.2, 0.3), 2.5, n_samples=6)
        np.testing.assert_array_equal(traj.ts, np.linspace(0.0, 2.5, 6))
        assert traj.points.shape == (6, 3) and Ms.shape == (6, 3, 3)
        np.testing.assert_array_equal(Ms[0], np.eye(3))

    @pytest.mark.parametrize("T", [0.0, -1.0, np.nan, np.inf])
    @pytest.mark.parametrize("integrate", [flow, variational_flow])
    def test_bad_horizon_is_refused(self, integrate, T):
        # no caller integrates backward: a T that is not finite and > 0
        # is refused before any step, and named
        with pytest.raises(ValueError, match=r"T must be a finite real > 0"):
            integrate(abc_field(1, 1, 1), (0.1, 0.2, 0.3), T, n_samples=3)

    def test_failed_lane_raises(self):
        class Blowup:
            """x' = x * x in each coordinate: infinite at t = 1 from x = 1."""

            @staticmethod
            def value(y):
                return y * y

        with pytest.raises(StiffnessError, match="failed"):
            flow(Blowup(), (1.0, 1.0, 1.0), 2.0)


class TestOneIntegrator:
    """flow, variational_flow and the orbit scan are lanes of solve_lanes."""

    X0 = (0.1, 0.2, 0.3)
    T = 7.8

    def test_flow_matches_solve_ivp(self):
        # the reference integrator lives in the tests only
        jet = FieldJet(abc_field(1, 1, 1))
        ts = np.linspace(0.0, self.T, 50)
        traj = flow(jet, self.X0, self.T, tol=1e-10, n_samples=len(ts))
        ref = scipy.integrate.solve_ivp(
            lambda _, y: jet.value(y), (0.0, self.T), self.X0,
            method="DOP853", rtol=1e-10, atol=1e-12, t_eval=ts)
        assert np.abs(traj.points - ref.y.T).max() <= 1e-12 * np.abs(ref.y).max()

    def test_variational_flow_matches_solve_ivp(self):
        jet = FieldJet(abc_field(1, 1, 1))

        def rhs(_, y):
            val, jac = jet.value_and_jacobian(y[:3])
            return np.concatenate([val, (jac @ y[3:].reshape(3, 3)).ravel()])

        ts = np.linspace(0.0, self.T, 50)
        traj, Ms = variational_flow(jet, self.X0, self.T, n_samples=len(ts))
        ref = scipy.integrate.solve_ivp(
            rhs, (0.0, self.T), np.r_[self.X0, np.eye(3).ravel()],
            method="DOP853", rtol=1e-11, atol=1e-12, t_eval=ts)
        assert np.abs(traj.points - ref.y[:3].T).max() <= \
            1e-12 * np.abs(ref.y[:3]).max()
        assert np.abs(Ms.reshape(-1, 9) - ref.y[3:].T).max() <= \
            1e-12 * np.abs(ref.y[3:]).max()

    @staticmethod
    def spy(monkeypatch):
        calls = []

        def spying(rhs, y0, T, n_samples, **kwargs):
            samples, failed = solve_lanes(rhs, y0, T, n_samples, **kwargs)
            calls.append((np.array(y0), T, n_samples, samples, failed))
            return samples, failed

        monkeypatch.setattr(dynamics, "solve_lanes", spying)
        return calls

    @staticmethod
    def as_json(entry):
        records, stats = entry
        return [r.to_json_dict(include_trajectory=True) for r in records], stats

    @pytest.mark.two_blas_threads
    def test_scan_seed_is_the_same_alone_and_among_lanes(self, monkeypatch):
        jet = FieldJet(abc_field(1.0, 0.7, 0.3))
        calls = self.spy(monkeypatch)
        monkeypatch.setattr(dynamics, "_close_return_candidates", lambda _: [])
        assert find_periodic_orbits(jet, T_max=5.0, n_seeds=4, seed=2) == []
        ((seeds, T, n_scan, samples, failed),) = calls
        assert len(seeds) == 4 and not failed.any()
        for x0, lane in zip(seeds, samples):
            alone = flow(jet, x0, T, tol=SCAN_TOL, n_samples=n_scan)
            np.testing.assert_array_equal(alone.points, lane)

    @pytest.mark.two_blas_threads
    def test_each_jet_finds_its_orbits_alone_and_among_lanes(self):
        # three jets share one scan solve; each entry's records and stats
        # are those of the jet's own batch of one, bit for bit
        jets = [FieldJet(abc_field(1.0, 0.7, 0.3)), FieldJet(shear_field(1)),
                FieldJet(abc_field(1.0, 1.0, 1.0))]
        seeds = [_orbit_seeds(4, 1), _orbit_seeds(4, 0, {"axis": "z"}),
                 _orbit_seeds(2, 1)]

        batch = find_periodic_orbits_batch(jets, seeds, 10.0)
        for jet, x_seeds, entry in zip(jets, seeds, batch):
            (alone,) = find_periodic_orbits_batch([jet], [x_seeds], 10.0)
            assert entry[0] and self.as_json(entry) == self.as_json(alone)

    @pytest.mark.two_blas_threads
    def test_a_jet_named_twice_finds_its_orbits_among_lanes(self):
        # both entries' seeds ride the jet's one layer; each entry's records
        # and stats are those of its own batch of one
        jet = FieldJet(shear_field(1))
        seeds = [_orbit_seeds(4, 0, {"axis": "z"}), _orbit_seeds(3, 0, {"axis": "x"})]
        batch = find_periodic_orbits_batch([jet, jet], seeds, 8.0)
        for x_seeds, entry in zip(seeds, batch):
            (alone,) = find_periodic_orbits_batch([jet], [x_seeds], 8.0)
            assert entry[0] and self.as_json(entry) == self.as_json(alone)

    def test_one_lane_solve_per_scan(self, monkeypatch):
        # the scan's seeds share one solve; shooting, primitive-period
        # probes and the orbit records are solves of one lane each
        calls = self.spy(monkeypatch)
        ((records, stats),) = find_periodic_orbits_batch(
            [shear_field(1)], [_orbit_seeds(4, 0, {"axis": "z"})], 8.0)
        assert records and stats["candidates"] > 0
        lanes = [len(y0) for y0, *_ in calls]
        assert lanes[0] == 4 and calls[0][1] == 8.0
        assert lanes[1:] and set(lanes[1:]) == {1}

    def test_orbit_stage_runs_without_solve_ivp(self, abc_orbits, monkeypatch):
        from curllab.curlspec import EigenPair
        from curllab.fields import l2_norm
        from curllab.instability import CertifyBudget, certify

        def refuse(*args, **kwargs):
            raise AssertionError("solve_ivp called")

        # dynamics first: it resolves solve_ivp from scipy.integrate on first
        # access, and the undo restores whatever that access returned
        monkeypatch.setattr(dynamics, "solve_ivp", refuse)
        monkeypatch.setattr(scipy.integrate, "solve_ivp", refuse)
        u = abc_field(1, 1, 1)
        alpha = lower_index(flat_metric(), u)
        orbit = next(r for r in abc_orbits if r.nondegenerate)
        assert conley_zehnder(orbit, alpha, u) == 2
        assert find_periodic_orbits(u, T_max=8.0, n_seeds=2, seed=3)
        # a zero-free eigenfield certifies through the orbit stage
        flat = flat_metric()
        v = abc_field(1.0, 0.7, 0.3)
        form = lower_index(flat, v)
        pair = EigenPair(eigenvalue=1.0, form=(1.0 / l2_norm(flat, form)) * form,
                         residual=0.0, index=0)
        budget = CertifyBudget(T_max=20.0, orbit_seeds=10, n_seeds=2, seed=1)
        assert certify(flat, pair, budget).mechanism == "hyperbolic_orbit"


class TestOrbitSearchArguments:
    @pytest.mark.parametrize("kwargs, match", [
        ({"T_max": -1.0}, "T_max must be a finite real > 0"),
        ({"T_max": 0.0}, "T_max must be a finite real > 0"),
        ({"T_max": np.nan}, "T_max must be a finite real > 0"),
        ({"n_seeds": -1}, "n_seeds must be an integer >= 0"),
        ({"n_seeds": 2.5}, "n_seeds must be an integer >= 0"),
        ({"section_spec": {"axis": 5}}, "section axis"),
        ({"section_spec": {"axis": "w"}}, "section axis"),
        ({"section_spec": {"axis": "xy"}}, "section axis"),
        ({"section_spec": {"axis": 1.0}}, "section axis"),
        ({"section_spec": {"axis": "z", "offset": np.inf}}, "section offset"),
        # a bool is no offset, and None no number
        ({"section_spec": {"axis": "z", "offset": True}}, "section offset"),
        ({"section_spec": {"axis": "z", "offset": None}}, "section offset"),
    ])
    def test_bad_arguments_are_refused(self, kwargs, match):
        # each bad argument is named before any seed is drawn or flowed
        with pytest.raises(ValueError, match=match):
            find_periodic_orbits(abc_field(1, 1, 1), **{"T_max": 2.0, **kwargs})

    def test_section_names_and_defaults(self):
        # find_periodic_orbits and the CLI's --section share this parser
        assert parse_section({}) == (2, 0.0)
        assert parse_section({"axis": "y", "offset": 1.5}) == (1, 1.5)
        assert parse_section({"axis": "0", "offset": "-2"}) == (0, -2.0)
        assert parse_section({"axis": "z", "offset": "1.5"}) == (2, 1.5)
        assert parse_section({"offset": np.float32(0.5)}) == (2, 0.5)
        assert parse_section({"axis": np.int64(1)}) == (1, 0.0)

    def test_no_seeds_no_orbits(self):
        assert find_periodic_orbits(abc_field(1, 1, 1), T_max=2.0,
                                    n_seeds=0) == []
        (found,) = find_periodic_orbits_batch([abc_field(1, 1, 1)],
                                              [_orbit_seeds(0, 0)], 2.0)
        assert found == ([], {"candidates": 0, "unresolved": 0,
                              "duplicates": 0})


class NaNJacobianJet:
    """A jet with finite values and NaN Jacobians: every variational flow
    on it fails."""

    def __init__(self, jet):
        self.jet = jet

    def __getattr__(self, name):
        return getattr(self.jet, name)

    def value_and_jacobian(self, x):
        vals, jacs = self.jet.value_and_jacobian(x)
        return vals, np.full_like(jacs, np.nan)


class TestOrbitShootingFailures:
    def test_failed_shooting_flows_are_counted(self):
        # a StiffnessError from the shooting flows used to escape the search
        jet = NaNJacobianJet(FieldJet(abc_field(1, 1, 1)))
        assert find_periodic_orbits(jet, T_max=8.0, n_seeds=2, seed=3) == []
        ((records, stats),) = find_periodic_orbits_batch(
            [jet], [_orbit_seeds(2, 3)], 8.0)
        assert records == []
        assert stats["candidates"] > 0
        assert stats["unresolved"] == stats["candidates"]


class TestFixedPoints:
    def test_unit_speed_field_has_none(self):
        assert find_fixed_points(shear_field(1)) == []

    def test_three_term_beltrami_stagnation_points(self):
        u = abc_field(1, 1, 1)
        records = find_fixed_points(u)
        assert len(records) == 8
        for rec in records:
            assert rec.residual <= 1e-10
            assert rec.nondegenerate
            assert rec.classification == "saddle"
            assert abs(np.trace(rec.jacobian)) <= 1e-8

    def test_matches_independent_root_finder(self):
        # oracle: scipy root search over a fine seed lattice
        u = abc_field(1, 1, 1)

        def fn(x):
            return np.asarray(u.eval(x))

        found = []
        lin = np.linspace(0, 2 * np.pi, 7, endpoint=False)
        for x0 in np.stack(np.meshgrid(lin, lin, lin), -1).reshape(-1, 3):
            sol = scipy.optimize.root(fn, x0, tol=1e-12)
            if sol.success and np.linalg.norm(fn(sol.x)) < 1e-9:
                x = np.mod(sol.x, 2 * np.pi)
                if not any(torus_distance(x, y) < 1e-6 for y in found):
                    found.append(x)
        records = find_fixed_points(u)
        assert len(found) == len(records) == 8
        for rec in records:
            assert min(torus_distance(rec.location, y) for y in found) <= 1e-8

    def test_rerun_at_tighter_tolerance_is_stable(self):
        # re-polish every zero at a tenth of the detection tolerance, as
        # certify does before it issues a saddle witness
        u = abc_field(1, 1, 1)
        jet = FieldJet(u)
        records = find_fixed_points(u)
        assert records
        for rec in records:
            hit = newton_zero(jet, rec.location, tol=NEWTON_TOL / 10, max_iter=40)
            assert hit.converged
            assert torus_distance(rec.location, hit.x) <= 1e-9


class CountingJet:
    """A jet that counts its value_and_jacobian calls."""

    def __init__(self, jet):
        self.jet = jet
        self.calls = 0

    def value(self, x):
        return self.jet.value(x)

    def value_and_jacobian(self, x):
        self.calls += 1
        return self.jet.value_and_jacobian(x)


class TestNewtonZero:
    def test_converges_to_stagnation_point(self):
        jet = FieldJet(abc_field(1, 1, 1))
        zero = find_fixed_points(abc_field(1, 1, 1))[0].location
        hit = newton_zero(jet, zero + np.array([0.05, -0.04, 0.03]),
                          tol=1e-12, max_iter=40)
        assert hit.converged
        assert hit.best == np.linalg.norm(hit.value) <= 1e-12
        assert torus_distance(hit.x, zero) <= 1e-10
        np.testing.assert_array_equal(
            hit.jacobian, jet.value_and_jacobian(hit.x)[1])

    def test_singular_jacobian_stalls_without_raising(self):
        # |u| = 1 everywhere and Du has rank one: the least-squares step
        # is zero, and the stall rule stops the iteration
        jet = CountingJet(FieldJet(shear_field(1)))
        hit = newton_zero(jet, [0.3, 0.2, 0.1], tol=1e-10, max_iter=60)
        assert not hit.converged
        assert hit.best == pytest.approx(1.0, abs=1e-14)
        assert jet.calls <= 7

    def test_oversized_first_step_stops_at_once(self):
        # u(x) = x + (5, 0, 0) has its zero a step of length 5 away
        jet = CountingJet(FrozenJet([5.0, 0.0, 0.0], np.eye(3)))
        hit = newton_zero(jet, np.zeros(3), tol=1e-10, max_iter=30,
                          max_step=1.0)
        assert jet.calls == 1
        assert not hit.converged
        np.testing.assert_array_equal(hit.x, np.zeros(3))
        assert hit.best == 5.0


class TestMonodromy:
    """The monodromy is the endpoint of the variational flow over one period,
    and the transverse multipliers are the eigenvalues of its return map."""

    def test_constant_field_identity(self):
        u = FourierField.constant("vector", [0.0, 1.0, 0.0])
        M = variational_flow(u, [0.5, 0.0, 1.0], 2 * np.pi)[1][-1]
        np.testing.assert_allclose(M, np.eye(3), atol=1e-10)
        u0 = np.array([0.0, 1.0, 0.0])
        P = _project_return_map(M, u0, *_orthonormal_complement(u0))
        np.testing.assert_allclose(P, np.eye(2), atol=1e-10)

    def test_frozen_saddle_multipliers(self):
        # oracle: closed-form matrix exponential
        nu, T = 0.4, 2 * np.pi
        A = np.diag([nu, -nu, 0.0])
        jet = FrozenJet([0.0, 0.0, 1.0], A)
        M = variational_flow(jet, np.zeros(3), T)[1][-1]
        np.testing.assert_allclose(M, sla.expm(A * T), rtol=1e-9)
        u0 = jet.value(np.zeros(3))
        P = _project_return_map(M, u0, *_orthonormal_complement(u0))
        mults = np.sort(np.linalg.eigvals(P).real)
        np.testing.assert_allclose(
            mults, np.sort([np.exp(nu * T), np.exp(-nu * T)]), rtol=1e-9
        )
        assert np.linalg.det(P) == pytest.approx(1.0, abs=1e-6)


class TestReturnMapSection:
    """The transverse multipliers do not depend on the section plane."""

    THETA = 0.9
    ROTATION = np.array([[np.cos(THETA), -np.sin(THETA)],
                         [np.sin(THETA), np.cos(THETA)]])

    @pytest.mark.parametrize("transverse,expect", [
        (np.diag([3.7, 1 / 3.7]), [3.7, 1 / 3.7]),
        (np.diag([-0.45, -1 / 0.45]), [-0.45, -1 / 0.45]),
        (ROTATION, [np.exp(1j * THETA), np.exp(-1j * THETA)]),
    ], ids=["positive-hyperbolic", "negative-hyperbolic", "elliptic"])
    def test_multipliers_on_any_transverse_plane(self, transverse, expect):
        # M fixes the flow direction u0 and acts on a transverse
        # complement by `transverse`, both written in a random basis
        rng = np.random.default_rng(11)
        u0 = rng.standard_normal(3)
        S = np.column_stack([u0, rng.standard_normal((3, 2))])
        D = np.eye(3)
        D[1:, 1:] = transverse
        M = S @ D @ np.linalg.inv(S)
        np.testing.assert_allclose(M @ u0, u0, rtol=1e-12, atol=1e-12)
        planes = [_orthonormal_complement(u0)]
        planes += [tuple(rng.standard_normal((2, 3))) for _ in range(5)]
        for e1, e2 in planes:
            mults = np.linalg.eigvals(_project_return_map(M, u0, e1, e2))
            for mu in expect:
                assert np.abs(mults - mu).min() <= 1e-9 * abs(mu)


class TestPeriodicOrbitsIntegrable:
    def test_shear_family_found_and_degenerate(self):
        records = find_periodic_orbits(
            shear_field(1), T_max=15.0,
            section_spec={"axis": "z", "offset": 0.0}, n_seeds=4,
        )
        assert records, "expected the straight-line family on z = 0"
        for rec in records:
            assert tuple(rec.winding) == (0, 1, 0)
            assert rec.period == pytest.approx(2 * np.pi, abs=1e-6)
            assert rec.orbit_type == "degenerate"
            assert not rec.nondegenerate
            assert rec.return_residual <= 1e-7


def _rotation(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def rotating_path(theta, nu, n):
    """n samples of R(theta t) diag(e^{nu t}, e^{-nu t}), t in [0, 1]."""
    return np.stack([_rotation(theta * t) @ np.diag([np.exp(nu * t), np.exp(-nu * t)])
                     for t in np.linspace(0.0, 1.0, n)])


class TestCZPathModels:
    """Rotation-number oracle: analytic symplectic paths with known indices."""

    @staticmethod
    def rotation_path(theta_total, n=2001, T=1.0):
        ts = np.linspace(0, T, n)
        th = theta_total * ts / T
        return np.stack([
            np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
            for a in th
        ])

    @staticmethod
    def hyperbolic_path(nu, n=1501, T=1.0, negative=False):
        ts = np.linspace(0, T, n)
        psis = []
        for t in ts:
            D = np.diag([np.exp(nu * t), np.exp(-nu * t)])
            if negative:
                a = np.pi * t / T
                R = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
                psis.append(R @ D)
            else:
                psis.append(D)
        return np.stack(psis)

    @pytest.mark.parametrize(
        "theta,expect",
        [(0.6 * np.pi, 1), (1.7 * np.pi, 1), (2.5 * np.pi, 3),
         (4.4 * np.pi, 5), (-1.5 * np.pi, -1), (-2.5 * np.pi, -3)],
    )
    def test_elliptic_rotations(self, theta, expect):
        assert cz_index_from_path(self.rotation_path(theta)) == expect

    def test_positive_hyperbolic_is_zero(self):
        assert cz_index_from_path(self.hyperbolic_path(1.3)) == 0

    def test_negative_hyperbolic_is_odd(self):
        # quarter-turn rotation rate exceeds the stretching rate
        psis = self.hyperbolic_path(0.8, negative=True)
        assert cz_index_from_path(psis) == 1

    def test_degenerate_endpoint_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            cz_index_from_path(self.rotation_path(2 * np.pi))

    @pytest.mark.parametrize("n", [1600, 6400])
    @pytest.mark.parametrize("nu", [0.02, 0.05, 0.3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_rotating_weak_hyperbolic(self, k, nu, n):
        # k full turns of a weakly hyperbolic map, positive hyperbolic at t = 1
        psis = rotating_path(2 * np.pi * k, nu, n)
        assert cz_index_from_path(psis) == 2 * k

    def test_coarse_sampling_rejected(self):
        # three samples of a half turn: each step turns by pi / 2 + 0.1
        with pytest.raises(ValueError, match="coarsely"):
            cz_index_from_path(self.rotation_path(np.pi + 0.2, n=3))


class TestCZProperties:
    """Invariance of the rotation-number index under symplectic changes."""

    @settings(max_examples=40, deadline=None)
    @given(
        theta=st.floats(-5 * np.pi, 5 * np.pi),
        nu=st.floats(0.0, 1.0),
        shear=st.floats(-1.0, 1.0),
        stretch=st.floats(0.5, 2.0),
        turns=st.integers(-2, 2),
    )
    # a nearly degenerate endpoint that a loop must not make degenerate:
    # the same Psi(T) after a full turn, though det(Psi(t) - 1) reaches 4
    @example(theta=0.0, nu=1e-4, shear=0.0, stretch=1.0, turns=1)
    def test_conjugation_and_full_turns(self, theta, nu, shear, stretch, turns):
        psis = rotating_path(theta, nu, 2000)
        try:
            base = cz_index_from_path(psis)
        except ValueError:
            assume(False)  # degenerate endpoint: no index to compare
        # a constant symplectic change of frame (det C = 1)
        C = np.array([[1.0, shear], [0.0, 1.0]]) @ np.diag([stretch, 1 / stretch])
        conjugated = np.linalg.inv(C) @ psis @ C
        assert cz_index_from_path(conjugated) == base
        # m full turns appended by the loop R(2 pi m t)
        loops = rotating_path(2 * np.pi * turns, 0.0, len(psis))
        assert cz_index_from_path(loops @ psis) == base + 2 * turns


    def test_subnormal_rotation_is_degenerate_without_warnings(self):
        # an LU-based det(Psi - 1) warned "divide by zero" on this path
        with pytest.raises(ValueError, match="degenerate"):
            cz_index_from_path(rotating_path(2.225073858507e-311, 0.0, 2000))


class TestCZOrbitSampling:
    def test_abc_orbit_indices_do_not_depend_on_sampling(self, abc_orbits,
                                                          monkeypatch):
        # the orbits of the acceptance suite's orbit-machinery criterion
        u = abc_field(1, 1, 1)
        alpha = lower_index(flat_metric(), u)
        orbits = [r for r in abc_orbits if r.nondegenerate]
        base = [conley_zehnder(r, alpha, u) for r in orbits]
        assert base == [2, 2, 4, 2, 2, 3]
        for n in (contact.CZ_SAMPLES // 4, 4 * contact.CZ_SAMPLES):
            monkeypatch.setattr(contact, "CZ_SAMPLES", n)
            assert [conley_zehnder(r, alpha, u) for r in orbits] == base, n


class TestCZRefusals:
    @pytest.fixture
    def orbit(self, abc_orbits):
        return next(r for r in abc_orbits if r.nondegenerate)

    def test_form_of_another_field_is_refused(self, orbit):
        u = abc_field(1, 1, 1)
        other = lower_index(flat_metric(), abc_field(1, 0.7, 0.3))
        with pytest.raises(FrameError, match="Reeb direction"):
            conley_zehnder(orbit, other, u)

    def test_field_that_does_not_close_the_orbit_is_refused(self, orbit):
        u = abc_field(1, 1, 1)
        alpha = lower_index(flat_metric(), u)
        with pytest.raises(ValueError, match="does not close"):
            conley_zehnder(orbit, alpha, 2 * u)

    def test_coarse_path_is_refused(self, abc_orbits, monkeypatch):
        # the index-4 orbit turns fastest: its largest angle step at 100
        # samples is about 2.4 rad, past the pi / 2 guard
        orbit = next(r for r in abc_orbits if r.winding == (-2, 0, 0))
        u = abc_field(1, 1, 1)
        monkeypatch.setattr(contact, "CZ_SAMPLES", 100)
        with pytest.raises(ValueError, match="coarsely"):
            conley_zehnder(orbit, lower_index(flat_metric(), u), u)


class TestNamedFields:
    def test_abc_parsing(self):
        u = named_field("abc:1,0.5,0.25")
        x = (0.3, 1.0, 2.0)
        expect = [
            np.sin(2.0) + 0.25 * np.cos(1.0),
            0.5 * np.sin(0.3) + np.cos(2.0),
            0.25 * np.sin(1.0) + 0.5 * np.cos(0.3),
        ]
        np.testing.assert_allclose(u.eval(x), expect, atol=1e-12)

    def test_xi_parsing(self):
        u = named_field("xi:2")
        np.testing.assert_allclose(
            u.eval((0, 0, 0.4)), [np.sin(0.8), np.cos(0.8), 0], atol=1e-12
        )

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            named_field("bogus:1")

    # a non-finite amplitude flowed to nothing, and xi:0 failed the
    # Hermitian check of its coefficients
    @pytest.mark.parametrize("spec, match", [
        ("abc:1,nan,1", "amplitude B"),
        ("abc:inf,1,1", "amplitude A"),
        ("xi:0", "k != 0"),
    ])
    def test_bad_parameters_rejected(self, spec, match):
        with pytest.raises(ValueError, match=match):
            named_field(spec)

    # the constructors check their own parameters: abc_field(1, nan, 1)
    # evaluated to NaN, shear_field(0) failed the Hermitian check of its
    # coefficients and shear_field(1.5) and shear_field(True) built k = 1
    @pytest.mark.parametrize("build, args, match", [
        (abc_field, (1.0, float("nan"), 1.0), "amplitude B"),
        (abc_field, (1.0, 1.0, float("inf")), "amplitude C"),
        (abc_field, (True, 1.0, 1.0), "amplitude A"),
        (shear_field, (0,), "k != 0"),
        (shear_field, (1.5,), "k != 0"),
        (shear_field, (True,), "k != 0"),
    ])
    def test_constructors_check_their_parameters(self, build, args, match):
        with pytest.raises(ValueError, match=match):
            build(*args)

    def test_constructors_take_numpy_scalars(self):
        np.testing.assert_array_equal(shear_field(np.int64(-2)).coeffs,
                                      shear_field(-2).coeffs)
        np.testing.assert_array_equal(abc_field(np.float64(0.5)).coeffs,
                                      abc_field(0.5).coeffs)
