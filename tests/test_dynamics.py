"""Flowlines, fixed points, periodic orbits, Floquet data, and the CZ index."""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.optimize

from curllab.dynamics import (
    EIG_TOL,
    NEWTON_TOL,
    PeriodicOrbitRecord,
    Trajectory,
    _orthonormal_complement,
    _project_return_map,
    abc_field,
    cz_index_from_path,
    find_fixed_points,
    find_periodic_orbits,
    flow,
    monodromy,
    named_field,
    newton_zero,
    shear_field,
    torus_distance,
    variational_flow,
)
from curllab.fields import FieldJet, FourierField


class FrozenJet:
    """Linear test system: constant drift with a frozen Jacobian."""

    truncation = 1

    def __init__(self, drift, jacobian):
        self.drift = np.asarray(drift, float)
        self.jac = np.asarray(jacobian, float)

    def value(self, x):
        return self.drift + self.jac @ (np.asarray(x) - np.zeros(3))

    def value_and_jacobian(self, x):
        return self.value(x), self.jac.copy()

    def jacobian(self, x):
        return self.jac.copy()


def make_orbit_record(seed, period, winding, trajectory=None, ts=None):
    n = 32
    if trajectory is None:
        trajectory = np.tile(np.asarray(seed, float), (n, 1))
        ts = np.linspace(0, period, n)
    return PeriodicOrbitRecord(
        seed=np.asarray(seed, float),
        period=period,
        winding=tuple(winding),
        trajectory=trajectory,
        ts=ts,
        monodromy=np.eye(3),
        transverse_map=np.eye(2),
        multipliers=np.array([1.0 + 0j, 1.0 + 0j]),
        orbit_type="degenerate",
        nondegenerate=False,
        return_residual=0.0,
        flow_multiplier_residual=0.0,
        det_transverse=1.0,
    )


class TestFlow:
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
        assert tuple(traj.winding) == (3, 0, 0)
        assert np.all(traj.positions >= 0) and np.all(traj.positions < 2 * np.pi)

    def test_integrable_field_conserves_height(self):
        tol = 1e-10
        traj = flow(shear_field(1), (0.3, 0.4, 1.1), 20.0, tol=tol,
                    n_samples=200)
        assert np.abs(traj.points[:, 2] - 1.1).max() <= 10 * tol


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
    def test_constant_field_identity(self):
        u = FourierField.constant("vector", [0.0, 1.0, 0.0])
        orbit = make_orbit_record([0.5, 0.0, 1.0], 2 * np.pi, (0, 1, 0))
        M, P = monodromy(u, orbit)
        np.testing.assert_allclose(M, np.eye(3), atol=1e-10)
        np.testing.assert_allclose(P, np.eye(2), atol=1e-10)

    def test_frozen_saddle_multipliers(self):
        # oracle: closed-form matrix exponential
        nu, T = 0.4, 2 * np.pi
        A = np.diag([nu, -nu, 0.0])
        jet = FrozenJet([0.0, 0.0, 1.0], A)
        orbit = make_orbit_record([0.0, 0.0, 0.0], T, (0, 0, 1))
        M, P = monodromy(jet, orbit)
        np.testing.assert_allclose(M, sla.expm(A * T), rtol=1e-9)
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


class TestCZPathModels:
    """Rotation-number oracle: analytic symplectic paths with known indices."""

    @staticmethod
    def rotation_path(theta_total, n=2001, T=1.0):
        ts = np.linspace(0, T, n)
        th = theta_total * ts / T
        psis = np.stack([
            np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
            for a in th
        ])
        omega = theta_total / T
        J0 = np.array([[0.0, -1.0], [1.0, 0.0]])

        def gen(_):
            return omega * J0

        return ts, psis, gen

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
        return ts, np.stack(psis)

    @pytest.mark.parametrize(
        "theta,expect",
        [(0.6 * np.pi, 1), (1.7 * np.pi, 1), (2.5 * np.pi, 3),
         (4.4 * np.pi, 5), (-1.5 * np.pi, -1), (-2.5 * np.pi, -3)],
    )
    def test_elliptic_rotations(self, theta, expect):
        ts, psis, gen = self.rotation_path(theta)
        assert cz_index_from_path(ts, psis, gen) == expect
        # differenced generator agrees with the exact one
        assert cz_index_from_path(ts, psis) == expect

    def test_positive_hyperbolic_is_zero(self):
        ts, psis = self.hyperbolic_path(1.3)
        assert cz_index_from_path(ts, psis) == 0

    def test_negative_hyperbolic_is_odd(self):
        # quarter-turn rotation rate exceeds the stretching rate
        ts, psis = self.hyperbolic_path(0.8, negative=True)
        assert cz_index_from_path(ts, psis) == 1

    def test_degenerate_endpoint_rejected(self):
        ts, psis, gen = self.rotation_path(2 * np.pi)
        with pytest.raises(ValueError, match="degenerate"):
            cz_index_from_path(ts, psis, gen)


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
