"""Contact certification, Reeb extraction, and the adapted-metric construction."""

import numpy as np
import pytest

from curllab.contact import (
    ADAPTED_RESIDUAL_TOL,
    AdaptedMetricResult,
    ContactForm,
    ContactFrameEvaluator,
    adapted_metric,
    beltrami_to_reeb,
    reeb_field,
    reeb_rescaled,
    tight_form,
)
from curllab.errors import FrameError, HasZerosError, NotContactError
from curllab.fields import (
    CollocationGrid,
    FourierField,
    flat_metric,
    sharp,
)
from test_curlspec import abc_one_form
from conftest import shear_one_form, sin_mode


class TestTightForms:
    @pytest.mark.parametrize("k,defect", [(1, 1.0), (-2, 2.0), (3, 3.0)])
    def test_defect(self, k, defect):
        tf = tight_form(k)
        assert tf.defect == pytest.approx(defect, abs=1e-12)

    def test_coefficients_match_hand_construction(self):
        np.testing.assert_allclose(
            tight_form(-2).form.coeffs, shear_one_form(-2).coeffs, atol=1e-15
        )

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            tight_form(0)

    # 1.5 and True were truncated by int() to k = 1
    @pytest.mark.parametrize("k", [1.5, True])
    def test_non_integer_rejected(self, k):
        with pytest.raises(ValueError, match="integer k != 0"):
            tight_form(k)

    def test_closed_form_not_certifiable(self):
        dx = FourierField.constant("one_form", [1, 0, 0])
        with pytest.raises(NotContactError):
            ContactForm.certify(dx)


class TestReebField:
    def test_shear_reeb(self):
        X = reeb_field(tight_form(1))
        for z in (0.0, 0.7, 2.5):
            np.testing.assert_allclose(
                X.eval((0.1, 0.2, z)), [np.sin(z), np.cos(z), 0.0], atol=1e-12
            )

    @pytest.mark.parametrize("k", [2, -2, 3])
    def test_tight_family_reeb(self, k):
        X = reeb_field(tight_form(k))
        for z in (0.0, 1.1):
            np.testing.assert_allclose(
                X.eval((0.4, 2.0, z)), [np.sin(k * z), np.cos(k * z), 0.0],
                atol=1e-12,
            )

    def test_constant_rescaling(self):
        c = 2.5
        X = reeb_field(c * tight_form(1).form)
        np.testing.assert_allclose(
            X.eval((0, 0, 0.9)), np.array([np.sin(0.9), np.cos(0.9), 0]) / c,
            atol=1e-12,
        )

    @pytest.mark.parametrize("b", [0.5, 1.2])
    def test_pairing_of_both_signs_refused(self, b):
        # ABC(1, 1, 1) plus b times its mirror image under x -> -x (its
        # coefficients reversed along m_x, the x component negated; a
        # lambda = -1 eigenfield): alpha ^ d(alpha) misses 0 on the grid
        # but takes both signs (-0.68 to 5.18 at b = 0.5), and reeb_field
        # used to return a "Reeb field" that ContactForm.certify refuses
        c = abc_one_form().coeffs
        mirror = c[:, ::-1] * np.array([-1.0, 1.0, 1.0])[:, None, None, None]
        form = FourierField("one_form", c + b * mirror)
        for build in (reeb_field, ContactForm.certify, adapted_metric):
            with pytest.raises(NotContactError, match="with one sign"):
                build(form)


class TestBeltramiReebDictionary:
    def test_unit_speed_eigenfield_round_trip(self, flat):
        u = sharp(flat, shear_one_form(1))
        contact, X = beltrami_to_reeb(u, flat)
        np.testing.assert_allclose(
            X.eval((1.0, 2.0, 0.3)), u.eval((1.0, 2.0, 0.3)), atol=1e-10
        )
        assert contact.defect == pytest.approx(1.0, abs=1e-10)

    def test_homogeneity(self, flat):
        u = sharp(flat, shear_one_form(1))
        contact, X = beltrami_to_reeb(2.0 * u, flat)
        x = (0.3, 5.1, 1.7)
        np.testing.assert_allclose(
            np.asarray(contact.form.eval(x)), 2.0 * np.asarray(shear_one_form(1).eval(x)),
            atol=1e-10,
        )
        np.testing.assert_allclose(X.eval(x), np.asarray(u.eval(x)) / 2.0, atol=1e-10)

    def test_field_with_zeros_routed_away(self, flat):
        u = sharp(flat, abc_one_form(1, 1, 1))
        with pytest.raises(HasZerosError):
            beltrami_to_reeb(u, flat)

    def test_round_trip_matches_rescaling(self, flat, rng):
        # eigenfield u -> alpha -> Reeb equals u / |u|^2 pointwise
        u = sharp(flat, shear_one_form(2))
        contact, X = beltrami_to_reeb(u, flat)
        X2 = reeb_field(contact)
        for _ in range(4):
            x = rng.uniform(0, 2 * np.pi, 3)
            uv = np.asarray(u.eval(x))
            np.testing.assert_allclose(X.eval(x), uv / (uv @ uv), atol=1e-8)
            np.testing.assert_allclose(X2.eval(x), uv / (uv @ uv), atol=1e-8)

    def test_non_eigenfield_rejected(self, flat, rng):
        # a generic nonvanishing field fails the Reeb verification
        bad = FourierField.from_modes(
            "vector", 1, {(0, 0, 1, 0): 0.3j, (0, 1, 0, 1): 0.2}
        ) + FourierField.constant("vector", [0.0, 0.0, 1.0])
        with pytest.raises(NotContactError):
            beltrami_to_reeb(bad, flat)


class TestFrames:
    def test_tight_frame_is_canonical(self):
        frame = ContactFrameEvaluator(tight_form(1))
        assert frame.reference_axis == 2
        for z in (0.0, 0.8, 4.0):
            f1, f2 = frame.at((0.2, 0.4, z))
            np.testing.assert_allclose(f1, [0, 0, 1], atol=1e-12)
            np.testing.assert_allclose(
                f2, [np.cos(z), -np.sin(z), 0], atol=1e-12
            )

    def test_frame_normalization(self, rng):
        from curllab.contact import _two_form_matrix
        from curllab.fields import exterior_d

        tf = tight_form(2)
        frame = ContactFrameEvaluator(tf)
        for _ in range(4):
            x = rng.uniform(0, 2 * np.pi, 3)
            f1, f2 = frame.at(x)
            a = np.asarray(tf.form.eval(x))
            assert abs(a @ f1) <= 1e-12 and abs(a @ f2) <= 1e-12
            A = _two_form_matrix(np.asarray(exterior_d(tf.form).eval(x)))
            assert f1 @ A @ f2 == pytest.approx(1.0, abs=1e-10)

    def test_points_at_once_match_one_at_a_time(self, rng):
        frame = ContactFrameEvaluator(tight_form(2))
        points = rng.uniform(0, 2 * np.pi, (5, 3))
        f1s, f2s = frame.at(points)
        assert f1s.shape == f2s.shape == (5, 3)
        for x, f1, f2 in zip(points, f1s, f2s):
            np.testing.assert_allclose(np.stack([f1, f2]), frame.at(x),
                                       rtol=0, atol=1e-14)

    def test_first_degenerate_point_is_named(self):
        # dz + sin(x) dy: d(alpha) = cos(x) dx^dy vanishes on the kernel
        # planes at x = pi/2, off the frame's grid
        alpha = FourierField.constant("one_form", [0.0, 0.0, 1.0]) + sin_mode(
            "one_form", 1, (1, 0, 0), 1)
        frame = ContactFrameEvaluator(alpha)
        points = np.array([[0.3, 0.0, 0.0], [np.pi / 2, 0.5, 0.25],
                           [np.pi / 2, 1.0, 1.0]])
        frame.at(points[0])
        with pytest.raises(FrameError, match=r"degenerate .* at \(1.57\d*, 0.5, 0.25\)"):
            frame.at(points)


class TestAdaptedMetric:
    def test_shear_form_gives_flat_metric(self):
        result = adapted_metric(tight_form(1))
        assert result.metric.is_flat
        assert result.eigenvalue == pytest.approx(1.0, abs=1e-8)
        assert result.residual <= 1e-8
        assert result.frame_asymmetry <= 1e-8

    @pytest.mark.parametrize("k", [2, 3])
    def test_tight_family(self, k):
        # the printed construction bakes the scale of d(alpha) into the
        # metric, so every tight form comes back with unit eigenvalue
        result = adapted_metric(tight_form(k))
        assert result.eigenvalue == pytest.approx(1.0, abs=1e-8)
        assert result.residual <= 1e-8
        # closed form of the assembled tensor: k I + (1 - k) X X^T
        z = 0.7
        X = np.array([np.sin(k * z), np.cos(k * z), 0.0])
        expect = k * np.eye(3) + (1 - k) * np.outer(X, X)
        np.testing.assert_allclose(
            result.metric.eval((0.1, 0.2, z)), expect, atol=1e-10
        )

    @pytest.mark.parametrize("eps", [0.02, 0.1])
    def test_bumped_tight_form_builds(self, eps):
        # (1 + eps cos y) alpha_2 needs more metric modes than 2 n_a = 4:
        # the cut is raised until alpha is an eigenform to the tolerance
        q = 0.25 * eps
        form = FourierField.from_modes("one_form", 2, {
            (0, 0, 2, 0): -0.5j, (0, 0, 2, 1): 0.5,
            (0, 1, 2, 0): -q * 1j, (0, -1, 2, 0): -q * 1j,
            (0, 1, 2, 1): q, (0, -1, 2, 1): q})
        result = adapted_metric(form)
        assert result.residual <= ADAPTED_RESIDUAL_TOL
        assert result.eigenvalue == pytest.approx(1.0, abs=1e-12)
        assert result.metric.truncation == 8
        # the tight forms keep the cut 2 n_a
        assert adapted_metric(tight_form(2)).metric.truncation == 4

    def test_reeb_direction_has_unit_length(self):
        result = adapted_metric(tight_form(2))
        grid = CollocationGrid.for_truncation(2)
        X = reeb_field(tight_form(2), grid)
        ms = result.metric.samples(grid)
        Xv = np.moveaxis(X.sample(grid), 0, -1)
        lengths = np.einsum("...ab,...a,...b->...", ms.g, Xv, Xv)
        np.testing.assert_allclose(lengths, 1.0, atol=1e-10)

    def test_defining_tensor_identity(self, rng):
        # g(v, w) = alpha(v) alpha(w) + d(alpha)(v, Jw) on random vectors
        from curllab.contact import _two_form_matrix
        from curllab.fields import exterior_d

        tf = tight_form(1)
        result = adapted_metric(tf)
        frame = ContactFrameEvaluator(tf)
        for _ in range(5):
            x = rng.uniform(0, 2 * np.pi, 3)
            g = result.metric.eval(x)
            a = np.asarray(tf.form.eval(x))
            A = _two_form_matrix(np.asarray(exterior_d(tf.form).eval(x)))
            f1, f2 = frame.at(x)
            # J in coordinates: rotation f1 -> f2 -> -f1 on the kernel,
            # Reeb direction to zero
            v = rng.standard_normal(3)
            w = rng.standard_normal(3)
            X = np.asarray(reeb_field(tf).eval(x))
            B = np.column_stack([X, f1, f2])
            cw = np.linalg.solve(B, w)
            Jw = cw[1] * f2 - cw[2] * f1
            expect = (a @ v) * (a @ w) + v @ A @ Jw
            assert v @ g @ w == pytest.approx(expect, abs=1e-8)


class TestRescalingInvariance:
    def test_orbit_classification_agrees_between_field_and_reeb(self, flat):
        # nondegeneracy and hyperbolicity are properties of the flowlines,
        # so the rescaled Reeb field classifies every orbit the same way
        from curllab.dynamics import (
            _newton_shoot,
            _classify_multipliers,
            _orthonormal_complement,
            _project_return_map,
            abc_field,
            find_periodic_orbits,
            variational_flow,
        )
        from curllab.fields import as_jet, flat as lower_index

        u = abc_field(1.0, 0.7, 0.3)
        records = find_periodic_orbits(u, T_max=10.0, n_seeds=6, seed=1)
        nondeg = [r for r in records if r.nondegenerate]
        assert nondeg
        alpha = lower_index(flat, u)
        X = reeb_rescaled(u, flat)
        jet = as_jet(u)
        for rec in nondeg[:3]:
            alpha_u = np.array([
                np.dot(np.asarray(alpha.eval(p)), jet.value(p))
                for p in rec.trajectory
            ])
            T_guess = float(np.trapezoid(alpha_u, rec.ts))
            hit = _newton_shoot(
                X, rec.seed, T_guess, np.asarray(rec.winding),
                orbit_tol=1e-8, rtol=1e-11, atol=1e-12,
            )
            assert hit is not None
            x, T, _ = hit
            _, Ms = variational_flow(X, x, T, rtol=1e-11, atol=1e-12)
            X0 = X.value(x)
            e1, e2 = _orthonormal_complement(X0)
            P = _project_return_map(Ms[-1], X0, e1, e2)
            mults = np.linalg.eigvals(P)
            kind, nondegenerate = _classify_multipliers(mults, 1e-4)
            assert nondegenerate == rec.nondegenerate
            assert kind == rec.orbit_type


class TestReebRescaledEvaluator:
    def test_rows_match_one_point_calls(self, bumpy, rng):
        resc = reeb_rescaled(sharp(bumpy, shear_one_form(1)), bumpy)
        points = rng.uniform(0, 2 * np.pi, (4, 3))
        vals, jacs = resc.value_and_jacobian(points)
        np.testing.assert_array_equal(resc.value(points),
                                      [resc.value(x) for x in points])
        for x, val, jac in zip(points, vals, jacs):
            one_val, one_jac = resc.value_and_jacobian(x)
            np.testing.assert_array_equal(val, one_val)
            np.testing.assert_array_equal(jac, one_jac)

    def test_flows_as_the_field_at_unit_speed(self, flat):
        # |u| = 1 for the tight shear, so X = u up to rounding
        from curllab.dynamics import flow

        u = sharp(flat, shear_one_form(2))
        x0 = (0.3, 1.1, 2.0)
        np.testing.assert_allclose(
            flow(reeb_rescaled(u, flat), x0, 3.0, n_samples=7).points,
            flow(u, x0, 3.0, n_samples=7).points, atol=1e-9)

    def test_matches_reeb_field(self, flat, rng):
        u = sharp(flat, shear_one_form(2))
        X_field = reeb_field(tight_form(2))
        resc = reeb_rescaled(u, flat)
        for _ in range(4):
            x = rng.uniform(0, 2 * np.pi, 3)
            np.testing.assert_allclose(resc.value(x), X_field.eval(x), atol=1e-10)

    def test_jacobian_by_finite_differences(self, flat, rng):
        u = sharp(flat, abc_one_form(1.0, 0.7, 0.3))
        resc = reeb_rescaled(u, flat)
        x = np.array([0.3, 1.1, 2.0])
        _, DX = resc.value_and_jacobian(x)
        h = 1e-6
        for b in range(3):
            dx = np.zeros(3)
            dx[b] = h
            fd = (resc.value(x + dx) - resc.value(x - dx)) / (2 * h)
            np.testing.assert_allclose(DX[:, b], fd, atol=1e-6)

    def test_jacobian_with_nonflat_metric(self, bumpy, rng):
        u = sharp(bumpy, shear_one_form(1))
        resc = reeb_rescaled(u, bumpy)
        x = np.array([2.3, 0.4, 5.0])
        _, DX = resc.value_and_jacobian(x)
        h = 1e-6
        for b in range(3):
            dx = np.zeros(3)
            dx[b] = h
            fd = (resc.value(x + dx) - resc.value(x - dx)) / (2 * h)
            np.testing.assert_allclose(DX[:, b], fd, atol=1e-6)
