"""Exterior calculus core: evaluation, d, star, musical maps, inner products."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curllab.errors import DegenerateMetricError, UnsupportedRankError
from curllab.fields import (
    METRIC_COMPONENTS,
    VOLUME,
    CollocationGrid,
    FieldJet,
    FourierField,
    JetStack,
    MetricField,
    codifferential,
    conformal_metric,
    contact_defect,
    default_grid,
    exterior_d,
    flat,
    flat_metric,
    hodge,
    l2_inner,
    l2_norm,
    named_metric,
    _block_sum,
    _half_block,
    _point_sum,
    random_metric,
    sharp,
)
from conftest import (
    cos_mode,
    random_one_form,
    random_scalar,
    shear_one_form,
    sin_mode,
)


def diag_metric(d1, d2, d3):
    return MetricField(FourierField.constant("metric", [d1, d2, d3, 0, 0, 0]))


class TestEvaluation:
    def test_single_mode_covector(self):
        form = sin_mode("one_form", 1, (0, 0, 1), 0)  # sin z dx
        np.testing.assert_allclose(form.eval((0, 0, np.pi / 2)), [1, 0, 0], atol=1e-14)

    def test_constant_scalar(self):
        one = FourierField.constant("scalar", [1.0])
        for x in [(0, 0, 0), (1.0, 2.0, 3.0), (6.1, 0.2, 5.9)]:
            assert one.eval(x) == pytest.approx(1.0)

    def test_shear_form_at_origin(self):
        np.testing.assert_allclose(
            shear_one_form(1).eval((0, 0, 0)), [0, 1, 0], atol=1e-14
        )

    def test_matches_direct_trig_sum(self, rng):
        form = random_one_form(2, rng)
        x = rng.uniform(0, 2 * np.pi, size=3)
        # independent direct summation
        n = form.truncation
        expect = np.zeros(3)
        for i, m1 in enumerate(range(-n, n + 1)):
            for j, m2 in enumerate(range(-n, n + 1)):
                for k, m3 in enumerate(range(-n, n + 1)):
                    phase = np.exp(1j * (m1 * x[0] + m2 * x[1] + m3 * x[2]))
                    expect += (form.coeffs[:, i, j, k] * phase).real
        np.testing.assert_allclose(form.eval(x), expect, rtol=1e-12, atol=1e-12)

    def test_hermitian_violation_rejected(self):
        c = np.zeros((1, 3, 3, 3), np.complex128)
        c[0, 2, 1, 1] = 1.0  # mode (1,0,0) without its conjugate
        with pytest.raises(ValueError, match="Hermitian"):
            FourierField("scalar", c)


class TestGrid:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_transform_roundtrip_identity(self, n, rng):
        grid = CollocationGrid.for_truncation(n)
        form = random_one_form(n, rng)
        back = grid.analyze(form.sample(grid), n)
        err = np.abs(back - form.coeffs).max() / np.abs(form.coeffs).max()
        assert err <= 1e-12

    def test_resolution_covers_dealiasing(self):
        for n in range(1, 6):
            grid = CollocationGrid.for_truncation(n)
            assert grid.resolution >= 2 * (3 * n // 2) + 1


class TestExteriorDerivative:
    def test_single_term(self):
        form = sin_mode("one_form", 1, (0, 0, 1), 0)  # sin z dx
        d = exterior_d(form)
        # cos z dz^dx: second 2-form component
        expect = cos_mode("two_form", 1, (0, 0, 1), 1)
        np.testing.assert_allclose(d.coeffs, expect.coeffs, atol=1e-15)

    def test_constant_scalar(self):
        d = exterior_d(FourierField.constant("scalar", [3.0]))
        assert np.abs(d.coeffs).max() == 0.0

    def test_shear_form(self):
        # hand differentiation: d(sin z dx + cos z dy)
        #   = cos z dz^dx + sin z dy^dz
        d = exterior_d(shear_one_form(1))
        expect = sin_mode("two_form", 1, (0, 0, 1), 0) + cos_mode(
            "two_form", 1, (0, 0, 1), 1
        )
        np.testing.assert_allclose(d.coeffs, expect.coeffs, atol=1e-15)

    def test_dd_zero_exactly(self, rng):
        phi = random_scalar(2, rng)
        dd = exterior_d(exterior_d(phi))
        assert np.abs(dd.coeffs).max() == 0.0

    def test_rank_two_rejected(self, rng):
        two = exterior_d(random_one_form(1, rng))
        with pytest.raises(UnsupportedRankError):
            exterior_d(two)


class TestHodge:
    def test_flat_star_basis_two_form(self, flat):
        dzdx = FourierField.constant("two_form", [0, 1, 0])
        star = hodge(flat, dzdx)
        np.testing.assert_allclose(
            star.coeffs, FourierField.constant("one_form", [0, 1, 0]).coeffs,
            atol=1e-14,
        )

    def test_flat_curl_of_shear_is_itself(self, flat):
        form = shear_one_form(1)
        curl = hodge(flat, exterior_d(form))
        np.testing.assert_allclose(curl.coeffs, form.coeffs, atol=1e-13)

    def test_conformal_scaling_on_two_forms(self, flat, conformal2, rng):
        beta = exterior_d(random_one_form(2, rng))
        scaled = hodge(conformal2, beta)
        base = hodge(flat, beta)
        np.testing.assert_allclose(scaled.coeffs, 0.5 * base.coeffs, atol=1e-12)

    def test_star_star_identity_on_one_forms(self, bumpy, rng):
        form = random_one_form(2, rng)
        grid = CollocationGrid(21)
        twice = hodge(bumpy, hodge(bumpy, form, grid), grid).truncate_to(2)
        err = np.abs(twice.coeffs - form.coeffs).max() / np.abs(form.coeffs).max()
        assert err <= 1e-10

    def test_degenerate_metric_reports_point(self):
        # 1 + 2 cos(x) dips negative near x = pi
        block = FourierField.constant("metric", [1, 1, 1, 0, 0, 0]) + cos_mode(
            "metric", 1, (1, 0, 0), 0, 2.0
        )
        with pytest.raises(DegenerateMetricError) as err:
            MetricField(block)
        assert len(err.value.point) == 3
        assert err.value.min_eigenvalue < 0


class TestMusicalMaps:
    def test_sharp_flat_metric(self, flat):
        u = sharp(flat, shear_one_form(1))
        assert u.rank == "vector"
        np.testing.assert_allclose(
            u.eval((0.3, 0.1, 1.2)), [np.sin(1.2), np.cos(1.2), 0], atol=1e-13
        )

    def test_roundtrip(self, bumpy, rng):
        form = random_one_form(2, rng)
        grid = CollocationGrid(21)
        back = flat(bumpy, sharp(bumpy, form, grid), grid).truncate_to(2)
        err = np.abs(back.coeffs - form.coeffs).max() / np.abs(form.coeffs).max()
        assert err <= 1e-10

    def test_diagonal_metric_inverse(self):
        g = diag_metric(4.0, 1.0, 1.0)
        dx = FourierField.constant("one_form", [1, 0, 0])
        u = sharp(g, dx)
        np.testing.assert_allclose(u.eval((0, 0, 0)), [0.25, 0, 0], atol=1e-14)


class TestCodifferential:
    def test_shear_is_divergence_free(self, flat):
        delta = codifferential(flat, shear_one_form(1))
        assert np.abs(delta.coeffs).max() <= 1e-14

    def test_laplacian_of_sine(self, flat):
        phi = sin_mode("scalar", 1, (1, 0, 0), 0)  # sin x
        delta_d = codifferential(flat, exterior_d(phi)).truncate_to(1)
        np.testing.assert_allclose(delta_d.coeffs, phi.coeffs, atol=1e-13)

    def test_constant_form_harmonic(self, flat):
        c = FourierField.constant("one_form", [1.0, -2.0, 0.5])
        delta = codifferential(flat, c)
        assert np.abs(delta.coeffs).max() <= 1e-14

    @pytest.mark.parametrize("metric_name", ["flat", "bumpy"])
    def test_adjointness(self, metric_name, flat, bumpy, rng):
        metric = {"flat": flat, "bumpy": bumpy}[metric_name]
        for _ in range(5):
            phi = random_scalar(2, rng)
            form = random_one_form(2, rng)
            lhs = l2_inner(metric, exterior_d(phi), form)
            rhs = l2_inner(metric, phi, codifferential(metric, form))
            scale = l2_norm(metric, exterior_d(phi)) * l2_norm(metric, form)
            assert abs(lhs - rhs) <= 1e-8 * max(scale, 1.0)


def _constant_reference(metric, name, field):
    """Exact coefficient-space result of an operation on a constant metric."""
    n = metric.truncation
    G = metric.block.coeffs[:, n, n, n].real
    G = np.array([[G[0], G[5], G[4]], [G[5], G[1], G[3]], [G[4], G[3], G[2]]])
    inv, root = np.linalg.inv(G), np.sqrt(np.linalg.det(G))
    c = field.coeffs
    if name == "codifferential":
        m = np.stack(np.meshgrid(*[np.arange(-field.truncation,
                                             field.truncation + 1)] * 3,
                                 indexing="ij"))
        return -1j * np.einsum("ab,a...,b...->...", inv, m, c)[None]
    tensor = {"sharp": inv, "flat": G, "hodge": root * inv,
              "hodge2": G / root}[name]
    return np.einsum("ab,b...->a...", tensor, c)


class TestTruncationRule:
    """Constant metrics keep the input's truncation, all others the grid's."""

    OPERATIONS = {
        "sharp": lambda g, a: sharp(g, a),
        "flat": lambda g, a: flat(g, FourierField("vector", a.coeffs)),
        "hodge": lambda g, a: hodge(g, a),
        "hodge2": lambda g, a: hodge(g, FourierField("two_form", a.coeffs)),
        "codifferential": lambda g, a: codifferential(g, a),
    }

    @pytest.mark.parametrize("name", list(OPERATIONS))
    @pytest.mark.parametrize("metric_name", ["flat", "conformal", "diagonal",
                                             "bumpy"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_result_truncation(self, name, metric_name, n, flat, conformal2,
                               bumpy, rng):
        metric = {"flat": flat, "conformal": conformal2, "bumpy": bumpy,
                  "diagonal": diag_metric(4.0, 1.0, 2.25)}[metric_name]
        form = random_one_form(n, rng)
        out = self.OPERATIONS[name](metric, form)
        if metric_name == "bumpy":
            assert out.truncation == default_grid(metric, form).max_truncation
            return
        assert out.truncation == n
        ref = _constant_reference(metric, name, form)
        scale = np.abs(ref).max()
        assert np.abs(out.coeffs - ref).max() <= 1e-14 * scale


class TestInnerProduct:
    def test_shear_norm_is_volume(self, flat):
        form = shear_one_form(1)
        assert l2_inner(flat, form, form) == pytest.approx(VOLUME, rel=1e-13)

    def test_coordinate_forms_orthogonal(self, flat):
        dx = FourierField.constant("one_form", [1, 0, 0])
        dy = FourierField.constant("one_form", [0, 1, 0])
        assert abs(l2_inner(flat, dx, dy)) <= 1e-14

    def test_positive_definite(self, bumpy, rng):
        for _ in range(5):
            form = random_one_form(2, rng)
            assert l2_inner(bumpy, form, form) > 0

    def test_symmetric(self, bumpy, rng):
        a = random_one_form(2, rng)
        b = random_one_form(2, rng)
        assert l2_inner(bumpy, a, b) == pytest.approx(l2_inner(bumpy, b, a), rel=1e-12)


class TestContactDefect:
    def test_shear_defect_one(self):
        assert contact_defect(shear_one_form(1)) == pytest.approx(1.0, abs=1e-13)

    def test_closed_form_defect_zero(self):
        dx = FourierField.constant("one_form", [1, 0, 0])
        assert contact_defect(dx) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("k", [1, 2, -2, 3])
    def test_tight_family_defect(self, k):
        assert contact_defect(shear_one_form(k)) == pytest.approx(abs(k), abs=1e-12)


class TestHermitianPreservation:
    def test_operations_preserve_real_valuedness(self, bumpy, rng):
        form = random_one_form(2, rng)
        results = [
            exterior_d(form),
            hodge(bumpy, form),
            sharp(bumpy, form),
            codifferential(bumpy, form),
        ]
        for res in results:
            mirror = res.coeffs[..., ::-1, ::-1, ::-1].conj()
            assert np.abs(res.coeffs - mirror).max() <= 1e-12 * max(
                1.0, np.abs(res.coeffs).max()
            )


class TestMetricConstructors:
    def test_named_flat(self):
        assert named_metric("flat").is_flat

    def test_named_conformal(self):
        g = named_metric("conformal(2)")
        np.testing.assert_allclose(g.eval((0.1, 0.2, 0.3)), 4.0 * np.eye(3))

    def test_named_random_deterministic(self):
        g1 = named_metric("random_cr(2, 0.01, 7)")
        g2 = named_metric("random_cr(2, 0.01, 7)")
        np.testing.assert_array_equal(g1.block.coeffs, g2.block.coeffs)

    # each used to warn, then raise numpy's LinAlgError from the SPD check
    @pytest.mark.parametrize("spec, name", [
        ("conformal(nan)", "conformal factor c"),
        ("conformal(inf)", "conformal factor c"),
        ("conformal(0)", "conformal factor c"),
        ("random_cr(2, nan, 1)", "random_cr eps"),
        ("random_cr(nan, 0.01, 1)", "random_cr r"),
        ("random_cr(2, 0.01, 1.5)", "random_cr seed"),
        ("random_cr(2, 0.01, 1, x)", "random_cr cutoff"),
    ])
    def test_bad_parameter_is_named(self, spec, name):
        with pytest.raises(ValueError, match=name):
            named_metric(spec)

    # the library constructors named none of these: nan and inf raised
    # numpy's LinAlgError from the SPD check, a fractional seed was
    # truncated and a negative cutoff failed the coefficient-shape check
    @pytest.mark.parametrize("build, name", [
        (lambda: conformal_metric(float("nan")), "conformal factor c"),
        (lambda: conformal_metric(float("inf")), "conformal factor c"),
        (lambda: conformal_metric(-1.0), "conformal factor c"),
        (lambda: random_metric(float("nan"), 1e-2, 1), "smoothness"),
        (lambda: random_metric(2.0, float("nan"), 1), "amplitude"),
        (lambda: random_metric(2.0, 1e-2, 1.5), "seed"),
        (lambda: random_metric(2.0, 1e-2, "1"), "seed"),
        (lambda: random_metric(2.0, 1e-2, 1, cutoff=-1), "cutoff"),
    ], ids=["conformal-nan", "conformal-inf", "conformal-negative",
            "smoothness-nan", "amplitude-nan", "seed-fraction", "seed-text",
            "cutoff-negative"])
    def test_bad_constructor_parameter_is_named(self, build, name):
        with pytest.raises(ValueError, match=name):
            build()

    def test_random_metric_takes_integer_or_generator_seeds(self):
        def philox(key):
            return np.random.Generator(np.random.Philox(key=key))

        a, b, c = (random_metric(2.0, 1e-2, seed, cutoff=1)
                   for seed in (7, np.int64(7), philox(7)))
        np.testing.assert_array_equal(a.block.coeffs, b.block.coeffs)
        np.testing.assert_array_equal(a.block.coeffs, c.block.coeffs)

    def test_random_metric_close_to_flat(self):
        g = random_metric(2.0, 1e-2, 99)
        grid = CollocationGrid.for_truncation(g.truncation)
        eigs = np.linalg.eigvalsh(g.samples(grid).g)
        assert eigs.min() >= 1 - 10 * 1e-2

    def test_zero_amplitude_is_base(self):
        g = random_metric(2.0, 0.0, 5)
        assert g.is_flat


class TestSerialization:
    def test_field_roundtrip(self, tmp_path, rng):
        form = random_one_form(2, rng)
        path = tmp_path / "form.json"
        form.save(path)
        loaded = FourierField.load(path)
        assert loaded.rank == form.rank
        np.testing.assert_allclose(loaded.coeffs, form.coeffs, atol=1e-15)

    def test_metric_file_roundtrip_is_bit_identical(self, tmp_path, bumpy):
        path, again = tmp_path / "metric.json", tmp_path / "again.json"
        bumpy.save(path)
        loaded = MetricField.load(path)
        assert loaded.block.rank == "metric"
        np.testing.assert_array_equal(loaded.block.coeffs, bumpy.block.coeffs)
        loaded.save(again)
        assert again.read_bytes() == path.read_bytes()
        with pytest.raises(ValueError, match="not a metric file"):
            MetricField.from_json_dict(random_one_form(1, np.random.default_rng(0))
                                       .to_json_dict())

    @pytest.mark.parametrize("fields, error, match", [
        ({"coeffs": [[0, 0, 1, -1, 1.0, 0.0]]}, ValueError, "component -1 lies"),
        ({"coeffs": [[0, 0, 1, 3, 1.0, 0.0]]}, ValueError, "component 3 lies"),
        ({"coeffs": [[0, 0, 2, 0, 1.0, 0.0]]}, ValueError, "outside"),
        ({"coeffs": [[0, -2, 0, 0, 1.0, 0.0]]}, ValueError, "outside"),
        ({"rank": "three_form"}, UnsupportedRankError, "unknown rank"),
        # a non-finite entry used to load unchecked
        ({"coeffs": [[0, 0, 1, 0, float("nan"), 0.0]]}, ValueError, "not finite"),
        ({"coeffs": [[0, 0, 1, 0, 1.0, float("inf")]]}, ValueError, "not finite"),
        # a non-integer or boolean N, index or component used to be truncated
        # by int(): m = (0.5, 0, 0) loaded as m = 0, N = 1.9 and true as 1
        ({"coeffs": [[0.5, 0, 0, 0, 1.0, 0.0]]}, ValueError, "must be integers"),
        ({"coeffs": [[0, 0, 1, 0.7, 1.0, 0.0]]}, ValueError, "must be integers"),
        ({"coeffs": [[0, True, 0, 0, 1.0, 0.0]]}, ValueError, "must be integers"),
        ({"N": 1.9}, ValueError, "N must be an integer"),
        ({"N": True}, ValueError, "N must be an integer"),
    ])
    def test_malformed_file_entries_are_refused(self, fields, error, match):
        # a negative index would otherwise wrap silently into the last
        # component or mode, one past the end raise a bare IndexError and
        # an unknown rank a KeyError
        data = {"rank": "one_form", "N": 1, "coeffs": [], **fields}
        with pytest.raises(error, match=match):
            FourierField.from_json_dict(data)

    def test_metric_roundtrip(self, tmp_path, bumpy):
        path = tmp_path / "metric.json"
        bumpy.save(path)
        loaded = MetricField.load(path)
        np.testing.assert_allclose(loaded.block.coeffs, bumpy.block.coeffs,
                                   atol=1e-15)


class TestFieldJet:
    def test_value_and_jacobian_match_finite_differences(self, rng):
        u = random_one_form(2, rng)
        vec = FourierField("vector", u.coeffs, _validated=True)
        jet = FieldJet(vec)
        x = rng.uniform(0, 2 * np.pi, 3)
        val, jac = jet.value_and_jacobian(x)
        np.testing.assert_allclose(val, vec.eval(x), atol=1e-12)
        h = 1e-6
        for b in range(3):
            dx = np.zeros(3)
            dx[b] = h
            fd = (vec.eval(x + dx) - vec.eval(x - dx)) / (2 * h)
            np.testing.assert_allclose(jac[:, b], fd, atol=1e-7)


def einsum_point_sum(coeffs, x):
    """The einsum point evaluator the staged kernel replaced, as reference:
    Re sum_m coeffs[..., m] e^{i m.x} over the last three axes."""
    n = (coeffs.shape[-1] - 1) // 2
    m = np.arange(-n, n + 1)
    p1, p2, p3 = (np.exp(1j * m * xi) for xi in np.asarray(x, dtype=float))
    return np.einsum("...ijk,i,j,k->...", coeffs, p1, p2, p3).real


def summation_tol(coeffs):
    """Bound on the rounding gap between two orders of one sum with the
    same phase factors: L^3 eps sum |c| over the summed axes."""
    L = coeffs.shape[-1]
    return L**3 * np.finfo(float).eps * np.abs(coeffs).sum(axis=(-3, -2, -1))


def hermitian_coeffs(ncomp, truncation, seed):
    rng = np.random.default_rng(seed)
    L = 2 * truncation + 1
    c = rng.standard_normal((ncomp, L, L, L)) + 1j * rng.standard_normal((ncomp, L, L, L))
    return 0.5 * (c + c[:, ::-1, ::-1, ::-1].conj())


def perturbed_flat_metric(truncation, seed):
    """Identity plus a symmetric perturbation small enough to stay SPD."""
    c = hermitian_coeffs(6, truncation, seed)
    c *= 0.2 / np.abs(c).sum(axis=(1, 2, 3)).max()
    c[:3, truncation, truncation, truncation] += 1.0
    return MetricField(FourierField("metric", c))


truncations = st.integers(0, 6)
seeds = st.integers(0, 2**32 - 1)
# integrations run in the universal cover and never wrap positions
cover_points = st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3)


class TestPointKernel:
    @settings(max_examples=60, deadline=None)
    @given(rank=st.sampled_from(["scalar", "one_form", "vector"]),
           truncation=truncations, seed=seeds, x=cover_points)
    def test_field_eval_matches_reference(self, rank, truncation, seed, x):
        ncomp = 1 if rank == "scalar" else 3
        field = FourierField(rank, hermitian_coeffs(ncomp, truncation, seed))
        got = np.atleast_1d(field.eval(x))
        expect = einsum_point_sum(field.coeffs, x)
        assert np.all(np.abs(got - expect) <= summation_tol(field.coeffs))

    @settings(max_examples=40, deadline=None)
    @given(truncation=truncations, seed=seeds, x=cover_points)
    def test_jet_matches_reference(self, truncation, seed, x):
        field = FourierField("vector", hermitian_coeffs(3, truncation, seed))
        m = np.arange(-truncation, truncation + 1)
        grids = np.meshgrid(m, m, m, indexing="ij")
        stacked = np.stack([field.coeffs] + [1j * mb * field.coeffs for mb in grids])
        expect = einsum_point_sum(stacked, x)  # (4, 3): value, then d_b
        tol = summation_tol(stacked)
        jet = FieldJet(field)
        val, jac = jet.value_and_jacobian(x)
        assert np.all(np.abs(val - expect[0]) <= tol[0])
        assert np.all(np.abs(jac - expect[1:].T) <= tol[1:].T)
        assert np.all(np.abs(jet.value(x) - expect[0]) <= tol[0])

    @settings(max_examples=30, deadline=None)
    @given(truncation=truncations, seed=seeds, x=cover_points)
    def test_metric_matches_reference(self, truncation, seed, x):
        metric = perturbed_flat_metric(truncation, seed)
        g, dg = metric.value_and_gradient(x)
        g_eval = metric.eval(x)
        m = np.arange(-truncation, truncation + 1)
        grids = np.meshgrid(m, m, m, indexing="ij")
        for c, (i, j) in zip(metric.block.coeffs, METRIC_COMPONENTS):
            stacked = np.stack([c] + [1j * mb * c for mb in grids])
            expect = einsum_point_sum(stacked, x)
            tol = summation_tol(stacked)
            assert abs(g[i, j] - expect[0]) <= tol[0]
            assert abs(g_eval[i, j] - expect[0]) <= tol[0]
            assert np.all(np.abs(dg[:, i, j] - expect[1:]) <= tol[1:])

    def test_constants(self):
        scalar = FourierField.constant("scalar", [2.5])
        form = FourierField.constant("one_form", [1.0, -2.0, 0.5])
        for x in ([0.0, 0.0, 0.0], [1e3, -1e3, 3.0]):
            assert scalar.eval(x) == 2.5
            np.testing.assert_array_equal(form.eval(x), [1.0, -2.0, 0.5])
            val, jac = FieldJet(form).value_and_jacobian(x)
            np.testing.assert_array_equal(val, [1.0, -2.0, 0.5])
            np.testing.assert_array_equal(jac, np.zeros((3, 3)))
            g, dg = flat_metric().value_and_gradient(x)
            np.testing.assert_array_equal(g, np.eye(3))
            np.testing.assert_array_equal(dg, np.zeros((3, 3, 3)))
            np.testing.assert_array_equal(flat_metric().eval(x), np.eye(3))

    def test_list_input_and_scalar_float(self, rng):
        scalar = random_scalar(2, rng)
        form = random_one_form(2, rng)
        x = [0.3, -1.7, 250.0]
        value = scalar.eval(x)
        assert type(value) is float
        assert value == scalar.eval(np.array(x))
        np.testing.assert_array_equal(form.eval(x), form.eval(tuple(x)))
        jet = FieldJet(FourierField("vector", form.coeffs, _validated=True))
        for a, b in zip(jet.value_and_jacobian(x), jet.value_and_jacobian(np.array(x))):
            np.testing.assert_array_equal(a, b)


    def test_scalar_eval_at_rows(self, rng):
        scalar = random_scalar(2, rng)
        points = rng.uniform(-20.0, 20.0, (5, 3))
        values = scalar.eval(points)
        assert values.shape == (5,)
        for x, value in zip(points, values):
            assert value == scalar.eval(x)
        assert scalar.eval(points[:0]).shape == (0,)


def full_point_sum(coeffs, x):
    """The full-block staged contraction the half block replaced, as
    reference: sum_m coeffs[r, m] e^{i m.x}, complex, per leading index."""
    L = coeffs.shape[-1]
    n = (L - 1) // 2
    p = np.exp(1j * np.multiply.outer(np.asarray(x, float), np.arange(-n, n + 1)))
    s = (coeffs.reshape(-1, L) @ p[2]).reshape(-1, L) @ p[1]
    return s.reshape(-1, L) @ p[0]


@pytest.mark.two_blas_threads
class TestHalfKernel:
    """The m_x >= 0 half block against the full contraction, to 1e-15 of
    each component's coefficient l1 norm."""

    @settings(max_examples=40, deadline=None)
    @given(truncation=truncations, seed=seeds, x=cover_points)
    def test_matches_full_contraction_on_hermitian_blocks(self, truncation, seed, x):
        c = hermitian_coeffs(12, truncation, seed)
        full = full_point_sum(c, x)
        scale = np.abs(c).sum(axis=(1, 2, 3))
        got = _block_sum(_half_block(c), x, False)
        assert np.all(np.abs(got - full.real) <= 1e-15 * scale)
        assert np.all(np.abs(full.imag) <= 1e-15 * scale)

    @settings(max_examples=40, deadline=None)
    @given(truncation=truncations, seed=seeds, x=cover_points)
    def test_nearly_hermitian_block_gives_real_part(self, truncation, seed, x):
        # construction accepts blocks Hermitian to HERMITIAN_TOL; the half
        # block then sums the real part of the full contraction
        rng = np.random.default_rng(seed)
        L = 2 * truncation + 1
        noise = rng.standard_normal((3, L, L, L)) + 1j * rng.standard_normal((3, L, L, L))
        c = hermitian_coeffs(3, truncation, seed) + 1e-11 * noise
        scale = np.abs(c).sum(axis=(1, 2, 3))
        got = _block_sum(_half_block(c), x, False)
        assert np.all(np.abs(got - full_point_sum(c, x).real) <= 1e-15 * scale)

    def test_points_of_a_batch_are_independent(self, rng):
        field = FourierField("vector", hermitian_coeffs(3, 4, 11))
        jet = FieldJet(field)
        points = rng.uniform(-50.0, 50.0, (9, 3))
        vals, jacs = jet.value_and_jacobian(points)
        np.testing.assert_array_equal(jet.value(points), vals)
        for k in (0, 4, 8):
            val, jac = jet.value_and_jacobian(points[k])
            np.testing.assert_array_equal(vals[k], val)
            np.testing.assert_array_equal(jacs[k], jac)
            sub_vals, sub_jacs = jet.value_and_jacobian(points[k:k + 1])
            np.testing.assert_array_equal(sub_vals[0], val)
            np.testing.assert_array_equal(sub_jacs[0], jac)


def vector_jets(n_jets, truncation, seed):
    return [FieldJet(FourierField("vector", hermitian_coeffs(3, truncation, seed + j)))
            for j in range(n_jets)]


@pytest.mark.two_blas_threads
class TestStackedKernel:
    """Every (jet, point) row of a stacked call is bit-identical to that
    jet's one-point call."""

    @settings(max_examples=40, deadline=None)
    @given(truncation=st.integers(0, 4), n_jets=st.integers(1, 4),
           n_points=st.integers(0, 4), seed=seeds, data=st.data())
    @example(truncation=2, n_jets=1, n_points=0, seed=0, data=None)
    @example(truncation=3, n_jets=1, n_points=1, seed=5, data=None)
    def test_rows_match_one_point_calls(self, truncation, n_jets, n_points,
                                        seed, data):
        shape = (n_jets, n_points, 3)
        if data is None:  # the explicit examples: far out in the cover
            points = np.full(shape, 987.654)
        else:
            size = 3 * n_jets * n_points
            coords = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=size,
                                        max_size=size))
            points = np.reshape(coords, shape)
        jets = vector_jets(n_jets, truncation, seed)
        blocks = np.stack([jet._block for jet in jets])
        out = _point_sum(blocks, points, True)
        values = _point_sum(blocks, points, False)
        assert out.shape == (n_jets, n_points, 12)
        assert values.shape == (n_jets, n_points, 3)
        for j, jet in enumerate(jets):
            for k in range(n_points):
                val, jac = jet.value_and_jacobian(points[j, k])
                row = out[j, k].reshape(4, 3)
                np.testing.assert_array_equal(row[0], val)
                np.testing.assert_array_equal(row[1:].T, jac)
                np.testing.assert_array_equal(values[j, k], jet.value(points[j, k]))

    @settings(max_examples=40, deadline=None)
    @given(rank=st.sampled_from(["scalar", "vector", "metric"]),
           truncation=st.integers(0, 4), seed=seeds,
           x=st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3),
           far=st.sampled_from([0.0, 987.654, -3e4, 1e6]))
    @example(rank="vector", truncation=0, seed=0, x=[0.0, -0.0, 0.0], far=0.0)
    def test_value_rows_match_value_only_calls(self, rank, truncation, seed,
                                               x, far):
        # the value rows of a Jacobian call come from the products of a
        # value-only call, so they are the same bits, also far out in the
        # cover
        ncomp = {"scalar": 1, "vector": 3, "metric": 6}[rank]
        block = _half_block(hermitian_coeffs(ncomp, truncation, seed))
        points = (np.asarray(x) + far).reshape(1, 1, 3)
        jet = _point_sum(block[None], points, True)
        values = _point_sum(block[None], points, False)
        assert jet.shape == (1, 1, 4 * ncomp)
        np.testing.assert_array_equal(jet[..., :ncomp], values)
        assert np.array_equal(np.signbit(jet[..., :ncomp]), np.signbit(values))

    def test_stack_rows_match_their_jets(self, rng):
        # two truncations, a jet outside the stack, and uneven row counts
        # (padded layers, a layer with no rows)
        from curllab.contact import reeb_rescaled

        jets = vector_jets(3, 2, 7) + vector_jets(2, 4, 9)
        jets.insert(2, reeb_rescaled(jets[0].field, flat_metric()))
        stack = JetStack(jets)
        owner = np.array([0, 0, 0, 2, 2, 3, 4, 4, 4, 4, 5])  # jet 1 has no rows
        points = rng.uniform(-1e3, 1e3, (owner.size, 3))
        vals, jacs = stack.values_and_jacobians(owner, points)
        only = stack.values(owner, points)
        for r, (j, x) in enumerate(zip(owner, points)):
            val, jac = jets[j].value_and_jacobian(x)
            np.testing.assert_array_equal(vals[r], val)
            np.testing.assert_array_equal(jacs[r], jac)
            np.testing.assert_array_equal(only[r], jets[j].value(x))
        # the same rows in another company
        sub = np.array([3, 4, 8])
        sub_vals, sub_jacs = stack.values_and_jacobians(owner[sub], points[sub])
        np.testing.assert_array_equal(sub_vals, vals[sub])
        np.testing.assert_array_equal(sub_jacs, jacs[sub])

    @pytest.mark.parametrize("lanes", [[0, 2, 1], [0, 1, 0, 2]])
    def test_lanes_in_any_order(self, lanes, rng):
        # the stack ranks each layer's rows itself: no order is asked of
        # the lanes, and every row keeps its jet's one-point bits
        jets = vector_jets(3, 2, 31)
        stack = JetStack(jets)
        lanes = np.array(lanes)
        points = rng.uniform(-1e3, 1e3, (lanes.size, 3))
        vals, jacs = stack.values_and_jacobians(lanes, points)
        only = stack.values(lanes, points)
        for r, (k, x) in enumerate(zip(lanes, points)):
            val, jac = jets[k].value_and_jacobian(x)
            np.testing.assert_array_equal(vals[r], val)
            np.testing.assert_array_equal(jacs[r], jac)
            np.testing.assert_array_equal(only[r], jets[k].value(x))

    def test_jets_of_one_field_share_a_layer(self, rng):
        # one jet per lane: lanes on FieldJets of one field ride one layer
        field, other = (FourierField("vector", hermitian_coeffs(3, 2, seed))
                        for seed in (41, 42))
        jets = [FieldJet(field), FieldJet(other), FieldJet(field), FieldJet(field)]
        stack = JetStack(jets)
        lanes = np.array([3, 1, 0, 2, 1])
        points = rng.uniform(-1e3, 1e3, (lanes.size, 3))
        vals, jacs = stack.values_and_jacobians(lanes, points)
        assert stack._stacked(0).shape[0] == 2
        for r, (k, x) in enumerate(zip(lanes, points)):
            val, jac = jets[k].value_and_jacobian(x)
            np.testing.assert_array_equal(vals[r], val)
            np.testing.assert_array_equal(jacs[r], jac)


@pytest.mark.two_blas_threads
class TestOneBlock:
    """A field has one evaluation block, its half_block, which holds the
    values' coefficients only: derivatives come from the phase vectors. A
    metric is built from its one coefficient block."""

    def test_value_rows_are_the_value_block(self):
        field = FourierField("vector", hermitian_coeffs(3, 3, 4))
        block = field.half_block()
        assert field.half_block() is block
        # m_z first, then (component, m_x >= 0, m_y) in C order
        assert block.shape == (7, 3 * 4 * 7) and block.flags.c_contiguous
        np.testing.assert_array_equal(block, _half_block(field.coeffs))
        half = field.coeffs[:, 3:] + field.coeffs[:, 3::-1, ::-1, ::-1].conj()
        half[:, 0] *= 0.5
        np.testing.assert_array_equal(block, half.reshape(-1, 7).T)
        assert FieldJet(field)._block is block

    def test_metric_is_built_from_its_block(self, bumpy):
        metric = MetricField(bumpy.block)
        assert metric.block is bumpy.block
        x = (0.4, -2.0, 7.5)
        np.testing.assert_array_equal(metric.eval(x), bumpy.eval(x))
        g, dg = metric.value_and_gradient(x)
        np.testing.assert_array_equal(g, bumpy.eval(x))
        assert dg.shape == (3, 3, 3)

    @pytest.mark.parametrize("block", [
        FourierField.constant("vector", [1.0, 1.0, 1.0]),
        FourierField.constant("scalar", [1.0]),
        [FourierField.constant("scalar", [1.0])] * 6,  # the old six fields
    ])
    def test_block_of_another_rank_is_refused(self, block):
        with pytest.raises(ValueError, match="rank 'metric'"):
            MetricField(block)

    def test_stack_values_match_field_values(self, rng):
        jets = vector_jets(3, 2, 21) + vector_jets(2, 3, 23)
        stack = JetStack(jets)
        owner = np.array([0, 1, 1, 2, 3, 3, 3, 4])
        points = rng.uniform(-1e3, 1e3, (owner.size, 3))
        values = stack.values(owner, points)
        for r, (j, x) in enumerate(zip(owner, points)):
            np.testing.assert_array_equal(values[r], jets[j].value(x))
        # one stacked block per truncation serves values and Jacobians
        stack.values_and_jacobians(owner, points)
        assert sorted(stack._blocks) == [0, 1]


class TestMetricValueAndGradient:
    POINTS = [(0.1, 0.2, 0.3), (2.0, 5.5, 4.1), (-7.0, 13.0, 0.9)]

    def test_matches_metric_eval(self, bumpy):
        for x in self.POINTS:
            g, _ = bumpy.value_and_gradient(x)
            np.testing.assert_allclose(g, bumpy.eval(x), rtol=0, atol=1e-14)

    def test_gradient_matches_finite_differences(self, bumpy):
        h = 1e-6
        for x in self.POINTS:
            _, dg = bumpy.value_and_gradient(x)
            for b in range(3):
                dx = np.zeros(3)
                dx[b] = h
                fd = (bumpy.eval(np.add(x, dx)) - bumpy.eval(np.subtract(x, dx))) / (2 * h)
                np.testing.assert_allclose(dg[b], fd, rtol=0, atol=1e-8)

    def test_rows_match_one_point_calls(self, bumpy):
        gs, dgs = bumpy.value_and_gradient(np.array(self.POINTS))
        assert gs.shape == (3, 3, 3) and dgs.shape == (3, 3, 3, 3)
        for x, g, dg in zip(self.POINTS, gs, dgs):
            one_g, one_dg = bumpy.value_and_gradient(x)
            np.testing.assert_array_equal(g, one_g)
            np.testing.assert_array_equal(dg, one_dg)

    def test_symmetric(self, bumpy):
        g, dg = bumpy.value_and_gradient((1.3, 0.4, 2.2))
        np.testing.assert_array_equal(g, g.T)
        for b in range(3):
            np.testing.assert_array_equal(dg[b], dg[b].T)
        assert np.abs(dg).max() > 0  # the bumpy metric is not constant
