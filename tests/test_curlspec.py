"""Curl operator assembly, coexact projection, and the eigenproblem."""

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from curllab import curlspec
from curllab.curlspec import (
    CurlOperator,
    ModeBasis,
    assemble,
    eigenpairs,
    parse_window,
)
from curllab.errors import EigensolverError
from curllab.fields import (
    FourierField,
    cos_mode,
    exterior_d,
    l2_norm,
    random_metric,
    sin_mode,
)
from conftest import random_one_form, shear_one_form


def abc_one_form(A=1.0, B=1.0, C=1.0):
    """Dual 1-form of the classic three-term Beltrami field, built by hand."""
    return (
        sin_mode("one_form", 1, (0, 0, 1), 0, A)
        + cos_mode("one_form", 1, (0, 1, 0), 0, C)
        + sin_mode("one_form", 1, (1, 0, 0), 1, B)
        + cos_mode("one_form", 1, (0, 0, 1), 1, A)
        + sin_mode("one_form", 1, (0, 1, 0), 2, C)
        + cos_mode("one_form", 1, (1, 0, 0), 2, B)
    )


def flat_eigenvalue_table(truncation, max_sq):
    """Independent lattice-count oracle: {lambda: real multiplicity}."""
    table = {}
    for m1 in range(-truncation, truncation + 1):
        for m2 in range(-truncation, truncation + 1):
            for m3 in range(-truncation, truncation + 1):
                q = m1 * m1 + m2 * m2 + m3 * m3
                if 0 < q <= max_sq:
                    lam = np.sqrt(q)
                    table[lam] = table.get(lam, 0) + 1
                    table[-lam] = table.get(-lam, 0) + 1
    return table


class TestModeBasis:
    def test_roundtrip(self, rng):
        basis = ModeBasis(2)
        form = random_one_form(2, rng)
        v = basis.pack(form.coeffs)
        assert v.shape == (basis.dim,)
        np.testing.assert_allclose(basis.unpack(v), form.coeffs, atol=1e-14)

    def test_flat_isometry(self, rng, flat):
        basis = ModeBasis(2)
        a = random_one_form(2, rng)
        b = random_one_form(2, rng)
        packed = float(basis.pack(a.coeffs) @ basis.pack(b.coeffs))
        from curllab.fields import l2_inner

        assert packed == pytest.approx(l2_inner(flat, a, b), rel=1e-12)

    def test_dimension(self):
        for n in (1, 2, 3):
            assert ModeBasis(n).dim == 3 * (2 * n + 1) ** 3


class TestApply:
    def test_helical_action_single_mode(self, flat, rng):
        # oracle: hand cross product i m x a on a single Fourier mode
        m = (1, -2, 1)
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        form = FourierField.from_modes(
            "one_form", 2, {(m[0], m[1], m[2], c): a[c] for c in range(3)}
        )
        op = assemble(flat, 2)
        out = op.apply(form)
        expect = 1j * np.cross(m, a)
        got = np.array([out.mode(*m, comp=c) for c in range(3)])
        np.testing.assert_allclose(got, expect, atol=1e-12)

    def test_shear_form_is_unit_eigenform(self, flat):
        form = shear_one_form(1)
        out = assemble(flat, 2).apply(form)
        np.testing.assert_allclose(
            out.coeffs, form.pad_to(2).coeffs, atol=1e-13
        )

    def test_constant_form_in_kernel(self, flat):
        c = FourierField.constant("one_form", [1.0, 2.0, -0.5])
        out = assemble(flat, 1).apply(c)
        assert np.abs(out.coeffs).max() <= 1e-14

    def test_weak_apply_matches_pointwise_star_closely(self, bumpy, rng):
        from curllab.fields import hodge

        op = assemble(bumpy, 2)
        form = random_one_form(2, rng)
        weak = op.apply(form)
        pointwise = hodge(bumpy, exterior_d(form), op.grid, 2)
        diff = l2_norm(bumpy, weak - pointwise) / l2_norm(bumpy, form)
        assert diff <= 1e-3  # they differ only by spectral-tail terms


class TestCoexactProjection:
    def test_exact_forms_die(self, flat):
        phi = sin_mode("scalar", 1, (1, 0, 0), 0)
        out = assemble(flat, 1).coexact_project(exterior_d(phi))
        assert np.abs(out.coeffs).max() <= 1e-12

    def test_coexact_forms_survive(self, flat):
        form = shear_one_form(1)
        out = assemble(flat, 1).coexact_project(form)
        np.testing.assert_allclose(out.coeffs, form.coeffs, atol=1e-12)

    def test_strips_harmonic_part(self, flat):
        form = shear_one_form(1) + FourierField.constant("one_form", [1, 0, 0])
        out = assemble(flat, 1).coexact_project(form)
        np.testing.assert_allclose(out.coeffs, shear_one_form(1).coeffs, atol=1e-12)

    def test_idempotent(self, bumpy, rng):
        op = assemble(bumpy, 2)
        once = op.coexact_project(random_one_form(2, rng))
        twice = op.coexact_project(once)
        np.testing.assert_allclose(twice.coeffs, once.coeffs, atol=1e-11)

    def test_output_weakly_divergence_free(self, bumpy, rng):
        op = assemble(bumpy, 2)
        out = op.coexact_project(random_one_form(2, rng))
        resid = op.coexact_residual_packed(op.basis.pack(out.coeffs))
        assert resid <= 1e-10 * op.norm(out)


class TestResidual:
    def test_exact_eigenform(self, flat):
        assert assemble(flat, 1).residual(shear_one_form(1), 1.0) <= 1e-12

    def test_wrong_eigenvalue_is_order_one(self, flat):
        op = assemble(flat, 1)
        assert op.residual(shear_one_form(1), 2.0) == pytest.approx(1.0, rel=1e-10)

    def test_three_term_beltrami(self, flat):
        assert assemble(flat, 1).residual(abc_one_form(1, 1, 1), 1.0) <= 1e-12

    def test_zero_form_rejected(self, flat):
        with pytest.raises(ValueError):
            assemble(flat, 1).residual(FourierField.zeros("one_form", 1), 1.0)


class TestEigenpairs:
    def test_flat_smallest_cluster(self, flat):
        pairs = eigenpairs(flat, 2, {"count": 12})
        vals = np.array([p.eigenvalue for p in pairs])
        np.testing.assert_allclose(np.abs(vals), 1.0, atol=1e-10)
        assert np.sum(vals > 0) == 6 and np.sum(vals < 0) == 6
        assert all(p.cluster_size == 6 for p in pairs)
        # positive cluster sorts first
        assert all(v > 0 for v in vals[:6])

    def test_flat_next_cluster_multiplicity(self, flat):
        pairs = eigenpairs(flat, 2, {"interval": [1.2, 1.6]})
        vals = [p.eigenvalue for p in pairs]
        assert len(vals) == 12
        np.testing.assert_allclose(vals, np.sqrt(2.0), atol=1e-10)

    def test_flat_table_at_truncation_three(self, flat):
        pairs = eigenpairs(flat, 3, {"count": 112})
        oracle = flat_eigenvalue_table(3, 5)
        got = {}
        for p in pairs:
            key = min(oracle, key=lambda lam: abs(lam - p.eigenvalue))
            assert abs(p.eigenvalue - key) <= 1e-8
            got[key] = got.get(key, 0) + 1
        assert got == oracle

    def test_conformal_spectrum_scaling(self, flat, conformal2):
        base = eigenpairs(flat, 2, {"count": 12})
        scaled = eigenpairs(conformal2, 2, {"count": 12})
        for p, q in zip(base, scaled):
            assert q.eigenvalue == pytest.approx(p.eigenvalue / 2.0, abs=1e-8)

    def test_pair_invariants(self, bumpy):
        op = assemble(bumpy, 2)
        pairs = eigenpairs(bumpy, 2, {"count": 8}, operator=op)
        for p in pairs:
            assert p.eigenvalue != 0.0
            assert p.residual <= 1e-8
            assert op.norm(p.form) == pytest.approx(1.0, abs=1e-10)
            assert p.coexact_residual <= 1e-8

    def test_spectrum_symmetric_under_sign_flip(self, flat):
        pairs = eigenpairs(flat, 2, {"count": 36})
        vals = sorted(p.eigenvalue for p in pairs)
        np.testing.assert_allclose(vals, sorted(-v for v in vals), atol=1e-10)

    def test_window_containing_zero_rejected(self, flat):
        with pytest.raises(ValueError, match="exclude"):
            eigenpairs(flat, 2, {"interval": [-1.0, 1.0]})

    @pytest.mark.parametrize("window, message", [
        ({"interval": [float("nan"), 1.0]}, "finite"),
        ({"interval": [0.5, float("inf")]}, "finite"),
        ({"interval": [-float("inf"), -0.5]}, "finite"),
        ({"count": 2.7}, "integer"),
        ({"count": "3"}, "integer"),
    ])
    def test_malformed_window_rejected_at_parse_time(self, window, message):
        # a non-finite bound would otherwise reach LAPACK, and int() would
        # silently truncate a fractional count
        with pytest.raises(ValueError, match=message):
            parse_window(window)

    def test_count_beyond_truncation_raises(self, flat, monkeypatch):
        # N = 1: 81 packed dofs, of which 3 constant and 26 exact forms
        # are closed, which leaves 52 nonzero eigenvalues
        assert len(eigenpairs(flat, 1, {"count": 52})) == 52

        def no_solve(*args, **kwargs):
            raise AssertionError("the count is checked before any solve")

        monkeypatch.setattr(curlspec.sla, "eigh", no_solve)
        with pytest.raises(EigensolverError, match="only 52 available"):
            eigenpairs(flat, 1, {"count": 53})

    @pytest.mark.parametrize("interval", [
        [0.7, 1.5],      # the split +1 and +sqrt(2) clusters: 6 + 12 pairs
        [-1.5, -0.7],
        [0.995, 1.001],  # two of the six pairs near +1
    ])
    def test_interval_window_is_complete(self, bumpy, interval):
        # oracle: Sylvester inertia. G is SPD, so the number of negative
        # pivots of LDL^T(B - sigma G) is the number of eigenvalues of
        # B v = lambda G v below sigma.
        op = assemble(bumpy, 2)

        def below(sigma):
            _, d, _ = sla.ldl(op.pairing_matrix - sigma * op.gram_matrix)
            return int((np.linalg.eigvalsh(d) < 0).sum())

        expected = below(interval[1]) - below(interval[0])
        assert expected == {0.7: 18, -1.5: 18, 0.995: 2}[interval[0]]
        assert op.count_below(interval[1]) - op.count_below(interval[0]) == expected
        pairs = eigenpairs(bumpy, 2, {"interval": interval}, operator=op)
        assert len(pairs) == expected


class TestReducedPencil:
    def test_frames_diagonalize_the_pairing(self, flat):
        op = assemble(flat, 2)
        Q, d = op.basis.rotation, op.basis.d
        K = op.basis.n_half
        B = op.pairing_matrix[3:, 3:].reshape(K, 6, K, 6)
        blocks = B[np.arange(K), :, np.arange(K), :]  # (K, 6, 6) per mode
        np.testing.assert_allclose(Q.transpose(0, 2, 1) @ Q, np.broadcast_to(
            np.eye(6), Q.shape), atol=1e-15)
        rotated = Q.transpose(0, 2, 1) @ blocks @ Q
        expect = np.zeros_like(rotated)
        expect[:, np.arange(2, 6), np.arange(2, 6)] = d.reshape(K, 4)
        np.testing.assert_allclose(rotated, expect, atol=1e-14)
        assert np.all(d.reshape(K, 4)[:, :2] > 0)

    def test_frames_shared_per_truncation_and_read_only(self, flat, bumpy):
        a, b = assemble(flat, 2), assemble(bumpy, 2)
        assert a.basis is b.basis
        assert assemble(bumpy, 1).basis is not a.basis
        for array in (a.basis.rotation, a.basis.d, a.basis.half_modes,
                      a.basis.half_index[0], a.basis.neg_index[2]):
            with pytest.raises(ValueError):
                array[0] = 0

    def test_count_window_is_one_subset_eigh_of_the_reduced_pencil(
            self, bumpy, monkeypatch):
        calls = []
        eigh = curlspec.sla.eigh

        def spy(a, b=None, **kwargs):
            calls.append((a.shape, b.shape, sorted(kwargs)))
            return eigh(a, b, **kwargs)

        monkeypatch.setattr(curlspec.sla, "eigh", spy)
        assert len(eigenpairs(bumpy, 3, {"count": 6})) == 6
        # N = 3: 171 half modes, so 4K = 684 against 1029 packed dofs
        assert len(calls) == 1
        a_shape, b_shape, keys = calls[0]
        assert a_shape == b_shape == (684, 684)
        assert "subset_by_index" in keys

    @pytest.mark.parametrize("window, expected", [
        ({"count": 6}, 12),  # the index bracket holds 6 of each sign
        ({"interval": [0.7, 1.5]}, 18),
    ])
    def test_short_solve_raises(self, bumpy, monkeypatch, window, expected):
        eigh = curlspec.sla.eigh

        def drop_one(*args, **kwargs):
            vals, vecs = eigh(*args, **kwargs)
            return vals[:-1], vecs[:, :-1]

        monkeypatch.setattr(curlspec.sla, "eigh", drop_one)
        with pytest.raises(EigensolverError) as err:
            eigenpairs(bumpy, 2, window)
        assert err.value.diagnostics == {
            "window": window, "expected": expected, "returned": expected - 1}


seeds = st.integers(0, 2**32 - 1)
amplitudes = st.floats(1e-3, 0.15)


class TestReductionProperties:
    @settings(max_examples=12, deadline=None)
    @given(seed=seeds, amplitude=amplitudes, truncation=st.integers(1, 3))
    def test_reduced_spectrum_is_the_nonzero_spectrum(
            self, seed, amplitude, truncation):
        op = assemble(random_metric(2.0, amplitude, seed), truncation)
        B, G = op.pairing_matrix, op.gram_matrix
        # reference: the dense pencil, whose kernel is the closed forms
        full = sla.eigh(B, G, eigvals_only=True)
        radius = np.abs(full).max()
        nonzero = full[np.abs(full) > 1e-6 * radius]
        tol = 1e3 * np.finfo(float).eps * radius
        vals, vecs = op.spectrum()
        K = op.basis.n_half
        assert len(vals) == len(nonzero) == 4 * K
        assert np.count_nonzero(vals < 0) == 2 * K
        np.testing.assert_allclose(vals, nonzero, rtol=0, atol=tol)
        np.testing.assert_allclose(B @ vecs, G @ vecs * vals, rtol=0, atol=tol)
        np.testing.assert_allclose(np.einsum("ip,ij,jp->p", vecs, G, vecs), 1.0,
                                   rtol=0, atol=1e3 * np.finfo(float).eps)

    @settings(max_examples=12, deadline=None)
    @given(seed=seeds, amplitude=amplitudes, truncation=st.integers(1, 2))
    def test_weak_curl_is_symmetric_and_self_adjoint(
            self, seed, amplitude, truncation):
        op = assemble(random_metric(2.0, amplitude, seed), truncation)
        B, G = op.pairing_matrix, op.gram_matrix
        assert np.array_equal(B, B.T) and np.array_equal(G, G.T)
        rng = np.random.default_rng(seed)
        a = random_one_form(truncation, rng)
        b = random_one_form(truncation, rng)
        Aa, Ab = op.apply(a), op.apply(b)
        scale = op.norm(Aa) * op.norm(b) + op.norm(a) * op.norm(Ab)
        assert abs(op.inner(Aa, b) - op.inner(a, Ab)) <= 1e3 * np.finfo(float).eps * scale


class TestGramMatrix:
    def test_indexed_assembly_matches_quadrature_operator(self, bumpy, rng):
        # the dense Gram must agree with the FFT-based quadrature applier
        op = assemble(bumpy, 2)
        G = op.gram_matrix
        for _ in range(3):
            v = rng.standard_normal(op.dim)
            direct = op.basis.pack(
                op.gram_apply_coeffs(op.basis.unpack_batch(v[None]))[0]
            )
            np.testing.assert_allclose(G @ v, direct, atol=1e-10 * op.dim)

    def test_matches_l2_inner(self, bumpy, rng):
        from curllab.fields import l2_inner

        op = assemble(bumpy, 2)
        a = random_one_form(2, rng)
        b = random_one_form(2, rng)
        va, vb = op.basis.pack(a.coeffs), op.basis.pack(b.coeffs)
        quad = l2_inner(bumpy, a, b, op.grid)
        assert float(va @ op.gram_matrix @ vb) == pytest.approx(quad, rel=1e-11)


class TestSelfAdjointness:
    def test_random_spd_metrics(self):
        for i in range(5):
            g = random_metric(2.0, 5e-2, 1000 + i)
            op = assemble(g, 2)
            assert op.self_adjointness_residual(n_trials=6, seed=i) <= 1e-8
