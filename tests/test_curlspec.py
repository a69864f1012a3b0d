"""Curl operator assembly, the coexact residual, and the eigenproblem."""

import itertools
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.sparse.linalg import ArpackNoConvergence
from hypothesis import example, given, settings
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
    TAU,
    FourierField,
    MetricField,
    exterior_d,
    flat_metric,
    l2_norm,
    random_metric,
)
from conftest import (
    cos_mode,
    pairing_matrix,
    permuted_metric,
    random_one_form,
    reflected_metric,
    self_adjointness_residual,
    shear_one_form,
    sin_mode,
    translated_metric,
)


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

    def test_stacks_match_one_array_at_a_time(self, rng):
        basis = ModeBasis(2)
        v = rng.standard_normal((2, 3, basis.dim))
        coeffs = basis.unpack(v)
        assert coeffs.shape == (2, 3, 3, 5, 5, 5)
        for i, j in itertools.product(range(2), range(3)):
            np.testing.assert_array_equal(coeffs[i, j], basis.unpack(v[i, j]))
            np.testing.assert_array_equal(basis.pack(coeffs)[i, j],
                                          basis.pack(coeffs[i, j]))


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
        n = out.truncation
        got = out.coeffs[:, m[0] + n, m[1] + n, m[2] + n]
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
        pointwise = hodge(bumpy, exterior_d(form), op.grid).truncate_to(2)
        diff = l2_norm(bumpy, weak - pointwise) / l2_norm(bumpy, form)
        assert diff <= 1e-3  # they differ only by spectral-tail terms


class TestCoexactProjection:
    """coexact_residual_packed is the weighted norm of the closed part."""

    @staticmethod
    def residual(op, form):
        return op.coexact_residual_packed(op.basis.pack(form.coeffs))

    def test_exact_forms_die(self, bumpy):
        # an exact form is all closed part: the residual is its own norm
        op = assemble(bumpy, 1)
        form = exterior_d(sin_mode("scalar", 1, (1, 0, 0), 0)
                          + cos_mode("scalar", 1, (0, 1, 1), 0))
        assert self.residual(op, form) == pytest.approx(op.norm(form), rel=1e-12)

    def test_coexact_forms_survive(self, flat):
        assert self.residual(assemble(flat, 1), shear_one_form(1)) <= 1e-12

    def test_strips_harmonic_part(self, flat):
        op = assemble(flat, 1)
        constant = FourierField.constant("one_form", [1, 0, 0])
        assert self.residual(op, shear_one_form(1) + constant) == pytest.approx(
            op.norm(constant), rel=1e-12)

    def test_output_weakly_divergence_free(self, bumpy):
        # the solver's lifted eigenvectors are G-orthogonal to the closed forms
        op = assemble(bumpy, 2)
        _, vecs = op.spectrum()
        resid = max(op.coexact_residual_packed(v) for v in vecs.T)
        assert resid <= 1e-10


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


@pytest.mark.two_blas_threads
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

    def test_operator_of_another_problem_rejected(self, flat, bumpy):
        with pytest.raises(ValueError, match="another metric or truncation"):
            eigenpairs(bumpy, 2, {"count": 6}, operator=assemble(bumpy, 1))
        with pytest.raises(ValueError, match="another metric or truncation"):
            eigenpairs(flat, 2, {"count": 6}, operator=assemble(bumpy, 2))

    def test_window_containing_zero_rejected(self, flat):
        with pytest.raises(ValueError, match="exclude"):
            eigenpairs(flat, 2, {"interval": [-1.0, 1.0]})

    @pytest.mark.parametrize("window, message", [
        ({"interval": [float("nan"), 1.0]}, "finite"),
        ({"interval": [0.5, float("inf")]}, "finite"),
        ({"interval": [-float("inf"), -0.5]}, "finite"),
        ({"count": 2.7}, "integer"),
        ({"count": "3"}, "integer"),
        ({"count": True}, "integer"),  # a bool is not a count of one pair
        # these raised TypeError, or used the count and ignored the interval
        ({"interval": 5}, "two real bounds"),
        ({"interval": None}, "two real bounds"),
        ({"interval": [0.5]}, "two real bounds"),
        ({"count": 3, "interval": [0.5, 1.0]}, "not both"),
        # these were accepted, and a sweep config hashed them apart from
        # the window [0.9, 1.1] they solve
        ({"interval": ["0.9", "1.1"]}, "two real bounds"),
        ({"interval": [True, 1.1]}, "two real bounds"),
        ({"interval": [0.9, 1.1], "band": 3}, "no other"),
        ({"count": 3, "band": 3}, "no other"),
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
        G = op.gram_matrix

        def below(sigma):
            _, d, _ = sla.ldl(pairing_matrix(op) - sigma * G)
            return int((np.linalg.eigvalsh(d) < 0).sum())

        expected = below(interval[1]) - below(interval[0])
        assert expected == {0.7: 18, -1.5: 18, 0.995: 2}[interval[0]]
        assert op.count_below(interval[1]) - op.count_below(interval[0]) == expected
        pairs = eigenpairs(bumpy, 2, {"interval": interval}, operator=op)
        assert len(pairs) == expected

    @pytest.mark.parametrize("metric_name, window", [
        ("flat", {"count": 36}),
        ("flat", {"interval": [0.7, 1.5]}),
        ("bumpy", {"interval": [0.7, 1.5]}),
        ("bumpy", {"count": 8}),
        ("flat", {"interval": [0.1, 0.2]}),  # empty window
    ])
    def test_clusters_match_reference_loop(self, metric_name, window, flat,
                                           bumpy):
        metric = {"flat": flat, "bumpy": bumpy}[metric_name]
        op = assemble(metric, 2)
        pairs = eigenpairs(metric, 2, window, operator=op)
        tol = curlspec.GAP_TOL * np.abs(op.basis.d).max()
        # reference: a new cluster wherever consecutive eigenvalues, in the
        # returned order, differ by at least tol
        ids, prev = [], None
        for p in pairs:
            if prev is None or abs(p.eigenvalue - prev) >= tol:
                ids.append((ids[-1] + 1) if ids else 0)
            else:
                ids.append(ids[-1])
            prev = p.eigenvalue
        assert [p.cluster_id for p in pairs] == ids
        assert [p.cluster_size for p in pairs] == [ids.count(i) for i in ids]
        assert all(type(p.cluster_id) is int and type(p.cluster_size) is int
                   for p in pairs)
        if window == {"interval": [0.1, 0.2]}:
            assert pairs == []


@pytest.mark.two_blas_threads
class TestReducedPencil:
    def test_frames_diagonalize_the_pairing(self, flat):
        # B(beta, alpha) = integral of beta ^ d(alpha) is the flat L2 pairing
        # of beta with the 2-form d(alpha), and pack is a flat L2 isometry,
        # so column j of B is the packed d of the form of unit vector e_j
        op = assemble(flat, 2)
        basis = op.basis
        Q, d, K = basis.rotation, basis.d, basis.n_half
        np.testing.assert_allclose(Q.transpose(0, 2, 1) @ Q, np.broadcast_to(
            np.eye(6), Q.shape), atol=1e-15)
        B = np.stack([basis.pack(exterior_d(FourierField(
            "one_form", basis.unpack(e))).coeffs) for e in np.eye(op.dim)],
            axis=1)
        np.testing.assert_allclose(B, pairing_matrix(op), rtol=0, atol=1e-14)
        for e in np.eye(op.dim)[::7]:
            assert np.array_equal(op.pairing_apply(e), pairing_matrix(op) @ e)
        plus, minus = d.reshape(2, K, 2)  # by helicity sign, then by mode
        assert np.all(plus > 0) and np.array_equal(minus, -plus)

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
        # the closed block's factor L, then the one factor R of S, which
        # reduces the pencil to standard form for one subset `evx` solve
        # (below N = 5 every window takes the dense path); both factors
        # are made in place by dpotrf, with no copying `cholesky`
        calls = spy_on(monkeypatch, curlspec.sla.lapack, "dpotrf")
        spy_on(monkeypatch, curlspec.sla, "cholesky", "eigh", calls=calls)
        spy_on(monkeypatch, curlspec.spla, "eigsh", calls=calls)
        assert len(eigenpairs(bumpy, 3, {"count": 6})) == 6
        # N = 3: 171 half modes, so 2K + 3 = 345 closed coordinates and
        # 4K = 684 helical ones against 1029 packed dofs
        assert [(name, shape) for name, shape, _, _ in calls] == [
            ("dpotrf", (345, 345)), ("dpotrf", (684, 684)),
            ("eigh", (684, 684))]
        _, _, args, kwargs = calls[-1]
        assert args == () and "b" not in kwargs  # a standard problem
        assert kwargs["driver"] == "evx" and "subset_by_index" in kwargs

    def test_lanczos_count_window_is_one_lanczos_solve(self, bumpy,
                                                       monkeypatch):
        # on the Lanczos path (here moved down to N = 3) a count window of
        # 6 makes the same two Cholesky factors, then one eigsh on
        # R^T d^-1 R with its restarts capped: no dense eigh and no dsygst.
        # Its ends close the first shell, whose gap to the next one the
        # metric's weight bounds prove, so its answer is checked against
        # that gap's count and nothing is factored after eigsh. A count of
        # 3 closes no shell: each side widens to the first shell's closure,
        # so it makes the same single eigsh with k = 12
        monkeypatch.setattr(curlspec, "LANCZOS_MIN_DIM", 684)
        calls = spy_on(monkeypatch, curlspec.sla.lapack, "dpotrf")
        spy_on(monkeypatch, curlspec.sla, "cholesky", "eigh", calls=calls)
        spy_on(monkeypatch, curlspec.spla, "eigsh", calls=calls)
        spy_on(monkeypatch, curlspec.sla.lapack, "dsygst", calls=calls)
        for count in (6, 3):
            calls.clear()
            assert len(eigenpairs(bumpy, 3, {"count": count})) == count
            assert [(name, shape) for name, shape, _, _ in calls] == [
                ("dpotrf", (345, 345)), ("dpotrf", (684, 684)),
                ("eigsh", (684, 684))]
            _, _, _, kwargs = calls[2]
            assert kwargs["k"] == 12 and kwargs["which"] == "BE"
            assert kwargs["maxiter"] == curlspec.LANCZOS_MAXITER

    def test_benchmark_count_window_factors_no_count(self, monkeypatch):
        # the benchmark's solve, count 6 at N = 5: its ends close the first
        # shell, so it is not widened: one eigsh round, k = 12 from
        # default_rng(0)'s start vector, which fixes the answer's bits, and
        # nothing is factored after it. The bits themselves depend on the
        # BLAS build and thread count, so no digest is pinned here. With
        # the proved gaps taken away no side closes, and the window goes
        # dense
        metric = random_metric(2.0, 1e-2, 5)
        calls = spy_on(monkeypatch, curlspec.sla.lapack, "dpotrf", "dsytrf",
                       "dsygst")
        spy_on(monkeypatch, curlspec.spla, "eigsh", calls=calls)
        solves = []
        for proved in (True, False):
            if not proved:
                monkeypatch.setattr(curlspec, "_shell_gaps",
                                    lambda d, a, b: (np.empty(0),) * 3)
            calls.clear()
            op = assemble(metric, 5)
            solves.append(eigenpairs(metric, 5, {"count": 6}, operator=op))
            assert op.lanczos_fallbacks == []
            names = [(name, shape) for name, shape, _, _ in calls]
            assert names[:2] == [("dpotrf", (1333, 1333)),
                                 ("dpotrf", (2660, 2660))]
            if proved:
                assert names[2:] == [("eigsh", (2660, 2660))]
                kwargs = calls[2][3]
                assert (kwargs["k"], kwargs["which"], kwargs["tol"]) == (
                    12, "BE", 0)
                assert np.array_equal(
                    kwargs["v0"], np.random.default_rng(0).standard_normal(2660))
            else:
                assert names[2:] == [("dsygst", (2660, 2660))]
        for p, q in zip(*solves):
            assert p.eigenvalue == pytest.approx(q.eigenvalue, abs=1e-13)
            # simple eigenvalues: the same form, up to round-off
            np.testing.assert_allclose(p.form.coeffs, q.form.coeffs, rtol=0,
                                       atol=1e-10)

    @pytest.mark.parametrize("truncation, count, lanczos", [
        (2, 6, False), (3, 6, False), (4, 6, False),  # 4K = 248, 684, 1456
        (5, 1, True), (5, 18, True), (5, 19, False),  # 4K = 2660
        (5, 24, False), (5, 25, False),
    ])
    def test_lanczos_takes_small_windows_from_n5_on(self, flat, truncation,
                                                    count, lanczos,
                                                    monkeypatch):
        # each side widens to the flat shells' closures 6, 18, 26, ...: up
        # to a count of 18 the request is k = 36, from 19 on it is 52, past
        # LANCZOS_MAX_VALUES. The choice reads the gaps and factors nothing
        calls = spy_on(monkeypatch, curlspec.sla.lapack, "dpotrf", "dsytrf")
        op = CurlOperator(flat, truncation)
        half = op.basis.d.size // 2
        sides = op._lanczos_sides(half - count, half + count - 1)
        assert (sides is not None) == lanczos
        if lanczos:
            closure = 6 if count <= 6 else 18
            assert sides[0] == (closure, closure)
        # a one-sided bracket, as an interval window's, below N = 5 goes
        # dense
        if truncation < 5:
            assert op._lanczos_sides(half + 2, half + 7) is None
        assert calls == [] and op._factors is None

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


def spy_on(monkeypatch, owner, *names, calls=None):
    """Record (name, shape of the first argument, args, kwargs) of each call."""
    calls = [] if calls is None else calls
    for name in names:
        def spy(a, *args, _name=name, _original=getattr(owner, name), **kwargs):
            calls.append((_name, a.shape, args, kwargs))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(owner, name, spy)
    return calls


def schur_complement(op):
    """S, rebuilt from the strict upper triangle of the operator's packed
    buffer (R below it) and the diagonal kept beside it."""
    _, RS, s = op._reduction
    upper = np.triu(RS, 1)
    return upper + upper.T + np.diag(s)


def interval_bracket(op, a, b):
    """The index bracket of the interval window [a, b], as eigenpairs
    makes it from two Sylvester counts."""
    return [op.count_below(a), op.count_below(np.nextafter(b, np.inf)) - 1]


def on_dense_path(call, *args, **kwargs):
    """call(*args, **kwargs) with every window on the dense subset `evx`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(curlspec, "LANCZOS_MIN_DIM", np.inf)
        return call(*args, **kwargs)


def skipping_eigsh(side, spare=1, rounds=None, outermost=False):
    """eigsh that leaves out one wanted value on one side (side = +1 or
    -1), the one nearest 0 or, if outermost, the one farthest from it, and
    returns the next one beyond the wanted values in its place. It solves
    for `spare` more values at each end of the spectrum it is asked for,
    to convergence; from round `rounds` on it passes through."""
    eigsh = curlspec.spla.eigsh
    calls = itertools.count()

    def patched(A, k, which, **kwargs):
        if rounds is not None and next(calls) >= rounds:
            return eigsh(A, k, which=which, **kwargs)
        ends = 2 if which == "BE" else 1
        kwargs.pop("maxiter")
        mu, y = eigsh(A, k + ends * spare, which=which, **kwargs)
        # ascending mu = 1 / lambda: the negative lambda nearest 0 first,
        # the positive ones nearest 0 last
        top = {"BE": k // 2, "LA": k, "SA": 0}[which]
        low, high = np.arange(k - top), len(mu) - top + np.arange(top)
        if side < 0:
            low = np.append(np.delete(low, -1 if outermost else 0), k - top)
        else:
            high = np.insert(np.delete(high, 0 if outermost else -1), 0,
                             len(mu) - top - 1)
        keep = np.concatenate([low, high])
        return mu[keep], y[:, keep]

    return patched


def constant_anisotropic_metric():
    """A constant metric that is not a multiple of the identity: its
    eigenvalues come in exact pairs (u and i u on one mode)."""
    entries = [1.3, 0.9, 1.1, 0.05, 0.1, 0.2]  # g11, g22, g33, g23, g13, g12
    return MetricField(FourierField.constant("metric", entries))


def mild_constant_metric():
    """A constant metric with exact pairs whose weight bounds, b / a =
    1.16, prove the gaps above the first two shells."""
    return MetricField(FourierField.constant(
        "metric", [1.06, 0.95, 1.0, 0.02, 0.03, 0.04]))


LANCZOS_METRICS = {
    "flat": flat_metric,  # exact 6-fold clusters
    # exact 2-fold clusters; b / a = 1.74 proves no gap between shells
    "constant": constant_anisotropic_metric,
    "mild_constant": mild_constant_metric,  # exact 2-fold clusters
    "random": lambda: random_metric(2.0, 1e-2, 11),  # simple eigenvalues
}


@pytest.mark.two_blas_threads
class TestLanczos:
    """Small windows from N = 5 on are solved by Lanczos on the Schur
    factor. These tests run that path at N = 3 and 4, where the dense
    subset `evx` of the same window is a cheap reference."""

    @pytest.fixture(autouse=True)
    def lanczos_below_n5(self, monkeypatch):
        monkeypatch.setattr(curlspec, "LANCZOS_MIN_DIM", 0)

    @pytest.mark.parametrize("truncation", [3, 4])
    @pytest.mark.parametrize("metric_name", sorted(LANCZOS_METRICS))
    def test_matches_the_dense_spectrum(self, metric_name, truncation,
                                        monkeypatch):
        # each bracket widens to the closure of the first or second shell;
        # where the weight bounds prove no gap there (the anisotropic
        # constant metric), it takes the dense route instead
        op = assemble(LANCZOS_METRICS[metric_name](), truncation)
        lanczos = metric_name != "constant"
        half = op.basis.d.size // 2
        B, G = pairing_matrix(op), op.gram_matrix
        calls = spy_on(monkeypatch, curlspec.spla, "eigsh")
        for bracket in ([half - 6, half + 5],  # count 6
                        [half + 2, half + 4],
                        interval_bracket(op, 0.7, 1.5),
                        interval_bracket(op, -1.1, -0.9)):
            assert (op._lanczos_sides(*bracket) is not None) == lanczos, bracket
            calls.clear()
            vals, vecs = op.spectrum(*bracket)
            assert bool(calls) == lanczos
            assert op.lanczos_fallbacks == []  # the route chosen answered
            ref, _ = on_dense_path(op.spectrum, *bracket)
            assert len(vals) == len(ref) > 0
            np.testing.assert_allclose(vals, ref, rtol=0, atol=1e-13)
            # G-orthonormal eigenvectors, as many as the window holds, so
            # they span its eigenspaces whatever the multiplicities
            np.testing.assert_allclose(vecs.T @ G @ vecs, np.eye(len(vals)),
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(B @ vecs, G @ vecs * vals, rtol=0,
                                       atol=1e-12)

    def test_eigenpairs_match_the_dense_path(self):
        metric = LANCZOS_METRICS["random"]()
        op = assemble(metric, 3)
        for window in ({"count": 6}, {"interval": [0.9, 1.1]}):
            pairs = eigenpairs(metric, 3, window, operator=op)
            dense = on_dense_path(eigenpairs, metric, 3, window, operator=op)
            assert len(pairs) == len(dense) == 6
            for p, q in zip(pairs, dense):
                assert p.eigenvalue == pytest.approx(q.eigenvalue, abs=1e-14)
                assert (p.cluster_id, p.cluster_size) == (q.cluster_id,
                                                          q.cluster_size)
                assert p.residual <= 1e-12 and p.coexact_residual <= 1e-12
                # simple eigenvalues: the same form, up to round-off
                np.testing.assert_allclose(p.form.coeffs, q.form.coeffs,
                                           rtol=0, atol=1e-10)
        assert op.lanczos_fallbacks == []

    @pytest.mark.parametrize("metric_name", ["random", "flat"])
    def test_deterministic(self, metric_name):
        metric = LANCZOS_METRICS[metric_name]()
        op = assemble(metric, 3)
        runs = [eigenpairs(metric, 3, {"count": 6}, operator=op),
                eigenpairs(metric, 3, {"count": 6}, operator=op),
                eigenpairs(metric, 3, {"count": 6})]  # a fresh operator
        for pairs in runs[1:]:
            assert [p.eigenvalue for p in pairs] == [p.eigenvalue for p in runs[0]]
            for p, q in zip(pairs, runs[0]):
                assert np.array_equal(p.form.coeffs, q.form.coeffs)

    @pytest.mark.parametrize("window, side", [
        ({"count": 6}, +1),
        ({"interval": [0.9, 1.1]}, +1),
        ({"interval": [-1.1, -0.9]}, -1),
    ])
    def test_a_missed_pair_falls_back_to_dense(self, bumpy, monkeypatch,
                                               window, side):
        # eigsh drops the wanted pair nearest 0 on one side and returns the
        # next one instead, in every round: Sylvester's law catches it, and
        # the window is solved densely
        op = assemble(bumpy, 3)
        dense = on_dense_path(eigenpairs, bumpy, 3, window, operator=op)
        monkeypatch.setattr(curlspec.spla, "eigsh", skipping_eigsh(side))
        pairs = eigenpairs(bumpy, 3, window, operator=op)
        [info] = op.lanczos_fallbacks
        assert "the weight bounds prove" in info["error"]
        assert info["expected"] - info["returned"] == 1
        assert np.sign(info["sigma"]) == side
        assert [p.eigenvalue for p in pairs] == [p.eigenvalue for p in dense]
        for p, q in zip(pairs, dense):
            assert np.array_equal(p.form.coeffs, q.form.coeffs)

    def test_a_swap_inside_a_split_cluster_is_caught(self, monkeypatch):
        # the first shell of this metric is split by 1e-10 to 1e-8, far
        # below the clustering tolerance GAP_TOL * max|d| = 5e-6. A count
        # of 3 widens to the shell's closure at 6. eigsh's first round
        # leaves out the sixth positive value, the last one below the
        # proved gap, and returns the seventh, beyond it: the gap's count
        # refutes the round, and the next one, asked on the complement for
        # the one missing value only, finds the sixth
        metric = random_metric(2.0, 1e-7, 1000)
        op = assemble(metric, 3)
        dense = on_dense_path(eigenpairs, metric, 3, {"count": 3}, operator=op)
        calls = []
        monkeypatch.setattr(curlspec.spla, "eigsh",
                            skipping_eigsh(+1, spare=12, rounds=1,
                                           outermost=True))
        spy_on(monkeypatch, curlspec.spla, "eigsh", calls=calls)
        pairs = eigenpairs(metric, 3, {"count": 3}, operator=op)
        assert len(calls) == 2 and op.lanczos_fallbacks == []
        np.testing.assert_allclose([p.eigenvalue for p in pairs],
                                   [p.eigenvalue for p in dense],
                                   rtol=0, atol=1e-13)

    @pytest.mark.parametrize("count", [3, 11])
    def test_nearly_flat_metric_is_one_lanczos_round(self, monkeypatch, count):
        # both windows end inside a cluster split by about 1e-10, which
        # ARPACK does not resolve within LANCZOS_MAXITER restarts. Widened
        # to the closures 6 and 18 they end in proved gaps instead, and
        # one round answers
        metric = random_metric(2.0, 1e-10, 1000)
        op = assemble(metric, 3)
        calls = spy_on(monkeypatch, curlspec.spla, "eigsh")
        pairs = eigenpairs(metric, 3, {"count": count}, operator=op)
        assert [kwargs["k"] for _, _, _, kwargs in calls] == [
            {3: 12, 11: 36}[count]]
        assert op.lanczos_fallbacks == []
        dense = on_dense_path(eigenpairs, metric, 3, {"count": count},
                              operator=op)
        np.testing.assert_allclose([p.eigenvalue for p in pairs],
                                   [p.eigenvalue for p in dense],
                                   rtol=0, atol=1e-13)

    def test_no_convergence_falls_back_to_dense(self, bumpy, monkeypatch):
        def stalled(A, k, which, **kwargs):
            raise ArpackNoConvergence("no convergence", np.empty(0),
                                      np.empty((A.shape[0], 0)))

        op = assemble(bumpy, 3)
        dense = on_dense_path(eigenpairs, bumpy, 3, {"count": 6}, operator=op)
        monkeypatch.setattr(curlspec.spla, "eigsh", stalled)
        pairs = eigenpairs(bumpy, 3, {"count": 6}, operator=op)
        [info] = op.lanczos_fallbacks
        assert "did not converge" in info["error"]
        assert (info["nev"], info["which"], info["round"]) == (12, "BE", 0)
        assert [p.eigenvalue for p in pairs] == [p.eigenvalue for p in dense]

    def test_a_value_a_rounding_beyond_a_counted_end_is_not_refuted(
            self, monkeypatch):
        # interval windows of five values whose ends are computed
        # eigenvalues, many inside a shell that the metric splits: ARPACK
        # is asked for the window widened to the nearest proved gap, so a
        # Ritz value a rounding beyond an end is inside the request. Each
        # of these 280 windows is one Lanczos round, and none is refuted
        # or fails to converge
        calls = spy_on(monkeypatch, curlspec.spla, "eigsh")
        fallbacks = []
        for seed in range(1, 11):
            metric = random_metric(2.0, 1e-2, seed)
            vals, _ = assemble(metric, 2).spectrum()
            pos, neg = vals[vals > 0], vals[vals < 0][::-1]
            for i in range(14):
                for a, b in ((pos[i], pos[i + 4]), (neg[i + 4], neg[i])):
                    op = assemble(metric, 2)
                    eigenpairs(metric, 2, {"interval": [a, b]}, operator=op)
                    fallbacks += [(seed, a, b, info["error"])
                                  for info in op.lanczos_fallbacks]
        assert fallbacks == [] and len(calls) == 280

    def test_count_below_matches_the_spectrum(self, bumpy):
        # the inertia read from dsytrf's 1 x 1 and 2 x 2 pivots
        op = assemble(bumpy, 2)
        vals, _ = op.spectrum()
        for sigma in np.linspace(-4.0, 4.0, 41) + 0.013:
            assert op.count_below(sigma) == np.count_nonzero(vals < sigma)

    def test_count_below_reads_two_by_two_pivots_in_upper_storage(
            self, bumpy, monkeypatch):
        # a shift between two neighbouring eigenvalues leaves small diagonal
        # entries next to their coupling, where Bunch-Kaufman takes 2 x 2
        # pivots; dsytrf factors the upper triangle, so each block's
        # off-diagonal entry is read at (k, k + 1). The oracle is the dense
        # pencil (B, G), which reads neither the factor nor S. A midpoint
        # in a gap between shells that the weight bounds prove is counted
        # without dsytrf; every other one is factored
        op = assemble(bumpy, 2)
        vals = sla.eigvalsh(pairing_matrix(op), op.gram_matrix)
        vals = vals[np.abs(vals) > 1e-8]  # the closed forms' kernel
        pivots = []
        dsytrf = curlspec.sla.lapack.dsytrf

        def spy(a, *args, **kwargs):
            ldu, ipiv, info = dsytrf(a, *args, **kwargs)
            pivots.append((kwargs["lower"], ipiv.copy()))
            return ldu, ipiv, info

        monkeypatch.setattr(curlspec.sla.lapack, "dsytrf", spy)
        gaps = np.flatnonzero(np.diff(vals) > 1e-8)
        gap_lo, gap_hi, _ = op._gaps
        factored = 0
        for i in gaps:
            sigma = (vals[i] + vals[i + 1]) / 2
            factored += not np.any((gap_lo < abs(sigma)) & (abs(sigma) < gap_hi))
            assert op.count_below(sigma) == i + 1
            assert len(pivots) == factored
        assert 0 < factored < len(gaps) and {lower for lower, _ in pivots} == {0}
        assert sum(np.any(ipiv < 0) for _, ipiv in pivots) >= 10


count_windows = st.integers(1, 24).map(lambda k: {"count": k})
interval_windows = st.tuples(
    st.sampled_from([1.0, -1.0]), st.floats(0.05, 2.4), st.floats(0.05, 2.4),
).map(lambda t: {"interval": sorted([t[0] * t[1], t[0] * t[2]])})


@pytest.mark.two_blas_threads
@settings(max_examples=12, deadline=None)
@given(window=st.one_of(count_windows, interval_windows))
@example(window={"count": 3})
@example(window={"count": 13})
@example(window={"interval": [-1.45, -0.98]})
def test_a_lanczos_answer_factors_no_count(bumpy, window):
    # Lanczos forced at N = 3: an interval's end counts may factor before
    # the solve, but after the first eigsh only eigsh runs, no dsytrf and
    # no dpotrf, and the pairs are the dense path's
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(curlspec, "LANCZOS_MIN_DIM", 0)
        calls = spy_on(mp, curlspec.sla.lapack, "dpotrf", "dsytrf")
        spy_on(mp, curlspec.spla, "eigsh", calls=calls)
        op = assemble(bumpy, 3)
        pairs = eigenpairs(bumpy, 3, window, operator=op)
    names = [name for name, _, _, _ in calls]
    if "eigsh" in names:
        after = calls[names.index("eigsh") + 1:]
        assert [name for name, _, _, _ in after] == ["eigsh"] * len(after)
    assert op.lanczos_fallbacks == []
    dense = on_dense_path(eigenpairs, bumpy, 3, window, operator=op)
    assert len(pairs) == len(dense)
    np.testing.assert_allclose([p.eigenvalue for p in pairs],
                               [p.eigenvalue for p in dense], rtol=0, atol=1e-13)


seeds = st.integers(0, 2**32 - 1)
amplitudes = st.floats(1e-3, 0.15)


@pytest.mark.two_blas_threads
@settings(max_examples=6, deadline=None)
@given(seed=seeds, amplitude=amplitudes, truncation=st.integers(1, 3))
def test_count_below_is_the_inertia_of_the_dense_pencil(seed, amplitude,
                                                        truncation):
    # the half-size count (the definite block eliminated, the Schur
    # complement's pivots read) against the dense pencil (B, G): at every
    # midpoint between neighbouring eigenvalues, at 0 and beyond both ends
    op = assemble(random_metric(2.0, amplitude, seed), truncation)
    vals = sla.eigvalsh(pairing_matrix(op), op.gram_matrix)
    vals = vals[np.abs(vals) > 1e-8]  # the closed forms' kernel
    half = op.basis.n_half * 2
    assert len(vals) == 2 * half
    gaps = np.flatnonzero(np.diff(vals) > 1e-8)
    assert np.count_nonzero(vals < 0) - 1 in gaps
    for i in gaps:
        assert op.count_below((vals[i] + vals[i + 1]) / 2) == i + 1
    top = 1.01 * np.abs(vals).max()
    assert [op.count_below(sigma) for sigma in (0.0, -top, top)] == [
        half, 0, 2 * half]


def oracle_counts(op, shifts):
    """Eigenvalues of the dense pencil (B, G) below each shift."""
    vals = sla.eigvalsh(pairing_matrix(op), op.gram_matrix)
    vals = vals[np.abs(vals) > 1e-8]  # the closed forms' kernel
    return [int(np.count_nonzero(vals < sigma)) for sigma in shifts]


def inside_gap_ends(op):
    """Shifts 1e-9 of its width inside both ends of every proved gap, and
    their negatives."""
    lower, upper, _ = op._gaps
    width = upper - lower
    ends = np.concatenate([lower + 1e-9 * width, upper - 1e-9 * width])
    return np.concatenate([ends, -ends])


@pytest.mark.two_blas_threads
@settings(max_examples=8, deadline=None)
@given(seed=seeds, amplitude=st.floats(1e-3, 0.3), truncation=st.integers(1, 3))
def test_proved_counts_are_the_inertia_of_the_dense_pencil(seed, amplitude,
                                                           truncation):
    # just inside the ends of every gap between shells that the weight
    # bounds prove, the count read from the gap is the dense pencil's; no
    # count is factored, so the reduction is never made
    op = assemble(random_metric(2.0, amplitude, seed), truncation)
    shifts = inside_gap_ends(op)
    assert [op.count_below(sigma) for sigma in shifts] == oracle_counts(op, shifts)
    assert op._factors is None


class TestShellGaps:
    """Counts read from the gaps between the shells' bands [s / b, s / a],
    a and b the weight's bounds on the grid, against the dense pencil."""

    def test_an_anisotropic_metric_proves_no_gap_between_shells(
            self, monkeypatch):
        # g = diag(4, 1, 1) has the weight diag(0.5, 2, 2), so b / a = 4:
        # only the gap below the first shell is proved, and every midpoint
        # between neighbouring eigenvalues is factored
        metric = MetricField(FourierField.constant("metric", [4, 1, 1, 0, 0, 0]))
        op = assemble(metric, 2)
        np.testing.assert_allclose(metric.samples(op.grid).weight_bounds,
                                   (0.5, 2.0), rtol=1e-15)
        assert list(op._gaps[2]) == [0]
        vals = sla.eigvalsh(pairing_matrix(op), op.gram_matrix)
        vals = vals[np.abs(vals) > 1e-8]
        gaps = np.flatnonzero(np.diff(vals) > 1e-8)
        midpoints = (vals[gaps] + vals[gaps + 1]) / 2
        calls = spy_on(monkeypatch, curlspec.sla.lapack, "dsytrf")
        assert [op.count_below(sigma) for sigma in midpoints] == list(gaps + 1)
        assert len(calls) == len(midpoints)

    def test_a_scalar_gram_proves_every_gap(self, conformal2):
        # g = 4 I has the weight 2 I, so G = 2 I and a = b = 2: each shell
        # s is the eigenvalue s / 2 and every gap between shells is proved
        op = assemble(conformal2, 2)
        assert conformal2.samples(op.grid).weight_bounds == (2.0, 2.0)
        shells = np.unique(op.basis.d)
        assert len(op._gaps[0]) == np.count_nonzero(shells > 0)
        shifts = inside_gap_ends(op)
        assert [op.count_below(sigma) for sigma in shifts] == oracle_counts(op, shifts)
        assert op._factors is None

    @pytest.mark.parametrize("metric_name", ["bumpy", "conformal2"])
    def test_a_shift_at_an_eigenvalue_is_never_proved(self, metric_name,
                                                      request, monkeypatch):
        # every eigenvalue lies in its shell's band, outside every gap, and
        # so does a rounding to either side of it, also for the scalar
        # Gram, whose bands shrink to the eigenvalues s / 2 themselves
        metric = request.getfixturevalue(metric_name)
        op = assemble(metric, 2)
        vals = sla.eigvalsh(pairing_matrix(op), op.gram_matrix)
        shifts = {np.nextafter(v, to) for v in vals[np.abs(vals) > 1e-8]
                  for to in (-np.inf, v, np.inf)}
        calls = spy_on(monkeypatch, curlspec.sla.lapack, "dsytrf")
        for sigma in shifts:
            op.count_below(sigma)
        assert len(calls) == len(shifts)


class TestReductionProperties:
    @settings(max_examples=12, deadline=None)
    @given(seed=seeds, amplitude=amplitudes, truncation=st.integers(1, 3))
    def test_reduced_spectrum_is_the_nonzero_spectrum(
            self, seed, amplitude, truncation):
        op = assemble(random_metric(2.0, amplitude, seed), truncation)
        B, G = pairing_matrix(op), op.gram_matrix
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
        B = np.stack([op.pairing_apply(e) for e in np.eye(op.dim)], axis=1)
        G = op.gram_matrix
        assert np.array_equal(B, B.T) and np.array_equal(G, G.T)
        rng = np.random.default_rng(seed)
        a = random_one_form(truncation, rng)
        b = random_one_form(truncation, rng)
        Aa, Ab = op.apply(a), op.apply(b)
        scale = op.norm(Aa) * op.norm(b) + op.norm(a) * op.norm(Ab)
        assert abs(op.inner(Aa, b) - op.inner(a, Ab)) <= 1e3 * np.finfo(float).eps * scale


SYMMETRY_PATHS = {"dense": (2, np.inf), "lanczos": (3, 0)}  # N, LANCZOS_MIN_DIM


def window_values(metric, path, interval):
    """Sorted eigenvalues of a one-signed interval window on the dense path
    at N = 2 or on the Lanczos path at N = 3. The latter takes Lanczos
    only if the window's far side closes at a proved gap within
    LANCZOS_MAX_VALUES values, else the dense route."""
    truncation, min_dim = SYMMETRY_PATHS[path]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(curlspec, "LANCZOS_MIN_DIM", min_dim)
        calls = spy_on(mp, curlspec.spla, "eigsh")
        op = assemble(metric, truncation)
        lo, hi = interval_bracket(op, *interval)
        half = op.basis.d.size // 2
        closures = op._gaps[2]
        lanczos = path == "lanczos" and np.any(
            (closures >= max(hi + 1 - half, half - lo))
            & (closures <= curlspec.LANCZOS_MAX_VALUES))
        assert (op._lanczos_sides(lo, hi) is not None) == lanczos
        pairs = eigenpairs(metric, truncation, {"interval": interval},
                           operator=op)
        assert bool(calls) == lanczos and op.lanczos_fallbacks == []
    return np.sort([p.eigenvalue for p in pairs])


shifts = st.tuples(*[st.floats(0.0, 2 * np.pi)] * 3)
small_amplitudes = st.floats(1e-3, 2e-2)


@pytest.mark.two_blas_threads
@pytest.mark.parametrize("path", sorted(SYMMETRY_PATHS))
class TestSpectralSymmetry:
    """Isometries of the torus map a metric's curl spectrum onto that of
    the pulled-back metric: a translation or a cyclic permutation of the
    axes keeps it, and a reflection, which reverses the orientation,
    negates it. The truncation cube and the quadrature grid are invariant,
    so this holds to round-off; only a translation by a shift off the grid
    moves the aliasing of the sampled weight, which is why the amplitude
    stays small (at 0.15 a shift moved them by up to 2.3e-12)."""

    @settings(max_examples=4, deadline=None)
    @given(seed=seeds, amplitude=small_amplitudes, shift=shifts)
    def test_translation_keeps_the_spectrum(self, path, seed, amplitude, shift):
        g = random_metric(2.0, amplitude, seed)
        base = window_values(g, path, [0.7, 1.5])
        moved = window_values(translated_metric(g, shift), path, [0.7, 1.5])
        assert len(base) > 0
        np.testing.assert_allclose(moved, base, rtol=0, atol=1e-13)

    @settings(max_examples=4, deadline=None)
    @given(seed=seeds, amplitude=amplitudes,
           p=st.sampled_from([(1, 2, 0), (2, 0, 1)]))
    def test_cyclic_permutation_keeps_the_spectrum(self, path, seed, amplitude,
                                                   p):
        g = random_metric(2.0, amplitude, seed)
        base = window_values(g, path, [0.7, 1.5])
        moved = window_values(permuted_metric(g, p), path, [0.7, 1.5])
        assert len(base) > 0
        np.testing.assert_allclose(moved, base, rtol=0, atol=1e-13)

    @settings(max_examples=4, deadline=None)
    @given(seed=seeds, amplitude=amplitudes)
    def test_reflection_negates_the_spectrum(self, path, seed, amplitude):
        g = random_metric(2.0, amplitude, seed)
        base = window_values(g, path, [0.7, 1.5])
        mirrored = window_values(reflected_metric(g), path, [-1.5, -0.7])
        assert len(base) > 0
        np.testing.assert_allclose(-mirrored[::-1], base, rtol=0, atol=1e-13)


@pytest.mark.two_blas_threads
@pytest.mark.parametrize("path", sorted(SYMMETRY_PATHS))
class TestIntervalWindows:
    """An interval window reaches the solver as the index bracket of its
    two Sylvester end counts, on the dense and the Lanczos path alike."""

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_ends_at_computed_eigenvalues(self, path, seed, monkeypatch):
        # ends within round-off of an eigenvalue, where a solve by value
        # can disagree with the counts: solved by value, a third or more
        # of these windows raised on either path
        monkeypatch.setattr(curlspec, "LANCZOS_MIN_DIM", SYMMETRY_PATHS[path][1])
        metric = random_metric(2.0, 1e-2, seed)
        op = assemble(metric, 2)
        vals, _ = on_dense_path(op.spectrum)
        pos = vals[vals > 0]
        for i in range(14):
            a, b = pos[i], pos[i + 4]
            pairs = eigenpairs(metric, 2, {"interval": [a, b]}, operator=op)
            expected = op.count_below(np.nextafter(b, np.inf)) - op.count_below(a)
            assert len(pairs) == expected >= 3
            assert all(a - 1e-12 <= p.eigenvalue <= b + 1e-12 for p in pairs)

    @pytest.mark.parametrize("interval", [[0.9, 1.1], [-1.1, -0.9]])
    def test_pays_only_its_end_counts(self, path, interval, bumpy,
                                      monkeypatch):
        # a Lanczos interval window is checked against the proved count of
        # the gap its far side widens to: no dsytrf beyond the two end
        # counts. Both ends lie in gaps that the weight bounds prove, below
        # the first shell and between it and the next, so neither count
        # factors
        truncation, min_dim = SYMMETRY_PATHS[path]
        monkeypatch.setattr(curlspec, "LANCZOS_MIN_DIM", min_dim)
        calls = spy_on(monkeypatch, curlspec.sla.lapack, "dsytrf", "dsygst")
        spy_on(monkeypatch, curlspec.spla, "eigsh", calls=calls)
        op = assemble(bumpy, truncation)
        pairs = eigenpairs(bumpy, truncation, {"interval": interval},
                           operator=op)
        assert len(pairs) == 6 and op.lanczos_fallbacks == []
        solver = {"dense": "dsygst", "lanczos": "eigsh"}[path]
        assert [name for name, _, _, _ in calls] == [solver]

    @pytest.mark.parametrize("sign", [1, -1])
    def test_an_end_inside_a_shell_band_pays_its_count(self, path, sign,
                                                        bumpy, monkeypatch):
        # a window from the middle of the first shell's band [1/b, 1/a],
        # between its third and fourth eigenvalues, to 1.1: the inner end
        # is factored, the outer one proved, and a Lanczos answer is
        # checked in the proved gap above the shell, with no count
        truncation, min_dim = SYMMETRY_PATHS[path]
        monkeypatch.setattr(curlspec, "LANCZOS_MIN_DIM", min_dim)
        reference = assemble(bumpy, truncation)
        vals, _ = on_dense_path(reference.spectrum)
        pos = np.sort(np.abs(vals[np.sign(vals) == sign]))
        inner = (pos[2] + pos[3]) / 2
        a, b = bumpy.samples(reference.grid).weight_bounds
        assert 1 / b < inner < 1 / a
        calls = spy_on(monkeypatch, curlspec.sla.lapack, "dsytrf", "dsygst")
        spy_on(monkeypatch, curlspec.spla, "eigsh", calls=calls)
        op = assemble(bumpy, truncation)
        interval = sorted([sign * inner, sign * 1.1])
        pairs = eigenpairs(bumpy, truncation, {"interval": interval},
                           operator=op)
        assert len(pairs) == 3 and op.lanczos_fallbacks == []
        solver = {"dense": "dsygst", "lanczos": "eigsh"}[path]
        assert [name for name, _, _, _ in calls] == ["dsytrf", solver]


@pytest.mark.two_blas_threads
class TestOneFactorization:
    """The Cholesky factor of the Schur complement S serves the eigensolve
    and the Gram solves, the residual's among them; the packed Gram is
    never factored."""

    def test_operators_factor_on_two_threads_at_once(self, monkeypatch):
        # the factors are kept per operator, so factoring one operator
        # holds no lock that another one's factoring waits on (Python
        # 3.11's functools.cached_property holds one per attribute)
        ops = [assemble(random_metric(2.0, 1e-2, seed), 1) for seed in (1, 2)]
        entered = [threading.Event() for _ in ops]
        met = []
        blocks = CurlOperator._gram_blocks

        def gram_blocks(op):
            i = 0 if op is ops[0] else 1
            entered[i].set()
            if i == 0:  # the first assembly waits for the second to start
                met.append(entered[1].wait(5.0))
            return blocks(op)

        monkeypatch.setattr(CurlOperator, "_gram_blocks", gram_blocks)
        with ThreadPoolExecutor(max_workers=2) as pool:
            first = pool.submit(lambda: ops[0]._reduction)
            assert entered[0].wait(5.0)
            second = pool.submit(lambda: ops[1]._reduction)
            factors = [first.result(timeout=30), second.result(timeout=30)]
        assert met == [True]
        for op, kept in zip(ops, factors):
            assert op._reduction is kept

    def test_pairs_are_checked_without_factoring_the_gram(
            self, bumpy, monkeypatch, rng):
        def refuse(*args, **kwargs):
            raise AssertionError("the packed Gram must not be factored")

        monkeypatch.setattr(curlspec.sla, "cho_factor", refuse)
        op = assemble(bumpy, 2)
        pairs = eigenpairs(bumpy, 2, {"count": 8}, operator=op)
        assert len(pairs) == 8
        for p in pairs:
            assert p.residual <= 1e-12 and p.coexact_residual <= 1e-12
            np.testing.assert_allclose(op.apply(p.form).coeffs,
                                       p.eigenvalue * p.form.coeffs, atol=1e-12)
        form = random_one_form(2, rng)
        assert op.residual(form, 1.0) > 0.1

    @settings(max_examples=12, deadline=None)
    @given(seed=seeds, amplitude=amplitudes, truncation=st.integers(1, 3))
    def test_gram_solve_matches_a_dense_solve(self, seed, amplitude, truncation):
        op = assemble(random_metric(2.0, amplitude, seed), truncation)
        v = np.random.default_rng(seed).standard_normal((op.dim, 3))
        expect = np.linalg.solve(op.gram_matrix, v)
        for got, want in ((op.gram_solve(v), expect),
                          (op.gram_solve(v[:, 0]), expect[:, 0])):
            assert got.shape == want.shape
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("truncation", [1, 2, 3])
    def test_packed_buffer_holds_the_factor_and_the_complement(
            self, bumpy, truncation):
        # R below the diagonal, S above it and diag(S) beside the buffer,
        # against the Schur complement of the dense reference Gram
        op = assemble(bumpy, truncation)
        G, n = op.gram_matrix, op.basis.n_closed
        want = G[n:, n:] - G[n:, :n] @ np.linalg.solve(G[:n, :n], G[:n, n:])
        R = np.tril(op._reduction[1])
        for got in (schur_complement(op), R @ R.T):
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("subset", [
        [118, 129],  # the count window of 6 at N = 2
        {"interval": [0.7, 1.5]},  # solved as its index bracket
    ])
    def test_spectrum_matches_the_generalized_reference(self, bumpy, subset):
        op = assemble(bumpy, 2)
        bracket = (subset if isinstance(subset, list)
                   else interval_bracket(op, *subset["interval"]))
        ref_vals, x = sla.eigh(np.diag(op.basis.d), schur_complement(op),
                               subset_by_index=bracket)
        ref_vecs = op._lift(x)
        vals, vecs = op.spectrum(*bracket)
        assert len(vals) == len(ref_vals) > 0
        if isinstance(subset, dict):  # the bracket is the interval's values
            assert np.all((ref_vals >= 0.7) & (ref_vals <= 1.5))
            assert len(vals) == 18  # the split +1 and +sqrt(2) clusters
        np.testing.assert_allclose(vals, ref_vals, rtol=0, atol=1e-13)
        signs = np.sign(np.einsum("ip,ip->p", vecs, ref_vecs))
        np.testing.assert_allclose(vecs * signs, ref_vecs, rtol=0, atol=1e-13)


@pytest.mark.two_blas_threads
class TestPairChecks:
    """The pair checks apply G by the grid quadrature, not by the dense
    Gram or its factor, and agree with the dense-G formulas."""

    @pytest.mark.parametrize("truncation", [2, 3])
    def test_checks_match_their_dense_gram_formulas(self, bumpy, rng, truncation):
        op = assemble(bumpy, truncation)
        G, n = op.gram_matrix, op.basis.n_closed
        V = rng.standard_normal((op.dim, 3))
        for v in (V, V[:, 0]):
            want = G @ v
            assert np.linalg.norm(op._gram_mult(v) - want) <= (
                1e-13 * np.linalg.norm(want))
        Lc = sla.cholesky(G[:n, :n], lower=True)
        for v in V.T:
            form = FourierField("one_form", op.basis.unpack(v))
            Gv = G @ v
            r = pairing_matrix(op) @ v - 0.9 * Gv
            want = np.sqrt(r @ np.linalg.solve(G, r) / (v @ Gv))
            assert op.residual(form, 0.9) == pytest.approx(want, rel=1e-13)
            want = np.linalg.norm(sla.solve_triangular(Lc, Gv[:n], lower=True))
            assert op.coexact_residual_packed(v) == pytest.approx(want, rel=1e-13)

    def test_a_wrong_schur_factor_fails_the_residual(self, bumpy):
        # pairs from a perturbed factor solve a perturbed pencil; checks
        # that applied G through that factor would pass them
        op = assemble(bumpy, 2)
        S = schur_complement(op)
        R = sla.cholesky(S + 1e-6 * np.eye(len(S)), lower=True)
        lower = np.tril_indices(len(S))
        op._reduction[1][lower] = R[lower]  # R's place in the packed buffer
        pairs = eigenpairs(bumpy, 2, {"count": 6}, operator=op)
        assert min(p.residual for p in pairs) > 1e-8

    @pytest.mark.parametrize("path", ["dense", "lanczos"])
    def test_a_window_takes_three_quadrature_passes(self, bumpy, path,
                                                    monkeypatch):
        # one batched pass each: the lift's W x, the normalization's G v
        # and the residuals' W^T y; the Sylvester counts and the
        # coexact check take none
        monkeypatch.setattr(curlspec, "LANCZOS_MIN_DIM",
                            {"lanczos": 0, "dense": np.inf}[path])
        calls = []
        quadrature = CurlOperator.gram_apply_coeffs

        def counted(op, coeffs):
            calls.append(coeffs.shape)
            return quadrature(op, coeffs)

        monkeypatch.setattr(CurlOperator, "gram_apply_coeffs", counted)
        op = assemble(bumpy, 2)
        for window in ({"count": 6}, {"interval": [0.9, 1.1]}):
            calls.clear()
            pairs = eigenpairs(bumpy, 2, window, operator=op)
            assert op.lanczos_fallbacks == []
            # the lift takes the bracket's columns (12 for a count of 6)
            assert [shape[0] for shape in calls] == [
                12 if "count" in window else len(pairs), len(pairs), len(pairs)]


class TestGramMatrix:
    def test_indexed_assembly_matches_quadrature_operator(self, bumpy, rng):
        # the dense Gram must agree with the grid quadrature applier
        op = assemble(bumpy, 2)
        G = op.gram_matrix
        for _ in range(3):
            v = rng.standard_normal(op.dim)
            direct = op.basis.pack(
                op.gram_apply_coeffs(op.basis.unpack(v)[None])[0]
            )
            np.testing.assert_allclose(G @ v, direct, atol=1e-10 * op.dim)

    @pytest.mark.parametrize("truncation", [1, 2, 3])
    def test_quadrature_matches_its_fft_form(self, bumpy, rng, truncation):
        # gram_apply_coeffs takes the grid sums as partial DFTs; the
        # reference takes them by FFT on the whole grid
        op = assemble(bumpy, truncation)
        coeffs = op.basis.unpack(rng.standard_normal((2, op.dim)))
        vals = op.grid.synthesize(coeffs)
        weight = bumpy.samples(op.grid).weight
        want = op.grid.analyze(np.einsum("xyzac,bcxyz->baxyz", weight, vals),
                               truncation)
        got = op.gram_apply_coeffs(coeffs)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @settings(max_examples=12, deadline=None)
    @given(seed=seeds, amplitude=amplitudes, truncation=st.integers(1, 3))
    def test_frame_gram_matches_quadrature_operator(
            self, seed, amplitude, truncation):
        # the solver's Gram, in frame coordinates, against the FFT quadrature
        op = assemble(random_metric(2.0, amplitude, seed), truncation)
        basis = op.basis
        f = np.random.default_rng(seed).standard_normal((op.dim, 3))
        coeffs = np.stack([basis.unpack(v) for v in f.T])
        expect = np.stack([basis.pack(c) for c in op.gram_apply_coeffs(coeffs)],
                          axis=1)
        got = op.gram_matrix @ f
        assert np.linalg.norm(got - expect) <= 1e-13 * np.linalg.norm(expect)

    def test_frame_maps_are_inverse_orthogonal_maps(self, rng):
        # unpack then pack is the identity on frame coordinates, and the
        # dot product of packed vectors is the flat L2 inner product
        # TAU^3 sum_m Re(a_m . conj(b_m)) of their coefficient arrays
        basis = ModeBasis(2)
        v = rng.standard_normal((basis.dim, 4))
        coeffs = [basis.unpack(col) for col in v.T]
        np.testing.assert_allclose(np.stack([basis.pack(c) for c in coeffs],
                                            axis=1), v, rtol=0, atol=1e-14)
        flat_l2 = [[TAU**3 * np.vdot(b, a).real for b in coeffs] for a in coeffs]
        np.testing.assert_allclose(v.T @ v, flat_l2, rtol=1e-14)

    def test_reduction_peak_memory_is_bounded_by_the_gram(self):
        # the Gram's three blocks (0.78 of a dense G at N = 4, measured
        # 0.93 with the assembly's chunks and the mirroring's tiles) are
        # factored in place: no dim x dim Gram or copy of a block is alive
        op = assemble(random_metric(2.0, 1e-2, 5), 4)
        tracemalloc.start()
        try:
            op._reduction
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= op.gram_matrix.nbytes

    def test_operator_keeps_l_and_the_schur_buffer(self):
        # after the reduction an operator holds L (0.11 Grams at N = 4)
        # and the buffer of R and S (0.44) with diag(S), measured 0.555;
        # W = L^{-1} C^T G V (0.22) is freed once S is formed
        op = assemble(random_metric(2.0, 1e-2, 5), 4)
        op._reduction
        buffers = {}
        for value in vars(op).values():
            for a in value if isinstance(value, tuple) else (value,):
                if isinstance(a, np.ndarray):
                    while isinstance(a.base, np.ndarray):
                        a = a.base
                    buffers[id(a)] = a.nbytes
        assert sum(buffers.values()) <= 0.57 * op.dim**2 * 8

    @pytest.mark.parametrize("truncation", [3, 4])
    def test_operator_keeps_no_dense_gram_after_a_solve(self, truncation):
        metric = random_metric(2.0, 1e-2, 5)
        op = assemble(metric, truncation)
        eigenpairs(metric, truncation, {"count": 6}, operator=op)
        assert not [name for name, value in vars(op).items()
                    if getattr(value, "shape", None) == (op.dim, op.dim)]

    def test_count_peak_memory_is_two_quarter_blocks(self):
        # a Sylvester count holds two 2K x 2K buffers (the definite block,
        # which then takes the Schur complement, and the solve's copy of
        # S_{+-}): measured 0.231 Grams at N = 4, half of a 4K x 4K one.
        # The shifts lie in the middle of the first shell's band
        # [1/b, 1/a], where no count is proved, so each one factors
        metric = random_metric(2.0, 1e-2, 5)
        op = assemble(metric, 4)
        op._reduction
        a, b = metric.samples(op.grid).weight_bounds
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            spy_on(mp, curlspec.sla.lapack, "dsytrf", calls=calls)
            for sigma in (0.5 / a + 0.5 / b, -0.5 / a - 0.5 / b):
                tracemalloc.start()
                try:
                    op.count_below(sigma)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert peak <= 0.25 * op.dim**2 * 8
        assert len(calls) == 2

    @pytest.mark.parametrize("truncation, path, window, bound", [
        pytest.param(3, "auto", {"count": 6}, 1.35, id="3"),
        pytest.param(4, "auto", {"count": 6}, 1.05, id="4"),
        pytest.param(4, "lanczos", {"count": 6}, 0.95, id="4-lanczos-count",
                     marks=pytest.mark.two_blas_threads),
        pytest.param(4, "dense", {"interval": [0.9, 1.1]}, 1.05,
                     id="4-dense-interval", marks=pytest.mark.two_blas_threads),
        pytest.param(4, "lanczos", {"interval": [0.9, 1.1]}, 0.95,
                     id="4-lanczos-interval", marks=pytest.mark.two_blas_threads),
        pytest.param(5, "auto", {"count": 6}, 0.87, id="5",
                     marks=pytest.mark.two_blas_threads),
    ])
    def test_solve_peak_memory_is_bounded_by_the_gram(self, truncation, path,
                                                      window, bound,
                                                      monkeypatch):
        # a whole solve: the three blocks while they are assembled and
        # reduced (0.78 Grams, measured 0.92 at N = 4 and 0.86 at N = 5
        # with the assembly's chunks), then L and the buffer of R and S
        # (0.56) and the largest working buffers. The dense path's
        # standard-form C is 4K x 4K (0.44): measured 1.01 at N = 4, and
        # freed before the lift, whose quadrature then peaks at 1.20 at
        # N = 3 (1.65 with C alive). On the Lanczos path these windows
        # factor nothing after the reduction, so the assembly sets the peak:
        # 0.92 at N = 4 and 0.86 at N = 5 (the benchmark's solve). A
        # dim x dim array beside the blocks would pass 1.78
        if path != "auto":
            monkeypatch.setattr(curlspec, "LANCZOS_MIN_DIM",
                                {"lanczos": 0, "dense": np.inf}[path])
        metric = random_metric(2.0, 1e-2, 5)
        op = assemble(metric, truncation)
        tracemalloc.start()
        try:
            pairs = eigenpairs(metric, truncation, window, operator=op)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(pairs) >= 6 and op.lanczos_fallbacks == []
        assert peak <= bound * op.dim**2 * 8

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
            assert self_adjointness_residual(op, n_trials=6, seed=i) <= 1e-8
