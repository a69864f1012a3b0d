"""Curl operator on coexact 1-forms and its eigenproblem.

The operator alpha -> *d(alpha) is discretized on truncated Fourier
space in weak form: the bilinear pairing

    B(beta, alpha) = integral of beta ^ d(alpha)

is exact in coefficient arithmetic and symmetric (integration by parts
has no boundary on the torus), while the metric enters only through the
quadrature Gram matrix G of the weighted 1-form inner product. The weak
application G^{-1} B is then self-adjoint with respect to that inner
product by construction, its spectrum is real, and its kernel consists
exactly of the closed forms, so the coexact restriction comes for free:
nonzero eigenvalues automatically carry coexact eigenvectors.

Real coefficient coordinates are used throughout ("packed" vectors):
one real degree of freedom per constant component and a (Re, Im) pair
per half-lattice wavevector, scaled so the flat inner product is the
Euclidean dot product.

The eigenproblem B v = lambda G v is solved in one way: a dense
generalized `eigh` of the full pencil, which returns every eigenpair, so
a window never loses pairs. Its cost grows as dim^3 (dim 3993 at N = 5,
6591 at N = 6). A solver that computes only part of the spectrum can
replace it only if it also counts the eigenvalues in the window (by
Sylvester inertia of B - sigma G at both ends) and fails when short.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from .errors import BranchAmbiguityError, EigensolverError, UnsupportedRankError
from .fields import (
    TAU,
    CollocationGrid,
    FourierField,
    MetricField,
    exterior_d,
    mode_range,
)

# clustering threshold relative to the spectral radius
GAP_TOL = 1e-6
# eigenvalues below this fraction of the spectral radius are kernel modes
KERNEL_TOL = 1e-6

_SCALE = TAU ** 1.5
_SQRT2 = np.sqrt(2.0)


class ModeBasis:
    """Packing between Hermitian coefficient arrays and real vectors.

    Layout is mode-major: first one real dof per component at m = 0,
    then for every half-lattice mode (first nonzero entry positive, in
    lexicographic order) six dofs [Re c_0..2, Im c_0..2]. The scaling
    makes the flat L2 inner product the Euclidean dot product.
    """

    def __init__(self, truncation: int, ncomp: int = 3):
        self.truncation = truncation
        self.ncomp = ncomp
        n = truncation
        m = mode_range(n)
        mx, my, mz = np.meshgrid(m, m, m, indexing="ij")
        first_nonzero_positive = (
            (mx > 0)
            | ((mx == 0) & (my > 0))
            | ((mx == 0) & (my == 0) & (mz > 0))
        )
        idx = np.argwhere(first_nonzero_positive)
        order = np.lexsort((idx[:, 2], idx[:, 1], idx[:, 0]))
        idx = idx[order]
        self.half_index = (idx[:, 0], idx[:, 1], idx[:, 2])
        self.half_modes = idx - n  # (K_h, 3) integer wavevectors
        neg = 2 * n - idx
        self.neg_index = (neg[:, 0], neg[:, 1], neg[:, 2])
        self.n_half = idx.shape[0]
        self.dim = ncomp * (1 + 2 * self.n_half)

    def pack(self, coeffs: np.ndarray) -> np.ndarray:
        return self.pack_batch(coeffs[None])[0]

    def pack_batch(self, coeffs: np.ndarray) -> np.ndarray:
        b = coeffs.shape[0]
        n = self.truncation
        out = np.empty((b, self.dim))
        out[:, : self.ncomp] = coeffs[:, :, n, n, n].real * _SCALE
        half = coeffs[:, :, self.half_index[0], self.half_index[1],
                      self.half_index[2]]  # (b, ncomp, K_h)
        half = np.moveaxis(half, 1, 2) * (_SQRT2 * _SCALE)  # (b, K_h, ncomp)
        rest = out[:, self.ncomp:].reshape(b, self.n_half, 2, self.ncomp)
        rest[:, :, 0, :] = half.real
        rest[:, :, 1, :] = half.imag
        return out

    def unpack(self, vector: np.ndarray) -> np.ndarray:
        return self.unpack_batch(vector[None])[0]

    def unpack_batch(self, vectors: np.ndarray) -> np.ndarray:
        v = np.asarray(vectors, dtype=float)
        b = v.shape[0]
        n = self.truncation
        L = 2 * n + 1
        coeffs = np.zeros((b, self.ncomp, L, L, L), np.complex128)
        coeffs[:, :, n, n, n] = v[:, : self.ncomp] / _SCALE
        rest = v[:, self.ncomp:].reshape(b, self.n_half, 2, self.ncomp)
        half = (rest[:, :, 0, :] + 1j * rest[:, :, 1, :]) / (_SQRT2 * _SCALE)
        half = np.moveaxis(half, 2, 1)  # (b, ncomp, K_h)
        coeffs[:, :, self.half_index[0], self.half_index[1], self.half_index[2]] = half
        coeffs[:, :, self.neg_index[0], self.neg_index[1], self.neg_index[2]] = (
            half.conj()
        )
        return coeffs

    def cross_matrices(self) -> np.ndarray:
        """(K_h, 3, 3) matrices C with C a = m x a per half mode."""
        m = self.half_modes.astype(float)
        K = m.shape[0]
        C = np.zeros((K, 3, 3))
        C[:, 0, 1] = -m[:, 2]
        C[:, 0, 2] = m[:, 1]
        C[:, 1, 0] = m[:, 2]
        C[:, 1, 2] = -m[:, 0]
        C[:, 2, 0] = -m[:, 1]
        C[:, 2, 1] = m[:, 0]
        return C


@dataclass
class EigenPair:
    """One curl eigenvalue with its normalized coexact eigenform."""

    eigenvalue: float
    form: FourierField
    residual: float
    index: int
    cluster_id: int = 0
    cluster_size: int = 1
    coexact_residual: float = 0.0

    def to_json_dict(self, include_form: bool = True) -> dict:
        record = {
            "index": self.index,
            "eigenvalue": self.eigenvalue,
            "residual": self.residual,
            "cluster_id": self.cluster_id,
            "cluster_size": self.cluster_size,
            "coexact_residual": self.coexact_residual,
        }
        if include_form:
            record["form"] = self.form.to_json_dict(tol=1e-14)
        return record


def _fix_sign(coeffs: np.ndarray) -> np.ndarray:
    """Flip the overall sign so the largest coefficient has positive real part."""
    flatabs = np.abs(coeffs).ravel()
    i = int(np.argmax(flatabs))
    lead = coeffs.ravel()[i]
    if lead.real < -1e-12 * flatabs[i] or (
        abs(lead.real) <= 1e-12 * flatabs[i] and lead.imag < 0
    ):
        return -coeffs
    return coeffs


class CurlOperator:
    """Weak-form curl operator *d for one metric and truncation."""

    def __init__(self, metric: MetricField, truncation: int,
                 grid: CollocationGrid | None = None):
        if truncation < 1:
            raise ValueError("truncation must be at least 1")
        self.metric = metric
        self.truncation = truncation
        self.grid = grid or CollocationGrid.for_truncation(
            max(truncation, metric.truncation)
        )
        self.metric.samples(self.grid)  # SPD validation up front
        self.basis = ModeBasis(truncation)

    @property
    def dim(self) -> int:
        return self.basis.dim

    # -- matrix-free building blocks -----------------------------------

    def pairing_apply(self, v: np.ndarray) -> np.ndarray:
        """B v, the exact wedge pairing against d(alpha)."""
        basis = self.basis
        out = np.zeros_like(v)
        rest = v[basis.ncomp:].reshape(basis.n_half, 2, 3)
        C = self._cross
        orest = out[basis.ncomp:].reshape(basis.n_half, 2, 3)
        orest[:, 0, :] = -np.einsum("jab,jb->ja", C, rest[:, 1, :])
        orest[:, 1, :] = np.einsum("jab,jb->ja", C, rest[:, 0, :])
        return out

    @cached_property
    def _cross(self):
        return self.basis.cross_matrices()

    def gram_apply_coeffs(self, coeffs: np.ndarray) -> np.ndarray:
        """Quadrature Gram operator on a batch of coefficient arrays."""
        ms = self.metric.samples(self.grid)
        vals = self.grid.synthesize(coeffs)  # (b, 3, M, M, M)
        weighted = np.einsum("xyzac,bcxyz->baxyz", ms.weight, vals)
        return self.grid.analyze(weighted, self.truncation)

    # -- dense matrices -------------------------------------------------

    @cached_property
    def pairing_matrix(self) -> np.ndarray:
        basis = self.basis
        B = np.zeros((basis.dim, basis.dim))
        C = self._cross
        for j in range(basis.n_half):
            s = basis.ncomp + 6 * j
            B[s:s + 3, s + 3:s + 6] = -C[j]
            B[s + 3:s + 6, s:s + 3] = C[j]
        return B

    @cached_property
    def _gram_scalar(self) -> float | None:
        """s such that G = s * I, or None if the Gram is not scalar.

        For g = c I the weight sqrt(det g) g^{-1} is sqrt(c) I.
        """
        c = self.metric.constant_factor
        return None if c is None else float(np.sqrt(c))

    @cached_property
    def gram_matrix(self) -> np.ndarray:
        """Dense quadrature Gram of the weighted 1-form inner product.

        Assembled from the Fourier transform of the pointwise weight
        sqrt(det g) g^{-1}: the (m, m') entry only needs the weight
        coefficients at m -+ m', gathered with the same mod-M folding the
        grid quadrature performs.
        """
        c = self._gram_scalar
        if c is not None:
            return c * np.eye(self.dim)
        ms = self.metric.samples(self.grid)
        M = self.grid.resolution
        what = np.fft.fftn(np.moveaxis(ms.weight, (-2, -1), (0, 1)),
                           axes=(-3, -2, -1)) / M**3  # (3, 3, M, M, M)
        basis = self.basis
        modes = basis.half_modes  # (K, 3)
        diff = (modes[:, None, :] - modes[None, :, :]) % M  # m - m'
        summ = (modes[:, None, :] + modes[None, :, :]) % M  # m + m'
        Wd = what[:, :, diff[..., 0], diff[..., 1], diff[..., 2]]  # (3,3,K,K)
        Ws = what[:, :, summ[..., 0], summ[..., 1], summ[..., 2]]
        K = modes.shape[0]
        blocks = np.empty((K, K, 6, 6))
        blocks[:, :, 0:3, 0:3] = np.moveaxis(Wd.real + Ws.real, (0, 1), (2, 3))
        blocks[:, :, 0:3, 3:6] = np.moveaxis(-Wd.imag + Ws.imag, (0, 1), (2, 3))
        blocks[:, :, 3:6, 0:3] = np.moveaxis(Wd.imag + Ws.imag, (0, 1), (2, 3))
        blocks[:, :, 3:6, 3:6] = np.moveaxis(Wd.real - Ws.real, (0, 1), (2, 3))
        G = np.empty((basis.dim, basis.dim))
        nc = basis.ncomp
        G[nc:, nc:] = (
            blocks.transpose(0, 2, 1, 3).reshape(6 * K, 6 * K)
        )
        mz = modes % M  # (K, 3) single-mode rows against the constants
        W0 = what[:, :, mz[:, 0], mz[:, 1], mz[:, 2]]  # (3, 3, K)
        row_re = np.sqrt(2.0) * W0.real  # (3, 3, K): comp i, comp j, mode
        row_im = np.sqrt(2.0) * W0.imag
        cross = np.empty((3, K, 6))
        cross[:, :, 0:3] = np.moveaxis(row_re, (0, 1), (0, 2))
        cross[:, :, 3:6] = np.moveaxis(row_im, (0, 1), (0, 2))
        G[:nc, nc:] = cross.reshape(3, 6 * K)
        G[nc:, :nc] = G[:nc, nc:].T
        G[:nc, :nc] = what[:, :, 0, 0, 0].real
        return 0.5 * (G + G.T)

    @cached_property
    def _gram_cho(self):
        return sla.cho_factor(self.gram_matrix)

    def gram_solve(self, v: np.ndarray) -> np.ndarray:
        c = self._gram_scalar
        if c is not None:
            return v / c
        return sla.cho_solve(self._gram_cho, v)

    # -- public operations ----------------------------------------------

    def inner(self, a: FourierField, b: FourierField) -> float:
        """Weighted L2 inner product on this operator's grid."""
        va = self.basis.pack(self._coerce(a).coeffs)
        vb = self.basis.pack(self._coerce(b).coeffs)
        return float(va @ self._gram_mult(vb))

    def norm(self, a: FourierField) -> float:
        return float(np.sqrt(max(self.inner(a, a), 0.0)))

    def _coerce(self, form: FourierField) -> FourierField:
        if form.rank != "one_form":
            raise UnsupportedRankError("curl operator acts on 1-forms")
        if form.truncation > self.truncation:
            return form.truncate_to(self.truncation)
        return form.pad_to(self.truncation)

    def apply(self, form: FourierField) -> FourierField:
        """Weak *d alpha: exact d in coefficients, metric via the Gram."""
        v = self.basis.pack(self._coerce(form).coeffs)
        out = self.gram_solve(self.pairing_apply(v))
        return FourierField("one_form", self.basis.unpack(out))

    def apply_packed(self, v: np.ndarray) -> np.ndarray:
        return self.gram_solve(self.pairing_apply(v))

    @cached_property
    def _closed_basis(self) -> np.ndarray:
        """Packed basis of the closed truncation-N 1-forms (the kernel)."""
        basis = self.basis
        scal = ModeBasis(self.truncation, ncomp=1)
        cols = []
        for c in range(3):
            e = np.zeros(basis.dim)
            e[c] = 1.0
            cols.append(e)  # constant forms dx, dy, dz
        for j in range(scal.dim - 1):
            v = np.zeros(scal.dim)
            v[1 + j] = 1.0
            phi = FourierField("scalar", scal.unpack(v))
            cols.append(basis.pack(exterior_d(phi).pad_to(self.truncation).coeffs))
        return np.column_stack(cols)

    @cached_property
    def _closed_projector(self):
        C = self._closed_basis
        GC = self._gram_mult(C)
        return C, GC, sla.cho_factor(C.T @ GC)

    def coexact_project(self, form: FourierField) -> FourierField:
        """Remove the exact and harmonic parts in the weighted inner product.

        The output is orthogonal to every closed truncation-N form, which
        is the discrete divergence-free constraint; the map is idempotent.
        """
        v = self.basis.pack(self._coerce(form).coeffs)
        C, GC, factor = self._closed_projector
        w = sla.cho_solve(factor, GC.T @ v)
        return FourierField("one_form", self.basis.unpack(v - C @ w))

    def coexact_residual_packed(self, v: np.ndarray) -> float:
        """Weighted norm of the closed-form component of a packed vector."""
        C, GC, factor = self._closed_projector
        w = sla.cho_solve(factor, GC.T @ v)
        return float(np.sqrt(max(self._weighted_sq(C @ w), 0.0)))

    def residual(self, form: FourierField, eigenvalue: float) -> float:
        """|| *d alpha - lambda alpha || / || alpha || in the weighted norm."""
        v = self.basis.pack(self._coerce(form).coeffs)
        nv = np.sqrt(self._weighted_sq(v))
        if nv == 0.0:
            raise ValueError("residual of the zero form is undefined")
        r = self.pairing_apply(v) - eigenvalue * self._gram_mult(v)
        # r lives in the dual: measure with the inverse Gram
        return float(np.sqrt(max(r @ self.gram_solve(r), 0.0)) / nv)

    def _gram_mult(self, v: np.ndarray) -> np.ndarray:
        c = self._gram_scalar
        if c is not None:
            return c * v
        return self.gram_matrix @ v

    def _weighted_sq(self, v: np.ndarray) -> float:
        return float(v @ self._gram_mult(v))

    def self_adjointness_residual(self, n_trials: int = 10, seed=0) -> float:
        """max |<A a, b> - <a, A b>| over random unit-norm packed fields."""
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(n_trials):
            a = rng.standard_normal(self.dim)
            b = rng.standard_normal(self.dim)
            a /= np.sqrt(self._weighted_sq(a))
            b /= np.sqrt(self._weighted_sq(b))
            Aa = self.apply_packed(a)
            Ab = self.apply_packed(b)
            worst = max(worst, abs(Aa @ self._gram_mult(b) - a @ self._gram_mult(Ab)))
        return worst


def assemble(metric: MetricField, truncation: int,
             grid: CollocationGrid | None = None) -> CurlOperator:
    """Curl operator for the metric at the given truncation."""
    return CurlOperator(metric, truncation, grid)


def coexact_project(metric: MetricField, form: FourierField,
                    operator: CurlOperator | None = None) -> FourierField:
    op = operator or assemble(metric, max(form.truncation, 1))
    return op.coexact_project(form)


def residual(metric: MetricField, form: FourierField, eigenvalue: float,
             operator: CurlOperator | None = None) -> float:
    op = operator or assemble(metric, max(form.truncation, 1))
    return op.residual(form, eigenvalue)


# ---------------------------------------------------------------------------
# Eigenpair extraction
# ---------------------------------------------------------------------------


def parse_window(window) -> tuple:
    """Validate a window spec: {"count": k} or {"interval": [a, b]}.

    Returns ("count", k) or ("interval", a, b); raises ValueError on
    anything else. The CLI checks --window with this function too.
    """
    if not isinstance(window, dict):
        raise ValueError(f"unrecognized window spec {window!r}")
    if "count" in window:
        k = int(window["count"])
        if k < 1:
            raise ValueError("count window must request at least one pair")
        return ("count", k)
    if "interval" in window:
        a, b = (float(x) for x in window["interval"])
        if a > b:
            raise ValueError("empty interval window")
        if a <= 0.0 <= b:
            raise ValueError("window must exclude the kernel at 0")
        return ("interval", a, b)
    raise ValueError("window dict needs 'count' or 'interval'")


def _spectrum_order(vals: np.ndarray, tol: float) -> np.ndarray:
    """Order by |lambda| with sign as a tolerance-aware tie break.

    Eigenvalues whose magnitudes agree within tol form one magnitude
    group; inside a group positive values come first.
    """
    order = np.argsort(np.abs(vals), kind="stable")
    out = []
    i = 0
    while i < len(order):
        j = i
        ref = abs(vals[order[i]])
        while j < len(order) and abs(abs(vals[order[j]]) - ref) < tol:
            j += 1
        group = sorted(order[i:j], key=lambda k: (0 if vals[k] > 0 else 1, vals[k]))
        out.extend(group)
        i = j
    return np.asarray(out, dtype=int)


def _dense_spectrum(op: CurlOperator):
    B = op.pairing_matrix
    if op._gram_scalar is not None:
        vals, vecs = sla.eigh(B)
        vals = vals / op._gram_scalar
        vecs = vecs / np.sqrt(op._gram_scalar)
    else:
        vals, vecs = sla.eigh(B, op.gram_matrix)
    return vals, vecs


def eigenpairs(
    metric: MetricField,
    truncation: int,
    window,
    *,
    operator: CurlOperator | None = None,
    gap_tol: float = GAP_TOL,
    kernel_tol: float = KERNEL_TOL,
) -> list[EigenPair]:
    """Solve *d alpha = lambda alpha on the coexact subspace.

    window selects either the `count` nonzero eigenvalues closest to 0
    (both signs) or all eigenvalues in a signed `interval` that excludes
    0. Pairs are sorted by |lambda| with positive sign first; clusters
    closer than gap_tol * max|lambda| are flagged through cluster ids.

    The whole pencil is diagonalized densely at every truncation, so an
    interval window returns every eigenvalue it holds and a count window
    fails only when the truncation has fewer nonzero eigenvalues.
    """
    window = parse_window(window)
    op = operator or assemble(metric, truncation)
    vals, vecs = _dense_spectrum(op)

    scale = np.abs(vals).max()
    keep = np.abs(vals) > max(kernel_tol * scale, 1e-300)
    vals = vals[keep]
    vecs = vecs[:, keep]

    order = _spectrum_order(vals, gap_tol * max(scale, 1.0))
    vals = vals[order]
    vecs = vecs[:, order]

    if window[0] == "count":
        count = window[1]
        if count > len(vals):
            raise EigensolverError(
                f"window requested {count} pairs, only {len(vals)} available"
            )
        sel = np.arange(count)
    else:
        a, b = window[1], window[2]
        sel = np.flatnonzero((vals >= a) & (vals <= b))

    pairs: list[EigenPair] = []
    for rank, i in enumerate(sel):
        v = vecs[:, i]
        v = v / np.sqrt(op._weighted_sq(v))
        coeffs = _fix_sign(op.basis.unpack(v))
        form = FourierField("one_form", coeffs)
        res = op.residual(form, float(vals[i]))
        coex = op.coexact_residual_packed(op.basis.pack(coeffs))
        pairs.append(
            EigenPair(
                eigenvalue=float(vals[i]),
                form=form,
                residual=res,
                index=rank,
                coexact_residual=coex,
            )
        )

    # multiplicity clusters
    tol = gap_tol * max(scale, 1.0)
    cluster_id = -1
    prev = None
    members: dict[int, list[EigenPair]] = {}
    for pair in pairs:
        if prev is None or abs(pair.eigenvalue - prev) >= tol:
            cluster_id += 1
            members[cluster_id] = []
        pair.cluster_id = cluster_id
        members[cluster_id].append(pair)
        prev = pair.eigenvalue
    for group in members.values():
        for pair in group:
            pair.cluster_size = len(group)
    return pairs


def track_eigenvalue(
    metric_path,
    pair0: EigenPair,
    steps: int = 10,
    *,
    truncation: int | None = None,
    max_halvings: int = 20,
    trust: float = 0.3,
):
    """Continue one eigenvalue along a metric homotopy s in [0, 1].

    metric_path(s) must return a MetricField; pair0 must be a simple
    eigenvalue at s = 0. Matching is by nearest eigenvalue and is
    trusted only when the step moved the eigenvalue by less than
    `trust` times the local spectral spacing; otherwise the step is
    halved (and grown back after successful steps). An unresolved
    crossing raises BranchAmbiguityError carrying the partial track.
    Returns a list of (s, eigenvalue, gap) tuples; gap is the distance
    to the nearest other eigenvalue, counting degenerate copies.
    """
    n = truncation or pair0.form.truncation
    lam = pair0.eigenvalue

    def spectrum_at(s):
        op = assemble(metric_path(s), n)
        vals, vecs = _dense_spectrum(op)
        scale = np.abs(vals).max()
        keep = np.abs(vals) > KERNEL_TOL * scale
        order = np.argsort(vals[keep], kind="stable")
        return vals[keep][order], vecs[:, keep][:, order]

    vals0, vecs0 = spectrum_at(0.0)
    i0 = int(np.argmin(np.abs(vals0 - lam)))
    vec = vecs0[:, i0]
    track = [(0.0, lam, _gap_at(vals0, lam))]
    s = 0.0
    ds_base = 1.0 / steps
    ds = ds_base
    slope = 0.0
    halvings = 0
    good_steps = 0
    while s < 1.0 - 1e-12:
        s_next = min(s + ds, 1.0)
        vals, vecs = spectrum_at(s_next)
        pred = lam + slope * (s_next - s)
        d = np.abs(vals - pred)
        order = np.argsort(d, kind="stable")
        i1 = order[0]
        d1 = d[i1]
        spacing = abs(vals[order[1]] - vals[i1]) if len(order) > 1 else np.inf
        scale = max(np.abs(vals).max(), 1.0)
        cand = vecs[:, i1]
        overlap = abs(float(vec @ cand)) / (
            np.linalg.norm(vec) * np.linalg.norm(cand)
        )
        value_ok = d1 <= 1e-12 * scale or d1 <= trust * spacing
        if not (value_ok and overlap >= 0.5):
            halvings += 1
            good_steps = 0
            if halvings > max_halvings:
                raise BranchAmbiguityError(s_next, vals[order[:2]], track)
            ds *= 0.5
            continue
        halvings = 0
        good_steps += 1
        if good_steps >= 3 and ds < ds_base:
            ds = min(2.0 * ds, ds_base)
            good_steps = 0
        slope = (float(vals[i1]) - lam) / (s_next - s)
        lam = float(vals[i1])
        vec = cand
        track.append((s_next, lam, _gap_at(vals, lam)))
        s = s_next
    return track


def _gap_at(vals: np.ndarray, lam: float) -> float:
    """Distance to the nearest other eigenvalue (degenerate copies count)."""
    d = np.sort(np.abs(vals - lam))
    return float(d[1]) if d.size > 1 else np.inf
