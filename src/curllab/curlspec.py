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

The pencil B v = lambda G v is solved on the complement of its kernel.
Every half mode m gets a fixed orthonormal frame of its six packed dofs:
the closed frame C_m = {(m^, 0), (0, m^)} in (Re, Im) coordinates and
the helical frame (Waleffe 1992, Phys. Fluids A 4:350)

    V_m = {(e1, e2), (e2, -e1), (e1, -e2), (e2, e1)} / sqrt(2),

with (m^, e1, e2) right-handed. B vanishes on C_m and on the three
constants, which span the closed forms, and V_m^T B V_m = diag(|m|, |m|,
-|m|, -|m|). With d the diagonal of all K half modes, eliminating the
closed coordinates leaves the 4K-dimensional pencil d x = lambda S x,
where

    S = V^T G V - (C^T G V)^T (C^T G C)^{-1} (C^T G V)

is a Schur complement. Its spectrum is exactly the nonzero spectrum of
the full pencil, and an eigenvector lifts back as
v = V x - C (C^T G C)^{-1} C^T G V x, which is G-orthogonal to every
closed form, so coexact. The frames and d depend only on the truncation
and are built once per truncation (`mode_basis`).

Each window takes one generalized `eigh` of (d, S) that computes only
the window's eigenvectors. By Sylvester's law of inertia the reduced
pencil has exactly 2K negative eigenvalues, as d has, so the k
eigenvalues of smallest magnitude lie among the 2k with indices
2K - k .. 2K + k - 1 in ascending order. An interval window [a, b] is
counted beforehand by the inertia of d - sigma S (an LDL^T
factorization) at sigma = a and just above b (Parlett, *The Symmetric
Eigenvalue Problem*). A solve that returns a different number of pairs
than its window holds raises EigensolverError, so no window loses pairs
silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.linalg as sla

from .errors import EigensolverError, UnsupportedRankError
from .fields import (
    TAU,
    CollocationGrid,
    FourierField,
    MetricField,
    mode_range,
)

# clustering threshold relative to max|d| = N sqrt(3), the norm of the
# helical diagonal. A subset solve never sees the spectral radius; max|d|
# is known before it, equals the radius for the flat metric and lies
# within 1.2% of it at metric amplitude 1e-2 (25% at 0.15).
GAP_TOL = 1e-6

_SCALE = TAU ** 1.5
_SQRT2 = np.sqrt(2.0)


class ModeBasis:
    """Packing between Hermitian coefficient arrays and real vectors.

    Layout is mode-major: first one real dof per component at m = 0,
    then for every half-lattice mode (first nonzero entry positive, in
    lexicographic order) six dofs [Re c_0..2, Im c_0..2]. The scaling
    makes the flat L2 inner product the Euclidean dot product.

    rotation[j] is the orthogonal 6 x 6 frame [C_m | V_m] of half mode
    j's dofs and d the helical diagonal, (|m|, |m|, -|m|, -|m|) per mode.
    All arrays are read-only: `mode_basis` shares one basis between the
    operators of every metric at a truncation, across threads too.
    """

    def __init__(self, truncation: int):
        self.truncation = truncation
        self.ncomp = 3
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
        self.dim = self.ncomp * (1 + 2 * self.n_half)

        m = self.half_modes.astype(float)
        length = np.linalg.norm(m, axis=1)
        mhat = m / length[:, None]
        # e1 is orthogonal to m and to the coordinate axis least aligned with it
        axis = np.eye(3)[np.argmin(np.abs(mhat), axis=1)]
        e1 = np.cross(axis, mhat)
        e1 /= np.linalg.norm(e1, axis=1)[:, None]
        e2 = np.cross(mhat, e1)
        h1, h2, zero = e1 / _SQRT2, e2 / _SQRT2, np.zeros_like(mhat)
        columns = [(mhat, zero), (zero, mhat),
                   (h1, h2), (h2, -h1), (h1, -h2), (h2, h1)]
        self.rotation = np.stack([np.concatenate(c, axis=1) for c in columns],
                                 axis=2)  # (K_h, 6, 6)
        self.d = np.outer(length, [1.0, 1.0, -1.0, -1.0]).ravel()
        for a in (*self.half_index, self.half_modes, *self.neg_index,
                  self.rotation, self.d):
            a.flags.writeable = False

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


@lru_cache(maxsize=8)
def mode_basis(truncation: int) -> ModeBasis:
    """The mode basis with its frames, built once per truncation."""
    return ModeBasis(truncation)


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
        self.basis = mode_basis(truncation)

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
        """Dense B; the solver never builds it, the frames diagonalize it."""
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
    def _reduction(self):
        """(L, W, S): the closed coordinates eliminated from (B, G).

        L is the lower Cholesky factor of C^T G C (constants first, then
        two closed coordinates per mode), W = L^{-1} C^T G V and S is the
        Schur complement V^T G V - W^T W. The rotated Gram blocks
        Q_j^T G_jk Q_k, with Q_j = [C_m | V_m], come from the
        (K, 6, K, 6) view of gram_matrix by two batched products; the
        constants are closed and keep their coordinates.
        """
        G = self.gram_matrix
        Q = self.basis.rotation
        K = Q.shape[0]
        nc = self.basis.ncomp
        left = np.matmul(Q.transpose(0, 2, 1), G[nc:, nc:].reshape(K, 6, 6 * K))
        rotated = np.empty((6 * K, K, 6))
        np.matmul(left.reshape(6 * K, K, 6).transpose(1, 0, 2), Q,
                  out=rotated.transpose(1, 0, 2))
        del left
        rotated = rotated.reshape(K, 6, K, 6)
        const = np.einsum("ikb,kbq->ikq", G[:nc, nc:].reshape(nc, K, 6), Q)
        closed = np.empty((nc + 2 * K, nc + 2 * K))
        closed[:nc, :nc] = G[:nc, :nc]
        closed[:nc, nc:] = const[:, :, :2].reshape(nc, 2 * K)
        closed[nc:, :nc] = closed[:nc, nc:].T
        closed[nc:, nc:] = rotated[:, :2, :, :2].reshape(2 * K, 2 * K)
        cross = np.concatenate([const[:, :, 2:].reshape(nc, 4 * K),
                                rotated[:, :2, :, 2:].reshape(2 * K, 4 * K)])
        L = sla.cholesky(closed, lower=True)
        W = sla.solve_triangular(L, cross, lower=True)
        S = rotated[:, 2:, :, 2:].reshape(4 * K, 4 * K)
        S -= W.T @ W
        return L, W, S

    def _lift(self, x: np.ndarray) -> np.ndarray:
        """Packed v = V x - C (C^T G C)^{-1} C^T G V x for columns x."""
        L, W, _ = self._reduction
        y = -sla.solve_triangular(L, W @ x, lower=True, trans="T")
        Q = self.basis.rotation
        K, nc, p = Q.shape[0], self.basis.ncomp, x.shape[1]
        local = np.concatenate([y[nc:].reshape(K, 2, p), x.reshape(K, 4, p)], axis=1)
        return np.concatenate([y[:nc], np.matmul(Q, local).reshape(6 * K, p)])

    def _closed_part(self, v: np.ndarray):
        """(w, C^T G v), where C w is the G-orthogonal projection of v
        onto the closed forms."""
        L, _, _ = self._reduction
        Gv = self._gram_mult(v)
        nc = self.basis.ncomp
        modes = np.einsum("kbp,kb->kp", self.basis.rotation[:, :, :2],
                          Gv[nc:].reshape(-1, 6))
        ctg = np.concatenate([Gv[:nc], modes.ravel()])
        return sla.cho_solve((L, True), ctg), ctg

    def coexact_project(self, form: FourierField) -> FourierField:
        """Remove the exact and harmonic parts in the weighted inner product.

        The output is orthogonal to every closed truncation-N form, which
        is the discrete divergence-free constraint; the map is idempotent.
        """
        v = self.basis.pack(self._coerce(form).coeffs)
        w, _ = self._closed_part(v)
        nc = self.basis.ncomp
        Cw = np.matmul(self.basis.rotation[:, :, :2], w[nc:].reshape(-1, 2, 1))
        v[:nc] -= w[:nc]
        v[nc:] -= Cw.ravel()
        return FourierField("one_form", self.basis.unpack(v))

    def coexact_residual_packed(self, v: np.ndarray) -> float:
        """Weighted norm of the closed-form component of a packed vector."""
        w, ctg = self._closed_part(v)
        return float(np.sqrt(max(w @ ctg, 0.0)))

    def count_below(self, sigma: float) -> int:
        """Nonzero eigenvalues below sigma: the negative inertia of d - sigma S.

        S is positive definite, so by Sylvester's law the LDL^T pivots of
        d - sigma S have as many negative eigenvalues as the pencil has
        eigenvalues below sigma.
        """
        _, _, S = self._reduction
        _, D, _ = sla.ldl(np.diag(self.basis.d) - sigma * S)
        pivots = sla.eigvalsh_tridiagonal(np.diag(D), np.diag(D, -1))
        return int(np.count_nonzero(pivots < 0))

    def spectrum(self, **subset):
        """Nonzero eigenvalues (ascending) and packed eigenvectors of B v = lambda G v.

        One `eigh` of the reduced pencil (d, S); subset (subset_by_index or
        subset_by_value) is passed on, so only those eigenvectors are
        computed. The eigenvectors are G-normalized and coexact.
        """
        _, _, S = self._reduction
        vals, x = sla.eigh(np.diag(self.basis.d), S, overwrite_a=True, **subset)
        return vals, self._lift(x)

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


# ---------------------------------------------------------------------------
# Eigenpair extraction
# ---------------------------------------------------------------------------


def parse_window(window) -> tuple:
    """Validate a window spec: {"count": k} with an integer k >= 1, or
    {"interval": [a, b]} with finite a <= b on one side of 0.

    Returns ("count", k) or ("interval", a, b); raises ValueError on
    anything else. The CLI checks --window with this function too.
    """
    if not isinstance(window, dict):
        raise ValueError(f"unrecognized window spec {window!r}")
    if "count" in window:
        k = window["count"]
        if not isinstance(k, (int, np.integer)):
            raise ValueError(f"count window needs an integer, got {k!r}")
        if k < 1:
            raise ValueError("count window must request at least one pair")
        return ("count", int(k))
    if "interval" in window:
        a, b = (float(x) for x in window["interval"])
        if not (np.isfinite(a) and np.isfinite(b)):
            raise ValueError("interval window bounds must be finite")
        if a > b:
            raise ValueError("empty interval window")
        if a <= 0.0 <= b:
            raise ValueError("window must exclude the kernel at 0")
        return ("interval", a, b)
    raise ValueError("window dict needs 'count' or 'interval'")


def _spectrum_order(vals: np.ndarray, tol: float) -> np.ndarray:
    """Order by |lambda| with sign as a tolerance-aware tie break.

    Eigenvalues whose magnitudes agree within tol form one magnitude
    group; inside a group positive values come first, each sign by
    increasing magnitude. So the first k never need an eigenvalue
    outside the index bracket of the k smallest magnitudes per sign.
    """
    order = np.argsort(np.abs(vals), kind="stable")
    out = []
    i = 0
    while i < len(order):
        j = i
        ref = abs(vals[order[i]])
        while j < len(order) and abs(abs(vals[order[j]]) - ref) < tol:
            j += 1
        group = sorted(order[i:j], key=lambda k: (vals[k] < 0, abs(vals[k])))
        out.extend(group)
        i = j
    return np.asarray(out, dtype=int)


def eigenpairs(
    metric: MetricField,
    truncation: int,
    window,
    *,
    operator: CurlOperator | None = None,
) -> list[EigenPair]:
    """Solve *d alpha = lambda alpha on the coexact subspace.

    window selects either the `count` nonzero eigenvalues closest to 0
    (both signs) or all eigenvalues in a signed closed `interval` that
    excludes 0. Pairs are sorted by |lambda| with positive sign first;
    clusters closer than GAP_TOL * max|d| = GAP_TOL * N sqrt(3) are
    flagged through cluster ids.

    One `eigh` of the reduced pencil computes the window's eigenvectors
    only: a count window k solves for the k eigenvalues nearest 0 of each
    sign, an interval window for the values inside it. The window's size
    is known before the solve (the index bracket, or the Sylvester
    inertia count at both ends of the interval), and a solve that
    returns another number of pairs raises EigensolverError with
    diagnostics {window, expected, returned}. A count window also fails
    when the truncation has fewer than `count` nonzero eigenvalues.
    """
    spec = parse_window(window)
    op = operator or assemble(metric, truncation)
    n_reduced = op.basis.d.size
    half = n_reduced // 2  # negative eigenvalues, by Sylvester's law
    if spec[0] == "count":
        count = spec[1]
        if count > n_reduced:
            raise EigensolverError(
                f"window requested {count} pairs, only {n_reduced} available"
            )
        lo, hi = max(half - count, 0), min(half + count, n_reduced) - 1
        subset = {"subset_by_index": [lo, hi]}
        expected = hi - lo + 1
    else:
        a, b = spec[1], spec[2]
        # LAPACK's value range is half-open (lo, hi]: widen it to hold a
        subset = {"subset_by_value": [np.nextafter(a, -np.inf), b]}
        expected = op.count_below(np.nextafter(b, np.inf)) - op.count_below(a)
    vals, vecs = op.spectrum(**subset)
    if len(vals) != expected:
        raise EigensolverError(
            f"eigensolver returned {len(vals)} pairs, window holds {expected}",
            diagnostics={"window": window, "expected": expected,
                         "returned": len(vals)},
        )

    tol = GAP_TOL * np.abs(op.basis.d).max()
    sel = _spectrum_order(vals, tol)
    if spec[0] == "count":
        sel = sel[:spec[1]]

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
