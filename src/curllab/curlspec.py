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
nonzero eigenvalues automatically carry coexact eigenvectors. Each
eigenpair checks that claim with coexact_residual_packed, the weighted
norm of the G-orthogonal projection of its vector onto the closed forms.

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

G is assembled and held in frame coordinates only (the constants, then
the closed coordinates of every mode, then the helical ones), so
C^T G C, C^T G V and V^T G V are slices of it; the packed Gram is never
formed. Vectors cross over with `ModeBasis.to_frames` and `from_frames`.

Besides the closed block C^T G C = L L^T, the operator factors one
dense matrix: S = R R^T, with R lower triangular (Cholesky). R turns
the reduced pencil into the standard problem C y = lambda y, with
C = R^{-1} d R^{-T} and x = R^{-T} y. With L and W = L^{-1} C^T G V, R
also completes the block factor [[L, 0], [W^T, R]] of G. Every Gram
solve, and so every pair check, runs through it.

By Sylvester's law of inertia the reduced pencil has exactly 2K
negative eigenvalues, as d has, so the k eigenvalues of smallest
magnitude lie among the 2k with indices 2K - k .. 2K + k - 1 in
ascending order. The inertia of d - sigma S (a Bunch-Kaufman LDL^T
factorization) counts the eigenvalues below any sigma (Parlett, *The
Symmetric Eigenvalue Problem*); an interval window [a, b] is counted at
sigma = a and just above b before it is solved.

A window takes one of two solvers. A small window on a large operator
(at most LANCZOS_MAX_VALUES values, reduced dimension LANCZOS_MIN_DIM or
more, so N >= 5) is solved by ARPACK's Lanczos (Lehoucq, Sorensen &
Yang, *ARPACK Users' Guide*, 1998) on C^{-1} = R^T d^{-1} R, whose
extreme eigenvalues 1/lambda belong to the lambda nearest 0, from fixed
start vectors, and every answer is checked by Sylvester counts
(`CurlOperator._lanczos`). Every other window, the full spectrum, and a
Lanczos window that does not converge or that the counts refute, is
solved densely: C by `dsygst`, then one subset `evx` that computes only
the window's eigenvectors. A solve that returns a different number of
pairs than its window holds raises EigensolverError, so no window loses
pairs silently.
"""

from __future__ import annotations

import inspect
import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.fft
import scipy.linalg as sla
import scipy.sparse.linalg as spla

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

# Which windows go to Lanczos, from the measured paths (BENCH_18.json):
# from a reduced dimension 4K of 2660 (N = 5) on, Lanczos with its guard
# won or tied on every measured window, of up to 48 values (24 of each
# sign), flat and bumpy; at N = 3 and 4 the dense path was faster on 10
# of 20. Smaller operators and larger windows stay dense.
LANCZOS_MIN_DIM = 2660
LANCZOS_MAX_VALUES = 48

# ARPACK restarts allowed per Lanczos round. The measured windows need 4
# to 35 (the benchmark's count of 6: 6). A window that ends inside a
# cluster split far below GAP_TOL needs hundreds or never converges; it
# is solved densely once the cap is hit.
LANCZOS_MAXITER = 50

# A count window's Sylvester counts are taken this far (relative to
# max|d|) inside its outermost returned value of each sign: far above the
# rounding of the counts and of the Ritz values (Lanczos and the dense
# path agree to 5e-15 at N = 5), so only members of the window's edge
# cluster closer than this may stand in for one another.
GUARD_TOL = 1e-11

# eigsh draws a random vector when ARPACK restarts from an invariant
# subspace; SciPy versions that take its generator get a fixed one
_EIGSH_TAKES_RNG = "rng" in inspect.signature(spla.eigsh).parameters

_SCALE = TAU ** 1.5
_SQRT2 = np.sqrt(2.0)
_CHUNK_ROWS = 8  # row modes per chunk of the Gram assembly


class ModeBasis:
    """Packing between Hermitian coefficient arrays and real vectors.

    Layout is mode-major: first one real dof per component at m = 0,
    then for every half-lattice mode (first nonzero entry positive, in
    lexicographic order) six dofs [Re c_0..2, Im c_0..2]. The scaling
    makes the flat L2 inner product the Euclidean dot product.

    rotation[j] is the orthogonal 6 x 6 frame [C_m | V_m] of half mode
    j's dofs and d the helical diagonal, (|m|, |m|, -|m|, -|m|) per mode.
    Frame coordinates (`to_frames`) are the constants, the closed ones (two
    per mode) up to n_closed, then the helical ones (four per mode). All
    arrays are read-only: `mode_basis` shares one basis between the
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
        self.n_closed = self.ncomp + 2 * self.n_half

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
        n = self.truncation
        out = np.empty(self.dim)
        out[: self.ncomp] = coeffs[:, n, n, n].real * _SCALE
        half = coeffs[:, self.half_index[0], self.half_index[1],
                      self.half_index[2]].T * (_SQRT2 * _SCALE)  # (K_h, ncomp)
        rest = out[self.ncomp:].reshape(self.n_half, 2, self.ncomp)
        rest[:, 0, :] = half.real
        rest[:, 1, :] = half.imag
        return out

    def unpack(self, vector: np.ndarray) -> np.ndarray:
        v = np.asarray(vector, dtype=float)
        n = self.truncation
        L = 2 * n + 1
        coeffs = np.zeros((self.ncomp, L, L, L), np.complex128)
        coeffs[:, n, n, n] = v[: self.ncomp] / _SCALE
        rest = v[self.ncomp:].reshape(self.n_half, 2, self.ncomp)
        half = ((rest[:, 0, :] + 1j * rest[:, 1, :]) / (_SQRT2 * _SCALE)).T
        coeffs[:, self.half_index[0], self.half_index[1], self.half_index[2]] = half
        coeffs[:, self.neg_index[0], self.neg_index[1], self.neg_index[2]] = (
            half.conj()
        )
        return coeffs

    def to_frames(self, v: np.ndarray) -> np.ndarray:
        """Frame coordinates of a packed vector (or of the columns of v)."""
        K, nc = self.n_half, self.ncomp
        cols = v.reshape(self.dim, -1)
        local = np.matmul(self.rotation.transpose(0, 2, 1),
                          cols[nc:].reshape(K, 6, -1))
        return np.concatenate([cols[:nc], local[:, :2].reshape(2 * K, -1),
                               local[:, 2:].reshape(4 * K, -1)]).reshape(v.shape)

    def from_frames(self, f: np.ndarray) -> np.ndarray:
        """Packed vector (or columns) of frame coordinates f: the inverse,
        and the transpose, of `to_frames`, as every frame is orthogonal."""
        K, nc = self.n_half, self.ncomp
        cols = f.reshape(self.dim, -1)
        local = np.concatenate([cols[nc:self.n_closed].reshape(K, 2, -1),
                                cols[self.n_closed:].reshape(K, 4, -1)], axis=1)
        return np.concatenate([cols[:nc], np.matmul(self.rotation, local)
                               .reshape(6 * K, -1)]).reshape(f.shape)

    def cross_matrices(self) -> np.ndarray:
        """(K_h, 3, 3) matrices C with C a = m x a per half mode."""
        m = self.half_modes.astype(float)
        C = np.zeros((self.n_half, 3, 3))
        C[:, [2, 0, 1], [1, 2, 0]] = m  # C[2, 1] = m_0, C[0, 2] = m_1, ...
        C[:, [1, 2, 0], [2, 0, 1]] = -m
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

    def __init__(self, metric: MetricField, truncation: int):
        if truncation < 1:
            raise ValueError("truncation must be at least 1")
        self.metric = metric
        self.truncation = truncation
        self.grid = CollocationGrid.for_truncation(max(truncation, metric.truncation))
        self.metric.samples(self.grid)  # SPD validation up front
        self.basis = mode_basis(truncation)
        self._below: dict[float, int] = {}  # count_below by shift
        self.lanczos_fallbacks: list[dict] = []  # see `spectrum`

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
    def _gram_scalar(self) -> float | None:
        """s such that G = s * I, or None if the Gram is not scalar.

        For g = c I the weight sqrt(det g) g^{-1} is sqrt(c) I.
        """
        c = self.metric.constant_factor
        return None if c is None else float(np.sqrt(c))

    @cached_property
    def gram_matrix(self) -> np.ndarray:
        """Dense quadrature Gram of the weighted 1-form inner product in
        frame coordinates. The packed block of half modes m, m' maps the
        coefficients u' of m' to w(m - m') u' + w(m + m') conj(u'), w from
        `_weight_maps`. Each chunk of row modes is gathered against the
        modes from the chunk on, rotated by their frames, then by its own
        frames straight into G, and mirrored, so G is exactly symmetric.
        """
        c = self._gram_scalar
        if c is not None:
            return c * np.eye(self.dim)
        basis = self.basis
        K, nc, Q = basis.n_half, basis.ncomp, basis.rotation
        reach = 2 * self.truncation  # the largest |q_i| of q = m -+ m'
        linear, antilinear = _weight_maps(self.metric.samples(self.grid), reach)
        L = 2 * reach + 1
        key = basis.half_modes @ np.array([L * L, L, 1])
        center = reach * (L * L + L + 1)  # the tables' row of q is center + key(q)
        G = np.empty((self.dim, self.dim))
        # frame columns, first coordinate and width: closed, then helical
        groups = ((slice(0, 2), nc, 2), (slice(2, 6), basis.n_closed, 4))
        for j0 in range(0, K, _CHUNK_ROWS):
            j1, n = min(j0 + _CHUNK_ROWS, K), K - j0
            own, later = ([slice(f + w * lo, f + w * hi) for _, f, w in groups]
                          for lo, hi in ((j0, j1), (j1, K)))
            # packed blocks [k, (j, a), b] of row modes j0..j1 against j0..K
            m, m2 = key[None, j0:j1], key[j0:, None]
            blocks = (np.take(linear, center + m - m2, axis=0)
                      + np.take(antilinear, center + m + m2, axis=0))
            for cols, first, width in groups:
                # Y[j, a, k] = block_jk Q_k[:, cols], batched over k
                Y = np.empty((j1 - j0, 6, n, width))
                np.matmul(blocks.reshape(n, -1, 6), Q[j0:, :, cols],
                          out=Y.reshape(-1, n, width).transpose(1, 0, 2))
                for (rcols, _, _), rows in zip(groups, own):  # Q_j[:, rcols]^T Y[j]
                    out = G[rows, first + width * j0:first + width * K]
                    np.matmul(Q[j0:j1, :, rcols].transpose(0, 2, 1),
                              Y.reshape(j1 - j0, 6, -1),
                              out=out.reshape(j1 - j0, -1, n * width))
            # the chunk's pairs among themselves came out both ways: average
            # them, then mirror the chunk's rows into its columns
            a, b = own
            for r, s in ((a, a), (b, b), (a, b)):
                G[r, s] = (G[r, s] + G[s, r].T) * 0.5
            for r, s in [(a, b)] + [(r, s) for r in own for s in later]:
                G[s, r] = G[r, s].T
        # the constants are closed and keep their coordinates; their packed
        # rows against mode m are sqrt(2) (Re w(m), Im w(m))
        modes = _SQRT2 * np.moveaxis(linear[center - key, :3], 1, 0)
        G[:nc] = basis.to_frames(np.hstack([linear[center, :3, :3],
                                            modes.reshape(nc, -1)]).T).T
        G[:, :nc] = G[:nc].T
        return G

    def gram_solve(self, v: np.ndarray) -> np.ndarray:
        """G^{-1} v for a packed vector (or the columns of v): two forward
        and two backward triangular solves with the block factor
        [[L, 0], [W^T, R]] of the Gram in the per-mode frames."""
        c = self._gram_scalar
        if c is not None:
            return v / c
        L, W, _ = self._reduction
        R = self._schur_factor
        n = self.basis.n_closed
        f = self.basis.to_frames(v)
        y = _lower_solve(L, f[:n])
        x = _lower_solve(R, f[n:] - W.T @ y)
        x = _lower_solve(R, x, trans="T")
        y = _lower_solve(L, y - W @ x, trans="T")
        return self.basis.from_frames(np.concatenate([y, x]))

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

    @cached_property
    def _reduction(self):
        """(L, W, S): the closed coordinates eliminated from (B, G), with
        slices of the frame Gram. L is the lower Cholesky factor of
        C^T G C, W = L^{-1} C^T G V and S is the Schur complement
        V^T G V - W^T W, which `_schur_factor` factors once for the
        eigensolve and the Gram solves.
        """
        G, n = self.gram_matrix, self.basis.n_closed
        L = sla.cholesky(G[:n, :n], lower=True)
        W = sla.solve_triangular(L, G[:n, n:], lower=True)
        S = W.T @ W
        np.subtract(G[n:, n:], S, out=S)
        return L, W, S

    @cached_property
    def _schur_factor(self) -> np.ndarray:
        """R, the lower Cholesky factor of S = R R^T, shared by `spectrum`
        and `gram_solve` (so by the pair checks too)."""
        _, _, S = self._reduction
        return sla.cholesky(S, lower=True)

    def _lift(self, x: np.ndarray) -> np.ndarray:
        """Packed v = V x - C (C^T G C)^{-1} C^T G V x for columns x."""
        L, W, _ = self._reduction
        closed = -_lower_solve(L, W @ x, trans="T")
        return self.basis.from_frames(np.concatenate([closed, x]))

    def coexact_residual_packed(self, v: np.ndarray) -> float:
        """Weighted norm of the closed-form component of a packed vector,
        the G-orthogonal projection C (C^T G C)^{-1} C^T G v: |L^{-1} C^T G v|."""
        L, _, _ = self._reduction
        ctg = self.gram_matrix[:self.basis.n_closed] @ self.basis.to_frames(v)
        return float(np.linalg.norm(_lower_solve(L, ctg)))

    def count_below(self, sigma: float) -> int:
        """Nonzero eigenvalues below sigma: the negative inertia of d - sigma S.

        S is positive definite, so by Sylvester's law d - sigma S has as
        many negative eigenvalues as the pencil has eigenvalues below
        sigma. They are read from the 1 x 1 and 2 x 2 pivots of one
        Bunch-Kaufman factorization (`dsytrf`), made in place in a
        Fortran-ordered buffer. Counts are kept per sigma, so the guard of
        a Lanczos window (`_lanczos`) and the count of an interval window
        share them.
        """
        if sigma in self._below:
            return self._below[sigma]
        _, _, S = self._reduction
        n = S.shape[0]
        A = np.empty((n, n), order="F")
        np.multiply(S.T, -sigma, out=A)  # S.T is S, laid out for LAPACK
        A.reshape(-1, order="F")[:: n + 1] += self.basis.d
        lwork = int(sla.lapack.dsytrf_lwork(n, lower=1)[0])
        ldu, ipiv, info = sla.lapack.dsytrf(A, lower=1, lwork=lwork, overwrite_a=1)
        if info < 0:
            raise ValueError(f"dsytrf rejected argument {-info}")
        diag = ldu.diagonal()
        first = np.flatnonzero(ipiv < 0)[::2]  # 2 x 2 pivots: rows k, k + 1
        blocks = np.empty((first.size, 2, 2))
        blocks[:, 0, 0], blocks[:, 1, 1] = diag[first], diag[first + 1]
        blocks[:, 0, 1] = blocks[:, 1, 0] = ldu[first + 1, first]
        count = int(np.count_nonzero(diag[ipiv > 0] < 0)
                    + np.count_nonzero(np.linalg.eigvalsh(blocks) < 0))
        self._below[sigma] = count
        return count

    def spectrum(self, **subset):
        """Nonzero eigenvalues (ascending) and packed eigenvectors of B v = lambda G v.

        With S = R R^T (`_schur_factor`) the reduced pencil (d, S) is the
        standard problem C y = lambda y, C = R^{-1} d R^{-T}, x = R^{-T} y.
        A window (subset_by_index, or subset_by_value on one side of 0) of
        at most LANCZOS_MAX_VALUES values on an operator of reduced
        dimension LANCZOS_MIN_DIM or more (N >= 5) is solved by `_lanczos`
        on C^{-1} = R^T d^{-1} R, whose extremes are the eigenvalues
        nearest 0, and checked by Sylvester counts. Should ARPACK not
        converge within LANCZOS_MAXITER restarts, or the counts refute its
        answer, the window is solved densely instead and the reason is
        appended to `lanczos_fallbacks`. Every other call, and the full
        spectrum that tests use as the reference, takes the dense path: C
        by `dsygst`, then one `evx` solve that computes only the subset's
        eigenvectors, the sequence LAPACK's `dsygvx` runs, with the factor
        shared instead of hidden. The eigenvectors are G-normalized and
        coexact.
        """
        R = self._schur_factor
        wanted = self._lanczos_window(**subset)
        if wanted is not None:
            try:
                vals, y = self._lanczos(*wanted)
            except EigensolverError as err:
                self.lanczos_fallbacks.append({"error": str(err),
                                               **err.diagnostics})
                wanted = None
        if wanted is None:
            C, _ = sla.lapack.dsygst(np.diag(self.basis.d), R, itype=1, lower=1)
            vals, y = sla.eigh(C, lower=True, driver="evx", overwrite_a=True,
                               **subset)
        return vals, self._lift(_lower_solve(R, y, trans="T"))

    def _lanczos_window(self, subset_by_index=None, subset_by_value=None):
        """(n_top, n_bottom, cuts, keep) for a window that Lanczos takes,
        else None. The window's positive eigenvalues are among the n_top
        nearest 0 and its negative ones among the n_bottom nearest 0.
        cuts(vals) gives the shifts at which Sylvester counts must match the
        returned values, keep(vals) the window's part of them.
        """
        half = self.basis.d.size // 2  # negative eigenvalues, by Sylvester
        if 2 * half < LANCZOS_MIN_DIM:
            return None
        if subset_by_index is not None:
            lo, hi = subset_by_index
            n_top, n_bottom = max(hi - half + 1, 0), max(half - lo, 0)
            margin = GUARD_TOL * np.abs(self.basis.d).max()

            def cuts(vals):
                # just inside the outermost value of each sign: a window may
                # end inside a cluster, and then any of its members will do
                return ([vals[-1] - margin] if n_top else []) + (
                    [vals[0] + margin] if n_bottom else [])

            def keep(vals):  # vals[i] has index half - n_bottom + i
                return np.arange(lo, hi + 1) - (half - n_bottom)
        elif subset_by_value is not None:
            lo, hi = subset_by_value
            if lo < 0.0 < hi:
                return None
            above = np.nextafter(hi if hi > 0 else lo, np.inf)
            n_top = self.count_below(above) - half if hi > 0 else 0
            n_bottom = half - self.count_below(above) if hi <= 0 else 0

            def cuts(vals):
                return [above]

            def keep(vals):
                return np.flatnonzero((vals > lo) & (vals <= hi))
        else:
            return None
        nev, _ = _arpack_request(n_top, n_bottom)
        if not 0 < nev <= LANCZOS_MAX_VALUES:
            return None
        return n_top, n_bottom, cuts, keep

    def _lanczos(self, n_top, n_bottom, cuts, keep):
        """Eigenvalues (ascending) and standard-form eigenvectors y of the
        window that `_lanczos_window` described, by ARPACK (`eigsh`) on
        C^{-1} = R^T d^{-1} R: two `dtrmv` with R per application, with no
        copy of R. Its n_top largest eigenvalues 1/lambda are the positive
        lambda nearest 0 and its n_bottom smallest the negative ones.

        The guard: at each shift sigma of cuts(vals), the Sylvester count
        (`count_below`) of eigenvalues between 0 and sigma must equal the
        number returned there. Lanczos from one start vector sees one
        direction of an eigenspace, so a multiple eigenvalue (flat and
        constant metrics) shows as a failed count. The solve then repeats
        on the complement of every vector found so far, from the next
        start vector, until the counts hold. A round that brings no value
        into the window raises EigensolverError with diagnostics
        {sigma, expected, returned}, and one that does not converge within
        LANCZOS_MAXITER restarts raises it with {nev, which, round}.
        Start vectors are fixed (round r starts from default_rng(r)), so a
        solve is deterministic.
        """
        R, d = self._schur_factor, self.basis.d
        n = d.size
        trmv = sla.blas.dtrmv
        nev, which = _arpack_request(n_top, n_bottom)
        mus, Y = np.empty(0), np.empty((n, 0))
        for start in itertools.count():
            def apply(y, Y=Y):  # on the complement of the columns of Y
                y = y.reshape(n) - Y @ (Y.T @ y.reshape(n))
                z = trmv(R, y, lower=1)
                z /= d
                z = trmv(R, z, lower=1, trans=1, overwrite_x=1)
                return z - Y @ (Y.T @ z)

            rng = np.random.default_rng(start)
            v0 = rng.standard_normal(n)
            v0 -= Y @ (Y.T @ v0)
            try:
                mu, y = spla.eigsh(spla.LinearOperator((n, n), matvec=apply,
                                                       dtype=float),
                                   k=nev, which=which, v0=v0, tol=0,
                                   maxiter=LANCZOS_MAXITER,
                                   **({"rng": rng} if _EIGSH_TAKES_RNG else {}))
            except spla.ArpackNoConvergence as err:
                raise EigensolverError(
                    f"Lanczos did not converge: {err}",
                    diagnostics={"nev": nev, "which": which, "round": start},
                ) from err
            mus, Y = np.concatenate([mus, mu]), np.hstack([Y, y])
            order = np.argsort(mus, kind="stable")
            best = np.concatenate([order[:n_bottom], order[len(order) - n_top:]])
            if start and np.all(best < len(mus) - len(mu)):
                break  # this round brought nothing new into the window
            chosen = best[np.argsort(1.0 / mus[best], kind="stable")]
            vals = 1.0 / mus[chosen]
            misses = [(sigma, *self._inside(vals, sigma)) for sigma in cuts(vals)]
            misses = [m for m in misses if m[1] != m[2]]
            if not misses:
                window = keep(vals)
                return vals[window], Y[:, chosen[window]]
        sigma, expected, returned = misses[0]
        raise EigensolverError(
            f"Lanczos returned {returned} eigenvalues between 0 and {sigma:.17g}, "
            f"Sylvester's law counts {expected}",
            diagnostics={"sigma": float(sigma), "expected": expected,
                         "returned": returned},
        )

    def _inside(self, vals, sigma):
        """(Sylvester count, returned count) of eigenvalues between 0 and sigma."""
        half = self.basis.d.size // 2
        if sigma > 0:
            return (self.count_below(sigma) - half,
                    int(np.count_nonzero((vals > 0) & (vals < sigma))))
        return (half - self.count_below(sigma),
                int(np.count_nonzero((vals < 0) & (vals >= sigma))))

    def residual(self, form: FourierField, eigenvalue: float) -> float:
        """|| *d alpha - lambda alpha || / || alpha || in the weighted norm."""
        v = self.basis.pack(self._coerce(form).coeffs)
        Gv = self._gram_mult(v)
        nv = np.sqrt(float(v @ Gv))
        if nv == 0.0:
            raise ValueError("residual of the zero form is undefined")
        r = self.pairing_apply(v) - eigenvalue * Gv
        # r lives in the dual: measure with the inverse Gram
        return float(np.sqrt(max(r @ self.gram_solve(r), 0.0)) / nv)

    def _gram_mult(self, v: np.ndarray) -> np.ndarray:
        c = self._gram_scalar
        if c is not None:
            return c * v
        return self.basis.from_frames(self.gram_matrix @ self.basis.to_frames(v))


def _weight_maps(samples, reach: int):
    """Real 6 x 6 forms, on (Re, Im) coefficient pairs, of u -> w(q) u and
    u -> w(q) conj(u) for |q_i| <= reach, q in row (q + reach) . (L^2, L, 1)
    with L = 2 reach + 1. w(q) is the Fourier coefficient of the sampled
    weight sqrt(det g) g^{-1}, gathered with the mod-M folding of the grid
    quadrature and symmetrized, as the weight is symmetric.
    """
    M = samples.grid.resolution
    fold = np.arange(-reach, reach + 1) % M
    w = scipy.fft.fftn(samples.weight, axes=(0, 1, 2))[np.ix_(fold, fold, fold)]
    w = w.reshape(-1, 3, 3) / M**3
    w = (w + w.transpose(0, 2, 1)) * 0.5
    re, im = w.real, w.imag
    return np.block([[re, -im], [im, re]]), np.block([[re, im], [im, -re]])


def _arpack_request(n_top, n_bottom):
    """(k, which) for eigsh: "BE" splits k evenly between the two ends."""
    if n_top and n_bottom:
        return 2 * max(n_top, n_bottom), "BE"
    return n_top + n_bottom, "LA" if n_top else "SA"


def _lower_solve(factor: np.ndarray, b: np.ndarray, trans: str = "N") -> np.ndarray:
    """factor^{-1} b, or factor^{-T} b, for a cached lower triangular factor;
    the factor was checked finite when it was made."""
    return sla.solve_triangular(factor, b, lower=True, trans=trans,
                                check_finite=False)


def assemble(metric: MetricField, truncation: int) -> CurlOperator:
    """Curl operator for the metric at the given truncation."""
    return CurlOperator(metric, truncation)


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
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
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

    One solve of the reduced pencil (`CurlOperator.spectrum`) computes
    the window's eigenvectors only: a count window k solves for the k
    eigenvalues nearest 0 of each sign, an interval window for the values
    inside it. The window's size is known before the solve (the index
    bracket, or the Sylvester inertia count at both ends of the
    interval), and a solve that returns another number of pairs raises
    EigensolverError with diagnostics {window, expected, returned}. A
    count window also fails when the truncation has fewer than `count`
    nonzero eigenvalues. A given operator must be the one for this
    metric and truncation; another raises ValueError.

    From N = 5 on, a count window of up to 24, or an interval with at
    most 48 values between 0 and its far end, is solved by Lanczos from
    fixed start vectors, so the result is deterministic, and every other
    window by the dense subset `evx`. A Lanczos answer is
    checked by Sylvester counts between 0 and a shift GUARD_TOL * max|d|
    inside its outermost value of each sign (a count window) or just
    beyond the interval's far end. A window that the counts refute, or
    on which ARPACK does not converge, is solved by the dense path, and
    the reason is recorded in the operator's `lanczos_fallbacks`. So both
    paths return the same window, except that members of its edge
    cluster closer than GUARD_TOL * max|d| may stand in for one another.
    """
    spec = parse_window(window)
    op = operator or assemble(metric, truncation)
    if op.metric is not metric or op.truncation != truncation:
        raise ValueError("operator was built for another metric or truncation")
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
        v = v / np.sqrt(v @ op._gram_mult(v))
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

    # multiplicity clusters: a new cluster at each gap of at least tol
    lams = np.array([pair.eigenvalue for pair in pairs])
    ids = np.cumsum(np.abs(np.diff(lams, prepend=np.inf)) >= tol) - 1
    for pair, cluster_id, size in zip(pairs, ids, np.bincount(ids)[ids]):
        pair.cluster_id, pair.cluster_size = int(cluster_id), int(size)
    return pairs
