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

The pencil B v = lambda G v is solved on the complement of its kernel.
The six real coefficients of every half-lattice wavevector m, the (Re,
Im) pair of each component, get a fixed orthonormal frame: the closed
frame C_m = {(m^, 0), (0, m^)} and the helical frame (Waleffe 1992,
Phys. Fluids A 4:350)

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

Every vector is held in these frame coordinates ("packed" vectors,
`ModeBasis.pack`): the constants, then the closed coordinates of every
mode, then the helical ones grouped by helicity sign, the two +|m|
coordinates of every mode and then the two -|m| ones, scaled so the
flat inner product is the Euclidean dot product. In them B = diag(0, d)
with d = diag(D, -D), D > 0, and G is assembled directly as its three
blocks C^T G C, C^T G V and V^T G V (`_gram_blocks`) in that order, so S
splits into contiguous 2K x 2K quadrants S_{++}, S_{+-} and S_{--}. The
name `coexact_residual_packed` predates the frames; it stays because
perfbench/tracing.py wraps it by name.

Besides the closed block C^T G C = L L^T, the operator factors one
dense matrix: S = R R^T, with R lower triangular (Cholesky). R turns
the reduced pencil into the standard problem C y = lambda y, with
C = R^{-1} d R^{-T} and x = R^{-T} y. With L and W = L^{-1} C^T G V, R
also completes the block factor [[L, 0], [W^T, R]] of G. All of it is
made in place in the three blocks' buffers (`_reduction`): L over
C^T G C, W over C^T G V, and one buffer holds R in its lower triangle
and S in its strict upper one, with diag(S) kept beside it; the
quadrant S_{+-} lies wholly above the diagonal. W's buffer is freed
once S is formed, so an operator keeps L and that buffer (0.56 of a
dense G at N = 4). No dim x dim array is made on any solve; the dense
G (`gram_matrix`) is only the tests' reference.

The products with W come from the grid quadrature (`_gram_mult`): W x
is L^{-1} times the closed rows of G [0; x], and W^T y the helical rows
of G [L^{-T} y; 0] (`_w`, `_wt`). So a Gram solve with the block
factor takes two quadrature passes, an eigenvector's lift one and a
residual's dual norm one. Every other Gram application in a pair check
runs through that quadrature alone, a route independent of both the
assembly and the factor, so a check cannot agree with a wrong factor by
construction.

By Sylvester's law of inertia the reduced pencil has exactly 2K
negative eigenvalues, as d has, so the k eigenvalues of smallest
magnitude lie among the 2k with indices 2K - k .. 2K + k - 1 in
ascending order. The inertia of d - sigma S counts the eigenvalues
below any sigma (Parlett, *The Symmetric Eigenvalue Problem*). One of
its diagonal quadrants is definite at sigma, -(D + sigma S_{--}) for
sigma >= 0 and D - sigma S_{++} for sigma < 0; by Haynsworth's inertia
additivity (Linear Algebra Appl. 1 (1968) 73) the count is that
quadrant's (2K or 0) plus the negative inertia of its Schur complement,
read from a Bunch-Kaufman LDL^T factorization of 2K x 2K
(`count_below`). So every window is an index bracket
lo..hi of the ascending nonzero spectrum before it is solved: a count
window k is 2K - k .. 2K + k - 1, and an interval window [a, b] runs
from the count below a to the count below the float just above b,
minus one.

Many counts need no factorization. With a and b the smallest and
largest eigenvalues of the sampled weight sqrt(det g) g^{-1} over the
grid (`MetricSamples.weight_bounds`), discrete Parseval gives
a I <= G <= b I, so a I <= S <= b I, and by Ostrowski's theorem (Horn &
Johnson, *Matrix Analysis*, Thm 4.5.9) the eigenvalue of the pencil
matched to d_k lies between d_k / b and d_k / a. So the shell |m| = s_i
spreads at most over the band [s_i / b, s_i / a], and where that band
ends below the next shell's, s_i / a < s_{i+1} / b, every shift between
them counts 2K plus the n_i coordinates of +|m| with |m| <= s_i (minus
them for the mirrored negative shift). Below the first shell (s_0 = 0)
that holds for every metric; between two shells it needs b / a below
s_{i+1} / s_i, so no such gap is proved from b / a >= sqrt(2) on. A
count whose shift lies in a proved gap, its ends moved GUARD_TOL *
max|d| inward against round-off, is taken from the bound, and only the
other shifts are factored. A count window whose far ends close a shell
is counted at such a shift first.

A bracket takes one of two solvers. A small bracket on a large operator
(at most LANCZOS_MAX_VALUES values, reduced dimension LANCZOS_MIN_DIM or
more, so N >= 5) is solved by ARPACK's Lanczos (Lehoucq, Sorensen &
Yang, *ARPACK Users' Guide*, 1998) on C^{-1} = R^T d^{-1} R, whose
extreme eigenvalues 1/lambda belong to the lambda nearest 0, from fixed
start vectors, and every answer is checked by Sylvester counts
(`CurlOperator._lanczos`). Every other bracket, the full spectrum, and a
Lanczos bracket that does not converge or that the counts refute, is
solved densely: C by `dsygst`, then one subset `evx` by index that
computes only the bracket's eigenvectors. A solve that returns a
different number of pairs than its bracket holds raises
EigensolverError, so no window loses pairs silently.
"""

from __future__ import annotations

import inspect
import itertools
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
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

# Where no shift is counted yet at a Lanczos bracket's far end (a count
# window), its guard counts this far (relative to max|d|) inside the
# outermost returned value of each sign: far above the rounding of the
# counts and of the Ritz values (Lanczos and the dense path agree to
# 5e-15 at N = 5), so only members of the window's edge cluster closer
# than this may stand in for one another.
GUARD_TOL = 1e-11

# eigsh draws a random vector when ARPACK restarts from an invariant
# subspace; SciPy versions that take its generator get a fixed one
_EIGSH_TAKES_RNG = "rng" in inspect.signature(spla.eigsh).parameters

_SCALE = TAU ** 1.5
_SQRT2 = np.sqrt(2.0)
_CHUNK_ROWS = 8  # row modes per chunk of the Gram assembly
_MIRROR_TILE = 256  # rows per tile when S's triangle is mirrored


class ModeBasis:
    """Packing between Hermitian coefficient arrays and real vectors of
    frame coordinates.

    The half-lattice modes are those whose first nonzero entry is
    positive, in lexicographic order; half mode j has six real dofs
    u_j = [Re c_0..2, Im c_0..2] * sqrt(2) TAU^1.5, and rotation[j] is
    their orthogonal 6 x 6 frame [C_m | V_m]. A packed vector holds the
    three constants * TAU^1.5, then the closed coordinates
    (rotation[j]^T u_j)[:2] of every mode up to n_closed, then the helical
    ones by helicity sign: (rotation[j]^T u_j)[2:4], of eigenvalue |m|,
    for every mode, then (rotation[j]^T u_j)[4:], of eigenvalue -|m|, for
    every mode. The scaling makes the flat L2 inner product the
    Euclidean dot product. d is the helical diagonal, (|m|, |m|) per mode
    and then (-|m|, -|m|) per mode. All arrays are read-only: `mode_basis`
    shares one basis between the operators of every metric at a
    truncation, across threads too.
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
        plus = np.repeat(length, 2)
        self.d = np.concatenate([plus, -plus])
        for a in (*self.half_index, self.half_modes, *self.neg_index,
                  self.rotation, self.d):
            a.flags.writeable = False

    def pack(self, coeffs: np.ndarray) -> np.ndarray:
        """Frame coordinates (..., dim) of a 1-form's coefficient array
        (3, L, L, L), or of each array of a stack (..., 3, L, L, L)."""
        n, K = self.truncation, self.n_half
        lead = coeffs.shape[:-4]
        half = np.swapaxes(coeffs[(..., *self.half_index)], -1, -2) * (
            _SQRT2 * _SCALE)  # (..., K_h, ncomp)
        local = np.matmul(self.rotation.transpose(0, 2, 1),
                          np.concatenate([half.real, half.imag],
                                         axis=-1).reshape(lead + (K, 6, 1)))
        return np.concatenate([coeffs[..., n, n, n].real * _SCALE]
                              + [local[..., i:i + 2, 0].reshape(lead + (-1,))
                                 for i in (0, 2, 4)], axis=-1)

    def unpack(self, vector: np.ndarray) -> np.ndarray:
        """Coefficient array of frame coordinates, or a stack of them for
        vectors (..., dim): the inverse of `pack`."""
        v = np.asarray(vector, dtype=float)
        n, K, nc = self.truncation, self.n_half, self.ncomp
        L, lead = 2 * n + 1, v.shape[:-1]
        coeffs = np.zeros(lead + (nc, L, L, L), np.complex128)
        coeffs[..., n, n, n] = v[..., :nc] / _SCALE
        # (closed, +|m|, -|m|) coordinate pairs of each mode, side by side
        local = np.concatenate([part.reshape(lead + (K, 2))
                                for part in np.split(v[..., nc:], 3, axis=-1)],
                               axis=-1)[..., None]
        rest = np.matmul(self.rotation, local).reshape(lead + (K, 6))
        half = np.swapaxes((rest[..., :nc] + 1j * rest[..., nc:])
                           / (_SQRT2 * _SCALE), -1, -2)
        coeffs[(..., *self.half_index)] = half
        coeffs[(..., *self.neg_index)] = half.conj()
        return coeffs


@lru_cache(maxsize=8)
def mode_basis(truncation: int) -> ModeBasis:
    """The mode basis with its frames, built once per truncation."""
    return ModeBasis(truncation)


@dataclass
class EigenPair:
    """One curl eigenvalue with its normalized coexact eigenform."""

    eigenvalue: float
    form: FourierField  # unit weighted norm, G applied by the grid quadrature
    # ||*d alpha - lambda alpha|| / ||alpha||: the quadrature's B v - lambda G v
    # in the dual norm, measured with the block factor's forward solve
    residual: float
    index: int
    cluster_id: int = 0
    cluster_size: int = 1
    # weighted norm of the form's closed part, from the quadrature's G v
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


def _sign(coeffs: np.ndarray) -> float:
    """The overall sign that gives the largest coefficient positive real part."""
    flatabs = np.abs(coeffs).ravel()
    i = int(np.argmax(flatabs))
    lead = coeffs.ravel()[i]
    if lead.real < -1e-12 * flatabs[i] or (
        abs(lead.real) <= 1e-12 * flatabs[i] and lead.imag < 0
    ):
        return -1.0
    return 1.0


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
        # s such that G = s * I, or None if the Gram is not scalar: for
        # g = c I the weight sqrt(det g) g^{-1} is sqrt(c) I
        c = metric.constant_factor
        self._gram_scalar = None if c is None else float(np.sqrt(c))
        self._gaps = _shell_gaps(self.basis.d, *self.metric.samples(
            self.grid).weight_bounds)  # see `count_below`
        self._factors = None  # `_reduction`, made on first use
        self._below: dict[float, int] = {}  # count_below by shift
        self.lanczos_fallbacks: list[dict] = []  # see `spectrum`

    @property
    def dim(self) -> int:
        return self.basis.dim

    # -- matrix-free building blocks -----------------------------------

    def pairing_apply(self, v: np.ndarray) -> np.ndarray:
        """B v, the exact wedge pairing against d(alpha): B = diag(0, d),
        for a packed vector or the columns of v."""
        n = self.basis.n_closed
        out = np.zeros_like(v)
        out[n:] = (self.basis.d * v[n:].T).T
        return out

    def gram_apply_coeffs(self, coeffs: np.ndarray) -> np.ndarray:
        """Quadrature Gram operator on a stack of coefficient arrays
        (..., 3, L, L, L): each form is sampled on the grid, weighted
        pointwise by sqrt(det g) g^{-1} and integrated against every mode
        by the grid's equal-weight quadrature, the sums that
        `CollocationGrid.synthesize` and `analyze` take by FFT. Only
        L = 2N + 1 of the grid's M modes per axis are in play, so each sum
        runs one axis at a time as a partial DFT, a product with
        E[x, i] = e^{i m_i x}, in real arithmetic where the data is real.
        """
        E = np.exp(1j * np.outer(self.grid.axis_points, mode_range(self.truncation)))
        M, L = E.shape
        # matrix axes first, contiguous: at N = 2 the einsum then runs about
        # 8x faster than on the samples' (x, y, z, a, c) layout
        weight = np.ascontiguousarray(
            np.moveaxis(self.metric.samples(self.grid).weight, (3, 4), (0, 1)))
        lead = coeffs.shape[:-3]
        # values: sums over m_z and m_y, then over m_x, whose sum is real
        v = (E @ (coeffs @ E.T)).reshape(lead + (L, M * M))
        vals = (E.real @ v.real - E.imag @ v.imag).reshape(lead + (M, M, M))
        weighted = np.einsum("acxyz,...cxyz->...axyz", weight, vals)
        F = E.conj().T / M  # (L, M): the quadrature sum along one axis
        w = weighted.reshape(lead + (M, M * M))
        s = (F.real @ w + 1j * (F.imag @ w)).reshape(lead + (L, M, M))
        return (F @ s) @ F.T

    # -- dense matrices -------------------------------------------------

    def _gram_blocks(self):
        """(CC, CV, VV): the blocks C^T G C, C^T G V and V^T G V of the
        quadrature Gram of the weighted 1-form inner product in frame
        coordinates, each a C-ordered buffer, in the packed order (the
        helical coordinates by helicity sign). Of CC and VV only the upper
        triangles are meant; nothing reads below them.

        The (Re, Im) block of half modes m, m' maps the coefficients u' of
        m' to w(m - m') u' + w(m + m') conj(u'), w from `_weight_maps`.
        Each chunk of row modes is gathered against the modes from the
        chunk on and rotated by both frames straight into the blocks, one
        frame group (closed, +|m|, -|m|) of rows against one of columns
        at a time: rows against columns of their own group or a later
        one in place, helical rows against closed columns into CV
        transposed and -|m| rows against +|m| columns into VV
        transposed. So every entry of CV, of VV's S_{+-} quadrant and of
        the upper triangles is written (the chunk's own entries of CV and
        S_{+-} twice, the second product standing), and nothing is
        mirrored.
        """
        basis = self.basis
        K, nc, Q, n = basis.n_half, basis.ncomp, basis.rotation, basis.n_closed
        c = self._gram_scalar
        if c is not None:
            return c * np.eye(n), np.zeros((n, 4 * K)), c * np.eye(4 * K)
        reach = 2 * self.truncation  # the largest |q_i| of q = m -+ m'
        linear, antilinear = _weight_maps(self.metric.samples(self.grid), reach)
        L = 2 * reach + 1
        key = basis.half_modes @ np.array([L * L, L, 1])
        center = reach * (L * L + L + 1)  # the tables' row of q is center + key(q)
        CC, CV, VV = np.empty((n, n)), np.empty((n, 4 * K)), np.empty((4 * K, 4 * K))
        # by (row, column) group: closed, +|m| and -|m|
        target = ((CC, CV, CV), (CV.T, VV, VV), (CV.T, VV.T, VV))
        # each group's two frame columns and its first coordinate in the blocks
        groups = ((slice(0, 2), nc), (slice(2, 4), 0), (slice(4, 6), 2 * K))
        for j0 in range(0, K, _CHUNK_ROWS):
            j1, nk = min(j0 + _CHUNK_ROWS, K), K - j0
            # (Re, Im) blocks [k, (j, a), b] of row modes j0..j1 against j0..K
            m, m2 = key[None, j0:j1], key[j0:, None]
            blocks = (np.take(linear, center + m - m2, axis=0)
                      + np.take(antilinear, center + m + m2, axis=0))
            for col, (cols, first) in enumerate(groups):
                # Y[j, a, k] = block_jk Q_k[:, cols], batched over k
                Y = np.empty((j1 - j0, 6, nk, 2))
                np.matmul(blocks.reshape(nk, -1, 6), Q[j0:, :, cols],
                          out=Y.reshape(-1, nk, 2).transpose(1, 0, 2))
                for row, (rcols, rfirst) in enumerate(groups):
                    # Q_j[:, rcols]^T Y[j]
                    out = target[row][col][rfirst + 2 * j0:rfirst + 2 * j1,
                                           first + 2 * j0:first + 2 * K]
                    np.matmul(Q[j0:j1, :, rcols].transpose(0, 2, 1),
                              Y.reshape(j1 - j0, 6, -1),
                              out=out.reshape(j1 - j0, 2, nk * 2))
        # the constants are closed and keep their coordinates; their rows
        # against mode m are sqrt(2) (Re w(m), Im w(m)) in m's frame
        modes = _SQRT2 * linear[center - key, :3].transpose(0, 2, 1)
        local = np.matmul(Q.transpose(0, 2, 1), modes)  # (K, 6, nc)
        CC[:nc, :nc] = linear[center, :3, :3]
        CC[:nc, nc:] = local[:, :2].reshape(2 * K, nc).T
        CV[:nc, :2 * K] = local[:, 2:4].reshape(2 * K, nc).T
        CV[:nc, 2 * K:] = local[:, 4:].reshape(2 * K, nc).T
        return CC, CV, VV

    @cached_property
    def gram_matrix(self) -> np.ndarray:
        """The dense frame Gram, mirrored from the upper triangles of
        `_gram_blocks`: the reference that tests hold the factors and the
        grid quadrature to. No solve reads it."""
        CC, CV, VV = self._gram_blocks()
        return np.block([[_symmetric(CC), CV], [CV.T, _symmetric(VV)]])

    def gram_solve(self, v: np.ndarray) -> np.ndarray:
        """G^{-1} v for a packed vector (or the columns of v): the forward
        solve with the block factor F = [[L, 0], [W^T, R]] of G
        (`_forward`) and then the backward one with F^T, with the W
        products by the grid quadrature, so two quadrature passes."""
        c = self._gram_scalar
        if c is not None:
            return v / c
        L, R, _ = self._reduction
        y, x = self._forward(v)
        x = _lower_solve(R, x, trans="T")
        y = _lower_solve(L, y - self._w(x), trans="T")
        return np.concatenate([y, x])

    def _forward(self, v: np.ndarray):
        """F^{-1} v as its closed and helical parts (y, x), F = [[L, 0],
        [W^T, R]] the lower block factor of G: y = L^{-1} v_c and
        x = R^{-1} (v_v - W^T y), one quadrature pass. As G = F F^T,
        v^T G^{-1} v = |y|^2 + |x|^2."""
        L, R, _ = self._reduction
        n = self.basis.n_closed
        y = _lower_solve(L, v[:n])
        return y, _lower_solve(R, v[n:] - self._wt(y))

    def _w(self, x: np.ndarray) -> np.ndarray:
        """W x = L^{-1} C^T G V x for helical columns x: L^{-1} times the
        closed rows of G [0; x], G by the grid quadrature."""
        n = self.basis.n_closed
        Gx = self._gram_mult(np.concatenate([np.zeros((n,) + x.shape[1:]), x]))
        return _lower_solve(self._reduction[0], Gx[:n])

    def _wt(self, y: np.ndarray) -> np.ndarray:
        """W^T y = V^T G C L^{-T} y for closed columns y: the helical rows
        of G [L^{-T} y; 0], G by the grid quadrature."""
        n = self.basis.n_closed
        z = _lower_solve(self._reduction[0], y, trans="T")
        pad = np.zeros((self.dim - n,) + y.shape[1:])
        return self._gram_mult(np.concatenate([z, pad]))[n:]

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

    @property
    def _reduction(self):
        """(L, RS, s): the closed coordinates eliminated from (B, G) and
        the Schur complement factored, in place in the buffers of
        `_gram_blocks`, each handed to BLAS and LAPACK as its
        Fortran-ordered transpose, so no dim x dim array is made.

        L is the lower Cholesky factor of C^T G C (`dpotrf` over CC),
        W = L^{-1} C^T G V (`dtrsm` over CV) and S = V^T G V - W^T W
        (`dsyrk` over VV, a lower triangle in Fortran order). W's buffer
        is then freed: its products come from the grid quadrature (`_w`,
        `_wt`). S's triangle is mirrored into the strict upper one by
        tiles, its diagonal s is kept, and `dpotrf` writes R (S = R R^T)
        over it: RS holds R in its lower triangle and S in its strict
        upper one; in the packed order that is the upper triangles of
        S_{++} and S_{--} and all of S_{+-}. R serves the eigensolve and
        the Gram solves, and every routine that reads it reads only the
        lower triangle; S and s serve the Sylvester counts
        (`count_below`).

        Made on first use and kept per operator. Not a
        `functools.cached_property`: on Python 3.11 that holds one lock
        per attribute across all instances, so operators factored on
        several threads would wait for one another.
        """
        if self._factors is None:
            CC, CV, VV = self._gram_blocks()
            L = _cholesky_in_place(CC.T)
            W = sla.blas.dtrsm(1.0, L, CV.T, side=1, lower=1, trans_a=1,
                               overwrite_b=1).T
            S = sla.blas.dsyrk(-1.0, W.T, beta=1.0, c=VV.T, lower=1,
                               overwrite_c=1).T  # in its upper triangle
            del CV, W
            s = S.diagonal().copy()
            n = len(s)
            for i in range(0, n, _MIRROR_TILE):
                j = min(i + _MIRROR_TILE, n)
                S[i:j, i:j] = _symmetric(S[i:j, i:j])
                S[j:, i:j] = S[i:j, j:].T
            self._factors = L, _cholesky_in_place(S.T), s
        return self._factors

    def _lift(self, x: np.ndarray) -> np.ndarray:
        """Packed v = V x - C (C^T G C)^{-1} C^T G V x for columns x:
        the closed part is -L^{-T} W x, one quadrature pass (`_w`)."""
        L = self._reduction[0]
        return np.concatenate([-_lower_solve(L, self._w(x), trans="T"), x])

    def coexact_residual_packed(self, v: np.ndarray, *, Gv=None):
        """Weighted norm of the closed-form component of a packed vector,
        the G-orthogonal projection C (C^T G C)^{-1} C^T G v: |L^{-1} C^T G v|.
        For the columns of v it is an array of their norms, made by one
        triangular solve.

        It measures how far v is from G-orthogonal to the closed forms.
        G v comes from the grid quadrature (`_gram_mult`), or is the
        caller's Gv (columns for columns), from that quadrature, in which
        case v is not read: `eigenpairs` passes the quadrature that
        normalized its window.
        """
        if Gv is None:
            Gv = self._gram_mult(v)
        L = self._reduction[0]
        norms = np.linalg.norm(_lower_solve(L, Gv[:self.basis.n_closed]), axis=0)
        return float(norms) if norms.ndim == 0 else norms

    def count_below(self, sigma: float) -> int:
        """Nonzero eigenvalues below sigma: the negative inertia of d - sigma S.

        Where |sigma| lies in one of the shell gaps that the weight's
        bounds prove (`_shell_gaps`), the count is read from the gap: 2K
        plus the gap's n for sigma > 0, 2K minus it for sigma < 0, with no
        factorization. Every other shift is counted by `_sylvester_count`.
        Counts are kept per sigma, so the guard of a Lanczos window
        (`_lanczos`) and the count of an interval window share them.
        """
        if sigma in self._below:
            return self._below[sigma]
        lower, upper, n = self._gaps
        i = np.searchsorted(lower, abs(sigma)) - 1
        if i >= 0 and abs(sigma) < upper[i]:
            count = self.basis.d.size // 2 + int(np.copysign(n[i], sigma))
        else:
            count = self._sylvester_count(sigma)
        self._below[sigma] = count
        return count

    def _sylvester_count(self, sigma: float) -> int:
        """The negative inertia of d - sigma S, from a factorization.

        S is positive definite, so by Sylvester's law d - sigma S has as
        many negative eigenvalues as the pencil has eigenvalues below
        sigma. In the packed order d = diag(D, -D) and d - sigma S has
        2K x 2K quadrants by helicity sign, of which one diagonal quadrant
        E is definite: E = -(D + sigma S_{--}) for sigma >= 0 and
        E = D + |sigma| S_{++} for sigma < 0; A is the other one. By
        Haynsworth's inertia additivity the count is that of E (2K or 0)
        plus the negative inertia of the Schur complement
        A - sigma^2 S_{ab} E^{-1} S_{ba}. So E is eliminated with one
        `dpotrf` (|E| = U^T U), one `dtrsm` (sigma S_{+-} against U) and
        one `dsyrk`, and the complement's inertia is read from the 1 x 1
        and 2 x 2 pivots of one Bunch-Kaufman factorization (`dsytrf`) of
        its upper triangle. Each quadrant is
        read from the strict upper triangle of `_reduction`'s RS and the
        kept diag(S), so a count holds two 2K x 2K buffers: |E|'s, which
        then takes the complement, and the solve's copy of S_{+-}.
        """
        _, RS, s = self._reduction
        h = s.size // 2
        plus, minus = slice(0, h), slice(h, 2 * h)
        a, b = (plus, minus) if sigma >= 0 else (minus, plus)
        d = self.basis.d
        P = np.empty((h, h), order="F")
        np.multiply(RS[b, b], abs(sigma), out=P)  # S_bb in the strict upper triangle
        _diagonal(P)[:] = np.abs(d[b]) + abs(sigma) * s[b]
        U = _cholesky_in_place(P, lower=0)
        # sigma^2 S_ab |E|^{-1} S_ba is Z Z^T with Z = sigma S_{+-} U^{-1}
        # for sigma >= 0, Z^T Z with Z = sigma U^{-T} S_{+-} for sigma < 0
        Z = sla.blas.dtrsm(sigma, U, RS[plus, minus], side=int(sigma >= 0),
                           lower=0, trans_a=int(sigma < 0))
        A = np.multiply(RS[a, a], -sigma, out=P)
        _diagonal(A)[:] = d[a] - sigma * s[a]
        A = sla.blas.dsyrk(1.0 if sigma >= 0 else -1.0, Z, beta=1.0, c=A,
                           trans=int(sigma < 0), lower=0, overwrite_c=1)
        lwork = int(sla.lapack.dsytrf_lwork(h, lower=0)[0])
        ldu, ipiv, info = sla.lapack.dsytrf(A, lower=0, lwork=lwork, overwrite_a=1)
        if info < 0:
            raise ValueError(f"dsytrf rejected argument {-info}")
        diag = ldu.diagonal()
        # 2 x 2 pivots: rows k, k + 1, their off-diagonal entry at (k, k + 1)
        first = np.flatnonzero(ipiv < 0)[::2]
        blocks = np.empty((first.size, 2, 2))
        blocks[:, 0, 0], blocks[:, 1, 1] = diag[first], diag[first + 1]
        blocks[:, 0, 1] = blocks[:, 1, 0] = ldu[first, first + 1]
        count = int(np.count_nonzero(diag[ipiv > 0] < 0)
                    + np.count_nonzero(np.linalg.eigvalsh(blocks) < 0))
        if sigma >= 0:
            count += h  # E is negative definite
        return count

    def spectrum(self, lo=None, hi=None):
        """Eigenvalues lo..hi (ascending indices of the nonzero spectrum)
        of B v = lambda G v and their packed eigenvectors; the full
        spectrum when lo and hi are omitted.

        With S = R R^T (`_reduction`) the reduced pencil (d, S) is the
        standard problem C y = lambda y, C = R^{-1} d R^{-T}, x = R^{-T} y.
        A bracket that `_lanczos_sides` accepts is solved by `_lanczos` on
        C^{-1} = R^T d^{-1} R, whose extremes are the eigenvalues nearest
        0, and checked by Sylvester counts. Should ARPACK not converge
        within LANCZOS_MAXITER restarts, or the counts refute its answer,
        the bracket is solved densely instead and the reason is appended
        to `lanczos_fallbacks`. Every other bracket, and the full spectrum
        that tests use as the reference, takes the dense path: C by
        `dsygst` over a Fortran-ordered diag(d), then one `evx` solve that
        computes only the bracket's eigenvectors, the sequence LAPACK's
        `dsygvx` runs, with the factor shared instead of hidden. The
        eigenvectors are G-normalized and coexact.
        """
        _, R, _ = self._reduction
        sides = None if lo is None else self._lanczos_sides(lo, hi)
        if sides is not None:
            try:
                vals, y = self._lanczos(lo, hi, *sides)
            except EigensolverError as err:
                self.lanczos_fallbacks.append({"error": str(err),
                                               **err.diagnostics})
                sides = None
        if sides is None:
            n = self.basis.d.size
            C = np.zeros((n, n), order="F")
            _diagonal(C)[:] = self.basis.d
            C, _ = sla.lapack.dsygst(C, R, itype=1, lower=1, overwrite_a=1)
            vals, y = sla.eigh(C, lower=True, driver="evx", overwrite_a=True,
                               check_finite=False,
                               subset_by_index=None if lo is None else [lo, hi])
            del C  # the lift's quadrature runs without the 4K x 4K buffer
        return vals, self._lift(_lower_solve(R, y, trans="T"))

    def _lanczos_sides(self, lo, hi):
        """(n_top, n_bottom) for a bracket that Lanczos takes, else None:
        its positive eigenvalues are among the n_top nearest 0 and its
        negative ones among the n_bottom nearest 0."""
        half = self.basis.d.size // 2  # negative eigenvalues, by Sylvester
        if 2 * half < LANCZOS_MIN_DIM:
            return None
        n_top, n_bottom = max(hi - half + 1, 0), max(half - lo, 0)
        nev, _ = _arpack_request(n_top, n_bottom)
        return (n_top, n_bottom) if 0 < nev <= LANCZOS_MAX_VALUES else None

    def _lanczos(self, lo, hi, n_top, n_bottom):
        """Eigenvalues lo..hi (ascending) and standard-form eigenvectors y,
        by ARPACK (`eigsh`) on C^{-1} = R^T d^{-1} R: two `dtrmv` with R
        per application, with no copy of R. Its n_top largest eigenvalues
        1/lambda are the positive lambda nearest 0 and its n_bottom
        smallest the negative ones.

        The guard checks one shift sigma per side: the Sylvester count
        (`count_below`) of eigenvalues between 0 and sigma must equal the
        number returned there. sigma is a shift already counted whose
        count is the bracket's far end on that side (hi + 1 above 0, lo
        below), as an interval window's end counts are and a count
        window's are where its ends close a shell (`eigenpairs`), often
        proved with no factorization; a returned value
        up to GUARD_TOL * max|d| beyond such an end counts where the
        end's count places it, inside, so a Ritz value a rounding past an
        end that is itself an eigenvalue refutes nothing. Else a count is
        taken GUARD_TOL * max|d| inside the outermost returned value, so
        a bracket may end inside a cluster and any of its members will do.
        Lanczos from one start vector sees one direction of an
        eigenspace, so a multiple eigenvalue (flat and constant metrics)
        shows as a failed count. The solve then repeats on the complement
        of every vector found so far, from the next start vector, until
        the counts hold. A round that brings no value into the bracket
        raises EigensolverError with diagnostics {sigma, expected,
        returned}, and one that does not converge within LANCZOS_MAXITER
        restarts raises it with {nev, which, round}. Start vectors are
        fixed (round r starts from default_rng(r)), so a solve is
        deterministic.
        """
        R, d = self._reduction[1], self.basis.d
        n = d.size
        trmv = sla.blas.dtrmv
        nev, which = _arpack_request(n_top, n_bottom)
        margin = GUARD_TOL * np.abs(d).max()
        first = n // 2 - n_bottom  # the index of the bottom returned value
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
                break  # this round brought nothing new into the bracket
            chosen = best[np.argsort(1.0 / mus[best], kind="stable")]
            vals = 1.0 / mus[chosen]
            counted = {count: sigma for sigma, count in self._below.items()}
            # (shift, slack): a counted end, or a shift inside the outermost value
            shifts = ([(counted[hi + 1], margin) if hi + 1 in counted
                       else (vals[-1] - margin, 0.0)] if n_top else []) + (
                [(counted[lo], margin) if lo in counted
                 else (vals[0] + margin, 0.0)] if n_bottom else [])
            misses = [(sigma, *self._inside(vals, sigma, slack))
                      for sigma, slack in shifts]
            misses = [m for m in misses if m[1] != m[2]]
            if not misses:
                window = slice(lo - first, hi + 1 - first)
                return vals[window], Y[:, chosen[window]]
        sigma, expected, returned = misses[0]
        raise EigensolverError(
            f"Lanczos returned {returned} eigenvalues between 0 and {sigma:.17g}, "
            f"Sylvester's law counts {expected}",
            diagnostics={"sigma": float(sigma), "expected": expected,
                         "returned": returned},
        )

    def _inside(self, vals, sigma, slack):
        """(Sylvester count, returned count) of eigenvalues between 0 and
        sigma; a returned value up to slack beyond sigma counts as inside."""
        half = self.basis.d.size // 2
        if sigma > 0:
            return (self.count_below(sigma) - half,
                    int(np.count_nonzero((vals > 0) & (vals < sigma + slack))))
        return (half - self.count_below(sigma),
                int(np.count_nonzero((vals < 0) & (vals >= sigma - slack))))

    def residual(self, form: FourierField, eigenvalue: float) -> float:
        """|| *d alpha - lambda alpha || / || alpha || in the weighted norm.

        With v the packed form, r = B v - lambda G v is the weak residual;
        it lives in the dual, so its norm is sqrt(r^T G^{-1} r). G v and
        the norm of v come from the grid quadrature (`_gram_mult`);
        r^T G^{-1} r is |F^{-1} r|^2 with the block factor's forward
        solve (`_forward`).
        """
        v = self.basis.pack(self._coerce(form).coeffs)
        Gv = self._gram_mult(v)
        if v @ Gv == 0.0:
            raise ValueError("residual of the zero form is undefined")
        return float(self._residuals(v, Gv, eigenvalue))

    def _residuals(self, V: np.ndarray, GV: np.ndarray, vals) -> np.ndarray:
        """`residual` of a packed vector v with its G v, or of each column
        of V with its eigenvalue in vals. The dual norm r^T G^{-1} r is
        |L^{-1} r_c|^2 + |R^{-1} (r_v - W^T y)|^2 with y = L^{-1} r_c, the
        block factor's forward solve (`_forward`): one quadrature pass
        for W^T y and no backward solve."""
        r = self.pairing_apply(V) - vals * GV
        dual = sum(np.einsum("i...,i...->...", part, part)
                   for part in self._forward(r))
        return (np.sqrt(dual)
                / np.sqrt(np.einsum("i...,i...->...", V, GV)))

    def _gram_mult(self, v: np.ndarray) -> np.ndarray:
        """G v for a packed vector, or for the columns of v, by the grid
        quadrature: one batched `gram_apply_coeffs` call through
        `basis.unpack` and `basis.pack`. It reads neither the dense G nor
        its factor, so the pair checks hold the factor to an independent
        G. A scalar Gram (constant metric) is applied exactly.
        """
        c = self._gram_scalar
        if c is not None:
            return c * v
        return self.basis.pack(self.gram_apply_coeffs(self.basis.unpack(v.T))).T


def _weight_maps(samples, reach: int):
    """Real 6 x 6 forms, on (Re, Im) coefficient pairs, of u -> w(q) u and
    u -> w(q) conj(u) for |q_i| <= reach, q in row (q + reach) . (L^2, L, 1)
    with L = 2 reach + 1. w(q) is the Fourier coefficient of the sampled
    weight sqrt(det g) g^{-1}, gathered with the mod-M folding of the grid
    quadrature and symmetrized, as the weight is symmetric.
    """
    M = samples.grid.resolution
    fold = np.arange(-reach, reach + 1) % M
    w = np.fft.fftn(samples.weight, axes=(0, 1, 2))[np.ix_(fold, fold, fold)]
    w = w.reshape(-1, 3, 3) / M**3
    w = (w + w.transpose(0, 2, 1)) * 0.5
    re, im = w.real, w.imag
    return np.block([[re, -im], [im, re]]), np.block([[re, im], [im, -re]])


def _shell_gaps(d, a, b):
    """(lower, upper, n): the gaps of the reduced pencil's positive
    spectrum that a I <= S <= b I proves, ascending, and the number of
    eigenvalues below each (see the module docstring).

    With shells s_1 < s_2 < ... the distinct entries of D, the first half
    of d, and s_0 = 0, the eigenvalues of shell i lie in [s_i / b,
    s_i / a], so (s_i / a, s_{i+1} / b) holds none of them, and n_i, the
    number of entries of D up to s_i, lie below it. Each gap's ends are
    moved GUARD_TOL * max|d| inward, far above the rounding of a, b and
    S, and a gap is kept only where they have not met.
    """
    D = np.sort(d[:d.size // 2])
    shells = np.unique(D)
    inner = np.concatenate([[0.0], shells[:-1]])  # s_i, below gap i
    margin = GUARD_TOL * D[-1]
    lower, upper = inner / a + margin, shells / b - margin
    proved = lower < upper
    n = np.searchsorted(D, inner, side="right")
    return lower[proved], upper[proved], n[proved]


def _arpack_request(n_top, n_bottom):
    """(k, which) for eigsh: "BE" splits k evenly between the two ends."""
    if n_top and n_bottom:
        return 2 * max(n_top, n_bottom), "BE"
    return n_top + n_bottom, "LA" if n_top else "SA"


def _symmetric(upper: np.ndarray) -> np.ndarray:
    """The symmetric matrix whose upper triangle is that of `upper`."""
    return np.triu(upper) + np.triu(upper, 1).T


def _cholesky_in_place(a: np.ndarray, lower: int = 1) -> np.ndarray:
    """The lower Cholesky factor of a Fortran-ordered SPD matrix, given
    by its lower triangle, written over that triangle (`dpotrf`); the
    strict upper triangle is left as it was. With lower=0 the same for
    the upper factor U (a = U^T U) and the upper triangle."""
    c, info = sla.lapack.dpotrf(a, lower=lower, clean=0, overwrite_a=1)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"leading minor of order {info} is not positive definite")
    if info < 0:
        raise ValueError(f"dpotrf rejected argument {-info}")
    return c


def _diagonal(a: np.ndarray) -> np.ndarray:
    """A writable view of the diagonal of a Fortran-ordered square array."""
    return a.reshape(-1, order="F")[:: a.shape[0] + 1]


def _lower_solve(factor: np.ndarray, b: np.ndarray, trans: str = "N") -> np.ndarray:
    """factor^{-1} b, or factor^{-T} b, for a cached factor in the lower
    triangle of `factor` (the upper one is not read); `dpotrf` refused
    any NaN pivot when it made the factor."""
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
    {"interval": [a, b]} with finite reals a <= b on one side of 0, and
    no other key.

    Returns ("count", k) or ("interval", a, b); raises ValueError on
    anything else. The CLI checks --window with this function too.
    """
    if not isinstance(window, dict):
        raise ValueError(f"unrecognized window spec {window!r}")
    if len(window) != 1 or not set(window) <= {"count", "interval"}:
        raise ValueError(f"a window takes one key, 'count' or 'interval', "
                         f"not both and no other: {window!r}")
    if "count" in window:
        k = window["count"]
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
            raise ValueError(f"count window needs an integer, got {k!r}")
        if k < 1:
            raise ValueError("count window must request at least one pair")
        return ("count", int(k))
    try:
        a, b = window["interval"]
    except (TypeError, ValueError):
        a = b = None
    if not all(isinstance(x, numbers.Real) and not isinstance(x, bool)
               for x in (a, b)):
        raise ValueError("interval window needs two real bounds [a, b], "
                         f"got {window['interval']!r}")
    a, b = float(a), float(b)
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError("interval window bounds must be finite")
    if a > b:
        raise ValueError("empty interval window")
    if a <= 0.0 <= b:
        raise ValueError("window must exclude the kernel at 0")
    return ("interval", a, b)


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

    Every window becomes an index bracket lo..hi of the ascending
    nonzero spectrum, and one solve of the reduced pencil
    (`CurlOperator.spectrum(lo, hi)`) computes its eigenvectors only. A
    count window k is the k eigenvalues nearest 0 of each sign,
    2K - k .. 2K + k - 1; an interval window [a, b] is
    count_below(a) .. count_below(just above b) - 1, two Sylvester
    inertia counts, and an empty one returns [] without a solve. A solve
    that returns another number of pairs than the bracket holds raises
    EigensolverError with diagnostics {window, expected, returned}. A
    count window also fails when the truncation has fewer than `count`
    nonzero eigenvalues. A given operator must be the one for this
    metric and truncation; another raises ValueError.

    From N = 5 on, a count window of up to 24, or an interval with at
    most 48 values between 0 and its far end, is solved by Lanczos from
    fixed start vectors, so the result is deterministic, and every other
    bracket by the dense subset `evx`. A Lanczos answer is checked by
    one Sylvester count per side between 0 and a shift: an interval's
    own end count beyond its far end, where a value up to GUARD_TOL *
    max|d| past that end counts as inside, else GUARD_TOL * max|d| inside
    the outermost returned value. A count whose shift lies in a gap
    between shells that the metric's weight bounds prove is read from
    that gap; every other count factors a 2K x 2K Schur complement
    (`CurlOperator.count_below`). A count window whose far ends close a
    shell with a proved gap above it (a count of 6 closes the first
    shell's 6 coordinates of each sign) is counted in that gap before it
    is solved, so its guard factors nothing. A bracket that the counts
    refute, or on which ARPACK does not converge, is solved by the dense
    path, and the reason is recorded in the operator's
    `lanczos_fallbacks`. So both paths return the same window, except
    that members of its edge cluster closer than GUARD_TOL * max|d|, or a
    value that close past an interval's end, may stand in for one
    another.
    """
    spec = parse_window(window)
    op = operator or assemble(metric, truncation)
    if op.metric is not metric or op.truncation != truncation:
        raise ValueError("operator was built for another metric or truncation")
    n_reduced = op.basis.d.size
    if spec[0] == "count":
        count = spec[1]
        if count > n_reduced:
            raise EigensolverError(
                f"window requested {count} pairs, only {n_reduced} available"
            )
        half = n_reduced // 2  # negative eigenvalues, by Sylvester's law
        lo, hi = max(half - count, 0), min(half + count, n_reduced) - 1
        lower, upper, n = op._gaps
        for sigma in (lower + upper)[n == count] / 2:  # the ends close a shell
            op.count_below(sigma)
            op.count_below(-sigma)
    else:
        _, a, b = spec
        lo, hi = op.count_below(a), op.count_below(np.nextafter(b, np.inf)) - 1
        if hi < lo:
            return []
    expected = hi - lo + 1
    vals, vecs = op.spectrum(lo, hi)
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

    # one quadrature for the window: each G v normalizes its vector and
    # serves both of its checks; the residuals' forward solve adds one
    # quadrature pass for the window and the coexact check one L solve
    V, lams = vecs[:, sel], vals[sel]
    GV = op._gram_mult(V)
    scale = 1.0 / np.sqrt(np.einsum("ip,ip->p", V, GV))
    coeffs = op.basis.unpack((V * scale).T)
    signs = np.array([_sign(c) for c in coeffs])
    V, GV = V * (scale * signs), GV * (scale * signs)
    residuals = op._residuals(V, GV, lams)
    coexact = op.coexact_residual_packed(V, Gv=GV)
    pairs = [
        EigenPair(
            eigenvalue=float(lam),
            form=FourierField("one_form", sign * c),
            residual=float(res),
            index=rank,
            coexact_residual=float(coex),
        )
        for rank, (lam, sign, c, res, coex) in enumerate(
            zip(lams, signs, coeffs, residuals, coexact))
    ]

    # multiplicity clusters: a new cluster at each gap of at least tol
    ids = np.cumsum(np.abs(np.diff(lams, prepend=np.inf)) >= tol) - 1
    for pair, cluster_id, size in zip(pairs, ids, np.bincount(ids)[ids]):
        pair.cluster_id, pair.cluster_size = int(cluster_id), int(size)
    return pairs
