"""Exterior calculus on the flat 3-torus via truncated Fourier series.

Fields live on T^3 = R^3 / (2 pi Z)^3 and are represented by complex
Fourier coefficients indexed by integer wavevectors m with |m_i| <= N.
Real-valuedness is encoded as the Hermitian symmetry c(-m) = conj(c(m)).

Component conventions, used consistently everywhere:

* scalars: one component.
* 1-forms: a = a_1 dx + a_2 dy + a_3 dz.
* 2-forms: b = b_1 dy^dz + b_2 dz^dx + b_3 dx^dy.
* vectors: u = u^1 d/dx + u^2 d/dy + u^3 d/dz.

With these conventions the wedge pairing of a 1-form against a 2-form is
the Euclidean dot product of components, and the exterior derivative of a
1-form is the classical curl.

Pointwise metric operations (Hodge star, index raising/lowering, the
codifferential, weighted inner products) are evaluated on a
pseudospectral collocation grid sized for dealiased products. Hodge star,
sharp, flat and the codifferential share one truncation rule for their
result: a constant metric maps a truncation-N field to truncation N
exactly, and any other metric does not band-limit the product, so the
result keeps every mode the grid resolves (grid.max_truncation). A
caller that wants fewer modes calls truncate_to.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import (
    DegenerateMetricError,
    EnsembleAmplitudeError,
    UnsupportedRankError,
)

TAU = 2.0 * np.pi
VOLUME = TAU**3

RANK_COMPONENTS = {"scalar": 1, "one_form": 3, "two_form": 3, "vector": 3,
                   "metric": 6}

# Relative tolerance for the Hermitian-symmetry check at construction.
HERMITIAN_TOL = 1e-10
# Draws random_metric makes before it gives up on an SPD sample.
RANDOM_METRIC_RETRIES = 20


def check_count(n, name: str, minimum: int = 0):
    """n, or a ValueError naming it unless it is an integer >= minimum
    (not a bool)."""
    if (isinstance(n, bool) or not isinstance(n, numbers.Integral)
            or n < minimum):
        raise ValueError(f"{name} must be an integer >= {minimum}, got {n!r}")
    return n


def check_real(x, name: str) -> None:
    """ValueError naming x unless it is a finite real (not a bool)."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real) or not math.isfinite(x):
        raise ValueError(f"{name} must be a finite real, got {x!r}")


def mode_range(truncation: int) -> np.ndarray:
    return np.arange(-truncation, truncation + 1)


def _next_odd(n: int) -> int:
    return n if n % 2 == 1 else n + 1


def grid_resolution(truncation: int) -> int:
    """Default collocation resolution for a given truncation.

    At least the 3/2 dealiasing size 3N+1 for quadratic products, padded
    so quadrature against smooth (non-polynomial) metric weights has
    spectrally small error.
    """
    return _next_odd(max(3 * truncation + 1, 2 * truncation + 9))


class CollocationGrid:
    """Uniform periodic collocation grid with exact trig interpolation.

    The resolution is odd so every retained wavevector has an unambiguous
    bin; forward-then-inverse transforms are identities on fields whose
    truncation fits the grid.
    """

    def __init__(self, resolution: int):
        if resolution < 3 or resolution % 2 == 0:
            raise ValueError("grid resolution must be odd and >= 3")
        self.resolution = int(resolution)
        self.axis_points = TAU * np.arange(self.resolution) / self.resolution
        # equal-weight quadrature, exact for trig polynomials of degree < M
        self.weight = (TAU / self.resolution) ** 3

    @classmethod
    def for_truncation(cls, truncation: int) -> "CollocationGrid":
        return cls(grid_resolution(truncation))

    @property
    def max_truncation(self) -> int:
        return (self.resolution - 1) // 2

    def _bins(self, truncation: int) -> np.ndarray:
        if truncation > self.max_truncation:
            raise ValueError(
                f"truncation {truncation} exceeds grid capacity "
                f"{self.max_truncation}"
            )
        return mode_range(truncation) % self.resolution

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """Sample a coefficient array (..., L, L, L) on the grid (..., M, M, M)."""
        L = coeffs.shape[-1]
        n = (L - 1) // 2
        idx = self._bins(n)
        shape = coeffs.shape[:-3] + (self.resolution,) * 3
        embedded = np.zeros(shape, dtype=np.complex128)
        embedded[..., idx[:, None, None], idx[None, :, None], idx[None, None, :]] = (
            coeffs
        )
        vals = np.fft.ifftn(embedded, axes=(-3, -2, -1)) * self.resolution**3
        return vals.real

    def analyze(self, values: np.ndarray, truncation: int) -> np.ndarray:
        """Trig coefficients of grid samples, truncated to the given order."""
        spec = np.fft.fftn(values, axes=(-3, -2, -1)) / self.resolution**3
        idx = self._bins(truncation)
        return spec[..., idx[:, None, None], idx[None, :, None], idx[None, None, :]]


def _hermitian_pair(coeffs: np.ndarray) -> np.ndarray:
    """conj(c(-m)) with the mode axes reversed in place of negation."""
    return coeffs[..., ::-1, ::-1, ::-1].conj()


class FourierField:
    """Immutable real-valued field on T^3 stored as Fourier coefficients.

    coeffs has shape (ncomp, 2N+1, 2N+1, 2N+1); axis index i corresponds
    to wavevector component i - N.
    """

    __slots__ = ("rank", "coeffs", "_half")

    def __init__(self, rank: str, coeffs: np.ndarray, *, _validated: bool = False):
        if rank not in RANK_COMPONENTS:
            raise UnsupportedRankError(f"unknown rank {rank!r}")
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        ncomp = RANK_COMPONENTS[rank]
        if coeffs.ndim != 4 or coeffs.shape[0] != ncomp:
            raise ValueError(
                f"rank {rank} expects coefficients of shape ({ncomp}, L, L, L)"
            )
        L = coeffs.shape[1]
        if coeffs.shape[1:] != (L, L, L) or L % 2 == 0:
            raise ValueError("coefficient array must be cubic with odd side")
        if not _validated:
            mirror = _hermitian_pair(coeffs)
            scale = max(np.abs(coeffs).max(), 1.0)
            if np.abs(coeffs - mirror).max() > HERMITIAN_TOL * scale:
                raise ValueError("coefficients violate Hermitian symmetry")
            coeffs = 0.5 * (coeffs + mirror)
        coeffs = np.ascontiguousarray(coeffs)
        coeffs.setflags(write=False)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_half", None)  # half_block, built on use

    def __setattr__(self, name, value):  # immutability
        raise AttributeError("FourierField is immutable")

    # -- constructors ------------------------------------------------

    @classmethod
    def zeros(cls, rank: str, truncation: int) -> "FourierField":
        L = 2 * truncation + 1
        ncomp = RANK_COMPONENTS[rank]
        return cls(rank, np.zeros((ncomp, L, L, L), np.complex128), _validated=True)

    @classmethod
    def constant(cls, rank: str, values) -> "FourierField":
        ncomp = RANK_COMPONENTS[rank]
        vals = np.atleast_1d(np.asarray(values, dtype=float))
        if vals.shape != (ncomp,):
            raise ValueError(f"rank {rank} needs {ncomp} constant components")
        coeffs = vals.reshape(ncomp, 1, 1, 1).astype(np.complex128)
        return cls(rank, coeffs, _validated=True)

    @classmethod
    def from_modes(
        cls,
        rank: str,
        truncation: int,
        entries: Mapping[tuple, complex],
    ) -> "FourierField":
        """Build a field from sparse entries {(m1, m2, m3, comp): value}.

        The conjugate entry at -m is added, so the result is real-valued.
        """
        L = 2 * truncation + 1
        ncomp = RANK_COMPONENTS[rank]
        coeffs = np.zeros((ncomp, L, L, L), np.complex128)
        for key, value in entries.items():
            m1, m2, m3, comp = key
            coeffs[comp, m1 + truncation, m2 + truncation, m3 + truncation] += value
            if (m1, m2, m3) != (0, 0, 0):
                coeffs[comp, -m1 + truncation, -m2 + truncation, -m3 + truncation] += (
                    np.conj(value)
                )
        return cls(rank, coeffs)

    # -- basic properties --------------------------------------------

    @property
    def truncation(self) -> int:
        return (self.coeffs.shape[1] - 1) // 2

    @property
    def ncomp(self) -> int:
        return self.coeffs.shape[0]

    def pad_to(self, truncation: int) -> "FourierField":
        n = self.truncation
        if truncation < n:
            raise ValueError("cannot pad to a smaller truncation")
        if truncation == n:
            return self
        L = 2 * truncation + 1
        out = np.zeros((self.ncomp, L, L, L), np.complex128)
        s = slice(truncation - n, truncation + n + 1)
        out[:, s, s, s] = self.coeffs
        return FourierField(self.rank, out, _validated=True)

    def truncate_to(self, truncation: int) -> "FourierField":
        n = self.truncation
        if truncation >= n:
            return self.pad_to(truncation)
        s = slice(n - truncation, n + truncation + 1)
        return FourierField(self.rank, self.coeffs[:, s, s, s], _validated=True)

    # -- algebra ------------------------------------------------------

    def _binary(self, other: "FourierField", sign: float) -> "FourierField":
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        n = max(self.truncation, other.truncation)
        a = self.pad_to(n).coeffs
        b = other.pad_to(n).coeffs
        return FourierField(self.rank, a + sign * b, _validated=True)

    def __add__(self, other):
        return self._binary(other, 1.0)

    def __sub__(self, other):
        return self._binary(other, -1.0)

    def __mul__(self, scalar):
        return FourierField(
            self.rank, self.coeffs * float(scalar), _validated=True
        )

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    # -- evaluation ----------------------------------------------------

    def eval(self, x) -> np.ndarray | float:
        """Values by staged trigonometric summation (_point_sum) at a point
        (3,) or at rows (P, 3).

        A scalar field gives a float at a point and shape (P,) at rows;
        any other rank its components in the coordinate frame, (ncomp,)
        or (P, ncomp).
        """
        out = _block_sum(self.half_block(), x, False)
        if self.rank != "scalar":
            return out
        return float(out[0]) if out.ndim == 1 else out[:, 0]

    def half_block(self) -> np.ndarray:
        """The field's one evaluation block, the _half_block of its
        coefficients, built on first use; values and derivatives alike
        are summed from it."""
        if self._half is None:
            object.__setattr__(self, "_half", _half_block(self.coeffs))
        return self._half

    def sample(self, grid: CollocationGrid) -> np.ndarray:
        """Grid samples, shape (ncomp, M, M, M)."""
        return grid.synthesize(self.coeffs)

    # -- serialization --------------------------------------------------

    def to_json_dict(self, tol: float = 0.0) -> dict:
        n = self.truncation
        entries = []
        it = np.argwhere(np.abs(self.coeffs) > tol)
        for comp, i, j, k in it:
            c = self.coeffs[comp, i, j, k]
            entries.append(
                [int(i - n), int(j - n), int(k - n), int(comp), float(c.real),
                 float(c.imag)]
            )
        entries.sort(key=lambda e: (e[0], e[1], e[2], e[3]))
        return {"rank": self.rank, "N": n, "coeffs": entries}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "FourierField":
        """Inverse of `to_json_dict`. An unknown rank raises
        UnsupportedRankError; an N, index or component that is not an
        integer (or is a bool), an entry outside the coefficient array
        (component or |m_i| > N) or a non-finite entry ValueError."""
        rank = data["rank"]
        if rank not in RANK_COMPONENTS:
            raise UnsupportedRankError(f"unknown rank {rank!r}")
        n = check_count(data["N"], "N")
        L = 2 * n + 1
        ncomp = RANK_COMPONENTS[rank]
        coeffs = np.zeros((ncomp, L, L, L), np.complex128)
        for entry in data["coeffs"]:
            m1, m2, m3, comp, re, im = entry
            if any(isinstance(i, bool) or not isinstance(i, numbers.Integral)
                   for i in (m1, m2, m3, comp)):
                raise ValueError(f"entry {entry!r}: its mode indices and "
                                 f"component must be integers")
            if not 0 <= comp < ncomp or max(abs(m1), abs(m2), abs(m3)) > n:
                raise ValueError(f"entry m = {(m1, m2, m3)}, component {comp} "
                                 f"lies outside a {rank} field of N = {n}")
            if not (math.isfinite(re) and math.isfinite(im)):
                raise ValueError(f"entry m = {(m1, m2, m3)}, component {comp} "
                                 f"is not finite: {re!r} + {im!r} i")
            coeffs[comp, m1 + n, m2 + n, m3 + n] = re + 1j * im
        return cls(rank, coeffs)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, sort_keys=True)

    @classmethod
    def load(cls, path) -> "FourierField":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))

    def __repr__(self):
        nz = int(np.count_nonzero(self.coeffs))
        return f"FourierField(rank={self.rank!r}, N={self.truncation}, nnz={nz})"


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

# order of the six stored components of a symmetric 3x3 tensor
METRIC_COMPONENTS = ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1))
_SYM_ROWS, _SYM_COLS = np.array(METRIC_COMPONENTS).T


def _symmetric(values: np.ndarray) -> np.ndarray:
    """Symmetric 3x3 tensors (..., 3, 3) from stored components (..., 6)."""
    out = np.empty(values.shape[:-1] + (3, 3))
    out[..., _SYM_ROWS, _SYM_COLS] = values
    out[..., _SYM_COLS, _SYM_ROWS] = values
    return out


@dataclass(frozen=True)
class MetricSamples:
    """Pointwise metric data cached on one collocation grid.

    weight_bounds is (a, b), the smallest and the largest eigenvalue of
    the weight sqrt(det g) g^{-1} over the grid's points: sqrt(det g)
    over g's largest and over its smallest eigenvalue. By the discrete
    Parseval identity, exact for forms of truncation N on a grid of
    M >= 2N + 1 points per axis, a |v|^2 <= v^T G v <= b |v|^2 for the
    quadrature Gram G of such forms (`curlspec.CurlOperator.count_below`).
    """

    grid: CollocationGrid
    g: np.ndarray          # (M, M, M, 3, 3)
    inv: np.ndarray        # (M, M, M, 3, 3)
    sqrt_det: np.ndarray   # (M, M, M)
    weight_bounds: tuple[float, float]

    @property
    def weight(self) -> np.ndarray:
        """sqrt(det g) g^{-1}, the 1-form quadrature weight."""
        return self.inv * self.sqrt_det[..., None, None]


class MetricField:
    """Riemannian metric on T^3, built from one coefficient block.

    The block is a rank "metric" FourierField whose six components are
    the symmetric tensor's entries in METRIC_COMPONENTS order; it is also
    the metric's file format, and its half_block evaluates g and its
    first derivatives pointwise. Immutable; grid samples (g, its inverse,
    the volume density) are cached per collocation grid on first use and
    validated to be symmetric positive definite.
    """

    def __init__(self, block: FourierField):
        if not isinstance(block, FourierField) or block.rank != "metric":
            raise ValueError(f"a metric is built from one rank 'metric' "
                             f"FourierField, got {block!r}")
        self.block = block
        self._cache: dict[int, MetricSamples] = {}
        # validate SPD on the default grid right away
        self.samples(CollocationGrid.for_truncation(block.truncation))

    @property
    def truncation(self) -> int:
        return self.block.truncation

    @property
    def constant_factor(self) -> float | None:
        """c when g = c * identity with c constant, else None."""
        n = self.truncation
        c = self.block.coeffs.copy()
        c0 = c[0, n, n, n]
        c[:3, n, n, n] -= c0
        if np.abs(c).max() > 1e-14:
            return None
        return float(c0.real)

    @property
    def is_flat(self) -> bool:
        c = self.constant_factor
        return c is not None and abs(c - 1.0) <= 1e-14

    def samples(self, grid: CollocationGrid) -> MetricSamples:
        cached = self._cache.get(grid.resolution)
        if cached is not None:
            return cached
        g = _symmetric(np.moveaxis(self.block.sample(grid), 0, -1))
        M = grid.resolution
        eigs = np.linalg.eigvalsh(g)
        min_eig = eigs[..., 0]
        if min_eig.min() <= 0.0:
            flat_idx = int(np.argmin(min_eig))
            loc = np.unravel_index(flat_idx, (M, M, M))
            point = [grid.axis_points[i] for i in loc]
            raise DegenerateMetricError(point, min_eig.min())
        sqrt_det = np.sqrt(np.linalg.det(g))
        samples = MetricSamples(
            grid=grid,
            g=g,
            inv=np.linalg.inv(g),
            sqrt_det=sqrt_det,
            weight_bounds=(float((sqrt_det / eigs[..., -1]).min()),
                           float((sqrt_det / min_eig).max())),
        )
        self._cache[grid.resolution] = samples
        return samples

    def eval(self, x) -> np.ndarray:
        """Metric tensor at a point, shape (3, 3)."""
        return _symmetric(self.block.eval(x))

    def value_and_gradient(self, x):
        """g (3, 3) and dg (3, 3, 3), dg[b] = d_b g, at a point x (3,), or
        (P, 3, 3) and (P, 3, 3, 3) at the rows of x (P, 3), from one
        Jacobian kernel call on the block's 6 components; each row is
        bit-identical to its one-point call."""
        rows = _block_sum(self.block.half_block(), x, True)
        sym = _symmetric(rows.reshape(rows.shape[:-1] + (4, 6)))
        return sym[..., 0, :, :], sym[..., 1:, :, :]

    # -- serialization ------------------------------------------------

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "MetricField":
        if not isinstance(data, Mapping) or data.get("rank") != "metric":
            raise ValueError("not a metric file")
        return cls(FourierField.from_json_dict(data))

    def save(self, path) -> None:
        self.block.save(path)

    @classmethod
    def load(cls, path) -> "MetricField":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))

    def __repr__(self):
        kind = "flat" if self.is_flat else f"N={self.truncation}"
        return f"MetricField({kind})"


def flat_metric() -> MetricField:
    return MetricField(FourierField.constant("metric", [1, 1, 1, 0, 0, 0]))


def conformal_metric(c: float) -> MetricField:
    """c^2 times the flat metric; c must be a finite real > 0 (ValueError)."""
    check_real(c, "conformal factor c")
    if c <= 0:
        raise ValueError(f"conformal factor c must be > 0, got {c!r}")
    d = c * c
    return MetricField(FourierField.constant("metric", [d, d, d, 0, 0, 0]))


def random_metric(
    smoothness: float,
    amplitude: float,
    seed,
    *,
    cutoff: int = 2,
    base: MetricField | None = None,
) -> MetricField:
    """Random SPD perturbation of a base metric.

    g = base + amplitude * h where h is a random symmetric trigonometric
    polynomial with independent coefficients damped by
    (1 + |m|)^(-smoothness - 2), a proxy for an amplitude-controlled
    C^smoothness neighborhood. Resamples, up to RANDOM_METRIC_RETRIES
    draws in all, while a draw fails the SPD grid check. smoothness and
    amplitude must be finite reals, seed an integer or a numpy Generator
    and cutoff an integer >= 0; otherwise a ValueError names the parameter.
    """
    check_real(smoothness, "smoothness")
    check_real(amplitude, "amplitude")
    check_count(cutoff, "cutoff")
    if base is None:
        base = flat_metric()
    if isinstance(seed, np.random.Generator):
        rng = seed
    elif isinstance(seed, numbers.Integral) and not isinstance(seed, bool):
        rng = np.random.Generator(np.random.Philox(key=int(seed) % 2**128))
    else:
        raise ValueError(f"seed must be an integer or a numpy Generator, got {seed!r}")
    mvals = mode_range(cutoff)
    mx, my, mz = np.meshgrid(mvals, mvals, mvals, indexing="ij")
    damp = (1.0 + np.sqrt(mx**2 + my**2 + mz**2)) ** (-smoothness - 2.0)
    for _ in range(RANDOM_METRIC_RETRIES):
        h = np.stack([(rng.standard_normal(damp.shape)  # re, then im
                       + 1j * rng.standard_normal(damp.shape)) * damp
                      for _ in range(6)])
        h = 0.5 * (h + _hermitian_pair(h))  # make the field real
        try:
            return MetricField(base.block + amplitude * FourierField("metric", h))
        except DegenerateMetricError:
            continue
    raise EnsembleAmplitudeError(
        f"no SPD sample after {RANDOM_METRIC_RETRIES} retries: amplitude "
        f"{amplitude} too large for smoothness {smoothness}"
    )


def named_metric(spec) -> MetricField:
    """Parse and build a named metric: "flat", "conformal(c)" or
    "random_cr(r, eps, seed[, cutoff])", cutoff 2 unless given. c must be
    a finite real > 0, r and eps finite reals, seed and cutoff integers;
    otherwise a ValueError names the parameter."""
    text = spec.strip() if isinstance(spec, str) else ""
    if text == "flat":
        return flat_metric()
    kind, _, inner = text.partition("(")
    if kind not in ("conformal", "random_cr") or not inner.endswith(")"):
        raise ValueError(f"unknown metric name {spec!r}")
    parts = inner[:-1].split(",") if kind == "random_cr" else [inner[:-1]]
    if kind == "random_cr" and len(parts) not in (3, 4):
        raise ValueError("random_cr takes (r, eps, seed[, cutoff])")

    def number(i: int, name: str, convert=float):
        text = parts[i].strip()
        try:
            value = convert(text)
            if convert is int or math.isfinite(value):
                return value
        except ValueError:
            pass
        expected = "a finite real" if convert is float else "an integer"
        raise ValueError(f"{name} must be {expected}, got {text!r}")

    if kind == "conformal":
        return conformal_metric(number(0, "conformal factor c"))
    return random_metric(
        number(0, "random_cr r"), number(1, "random_cr eps"),
        number(2, "random_cr seed", int),
        cutoff=number(3, "random_cr cutoff", int) if len(parts) == 4 else 2)


# ---------------------------------------------------------------------------
# Exterior calculus operations
# ---------------------------------------------------------------------------


def _mode_grids(truncation: int):
    m = mode_range(truncation)
    return np.meshgrid(m, m, m, indexing="ij")


def exterior_d(field: FourierField) -> FourierField:
    """Exterior derivative, exact in coefficient space.

    Scalars map to 1-forms (gradient); 1-forms map to 2-forms (curl in
    the component conventions of this module). Higher ranks are rejected.
    """
    mx, my, mz = _mode_grids(field.truncation)
    c = field.coeffs
    if field.rank == "scalar":
        out = 1j * np.stack([mx * c[0], my * c[0], mz * c[0]])
        return FourierField("one_form", out, _validated=True)
    if field.rank == "one_form":
        out = 1j * np.stack(
            [
                my * c[2] - mz * c[1],
                mz * c[0] - mx * c[2],
                mx * c[1] - my * c[0],
            ]
        )
        return FourierField("two_form", out, _validated=True)
    raise UnsupportedRankError(
        f"exterior derivative implemented for ranks 0 and 1, got {field.rank}"
    )


def _coefficient_divergence(coeffs: np.ndarray) -> np.ndarray:
    """d of a 2-form in coefficient space: i m . b, one scalar component."""
    n = (coeffs.shape[-1] - 1) // 2
    mx, my, mz = _mode_grids(n)
    return (1j * (mx * coeffs[0] + my * coeffs[1] + mz * coeffs[2]))[None, ...]


def default_grid(*objects) -> CollocationGrid:
    """Shared grid sized for the largest truncation among fields/metrics."""
    n = max(obj.truncation for obj in objects)
    return CollocationGrid.for_truncation(n)


def _metric_map(metric: MetricField, field: FourierField,
                grid: CollocationGrid | None, rank: str, pointwise) -> FourierField:
    """The pipeline the pointwise metric operations share.

    Samples the field on the grid (the default dealiased grid when None),
    applies pointwise(metric samples, values with the component axis
    last), and analyzes the result at the module's truncation rule.
    """
    if grid is None:
        grid = default_grid(metric, field)
    out = pointwise(metric.samples(grid), np.moveaxis(field.sample(grid), 0, -1))
    n_out = field.truncation if metric.truncation == 0 else grid.max_truncation
    return FourierField(rank, grid.analyze(np.moveaxis(out, -1, 0), n_out))


def _contract(tensor: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.einsum("...ab,...b->...a", tensor, v)


def hodge(metric: MetricField, field: FourierField,
          grid: CollocationGrid | None = None) -> FourierField:
    """Pointwise Hodge star of a 1-form or 2-form on the dealiased grid.

    Truncation: the input's on a constant metric, else grid.max_truncation.
    """
    if field.rank == "one_form":
        return _metric_map(metric, field, grid, "two_form", lambda ms, v:
                           _contract(ms.inv, v) * ms.sqrt_det[..., None])
    if field.rank == "two_form":
        return _metric_map(metric, field, grid, "one_form", lambda ms, v:
                           _contract(ms.g, v) / ms.sqrt_det[..., None])
    raise UnsupportedRankError(f"hodge star needs a 1- or 2-form, got {field.rank}")


def sharp(metric: MetricField, form: FourierField,
          grid: CollocationGrid | None = None) -> FourierField:
    """Raise the index of a 1-form to a vector field.

    Truncation: the input's on a constant metric, else grid.max_truncation.
    """
    if form.rank != "one_form":
        raise UnsupportedRankError("sharp needs a 1-form")
    return _metric_map(metric, form, grid, "vector",
                       lambda ms, v: _contract(ms.inv, v))


def flat(metric: MetricField, vector: FourierField,
         grid: CollocationGrid | None = None) -> FourierField:
    """Lower the index of a vector field to a 1-form.

    Truncation: the input's on a constant metric, else grid.max_truncation.
    """
    if vector.rank != "vector":
        raise UnsupportedRankError("flat needs a vector field")
    return _metric_map(metric, vector, grid, "one_form",
                       lambda ms, v: _contract(ms.g, v))


def _negative_divergence(ms: MetricSamples, v: np.ndarray) -> np.ndarray:
    grid = ms.grid
    dens = _contract(ms.weight, v)  # sqrt(g) g^{-1} alpha
    dens_coeffs = grid.analyze(np.moveaxis(dens, -1, 0), grid.max_truncation)
    div_vals = grid.synthesize(_coefficient_divergence(dens_coeffs))[0]
    return (-div_vals / ms.sqrt_det)[..., None]


def codifferential(metric: MetricField, form: FourierField,
                   grid: CollocationGrid | None = None) -> FourierField:
    """Codifferential of a 1-form, the negative metric divergence.

    Computed as -(1/sqrt(det g)) d_a (sqrt(det g) g^{ab} alpha_b) with the
    derivative taken exactly in coefficient space on the dealiased grid.
    The sign makes <d phi, alpha> = <phi, delta alpha> in the weighted
    inner products (checked by the adjointness tests). Truncation: the
    input's on a constant metric, where the divergence is exact, else the
    grid's full bandwidth, so that the pairing identity holds to
    round-off (the module's rule).
    """
    if form.rank != "one_form":
        raise UnsupportedRankError("codifferential needs a 1-form")
    return _metric_map(metric, form, grid, "scalar", _negative_divergence)


def l2_inner(
    metric: MetricField,
    a: FourierField,
    b: FourierField,
    grid: CollocationGrid | None = None,
) -> float:
    """Weighted L2 inner product by grid quadrature.

    Scalars pair against the volume density, 1-forms through the inverse
    metric, vectors through the metric.
    """
    if a.rank != b.rank:
        raise ValueError("rank mismatch in inner product")
    if grid is None:
        grid = default_grid(metric, a, b)
    ms = metric.samples(grid)
    va = a.sample(grid)
    vb = b.sample(grid)
    if a.rank == "scalar":
        integrand = va[0] * vb[0]
    elif a.rank == "one_form":
        integrand = np.einsum(
            "...ab,a...,b...->...", ms.inv, va, vb
        )
    elif a.rank == "vector":
        integrand = np.einsum("...ab,a...,b...->...", ms.g, va, vb)
    else:
        raise UnsupportedRankError("inner product for scalar/one_form/vector only")
    return float(grid.weight * np.sum(integrand * ms.sqrt_det))


def l2_norm(metric: MetricField, a: FourierField, grid=None) -> float:
    return float(np.sqrt(max(l2_inner(metric, a, a, grid), 0.0)))


def wedge_pairing_samples(
    form: FourierField, grid: CollocationGrid | None = None
) -> np.ndarray:
    """Grid samples of (alpha ^ d alpha) / (dx^dy^dz)."""
    if form.rank != "one_form":
        raise UnsupportedRankError("contact pairing needs a 1-form")
    if grid is None:
        grid = CollocationGrid.for_truncation(form.truncation)
    a = form.sample(grid)
    da = exterior_d(form).sample(grid)
    return np.einsum("c...,c...->...", a, da)


def contact_defect(form: FourierField, grid: CollocationGrid | None = None) -> float:
    """min over the grid of |(alpha ^ d alpha)/(dx^dy^dz)|.

    Positive on a certified contact form, but not sufficient: the pairing
    must also keep one sign (the rule of contact.ContactForm.certify).
    """
    return float(np.abs(wedge_pairing_samples(form, grid)).min())


# ---------------------------------------------------------------------------
# Fast point evaluation for flowline integration: FourierField.eval,
# MetricField.value_and_gradient, FieldJet and JetStack all run the one
# kernel _point_sum on a field's one evaluation block, its half_block. A
# real field's coefficients are Hermitian, c(-m) = conj c(m), so the m_x < 0
# half of the sum is the conjugate of the m_x > 0 half: a block keeps the
# m_x >= 0 slices of the coefficients (D, L, L, L), L = 2N + 1, with the
# m_x > 0 slices doubled, stored m_z first as (L, R), R = D (N + 1) L, and
# the real part of its sum is the field. A derivative d_b takes axis b's
# phase vector i m e^{i m x_b} in place of e^{i m x_b}. The z, y and x steps
# are each one stacked np.matmul, for which numpy issues one zgemv per
# (block, point, product): the BLAS calls of a lone point. So every row is
# bit-identical to its one-point call, and a Jacobian call's value rows to
# a value-only call's. A value costs D (N + 1)(L^2 + L + 1) complex
# multiply-adds; a Jacobian call contracts each step's products with both
# phase vectors of the next axis and keeps four, D (N + 1)(2 L^2 + 4 L + 8):
# 8.4k for a vector field at N = 6, 4% of it on second derivatives so that
# no step copies.
# ---------------------------------------------------------------------------


def _half_block(coeffs: np.ndarray) -> np.ndarray:
    """The m_x >= 0 half of coeffs (..., L, L, L) as an (L, R) block, the
    m_z axis first and the rest in C order.

    It is taken from the Hermitian part (c(m) + conj c(-m)) / 2, which
    construction only checks to HERMITIAN_TOL, so the real part of its
    sum equals the real part of the full block's sum in exact arithmetic;
    the m_x = 0 slice has weight 1, every m_x > 0 slice weight 2.
    """
    L = coeffs.shape[-1]
    n = (L - 1) // 2
    weights = np.full(n + 1, 1.0)
    weights[0] = 0.5
    half = (coeffs[..., n:, :, :] + _hermitian_pair(coeffs)[..., n:, :, :])
    return np.ascontiguousarray((half * weights[:, None, None]).reshape(-1, L).T)


# value, d_x, d_y, d_z: x-step products of (z, y, x) phases 000, 001, 010, 100
_JET_ROWS = np.array([0, 1, 2, 4])


@functools.cache
def _derivative_factors(L: int) -> np.ndarray:
    """i m for m = -N..N, L = 2N + 1: d/dx e^{i m x} = i m e^{i m x}."""
    im = 1j * np.arange(-(L // 2), L // 2 + 1)
    im.flags.writeable = False
    return im


def _point_sum(blocks: np.ndarray, points, jacobians: bool) -> np.ndarray:
    """Re sum_m c[j, m] e^{i m.x[j, k]} over J stacked _half_blocks (J, L, R)
    at K points each (J, K, 3), anywhere in the universal cover: the (J, K, D)
    sums, D = R / ((N + 1) L) components in C order, or with jacobians
    (J, K, 4 D), the values then the x, y and z derivatives; C-contiguous.
    Row (j, k) does not depend on the rest of the call."""
    J, L, R = blocks.shape
    n = (L - 1) // 2
    D = R // (L * (n + 1))
    im = _derivative_factors(L)
    points = np.asarray(points, dtype=float)
    K = points.shape[1]
    P = 2 if jacobians else 1  # phase vectors per axis: e^{i m x}, i m e^{i m x}
    p = np.empty((J, K, P, 3, L), np.complex128)
    np.exp(np.multiply.outer(points, im), out=p[:, :, 0])
    if jacobians:
        np.multiply(p[:, :, 0], im, out=p[:, :, 1])
    s = p[:, :, :, 2, None, :] @ blocks[:, None, None]
    s = s.reshape(J, K, P, 1, R // L, L) @ p[:, :, None, :, 1, :, None]
    s = s.reshape(J, K, P * P, 1, D, n + 1) @ p[:, :, None, :, 0, n:, None]
    s = s.reshape(J, K, P ** 3, D).real
    if jacobians:
        s = np.take(s, _JET_ROWS, axis=2)
    return np.ascontiguousarray(s).reshape(J, K, s.shape[2] * D)


def _block_sum(block: np.ndarray, x, jacobians: bool) -> np.ndarray:
    """_point_sum of one (L, R) block at a point (3,), shape (D,) or
    (4 D,), or at the rows of x (P, 3), shape (P, D) or (P, 4 D)."""
    x = np.asarray(x, dtype=float)
    out = _point_sum(block[None], x.reshape(1, -1, 3), jacobians)[0]
    return out[0] if x.ndim == 1 else out


class FieldJet:
    """Value and Jacobian of a 3-component field at arbitrary points.

    The jet protocol is two methods, value and value_and_jacobian, each
    taking a point (3,) or rows (P, 3). It sums the field's own
    half_block, the values' block, with the derivative phase vectors of
    _point_sum, so a point costs 3 (N + 1)(2 L^2 + 4 L + 8) complex
    multiply-adds (8.4k at N = 6) in one kernel call, and P points or a
    JetStack of several jets cost one call too. Used as the right-hand
    side of all orbit and stability integrators.
    """

    def __init__(self, field: FourierField):
        if field.ncomp != 3:
            raise UnsupportedRankError("jet evaluation needs a 3-component field")
        self.field = field
        self._block = field.half_block()

    @property
    def truncation(self):
        return self.field.truncation

    def value(self, x) -> np.ndarray:
        return self.field.eval(x)

    def value_and_jacobian(self, x):
        """u (3,) and Du (3, 3), jac[a, b] = d_b u_a, at a point x (3,), or
        (P, 3) and (P, 3, 3) at the rows of x (P, 3), each row
        bit-identical to its one-point call."""
        return _split_jet(_block_sum(self._block, x, True))


def _split_jet(rows: np.ndarray):
    """Values (3,) and Jacobians (3, 3), jac[a, b] = d_b u_a, of a jet row
    (12,), or (P, 3) and (P, 3, 3) of jet rows (P, 12)."""
    if rows.ndim == 1:  # a lone point: plain slices cost less than the batch indexing
        return rows[:3], rows[3:].reshape(3, 3).T
    out = rows.reshape(-1, 4, 3)
    return out[:, 0], out[:, 1:].transpose(0, 2, 1)


def as_jet(field_or_jet) -> FieldJet:
    if isinstance(field_or_jet, FourierField):
        return FieldJet(field_or_jet)
    return field_or_jet


class JetStack:
    """The jets of several lanes evaluated together: jets[k] is lane k's,
    and row r of the points rides lane lanes[r], the lanes in any order.

    The FieldJets of one truncation are the layers of one stacked half
    block and of one _point_sum per evaluation, lanes whose jets share a
    half block sharing a layer; each live layer's rows are padded to the
    largest row count of the call, so a call costs one kernel per
    truncation however many lanes are live. Any other jet (a test system,
    a rescaled field) evaluates its own rows with the jet protocol's
    value or value_and_jacobian at rows. Each row is bit-identical to its
    jet's one-point call, so a row does not depend on the rows beside it,
    and values is itself a right-hand side for dynamics.solve_lanes.
    """

    def __init__(self, jets):
        self.jets = list(jets)
        self._group = np.empty(len(self.jets), int)  # lane -> its group
        self._slot = np.empty(len(self.jets), int)   # lane -> its layer there
        self._members: list = []  # group -> the first jet of each of its layers
        groups, layers = {}, {}  # group key -> group; layer key -> (group, slot)
        for k, jet in enumerate(self.jets):
            field = isinstance(jet, FieldJet)
            layer = id(jet._block) if field else id(jet)
            if layer not in layers:
                g = groups.setdefault(jet.truncation if field else ("own", layer),
                                      len(groups))
                if g == len(self._members):
                    self._members.append([])
                layers[layer] = g, len(self._members[g])
                self._members[g].append(jet)
            self._group[k], self._slot[k] = layers[layer]
        self._blocks: dict = {}  # group -> stacked half blocks (J, L, R), on use
        self._plans: dict = {}   # lanes bytes -> _plan(lanes)

    def values(self, lanes, points) -> np.ndarray:
        """Field values (P, 3) at the rows of points (P, 3)."""
        return self._rows(lanes, points, False)

    def values_and_jacobians(self, lanes, points):
        """Values (P, 3) and Jacobians (P, 3, 3), as FieldJet's."""
        return _split_jet(self._rows(lanes, points, True))

    def _stacked(self, g: int) -> np.ndarray:
        """Group g's stacked half blocks (J, L, R)."""
        if g not in self._blocks:
            self._blocks[g] = np.stack([jet._block for jet in self._members[g]])
        return self._blocks[g]

    def _plan(self, lanes: np.ndarray) -> list:
        """(group, its rows, layout) per group that lanes name. A layout
        is (lo, hi, K, where): layers lo..hi-1 padded to K rows each, with
        where the (layer - lo, rank) of each row, or None when the rows
        fill every layer in order; None for a jet outside the stack."""
        plan = []
        groups = self._group[lanes]
        for g in np.unique(groups).tolist():
            rows = np.flatnonzero(groups == g)
            if not isinstance(self._members[g][0], FieldJet):
                plan.append((g, rows, None))
                continue
            layer = self._slot[lanes[rows]]
            lo = int(layer.min())
            layer -= lo
            count = np.bincount(layer)
            K = int(count.max())
            rank = np.empty_like(layer)  # each row's place in its layer
            rank[np.argsort(layer, kind="stable")] = (
                np.arange(rows.size) - np.repeat(np.cumsum(count) - count, count))
            in_order = rows.size == K * count.size and (np.diff(layer) >= 0).all()
            if rows.size == lanes.size:
                rows = slice(None)
            plan.append((g, rows, (lo, lo + count.size, K,
                                   None if in_order else (layer, rank))))
        return plan

    def _rows(self, lanes, points, jacobians: bool) -> np.ndarray:
        key = lanes.tobytes()
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = self._plan(lanes)
        width = 12 if jacobians else 3
        out = np.empty((lanes.size, width))
        for g, rows, layout in plan:
            if layout is None:
                jet = self._members[g][0]
                if jacobians:  # into _split_jet's row layout
                    vals, jacs = jet.value_and_jacobian(points[rows])
                    out[rows, :3] = vals
                    out[rows, 3:] = np.swapaxes(jacs, 1, 2).reshape(-1, 9)
                else:
                    out[rows] = jet.value(points[rows])
                continue
            lo, hi, K, where = layout
            blocks = self._stacked(g)[lo:hi]
            if where is None:
                sums = _point_sum(blocks, points[rows].reshape(hi - lo, K, 3),
                                  jacobians)
                out[rows] = sums.reshape(-1, width)
            else:
                padded = np.zeros((hi - lo, K, 3))
                padded[where] = points[rows]
                out[rows] = _point_sum(blocks, padded, jacobians)[where]
        return out

