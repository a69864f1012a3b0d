"""Flowlines, fixed points, periodic orbits, and their linearized invariants.

Vector fields are integrated in the universal cover (positions are never
wrapped during integration, so winding numbers come for free) by
solve_lanes: DOP853 over [0, T], T finite and > 0, each trajectory a lane
with its own step size and numbers that its neighbours do not change.
flow and variational_flow solve one lane; the recurrence scan solves the
seeds of several jets at once, under one horizon, on one stacked kernel
call per right-hand side (fields.JetStack). Recurrence analysis proceeds
in two phases: a cheap close-return scan over seed trajectories, then
Newton shooting on (point, period) with a phase condition, using the
monodromy from the variational equations as the exact Jacobian.

Orbits are classified through the linearized return map on a transverse
plane: Floquet multipliers, area preservation, nondegeneracy, and
hyperbolicity type. The Conley-Zehnder index of a sampled symplectic
path is its rotation number: the turns one vector makes along the path
(an eigenvector of the endpoint when it is hyperbolic). The sampled path
must turn that vector by at most a quarter turn per step, or the index
is refused. contact.conley_zehnder builds that path for an orbit of a
curl eigenfield from the orbit's own linearized flow.
"""

from __future__ import annotations

import logging
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import _dop853 as dop853
from .errors import StiffnessError
from .fields import (TAU, CollocationGrid, FourierField, JetStack, _next_odd,
                     as_jet, check_count, check_real)

log = logging.getLogger(__name__)


def __getattr__(name: str):
    """Module attribute solve_ivp, resolved from scipy on first access.

    No curllab code calls solve_ivp; perfbench/tracing.py patches the
    name here and in instability. scipy.integrate is imported only when
    the name is read, so starting curllab never pays for it.
    """
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp
        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


NEWTON_TOL = 1e-10   # |u| at an accepted fixed point
ORBIT_TOL = 1e-8     # return residual of an accepted orbit
MULT_TOL = 1e-4      # multiplier distance from 1 deciding nondegeneracy
EIG_TOL = 1e-6       # eigenvalue magnitude deciding fixed-point nondegeneracy
DEDUP_TOL = 1e-5     # torus distance identifying duplicate fixed points
MAX_NEWTON = 60      # Newton iterations per fixed-point seed
MAX_SEEDS = 256      # fixed-point seeds, slowest first
SCAN_TOL = 1e-9      # local error of the recurrence-scan flow
ORBIT_T_MIN = 0.5    # shortest close-return time considered
CLOSE_TOL = 0.25     # torus distance of a close return
MAX_CANDIDATES_PER_SEED = 3
N_RECORD_SAMPLES = 400  # samples of a recorded orbit's trajectory
SHOOT_MAX_ITER = 25  # Newton iterations on (point, period)
MAX_PERIOD_GROWTH = 3.0  # shooting gives up past this multiple of T0
CZ_DEG_TOL = 1e-8    # |det(Psi(T) - 1)| / max(|Psi(T)_ij|, 1) when degenerate


def torus_distance(a, b) -> float:
    d = np.asarray(a, float) - np.asarray(b, float)
    d = (d + np.pi) % TAU - np.pi
    return float(np.linalg.norm(d))


# ---------------------------------------------------------------------------
# Canonical analytic fields
# ---------------------------------------------------------------------------


def abc_field(A: float = 1.0, B: float = 1.0, C: float = 1.0) -> FourierField:
    """Three-term trigonometric Beltrami field, a flat curl eigenfield.

    u = (A sin z + C cos y, B sin x + A cos z, C sin y + B cos x). Each
    amplitude must be a finite real; otherwise a ValueError names it.
    """
    for name, amplitude in zip("ABC", (A, B, C)):
        check_real(amplitude, f"abc amplitude {name}")
    entries = {
        (0, 0, 1, 0): -0.5j * A, (0, 1, 0, 0): 0.5 * C,
        (1, 0, 0, 1): -0.5j * B, (0, 0, 1, 1): 0.5 * A,
        (0, 1, 0, 2): -0.5j * C, (1, 0, 0, 2): 0.5 * B,
    }
    return FourierField.from_modes("vector", 1, entries)


def shear_field(k: int = 1) -> FourierField:
    """(sin kz, cos kz, 0): the Reeb field of the k-th tight form. k must
    be an integer != 0 (not a bool); otherwise a ValueError names it."""
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k == 0:
        raise ValueError(f"shear field needs an integer k != 0, got {k!r}")
    k = int(k)
    entries = {(0, 0, k, 0): -0.5j, (0, 0, k, 1): 0.5}
    return FourierField.from_modes("vector", abs(k), entries)


def named_field(spec: str) -> FourierField:
    """The field a spec names: the path of a vector or 1-form file,
    "abc:A,B,C" (finite amplitudes) or "xi:k" (an integer k != 0); a field
    of another rank, or anything else, is a ValueError."""
    if Path(spec).exists():
        field = FourierField.load(spec)
        if field.rank not in ("one_form", "vector"):
            raise ValueError(f"cannot flow a field of rank {field.rank}")
        return field
    spec = spec.strip()
    if spec.startswith("abc:"):
        parts = [float(p) for p in spec[4:].split(",")]
        if len(parts) != 3:
            raise ValueError("abc field needs three amplitudes")
        return abc_field(*parts)
    if spec.startswith("xi:"):
        return shear_field(int(spec[3:]))
    raise ValueError(f"unknown field name {spec!r}")


# ---------------------------------------------------------------------------
# Flow integration
# ---------------------------------------------------------------------------


@dataclass
class Trajectory:
    """Solution samples in the universal cover."""

    ts: np.ndarray
    points: np.ndarray  # (n, 3), unwrapped

    @property
    def final(self) -> np.ndarray:
        return self.points[-1]


def flow(u, x0, T: float, tol: float = 1e-10,
         n_samples: int | None = None) -> Trajectory:
    """Integrate dx/dt = u(x) from x0 for a time T (finite, > 0) with local
    error <= tol, sampled at linspace(0, T, n_samples) or, without
    n_samples, at 0 and T: one lane of solve_lanes, the same bit for bit
    as an orbit scan's lane. u is a field or a jet taking points (P, 3)."""
    jet = as_jet(u)
    return _one_lane(lambda _, y: jet.value(y), x0, T, n_samples,
                     rtol=tol, atol=tol * 1e-2)[0]


def variational_flow(u, x0, T: float, *, rtol: float = 1e-11,
                     atol: float = 1e-12, n_samples: int | None = None):
    """Flow and linearized flow for a time T (finite, > 0), sampled as flow
    is, as one lane of solve_lanes, which no other lane changes:
    (Trajectory, Ms) with Ms[i] the 3x3 state transition matrix from time
    0 to ts[i]. u is a field or a jet (value and value_and_jacobian, each
    at a point or at rows), evaluated by value_and_jacobian at rows."""
    jet = as_jet(u)

    def rhs(_, y):
        vals, jacs = jet.value_and_jacobian(y[:, :3])
        return np.concatenate(
            [vals, (jacs @ y[:, 3:].reshape(-1, 3, 3)).reshape(-1, 9)], axis=1)

    traj, ys = _one_lane(rhs, np.r_[x0, np.eye(3).ravel()], T, n_samples,
                         rtol=rtol, atol=atol)
    return traj, ys[:, 3:].reshape(-1, 3, 3)


def _one_lane(rhs, y0, T, n_samples, *, rtol, atol):
    """solve_lanes on the one lane y0: the Trajectory of its first three
    components and its samples. StiffnessError when the lane fails."""
    n_samples = 2 if n_samples is None else n_samples
    (ys,), (failed,) = solve_lanes(rhs, [y0], T, n_samples, rtol=rtol, atol=atol)
    if failed:
        raise StiffnessError(f"the integration from {y0[:3]} failed before T = {T}")
    return Trajectory(ts=np.linspace(0.0, T, n_samples), points=ys[:, :3]), ys


# Step-size control of scipy's RungeKutta solvers (Hairer, Norsett and
# Wanner, Solving ODEs I, II.4), which solve_lanes applies per lane with
# the DOP853 tableau of curllab._dop853.
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10.0
ERROR_EXPONENT = -1.0 / 8.0  # DOP853's error estimator has order 7


def _combine(weights: np.ndarray, stages: np.ndarray) -> np.ndarray:
    """sum_s weights[s] stages[s], each lane's entries on their own."""
    return np.add.reduce(weights[:, None, None] * stages[:len(weights)], axis=0)


def _rms(v: np.ndarray) -> np.ndarray:
    return np.sqrt(np.add.reduce(v * v, axis=1) / v.shape[1])


def _powers(values: np.ndarray, exponent: float) -> np.ndarray:
    """values ** exponent in Python floats: a lane's result does not depend
    on how numpy vectorizes the batch it sits in."""
    return np.array([v ** exponent for v in values.tolist()])


def _initial_steps(rhs, y0, f0, T, rtol, atol) -> np.ndarray:
    """scipy's select_initial_step for every lane: one extra RHS call."""
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    small = (d0 < 1e-5) | (d1 < 1e-5)
    h0 = np.minimum(np.where(small, 1e-6, 0.01 * d0 / np.where(small, 1.0, d1)), T)
    f1 = rhs(np.arange(len(y0)), y0 + h0[:, None] * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    flat = (d1 <= 1e-15) & (d2 <= 1e-15)
    h1 = np.where(flat, np.maximum(1e-6, h0 * 1e-3), _powers(
        0.01 / np.where(flat, 1.0, np.maximum(d1, d2)), 1.0 / 8.0))
    return np.minimum(np.minimum(100 * h0, h1), T)


def check_horizon(T, name: str):
    """T, or a ValueError naming it unless it is a finite real > 0 (not a
    bool)."""
    if (isinstance(T, bool) or not isinstance(T, numbers.Real)
            or not 0.0 < T < np.inf):
        raise ValueError(f"{name} must be a finite real > 0, got {T!r}")
    return T


def parse_section(spec) -> tuple[int, float]:
    """(axis, offset) of a section plane {"axis": 0|1|2|"x"|"y"|"z" (or a
    digit string; default 2), "offset": finite real, not a bool, or its
    decimal string (default 0)}; else ValueError. The CLI parses
    --section with it too."""
    axis = spec.get("axis", 2)
    names = ("x", "y", "z")
    if isinstance(axis, (bool, float)) or axis not in (0, 1, 2, "0", "1", "2",
                                                       *names):
        raise ValueError(f"section axis must be 0, 1, 2, x, y or z, got {axis!r}")
    offset = given = spec.get("offset", 0.0)
    if isinstance(offset, str):
        try:
            offset = float(offset)
        except ValueError:
            pass
    if (isinstance(offset, bool) or not isinstance(offset, numbers.Real)
            or not np.isfinite(offset)):
        raise ValueError(f"section offset must be a finite real, got {given!r}")
    return names.index(axis) if axis in names else int(axis), float(offset)


def solve_lanes(rhs, y0, T: float, n_samples: int, *, rtol: float,
                atol: float):
    """DOP853 on every row of y0 (P, d) over [0, T], the rows as lanes.

    rhs(lanes, Y) returns the derivatives of the autonomous system at
    the rows Y of the lanes named by the index array lanes. Each lane
    has its own step size, accept/reject decision and finish, under the
    rules of scipy's DOP853 (its tableau, copied into curllab._dop853,
    its initial step and its step control),
    and is sampled at linspace(0, T, n_samples) by the method's dense
    output; only a step that passes a sample time pays its three extra
    stages. A lane whose state or error estimate turns non-finite, or
    whose step falls below ten spacings of floats at its time, is marked
    failed and dropped; the others go on. Every lane operation acts on
    each lane's own entries, and rhs must do the same, so a lane's
    numbers do not depend on which lanes share the solve.

    Returns the samples (P, n_samples, d), NaN after a lane fails, and
    the failed mask (P,). T must be finite and > 0 and n_samples an
    integer >= 2 (ValueError): no caller integrates backward.
    """
    check_horizon(T, "T")
    check_count(n_samples, "n_samples", 2)
    y = np.array(y0, dtype=float)
    n_lanes, dim = y.shape
    ts = np.linspace(0.0, T, n_samples)
    samples = np.full((n_lanes, n_samples, dim), np.nan)
    failed = np.zeros(n_lanes, bool)
    if n_lanes == 0:
        return samples, failed
    samples[:, 0] = y
    A, B, n_stages = dop853.A, dop853.B, dop853.N_STAGES
    # non-finite values are expected from a failing lane and handled here
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        f = rhs(np.arange(n_lanes), y)
        h = _initial_steps(rhs, y, f, T, rtol, atol)
        t = np.zeros(n_lanes)
        retry = np.zeros(n_lanes, bool)  # the lane's last attempt was rejected
        next_sample = np.ones(n_lanes, int)
        failed[:] = ~np.isfinite(h)
        live = np.flatnonzero(~failed)
        while live.size:
            t0 = t[live]
            min_step = 10 * np.abs(np.nextafter(t0, np.inf) - t0)
            step = np.where(retry[live], h[live], np.maximum(h[live], min_step))
            underflow = step < min_step
            failed[live[underflow]] = True
            live, t0, step = live[~underflow], t0[~underflow], step[~underflow]
            if not live.size:
                break
            y_old = y[live]
            t1 = np.minimum(t0 + step, T)
            step = t1 - t0
            K = np.empty((dop853.N_STAGES_EXTENDED, live.size, dim))
            K[0] = f[live]
            for s in range(1, n_stages):
                K[s] = rhs(live, y_old + _combine(A[s, :s], K) * step[:, None])
            y_new = y_old + step[:, None] * _combine(B, K)
            K[n_stages] = rhs(live, y_new)
            scale = atol + np.maximum(np.abs(y_old), np.abs(y_new)) * rtol
            err5 = _combine(dop853.E5, K) / scale
            err3 = _combine(dop853.E3, K) / scale
            sq5 = np.add.reduce(err5 * err5, axis=1)
            sq3 = np.add.reduce(err3 * err3, axis=1)
            denom = sq5 + 0.01 * sq3
            error = np.where(denom > 0, step * sq5 / np.sqrt(
                np.where(denom > 0, denom, 1.0) * dim), 0.0)
            bad = ~np.isfinite(error) | ~np.isfinite(y_new).all(axis=1)
            accept = ~bad & (error < 1)
            grow = SAFETY * _powers(np.where(error > 0, error, np.inf),
                                    ERROR_EXPONENT)
            grow[error == 0] = MAX_FACTOR
            factor = np.where(accept, np.minimum(MAX_FACTOR, grow),
                              np.maximum(MIN_FACTOR, grow))
            factor = np.where(accept & retry[live], np.minimum(1.0, factor),
                              factor)
            h[live] = step * factor
            retry[live] = ~accept
            failed[live[bad]] = True
            done = np.flatnonzero(accept)
            if done.size:
                _dense_samples(rhs, live[done], K[:, done], y_old[done],
                               y_new[done], t0[done], t1[done], ts,
                               next_sample, samples)
                lanes = live[done]
                t[lanes], y[lanes], f[lanes] = t1[done], y_new[done], K[n_stages, done]
            live = live[~bad & ~(accept & (t1 >= T))]
    return samples, failed


def _dense_samples(rhs, lanes, K, y_old, y_new, t0, t1, ts, next_sample,
                   samples) -> None:
    """Fill the samples in (t0, t1] of lanes that just accepted a step,
    with DOP853's dense output, as scipy's Dop853DenseOutput forms it."""
    count = np.searchsorted(ts, t1, side="right") - next_sample[lanes]
    has = count > 0
    if not has.any():
        return
    lanes, count, K, y0 = lanes[has], count[has], K[:, has], y_old[has]
    t0, step = t0[has], (t1 - t0)[has]
    h = step[:, None]
    for s in range(dop853.N_STAGES + 1, dop853.N_STAGES_EXTENDED):
        K[s] = rhs(lanes, y0 + _combine(dop853.A[s, :s], K) * h)
    delta = y_new[has] - y0
    F = [delta, h * K[0] - delta, 2 * delta - h * (K[dop853.N_STAGES] + K[0])]
    F += [h * _combine(d, K) for d in dop853.D]
    # one row per (lane, sample) pair
    row = np.repeat(np.arange(lanes.size), count)
    index = next_sample[lanes][row] + (
        np.arange(row.size) - np.repeat(np.cumsum(count) - count, count))
    x = ((ts[index] - t0[row]) / step[row])[:, None]
    y = np.zeros((row.size, y0.shape[1]))
    for i, coef in enumerate(reversed(F)):
        y += coef[row]
        y *= x if i % 2 == 0 else 1 - x
    samples[lanes[row], index] = y + y0[row]
    next_sample[lanes] += count


# ---------------------------------------------------------------------------
# Fixed points
# ---------------------------------------------------------------------------


@dataclass
class FixedPointRecord:
    location: np.ndarray
    jacobian: np.ndarray
    eigenvalues: np.ndarray
    classification: str  # saddle | degenerate | non-hyperbolic
    nondegenerate: bool
    residual: float

    def to_json_dict(self) -> dict:
        return {
            "location": [float(v) for v in self.location],
            "jacobian": [[float(v) for v in row] for row in self.jacobian],
            "eigenvalues": [[float(e.real), float(e.imag)]
                            for e in self.eigenvalues],
            "classification": self.classification,
            "nondegenerate": self.nondegenerate,
            "residual": self.residual,
        }

    @classmethod
    def at(cls, x, value, jacobian) -> "FixedPointRecord":
        """The record of a zero at x from u(x) and Du(x), classified by the
        eigenvalues of Du against EIG_TOL: the search's one saddle rule."""
        eigs = np.linalg.eigvals(jacobian)
        nondegenerate = bool(np.abs(eigs).min() > EIG_TOL)
        if not nondegenerate:
            kind = "degenerate"
        elif eigs.real.max() > EIG_TOL and eigs.real.min() < -EIG_TOL:
            kind = "saddle"
        else:
            kind = "non-hyperbolic"
        return cls(location=x, jacobian=jacobian, eigenvalues=eigs,
                   classification=kind, nondegenerate=nondegenerate,
                   residual=float(np.linalg.norm(value)))


class NewtonZero(NamedTuple):
    """Outcome of newton_zero: the last iterate, u and Du there, and the
    smallest |u| met on the way."""

    x: np.ndarray
    value: np.ndarray
    jacobian: np.ndarray
    best: float
    converged: bool


def newton_zero(jet, x, *, tol: float, max_iter: int,
                max_step: float = np.inf) -> NewtonZero:
    """Newton iteration for a zero of a field jet, starting at x.

    Stops when |u| <= tol (converged), after max_iter evaluations, when a
    step is longer than max_step, or when six iterations have not cut |u|
    by a factor 4 (Newton converges quadratically near a nondegenerate
    zero, so a slower iteration is stalling). A singular Jacobian gives
    the least-squares step. Never raises on non-convergence.
    """
    x = np.asarray(x, float)
    best = np.inf
    for it in range(max_iter):
        val, jac = jet.value_and_jacobian(x)
        norm = float(np.linalg.norm(val))
        if it == 0:
            initial = norm
        best = min(best, norm)
        converged = norm <= tol
        if converged or it + 1 == max_iter or (it >= 6 and norm > 0.25 * initial):
            break
        try:
            step = np.linalg.solve(jac, -val)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(jac, -val, rcond=None)
        if np.linalg.norm(step) > max_step:
            break
        x = x + step
    return NewtonZero(x, val, jac, best, converged)


def find_fixed_points(u, grid_density: int = 24) -> list[FixedPointRecord]:
    """Zeros of a vector field (a FourierField or its FieldJet) with their
    linearizations.

    Seeds Newton iteration (analytic Jacobian from the differentiated
    series) at local minima of |u| on a coarse grid, slowest first and
    capped at MAX_SEEDS (a flat speed landscape would otherwise seed
    everywhere); divergent or stalling seeds are dropped, converged
    points are deduplicated on the torus and classified by the Jacobian
    spectrum.
    """
    jet = as_jet(u)
    grid = CollocationGrid(_next_odd(max(grid_density, 2 * jet.truncation + 1)))
    speed = np.linalg.norm(jet.field.sample(grid), axis=0)
    is_min = np.ones_like(speed, bool)
    for axis in range(3):
        for shift in (1, -1):
            is_min &= speed <= np.roll(speed, shift, axis=axis)
    seeds = np.argwhere(is_min)
    if len(seeds) > MAX_SEEDS:
        order = np.argsort(speed[is_min], kind="stable")[:MAX_SEEDS]
        seeds = seeds[order]

    records: list[FixedPointRecord] = []
    for loc in seeds:
        x0 = np.array([grid.axis_points[i] for i in loc])
        hit = newton_zero(jet, x0, tol=NEWTON_TOL, max_iter=MAX_NEWTON,
                          max_step=1.0)
        if not hit.converged:
            log.debug("fixed-point seed at %s discarded (no convergence)", hit.x)
            continue
        x = np.mod(hit.x, TAU)
        if any(torus_distance(x, r.location) < DEDUP_TOL for r in records):
            continue
        records.append(FixedPointRecord.at(x, *jet.value_and_jacobian(x)))
    records.sort(key=lambda r: tuple(np.round(r.location, 8)))
    return records


# ---------------------------------------------------------------------------
# Periodic orbits
# ---------------------------------------------------------------------------


@dataclass
class PeriodicOrbitRecord:
    seed: np.ndarray              # a point on the orbit, in [0, 2pi)^3
    period: float
    winding: tuple                # integer homology class
    trajectory: np.ndarray        # dense samples over one period (lifted)
    ts: np.ndarray
    monodromy: np.ndarray         # 3x3
    transverse_map: np.ndarray    # 2x2
    multipliers: np.ndarray       # eigenvalues of the transverse map
    orbit_type: str               # positive-hyperbolic | negative-hyperbolic |
                                  # elliptic | degenerate
    nondegenerate: bool
    return_residual: float
    flow_multiplier_residual: float
    det_transverse: float

    def to_json_dict(self, include_trajectory: bool = False) -> dict:
        rec = {
            "seed": [float(v) for v in self.seed],
            "period": self.period,
            "winding": [int(w) for w in self.winding],
            "multipliers": [[float(m.real), float(m.imag)]
                            for m in self.multipliers],
            "orbit_type": self.orbit_type,
            "nondegenerate": self.nondegenerate,
            "return_residual": self.return_residual,
            "flow_multiplier_residual": self.flow_multiplier_residual,
            "det_transverse": self.det_transverse,
            "monodromy": [[float(v) for v in row] for row in self.monodromy],
            "transverse_map": [[float(v) for v in row]
                               for row in self.transverse_map],
        }
        if include_trajectory:
            rec["trajectory"] = self.trajectory.tolist()
            rec["ts"] = self.ts.tolist()
        return rec


def _orthonormal_complement(v: np.ndarray):
    """Orthonormal (e1, e2) spanning the plane perpendicular to v, with
    (v, e1, e2) right-handed; e1 comes from the axis least aligned with v."""
    n = v / np.linalg.norm(v)
    ref = np.eye(3)[int(np.argmin(np.abs(n)))]
    e1 = ref - n * (n @ ref)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(n, e1)
    return e1, e2


def _project_return_map(M: np.ndarray, u0: np.ndarray, e1, e2) -> np.ndarray:
    """Linearized return map on the section plane span(e1, e2), projecting
    along the flow direction u0.

    With M u0 = u0 the eigenvalues of the result are the transverse
    multipliers of M whatever plane transverse to u0 is chosen: a change of
    plane conjugates the map by the projection along u0 between the two."""
    B = np.column_stack([u0, e1, e2])
    cols = np.linalg.solve(B, M @ np.column_stack([e1, e2]))
    return cols[1:, :]


def _classify_multipliers(mults: np.ndarray, mult_tol: float):
    nondeg = bool(np.abs(mults - 1.0).min() > mult_tol)
    if not nondeg:
        return "degenerate", False
    real = np.abs(mults.imag).max() <= mult_tol * np.abs(mults).max()
    off_circle = np.all(np.abs(np.abs(mults) - 1.0) > mult_tol)
    if real and off_circle:
        kind = "positive-hyperbolic" if mults.real.min() > 0 else "negative-hyperbolic"
        return kind, True
    return "elliptic", True


def _close_return_candidates(traj: Trajectory):
    disp = traj.points - traj.points[0]
    lattice = np.round(disp / TAU)
    resid = np.linalg.norm(disp - TAU * lattice, axis=1)
    out = []
    for i in range(1, len(resid) - 1):
        if traj.ts[i] < ORBIT_T_MIN:
            continue
        if resid[i] <= resid[i - 1] and resid[i] <= resid[i + 1] \
                and resid[i] < CLOSE_TOL:
            out.append((traj.ts[i], lattice[i].astype(int), resid[i]))
    out.sort(key=lambda c: c[0])
    filtered = []
    for cand in out:
        if all(abs(cand[0] - f[0]) > 0.5 for f in filtered):
            filtered.append(cand)
        if len(filtered) >= MAX_CANDIDATES_PER_SEED:
            break
    return filtered


def _newton_shoot(jet, x0, T0, winding, *, orbit_tol, rtol, atol):
    """Newton iteration on (point, period) for phi_T(x) = x + 2 pi w."""
    x = np.asarray(x0, float).copy()
    T = float(T0)
    target = TAU * np.asarray(winding, float)
    for _ in range(SHOOT_MAX_ITER):
        if not np.isfinite(T) or T <= 1e-3 or T > MAX_PERIOD_GROWTH * max(T0, 1.0):
            return None
        traj, Ms = variational_flow(jet, x, T, rtol=rtol, atol=atol)
        F = traj.final - x - target
        if np.linalg.norm(F) <= orbit_tol:
            return x, T, float(np.linalg.norm(F))
        u_end = jet.value(traj.final)
        u_here = jet.value(x)
        J = np.zeros((4, 4))
        J[:3, :3] = Ms[-1] - np.eye(3)
        J[:3, 3] = u_end
        J[3, :3] = u_here
        rhs = np.concatenate([-F, [0.0]])
        step, *_ = np.linalg.lstsq(J, rhs, rcond=None)
        norm = np.linalg.norm(step)
        if norm > 0.75:
            step *= 0.75 / norm
        x = x + step[:3]
        T = T + step[3]
    return None


def _reduce_to_primitive(jet, x, T, winding):
    """Replace an orbit by its primitive period when it is a multiple cover."""
    for n in range(6, 1, -1):
        if T / n < 0.5:
            continue
        if np.any(np.asarray(winding) % n != 0):
            continue
        probe = flow(jet, x, T / n, tol=1e-10)
        resid = probe.final - x - TAU * np.asarray(winding) / n
        if np.linalg.norm(resid) < 1e-2:
            hit = _newton_shoot(
                jet, x, T / n, np.asarray(winding) // n,
                orbit_tol=ORBIT_TOL, rtol=1e-11, atol=1e-12,
            )
            if hit is not None:
                return _reduce_to_primitive(jet, *hit[:2], np.asarray(winding) // n)
    return x, T, np.asarray(winding, int)


def _orbit_distance(record: PeriodicOrbitRecord, x: np.ndarray) -> float:
    """Distance from a point to an orbit curve, parabolic-refined."""
    pts = record.trajectory
    d = np.linalg.norm(
        (pts - x + np.pi) % TAU - np.pi, axis=1
    )
    i = int(np.argmin(d))
    lo, hi = max(i - 1, 0), min(i + 1, len(d) - 1)
    if lo == i or hi == i:
        return float(d[i])
    d0, d1, d2 = d[lo] ** 2, d[i] ** 2, d[hi] ** 2
    denom = d0 - 2 * d1 + d2
    if denom <= 0:
        return float(d[i])
    t = 0.5 * (d0 - d2) / denom
    val = d1 - 0.25 * (d0 - d2) * t
    return float(np.sqrt(max(val, 0.0)))


def find_periodic_orbits(
    u,
    T_max: float = 30.0,
    section_spec=None,
    n_seeds: int = 16,
    *,
    seed: int = 0,
) -> list[PeriodicOrbitRecord]:
    """Periodic orbits up to T_max by close-return scanning plus shooting:
    find_periodic_orbits_batch on a batch of one, whose error is raised.

    Seeds are drawn uniformly (deterministic in `seed`) or on a section
    plane given as {"axis": 0|1|2|"x"|"y"|"z", "offset": float}, and
    flowed as the lanes of one solve. Close returns are detected in the
    universal cover with integer winding match, refined by Newton
    shooting on (point, period), reduced to primitive period,
    deduplicated by orbit distance, and classified by the return map on
    the section plane u0-perp (orthogonal to the flow direction u0 at the
    orbit seed). A failed seed lane and shooting failures are counted
    in find_periodic_orbits_batch's stats, never raised. Degenerate
    (multiplier-one) orbits are legitimate results: integrable fields
    produce whole families of them. T_max must be finite and > 0,
    n_seeds an integer >= 0 and a section's offset finite (ValueError).
    """
    check_horizon(T_max, "T_max")
    check_count(n_seeds, "n_seeds")
    (found,) = find_periodic_orbits_batch(
        [u], [_orbit_seeds(n_seeds, seed, section_spec)], T_max)
    if isinstance(found, Exception):
        raise found
    return found[0]


def find_periodic_orbits_batch(jets, seeds, T_max: float) -> list:
    """find_periodic_orbits for several jets (or fields) at once, jets[k]
    scanned from the points seeds[k] (n_k, 3), every scan over [0, T_max].

    The scans run as the lanes of one solve_lanes whose right-hand side
    is the values of a JetStack of the lanes' jets, one stacked kernel
    call per truncation; an error of that solve is raised. A lane's
    numbers do not depend on the lanes beside it, so a jet finds the
    same orbits alone or in any batch. Each jet then shoots its own
    candidates: entry k of the result is (records, stats) for jets[k],
    stats its counts of "candidates", "unresolved" and "duplicates", or
    the exception its shooting raised. T_max must be finite and > 0
    (ValueError).
    """
    check_horizon(T_max, "T_max")
    jets = [as_jet(u) for u in jets]
    stack = JetStack([jet for jet, x_seeds in zip(jets, seeds) for _ in x_seeds])
    n_scan = max(int(T_max / 0.05), 64)
    scans, failed = solve_lanes(stack.values, np.concatenate(seeds), T_max, n_scan,
                                rtol=SCAN_TOL, atol=SCAN_TOL * 1e-2)  # as in flow
    ts = np.linspace(0.0, T_max, n_scan)
    cuts = np.cumsum([len(x_seeds) for x_seeds in seeds])[:-1]
    found: list = []
    for jet, x_seeds, lanes, lost in zip(jets, seeds, np.split(scans, cuts),
                                         np.split(failed, cuts)):
        try:
            found.append(_shoot_candidates(jet, x_seeds, ts, lanes, lost))
        except Exception as err:  # reported per jet, as the caller decides
            found.append(err)
    return found


def _orbit_seeds(n_seeds: int, seed: int, section_spec=None) -> np.ndarray:
    """The scan seeds (n_seeds, 3) of a search: a grid on its section
    plane, or uniform draws from its seed."""
    if section_spec is None:
        return np.random.default_rng(seed).uniform(0.0, TAU, size=(n_seeds, 3))
    axis, offset = parse_section(section_spec)
    side = max(int(np.ceil(np.sqrt(n_seeds))), 1)
    coords = TAU * (np.arange(side) + 0.5) / side
    a, b = np.meshgrid(coords, coords, indexing="ij")
    seeds = np.zeros((side * side, 3))
    others = [i for i in range(3) if i != axis]
    seeds[:, others[0]] = a.ravel()
    seeds[:, others[1]] = b.ravel()
    seeds[:, axis] = offset
    return seeds[:n_seeds] if n_seeds < len(seeds) else seeds


def _shoot_candidates(jet, seeds, ts, scans, failed):
    """The orbits of one search from its scanned seed lanes, and its
    stats: shoot each close return, reduce, deduplicate and classify. A
    candidate whose flows fail (StiffnessError) is unresolved."""
    stats = {"candidates": 0, "unresolved": 0, "duplicates": 0}
    records: list[PeriodicOrbitRecord] = []
    for x_seed, points, lost in zip(seeds, scans, failed):
        if lost:
            stats["unresolved"] += 1
            continue
        for T0, winding, _ in _close_return_candidates(Trajectory(ts, points)):
            stats["candidates"] += 1
            try:
                found = _shoot_record(jet, x_seed, T0, winding, records)
            except StiffnessError:
                found = "unresolved"
            if isinstance(found, str):
                stats[found] += 1
            else:
                records.append(found)
    records.sort(key=lambda r: (round(r.period, 6), tuple(np.round(r.seed, 6))))
    return records, stats


def _shoot_record(jet, x_seed, T0, winding, records):
    """The record of the orbit through one close return, or the stats key
    it counts under: "unresolved" or "duplicates" of one of records."""
    hit = _newton_shoot(jet, x_seed, T0, winding,
                        orbit_tol=ORBIT_TOL, rtol=1e-11, atol=1e-12)
    if hit is None:
        log.debug("unresolved close return near T=%.3f from %s", T0, x_seed)
        return "unresolved"
    x, T, _ = hit
    x, T, winding = _reduce_to_primitive(jet, x, T, winding)
    x_mod = np.mod(x, TAU)
    if any(
        abs(T - r.period) < 1e-5 * max(1.0, T)
        and tuple(winding) == tuple(r.winding)
        and _orbit_distance(r, x_mod) < 1e-3
        for r in records
    ):
        return "duplicates"
    dense, Ms = variational_flow(jet, x_mod, T, rtol=1e-11, atol=1e-12,
                                 n_samples=N_RECORD_SAMPLES)
    return_residual = float(np.linalg.norm(
        dense.points[-1] - x_mod - TAU * np.asarray(winding, float)
    ))
    if return_residual > 10 * ORBIT_TOL:
        return "unresolved"
    M = Ms[-1]
    u0 = jet.value(x_mod)
    flow_res = float(np.linalg.norm(M @ u0 - u0) / np.linalg.norm(u0))
    P = _project_return_map(M, u0, *_orthonormal_complement(u0))
    mults = np.linalg.eigvals(P)
    orbit_type, nondeg = _classify_multipliers(mults, MULT_TOL)
    return PeriodicOrbitRecord(
        seed=x_mod,
        period=float(T),
        winding=tuple(int(w) for w in winding),
        trajectory=dense.points,
        ts=dense.ts,
        monodromy=M,
        transverse_map=P,
        multipliers=mults,
        orbit_type=orbit_type,
        nondegenerate=nondeg,
        return_residual=return_residual,
        flow_multiplier_residual=flow_res,
        det_transverse=float(np.linalg.det(P)),
    )


# ---------------------------------------------------------------------------
# Conley-Zehnder index
# ---------------------------------------------------------------------------


def cz_index_from_path(psis: np.ndarray) -> int:
    """Conley-Zehnder index of a sampled symplectic path Psi(t), Psi(0) = 1.

    Rotation-number rule (Hofer-Wysocki-Zehnder 1995): follow one vector
    v under the path and count its turns, the summed angle steps of
    Psi(t_i) v over 2 pi. For a hyperbolic endpoint (|tr Psi(T)| > 2) v is
    a real eigenvector of Psi(T), which returns to +-v, and the index is
    2 * turns rounded; otherwise v = e1, turns is never an integer, and
    the index is 2 floor(turns) + 1. The endpoint must be nondegenerate,
    and no angle step may exceed pi / 2, or the path is sampled too
    coarsely to unwrap (ValueError either way).
    """
    psis = np.asarray(psis, float)
    end = psis[-1]
    # det(Psi(T) - 1) in closed form: LAPACK's LU divides by a subnormal
    # pivot. It is judged against Psi(T) alone, so whole loops appended to
    # a path cannot change the verdict
    d = end - np.eye(2)
    if abs(d[0, 0] * d[1, 1] - d[0, 1] * d[1, 0]) <= CZ_DEG_TOL * max(
            np.abs(end).max(), 1.0):
        raise ValueError("endpoint has a unit multiplier: degenerate path")
    hyperbolic = abs(np.trace(end)) > 2.0
    v = np.linalg.eig(end)[1][:, 0].real if hyperbolic else np.array([1.0, 0.0])
    w = psis @ v
    steps = np.diff(np.arctan2(w[:, 1], w[:, 0]))
    steps = (steps + np.pi) % TAU - np.pi
    if np.abs(steps).max(initial=0.0) > np.pi / 2:
        raise ValueError("path sampled too coarsely: an angle step exceeds "
                         "pi / 2")
    turns = steps.sum() / TAU
    return int(np.rint(2 * turns)) if hyperbolic else 2 * int(np.floor(turns)) + 1
