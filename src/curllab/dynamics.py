"""Flowlines, fixed points, periodic orbits, and their linearized invariants.

Vector fields are integrated in the universal cover (positions are never
wrapped during integration, so winding numbers come for free) with
adaptive embedded Runge-Kutta stepping. Recurrence analysis proceeds in
two phases: a cheap close-return scan over seed trajectories, then
Newton shooting on (point, period) with a phase condition, using the
monodromy from the variational equations as the exact Jacobian.

Orbits are classified through the linearized return map on a transverse
plane: Floquet multipliers, area preservation, nondegeneracy, and
hyperbolicity type. For orbits of Reeb-rescalable fields the
Conley-Zehnder index is computed from the symplectic path the
linearized flow traces on the contact planes, via the crossing-form
(signature counting) algorithm.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.integrate import solve_ivp

from .errors import FrameError, NotContactError, StiffnessError
from .fields import TAU, CollocationGrid, FourierField, _next_odd, as_jet

log = logging.getLogger(__name__)

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
CZ_SAMPLES = 1600    # samples of the linearized Reeb flow for the CZ index
CZ_DEG_TOL = 1e-8    # |det(Psi(T) - 1)| / scale of a degenerate endpoint
CZ_CROSS_TOL = 1e-3  # |det(Psi - 1)| / scale of a touching crossing
CZ_KERNEL_SIGMA = 1e-3  # relative singular value spanning a crossing's kernel

_OMEGA = np.array([[0.0, 1.0], [-1.0, 0.0]])  # omega(v, w) = v^T OMEGA w


def torus_distance(a, b) -> float:
    d = np.asarray(a, float) - np.asarray(b, float)
    d = (d + np.pi) % TAU - np.pi
    return float(np.linalg.norm(d))


# ---------------------------------------------------------------------------
# Canonical analytic fields
# ---------------------------------------------------------------------------


def abc_field(A: float = 1.0, B: float = 1.0, C: float = 1.0) -> FourierField:
    """Three-term trigonometric Beltrami field, a flat curl eigenfield.

    u = (A sin z + C cos y, B sin x + A cos z, C sin y + B cos x).
    """
    entries = {
        (0, 0, 1, 0): -0.5j * A, (0, 1, 0, 0): 0.5 * C,
        (1, 0, 0, 1): -0.5j * B, (0, 0, 1, 1): 0.5 * A,
        (0, 1, 0, 2): -0.5j * C, (1, 0, 0, 2): 0.5 * B,
    }
    return FourierField.from_modes("vector", 1, entries)


def shear_field(k: int = 1) -> FourierField:
    """(sin kz, cos kz, 0): the Reeb field of the k-th tight form."""
    k = int(k)
    entries = {(0, 0, k, 0): -0.5j, (0, 0, k, 1): 0.5}
    return FourierField.from_modes("vector", abs(k), entries)


def named_field(spec: str) -> FourierField:
    """Parse "abc:A,B,C" or "xi:k" into a vector field."""
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
    def positions(self) -> np.ndarray:
        """Samples reduced to the fundamental domain."""
        return np.mod(self.points, TAU)

    @property
    def displacement(self) -> np.ndarray:
        return self.points[-1] - self.points[0]

    @property
    def winding(self) -> np.ndarray:
        """Integer lattice part of the net displacement."""
        return np.round(self.displacement / TAU).astype(int)

    @property
    def final(self) -> np.ndarray:
        return self.points[-1]


def _solve(rhs, y0, T, rtol, atol, t_eval=None):
    sol = solve_ivp(
        rhs, (0.0, T), np.asarray(y0, float), method="DOP853",
        rtol=rtol, atol=atol, t_eval=t_eval,
    )
    if not sol.success:
        raise StiffnessError(f"integrator failed: {sol.message}")
    return sol


def flow(u, x0, T: float, tol: float = 1e-10,
         n_samples: int | None = None) -> Trajectory:
    """Integrate dx/dt = u(x) from x0 for time T with local error <= tol."""
    jet = as_jet(u)

    def rhs(_, y):
        return jet.value(y)

    t_eval = np.linspace(0.0, T, n_samples) if n_samples else None
    sol = _solve(rhs, x0, T, rtol=tol, atol=tol * 1e-2, t_eval=t_eval)
    return Trajectory(ts=sol.t, points=sol.y.T)


def variational_flow(u, x0, T: float, *, rtol: float = 1e-11,
                     atol: float = 1e-12, n_samples: int | None = None):
    """Flow plus the fundamental solution of the linearized equations.

    Returns (Trajectory, Ms) with Ms[i] the 3x3 state transition matrix
    from time 0 to ts[i].
    """
    jet = as_jet(u)

    def rhs(_, y):
        x = y[:3]
        M = y[3:].reshape(3, 3)
        val, jac = jet.value_and_jacobian(x)
        return np.concatenate([val, (jac @ M).ravel()])

    y0 = np.concatenate([np.asarray(x0, float), np.eye(3).ravel()])
    t_eval = np.linspace(0.0, T, n_samples) if n_samples else None
    sol = _solve(rhs, y0, T, rtol=rtol, atol=atol, t_eval=t_eval)
    traj = Trajectory(ts=sol.t, points=sol.y[:3].T)
    Ms = sol.y[3:].T.reshape(-1, 3, 3)
    return traj, Ms


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


def _classify_fixed_point(eigs: np.ndarray, eig_tol: float) -> tuple[str, bool]:
    nondeg = bool(np.abs(eigs).min() > eig_tol)
    if not nondeg:
        return "degenerate", False
    if eigs.real.max() > eig_tol and eigs.real.min() < -eig_tol:
        return "saddle", True
    return "non-hyperbolic", True


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
        val, jac = jet.value_and_jacobian(x)
        eigs = np.linalg.eigvals(jac)
        classification, nondeg = _classify_fixed_point(eigs, EIG_TOL)
        records.append(
            FixedPointRecord(
                location=x,
                jacobian=jac,
                eigenvalues=eigs,
                classification=classification,
                nondegenerate=nondeg,
                residual=float(np.linalg.norm(val)),
            )
        )
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


def monodromy(u, orbit: PeriodicOrbitRecord):
    """Monodromy matrix and transverse return map of a periodic orbit.

    The 3x3 matrix integrates the variational equations over one period;
    the 2x2 map restricts it to the section plane u0-perp (the orthogonal
    complement of the flow direction u0 at the seed), projecting along
    the flow.
    """
    jet = as_jet(u)
    u0 = jet.value(orbit.seed)
    if np.linalg.norm(u0) < 1e-10:
        raise FrameError("flow direction vanishes at the orbit seed; "
                         "projection ill-conditioned")
    _, Ms = variational_flow(jet, orbit.seed, orbit.period)
    M = Ms[-1]
    return M, _project_return_map(M, u0, *_orthonormal_complement(u0))


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
    diagnostics: dict | None = None,
) -> list[PeriodicOrbitRecord]:
    """Periodic orbits up to T_max by close-return scanning plus shooting.

    Seeds are drawn uniformly (deterministic in `seed`) or on a section
    plane given as {"axis": 0|1|2|"x"|"y"|"z", "offset": float}. Close
    returns are detected in the universal cover with integer winding
    match, refined by Newton shooting on (point, period), reduced to
    primitive period, deduplicated by orbit distance, and classified by
    the return map on the section plane u0-perp (orthogonal to the flow
    direction u0 at the orbit seed).
    Shooting failures are recorded in `diagnostics` (when given), never
    raised. Degenerate (multiplier-one) orbits are legitimate results:
    integrable fields produce whole families of them.
    """
    jet = as_jet(u)
    rng = np.random.default_rng(seed)
    if section_spec is not None:
        axis = section_spec.get("axis", 2)
        if isinstance(axis, str):
            axis = "xyz".index(axis)
        offset = float(section_spec.get("offset", 0.0))
        side = max(int(np.ceil(np.sqrt(n_seeds))), 1)
        coords = TAU * (np.arange(side) + 0.5) / side
        a, b = np.meshgrid(coords, coords, indexing="ij")
        seeds = np.zeros((side * side, 3))
        others = [i for i in range(3) if i != axis]
        seeds[:, others[0]] = a.ravel()
        seeds[:, others[1]] = b.ravel()
        seeds[:, axis] = offset
        seeds = seeds[:n_seeds] if n_seeds < len(seeds) else seeds
    else:
        seeds = rng.uniform(0.0, TAU, size=(n_seeds, 3))

    stats = {"candidates": 0, "unresolved": 0, "duplicates": 0}
    records: list[PeriodicOrbitRecord] = []
    for x_seed in seeds:
        n_scan = max(int(T_max / 0.05), 64)
        try:
            traj = flow(jet, x_seed, T_max, tol=SCAN_TOL, n_samples=n_scan)
        except StiffnessError:
            stats["unresolved"] += 1
            continue
        for T0, winding, _ in _close_return_candidates(traj):
            stats["candidates"] += 1
            hit = _newton_shoot(
                jet, x_seed, T0, winding,
                orbit_tol=ORBIT_TOL, rtol=1e-11, atol=1e-12,
            )
            if hit is None:
                stats["unresolved"] += 1
                log.debug("unresolved close return near T=%.3f from %s",
                          T0, x_seed)
                continue
            x, T, _ = hit
            x, T, winding = _reduce_to_primitive(jet, x, T, winding)
            x_mod = np.mod(x, TAU)
            if any(
                abs(T - r.period) < 1e-5 * max(1.0, T)
                and tuple(winding) == tuple(r.winding)
                and _orbit_distance(r, x_mod) < 1e-3
                for r in records
            ):
                stats["duplicates"] += 1
                continue
            dense, Ms = variational_flow(
                jet, x_mod, T, rtol=1e-11, atol=1e-12,
                n_samples=N_RECORD_SAMPLES,
            )
            return_residual = float(np.linalg.norm(
                dense.points[-1] - x_mod - TAU * np.asarray(winding, float)
            ))
            if return_residual > 10 * ORBIT_TOL:
                stats["unresolved"] += 1
                continue
            M = Ms[-1]
            u0 = jet.value(x_mod)
            flow_res = float(
                np.linalg.norm(M @ u0 - u0) / np.linalg.norm(u0)
            )
            P = _project_return_map(M, u0, *_orthonormal_complement(u0))
            mults = np.linalg.eigvals(P)
            orbit_type, nondeg = _classify_multipliers(mults, MULT_TOL)
            records.append(
                PeriodicOrbitRecord(
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
            )
    records.sort(key=lambda r: (round(r.period, 6), tuple(np.round(r.seed, 6))))
    if diagnostics is not None:
        diagnostics.update(stats)
    return records


# ---------------------------------------------------------------------------
# Conley-Zehnder index
# ---------------------------------------------------------------------------


def _signature(gamma: np.ndarray, tol: float) -> int:
    eigs = np.linalg.eigvalsh(0.5 * (gamma + gamma.T))
    return int(np.sum(eigs > tol)) - int(np.sum(eigs < -tol))


def _quadratic_refine(ts, ys, i):
    """Vertex of the parabola through samples i-1, i, i+1."""
    t0, t1, t2 = ts[i - 1], ts[i], ts[i + 1]
    y0, y1, y2 = ys[i - 1], ys[i], ys[i + 1]
    denom = (y0 - 2 * y1 + y2)
    if abs(denom) < 1e-300:
        return t1
    dt = 0.5 * (y0 - y2) / denom * (t2 - t1)
    return float(np.clip(t1 + dt, t0, t2))


def _interp_matrix(ts, mats, t):
    i = int(np.clip(np.searchsorted(ts, t) - 1, 0, len(ts) - 2))
    w = (t - ts[i]) / (ts[i + 1] - ts[i])
    return (1 - w) * mats[i] + w * mats[i + 1]


def cz_index_from_path(ts: np.ndarray, psis: np.ndarray, generator=None) -> int:
    """Conley-Zehnder index of a symplectic path starting at the identity.

    Counts signed crossings of the eigenvalue-one variety: the signature
    of the crossing form (the symplectic pairing of kernel vectors
    against the path generator) at every interior crossing of
    det(Psi(t) - 1) = 0, plus half the signature at t = 0. `generator`
    may supply the exact logarithmic derivative A(t) = Psi' Psi^{-1};
    otherwise it is differenced from the samples. The endpoint must be
    nondegenerate.
    """
    ts = np.asarray(ts, float)
    psis = np.asarray(psis, float)
    n = len(ts)
    eye = np.eye(2)
    g = np.array([np.linalg.det(P - eye) for P in psis])
    g_scale = max(np.abs(g).max(), 1.0)
    if abs(g[-1]) <= CZ_DEG_TOL * g_scale:
        raise ValueError("endpoint has a unit multiplier: degenerate path")

    if generator is None:
        dpsi = np.gradient(psis, ts, axis=0)
        A_samples = np.einsum("tij,tjk->tik", dpsi, np.linalg.inv(psis))

        def generator(t):
            return _interp_matrix(ts, A_samples, t)

    # half-signature at the identity start
    gamma0 = _OMEGA @ generator(ts[0])
    total = 0.5 * _signature(gamma0, 1e-10 * max(1.0, np.abs(gamma0).max()))

    # scan for interior crossings once the path has clearly left t = 0
    threshold = CZ_CROSS_TOL * g_scale
    above = np.abs(g) > 10 * threshold
    first_live = int(np.argmax(above)) if above.any() else n
    crossings = []
    for i in range(max(first_live, 1), n - 1):
        sign_change = g[i] * g[i + 1] < 0 and abs(g[i]) > 0
        touch = (
            abs(g[i]) < threshold
            and abs(g[i]) <= abs(g[i - 1])
            and abs(g[i]) <= abs(g[i + 1])
        )
        if sign_change:
            # linear root between the samples
            t_star = ts[i] + (ts[i + 1] - ts[i]) * g[i] / (g[i] - g[i + 1])
            crossings.append(t_star)
        elif touch:
            crossings.append(_quadratic_refine(ts, np.abs(g), i))
    # merge crossings closer than the sampling step
    dt = ts[1] - ts[0] if n > 1 else 1.0
    merged = []
    for t_star in crossings:
        if not merged or t_star - merged[-1] > 2.5 * dt:
            merged.append(t_star)

    for t_star in merged:
        P = _interp_matrix(ts, psis, t_star)
        K = P - eye
        _, svals, vt = np.linalg.svd(K)
        kernel = vt[svals <= CZ_KERNEL_SIGMA * max(svals.max(), 1.0)]
        if kernel.shape[0] == 0:
            continue  # refinement found no true crossing
        A = generator(t_star)
        gamma = kernel @ (_OMEGA @ A) @ kernel.T
        scale = max(np.abs(gamma).max(), 1e-12)
        total += _signature(gamma, 1e-6 * scale)

    index = int(np.rint(total))
    if abs(total - index) > 1e-9:
        raise ValueError(f"crossing count did not sum to an integer: {total}")
    return index


def conley_zehnder(orbit: PeriodicOrbitRecord, contact_form, field,
                   metric=None) -> int:
    """Conley-Zehnder index of a nondegenerate orbit of a Reeb-rescalable field.

    The orbit must be tangent to the Reeb field of the contact form,
    which holds for orbits of a curl eigenfield paired with its dual
    form. The linearized Reeb flow is restricted to the contact planes
    in a global frame and the resulting symplectic path is fed to the
    crossing-form index.
    """
    from .contact import ContactFrameEvaluator, _as_form, reeb_rescaled
    from .fields import flat_metric

    if not orbit.nondegenerate:
        raise ValueError("Conley-Zehnder index needs a nondegenerate orbit")
    alpha = _as_form(contact_form)
    metric = metric or flat_metric()
    reeb = reeb_rescaled(field, metric)

    # contact pairing must not vanish along the orbit
    from .fields import exterior_d

    d_alpha = exterior_d(alpha)
    pairing = [
        np.dot(np.asarray(alpha.eval(p)), np.asarray(d_alpha.eval(p)))
        for p in orbit.trajectory[:: max(len(orbit.trajectory) // 64, 1)]
    ]
    if min(np.abs(pairing)) <= 0 or np.sign(pairing[0]) != np.sign(pairing[-1]):
        raise NotContactError("form is not contact along the orbit")

    # Reeb-time period: d(tau)/dt = alpha(u) along the orbit
    jet = as_jet(field)
    alpha_u = np.array([
        np.dot(np.asarray(alpha.eval(p)), jet.value(p))
        for p in orbit.trajectory
    ])
    T_reeb = float(np.trapezoid(alpha_u, orbit.ts))
    target = TAU * np.asarray(orbit.winding, float)
    x0 = orbit.seed
    for _ in range(8):
        traj = flow(reeb, x0, T_reeb, tol=1e-12)
        res = traj.final - x0 - target
        if np.linalg.norm(res) <= 1e-9:
            break
        Xv = reeb.value(traj.final)
        T_reeb -= float(Xv @ res) / float(Xv @ Xv)
    else:
        raise ValueError("could not refine the Reeb period of the orbit")

    traj, Ms = variational_flow(reeb, x0, T_reeb, n_samples=CZ_SAMPLES)
    frame = ContactFrameEvaluator(alpha)
    f1_0, f2_0 = frame.at(x0)
    F0 = np.column_stack([f1_0, f2_0])
    psis = np.empty((CZ_SAMPLES, 2, 2))
    leakage = 0.0
    for i, (p, M) in enumerate(zip(traj.points, Ms)):
        f1, f2 = frame.at(p)
        X = reeb.value(p)
        B = np.column_stack([X, f1, f2])
        C = np.linalg.solve(B, M @ F0)
        psis[i] = C[1:, :]
        leakage = max(leakage, float(np.abs(C[0]).max()))
    if leakage > 1e-4:
        raise FrameError(
            f"linearized flow leaks off the contact planes by {leakage:.2e}; "
            "the orbit is not a Reeb orbit of this form"
        )
    return cz_index_from_path(traj.ts, psis)
