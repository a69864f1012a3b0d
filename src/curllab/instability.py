"""Linear instability certificates for curl eigenfields.

The certification pipeline follows the case split of the underlying
instability criterion: a nondegenerate zero of a volume-preserving field
is automatically of saddle type and certifies instability; otherwise the
field rescales to a Reeb field and a nondegenerate hyperbolic periodic
orbit certifies it; otherwise high-frequency wave packets are
transported along flowlines and a positive growth exponent certifies it.
An inconclusive outcome carries the full search diagnostics and makes no
stability claim.

Certificates keep one clock. Eigenforms come normalized, so the speed of
the input field is arbitrary and a growth rate means nothing until a
time unit is fixed. Every stage runs on the unit-mean-speed rescaling
u / speed_scale, where speed_scale is the mean of |u| on the collocation
grid, and every time and rate in a certificate (saddle eigenvalues,
orbit periods and sample times, wave-packet exponents) is in that time,
the one in which the detection tolerances and the growth threshold
apply. The certificate records speed_scale; the input field's rate is
exponent * speed_scale.

The wave-packet (geometric optics) system transports a wavevector and an
incompressible amplitude along a trajectory:

    x' = u(x),  xi' = -(Du)^T xi,  b' = -(Du) b + 2 <(Du) b, xi> xi/|xi|^2,

in Euclidean proxy coordinates; growth-rate positivity is what feeds the
certificate and is insensitive to the (equivalent) norm used on a
compact domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .curlspec import EigenPair
from .dynamics import (
    EIG_TOL,
    MULT_TOL,
    NEWTON_TOL,
    ORBIT_TOL,
    FixedPointRecord,
    PeriodicOrbitRecord,
    _newton_shoot,
    _orthonormal_complement,
    find_fixed_points,
    find_periodic_orbits,
    newton_zero,
)
from .errors import HasZerosError, NotContactError, StiffnessError
from .fields import CollocationGrid, MetricField, as_jet, sharp
from scipy.integrate import solve_ivp

# growth-exponent threshold separating exponential from algebraic growth
WKB_THRESHOLD = 1e-2
WKB_T = 200.0
RENORM_INTERVAL = 1.0


@dataclass
class WKBResult:
    """Growth diagnostics of one wave-packet run."""

    exponent: float          # (1/T) log |b(T)| / |b(0)|, max over amplitudes
    tail_slope: float        # fitted log-growth rate on the second half
    ts: np.ndarray           # segment boundary times
    log_growth: np.ndarray   # (n_amplitudes, len(ts)) accumulated log |b|
    amplitude_orthogonality_drift: float  # max |b . xi| / (|b| |xi|)
    frequency_transport_drift: float      # max |xi . u - (xi . u)(0)|


def wkb_exponent(
    u,
    x0,
    xi0,
    T: float = WKB_T,
    n_amplitudes: int = 2,
    *,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    renorm_interval: float = RENORM_INTERVAL,
    return_details: bool = False,
):
    """Wave-packet growth exponent along one flowline.

    Integrates the transport system for n_amplitudes orthonormal initial
    amplitudes perpendicular to the initial wavevector, renormalizing
    the amplitudes every renorm_interval to avoid overflow. Returns the
    largest (1/T) log-growth ratio; with return_details=True a WKBResult
    with the growth history, the fitted tail slope (which discounts
    transient algebraic growth), and conservation drifts.
    """
    jet = as_jet(u)
    xi0 = np.asarray(xi0, float)
    if np.linalg.norm(xi0) == 0.0:
        raise ValueError("initial wavevector must be nonzero")
    n_amp = int(n_amplitudes)
    if not 1 <= n_amp <= 2:
        raise ValueError("between one and two independent amplitudes")
    bs = np.stack(_orthonormal_complement(xi0)[:n_amp])

    def rhs(_, y):
        x, xi = y[:3], y[3:6]
        b = y[6:].reshape(n_amp, 3)
        val, jac = jet.value_and_jacobian(x)
        db = -b @ jac.T
        proj = (b @ jac.T) @ xi  # <(Du) b_k, xi>
        db += np.outer(2.0 * proj / (xi @ xi), xi)
        return np.concatenate([val, -jac.T @ xi, db.ravel()])

    x0 = np.asarray(x0, float)
    y = np.concatenate([x0, xi0 / np.linalg.norm(xi0), bs.ravel()])
    n_segments = max(int(np.ceil(T / renorm_interval)), 1)
    edges = np.linspace(0.0, T, n_segments + 1)
    logs = np.zeros(n_amp)
    history = [logs.copy()]
    ortho_drift = 0.0
    # the transported frequency xi . u is conserved; the wavevector is
    # renormalized each segment (the amplitude equation only sees its
    # direction), so conservation is tracked through gauge-free
    # per-segment ratios accumulated in log space
    q_log_drift = 0.0
    trans_drift = 0.0
    q_tiny = 1e-9 * max(abs(float(y[3:6] @ jet.value(x0))), 1.0)
    for a, b_t in zip(edges[:-1], edges[1:]):
        q_start = float(y[3:6] @ jet.value(y[:3]))
        sol = solve_ivp(rhs, (a, b_t), y, method="DOP853", rtol=rtol, atol=atol)
        if not sol.success:
            raise StiffnessError(f"wave-packet integration failed: {sol.message}")
        y = sol.y[:, -1]
        if not np.all(np.isfinite(y)):
            raise StiffnessError("wave-packet state left the finite range")
        xi = y[3:6]
        xi_norm = np.linalg.norm(xi)
        if xi_norm == 0.0:
            raise StiffnessError(
                "wavevector collapsed to zero (caustic); exponent undefined"
            )
        q_end = float(xi @ jet.value(y[:3]))
        if abs(q_start) > q_tiny and abs(q_end) > 0 and q_end * q_start > 0:
            q_log_drift += abs(np.log(abs(q_end / q_start)))
        else:
            trans_drift = max(trans_drift, abs(q_end - q_start))
        bmat = y[6:].reshape(n_amp, 3)
        norms = np.linalg.norm(bmat, axis=1)
        logs += np.log(norms)
        history.append(logs.copy())
        y[6:] = (bmat / norms[:, None]).ravel()
        y[3:6] = xi / xi_norm
        ortho = np.abs(bmat @ xi) / (norms * xi_norm)
        ortho_drift = max(ortho_drift, float(ortho.max()))
    trans_drift = max(trans_drift, abs(float(np.expm1(q_log_drift))))

    log_growth = np.array(history).T  # (n_amp, n_segments + 1)
    exponent = float(log_growth[:, -1].max() / T)
    tail = edges >= 0.5 * T
    slopes = [
        float(np.polyfit(edges[tail], row[tail], 1)[0]) for row in log_growth
    ] if tail.sum() >= 2 else [exponent]
    result = WKBResult(
        exponent=exponent,
        tail_slope=float(max(slopes)),
        ts=edges,
        log_growth=log_growth,
        amplitude_orthogonality_drift=ortho_drift,
        frequency_transport_drift=trans_drift,
    )
    return result if return_details else result.exponent


# ---------------------------------------------------------------------------
# Certification pipeline
# ---------------------------------------------------------------------------


@dataclass
class CertifyBudget:
    """Search effort knobs for one certification run."""

    T_max: float = 50.0         # orbit-search horizon
    n_seeds: int = 64           # wave-packet sample trajectories
    orbit_seeds: int = 16       # recurrence-scan seed trajectories
    wkb_T: float = WKB_T
    wkb_threshold: float = WKB_THRESHOLD
    fixed_point_grid: int = 24
    seed: int = 0
    run_orbits: bool = True
    run_wkb: bool = True

    def to_json_dict(self):
        return {
            "T_max": self.T_max, "n_seeds": self.n_seeds,
            "orbit_seeds": self.orbit_seeds, "wkb_T": self.wkb_T,
            "wkb_threshold": self.wkb_threshold,
            "fixed_point_grid": self.fixed_point_grid, "seed": self.seed,
            "run_orbits": self.run_orbits, "run_wkb": self.run_wkb,
        }


@dataclass
class WKBWitness:
    x0: np.ndarray
    xi0: np.ndarray
    exponent: float
    tail_slope: float

    def to_json_dict(self):
        return {
            "x0": [float(v) for v in self.x0],
            "xi0": [float(v) for v in self.xi0],
            "exponent": self.exponent,
            "tail_slope": self.tail_slope,
        }


TOLERANCES = {
    "newton_tol": NEWTON_TOL,
    "orbit_tol": ORBIT_TOL,
    "mult_tol": MULT_TOL,
    "eig_tol": EIG_TOL,
    "wkb_threshold": WKB_THRESHOLD,
}


@dataclass
class InstabilityCertificate:
    """Outcome of one certification run; inconclusive makes no claim."""

    mechanism: str  # saddle_fixed_point | hyperbolic_orbit |
                    # positive_wkb_exponent | inconclusive
    witness: object
    exponent: float  # in unit-mean-speed time
    eigenvalue: float | None
    speed_scale: float  # mean speed of the input field; its rate is
                        # exponent * speed_scale
    tolerances: dict = dataclass_field(default_factory=lambda: dict(TOLERANCES))
    diagnostics: dict = dataclass_field(default_factory=dict)

    @property
    def certified(self) -> bool:
        return self.mechanism != "inconclusive"

    def to_json_dict(self) -> dict:
        witness = None
        if self.witness is not None:
            witness = self.witness.to_json_dict()
        return {
            "mechanism": self.mechanism,
            "witness": witness,
            "exponent": self.exponent,
            "eigenvalue": self.eigenvalue,
            "time_unit": "unit_mean_speed",
            "speed_scale": self.speed_scale,
            "tolerances": dict(self.tolerances),
            "diagnostics": self.diagnostics,
        }


def _verify_fixed_point(jet, record: FixedPointRecord) -> FixedPointRecord | None:
    """Re-polish a zero at a tenth of the detection tolerance."""
    hit = newton_zero(jet, record.location, tol=NEWTON_TOL / 10, max_iter=40)
    if not hit.converged:
        return None
    eigs = np.linalg.eigvals(hit.jacobian)
    if np.abs(eigs).min() <= EIG_TOL:
        return None
    if eigs.real.max() <= 0:
        return None  # no expanding direction: not a usable witness
    return FixedPointRecord(
        location=np.mod(hit.x, 2 * np.pi),
        jacobian=hit.jacobian,
        eigenvalues=eigs,
        classification="saddle",
        nondegenerate=True,
        residual=float(np.linalg.norm(hit.value)),
    )


def _verify_orbit(jet, record: PeriodicOrbitRecord) -> bool:
    hit = _newton_shoot(
        jet, record.seed, record.period, np.asarray(record.winding),
        orbit_tol=ORBIT_TOL / 10, rtol=1e-12, atol=1e-13,
    )
    return hit is not None


def certify(
    metric: MetricField,
    pair: EigenPair,
    budget: CertifyBudget | None = None,
) -> InstabilityCertificate:
    """Instability certificate for one curl eigenpair.

    Stages: (1) nondegenerate zeros (saddles by volume conservation),
    (2) hyperbolic nondegenerate periodic orbits of the Reeb rescaling,
    (3) positive wave-packet growth exponents. Witnesses are re-verified
    at a tenth of their detection tolerance before a certificate is
    issued; stage errors are folded into the diagnostics, never raised.
    Every stage runs on the unit-mean-speed rescaling of the field, and
    the certificate reports its times and exponents in that clock, with
    the budget's growth threshold among its tolerances.
    """
    if pair.eigenvalue == 0.0:
        raise ValueError("kernel fields are outside the certification scope")
    budget = budget or CertifyBudget()
    diagnostics: dict = {"stages": []}

    grid = CollocationGrid.for_truncation(
        max(pair.form.truncation, metric.truncation)
    )
    u = sharp(metric, pair.form, grid, grid.max_truncation)
    # eigenforms come normalized, so the flow can be arbitrarily slow;
    # search and report on the unit-mean-speed rescaling (orbit geometry,
    # multiplier spectra, and nondegeneracy are invariant)
    speeds = np.linalg.norm(u.sample(grid), axis=0)
    speed_scale = float(speeds.mean())
    if speed_scale <= 0.0:
        raise ValueError("cannot certify the zero field")
    u_search = (1.0 / speed_scale) * u
    jet = as_jet(u_search)

    def issue(mechanism: str, witness, exponent: float) -> InstabilityCertificate:
        return InstabilityCertificate(
            mechanism=mechanism,
            witness=witness,
            exponent=exponent,
            eigenvalue=pair.eigenvalue,
            speed_scale=speed_scale,
            tolerances={**TOLERANCES, "wkb_threshold": budget.wkb_threshold},
            diagnostics=diagnostics,
        )

    # stage 1: fixed points and their linearization rates
    records = find_fixed_points(u_search, grid_density=budget.fixed_point_grid)
    n_nondeg = sum(r.nondegenerate for r in records)
    diagnostics["stages"].append(
        {"stage": "fixed_points", "found": len(records), "nondegenerate": n_nondeg}
    )
    for record in records:
        if not record.nondegenerate:
            continue
        verified = _verify_fixed_point(jet, record)
        if verified is not None:
            return issue("saddle_fixed_point", verified,
                         float(verified.eigenvalues.real.max()))

    # stage 2: hyperbolic periodic orbits of the Reeb rescaling
    contact = None
    if budget.run_orbits:
        from .contact import beltrami_to_reeb

        try:
            contact, _ = beltrami_to_reeb(u, metric)
        except (HasZerosError, NotContactError) as err:
            diagnostics["stages"].append(
                {"stage": "reeb_rescaling", "error": str(err)}
            )
        orbit_stats: dict = {}
        orbits = find_periodic_orbits(
            u_search, T_max=budget.T_max, n_seeds=budget.orbit_seeds,
            seed=budget.seed, contact_form=contact, diagnostics=orbit_stats,
        )
        orbit_stats.update(
            {
                "stage": "orbits",
                "resolved": len(orbits),
                "nondegenerate": sum(o.nondegenerate for o in orbits),
                "hyperbolic": sum(
                    o.orbit_type.endswith("hyperbolic") for o in orbits
                ),
            }
        )
        diagnostics["stages"].append(orbit_stats)
        for orbit in orbits:
            if not (orbit.nondegenerate and orbit.orbit_type.endswith("hyperbolic")):
                continue
            if _verify_orbit(jet, orbit):
                growth = float(
                    np.log(np.abs(orbit.multipliers).max()) / orbit.period
                )
                return issue("hyperbolic_orbit", orbit, growth)

    # stage 3: wave-packet growth sampling
    if budget.run_wkb:
        rng = np.random.default_rng(budget.seed)
        best: WKBWitness | None = None
        failures = 0
        for _ in range(budget.n_seeds):
            x0 = rng.uniform(0.0, 2 * np.pi, 3)
            xi0 = rng.standard_normal(3)
            xi0 /= np.linalg.norm(xi0)
            try:
                result = wkb_exponent(
                    jet, x0, xi0, T=budget.wkb_T, rtol=1e-8, atol=1e-10,
                    return_details=True,
                )
            except StiffnessError:
                failures += 1
                continue
            if best is None or result.tail_slope > best.tail_slope:
                best = WKBWitness(
                    x0=x0, xi0=xi0,
                    exponent=result.exponent,
                    tail_slope=result.tail_slope,
                )
        diagnostics["stages"].append(
            {
                "stage": "wkb",
                "samples": budget.n_seeds,
                "failures": failures,
                "best_tail_slope": None if best is None else best.tail_slope,
                "threshold": budget.wkb_threshold,
            }
        )
        # the fitted tail slope separates exponential growth from the
        # algebraic transients integrable shear produces
        if best is not None and best.tail_slope > budget.wkb_threshold:
            return issue("positive_wkb_exponent", best, best.tail_slope)

    return issue("inconclusive", None, 0.0)
