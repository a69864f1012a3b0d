"""Linear instability certificates for curl eigenfields.

The certification pipeline follows the case split of the underlying
instability criterion: a nondegenerate zero of a volume-preserving field
is automatically of saddle type and certifies instability; otherwise a
nondegenerate hyperbolic periodic orbit of u's flowlines certifies it;
otherwise high-frequency wave packets are transported along flowlines and
a positive growth exponent certifies it. The orbit stage searches the
flow of u itself: a nonvanishing eigenfield rescales to the Reeb field of
its dual contact form, which is what guarantees that periodic orbits
exist, but hyperbolicity belongs to the flowlines and is invariant under
that rescaling, so the Reeb field is never built.
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

Both xi and b can grow or decay exponentially, so they are carried in
projective form: unit directions e ~ xi and c_k ~ b_k plus log-norms
(continuous normalization). With J = Du(x), g = -J^T e and
f_k = -J c_k + 2 <J c_k, e> e/|e|^2,

    e' = g - rho e,        (log|xi|)' = rho,   rho = <e, g> / |e|^2,
    c_k' = f_k - r_k c_k,  (log|b_k|)' = r_k,  r_k = <c_k, f_k> / |c_k|^2.

The norms live in log space, so one integration covers any horizon
without overflow and nothing is ever renormalized; the log-growth of b_k
is the carried log|b_k| plus log|c_k|. The amplitude equation only sees
the direction e, and xi(t) = (D phi_t)^-T xi0 never vanishes.
"""

from __future__ import annotations

import numbers
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
from .errors import StiffnessError
from .fields import MetricField, as_jet, default_grid, sharp
from scipy.integrate import solve_ivp

# growth-exponent threshold separating exponential from algebraic growth
WKB_THRESHOLD = 1e-2
WKB_T = 200.0
LOG_GROWTH_SAMPLE_STEP = 1.0  # time between samples of the log-growth history


@dataclass
class WKBResult:
    """Growth diagnostics of one wave-packet run."""

    exponent: float          # (1/T) log |b(T)| / |b(0)|, max over amplitudes
    tail_slope: float        # fitted log-growth rate on the second half
    ts: np.ndarray           # sample times of the log-growth history
    log_growth: np.ndarray   # (2, len(ts)) log |b| / |b(0)| per amplitude
    # at the samples: max |b . xi| / (|b| |xi|), and max |q/q0 - 1| for the
    # conserved q = xi . u, |xi(0)| = 1 (max |q - q0| when |q0| <= 1e-9)
    amplitude_orthogonality_drift: float
    frequency_transport_drift: float


def wkb_exponent(
    u,
    x0,
    xi0,
    T: float = WKB_T,
    *,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> WKBResult:
    """Wave-packet growth along one flowline.

    Integrates the transport system once over [0, T] in projective form
    for the two orthonormal initial amplitudes perpendicular to the
    initial wavevector, sampling every LOG_GROWTH_SAMPLE_STEP. Returns
    the largest (1/T) log-growth ratio with the growth history, the
    fitted tail slope (which discounts transient algebraic growth), and
    the conservation drifts at the samples.
    """
    jet = as_jet(u)
    xi0 = np.asarray(xi0, float)
    if np.linalg.norm(xi0) == 0.0:
        raise ValueError("initial wavevector must be nonzero")
    bs = np.stack(_orthonormal_complement(xi0))

    def rhs(_, y):
        x, xi, b = y[:3], y[3:6], y[7:13].reshape(2, 3)
        val, jac = jet.value_and_jacobian(x)
        xi_sq = xi @ xi
        g = -jac.T @ xi
        rho = (xi @ g) / xi_sq
        jb = b @ jac.T  # rows (Du) b_k
        f = -jb + np.outer(2.0 * (jb @ xi) / xi_sq, xi)
        r = np.einsum("ij,ij->i", b, f) / np.einsum("ij,ij->i", b, b)
        return np.concatenate(
            [val, g - rho * xi, [rho], (f - r[:, None] * b).ravel(), r]
        )

    y0 = np.r_[x0, xi0 / np.linalg.norm(xi0), 0.0, bs.ravel(), 0.0, 0.0]
    ts = np.linspace(0.0, T, max(int(np.ceil(T / LOG_GROWTH_SAMPLE_STEP)), 1) + 1)
    sol = solve_ivp(rhs, (0.0, T), y0, method="DOP853", t_eval=ts,
                    rtol=rtol, atol=atol)
    if not sol.success:
        raise StiffnessError(f"wave-packet integration failed: {sol.message}")
    if not np.all(np.isfinite(sol.y)):
        raise StiffnessError("wave-packet state left the finite range")
    xs, xis, log_xi = sol.y[:3].T, sol.y[3:6].T, sol.y[6]
    bmat = sol.y[7:13].T.reshape(-1, 2, 3)
    b_norms = np.linalg.norm(bmat, axis=2)
    log_growth = sol.y[13:15] + np.log(b_norms.T)  # (2, len(ts))
    ortho = np.abs(np.einsum("sij,sj->si", bmat, xis)) / (
        b_norms * np.linalg.norm(xis, axis=1)[:, None])
    # q = exp(log|xi|) (e . u) is formed in log space, so a wavevector
    # grown past the float range cannot overflow it
    xi_u = np.einsum("si,si->s", xis, np.array([jet.value(x) for x in xs]))
    with np.errstate(divide="ignore"):
        q = np.sign(xi_u) * np.exp(log_xi + np.log(np.abs(xi_u)))
    q_scale = abs(q[0]) if abs(q[0]) > 1e-9 else 1.0

    exponent = float(log_growth[:, -1].max() / T)
    tail = ts >= 0.5 * T
    slopes = [
        float(np.polyfit(ts[tail], row[tail], 1)[0]) for row in log_growth
    ] if tail.sum() >= 2 else [exponent]
    return WKBResult(
        exponent=exponent,
        tail_slope=float(max(slopes)),
        ts=ts,
        log_growth=log_growth,
        amplitude_orthogonality_drift=float(ortho.max()),
        frequency_transport_drift=float(np.abs(q - q[0]).max() / q_scale),
    )


# ---------------------------------------------------------------------------
# Certification pipeline
# ---------------------------------------------------------------------------


@dataclass
class CertifyBudget:
    """Search effort of one certification run: horizons, seed counts and
    the seed of its random draws. The tolerances are fixed (TOLERANCES).
    The horizons must be finite reals > 0 and the counts and the seed
    integers >= 0 (not booleans); anything else is a ValueError."""

    T_max: float = 50.0         # orbit-search horizon
    n_seeds: int = 64           # wave-packet sample trajectories
    orbit_seeds: int = 16       # recurrence-scan seed trajectories
    wkb_T: float = WKB_T
    seed: int = 0

    def __post_init__(self):
        for name in ("T_max", "wkb_T"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not 0.0 < value < np.inf):
                raise ValueError(f"{name} must be a finite real > 0, got {value!r}")
        for name in ("n_seeds", "orbit_seeds", "seed"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
                    or value < 0):
                raise ValueError(f"{name} must be an integer >= 0, got {value!r}")


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
    (2) hyperbolic nondegenerate periodic orbits of u's flowlines (the
    Reeb rescaling u / |u|_g^2 moves along the same curves, so it has the
    same orbits with the same hyperbolicity), (3) positive wave-packet
    growth exponents. Witnesses are re-verified at a tenth of their
    detection tolerance before a certificate is issued; stage errors are
    folded into the diagnostics, never raised.
    Every stage runs on the unit-mean-speed rescaling of the field, and
    the certificate reports its times and exponents in that clock, with
    the growth threshold among its tolerances.
    """
    if pair.eigenvalue == 0.0:
        raise ValueError("kernel fields are outside the certification scope")
    budget = budget or CertifyBudget()
    diagnostics: dict = {"stages": []}

    grid = default_grid(metric, pair.form)
    u = sharp(metric, pair.form)
    # eigenforms come normalized, so the flow can be arbitrarily slow;
    # search and report on the unit-mean-speed rescaling (orbit geometry,
    # multiplier spectra, and nondegeneracy are invariant)
    speeds = np.linalg.norm(u.sample(grid), axis=0)
    speed_scale = float(speeds.mean())
    if speed_scale <= 0.0:
        raise ValueError("cannot certify the zero field")
    jet = as_jet((1.0 / speed_scale) * u)

    def issue(mechanism: str, witness, exponent: float) -> InstabilityCertificate:
        return InstabilityCertificate(
            mechanism=mechanism,
            witness=witness,
            exponent=exponent,
            eigenvalue=pair.eigenvalue,
            speed_scale=speed_scale,
            diagnostics=diagnostics,
        )

    # stage 1: fixed points and their linearization rates
    records = find_fixed_points(jet)
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

    # stage 2: hyperbolic periodic orbits of the flow
    orbit_stats: dict = {}
    orbits = find_periodic_orbits(
        jet, T_max=budget.T_max, n_seeds=budget.orbit_seeds,
        seed=budget.seed, diagnostics=orbit_stats,
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
    rng = np.random.default_rng(budget.seed)
    best: WKBWitness | None = None
    failures = 0
    for _ in range(budget.n_seeds):
        x0 = rng.uniform(0.0, 2 * np.pi, 3)
        xi0 = rng.standard_normal(3)
        xi0 /= np.linalg.norm(xi0)
        try:
            result = wkb_exponent(jet, x0, xi0, T=budget.wkb_T, rtol=1e-8, atol=1e-10)
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
            "threshold": WKB_THRESHOLD,
        }
    )
    # the fitted tail slope separates exponential growth from the
    # algebraic transients integrable shear produces
    if best is not None and best.tail_slope > WKB_THRESHOLD:
        return issue("positive_wkb_exponent", best, best.tail_slope)

    return issue("inconclusive", None, 0.0)
