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

Wave packets run as lanes. Each packet's 15-component state is one row of
a single DOP853 solve (dynamics.solve_lanes), with its own step size,
accept/reject decision and finish. The jets of the packets form one
fields.JetStack, so a right-hand side evaluates every live lane in one
stacked kernel call per truncation, one matrix-vector chain per lane.
Nothing a lane computes mixes in another lane, so a packet's numbers do
not depend on which packets share its solve. certify_batch uses that
twice for the pairs of a sweep sample: the recurrence scans of the orbit
stage run as the lanes of one solve, and so do the wave packets of every
pair still undecided. Batching only removes per-call overhead, and a pair
certifies the same alone.
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
    OrbitSearch,
    PeriodicOrbitRecord,
    _newton_shoot,
    _orthonormal_complement,
    check_count,
    check_horizon,
    find_fixed_points,
    find_periodic_orbits,  # noqa: F401  patched by perfbench/tracing.py
    find_periodic_orbits_batch,
    newton_zero,
    solve_lanes,
)
from .fields import JetStack, MetricField, as_jet, default_grid, sharp
from scipy.integrate import solve_ivp  # noqa: F401  patched by perfbench/tracing.py

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


def _wkb_rhs(stack: JetStack, lane_jet):
    """The projective transport system of the lanes. Lane k rides
    stack.jets[lane_jet[k]], lane_jet is nondecreasing, and the stack
    evaluates all the live lanes in one call."""
    add = np.add.reduce  # np.sum's Python wrapper costs as much as the sum

    def rhs(lanes, y):
        vals, jac = stack.values_and_jacobians(lane_jet[lanes], y[:, :3])
        out = np.empty((len(lanes), 15))
        out[:, :3] = vals
        xi, b = y[:, 3:6], y[:, 7:13].reshape(-1, 2, 3)
        xi_sq = add(xi * xi, axis=1)
        g = -(xi[:, None, :] @ jac)[:, 0]
        rho = add(xi * g, axis=1) / xi_sq
        jb = b @ jac.transpose(0, 2, 1)  # rows (Du) b_k
        f = (2.0 * (jb @ xi[:, :, None]) / xi_sq[:, None, None]) * xi[:, None, :] - jb
        r = add(b * f, axis=2) / add(b * b, axis=2)
        out[:, 3:6] = g - rho[:, None] * xi
        out[:, 6] = rho
        out[:, 7:13] = (f - r[:, :, None] * b).reshape(-1, 6)
        out[:, 13:] = r
        return out

    return rhs


def wkb_exponent(
    packets,
    T: float = WKB_T,
    *,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> list:
    """Wave-packet growth along flowlines, every packet a lane of one solve.

    packets is a sequence of (u, x0, xi0), u a field or a jet; packets
    that name the same object share its jet. Each packet integrates the
    transport system over [0, T] in projective form for the two
    orthonormal initial amplitudes perpendicular to its initial
    wavevector, sampled every LOG_GROWTH_SAMPLE_STEP, as one lane of
    dynamics.solve_lanes with its own step control. The jets form one
    JetStack: each right-hand side is one stacked kernel call for all
    the FieldJets of one truncation (any other jet evaluates its own
    lanes), and the transport drift at the samples is one more call.
    Returns one WKBResult per packet, in order: the largest (1/T)
    log-growth ratio with the growth history, the fitted tail slope
    (which discounts transient algebraic growth), and the conservation
    drifts at the samples; None for a lane that failed. A packet's numbers are the same whichever
    packets share its solve, so a single packet is a batch of one.
    """
    check_horizon(T, "T")  # before solve_lanes does: n_samples needs a finite T
    jets, lane_jet, y0 = {}, [], []
    for u, x0, xi0 in packets:
        if id(u) not in jets:
            jets[id(u)] = (len(jets), as_jet(u))
        lane_jet.append(jets[id(u)][0])
        xi0 = np.asarray(xi0, float)
        if np.linalg.norm(xi0) == 0.0:
            raise ValueError("initial wavevector must be nonzero")
        bs = np.stack(_orthonormal_complement(xi0))
        y0.append(np.r_[x0, xi0 / np.linalg.norm(xi0), 0.0, bs.ravel(), 0.0, 0.0])
    jets = [jet for _, jet in jets.values()]
    # lanes run grouped by jet; order[i] is the packet of lane i
    order = np.argsort(lane_jet, kind="stable")
    lane_jet = np.array(lane_jet, int)[order]
    n_samples = max(int(np.ceil(T / LOG_GROWTH_SAMPLE_STEP)), 1) + 1
    stack = JetStack(jets)
    ys, failed = solve_lanes(_wkb_rhs(stack, lane_jet),
                             np.reshape(y0, (-1, 15))[order], T, n_samples,
                             rtol=rtol, atol=atol)
    # the transport drift needs u at every sample of every finished lane
    values = np.empty(ys.shape[:2] + (3,))
    lanes = np.flatnonzero(~failed)
    values[lanes] = stack.values_and_jacobians(
        np.repeat(lane_jet[lanes], n_samples),
        ys[lanes, :, :3].reshape(-1, 3))[0].reshape(-1, n_samples, 3)
    ts = np.linspace(0.0, T, n_samples)
    results = [None] * len(order)
    for lane, k in enumerate(order):
        if not failed[lane]:
            results[k] = _wkb_result(ts, ys[lane], values[lane])
    return results


def _wkb_result(ts, y, values) -> WKBResult:
    """One lane's diagnostics from its samples y (len(ts), 15) and the
    field values at its sample positions."""
    T = ts[-1]
    xis, log_xi = y[:, 3:6], y[:, 6]
    bmat = y[:, 7:13].reshape(-1, 2, 3)
    b_norms = np.linalg.norm(bmat, axis=2)
    log_growth = y[:, 13:15].T + np.log(b_norms.T)  # (2, len(ts))
    ortho = np.abs(np.einsum("sij,sj->si", bmat, xis)) / (
        b_norms * np.linalg.norm(xis, axis=1)[:, None])
    # q = exp(log|xi|) (e . u) is formed in log space, so a wavevector
    # grown past the float range cannot overflow it
    xi_u = np.einsum("si,si->s", xis, values)
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
            check_horizon(getattr(self, name), name)
        for name in ("n_seeds", "orbit_seeds", "seed"):
            check_count(getattr(self, name), name)


@dataclass
class WKBWitness:
    """The best wave packet of a WKB stage, with the conservation drifts
    of its integration (WKBResult's) as the quality of its numbers."""

    x0: np.ndarray
    xi0: np.ndarray
    exponent: float
    tail_slope: float
    amplitude_orthogonality_drift: float
    frequency_transport_drift: float

    def to_json_dict(self):
        return {
            "x0": [float(v) for v in self.x0],
            "xi0": [float(v) for v in self.xi0],
            "exponent": self.exponent,
            "tail_slope": self.tail_slope,
            "amplitude_orthogonality_drift": self.amplitude_orthogonality_drift,
            "frequency_transport_drift": self.frequency_transport_drift,
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


@dataclass
class _Undecided:
    """A pair that no stage has certified yet: its jet and budget, the
    certificate maker that closes over its diagnostics, and, once the
    orbit stage has passed, its wave-packet seeds."""

    jet: object
    budget: CertifyBudget
    issue: object
    diagnostics: dict
    seeds: list = dataclass_field(default_factory=list)  # (x0, xi0) in draw order


def _fixed_point_stage(metric: MetricField, pair: EigenPair,
                       budget: CertifyBudget):
    """Stage 1 of one pair: a saddle certificate, or the pair _Undecided."""
    if pair.eigenvalue == 0.0:
        raise ValueError("kernel fields are outside the certification scope")
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
    return _Undecided(jet, budget, issue, diagnostics)


def _orbit_stage(pending: _Undecided, orbits, orbit_stats: dict):
    """Stage 2 of one pair from the orbits its search found: a hyperbolic
    orbit certificate, or the pair with its wave-packet seeds drawn."""
    jet, budget = pending.jet, pending.budget
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
    pending.diagnostics["stages"].append(orbit_stats)
    for orbit in orbits:
        if not (orbit.nondegenerate and orbit.orbit_type.endswith("hyperbolic")):
            continue
        if _verify_orbit(jet, orbit):
            growth = float(
                np.log(np.abs(orbit.multipliers).max()) / orbit.period
            )
            return pending.issue("hyperbolic_orbit", orbit, growth)

    # stage 3 is batched by certify_batch; its seeds are drawn here
    rng = np.random.default_rng(budget.seed)
    for _ in range(budget.n_seeds):
        x0 = rng.uniform(0.0, 2 * np.pi, 3)
        xi0 = rng.standard_normal(3)
        pending.seeds.append((x0, xi0 / np.linalg.norm(xi0)))
    return pending


def _wave_packet_verdict(stage: _Undecided,
                         results: list) -> InstabilityCertificate:
    """Stage 3 of one pair from its packets' results, in seed order."""
    best: WKBWitness | None = None
    failures = 0
    for (x0, xi0), result in zip(stage.seeds, results):
        if result is None:
            failures += 1
            continue
        if best is None or result.tail_slope > best.tail_slope:
            best = WKBWitness(
                x0=x0, xi0=xi0,
                exponent=result.exponent,
                tail_slope=result.tail_slope,
                amplitude_orthogonality_drift=result.amplitude_orthogonality_drift,
                frequency_transport_drift=result.frequency_transport_drift,
            )
    stage.diagnostics["stages"].append(
        {
            "stage": "wkb",
            "samples": len(stage.seeds),
            "failures": failures,
            "best_tail_slope": None if best is None else best.tail_slope,
            "threshold": WKB_THRESHOLD,
        }
    )
    # the fitted tail slope separates exponential growth from the
    # algebraic transients integrable shear produces
    if best is not None and best.tail_slope > WKB_THRESHOLD:
        return stage.issue("positive_wkb_exponent", best, best.tail_slope)
    return stage.issue("inconclusive", None, 0.0)


def _undecided(outcomes) -> list:
    return [k for k, o in enumerate(outcomes) if isinstance(o, _Undecided)]


def certify_batch(metric: MetricField, pairs, budgets) -> list:
    """Instability certificates for several curl eigenpairs of one metric.

    Stage 1 (zeros; see certify) runs pair by pair. The orbit stage then
    scans the orbit_seeds trajectories of every pair still undecided as
    the lanes of one find_periodic_orbits_batch (one solve per T_max),
    each pair shooting its own close returns. The wave-packet stage then
    integrates the n_seeds packets of every pair still undecided as the
    lanes of one wkb_exponent call. Both solves evaluate all their lanes
    in one stacked kernel call per right-hand side, each lane with its
    own step control. The budgets must therefore agree on wkb_T, or the
    batch is a ValueError before any stage runs. A lane's numbers do not
    depend on which lanes share its solve, so a pair's certificate is the
    same alone or in any batch, and batching the pairs of a sample only
    removes per-call overhead. Entry k of the result is pairs[k]'s
    certificate, or the exception its stages raised (an error of a
    shared solve goes to every pair in it); the other pairs still certify.
    """
    horizons = {budget.wkb_T for budget in budgets}
    if len(horizons) > 1:
        raise ValueError("the pairs of a batch share one wave-packet solve, "
                         f"so their budgets need one wkb_T, got {sorted(horizons)}")
    outcomes: list = []
    for pair, budget in zip(pairs, budgets, strict=True):
        try:
            outcomes.append(_fixed_point_stage(metric, pair, budget))
        except Exception as err:  # reported per pair, as the caller decides
            outcomes.append(err)

    waiting = _undecided(outcomes)
    stats = [{} for _ in waiting]
    try:
        found = find_periodic_orbits_batch([
            OrbitSearch(outcomes[k].jet, T_max=outcomes[k].budget.T_max,
                        n_seeds=outcomes[k].budget.orbit_seeds,
                        seed=outcomes[k].budget.seed, diagnostics=stat)
            for k, stat in zip(waiting, stats)])
    except ValueError as err:  # the batch checks every search's arguments
        found = [err] * len(waiting)
    for k, orbits, stat in zip(waiting, found, stats):
        if isinstance(orbits, Exception):
            outcomes[k] = orbits
            continue
        try:
            outcomes[k] = _orbit_stage(outcomes[k], orbits, stat)
        except Exception as err:
            outcomes[k] = err

    waiting = _undecided(outcomes)
    if not waiting:
        return outcomes
    packets = [(outcomes[k].jet, x0, xi0)
               for k in waiting for x0, xi0 in outcomes[k].seeds]
    try:
        results = wkb_exponent(packets, T=budgets[0].wkb_T,
                               rtol=1e-8, atol=1e-10)
    except Exception as err:
        for k in waiting:
            outcomes[k] = err
        return outcomes
    start = 0
    for k in waiting:
        n = len(outcomes[k].seeds)
        outcomes[k] = _wave_packet_verdict(outcomes[k], results[start:start + n])
        start += n
    return outcomes


def certify(
    metric: MetricField,
    pair: EigenPair,
    budget: CertifyBudget | None = None,
) -> InstabilityCertificate:
    """Instability certificate for one curl eigenpair: certify_batch on a
    batch of one, whose stage errors are raised.

    Stages: (1) nondegenerate zeros (saddles by volume conservation),
    (2) hyperbolic nondegenerate periodic orbits of u's flowlines (the
    Reeb rescaling u / |u|_g^2 moves along the same curves, so it has the
    same orbits with the same hyperbolicity), (3) positive wave-packet
    growth exponents, the n_seeds packets integrated as lanes of one
    solve. Witnesses are re-verified at a tenth of their detection
    tolerance before a certificate is issued; a wave packet whose
    integration fails counts among the stage's failures.
    Every stage runs on the unit-mean-speed rescaling of the field, and
    the certificate reports its times and exponents in that clock, with
    the growth threshold among its tolerances.
    """
    (outcome,) = certify_batch(metric, [pair], [budget or CertifyBudget()])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome
