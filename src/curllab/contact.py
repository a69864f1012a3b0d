"""Contact forms, Reeb fields, and the correspondence with curl eigenfields.

A nonvanishing curl eigenfield u with eigenvalue lambda != 0 has a
contact dual 1-form alpha = iota_u g, and the rescaling u / |u|_g^2 is
the Reeb field of alpha. Conversely every contact form admits a metric,
assembled pointwise from alpha and the quarter-turn almost-complex
structure on its kernel planes, that turns its Reeb field back into a curl
eigenfield. Both directions are implemented on the collocation grid and
verified against their defining identities. The Conley-Zehnder index of
an orbit of u is read off u's own linearized flow on the contact planes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (
    ORBIT_TOL,
    PeriodicOrbitRecord,
    cz_index_from_path,
    newton_zero,
    shear_field,
    variational_flow,
)
from .errors import (
    FrameError,
    HasZerosError,
    IncompatibleStructureError,
    NotContactError,
)
from .fields import (
    METRIC_COMPONENTS,
    TAU,
    CollocationGrid,
    FieldJet,
    FourierField,
    MetricField,
    _next_odd,
    as_jet,
    exterior_d,
    hodge,
    l2_inner,
    l2_norm,
    wedge_pairing_samples,
)

# fraction of the mean speed below which a field counts as vanishing
ZERO_TOL_FACTOR = 1e-6
# Reeb defining-identity residual allowed on the construction grid
REEB_RESIDUAL_TOL = 1e-8
# curl-eigenform residual allowed for an adapted metric
ADAPTED_RESIDUAL_TOL = 1e-6
# smallest projected norm of the frame's reference axis on the grid
FRAME_MIN_PROJECTION = 1e-3
# samples of the field's linearized flow over one period for the CZ index
CZ_SAMPLES = 1600
# largest |iota_u d(alpha)| / (|d(alpha)| |u|) along an orbit whose index is
# taken: the sine of the angle between u and the Reeb direction
CZ_TANGENCY_TOL = 1e-4


def _two_form_matrix(omega: np.ndarray) -> np.ndarray:
    """Antisymmetric matrix A with A[i, j] = (2-form)(d_i, d_j).

    omega holds the (dy^dz, dz^dx, dx^dy) components with the component
    axis last.
    """
    A = np.zeros(omega.shape[:-1] + (3, 3))
    A[..., 0, 1] = omega[..., 2]
    A[..., 1, 0] = -omega[..., 2]
    A[..., 1, 2] = omega[..., 0]
    A[..., 2, 1] = -omega[..., 0]
    A[..., 0, 2] = -omega[..., 1]
    A[..., 2, 0] = omega[..., 1]
    return A


def _reeb_residual(alpha_vals: np.ndarray, omega: np.ndarray,
                   X: np.ndarray) -> float:
    """max(|alpha(X) - 1|, |iota_X d(alpha)| / max(|d(alpha)|, 1)) over the
    samples; the arrays have the component axis last."""
    alpha_res = np.abs(np.einsum("...c,...c->...", alpha_vals, X) - 1.0).max()
    contraction = np.einsum("...ij,...i->...j", _two_form_matrix(omega), X)
    omega_res = np.abs(contraction).max() / max(np.abs(omega).max(), 1.0)
    return float(max(alpha_res, omega_res))


def _contact_sign(pairing: np.ndarray) -> float:
    """The sign, 1.0 or -1.0, of the grid samples of alpha ^ d(alpha); the
    one contact rule: min |pairing| > 0 with one sign on the grid, else
    NotContactError."""
    if pairing.min() > 0.0:
        return 1.0
    if pairing.max() < 0.0:
        return -1.0
    raise NotContactError(
        f"alpha ^ d(alpha) is not bounded away from zero with one sign on the "
        f"grid (min |pairing| = {np.abs(pairing).min():.3e})")


@dataclass(frozen=True)
class ContactForm:
    """A 1-form certified contact at grid resolution."""

    form: FourierField
    defect: float

    @classmethod
    def certify(cls, form: FourierField,
                grid: CollocationGrid | None = None) -> "ContactForm":
        if grid is None:
            grid = CollocationGrid.for_truncation(form.truncation)
        pairing = wedge_pairing_samples(form, grid)
        _contact_sign(pairing)
        return cls(form=form, defect=float(np.abs(pairing).min()))

    @property
    def truncation(self) -> int:
        return self.form.truncation


def _as_form(form) -> FourierField:
    return form.form if isinstance(form, ContactForm) else form


def tight_form(k: int) -> ContactForm:
    """The canonical contact form sin(kz) dx + cos(kz) dy: the coefficients
    of shear_field(k), read as a 1-form, so k is checked by its rule.

    Exactly two Fourier modes; the contact defect equals |k|.
    """
    return ContactForm.certify(FourierField("one_form", shear_field(k).coeffs))


def reeb_field(form, grid: CollocationGrid | None = None) -> FourierField:
    """Reeb vector field: contraction with d(alpha) vanishes, alpha eats it to 1.

    Solved pointwise: the kernel direction of the antisymmetric matrix of
    d(alpha) is its component vector, scaled by the contact pairing. The
    result interpolates the exact pointwise solution on the grid at its
    full bandwidth, so both defining residuals vanish there to round-off.
    """
    alpha = _as_form(form)
    if grid is None:
        grid = CollocationGrid.for_truncation(alpha.truncation)
    a = np.moveaxis(alpha.sample(grid), 0, -1)          # (M,M,M,3)
    omega = np.moveaxis(exterior_d(alpha).sample(grid), 0, -1)
    pairing = np.einsum("...c,...c->...", a, omega)
    _contact_sign(pairing)
    X = omega / pairing[..., None]
    residual = _reeb_residual(a, omega, X)
    if residual > 1e-10:
        raise NotContactError(f"Reeb residual too large: {residual:.2e}")
    return FourierField("vector",
                        grid.analyze(np.moveaxis(X, -1, 0), grid.max_truncation))


def beltrami_to_reeb(u: FourierField, metric: MetricField):
    """Contact form and Reeb field of a nonvanishing curl eigenfield.

    Returns (ContactForm, X) with alpha the metric dual of u and
    X = u / |u|_g^2. Raises HasZerosError when the field drops below
    ZERO_TOL_FACTOR times its mean speed; the caller should send such
    fields to fixed-point analysis instead. The Reeb conditions for the
    pair are verified on the grid within REEB_RESIDUAL_TOL, which checks
    the pointwise eigenfield identity curl u = lambda u. Exact eigenfields
    (flat-metric ABC and shear fields) meet it to round-off; a Galerkin
    eigenform of a non-constant metric meets it only to truncation error
    (about 1e-3 at N = 2) and raises NotContactError at the default
    tolerance, although it is nonvanishing and its dual form is contact.
    """
    grid = CollocationGrid(_next_odd(3 * max(u.truncation, metric.truncation) + 9))
    ms = metric.samples(grid)
    uv = np.moveaxis(u.sample(grid), 0, -1)
    speed_sq = np.einsum("...ab,...a,...b->...", ms.g, uv, uv)
    speed = np.sqrt(np.maximum(speed_sq, 0.0))
    zero_tol = ZERO_TOL_FACTOR * speed.mean()
    if speed.min() <= zero_tol:
        raise HasZerosError(speed.min(), zero_tol)
    # grid sampling can straddle an isolated zero; confirm with a Newton
    # probe from the slowest grid points before trusting the grid minimum
    probe = _newton_zero_probe(u, grid, speed)
    if probe <= zero_tol:
        raise HasZerosError(probe, zero_tol)

    cap = grid.max_truncation
    alpha_vals = np.einsum("...ab,...b->...a", ms.g, uv)
    alpha = FourierField("one_form", grid.analyze(np.moveaxis(alpha_vals, -1, 0), cap))
    X_vals = uv / speed_sq[..., None]
    X = FourierField("vector", grid.analyze(np.moveaxis(X_vals, -1, 0), cap))

    omega = np.moveaxis(exterior_d(alpha).sample(grid), 0, -1)
    residual = _reeb_residual(alpha_vals, omega, X_vals)
    if residual > REEB_RESIDUAL_TOL:
        raise NotContactError(
            f"dual form fails the Reeb conditions (residual {residual:.2e}); "
            f"the input is not a curl eigenfield at this tolerance"
        )
    contact = ContactForm.certify(alpha, grid)
    return contact, X


def _newton_zero_probe(u: FourierField, grid: CollocationGrid,
                       speed: np.ndarray, n_probes: int = 8,
                       max_iter: int = 30) -> float:
    """Smallest |u| reachable by Newton from the slowest grid points.

    Returns the best residual found; used to catch zeros sitting between
    grid points.
    """
    jet = FieldJet(u)
    best = np.inf
    for flat_idx in np.argsort(speed, axis=None)[:n_probes]:
        loc = np.unravel_index(flat_idx, speed.shape)
        x = np.array([grid.axis_points[i] for i in loc])
        hit = newton_zero(jet, x, tol=1e-13, max_iter=max_iter, max_step=1.5)
        best = min(best, hit.best)
        if hit.converged:
            break
    return best


# ---------------------------------------------------------------------------
# Frames on the contact planes
# ---------------------------------------------------------------------------

_AXES = (np.eye(3)[0], np.eye(3)[1], np.eye(3)[2])


class ContactFrameEvaluator:
    """Global frame {X, f1, f2} with ker alpha = span{f1, f2}, d(alpha)(f1, f2) = 1.

    f1 is the Euclidean projection of a fixed reference axis onto the
    kernel planes, f2 completes it; the reference is chosen once (the
    axis staying farthest from the plane normals on the grid) so the
    frame is a continuous global section wherever that projection stays
    nonzero. For the tight forms with reference z this reproduces the
    canonical frame {d/dz, cos(kz) d/dx - sin(kz) d/dy}.
    """

    def __init__(self, form, grid: CollocationGrid | None = None):
        alpha = _as_form(form)
        self.form = alpha
        self.two_form = exterior_d(alpha)
        if grid is None:
            grid = CollocationGrid.for_truncation(alpha.truncation)
        a = np.moveaxis(alpha.sample(grid), 0, -1)
        norms = np.linalg.norm(a, axis=-1)
        if norms.min() <= 0:
            raise FrameError("form vanishes on the grid; kernel plane undefined")
        unit = a / norms[..., None]
        best_axis, best_score = None, -1.0
        for i, axis in enumerate(_AXES):
            proj = axis - unit * unit[..., i:i + 1]
            score = float(np.linalg.norm(proj, axis=-1).min())
            if score > best_score:
                best_axis, best_score = i, score
        if best_score < FRAME_MIN_PROJECTION:
            raise FrameError(
                "no coordinate axis stays transverse to the kernel planes; "
                f"best projected norm {best_score:.2e}"
            )
        self.reference_axis = best_axis

    def at(self, x):
        """Frame (f1, f2) with d(alpha)(f1, f2) = 1 at a point, or at each
        row of a (P, 3) array of points.

        FrameError names the first point where the frame is undefined.
        """
        x = np.asarray(x, float)
        f1, f2 = _kernel_frame(self.form.eval(x), self.reference_axis, x)
        A = _two_form_matrix(self.two_form.eval(x))
        s12 = np.einsum("...i,...ij,...j->...", f1, A, f2)
        _refuse(np.abs(s12) < 1e-12, "d(alpha) degenerate on the kernel plane", x)
        return f1, f2 / s12[..., None]


def _refuse(bad: np.ndarray, message: str, points=None) -> None:
    """Raise FrameError if any entry of bad holds, naming the first such
    point when the (P, 3) points (or one point) are given."""
    if np.any(bad):
        if points is not None:
            first = np.reshape(points, (-1, 3))[int(np.argmax(np.ravel(bad)))]
            message += f" at {tuple(float(c) for c in first)}"
        raise FrameError(message)


def _kernel_frame(a: np.ndarray, axis: int, points=None):
    """Euclidean-orthonormal (f1, f2) spanning the planes normal to a.

    a has the component axis last (one point, a row per point or a whole
    grid); f1 is the normalized projection of coordinate axis `axis` onto
    the planes and f2 = a / |a| x f1. An error names the first failing
    row of `points` when they are given.
    """
    na = np.linalg.norm(a, axis=-1, keepdims=True)
    _refuse(na[..., 0] <= 0, "form vanishes; kernel plane undefined", points)
    unit = a / na
    f1 = _AXES[axis] - unit * unit[..., axis:axis + 1]
    nf1 = np.linalg.norm(f1, axis=-1, keepdims=True)
    _refuse(nf1[..., 0] < 1e-12, "reference axis tangent to the plane normal",
            points)
    f1 = f1 / nf1
    return f1, np.cross(unit, f1)


@dataclass
class AdaptedMetricResult:
    metric: MetricField
    eigenvalue: float
    residual: float
    frame_asymmetry: float


def adapted_metric(form) -> AdaptedMetricResult:
    """Metric built from a contact form and the quarter turn J on its kernel.

    J rotates the kernel planes by a quarter turn oriented by the sign s
    of the contact pairing: J f1 = s f2, J f2 = -s f1. In the frame
    {X, f1, f2} the tensor is block diagonal: 1 on the Reeb direction
    from the alpha (x) alpha term, and d(alpha)(f_a, J f_b) on the kernel
    planes. The assembled tensor is symmetrized (the recorded asymmetry
    and the SPD check detect a J that d(alpha) does not tame), and the
    returned metric is verified to make the form a constant-eigenvalue
    curl eigenform; that eigenvalue is reported, not prescribed.
    """
    alpha = _as_form(form)
    n_a = alpha.truncation
    grid = CollocationGrid(_next_odd(4 * n_a + 9))
    sign = _contact_sign(wedge_pairing_samples(alpha, grid))

    X = np.moveaxis(reeb_field(alpha, grid).sample(grid), 0, -1)
    frame = ContactFrameEvaluator(alpha, grid)
    # Euclidean-orthonormal kernel basis, not normalized by d(alpha)(f1, f2)
    f1, f2 = _kernel_frame(np.moveaxis(alpha.sample(grid), 0, -1),
                           frame.reference_axis)

    d_alpha = exterior_d(alpha)
    omega = np.moveaxis(d_alpha.sample(grid), 0, -1)
    A = _two_form_matrix(omega)
    basis = np.stack([f1, f2], axis=-2)  # (M,M,M,2,3)
    Jb = np.stack([sign * f2, -sign * f1], axis=-2)  # (J f1, J f2)
    Q = np.einsum("...ai,...ij,...bj->...ab", basis, A, Jb)
    asym = float(np.abs(Q - np.swapaxes(Q, -1, -2)).max())
    Q = 0.5 * (Q + np.swapaxes(Q, -1, -2))

    F = np.stack([X, f1, f2], axis=-1)  # frame vectors as columns
    g_frame = np.zeros(Q.shape[:-2] + (3, 3))
    g_frame[..., 0, 0] = 1.0
    g_frame[..., 1:, 1:] = Q
    Finv = np.linalg.inv(F)
    g = np.einsum("...ai,...ab,...bj->...ij", Finv, g_frame, Finv)

    eigs = np.linalg.eigvalsh(g)
    if eigs.min() <= 0.0:
        raise IncompatibleStructureError(
            f"assembled tensor is not positive definite (min eigenvalue "
            f"{eigs.min():.3e}); J is not tamed by d(alpha)"
        )

    # the metric block is cut at the smallest truncation from 2 n_a up
    # that makes alpha an eigenform to ADAPTED_RESIDUAL_TOL
    rows, cols = zip(*METRIC_COMPONENTS)
    block = FourierField("metric", grid.analyze(
        np.moveaxis(g[..., rows, cols], -1, 0), grid.max_truncation))
    for n_out in range(min(grid.max_truncation, 2 * n_a), grid.max_truncation + 1):
        metric = MetricField(block.truncate_to(n_out))
        curl_alpha = hodge(metric, d_alpha, grid).truncate_to(n_a)
        lam = l2_inner(metric, curl_alpha, alpha, grid) / l2_inner(
            metric, alpha, alpha, grid
        )
        residual = l2_norm(metric, curl_alpha - lam * alpha, grid) / l2_norm(
            metric, alpha, grid
        )
        if residual <= ADAPTED_RESIDUAL_TOL:
            break
    else:
        raise IncompatibleStructureError(
            f"adapted metric fails the eigenfield property: residual "
            f"{residual:.2e} at eigenvalue {lam:.6g}"
        )
    return AdaptedMetricResult(
        metric=metric,
        eigenvalue=float(lam),
        residual=float(residual),
        frame_asymmetry=asym,
    )


def conley_zehnder(orbit: PeriodicOrbitRecord, contact_form, field) -> int:
    """Conley-Zehnder index of a nondegenerate orbit of a field u whose
    flowlines are Reeb flowlines of the contact form.

    One variational flow of u over the orbit's period, sampled at
    CZ_SAMPLES times, gives M(t). Each M(t) F0, F0 the frame (f1, f2) at
    the seed, is solved against [u, f1, f2] at x(t); the (f1, f2) rows are
    Psi(t). The Reeb field u / alpha(u) is a time change of u, so the two
    linearized flows differ by multiples of u, and Psi is the linearized
    Reeb flow on ker alpha, reparametrized: a symplectic path with the
    same rotation number (cz_index_from_path), which is the index.

    Raises ValueError for a degenerate orbit, a flow that misses
    seed + 2 pi winding by more than find_periodic_orbits accepts
    (10 ORBIT_TOL), or a path sampled too coarsely; FrameError when u
    leaves the Reeb direction (CZ_TANGENCY_TOL) or the frame degenerates.
    """
    if not orbit.nondegenerate:
        raise ValueError("Conley-Zehnder index needs a nondegenerate orbit")
    jet = as_jet(field)
    traj, Ms = variational_flow(jet, orbit.seed, orbit.period,
                                n_samples=CZ_SAMPLES)
    closure = float(np.linalg.norm(
        traj.final - orbit.seed - TAU * np.asarray(orbit.winding, float)))
    if closure > 10 * ORBIT_TOL:
        raise ValueError(f"the field's flow does not close the orbit: return "
                         f"residual {closure:.2e} after one period")
    frame = ContactFrameEvaluator(contact_form)
    u = jet.value(traj.points)
    omega = frame.two_form.eval(traj.points)
    tangency = float((np.linalg.norm(np.cross(omega, u), axis=1) / (
        np.linalg.norm(omega, axis=1) * np.linalg.norm(u, axis=1))).max())
    if not tangency <= CZ_TANGENCY_TOL:  # NaN where u or d(alpha) vanishes
        raise FrameError(
            f"the field leaves the Reeb direction of the form by {tangency:.2e} "
            "along the orbit; the orbit is not a Reeb orbit of this form"
        )
    F0 = np.column_stack(frame.at(orbit.seed))
    bases = np.stack([u, *frame.at(traj.points)], axis=-1)  # (P, 3, 3) columns
    return cz_index_from_path(np.linalg.solve(bases, Ms @ F0)[:, 1:])


def reeb_rescaled(u, metric: MetricField):
    """Jet of X = u / |u|_g^2: value and value_and_jacobian, each at a
    point x (3,) or at rows (P, 3), a row bit-identical to its one-point
    call.

    The flow of X reparametrizes the flowlines of u; for a curl
    eigenfield dual to alpha it is the Reeb flow of alpha, whose
    linearization preserves the kernel planes. u's jet and
    metric.value_and_gradient give u, g and their first derivatives at
    every point in one kernel call each. Only the tests flow it, as the
    reference for invariance under that rescaling.
    """
    jet = as_jet(u)
    add = np.add.reduce  # sums over one axis in the same order at a point or rows

    def rescaled(x):
        v, Dv = jet.value_and_jacobian(x)
        g, dg = metric.value_and_gradient(x)
        gv = add(g * v[..., None, :], axis=-1)
        s = add(v * gv, axis=-1)[..., None]
        # d_b s = v . (d_b g) v + 2 (Du^T g v)_b
        grad_s = add(add(dg * v[..., None, None, :], axis=-1) * v[..., None, :],
                     axis=-1)
        grad_s += 2.0 * add(Dv * gv[..., :, None], axis=-2)
        s2 = (s * s)[..., None]
        return v / s, Dv / s[..., None] - v[..., :, None] * grad_s[..., None, :] / s2

    class _Rescaled:
        truncation = jet.truncation
        value_and_jacobian = staticmethod(rescaled)
        value = staticmethod(lambda x: rescaled(x)[0])

    return _Rescaled()
