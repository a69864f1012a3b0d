"""Contact forms, Reeb fields, and the correspondence with curl eigenfields.

A nonvanishing curl eigenfield u with eigenvalue lambda != 0 has a
contact dual 1-form alpha = iota_u g, and the rescaling u / |u|_g^2 is
the Reeb field of alpha. Conversely every contact form admits a metric,
assembled pointwise from alpha and a compatible almost-complex structure
on its kernel planes, that turns its Reeb field back into a curl
eigenfield. Both directions are implemented on the collocation grid and
verified against their defining identities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import newton_zero
from .errors import (
    FrameError,
    HasZerosError,
    IncompatibleStructureError,
    NotContactError,
)
from .fields import (
    CollocationGrid,
    FieldJet,
    FourierField,
    MetricField,
    _next_odd,
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


@dataclass(frozen=True)
class ContactForm:
    """A 1-form certified contact at grid resolution."""

    form: FourierField
    defect: float
    orientation: int
    grid_resolution: int

    @classmethod
    def certify(cls, form: FourierField,
                grid: CollocationGrid | None = None) -> "ContactForm":
        if grid is None:
            grid = CollocationGrid.for_truncation(form.truncation)
        pairing = wedge_pairing_samples(form, grid)
        defect = float(np.abs(pairing).min())
        if defect <= 0.0 or pairing.max() * pairing.min() < 0:
            raise NotContactError(
                f"alpha ^ d(alpha) is not bounded away from zero on the grid "
                f"(min |pairing| = {defect:.3e})"
            )
        return cls(
            form=form,
            defect=defect,
            orientation=int(np.sign(pairing.flat[0])),
            grid_resolution=grid.resolution,
        )

    @property
    def truncation(self) -> int:
        return self.form.truncation


def _as_form(form) -> FourierField:
    return form.form if isinstance(form, ContactForm) else form


def tight_form(k: int) -> ContactForm:
    """The canonical contact form sin(kz) dx + cos(kz) dy.

    Exactly two Fourier modes; the contact defect equals |k|.
    """
    k = int(k)
    if k == 0:
        raise ValueError("k = 0 gives a closed form, which is not contact")
    n = abs(k)
    form = FourierField.from_modes(
        "one_form", n, {(0, 0, k, 0): -0.5j, (0, 0, k, 1): 0.5}
    )
    return ContactForm.certify(form)


def reeb_field(
    form,
    grid: CollocationGrid | None = None,
    out_truncation: int | None = None,
) -> FourierField:
    """Reeb vector field: contraction with d(alpha) vanishes, alpha eats it to 1.

    Solved pointwise: the kernel direction of the antisymmetric matrix of
    d(alpha) is its component vector, scaled by the contact pairing. The
    result interpolates the exact pointwise solution on the grid, so both
    defining residuals vanish there to round-off (asserted).
    """
    alpha = _as_form(form)
    if grid is None:
        grid = CollocationGrid.for_truncation(alpha.truncation)
    a = np.moveaxis(alpha.sample(grid), 0, -1)          # (M,M,M,3)
    omega = np.moveaxis(exterior_d(alpha).sample(grid), 0, -1)
    pairing = np.einsum("...c,...c->...", a, omega)
    if np.abs(pairing).min() <= 0.0:
        raise NotContactError("form is not contact on the grid")
    X = omega / pairing[..., None]
    # defining identities at the sample points
    alpha_res = np.abs(np.einsum("...c,...c->...", a, X) - 1.0).max()
    A = _two_form_matrix(omega)
    contraction = np.einsum("...ij,...i->...j", A, X)
    omega_res = np.abs(contraction).max() / max(np.abs(omega).max(), 1.0)
    if max(alpha_res, omega_res) > 1e-10:
        raise NotContactError(
            f"Reeb residuals too large: |alpha(X)-1| = {alpha_res:.2e}, "
            f"|i_X d(alpha)| = {omega_res:.2e}"
        )
    n_out = grid.max_truncation if out_truncation is None else out_truncation
    return FourierField("vector", grid.analyze(np.moveaxis(X, -1, 0), n_out))


def beltrami_to_reeb(
    u: FourierField,
    metric: MetricField,
    *,
    grid: CollocationGrid | None = None,
    zero_tol_factor: float = ZERO_TOL_FACTOR,
    residual_tol: float = REEB_RESIDUAL_TOL,
):
    """Contact form and Reeb field of a nonvanishing curl eigenfield.

    Returns (ContactForm, X) with alpha the metric dual of u and
    X = u / |u|_g^2. Raises HasZerosError when the field drops below
    zero_tol_factor times its mean speed; the caller should send such
    fields to fixed-point analysis instead. The Reeb conditions for the
    pair are verified on the grid within residual_tol, which checks the
    pointwise eigenfield identity curl u = lambda u. Exact eigenfields
    (flat-metric ABC and shear fields) meet it to round-off; a Galerkin
    eigenform of a non-constant metric meets it only to truncation error
    (about 1e-3 at N = 2) and raises NotContactError at the default
    tolerance, although it is nonvanishing and its dual form is contact.
    """
    if grid is None:
        n = max(u.truncation, metric.truncation)
        grid = CollocationGrid(_next_odd(3 * n + 9))
    ms = metric.samples(grid)
    uv = np.moveaxis(u.sample(grid), 0, -1)
    speed_sq = np.einsum("...ab,...a,...b->...", ms.g, uv, uv)
    speed = np.sqrt(np.maximum(speed_sq, 0.0))
    zero_tol = zero_tol_factor * speed.mean()
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

    # Reeb conditions for (alpha, X) on the grid
    omega = np.moveaxis(exterior_d(alpha).sample(grid), 0, -1)
    A = _two_form_matrix(omega)
    alpha_res = np.abs(
        np.einsum("...a,...a->...", alpha_vals, X_vals) - 1.0
    ).max()
    omega_res = np.abs(
        np.einsum("...ij,...i->...j", A, X_vals)
    ).max() / max(np.abs(omega).max(), 1.0)
    if max(alpha_res, omega_res) > residual_tol:
        raise NotContactError(
            f"dual form fails the Reeb conditions (residual "
            f"{max(alpha_res, omega_res):.2e}); the input is not a curl "
            f"eigenfield at this tolerance"
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
        self.min_projection = best_score

    def at(self, x):
        """Frame (f1, f2) at a point, with d(alpha)(f1, f2) = 1."""
        try:
            f1, f2 = _kernel_frame(self.form.eval(x), self.reference_axis)
        except FrameError as err:
            raise FrameError(f"{err} at {tuple(x)}") from None
        A = _two_form_matrix(self.two_form.eval(x))
        s12 = float(f1 @ A @ f2)
        if abs(s12) < 1e-12:
            raise FrameError(f"d(alpha) degenerate on the kernel plane at {tuple(x)}")
        return f1, f2 / s12


def _kernel_frame(a: np.ndarray, axis: int):
    """Euclidean-orthonormal (f1, f2) spanning the planes normal to a.

    a has the component axis last (one point or a whole grid); f1 is the
    normalized projection of coordinate axis `axis` onto the planes and
    f2 = a / |a| x f1.
    """
    na = np.linalg.norm(a, axis=-1, keepdims=True)
    if na.min() <= 0:
        raise FrameError("form vanishes; kernel plane undefined")
    unit = a / na
    f1 = _AXES[axis] - unit * unit[..., axis:axis + 1]
    nf1 = np.linalg.norm(f1, axis=-1, keepdims=True)
    if nf1.min() < 1e-12:
        raise FrameError("reference axis tangent to the plane normal")
    f1 = f1 / nf1
    return f1, np.cross(unit, f1)


@dataclass(frozen=True)
class AlmostComplexStructure:
    """2x2 matrix field acting on the kernel planes in a frame {f1, f2}."""

    matrices: np.ndarray  # (M, M, M, 2, 2)
    grid: CollocationGrid

    def __post_init__(self):
        J2 = np.einsum("...ab,...bc->...ac", self.matrices, self.matrices)
        dev = np.abs(J2 + np.eye(2)).max()
        if dev > 1e-10:
            raise IncompatibleStructureError(
                f"J^2 deviates from -identity by {dev:.2e}"
            )


def standard_complex_structure(form, grid: CollocationGrid) -> AlmostComplexStructure:
    """Rotation by a quarter turn on the kernel planes, oriented by d(alpha)."""
    alpha = _as_form(form)
    pairing = wedge_pairing_samples(alpha, grid)
    sign = float(np.sign(pairing.mean()))
    if sign == 0.0:
        raise NotContactError("cannot orient a vanishing contact pairing")
    J = np.array([[0.0, -sign], [sign, 0.0]])
    M = grid.resolution
    return AlmostComplexStructure(np.broadcast_to(J, (M, M, M, 2, 2)).copy(), grid)


@dataclass
class AdaptedMetricResult:
    metric: MetricField
    eigenvalue: float
    residual: float
    frame_asymmetry: float


def adapted_metric(
    form,
    structure: AlmostComplexStructure | None = None,
    *,
    grid: CollocationGrid | None = None,
    out_truncation: int | None = None,
) -> AdaptedMetricResult:
    """Metric built from a contact form and a compatible J on its kernel.

    In the frame {X, f1, f2} the tensor is block diagonal: 1 on the Reeb
    direction from the alpha (x) alpha term, and d(alpha)(f_a, J f_b) on
    the kernel planes. The assembled tensor is symmetrized (the recorded
    asymmetry detects an incompatible J, as does the SPD check), and the
    returned metric is verified to make the form a constant-eigenvalue
    curl eigenform; that eigenvalue is reported, not prescribed.
    """
    alpha = _as_form(form)
    n_a = alpha.truncation
    if grid is None:
        grid = CollocationGrid(_next_odd(4 * n_a + 9))
    if structure is None:
        structure = standard_complex_structure(alpha, grid)
    elif structure.grid.resolution != grid.resolution:
        raise ValueError("almost-complex structure sampled on a different grid")

    X = np.moveaxis(reeb_field(alpha, grid, grid.max_truncation).sample(grid), 0, -1)
    frame = ContactFrameEvaluator(alpha, grid)
    # Euclidean-orthonormal kernel basis, not normalized by d(alpha)(f1, f2)
    f1, f2 = _kernel_frame(np.moveaxis(alpha.sample(grid), 0, -1),
                           frame.reference_axis)

    omega = np.moveaxis(exterior_d(alpha).sample(grid), 0, -1)
    A = _two_form_matrix(omega)
    basis = np.stack([f1, f2], axis=-2)  # (M,M,M,2,3)
    # J acts by columns: (J f_b) = sum_a J[a, b] f_a
    Jb = np.einsum("...ab,...ac->...bc", structure.matrices, basis)
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

    n_out = out_truncation if out_truncation is not None else min(
        grid.max_truncation, 2 * n_a
    )
    from .fields import METRIC_COMPONENTS

    comps = []
    for (i, j) in METRIC_COMPONENTS:
        comps.append(FourierField("scalar", grid.analyze(g[None, ..., i, j], n_out)))
    metric = MetricField(comps)

    curl_alpha = hodge(metric, exterior_d(alpha), grid, n_a)
    lam = l2_inner(metric, curl_alpha, alpha, grid) / l2_inner(
        metric, alpha, alpha, grid
    )
    residual = l2_norm(metric, curl_alpha - lam * alpha, grid) / l2_norm(
        metric, alpha, grid
    )
    if residual > ADAPTED_RESIDUAL_TOL:
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


def reeb_rescaled(u, metric: MetricField):
    """Pointwise evaluator of X = u / |u|_g^2 and its Jacobian.

    The flow of X reparametrizes the flowlines of u; for a curl
    eigenfield dual to alpha it is the Reeb flow of alpha, whose
    linearization preserves the kernel planes.
    """
    from .fields import MetricJet, as_jet

    jet = as_jet(u)
    mjet = MetricJet(metric)

    class _Rescaled:
        truncation = jet.truncation

        @staticmethod
        def value(x):
            v = jet.value(x)
            g, _ = mjet.value_and_gradient(x)
            return v / (v @ g @ v)

        @staticmethod
        def value_and_jacobian(x):
            v, Dv = jet.value_and_jacobian(x)
            g, dg = mjet.value_and_gradient(x)
            s = v @ g @ v
            grad_s = np.array([v @ dg[b] @ v for b in range(3)])
            grad_s += 2.0 * Dv.T @ (g @ v)
            X = v / s
            DX = Dv / s - np.outer(v, grad_s) / s**2
            return X, DX

    return _Rescaled()
