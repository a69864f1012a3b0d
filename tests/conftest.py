import numpy as np
import pytest

from curllab.dynamics import abc_field, find_periodic_orbits
from curllab.fields import (
    METRIC_COMPONENTS,
    FourierField,
    MetricField,
    conformal_metric,
    flat_metric,
    mode_range,
    random_metric,
)


def cos_mode(rank: str, truncation: int, m, comp: int, amplitude: float = 1.0):
    """amplitude * cos(m . x) in the given component."""
    m1, m2, m3 = m
    return FourierField.from_modes(
        rank, truncation, {(m1, m2, m3, comp): amplitude / 2.0}
    )


def sin_mode(rank: str, truncation: int, m, comp: int, amplitude: float = 1.0):
    """amplitude * sin(m . x) in the given component."""
    m1, m2, m3 = m
    return FourierField.from_modes(
        rank, truncation, {(m1, m2, m3, comp): -0.5j * amplitude}
    )


def shear_one_form(k: int = 1) -> FourierField:
    """sin(kz) dx + cos(kz) dy, the canonical tight test family."""
    return sin_mode("one_form", abs(k), (0, 0, k), 0) + cos_mode(
        "one_form", abs(k), (0, 0, k), 1
    )


def random_one_form(truncation: int, rng: np.random.Generator) -> FourierField:
    L = 2 * truncation + 1
    c = rng.standard_normal((3, L, L, L)) + 1j * rng.standard_normal((3, L, L, L))
    c = 0.5 * (c + c[:, ::-1, ::-1, ::-1].conj())
    return FourierField("one_form", c)


def self_adjointness_residual(op, n_trials: int, seed: int) -> float:
    """max |<A a, b> - <a, A b>| over random unit-norm 1-forms, A = op.apply."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_trials):
        a, b = (FourierField("one_form", op.basis.unpack(rng.standard_normal(op.dim)))
                for _ in range(2))
        a, b = a * (1.0 / op.norm(a)), b * (1.0 / op.norm(b))
        worst = max(worst, abs(op.inner(op.apply(a), b) - op.inner(a, op.apply(b))))
    return worst


def pairing_matrix(op) -> np.ndarray:
    """Dense B of a CurlOperator, diag(0, d) in its frame coordinates; the
    solver never builds it."""
    basis = op.basis
    return np.diag(np.concatenate([np.zeros(basis.n_closed), basis.d]))


def _metric_from_block(coeffs: np.ndarray) -> MetricField:
    return MetricField(FourierField("scalar", c[None]) for c in coeffs)


def translated_metric(metric: MetricField, shift) -> MetricField:
    """g(x - shift): each coefficient of mode m times e^{-i m . shift}."""
    m = mode_range(metric.truncation)
    phase = np.exp(-1j * np.add.outer(np.add.outer(m * shift[0], m * shift[1]),
                                      m * shift[2]))
    return _metric_from_block(metric.block.coeffs * phase)


def permuted_metric(metric: MetricField, p) -> MetricField:
    """The metric pulled back by the axis permutation y -> x with
    x[p[k]] = y[k]: entry (a, b) is g[p[a], p[b]], with the index axes of
    the modes permuted alike."""
    c = metric.block.coeffs
    g = np.empty((3, 3) + c.shape[1:], complex)
    for k, (i, j) in enumerate(METRIC_COMPONENTS):
        g[i, j] = g[j, i] = c[k]
    g = g[np.ix_(p, p)].transpose(0, 1, *(2 + np.asarray(p)))
    return _metric_from_block(np.stack([g[i, j] for i, j in METRIC_COMPONENTS]))


def reflected_metric(metric: MetricField) -> MetricField:
    """The metric pulled back by x -> (-x0, x1, x2): axis 0 of the modes
    flipped, g12 and g13 negated."""
    c = metric.block.coeffs[:, ::-1].copy()
    c[[METRIC_COMPONENTS.index((0, 2)), METRIC_COMPONENTS.index((0, 1))]] *= -1
    return _metric_from_block(c)


def random_scalar(truncation: int, rng: np.random.Generator) -> FourierField:
    L = 2 * truncation + 1
    c = rng.standard_normal((1, L, L, L)) + 1j * rng.standard_normal((1, L, L, L))
    c = 0.5 * (c + c[:, ::-1, ::-1, ::-1].conj())
    return FourierField("scalar", c)


@pytest.fixture(scope="session")
def flat():
    return flat_metric()


@pytest.fixture(scope="session")
def conformal2():
    return conformal_metric(2.0)


@pytest.fixture(scope="session")
def bumpy():
    """A mildly perturbed SPD metric, fixed seed."""
    return random_metric(2.0, 1e-2, 20240601)


@pytest.fixture(scope="session")
def abc_orbits():
    """Periodic orbits of ABC(1, 1, 1) up to T = 30, in record order; the
    search is slow, so the suite runs it once. Tests must not mutate them."""
    return find_periodic_orbits(abc_field(1, 1, 1), T_max=30.0, n_seeds=6, seed=3)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
