import numpy as np
import pytest

from curllab.dynamics import abc_field, find_periodic_orbits
from curllab.fields import (
    FourierField,
    conformal_metric,
    flat_metric,
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
    """Dense B of a CurlOperator; the solver never builds it, the frames
    diagonalize it."""
    basis = op.basis
    B = np.zeros((basis.dim, basis.dim))
    C = basis.cross_matrices()
    for j in range(basis.n_half):
        s = basis.ncomp + 6 * j
        B[s:s + 3, s + 3:s + 6] = -C[j]
        B[s + 3:s + 6, s:s + 3] = C[j]
    return B


def packed_gram(op) -> np.ndarray:
    """Dense Gram of a CurlOperator in packed coordinates, mapped back from
    its frame Gram; the solver never builds it."""
    basis = op.basis
    G = basis.from_frames(basis.from_frames(op.gram_matrix).T)
    return (G + G.T) * 0.5


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
