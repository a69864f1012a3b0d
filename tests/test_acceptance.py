"""Acceptance suite: one test per primary criterion, stated tolerances pinned.

Each test prints a single [PASS]/[FAIL] line (visible with pytest -s or
in captured output). Tolerances appear literally here so the gate never
drifts from its definition.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from curllab.contact import adapted_metric, conley_zehnder, reeb_field, tight_form
from curllab.curlspec import assemble, eigenpairs
from curllab.dynamics import abc_field, find_fixed_points
from curllab.fields import (
    CollocationGrid,
    MetricField,
    conformal_metric,
    flat as lower_index,
    flat_metric,
    l2_norm,
    random_metric,
    sharp,
)
from curllab.instability import CertifyBudget, certify
from curllab.lab import SweepConfig, run_sweep
from test_dynamics import FrozenJet
from test_instability import make_pair, one_packet
from conftest import self_adjointness_residual, shear_one_form


@contextmanager
def criterion(name):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}  ({time.time() - start:.1f}s)")


@pytest.fixture(scope="module")
def flat_g():
    return flat_metric()


def test_flat_spectrum_oracle(flat_g):
    """Nonzero eigenvalues at N=3 match the lattice-point count."""
    with criterion("flat-spectrum oracle (N=3, |m|^2 <= 5)"):
        start = time.time()
        pairs = eigenpairs(flat_g, 3, {"count": 112})
        # independent oracle: count lattice vectors per squared norm
        expected = {}
        for q, mult in ((1, 6), (2, 12), (3, 8), (4, 6), (5, 24)):
            count = sum(
                1
                for m1 in range(-3, 4) for m2 in range(-3, 4)
                for m3 in range(-3, 4)
                if m1 * m1 + m2 * m2 + m3 * m3 == q
            )
            assert count == mult
            expected[np.sqrt(q)] = mult
            expected[-np.sqrt(q)] = mult
        got = {}
        for pair in pairs:
            lam = min(expected, key=lambda v: abs(v - pair.eigenvalue))
            assert abs(pair.eigenvalue - lam) <= 1e-8
            got[lam] = got.get(lam, 0) + 1
        for q, mult in ((1, 6), (2, 12), (3, 8)):
            assert got[np.sqrt(q)] == mult
            assert got[-np.sqrt(q)] == mult
        assert got == expected
        assert time.time() - start <= 60.0


def test_eigenform_residual(flat_g):
    """Closed-form curl eigenforms have residual at round-off."""
    with criterion("eigenform residual (k = 1, 2, 3)"):
        for k in (1, 2, 3):
            op = assemble(flat_g, k + 1)
            form = shear_one_form(k)
            assert op.residual(form, float(k)) <= 1e-10


def test_self_adjointness():
    """Assembled operator symmetric in the weighted inner product."""
    with criterion("self-adjointness over 5 random SPD metrics (N=2)"):
        for i in range(5):
            g = random_metric(2.0, 1e-2, 31400 + i)
            op = assemble(g, 2)
            assert self_adjointness_residual(op, n_trials=8, seed=i) <= 1e-8


def test_conformal_covariance(flat_g):
    """Conformal rescaling divides the spectrum by the factor."""
    with criterion("conformal covariance (c = 2)"):
        base = eigenpairs(flat_g, 2, {"count": 36})
        scaled = eigenpairs(conformal_metric(2.0), 2, {"count": 36})
        for p, q in zip(base, scaled):
            assert abs(q.eigenvalue - p.eigenvalue / 2.0) <= 1e-8


def test_genericity_splitting():
    """Random perturbations split the multiplicity-six cluster, every sample."""
    with criterion("genericity splitting (20 samples, eps = 1e-2, r = 2)"):
        start = time.time()
        config = SweepConfig(
            samples=20, amplitude=1e-2, smoothness=2.0, cutoff=2,
            truncation=2, seed=20260811, window={"interval": [0.7, 1.2]},
        )
        records = run_sweep(config)
        assert len(records) == 20
        for rec in records:
            assert rec.error is None, rec.error
            assert len(rec.eigenvalues) == 6
            assert rec.frac_simple == 1.0
            assert rec.min_gap > 1e-8 * config.amplitude
        print(f"  seeds recorded under config hash {config.config_hash}")
        assert time.time() - start <= 600.0


def test_abc_pipeline(flat_g):
    """Stagnation-point census and the saddle certificate."""
    with criterion("abc pipeline (8 saddles, certificate)"):
        u = abc_field(1, 1, 1)
        records = find_fixed_points(u)
        assert len(records) == 8
        for rec in records:
            assert abs(np.trace(rec.jacobian)) <= 1e-8
            assert rec.nondegenerate
        pair = make_pair(flat_g, lower_index(flat_g, u), 1.0)
        cert = certify(flat_g, pair, CertifyBudget(n_seeds=2, orbit_seeds=2))
        assert cert.mechanism == "saddle_fixed_point"


def test_orbit_machinery(flat_g, abc_orbits):
    """Floquet structure and index parity of every resolved orbit."""
    with criterion("orbit machinery (area, flow multiplier, index parity)"):
        u = abc_field(1, 1, 1)
        alpha = lower_index(flat_g, u)
        records = abc_orbits
        assert records, "no orbits resolved"
        hyperbolic = [r for r in records if r.orbit_type.endswith("hyperbolic")]
        assert hyperbolic, "expected a hyperbolic orbit within T <= 30"
        nondegenerate = [r for r in records if r.nondegenerate]
        assert nondegenerate
        for rec in records:
            assert abs(rec.det_transverse - 1.0) <= 1e-6
            assert rec.flow_multiplier_residual <= 1e-6
            assert abs(np.prod(rec.multipliers) - 1.0) <= 1e-6
        for rec in nondegenerate:
            mu = conley_zehnder(rec, alpha, u)
            positive_hyperbolic = rec.orbit_type == "positive-hyperbolic"
            assert (mu % 2 == 0) == positive_hyperbolic, (
                f"parity mismatch: mu={mu}, type={rec.orbit_type}"
            )


def test_reeb_correspondence(flat_g):
    """Dictionary between unit-speed eigenfields and their Reeb fields."""
    with criterion("reeb correspondence and adapted metric"):
        rng = np.random.default_rng(8)
        for k in (1, 2):
            u = sharp(flat_g, shear_one_form(k))
            X = reeb_field(tight_form(k))
            for _ in range(8):
                x = rng.uniform(0, 2 * np.pi, 3)
                uv = np.asarray(u.eval(x))
                np.testing.assert_allclose(
                    X.eval(x), uv / (uv @ uv), atol=1e-8
                )
        result = adapted_metric(tight_form(1))
        assert result.metric.is_flat
        assert abs(result.eigenvalue - 1.0) <= 1e-8
        # defining tensor identity against the flat metric on random vectors
        from curllab.contact import ContactFrameEvaluator, _two_form_matrix
        from curllab.fields import exterior_d

        tf = tight_form(1)
        frame = ContactFrameEvaluator(tf)
        for _ in range(5):
            x = rng.uniform(0, 2 * np.pi, 3)
            v = rng.standard_normal(3)
            w = rng.standard_normal(3)
            a = np.asarray(tf.form.eval(x))
            A = _two_form_matrix(np.asarray(exterior_d(tf.form).eval(x)))
            f1, f2 = frame.at(x)
            X0 = np.asarray(reeb_field(tf).eval(x))
            cw = np.linalg.solve(np.column_stack([X0, f1, f2]), w)
            Jw = cw[1] * f2 - cw[2] * f1
            g = result.metric.eval(x)
            assert abs(v @ g @ w - ((a @ v) * (a @ w) + v @ A @ Jw)) <= 1e-8


def test_wkb_exponent():
    """Transport-system oracle values and conservation drifts."""
    with criterion("wkb exponent (frozen saddle, constant field, drifts)"):
        nu = 0.7
        jet = FrozenJet([0, 0, 0], np.diag([nu, -nu, 0.0]))
        exp = one_packet(jet, (0, 0, 0), (1.0, 0.0, 0.0), T=50.0).exponent
        assert abs(exp - nu) <= 0.01 * nu
        from curllab.fields import FourierField

        const = FourierField.constant("vector", [0.4, -0.2, 1.0])
        assert abs(one_packet(const, (0, 0, 0), (0, 1, 0), T=50.0).exponent) <= 1e-6
        details = one_packet(
            abc_field(1, 1, 1), (0.3, 0.1, 0.9), (0.5, -0.5, 1.0),
            T=100.0,
        )
        assert details.amplitude_orthogonality_drift <= 1e-6
        assert details.frequency_transport_drift <= 1e-6


def test_sweep_determinism(tmp_path):
    """Byte-identical sweep output under 1 and 8 worker processes."""
    with criterion("sweep determinism (1 vs 8 worker processes)"):
        outputs = []
        for run, threads in (("a", 1), ("b", 8), ("c", 1)):
            out = tmp_path / f"sweep_{run}.jsonl"
            config = SweepConfig(
                samples=2, truncation=2, seed=99, certify_pairs=True,
                window={"interval": [0.9, 1.1]},
                budget={"T_max": 4.0, "orbit_seeds": 2, "n_seeds": 1,
                        "wkb_T": 10.0},
                out_jsonl=str(out),
            )
            run_sweep(config, n_threads=threads)
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
