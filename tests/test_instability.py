"""Wave-packet growth exponents and the certification pipeline."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from curllab.curlspec import EigenPair, eigenpairs
from curllab.dynamics import abc_field, find_fixed_points, shear_field
from curllab.errors import StiffnessError
from curllab.fields import FourierField, flat_metric, l2_norm
from curllab.fields import flat as lower_index
from curllab.instability import (
    WKB_THRESHOLD,
    CertifyBudget,
    InstabilityCertificate,
    certify,
    wkb_exponent,
)
from test_dynamics import FrozenJet


def make_pair(metric, form, eigenvalue):
    norm = l2_norm(metric, form)
    return EigenPair(
        eigenvalue=eigenvalue, form=(1.0 / norm) * form, residual=0.0, index=0
    )


class TestWKBExponent:
    def test_constant_field_no_growth(self):
        u = FourierField.constant("vector", [0.3, -1.0, 0.7])
        exp = wkb_exponent(u, (0.1, 0.2, 0.3), (1.0, 0.0, 0.0), T=50.0).exponent
        assert abs(exp) <= 1e-6

    def test_frozen_saddle_recovers_rate(self):
        # oracle: the linear transport system solves in closed form; with
        # the wavevector on the contracting covector axis the amplitude
        # grows at exactly the stretching rate
        nu = 0.8
        jet = FrozenJet([0.0, 0.0, 0.0], np.diag([nu, -nu, 0.0]))
        exp = wkb_exponent(jet, (0, 0, 0), (1.0, 0.0, 0.0), T=50.0).exponent
        assert exp == pytest.approx(nu, rel=0.01)

    def test_frozen_saddle_tail_slope(self):
        nu = 0.8
        jet = FrozenJet([0.0, 0.0, 0.0], np.diag([nu, -nu, 0.0]))
        result = wkb_exponent(jet, (0, 0, 0), (1, 0, 0), T=50.0)
        assert result.tail_slope == pytest.approx(nu, rel=0.01)

    def test_one_integration_per_packet(self, monkeypatch):
        from curllab import instability

        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1])
            return solve_ivp(*args, **kwargs)

        monkeypatch.setattr(instability, "solve_ivp", counting)
        wkb_exponent(abc_field(1, 1, 1), (0.7, 1.9, 4.0), (0, 1, 1), T=20.0,
                     rtol=1e-8, atol=1e-10)
        assert calls == [(0.0, 20.0)]

    def test_growth_past_float_range_stays_finite(self):
        # log-growth 800 at T = 200: |b| = e^800 is not a float, its log is
        nu = 4.0
        jet = FrozenJet([0.0, 0.0, 0.0], np.diag([nu, -nu, 0.0]))
        result = wkb_exponent(jet, (0, 0, 0), (1.0, 0.0, 0.0), T=200.0)
        assert np.all(np.isfinite(result.log_growth))
        assert result.log_growth.max() == pytest.approx(nu * 200.0, rel=0.01)
        assert result.exponent == pytest.approx(nu, rel=0.01)
        assert result.tail_slope == pytest.approx(nu, rel=0.01)
        assert result.amplitude_orthogonality_drift <= 1e-6
        assert result.frequency_transport_drift <= 1e-6

    def test_rescaling_doubles_exponent(self):
        u = abc_field(1, 1, 1)
        x0, xi0 = (0.7, 1.9, 4.0), (0.0, 1.0, 1.0)
        base = wkb_exponent(u, x0, xi0, T=40.0, rtol=1e-9, atol=1e-11).exponent
        doubled = wkb_exponent(
            2.0 * u, x0, xi0, T=20.0, rtol=1e-9, atol=1e-11
        ).exponent
        assert doubled == pytest.approx(2.0 * base, rel=0.01)

    def test_conserved_quantities_drift(self):
        u = abc_field(1, 1, 1)
        result = wkb_exponent(u, (0.3, 0.1, 0.9), (0.5, -0.5, 1.0), T=100.0)
        assert result.amplitude_orthogonality_drift <= 1e-6
        assert result.frequency_transport_drift <= 1e-6

    def test_exponent_independent_of_wavevector_scale(self):
        u = abc_field(1, 1, 1)
        a = wkb_exponent(u, (0.7, 1.9, 4.0), (0, 1, 1), T=20.0).exponent
        b = wkb_exponent(u, (0.7, 1.9, 4.0), (0, 100, 100), T=20.0).exponent
        assert a == pytest.approx(b, rel=1e-6)

    def test_growth_near_hyperbolic_stagnation_point(self):
        u = abc_field(1, 1, 1)
        rec = find_fixed_points(u)[0]
        unstable_rate = rec.eigenvalues.real.max()
        assert unstable_rate > 0
        # wavevector on the contracting covector axis, where the packet
        # rides the unstable direction while the trajectory lingers
        w, V = np.linalg.eig(rec.jacobian.T)
        xi0 = V[:, int(np.argmin(w.real))].real
        result = wkb_exponent(u, rec.location + 1e-3, xi0, T=10.0,
                              rtol=1e-9, atol=1e-11)
        assert result.exponent > 0
        # seeded exactly at the zero the frozen linearization growth shows
        at_zero = wkb_exponent(u, rec.location, xi0, T=30.0, rtol=1e-9,
                               atol=1e-11)
        assert at_zero.tail_slope == pytest.approx(unstable_rate / 2, rel=0.05)

    def test_integrable_shear_growth_is_algebraic(self):
        # amplitudes grow linearly, so the tail slope collapses while the
        # raw ratio can sit above zero
        result = wkb_exponent(
            shear_field(1), (0.2, 0.4, 1.0), (1.0, 0.5, 0.25), T=200.0,
            rtol=1e-8, atol=1e-10,
        )
        assert result.tail_slope < 1e-2
        assert result.exponent < 0.05

    def test_zero_wavevector_rejected(self):
        with pytest.raises(ValueError):
            wkb_exponent(shear_field(1), (0, 0, 0), (0, 0, 0), T=1.0)


class TestCertify:
    def test_abc_pipeline_certifies_saddle(self, flat):
        form = lower_index(flat_metric(), abc_field(1, 1, 1))
        pair = make_pair(flat, form, 1.0)
        cert = certify(flat, pair, CertifyBudget(n_seeds=2, orbit_seeds=2))
        assert cert.mechanism == "saddle_fixed_point"
        assert cert.exponent > 0
        assert cert.witness.nondegenerate
        assert cert.witness.eigenvalues.real.max() == pytest.approx(
            cert.exponent
        )

    def test_integrable_case_inconclusive(self, flat):
        # the unit shear eigenfield is the known non-generic integrable
        # case: no zeros, only degenerate orbit families, algebraic
        # wave-packet growth; certification must stay inconclusive
        from conftest import shear_one_form

        pair = make_pair(flat, shear_one_form(1), 1.0)
        budget = CertifyBudget(
            T_max=12.0, orbit_seeds=4, n_seeds=4, wkb_T=100.0, seed=7
        )
        cert = certify(flat, pair, budget)
        assert cert.mechanism == "inconclusive"
        stages = [s["stage"] for s in cert.diagnostics["stages"]]
        assert stages == ["fixed_points", "orbits", "wkb"]
        orbit_stage = cert.diagnostics["stages"][1]
        assert orbit_stage["hyperbolic"] == 0

    def test_zero_free_eigenfield_certifies_through_orbit(self, flat):
        # a three-term eigenfield with one dominant amplitude has no
        # stagnation points but keeps a chaotic web; certification goes
        # through the orbit stage and lands on a hyperbolic orbit
        u = abc_field(1.0, 0.7, 0.3)
        pair = make_pair(flat, lower_index(flat, u), 1.0)
        budget = CertifyBudget(T_max=20.0, orbit_seeds=10, n_seeds=2, seed=1)
        cert = certify(flat, pair, budget)
        assert cert.mechanism == "hyperbolic_orbit"
        orbit = cert.witness
        assert orbit.nondegenerate
        assert orbit.orbit_type.endswith("hyperbolic")
        # exponent equals the Floquet growth rate by construction
        growth = np.log(np.abs(orbit.multipliers).max()) / orbit.period
        assert cert.exponent == pytest.approx(growth, rel=1e-12)
        stages = {s["stage"]: s for s in cert.diagnostics["stages"]}
        assert stages["fixed_points"]["found"] == 0
        # empirical nondegeneracy of every resolved orbit in this run
        assert stages["orbits"]["nondegenerate"] == stages["orbits"]["resolved"]

    def test_perturbed_metric_certifies_generically(self):
        # end-to-end run on a random metric with a recorded seed: the
        # eigenfield mixes the axis modes, loses integrability, and the
        # wave-packet stage certifies instability
        from curllab.curlspec import eigenpairs
        from curllab.fields import random_metric

        g = random_metric(2.0, 0.15, 5000)
        pair = eigenpairs(g, 2, {"interval": [0.6, 1.4]})[0]
        budget = CertifyBudget(
            T_max=25.0, orbit_seeds=8, n_seeds=4, wkb_T=60.0, seed=1
        )
        cert = certify(g, pair, budget)
        assert cert.mechanism == "positive_wkb_exponent"
        assert cert.exponent > WKB_THRESHOLD
        assert cert.witness.tail_slope == pytest.approx(cert.exponent)

    def test_certificate_serializes(self, flat):
        form = lower_index(flat_metric(), abc_field(1, 1, 1))
        pair = make_pair(flat, form, 1.0)
        cert = certify(flat, pair, CertifyBudget(n_seeds=1, orbit_seeds=1))
        doc = cert.to_json_dict()
        assert doc["mechanism"] == "saddle_fixed_point"
        assert doc["witness"]["nondegenerate"] is True
        assert set(doc["tolerances"]) >= {"newton_tol", "orbit_tol", "mult_tol"}

    def test_exponent_independent_of_eigenform_scale(self, flat):
        # the eigenform's normalization fixes the flow speed arbitrarily;
        # a certificate reports in unit-mean-speed time, so scaling the
        # form leaves every rate alone and moves only speed_scale
        form = lower_index(flat_metric(), abc_field(1, 1, 1))
        unit = (1.0 / l2_norm(flat, form)) * form
        budget = CertifyBudget(n_seeds=2, orbit_seeds=2)
        certs = [
            certify(flat, EigenPair(eigenvalue=1.0, form=scale * unit,
                                    residual=0.0, index=0), budget)
            for scale in (1.0, 4.0)
        ]
        assert [c.mechanism for c in certs] == ["saddle_fixed_point"] * 2
        assert certs[1].exponent == pytest.approx(certs[0].exponent, rel=1e-9)
        assert certs[1].speed_scale == pytest.approx(
            4.0 * certs[0].speed_scale, rel=1e-9
        )

    def test_certificate_records_budget_threshold(self, flat):
        form = lower_index(flat_metric(), abc_field(1, 1, 1))
        pair = make_pair(flat, form, 1.0)
        budget = CertifyBudget(n_seeds=1, orbit_seeds=1)
        doc = certify(flat, pair, budget).to_json_dict()
        assert doc["tolerances"]["wkb_threshold"] == WKB_THRESHOLD
        assert doc["time_unit"] == "unit_mean_speed"
        assert doc["speed_scale"] > 0

    def test_generic_pair_certifies_on_one_jet(self, bumpy, monkeypatch):
        # a Galerkin eigenpair of a non-constant metric, certified with the
        # sweep benchmark's budget: the stages run on the flow alone (no
        # Reeb rescaling stage) and share the jet built once for them
        from curllab.fields import FieldJet

        pair = eigenpairs(bumpy, 2, {"interval": [0.9, 1.1]})[0]
        built = []
        init = FieldJet.__init__

        def counting_init(self, field):
            built.append(field)
            init(self, field)

        monkeypatch.setattr(FieldJet, "__init__", counting_init)
        budget = CertifyBudget(T_max=6.0, orbit_seeds=2, n_seeds=2, wkb_T=20.0)
        cert = certify(bumpy, pair, budget)
        stages = [s["stage"] for s in cert.diagnostics["stages"]]
        assert stages == ["fixed_points", "orbits", "wkb"]
        assert len(built) == 1

    def test_kernel_pair_rejected(self, flat):
        from conftest import shear_one_form

        pair = make_pair(flat, shear_one_form(1), 0.0)
        with pytest.raises(ValueError):
            certify(flat, pair)
