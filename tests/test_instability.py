"""Wave-packet growth exponents and the certification pipeline."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from curllab import instability
from curllab.curlspec import EigenPair, eigenpairs
from curllab.dynamics import (
    _orthonormal_complement,
    abc_field,
    find_fixed_points,
    shear_field,
    solve_lanes,
)
from curllab.fields import (
    FieldJet,
    FourierField,
    JetStack,
    as_jet,
    flat_metric,
    l2_norm,
    sharp,
)
from curllab.fields import flat as lower_index
from curllab.instability import (
    WKB_THRESHOLD,
    CertifyBudget,
    InstabilityCertificate,
    certify,
    certify_batch,
    wkb_exponent,
)
from conftest import random_one_form
from test_dynamics import FrozenJet


def one_packet(u, x0, xi0, **kwargs):
    """wkb_exponent on a batch of one packet, raising if its lane failed."""
    (result,) = wkb_exponent([(u, x0, xi0)], **kwargs)
    assert result is not None, "the packet's integration failed"
    return result


def make_pair(metric, form, eigenvalue):
    norm = l2_norm(metric, form)
    return EigenPair(
        eigenvalue=eigenvalue, form=(1.0 / norm) * form, residual=0.0, index=0
    )


class TestWKBExponent:
    @pytest.mark.parametrize("T", [0.0, -5.0, np.nan, np.inf])
    def test_bad_horizon_is_refused(self, T):
        with pytest.raises(ValueError, match="T must be a finite real > 0"):
            wkb_exponent([(abc_field(1, 1, 1), (0.1, 0.2, 0.3), (1.0, 0.0, 0.0))],
                         T=T)

    def test_constant_field_no_growth(self):
        u = FourierField.constant("vector", [0.3, -1.0, 0.7])
        exp = one_packet(u, (0.1, 0.2, 0.3), (1.0, 0.0, 0.0), T=50.0).exponent
        assert abs(exp) <= 1e-6

    def test_frozen_saddle_recovers_rate(self):
        # oracle: the linear transport system solves in closed form; with
        # the wavevector on the contracting covector axis the amplitude
        # grows at exactly the stretching rate
        nu = 0.8
        jet = FrozenJet([0.0, 0.0, 0.0], np.diag([nu, -nu, 0.0]))
        exp = one_packet(jet, (0, 0, 0), (1.0, 0.0, 0.0), T=50.0).exponent
        assert exp == pytest.approx(nu, rel=0.01)

    def test_frozen_saddle_tail_slope(self):
        nu = 0.8
        jet = FrozenJet([0.0, 0.0, 0.0], np.diag([nu, -nu, 0.0]))
        result = one_packet(jet, (0, 0, 0), (1, 0, 0), T=50.0)
        assert result.tail_slope == pytest.approx(nu, rel=0.01)

    def test_growth_past_float_range_stays_finite(self):
        # log-growth 800 at T = 200: |b| = e^800 is not a float, its log is
        nu = 4.0
        jet = FrozenJet([0.0, 0.0, 0.0], np.diag([nu, -nu, 0.0]))
        result = one_packet(jet, (0, 0, 0), (1.0, 0.0, 0.0), T=200.0)
        assert np.all(np.isfinite(result.log_growth))
        assert result.log_growth.max() == pytest.approx(nu * 200.0, rel=0.01)
        assert result.exponent == pytest.approx(nu, rel=0.01)
        assert result.tail_slope == pytest.approx(nu, rel=0.01)
        assert result.amplitude_orthogonality_drift <= 1e-6
        assert result.frequency_transport_drift <= 1e-6

    def test_rescaling_doubles_exponent(self):
        u = abc_field(1, 1, 1)
        x0, xi0 = (0.7, 1.9, 4.0), (0.0, 1.0, 1.0)
        base = one_packet(u, x0, xi0, T=40.0, rtol=1e-9, atol=1e-11).exponent
        doubled = one_packet(
            2.0 * u, x0, xi0, T=20.0, rtol=1e-9, atol=1e-11
        ).exponent
        assert doubled == pytest.approx(2.0 * base, rel=0.01)

    def test_conserved_quantities_drift(self):
        u = abc_field(1, 1, 1)
        result = one_packet(u, (0.3, 0.1, 0.9), (0.5, -0.5, 1.0), T=100.0)
        assert result.amplitude_orthogonality_drift <= 1e-6
        assert result.frequency_transport_drift <= 1e-6

    def test_exponent_independent_of_wavevector_scale(self):
        u = abc_field(1, 1, 1)
        a = one_packet(u, (0.7, 1.9, 4.0), (0, 1, 1), T=20.0).exponent
        b = one_packet(u, (0.7, 1.9, 4.0), (0, 100, 100), T=20.0).exponent
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
        result = one_packet(u, rec.location + 1e-3, xi0, T=10.0,
                            rtol=1e-9, atol=1e-11)
        assert result.exponent > 0
        # seeded exactly at the zero the frozen linearization growth shows
        at_zero = one_packet(u, rec.location, xi0, T=30.0, rtol=1e-9,
                             atol=1e-11)
        assert at_zero.tail_slope == pytest.approx(unstable_rate / 2, rel=0.05)

    def test_integrable_shear_growth_is_algebraic(self):
        # amplitudes grow linearly, so the tail slope collapses while the
        # raw ratio can sit above zero
        result = one_packet(
            shear_field(1), (0.2, 0.4, 1.0), (1.0, 0.5, 0.25), T=200.0,
            rtol=1e-8, atol=1e-10,
        )
        assert result.tail_slope < 1e-2
        assert result.exponent < 0.05

    def test_zero_wavevector_rejected(self):
        with pytest.raises(ValueError):
            one_packet(shear_field(1), (0, 0, 0), (0, 0, 0), T=1.0)


def packet_rhs(jet):
    """The transport system of one packet as a solve_ivp right-hand side:
    the projective form wkb_exponent integrates, written out on its own."""

    def rhs(_, y):
        x, xi, b = y[:3], y[3:6], y[7:13].reshape(2, 3)
        val, jac = jet.value_and_jacobian(x)
        xi_sq = xi @ xi
        g = -jac.T @ xi
        rho = (xi @ g) / xi_sq
        jb = b @ jac.T
        f = -jb + np.outer(2.0 * (jb @ xi) / xi_sq, xi)
        r = np.einsum("ij,ij->i", b, f) / np.einsum("ij,ij->i", b, b)
        return np.concatenate(
            [val, g - rho * xi, [rho], (f - r[:, None] * b).ravel(), r])

    return rhs


def packet_state(x0, xi0):
    xi0 = np.asarray(xi0, float) / np.linalg.norm(xi0)
    bs = np.stack(_orthonormal_complement(xi0))
    return np.r_[x0, xi0, 0.0, bs.ravel(), 0.0, 0.0]


class NonFiniteJet:
    """A jet whose batched evaluation is NaN: lanes on it must fail."""

    def __init__(self, jet):
        self.jet = jet

    def __getattr__(self, name):
        return getattr(self.jet, name)

    def values_and_jacobians(self, points):
        vals, jacs = self.jet.values_and_jacobians(points)
        return np.full_like(vals, np.nan), jacs


def batch_packets():
    """Twelve packets on six jets, two per jet, drawn as certify draws them."""
    fields = [abc_field(1.0, 0.7, 0.3), abc_field(1.0, 1.0, 1.0),
              abc_field(0.5, 1.0, 0.8), shear_field(1)]
    rng = np.random.default_rng(3)
    fields += [FourierField("vector", 0.05 * random_one_form(2, rng).coeffs)
               for _ in range(2)]
    packets = []
    for field in fields:
        jet = as_jet(field)
        for _ in range(2):
            x0 = rng.uniform(0.0, 2 * np.pi, 3)
            xi0 = rng.standard_normal(3)
            packets.append((jet, x0, xi0 / np.linalg.norm(xi0)))
    return packets


def assert_same_result(a, b):
    assert a.exponent == b.exponent and a.tail_slope == b.tail_slope
    assert a.amplitude_orthogonality_drift == b.amplitude_orthogonality_drift
    assert a.frequency_transport_drift == b.frequency_transport_drift
    np.testing.assert_array_equal(a.ts, b.ts)
    np.testing.assert_array_equal(a.log_growth, b.log_growth)


class TestLanes:
    TOLS = {"rtol": 1e-8, "atol": 1e-10}  # certify's

    def test_packet_alone_equals_packet_in_batch(self):
        packets = batch_packets()
        batch = wkb_exponent(packets, T=20.0, **self.TOLS)
        for k in (0, 5, 11):
            (alone,) = wkb_exponent([packets[k]], T=20.0, **self.TOLS)
            assert_same_result(alone, batch[k])
        # a different company and order leave a packet's numbers alone too
        shuffled = wkb_exponent(packets[::-1][:7], T=20.0, **self.TOLS)
        for k, result in zip(range(11, 4, -1), shuffled):
            assert_same_result(result, batch[k])

    @pytest.mark.parametrize("case", ["frozen_saddle", "abc"])
    def test_lane_solver_matches_solve_ivp(self, case):
        if case == "frozen_saddle":
            jet = FrozenJet([0.0, 0.0, 0.0], np.diag([0.8, -0.8, 0.0]))
            y0, T = packet_state((0, 0, 0), (1.0, 0.0, 0.0)), 50.0
        else:
            jet = as_jet(abc_field(1, 1, 1))
            y0, T = packet_state((0.7, 1.9, 4.0), (0, 1, 1)), 20.0
        ts = np.linspace(0.0, T, int(T) + 1)
        ref = solve_ivp(packet_rhs(jet), (0.0, T), y0, method="DOP853",
                        t_eval=ts, **self.TOLS)
        assert ref.success
        rhs = instability._wkb_rhs(JetStack([jet]), np.zeros(1, int))
        samples, failed = solve_lanes(rhs, y0[None], T, len(ts), **self.TOLS)
        assert not failed.any()
        scale = np.maximum(1.0, np.abs(ref.y.T))
        assert np.abs(samples[0] - ref.y.T).max() <= (1e-12 * scale).max()
        (result,) = wkb_exponent([(jet, y0[:3], y0[3:6])], T=T, **self.TOLS)
        log_growth = ref.y[13:15] + np.log(
            np.linalg.norm(ref.y[7:13].T.reshape(-1, 2, 3), axis=2).T)
        assert abs(result.exponent - log_growth[:, -1].max() / T) <= 1e-12

    def test_non_finite_lane_fails_alone(self):
        packets = batch_packets()[:4]
        jet, x0, xi0 = packets[2]
        poisoned = packets[:2] + [(NonFiniteJet(jet), x0, xi0)] + packets[3:]
        results = wkb_exponent(poisoned, T=20.0, **self.TOLS)
        assert results[2] is None
        for k in (0, 1, 3):
            (alone,) = wkb_exponent([packets[k]], T=20.0, **self.TOLS)
            assert_same_result(results[k], alone)

    def test_no_packets(self):
        assert wkb_exponent([], T=5.0) == []

def live_lanes_spy(monkeypatch, module):
    """Wrap module.solve_lanes so that every RHS evaluation records its
    lanes; returns the list of calls, each a list of lane arrays."""
    calls = []
    solve = module.solve_lanes

    def spying(rhs, y0, T, n_samples, **kwargs):
        lanes_seen = []
        calls.append(lanes_seen)

        def recording(lanes, y):
            lanes_seen.append(np.array(lanes))
            return rhs(lanes, y)

        return solve(recording, y0, T, n_samples, **kwargs)

    monkeypatch.setattr(module, "solve_lanes", spying)
    return calls


class TestSweepShapedLanes:
    """Six eigenpair jets of one metric, two packets each, as a sweep
    sample brings them: all ride one stacked kernel call per RHS."""

    def test_packet_in_the_stack_equals_packet_alone(self, bumpy, monkeypatch):
        pairs = eigenpairs(bumpy, 2, {"interval": [0.9, 1.1]})
        assert len(pairs) == 6
        rng = np.random.default_rng(8)
        packets = []
        for pair in pairs:
            jet = as_jet(sharp(bumpy, pair.form))
            for _ in range(2):
                xi0 = rng.standard_normal(3)
                packets.append((jet, rng.uniform(0.0, 2 * np.pi, 3),
                                xi0 / np.linalg.norm(xi0)))
        assert len({jet.truncation for jet, _, _ in packets}) == 1
        calls = live_lanes_spy(monkeypatch, instability)
        batch = wkb_exponent(packets, T=20.0, **TestLanes.TOLS)
        monkeypatch.undo()
        # the lanes finish at different steps: their last evaluations differ
        (evaluations,) = calls
        last = {int(lane): i for i, lanes in enumerate(evaluations) for lane in lanes}
        assert len(last) == 12 and len(set(last.values())) > 1
        for packet, result in zip(packets, batch):
            (alone,) = wkb_exponent([packet], T=20.0, **TestLanes.TOLS)
            assert_same_result(alone, result)


class TestOneKernelPerRHS:
    def test_sweep_sample_stacks_its_solves(self, monkeypatch):
        # one stacked kernel call per RHS evaluation of the wave-packet
        # solve and of the orbit scan, and one scan solve for all pairs
        from curllab import dynamics, fields, lab

        kernel_calls = []
        kernel = fields._point_sum

        def counting(blocks, points):
            kernel_calls.append(len(blocks))
            return kernel(blocks, points)

        monkeypatch.setattr(fields, "_point_sum", counting)
        per_rhs = {"wkb": [], "scan": []}

        def spy(module, name, is_target):
            solve = module.solve_lanes

            def spying(rhs, y0, T, n_samples, **kwargs):
                if not is_target(kwargs):
                    return solve(rhs, y0, T, n_samples, **kwargs)

                def counted(lanes, y):
                    before = len(kernel_calls)
                    out = rhs(lanes, y)
                    per_rhs[name][-1][1].append(len(kernel_calls) - before)
                    return out

                per_rhs[name].append((len(y0), []))
                return solve(counted, y0, T, n_samples, **kwargs)

            monkeypatch.setattr(module, "solve_lanes", spying)

        spy(instability, "wkb", lambda kwargs: True)
        spy(dynamics, "scan", lambda kwargs: kwargs["rtol"] == dynamics.SCAN_TOL)
        config = lab.SweepConfig(
            samples=1, truncation=2, seed=99, certify_pairs=True,
            window={"interval": [0.9, 1.1]},
            budget={"T_max": 4.0, "orbit_seeds": 2, "n_seeds": 1, "wkb_T": 10.0})
        (record,) = lab.run_sweep(config)
        stages = [[s["stage"] for s in report["certificate"]["diagnostics"]["stages"]]
                  for report in record.pair_reports]
        assert len(stages) == 6 and all(s[-1] == "wkb" for s in stages)
        for name, lanes in (("wkb", 6), ("scan", 12)):
            ((n_lanes, evaluations),) = per_rhs[name]
            assert n_lanes == lanes, name
            assert evaluations and set(evaluations) == {1}, name


class TestCertifyBudget:
    @pytest.mark.parametrize("values", [
        {"T_max": -5}, {"T_max": 0.0}, {"T_max": float("nan")},
        {"T_max": float("inf")}, {"T_max": True}, {"T_max": "50"},
        {"wkb_T": "20"}, {"wkb_T": -1.0}, {"wkb_T": None},
        {"n_seeds": 2.5}, {"n_seeds": 2.0}, {"n_seeds": -1}, {"n_seeds": False},
        {"orbit_seeds": "4"}, {"orbit_seeds": -3},
        {"seed": -1}, {"seed": 1.0}, {"seed": True},
    ])
    def test_bad_values_rejected(self, values):
        (name,) = values
        with pytest.raises(ValueError, match=name):
            CertifyBudget(**values)

    def test_good_values_accepted(self):
        budget = CertifyBudget(T_max=6, n_seeds=0, orbit_seeds=np.int64(2),
                               wkb_T=np.float64(20.0), seed=2**40)
        assert budget.T_max == 6 and budget.n_seeds == 0


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

    def test_one_lane_solve_per_batch(self, flat, monkeypatch):
        # both pairs reach the wave-packet stage; their packets share one
        # lane solve, every lane over [0, wkb_T]
        from conftest import shear_one_form

        calls = []

        def counting(rhs, y0, T, n_samples, **kwargs):
            samples, failed = solve_lanes(rhs, y0, T, n_samples, **kwargs)
            # every lane ran to T: its last sample is the state at T
            calls.append((len(y0), T, int((~failed).sum()),
                          int(np.isfinite(samples[:, -1]).all(axis=1).sum())))
            return samples, failed

        monkeypatch.setattr(instability, "solve_lanes", counting)
        pairs = [make_pair(flat, shear_one_form(k), float(k)) for k in (1, 2)]
        budgets = [CertifyBudget(T_max=4.0, orbit_seeds=1, n_seeds=3,
                                 wkb_T=10.0, seed=s) for s in (1, 2)]
        certs = certify_batch(flat, pairs, budgets)
        assert calls == [(6, 10.0, 6, 6)]
        for cert in certs:
            wkb = cert.diagnostics["stages"][-1]
            assert wkb["stage"] == "wkb" and wkb["samples"] == 3
            assert wkb["failures"] == 0

    def test_mixed_wkb_horizons_rejected_before_any_stage(self, flat,
                                                          monkeypatch):
        from conftest import shear_one_form

        def no_stage(jet):
            raise AssertionError("the budgets are checked before any stage")

        monkeypatch.setattr(instability, "find_fixed_points", no_stage)
        pair = make_pair(flat, shear_one_form(1), 1.0)
        budgets = [CertifyBudget(T_max=4.0, orbit_seeds=1, n_seeds=2,
                                 wkb_T=T) for T in (10.0, 20.0)]
        with pytest.raises(ValueError, match="wkb_T"):
            certify_batch(flat, [pair, pair], budgets)

    def test_pair_alone_equals_pair_in_batch(self, flat):
        from conftest import shear_one_form

        pairs = [make_pair(flat, shear_one_form(k), float(k)) for k in (1, 2)]
        budget = CertifyBudget(T_max=4.0, orbit_seeds=1, n_seeds=2,
                               wkb_T=10.0, seed=4)
        batch = certify_batch(flat, pairs, [budget, budget])
        for pair, cert in zip(pairs, batch):
            assert certify(flat, pair, budget).to_json_dict() == cert.to_json_dict()

    def test_failed_lane_counts_for_its_own_pair(self, flat, monkeypatch):
        from conftest import shear_one_form

        built = []

        def poisoning(field):
            if not isinstance(field, FourierField):
                return field
            jet = FieldJet(field)
            built.append(jet)
            return NonFiniteJet(jet) if len(built) == 2 else jet

        monkeypatch.setattr(instability, "as_jet", poisoning)
        pair = make_pair(flat, shear_one_form(1), 1.0)
        budget = CertifyBudget(T_max=4.0, orbit_seeds=1, n_seeds=2, wkb_T=10.0)
        first, second = certify_batch(flat, [pair, pair], [budget, budget])
        assert first.diagnostics["stages"][-1]["failures"] == 0
        assert second.diagnostics["stages"][-1]["failures"] == 2
        assert second.mechanism == "inconclusive" and second.witness is None
        monkeypatch.undo()
        assert certify(flat, pair, budget).to_json_dict() == first.to_json_dict()

    def test_raising_pair_leaves_the_others(self, flat, monkeypatch):
        from conftest import shear_one_form

        calls = []
        find = instability.find_fixed_points

        def failing_second(jet):
            calls.append(jet)
            if len(calls) == 2:
                raise RuntimeError("stage failure")
            return find(jet)

        monkeypatch.setattr(instability, "find_fixed_points", failing_second)
        pair = make_pair(flat, shear_one_form(1), 1.0)
        budget = CertifyBudget(T_max=4.0, orbit_seeds=1, n_seeds=2, wkb_T=10.0)
        outcomes = certify_batch(flat, [pair] * 3, [budget] * 3)
        assert isinstance(outcomes[1], RuntimeError)
        monkeypatch.undo()
        alone = certify(flat, pair, budget).to_json_dict()
        for outcome in (outcomes[0], outcomes[2]):
            assert isinstance(outcome, InstabilityCertificate)
            assert outcome.to_json_dict() == alone
