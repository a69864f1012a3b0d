"""Spans around curllab's layer boundaries, installed from outside ``src/``.

``install`` replaces public functions of each layer with timing wrappers
at the place they are looked up (a name imported with ``from x import
y`` is wrapped in the importing module too) and ``Tracer.uninstall``
puts the originals back. A span keeps its name, start, end, parent and
an optional value (a count taken from the call, such as RHS evaluations
of one ``solve_ivp``); spans stay in memory until the run ends. Parents
are tracked per thread, so the sweep's worker threads nest correctly.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list = []  # (id, name, parent id or -1, start, end, value)
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list = []

    def wrap(self, name: str, fn, value=None):
        """fn with a span per call; value(args, result) adds a count to it."""
        spans, ids, local, clock = self.spans, self._ids, self._local, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            count = None
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                if value is not None:
                    count = value(args, out)
                return out
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, name, parent, t0, t1, count))

        return traced

    def patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def aggregate(self) -> dict:
        """Per span name: calls, inclusive and self seconds, value sum and max."""
        child = defaultdict(float)
        for _, _, parent, t0, t1, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict = {}
        for sid, name, _, t0, t1, value in self.spans:
            row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                        "value_sum": 0, "value_max": 0})
            row["calls"] += 1
            row["busy_s"] += t1 - t0
            row["self_s"] += t1 - t0 - child[sid]
            if value is not None:
                row["value_sum"] += value
                row["value_max"] = max(row["value_max"], value)
        return out

    def to_json_dict(self, origin: float) -> dict:
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "columns": ["id", "name", "parent", "start_s", "end_s", "value"],
            "spans": [[sid, index[name], parent, round(t0 - origin, 7),
                       round(t1 - origin, 7), value]
                      for sid, name, parent, t0, t1, value in self.spans],
        }


def install(tracer: Tracer) -> None:
    """Wrap the public functions of fields, curlspec, dynamics, contact,
    instability and lab where curllab looks them up."""
    from curllab import contact, curlspec, dynamics, fields, instability, lab

    wrap, patch = tracer.wrap, tracer.patch

    jet = fields.FieldJet
    patch(jet, "__init__", wrap("fields.jet.init", jet.__init__,
                                lambda args, _: args[1].coeffs.size))
    patch(jet, "value_and_jacobian",
          wrap("fields.jet.value_and_jacobian", jet.value_and_jacobian))
    patch(jet, "value", wrap("fields.jet.value", jet.value))
    sharp = wrap("fields.sharp", fields.sharp)
    patch(fields, "sharp", sharp)
    patch(instability, "sharp", sharp)

    assemble = wrap("curlspec.assemble", curlspec.assemble,
                    lambda _, op: op.dim)
    patch(curlspec, "assemble", assemble)
    eigenpairs = wrap("curlspec.eigenpairs", curlspec.eigenpairs,
                      lambda _, pairs: len(pairs))
    patch(curlspec, "eigenpairs", eigenpairs)
    # curlspec is curllab's only caller of scipy.linalg.eigh
    patch(curlspec.sla, "eigh", wrap("curlspec.dense_eigh", curlspec.sla.eigh))
    gram = curlspec.CurlOperator.__dict__["gram_matrix"]  # a cached_property
    patch(gram, "func", wrap("curlspec.gram_matrix", gram.func))
    for method in ("residual", "coexact_residual_packed"):
        patch(curlspec.CurlOperator, method, wrap(
            "curlspec.pair_checks", getattr(curlspec.CurlOperator, method)))

    ivp = wrap("dynamics.ivp", dynamics.solve_ivp, lambda _, sol: sol.nfev)
    patch(dynamics, "solve_ivp", ivp)
    patch(instability, "solve_ivp", ivp)
    for name in ("flow", "variational_flow"):
        patch(dynamics, name, wrap(f"dynamics.{name}", getattr(dynamics, name)))
    for name in ("find_fixed_points", "find_periodic_orbits"):
        patch(instability, name,
              wrap(f"dynamics.{name}", getattr(instability, name)))

    patch(contact, "beltrami_to_reeb",
          wrap("contact.beltrami_to_reeb", contact.beltrami_to_reeb))
    patch(instability, "wkb_exponent",
          wrap("instability.wkb_exponent", instability.wkb_exponent))
    certify = wrap("instability.certify", instability.certify)
    patch(instability, "certify", certify)

    patch(lab, "sample_metric", wrap("lab.sample_metric", lab.sample_metric))
    patch(lab, "assemble", wrap("lab.assemble", assemble))
    patch(lab, "eigenpairs", wrap("lab.eigenpairs", eigenpairs))
    patch(lab, "certify", wrap("lab.certify", certify))


LAB_SPANS = ("lab.sample_metric", "lab.assemble", "lab.eigenpairs", "lab.certify")


def layer_metrics(agg: dict, certificates: list, n_ops: int,
                  wall_s: float, threads: int) -> dict:
    """The per-layer metrics, each per operation unless its unit says not.

    agg is Tracer.aggregate(); certificates are the certificate JSON
    documents the traced calls returned; wall_s is the traced wall time
    of the timed rounds and threads the Python threads that shared it.
    """
    def row(name):
        return agg.get(name, {"calls": 0, "busy_s": 0.0, "value_sum": 0,
                              "value_max": 0})

    def per_op(x):
        return x / n_ops

    def us_per_call(name):
        r = row(name)
        return 1e6 * r["busy_s"] / r["calls"] if r["calls"] else 0.0

    m = {}

    def put(name, value, unit):
        m[name] = {"value": float(value), "unit": unit}

    put("fields.jet.vj_calls", per_op(row("fields.jet.value_and_jacobian")["calls"]), "count/op")
    put("fields.jet.vj_us", us_per_call("fields.jet.value_and_jacobian"), "us")
    put("fields.jet.value_calls", per_op(row("fields.jet.value")["calls"]), "count/op")
    put("fields.jet.value_us", us_per_call("fields.jet.value"), "us")
    put("fields.jet.terms", row("fields.jet.init")["value_max"], "count")
    put("fields.sharp.busy_s", per_op(row("fields.sharp")["busy_s"]), "s/op")

    eig = row("curlspec.eigenpairs")
    put("curlspec.eigenpairs.calls", per_op(eig["calls"]), "count/op")
    put("curlspec.eigenpairs.busy_s", per_op(eig["busy_s"]), "s/op")
    put("curlspec.dim", row("curlspec.assemble")["value_max"], "count")
    put("curlspec.pairs_returned",
        eig["value_sum"] / eig["calls"] if eig["calls"] else 0.0, "count")
    for name in ("dense_eigh", "gram_matrix", "pair_checks"):
        put(f"curlspec.{name}.busy_s", per_op(row(f"curlspec.{name}")["busy_s"]), "s/op")

    put("dynamics.ivp.calls", per_op(row("dynamics.ivp")["calls"]), "count/op")
    put("dynamics.ivp.nfev", per_op(row("dynamics.ivp")["value_sum"]), "count/op")
    put("dynamics.find_periodic_orbits.busy_s",
        per_op(row("dynamics.find_periodic_orbits")["busy_s"]), "s/op")
    for name in ("variational_flow", "flow"):
        put(f"dynamics.{name}.calls", per_op(row(f"dynamics.{name}")["calls"]), "count/op")
        put(f"dynamics.{name}.busy_s", per_op(row(f"dynamics.{name}")["busy_s"]), "s/op")
    put("dynamics.find_fixed_points.busy_s",
        per_op(row("dynamics.find_fixed_points")["busy_s"]), "s/op")

    orbits = defaultdict(int)
    wkb_failures = 0
    mechanisms = defaultdict(int)
    for doc in certificates:
        mechanisms[doc["mechanism"]] += 1
        for stage in doc["diagnostics"]["stages"]:
            if stage["stage"] == "orbits":
                for key in ("candidates", "resolved", "unresolved", "duplicates"):
                    orbits[key] += stage.get(key, 0)
            elif stage["stage"] == "wkb":
                wkb_failures += stage.get("failures", 0)
    for key in ("candidates", "resolved", "unresolved", "duplicates"):
        put(f"dynamics.orbits.{key}", per_op(orbits[key]), "count/op")
    put("dynamics.orbits.resolved_per_candidate",
        orbits["resolved"] / orbits["candidates"] if orbits["candidates"] else 0.0,
        "ratio")

    reeb = row("contact.beltrami_to_reeb")
    put("contact.beltrami_to_reeb.calls", per_op(reeb["calls"]), "count/op")
    put("contact.beltrami_to_reeb.busy_s", per_op(reeb["busy_s"]), "s/op")
    for name in ("certify", "wkb_exponent"):
        r = row(f"instability.{name}")
        put(f"instability.{name}.calls", per_op(r["calls"]), "count/op")
        put(f"instability.{name}.busy_s", per_op(r["busy_s"]), "s/op")
    put("instability.wkb.failures", per_op(wkb_failures), "count/op")
    for mech in ("saddle_fixed_point", "hyperbolic_orbit",
                 "positive_wkb_exponent", "inconclusive"):
        put(f"instability.mechanism.{mech}", per_op(mechanisms[mech]), "count/op")

    lab_busy = sum(row(name)["busy_s"] for name in LAB_SPANS)
    put("lab.busy_s", per_op(lab_busy), "s/op")
    put("lab.parallel_eff", lab_busy / (wall_s * threads), "ratio")
    return m


def self_time_table(agg: dict, wall_s: float, threads: int) -> list:
    """Rows sorted by self time, with each name's share of the traced wall."""
    rows = [
        {"name": name, "calls": r["calls"], "busy_s": r["busy_s"],
         "self_s": r["self_s"], "share": r["self_s"] / (wall_s * threads)}
        for name, r in agg.items()
    ]
    return sorted(rows, key=lambda r: -r["self_s"])
