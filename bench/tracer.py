"""In-memory span tracer for the qss-sim benchmark.

Spans are recorded from outside the package: ``install`` replaces the
public functions of each layer with timing wrappers, at the name each
caller looks up (``qss_sim.protocol.compose``, not only
``qss_sim.pauli.compose``).  A span is ``(name id, start ns, end ns,
parent span index, trial id)``; spans stay in memory until
``write_spans`` saves them once the run is over.

A call made from inside a span of the same layer is not a span of its
own for the register, pauli and adversaries layers: ``measure_single``
in the X basis applies H internally, and Eve's ``intercept_sequence``
calls ``intercept``.  Counts are therefore calls into a layer from the
layer above it.

``random_pauli`` lives in ``qss_sim.adversaries`` but is the honest
agents' key draw, so it is left unwrapped and its time is protocol
driver time.  ``qss_sim.oracles`` is not on the trial path and is never
wrapped.
"""

from __future__ import annotations

import inspect
import time

import numpy as np
import qss_sim.adversaries
import qss_sim.cli
import qss_sim.harness
import qss_sim.pauli
import qss_sim.protocol
import qss_sim.register

REGISTER_OPS = ("prepare_bell", "prepare_single", "apply_gate", "measure_single", "measure_bell")
PROTOCOL_PHASES = ("zx_check", "decoy_round", "verify_step6")
ADVERSARY_CLASSES = {
    "EveInterceptResend": "eve",
    "SwapAttackOriginal": "swap",
    "SwapAttackImproved": "swap",
}
FOLDED_LAYERS = ("register", "pauli", "adversaries")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_layer: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple[int, int, int, int, int] | None] = []
        self._stack: list[int] = [-1]
        self._layers: list[str | None] = [None]
        self.trial = -1
        self.trials_seen = 0
        self.merge_calls = 0
        self.transcript_events = 0
        self.missing: list[str] = []

    # -- wrapping ---------------------------------------------------------

    def wrap(self, layer: str, name: str, fn, probe=None):
        """Return `fn` wrapped in a span called `name` of `layer`.  `probe`
        runs before the span starts, on the call's arguments."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.name_layer.append(layer)
        nid = self._ids[name]
        fold = layer in FOLDED_LAYERS
        spans, stack, layers = self.spans, self._stack, self._layers
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            if fold and layers[-1] == layer:
                return fn(*args, **kwargs)
            if probe is not None:
                probe(*args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            layers.append(layer)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                layers.pop()
                spans[idx] = (nid, start, end, parent, tracer.trial)

        return traced

    def _patch(self, owner, attr: str, layer: str, name: str, probe=None) -> None:
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        setattr(owner, attr, self.wrap(layer, name, fn, probe))

    def _probe_merge(self, register, a, b, *rest) -> None:
        # A Bell measurement merges two groups when its photons are not
        # already entangled with each other.
        try:
            photons, _ = register.amplitudes_of(a)
        except qss_sim.register.RegisterError:
            return  # the call itself will raise
        if b not in photons:
            self.merge_calls += 1

    def _driver(self, fn):
        def run_trial(config):
            self.trial = self.trials_seen
            self.trials_seen += 1
            try:
                report = fn(config)
            finally:
                self.trial = -1
            self.transcript_events += len(report.transcript.events)
            return report

        return run_trial

    def install(self) -> None:
        """Wrap every traced name.  ``cli.main`` is wrapped by the caller,
        which holds the reference it calls."""
        for op in REGISTER_OPS:
            probe = self._probe_merge if op == "measure_bell" else None
            self._patch(qss_sim.register.Register, op, "register", f"register.{op}", probe)

        pauli_fns = {
            fn
            for _, fn in inspect.getmembers(qss_sim.pauli, inspect.isfunction)
            if fn.__module__ == "qss_sim.pauli" and not fn.__name__.startswith("_")
        }
        for caller in (qss_sim.protocol, qss_sim.adversaries):
            for attr, fn in inspect.getmembers(caller, inspect.isfunction):
                if fn in pauli_fns:
                    setattr(caller, attr, self.wrap("pauli", f"pauli.{fn.__name__}", fn))

        for cls_name, kind in ADVERSARY_CLASSES.items():
            cls = getattr(qss_sim.adversaries, cls_name, None)
            if cls is None:
                self.missing.append(f"adversaries.{cls_name}")
                continue
            for attr, fn in list(vars(cls).items()):
                if inspect.isfunction(fn) and not attr.startswith("_"):
                    setattr(cls, attr, self.wrap("adversaries", f"adversaries.{kind}.{attr}", fn))

        for phase in PROTOCOL_PHASES:
            self._patch(qss_sim.protocol, phase, "protocol", f"protocol.{phase}")
        driver = self.wrap("protocol", "protocol.driver", qss_sim.harness.run_trial)
        qss_sim.harness.run_trial = self._driver(driver)

        self._patch(qss_sim.cli, "run_batch", "harness", "harness.run_batch")
        self._patch(qss_sim.harness, "aggregate", "harness", "harness.aggregate")
        self._patch(qss_sim.harness, "jsonl_report", "harness", "harness.jsonl_report")

    # -- results ----------------------------------------------------------

    def _table(self) -> np.ndarray:
        return np.array(self.spans, dtype=np.int64).reshape(-1, 5)

    def summary(self, trials: int) -> dict[str, float]:
        """Per-layer figures of this repetition.  Times and counts are per
        trial; ``*_frac`` is a share of the ``cli.main`` span."""
        spans = self._table()
        nid, start, end, parent = spans[:, 0], spans[:, 1], spans[:, 2], spans[:, 3]
        dur = (end - start).astype(float)
        has_parent = parent >= 0
        child_ns = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(spans))
        self_ns = dur - child_ns
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        total = np.bincount(nid, weights=dur, minlength=k)
        self_by_name = np.bincount(nid, weights=self_ns, minlength=k)

        def by(name):
            i = self._ids.get(name)
            return (0, 0.0, 0.0) if i is None else (int(calls[i]), total[i], self_by_name[i])

        def layer_sum(prefix, column):
            return sum(
                column[i] for i, name in enumerate(self.names) if name.startswith(prefix)
            )

        run_ns = by("cli.main")[1]
        per_trial_ms = 1e-6 / trials
        out: dict[str, float] = {}
        for op in REGISTER_OPS:
            n, tot, _ = by(f"register.{op}")
            out[f"register.{op}.calls"] = n / trials
            out[f"register.{op}.us_per_call"] = tot / n / 1e3 if n else 0.0
        out["register.measure_bell.merge_calls"] = self.merge_calls / trials
        out["register.self_frac"] = layer_sum("register.", self_by_name) / run_ns
        out["pauli.calls"] = int(layer_sum("pauli.", calls)) / trials
        out["pauli.self_frac"] = layer_sum("pauli.", self_by_name) / run_ns
        for phase in PROTOCOL_PHASES + ("driver",):
            out[f"protocol.{phase}.self_ms"] = by(f"protocol.{phase}")[2] * per_trial_ms
        out["protocol.self_frac"] = layer_sum("protocol.", self_by_name) / run_ns
        out["protocol.transcript_events"] = self.transcript_events / trials
        out["adversaries.eve.self_ms"] = layer_sum("adversaries.eve.", self_by_name) * per_trial_ms
        out["adversaries.swap.self_ms"] = layer_sum("adversaries.swap.", self_by_name) * per_trial_ms
        out["adversaries.calls"] = int(layer_sum("adversaries.", calls)) / trials
        out["harness.run_batch.self_ms"] = by("harness.run_batch")[2] * per_trial_ms
        out["harness.aggregate.ms"] = by("harness.aggregate")[1] * per_trial_ms
        out["harness.jsonl_report.ms"] = by("harness.jsonl_report")[1] * per_trial_ms
        out["harness.self_frac"] = layer_sum("harness.", self_by_name) / run_ns
        out["cli.main.self_ms"] = by("cli.main")[2] * per_trial_ms
        return out

    def write_spans(self, path: str) -> None:
        """Save the spans: columns name id, start ns, end ns, parent span
        index (-1 for none), trial id (-1 outside a trial)."""
        np.savez(
            path,
            names=np.array(self.names),
            layers=np.array(self.name_layer),
            spans=self._table(),
        )
