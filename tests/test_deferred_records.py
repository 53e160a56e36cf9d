"""Transcript events and ``RunReport.extra`` recorded as arrays and built on
first read.

Steps record the payloads that grow with the number of pairs as deferred
builders over their arrays; reading ``events``, ``to_list()`` or
``extra`` must give the same events and dicts, in the same order, on
every read.
"""

import numpy as np

from qss_sim.adversaries import AdversarySpec
from qss_sim.pauli import PauliOp
from qss_sim.protocol import (
    RunReport,
    ScenarioConfig,
    Transcript,
    _Deferred,
    run_trial,
)


def _numbered(kind: str, values: np.ndarray) -> list[dict]:
    return [{"kind": kind, "value": v} for v in values.tolist()]


def test_deferred_events_keep_their_place():
    t = Transcript()
    t.append("a", n=0)
    t.defer(_numbered, "b", np.array([1, 2]))
    t.append("c", n=3)
    assert [e["kind"] for e in t.events] == ["a", "b", "b", "c"]
    # Appends and deferred runs after a read land after what was read.
    t.defer(_numbered, "d", np.array([4]))
    t.append("e", n=5)
    t.defer(_numbered, "f", np.array([], dtype=np.int64))
    t.defer(_numbered, "g", np.array([6, 7]))
    first = t.to_list()
    assert [e["kind"] for e in first] == ["a", "b", "b", "c", "d", "e", "g", "g"]
    assert [e.get("value", e.get("n")) for e in first] == list(range(8))
    assert t.events == first == t.to_list()
    assert t.events is t.events
    assert t.to_list() is not t.events


def test_report_reads_are_repeatable():
    scenario = ScenarioConfig(
        protocol="improved",
        n_pairs=24,
        agent_count=3,
        checking_photon_count=4,
        adversary=AdversarySpec(kind="eve_intercept_resend", hop="alice->zach:t"),
        error_threshold=1.0,
    )
    report = run_trial(scenario)
    events = report.transcript.events
    assert report.transcript.to_list() == events
    assert report.transcript.events is events
    kinds = {e["kind"] for e in events}
    assert {"zx_remote", "zx_local", "decoy_result", "publish_ops", "bell_outcomes"} <= kinds
    extra = report.extra
    assert report.extra is extra
    assert set(extra) == {"agent_ops", "alice_ops", "message_positions", "totals"}
    assert all(isinstance(op, PauliOp) for op in extra["totals"].values())
    assert sorted(extra["totals"]) == extra["message_positions"]


def test_deferred_values_hold_only_arrays_and_strings():
    # A retained report must not keep its run's engine, streams or runner
    # alive through a deferred value.
    for scenario in (
        ScenarioConfig(
            protocol="original",
            n_pairs=32,
            error_threshold=1.0,
            adversary=AdversarySpec(kind="bob_swap_attack"),
        ),
        ScenarioConfig(protocol="improved", n_pairs=32, agent_count=4, checking_photon_count=4),
    ):
        report = run_trial(scenario)
        deferred = [e for e in report.transcript._events if isinstance(e, _Deferred)]
        parts = report.__dict__["_extra"].args[0]
        for value in parts.values():
            values = value if isinstance(value, list) else [value]
            deferred += [v for v in values if isinstance(v, _Deferred)]
        assert len(deferred) > 10
        for block in deferred:
            for arg in block.args:
                assert isinstance(arg, (np.ndarray, str)), type(arg)


def test_report_extra_as_given():
    common = dict(
        config=ScenarioConfig(),
        checks=[],
        dealer_message=[],
        recovered={},
        eavesdropper_message=None,
        detected=False,
        transcript=Transcript(),
    )
    assert RunReport(**common).extra == {}
    given = {"totals": {0: PauliOp.I}}
    assert RunReport(**common, extra=given).extra is given
    built = RunReport(**common, extra=_Deferred(dict, given))
    assert built.extra == given and built.extra is not given
