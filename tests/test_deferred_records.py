"""Transcript events recorded as arrays and built on first read.

Steps record the payload values that grow with the number of pairs --
public announcements and the private, analysis-only record alike -- and
the runs of one event per position as deferred builders over their
arrays, which are made read-only when deferred.  Reading ``events`` or
``to_list()`` must give the same events, in the same order, on every
read.
"""

import numpy as np

from qss_sim.adversaries import AdversarySpec
from qss_sim.pauli import PauliOp
from qss_sim.protocol import ScenarioConfig, Transcript, _Deferred, run_trial

from private_records import private_record


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


def test_deferred_payload_values_are_built_in_place():
    t = Transcript()
    positions = np.array([3, 5])
    t.append("a", check="c", positions=_Deferred(np.ndarray.tolist, positions), n=1)
    t.defer(_numbered, "b", np.array([2]))
    assert not positions.flags.writeable
    assert t.events == [
        {"kind": "a", "check": "c", "positions": [3, 5], "n": 1},
        {"kind": "b", "value": 2},
    ]
    assert list(t.events[0]) == ["kind", "check", "positions", "n"]
    t.append("c", positions=_Deferred(np.ndarray.tolist, np.array([7])))
    assert t.to_list()[2] == {"kind": "c", "positions": [7]}


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
    extra = private_record(report)
    assert private_record(report) == extra
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
        # Deferred runs of events, and deferred values inside payloads.
        deferred = []
        for item in report.transcript._events:
            if isinstance(item, _Deferred):
                deferred.append(item)
            else:
                deferred += [v for v in item.values() if isinstance(v, _Deferred)]
        assert len(deferred) > 10
        for block in deferred:
            for arg in block.args:
                assert isinstance(arg, (np.ndarray, str)), type(arg)
                # No step may change what a later read builds.
                if isinstance(arg, np.ndarray):
                    assert not arg.flags.writeable

