"""The transcript: one event per announcement, with read-only arrays.

Steps record each public announcement and each private, analysis-only
record as one event, in order.  A payload value that grows with the
number of pairs is a numpy array of positions, results or codes, made
read-only where it is recorded, so a retained report holds no engine,
stream or runner and no later step can change what was recorded.
``to_list()`` names the codes and turns the arrays into lists, in new
dicts that plain ``json.dumps`` encodes.
"""

import json

import numpy as np
import pytest

from qss_sim.adversaries import AdversarySpec
from qss_sim.pauli import PauliOp
from qss_sim.protocol import ScenarioConfig, Transcript, run_trial

from private_records import private_record

SCENARIOS = {
    "original-swap": ScenarioConfig(
        protocol="original",
        n_pairs=32,
        error_threshold=1.0,
        adversary=AdversarySpec(kind="bob_swap_attack"),
    ),
    "original-eve": ScenarioConfig(
        protocol="original",
        n_pairs=32,
        error_threshold=1.0,
        adversary=AdversarySpec(kind="eve_intercept_resend", hop="bob->charlie"),
    ),
    "improved-honest": ScenarioConfig(
        protocol="improved", n_pairs=32, agent_count=4, checking_photon_count=4
    ),
    "improved-eve": ScenarioConfig(
        protocol="improved",
        n_pairs=24,
        agent_count=3,
        checking_photon_count=4,
        error_threshold=1.0,
        adversary=AdversarySpec(kind="eve_intercept_resend", hop="alice->zach:t"),
    ),
}


def test_events_keep_append_order():
    t = Transcript()
    t.append("a", n=0)
    t.append("b", positions=np.array([1, 2]))
    t.append("c", n=3)
    assert [e["kind"] for e in t.events] == ["a", "b", "c"]
    t.append("d", ops=np.array([[PauliOp.I, PauliOp.X], [PauliOp.Z, PauliOp.IY]]))
    listed = t.to_list()
    assert [e["kind"] for e in listed] == ["a", "b", "c", "d"]
    assert listed[1] == {"kind": "b", "positions": [1, 2]}
    # Codes are named by payload key, one row per agent in a 2-D array.
    assert listed[3] == {"kind": "d", "ops": [["I", "X"], ["Z", "IY"]]}
    assert list(listed[1]) == ["kind", "positions"]


def test_append_makes_array_payloads_read_only():
    # `append` freezes each array it records, in place, and records every
    # other payload value as it was given.
    t = Transcript()
    positions, ops = np.array([3, 1]), np.array([[PauliOp.X], [PauliOp.Z]])
    t.append("a", check="unit", n=2, positions=positions, ops=ops)
    (event,) = t.events
    assert list(event) == ["kind", "check", "n", "positions", "ops"]
    assert event["check"] == "unit"
    assert type(event["n"]) is int and event["n"] == 2
    assert event["positions"] is positions and event["ops"] is ops
    for array in (positions, ops):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[...] = 0


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_array_payloads_are_read_only(name):
    report = run_trial(SCENARIOS[name])
    events = report.transcript.events
    arrays = [v for e in events for v in e.values() if isinstance(v, np.ndarray)]
    # Every check and publication records arrays.
    assert len(arrays) > 10
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[...] = 0


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_retained_report_holds_only_arrays_strings_and_scalars(name):
    # A retained report must not keep its run's engine, streams or runner
    # alive through its transcript.
    report = run_trial(SCENARIOS[name])
    assert list(vars(report.transcript)) == ["events"]
    for event in report.transcript.events:
        assert type(event) is dict
        for value in event.values():
            assert isinstance(value, (np.ndarray, str, bool, int, float)), type(value)
            if isinstance(value, np.ndarray):
                assert value.dtype != object
    kinds = {e["kind"] for e in report.transcript.events}
    assert {"zx_results", "publish_ops", "bell_outcomes"} <= kinds


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_listed_transcript_is_plain_json(name):
    report = run_trial(SCENARIOS[name])
    listed = report.transcript.to_list()
    assert json.loads(json.dumps(listed)) == listed
    assert len(listed) == len(report.transcript.events)


def test_editing_a_listed_transcript_leaves_the_record_alone():
    report = run_trial(SCENARIOS["improved-eve"])
    t = report.transcript
    before = json.dumps(t.to_list())
    first = t.to_list()
    first[0]["pairs"] = 99
    first[3]["positions"].append(-1)
    del first[4]["kind"]
    first.pop()
    assert json.dumps(t.to_list()) == before
    assert t.events[0]["pairs"] == 24
    assert all(e is not f for e, f in zip(t.events, t.to_list()))


def test_private_record_reads_the_arrays():
    report = run_trial(SCENARIOS["improved-eve"])
    extra = private_record(report)
    assert private_record(report) == extra
    assert set(extra) == {"agent_ops", "alice_ops", "message_positions", "totals"}
    assert all(isinstance(op, PauliOp) for op in extra["totals"].values())
    assert sorted(extra["totals"]) == extra["message_positions"]
