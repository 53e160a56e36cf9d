"""Every check can end a run, and the run ends at the check that failed.

An intercept-resend eavesdropper on one hop, with a zero error
threshold and enough pairs that her ~25% error rate cannot hide, must
trip the first check after that hop and nothing else.  She intercepts
once, on her hop, every photon sent over it."""

import pytest

from qss_sim.adversaries import AdversarySpec, EveInterceptResend
from qss_sim.protocol import ScenarioConfig, run_trial

from private_records import private_events

AFTER_READOUT = {"totals", "alice_ops", "bob_ops", "message_positions"}
CHAIN = {"agent_ops"}
AFTER_ENCODING = {"agent_ops", "alice_ops", "message_positions"}

# (protocol, hop Eve sits on, check that must abort, private event kinds
# recorded by then)
CASES = [
    ("original", "bob->alice", "zx_check_1", set()),
    ("original", "bob->charlie", "zx_check_2", set()),
    ("original", "alice->charlie", "final_sample_check", AFTER_READOUT),
    ("improved", "alice->agent0", "zx_check_step2", set()),
    ("improved", "agent0->agent1", "hop_check_0", CHAIN),
    ("improved", "agent1->alice", "step6_check", CHAIN),
    ("improved", "alice->zach:t", "decoy_check_t", AFTER_ENCODING),
    ("improved", "alice->zach:a", "decoy_check_a", AFTER_ENCODING),
]


@pytest.mark.parametrize(
    "protocol, hop, check_id, private_kinds", CASES, ids=[case[1] for case in CASES]
)
def test_eve_on_each_hop_aborts_at_its_check(monkeypatch, protocol, hop, check_id, private_kinds):
    intercepted = []
    intercept = EveInterceptResend.intercept_sequence

    def counted(self, photons):
        intercepted.append(len(photons))
        return intercept(self, photons)

    monkeypatch.setattr(EveInterceptResend, "intercept_sequence", counted)
    config = ScenarioConfig(
        protocol=protocol,
        n_pairs=128,
        master_seed=3,
        agent_count=3,
        checking_photon_count=64,
        error_threshold=0.0,
        adversary=AdversarySpec(kind="eve_intercept_resend", hop=hop),
    )
    report = run_trial(config)
    reader = "charlie" if protocol == "original" else "zach"
    transmits = [e for e in report.transcript.events if e["kind"] == "transmit"]
    sent = [e["count"] for e in transmits if e["hop"] == hop]
    # One interception in the trial: every photon sent over her hop.
    assert len(sent) == 1
    assert intercepted == sent

    assert report.detected is True
    assert report.checks[-1].check_id == check_id
    assert [c.check_id for c in report.checks if c.verdict == "abort"] == [check_id]
    assert report.recovered == {reader: None}
    assert report.eavesdropper_message is None
    # The dealer draws her message only once every check before the
    # encoding step has passed.
    encoded = bool(private_kinds & {"alice_ops"})
    assert bool(report.dealer_message) == encoded
    private = {e["kind"]: e for e in private_events(report)}
    if encoded:
        positions = private["message_positions"]["positions"]
        assert len(report.dealer_message) == 2 * len(positions)
    assert set(private) == private_kinds
