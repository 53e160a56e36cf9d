"""Metamorphic relations: what must hold between two runs at one seed.

A relation needs no oracle, and it survives every re-capture of the
golden digests: it holds because each party draws only from its own
stream, and a setting changes nothing before the step that reads it."""

import pytest

from qss_sim.adversaries import AdversarySpec
from qss_sim.protocol import ScenarioConfig, run_trial


def _swap_run(protocol, agents, threshold, seed, publish_true_ops):
    adversary = AdversarySpec(kind="bob_swap_attack", publish_true_ops=publish_true_ops)
    config = ScenarioConfig(
        protocol=protocol,
        n_pairs=24,
        master_seed=seed,
        agent_count=agents,
        checking_photon_count=4,
        error_threshold=threshold,
        adversary=adversary,
    )
    return run_trial(config)


def _before_collaboration(report):
    """Every transcript event but collaboration's publications and the
    reader's recovered bits."""
    return [
        event
        for event in report.transcript.to_list()
        if event.get("check") != "collaboration" and event["kind"] != "recovered"
    ]


@pytest.mark.parametrize("threshold", [0.0, 1.0])
@pytest.mark.parametrize(
    "protocol, agents", [("original", 2), ("improved", 2), ("improved", 3), ("improved", 5)]
)
def test_swap_publication_mode_changes_only_collaboration(protocol, agents, threshold):
    """R3: whether the swap attacker publishes his true operations at
    collaboration changes nothing before it: the checks, the dealer's
    message, the verdict, what he read and every other transcript event
    are equal.  A run publishes for collaboration only once every plan
    row has settled.  The relation fails when the attacker draws his
    false collaboration Paulis before his fake pairs' Paulis; a draw
    moved to after them changes only collaboration, and only the golden
    digests see it."""
    for seed in range(8):
        true, false = (
            _swap_run(protocol, agents, threshold, seed, publish) for publish in (True, False)
        )
        assert [c.to_dict() for c in false.checks] == [c.to_dict() for c in true.checks]
        assert false.dealer_message == true.dealer_message
        assert false.detected == true.detected
        assert false.eavesdropper_message == true.eavesdropper_message
        assert _before_collaboration(false) == _before_collaboration(true)
