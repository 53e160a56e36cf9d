"""Golden JSON-lines digests for a fixed set of small batch specs.

Every spec runs a seeded batch and compares the sha256 of its
``jsonl_report`` text with a recorded digest.  A refactor of the engine
or the protocol pipeline must leave every digest unchanged; a change
that alters the order of random draws changes them and has to say so.
"""

import hashlib

import pytest

from qss_sim.adversaries import AdversarySpec
from qss_sim.harness import BatchSpec, jsonl_report, run_batch
from qss_sim.protocol import ScenarioConfig

_NONE = AdversarySpec()
_SWAP_TRUE = AdversarySpec(kind="bob_swap_attack", publish_true_ops=True)
_SWAP_FALSE = AdversarySpec(kind="bob_swap_attack", publish_true_ops=False)


def _eve(hop: str, policy: str = "uniform") -> AdversarySpec:
    return AdversarySpec(kind="eve_intercept_resend", hop=hop, basis_policy=policy)


def _original(adversary: AdversarySpec, threshold: float = 0.0, **kw) -> ScenarioConfig:
    return ScenarioConfig(
        protocol="original",
        n_pairs=kw.pop("n_pairs", 24),
        error_threshold=threshold,
        adversary=adversary,
        **kw,
    )


def _improved(
    adversary: AdversarySpec, agents: int, threshold: float = 0.0, **kw
) -> ScenarioConfig:
    return ScenarioConfig(
        protocol="improved",
        n_pairs=kw.pop("n_pairs", 24),
        agent_count=agents,
        checking_photon_count=kw.pop("checking_photon_count", 4),
        error_threshold=threshold,
        adversary=adversary,
        **kw,
    )


# name -> (scenario, sha256 of the batch's JSON lines at seed_base 500, 8 trials)
GOLDEN = {
    "original-honest": (
        _original(_NONE),
        "543d9accf0681072ac82d2952fdecd74b139cdfead261d842079b09d665474ef",
    ),
    "original-swap-true": (
        _original(_SWAP_TRUE),
        "d1afc79917517e083b732f99b00e84aa062dea610e2db1f911e5e8ce75eed037",
    ),
    "original-swap-false": (
        _original(_SWAP_FALSE, threshold=1.0),
        "836b5eb8c359367ca1ed7a90a82426e191d69f72636431bb061a3a6fcc4c2597",
    ),
    "original-eve-bob-alice-t0": (
        _original(_eve("bob->alice")),
        "5ff12bf56d9bf3ffe7b53df8bdb8308567cfbb4b6a1b4365548303ccb2e92bcf",
    ),
    "original-eve-bob-charlie-t1": (
        _original(_eve("bob->charlie", "fixed-Z"), threshold=1.0),
        "b027b822a5627407bef2fc993384c361687d1af36c7b92f4cba2a3db06d5945c",
    ),
    "original-eve-alice-charlie-t1": (
        _original(_eve("alice->charlie"), threshold=1.0),
        "8e123355e6396a0812383f49d8ae3059ff11db08aa802dd3b0dd8ecfe6411abd",
    ),
    "improved-honest-3": (
        _improved(_NONE, 3),
        "7b974a21ed91ef91e68364af4d0ec940708115197890fd3fe7a3b6fb8973bedd",
    ),
    "improved-swap-true-3-t1": (
        _improved(_SWAP_TRUE, 3, threshold=1.0),
        "5e95e3d5d0aebc8678fb61ee42cd6600aa4d18b9951b27c7ee53e88fe2d91df7",
    ),
    "improved-swap-false-4": (
        _improved(_SWAP_FALSE, 4, step6_sample_count=3),
        "7f68c5fb1eae717356cdf6028ccde6963a9ec84650370cad7a75502ce6d719f3",
    ),
    "improved-eve-agent0-agent1-t1": (
        _improved(_eve("agent0->agent1", "fixed-X"), 3, threshold=1.0),
        "af99de180464faa61d7754affae8613e0a106931a8ac53e7d2f4946d6f6049ab",
    ),
    "improved-eve-zach-t-t0": (
        _improved(_eve("alice->zach:t"), 3),
        "d0e8a4ba75d6d12c2fc0ce60d25eb7d4a2e5892951abf2e6f8dca9cc2e48c259",
    ),
    "improved-eve-zach-a-t1": (
        _improved(_eve("alice->zach:a"), 2, threshold=1.0),
        "e62787f9d747464c21369cd4fe468b18d343ce71d86c502b2bef2f6ce53d6a63",
    ),
}


def golden_jsonl(scenario: ScenarioConfig) -> str:
    spec = BatchSpec(scenario=scenario, trials=8, seed_base=500)
    stats, reports = run_batch(spec)
    return jsonl_report(spec, stats, reports)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_jsonl_digest(name):
    scenario, digest = GOLDEN[name]
    text = golden_jsonl(scenario)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
