"""Golden digests for a fixed set of small batch specs.

Every spec runs a seeded batch and compares the sha256 of its
``jsonl_report`` text with a recorded digest, and the sha256 of every
trial's transcript events and ``extra`` (which the JSON lines leave out)
with a second one.  A refactor of the engine or the protocol pipeline
must leave every digest unchanged; a change that alters the order of
random draws changes them and has to say so.
"""

import enum
import hashlib
import json

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

# name -> sha256 of its trials' transcripts and `extra` (see golden_trials_json)
GOLDEN_TRIALS = {
    "improved-eve-agent0-agent1-t1": "dd86003d778a0894503f0ac23853abc5cdcbfc2099b6eb11b93d51a5d5e4e8b6",
    "improved-eve-zach-a-t1": "932ad52c18d3f53f4f4480a1413012e917267c91979baadd7960154e1b7b6869",
    "improved-eve-zach-t-t0": "8f87567c0ef1cf2401cb3614baea8a7d633291f4470c4afb1ad747076560227b",
    "improved-honest-3": "deb7f3bb55979f813cd085b7103a8bc73d7490dd17141ca072467e3b6bc31d23",
    "improved-swap-false-4": "73cc69acd9efa47494b89fc512497e03bd649319412b21307ed3b4d3ad5c5691",
    "improved-swap-true-3-t1": "952ee6e94b9a42f2192061ce168c1ec1502774f4ca92f05ad8ac4c8f0f97d7a8",
    "original-eve-alice-charlie-t1": "28ed844778ddbf9cb3a6e1ba5a6809f115a8b6c75770761f8c98ad87a1839ae0",
    "original-eve-bob-alice-t0": "9d54424bcf225e314272c0a758b50e7a40c45f85279df0749a97c786904a5fa4",
    "original-eve-bob-charlie-t1": "9c5aa832e40c96513a5d319ef41569b986edaaac4870e362dbfb7bf05b749537",
    "original-honest": "5507c399213f31818dd180b27f44f98132b80aa0d1449bae9f69731453dc4bf5",
    "original-swap-false": "67f751cccff6f2e4450baaa10ae773713734f4170c1d6d4ae158fb1285831c90",
    "original-swap-true": "3b6bcb16149646b8a6d07d66f261bb7e0a16f4c661e8d59261d61d9222f717c5",
}


# One spec at the size of the long single-trial runs, whose array shapes
# the 24-pair specs never reach: (scenario, trials, JSON-lines digest,
# transcript and `extra` digest), at seed_base 500.
LARGE = (
    _original(_eve("bob->charlie"), threshold=1.0, n_pairs=4096),
    2,
    "bf259c916d0f1641f1e82a550cb7944dfc5bf36af36642465259fab2625b0144",
    "4566ae8aa32fd0feb19f445c16bba9c5a26fa20f84b1a6d8838ade6b7e13c30d",
)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def golden_jsonl(scenario: ScenarioConfig) -> str:
    spec = BatchSpec(scenario=scenario, trials=8, seed_base=500)
    stats, reports = run_batch(spec)
    return jsonl_report(spec, stats, reports)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_jsonl_digest(name):
    scenario, digest = GOLDEN[name]
    assert _sha256(golden_jsonl(scenario)) == digest


def _by_name(obj):
    if isinstance(obj, enum.Enum):
        return obj.name
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def trials_json(reports) -> str:
    """Every trial's transcript events and ``extra`` as JSON, enums by
    name, dict keys in insertion order."""
    trials = [{"events": r.transcript.to_list(), "extra": r.extra} for r in reports]
    return json.dumps(trials, default=_by_name, separators=(",", ":"))


def golden_trials_json(scenario: ScenarioConfig) -> str:
    _, reports = run_batch(BatchSpec(scenario=scenario, trials=8, seed_base=500))
    return trials_json(reports)


@pytest.mark.parametrize("name", sorted(GOLDEN_TRIALS))
def test_golden_transcript_and_extra_digest(name):
    assert _sha256(golden_trials_json(GOLDEN[name][0])) == GOLDEN_TRIALS[name]


def test_large_golden_digests():
    scenario, trials, jsonl_digest, trials_digest = LARGE
    spec = BatchSpec(scenario=scenario, trials=trials, seed_base=500)
    stats, reports = run_batch(spec)
    assert _sha256(jsonl_report(spec, stats, reports)) == jsonl_digest
    assert _sha256(trials_json(reports)) == trials_digest
