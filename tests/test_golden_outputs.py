"""Golden digests for a fixed set of small batch specs.

Every spec runs a seeded batch and compares the sha256 of its
``jsonl_report`` text with a recorded digest, and the sha256 of every
trial's public transcript events and of its private ones (which the JSON
lines leave out) with two more.  The transcript digests are pinned twice:
of the listed events, one per announcement, and of the same events
expanded back to the per-position form the transcript once recorded, so
that the change of form is shown to lose nothing.  A refactor of the
engine or the protocol pipeline must leave every digest unchanged; a
change that alters the order of random draws changes them and has to say
so.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from qss_sim import cli
from qss_sim.adversaries import AdversarySpec
from qss_sim.harness import BatchSpec, jsonl_report, run_batch
from qss_sim.protocol import ScenarioConfig

from private_records import private_events

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
        "84e8b6f84d03444aa1159b03bf63a4a6166effeaf27dfa07e9d1391241649a21",
    ),
    "original-eve-bob-charlie-t1": (
        _original(_eve("bob->charlie", "fixed-Z"), threshold=1.0),
        "834938e2e5785ae811ad6fb10a5755b477f1baf203c1a9beb19beedb745c32f8",
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
        "e18213ce2bd354d6a8f3ebca01ba2c003612709f60d015ed629069cf590cfaa8",
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

# name -> (sha256 of its trials' public events, of their private events),
# see trials_json, in the per-position form (see expand)
GOLDEN_TRIALS = {
    "improved-eve-agent0-agent1-t1": (
        "76f8f88d10734cd661350d49e983b2aec66016ab1fd583e72e2d327e5f4b8d63",
        "1b27a68fdecbf40d36f8d80730ce48af2832c600ecc25edcc9780b5183bace36",
    ),
    "improved-eve-zach-a-t1": (
        "e08453023a60ff4963b9d406d7ca85665bc66d9c6c50622d9ca9c96d885557f7",
        "10a6ca0994272593b4800ce880c3fe5b3c791ac12802c56bcdf28fb681199bda",
    ),
    "improved-eve-zach-t-t0": (
        "756bfd2ce0d702d9456f1defa27439624af2103ed6bd727025bb9886f850d5e7",
        "4d268aa7d6c9a3822130bebba40899a9d951fa3948327e4a0bbbbb9b76b8b882",
    ),
    "improved-honest-3": (
        "b2fb902c2335da797a27840562ed292fb99948fd175e6e8952df5205bd0584cb",
        "ff33523009e1f38f1eb223b396e9f32dc2564c3364e359f0addd9d728142990c",
    ),
    "improved-swap-false-4": (
        "0792fc54bea4ac841166f41d738937512954c9317854148f2136f0977e1e2fbe",
        "9415d8b6de470a79e1f8657054019f327afb15ad2b97b4edc95ec51d412453ea",
    ),
    "improved-swap-true-3-t1": (
        "4a4241e8d03a655a5a812e2f8ddfffa320a275fbab2af7f0f9520d9145e7f0be",
        "aa7f5d08493d273a771c41f247c8416489b1189f0b1772a3ec543d5d79191cc1",
    ),
    "original-eve-alice-charlie-t1": (
        "27d913e497d59e299dd14ec0002c5390f5ce0dcfcf1b305ae1653a374217b569",
        "23e7adfe4ff2d5bd7d9a7626b46badde801f1b02234d48093a78f9a68b9f772a",
    ),
    "original-eve-bob-alice-t0": (
        "d41c1e361ac8996b8110712da2c489d65344b51f28e23cc717287c8ee10e6b94",
        "78817be5a17a1e0f2e2d53425f495e9a84ed1562aa9a6ff7e2b27dccdc22b944",
    ),
    "original-eve-bob-charlie-t1": (
        "d4cb117a2fd862d4455edf294968dc70f0499ebf270277da121b1406a36922b1",
        "26b4b845f90f2f3e480ce4b43d305f7e06a9f170bf2985dca20b52747f955b33",
    ),
    "original-honest": (
        "e5ddf414c4e5f061b4a63d49f8c21926c0b255af1328bb20e3929614b9112891",
        "33e56b2c4bb95b98ed84f6a30261f91ddf841322a5e98b45ef5cfc77934af794",
    ),
    "original-swap-false": (
        "7c3ce562e6a68a76a970f65fa44416882ff89a7e9fe706526f000bcb79e502e5",
        "fef9d409df03f1657d9ac0fb4a6c0dec22b837ae30a13d92f2d833f05ac1b298",
    ),
    "original-swap-true": (
        "5fe7c1f1890e24f5d46678c5151178d356b05f5b326434e3e3e1a98882db0578",
        "fef9d409df03f1657d9ac0fb4a6c0dec22b837ae30a13d92f2d833f05ac1b298",
    ),
}


# The same digests of the listed events, one per announcement.
GOLDEN_EVENTS = {
    "improved-eve-agent0-agent1-t1": (
        "8881d80d4519bdd73d8b505130818e56295bec105f539c3fca53cff7bf23d4c6",
        "143897eb1fb6b825e3b4b0ce3018acb042a6803d513da6dfb00223c51c3c8b1a",
    ),
    "improved-eve-zach-a-t1": (
        "57f6a6d0daeeb307b1300ba454d67c2057ae8adf6ecf1d81147308a36d3b6d02",
        "b8938025b6dc3e5ef5092b9c62a4b25bd57e9a31c9a3ab52bd9d8c0705501f17",
    ),
    "improved-eve-zach-t-t0": (
        "20bd879d0ffc8ab67b43c1eb0c355944ee280bb522452dd118ad54199ba58f62",
        "64d4a51bd0f1c160ba25ea9f93a9a00619efe2ee985fa5219570eb9485e38956",
    ),
    "improved-honest-3": (
        "a3a654851dc1fcfdbba5c34cb66bab5ab44e3e98d146f3615fe3558c037e64ae",
        "4a252d7933a5a5a11536603ac513f0746ade4b0926ee6172d0a0308e6ca719f7",
    ),
    "improved-swap-false-4": (
        "7b46cbcd1b4a0fecbf47d9b575c1b81d40efd3d56dc721c6204eee467a5a33ca",
        "ec8c61243b7d8a482018d22cfb5b47a9c4652e8b728fb98052c754ad7f25815e",
    ),
    "improved-swap-true-3-t1": (
        "808460556834243e91b46c6c6becc2f7b9ebeff3463ec22a34b7e44aa2e61287",
        "5558b3fa22508ebea9b921cf5323222211826f5efa88043384729932a8614a10",
    ),
    "original-eve-alice-charlie-t1": (
        "170411abdbc7345b94d0a1bfdfc0f4196f8120b2e206d2d7a4f1a633145323fc",
        "e013bd8d8464534291de37fd467cb8ab6309ff848d19e6402c5e498cdab11022",
    ),
    "original-eve-bob-alice-t0": (
        "800e6ffa730ad44da65b7f24202f686f62e08c3024d051bf14df33f75ef1d529",
        "51abda5ee47277376c56835618f0307ca373f1e966b86f17cfa6bed60e2197aa",
    ),
    "original-eve-bob-charlie-t1": (
        "1acf3b9d27125bc4eaf64f24dacbcf741269b9c35fc7d26c923cc76d49c6ffb3",
        "20332a8192e28b8e04635955320df3cb7871206c10885b3b9ddabe4831c064d5",
    ),
    "original-honest": (
        "3900f0e21a706f5456474acf3a42ccd5500b9c95f4a21da61339e97592eb0ae3",
        "553328cdbaa78fec9686e5fa62012dc30a8ccbcc4160b8a9434ae1f959a577e9",
    ),
    "original-swap-false": (
        "02595c20f289cd3b31b83e035b5817449be1e052147757b59ac246240728ee99",
        "4d43e4ceec7d08cccf9921b0ffc352399641c1709f73a00e8a19f1974b502ffb",
    ),
    "original-swap-true": (
        "92180552a0fdb62a4ddf4426fdd6a0b4eac10fb01d2adcefc094c5c15289f500",
        "4d43e4ceec7d08cccf9921b0ffc352399641c1709f73a00e8a19f1974b502ffb",
    ),
}


# One spec at the size of the long single-trial runs, whose array shapes
# the 24-pair specs never reach: (scenario, trials, JSON-lines digest,
# public-events digest, private-events digest in the per-position form),
# at seed_base 500.
LARGE = (
    _original(_eve("bob->charlie"), threshold=1.0, n_pairs=4096),
    2,
    "e33a1f67675a480faff0d0e95c65c4ace527adb6ae77c202c5b75d845ebc828a",
    "41599874c6a3bbd45433521753bdd79b3fade2835d095b39533703fd0dfbd905",
    "8733ff078956fe459ec81640fb49abd9b0951acff7b543c3aec49c763f0d8a7c",
)
# LARGE's public and private digests of the listed events.
LARGE_EVENTS = (
    "0ced34b49492052abfb6a6389436bed18859a2bd54f0285f802d5e6607f91511",
    "ca6ef6578ced37ca5649eaa56f64c78ccb47615f0b9288faa676a2c5aec100b8",
)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def golden_jsonl(scenario: ScenarioConfig) -> str:
    spec = BatchSpec(scenario=scenario, trials=8, seed_base=500)
    reports = []
    stats = run_batch(spec, reports.append)
    return jsonl_report(spec, stats, reports)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_jsonl_digest(name):
    scenario, digest = GOLDEN[name]
    assert _sha256(golden_jsonl(scenario)) == digest


def _flags(scenario: ScenarioConfig) -> list[str]:
    """The `run` flags that set every field of `scenario`."""
    values = {
        "scenario": dataclasses.asdict(scenario),
        "adversary": dataclasses.asdict(scenario.adversary),
    }
    flags = []
    for section, fields in values.items():
        for option in cli._INI_KEYS[section].values():
            value = fields[option.field]
            if option.cast is cli._boolean:
                flags += [option.flag] if value != option.default else []
            elif value is not None:
                flags += [option.flag, str(value)]
    return flags


@pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_cli_digest(name, to_file, tmp_path, capsys):
    # `qss-sim run` streams the same bytes that `jsonl_report` builds.
    scenario, digest = GOLDEN[name]
    argv = ["run", *_flags(scenario), "--trials", "8", "--seed-base", "500"]
    out = tmp_path / "batch.jsonl"
    assert cli.main(argv + (["--out", str(out)] if to_file else [])) == cli.EXIT_OK
    text = out.read_text(encoding="utf-8") if to_file else capsys.readouterr().out
    assert _sha256(text) == digest


def trials_json(trials: list[list[dict]], private: bool) -> str:
    """Every trial's public events, or its private ones, as one JSON list
    per trial, dict keys in insertion order."""
    return json.dumps(
        [[e for e in events if e.get("private", False) == private] for events in trials],
        separators=(",", ":"),
    )


def _by_position(event: dict) -> dict:
    """`event` with its positions and its names merged into one
    {position: name} dict, by agent for the chain's layered publication,
    under ``outcomes`` for every Bell readout."""
    positions = event["positions"]
    out = {}
    for key, value in event.items():
        if key == "positions":
            continue
        if key in ("ops", "outcomes"):
            if event["kind"] == "publish_ops" and "party" not in event:
                value = {f"agent{j}": dict(zip(positions, row)) for j, row in enumerate(value)}
            else:
                value = dict(zip(positions, value))
            if event["kind"] == "bell_outcomes":
                key = "outcomes"
        out[key] = value
    return out


def expand(events: list[dict]) -> list[dict]:
    """One trial's listed events in the per-position form: a
    ``zx_remote`` and a ``zx_local`` event per Z/X-checked position, a
    ``decoy_result`` event per checking-photon slot, and operations and
    Bell readouts as {position: name} dicts."""
    expanded = []
    slots = {}
    for e in events:
        kind, check = e["kind"], e.get("check")
        if kind == "zx_results":
            for pos, basis, remote, local in zip(
                e["positions"], e["basis"], e["remote"], e["local"]
            ):
                expanded += (
                    {"kind": "zx_remote", "check": check, "position": pos, "basis": basis,
                     "result": remote},
                    {"kind": "zx_local", "check": check, "position": pos, "result": local},
                )
        elif kind == "decoy_results":
            expanded += (
                {"kind": "decoy_result", "check": check, "slot": slot, "result": result}
                for slot, result in zip(slots[check], e["results"])
            )
        else:
            if kind == "decoy_positions":
                slots[check] = e["slots"]
            expanded.append(_by_position(e) if "ops" in e or "outcomes" in e else e)
    return expanded


def golden_reports(scenario: ScenarioConfig):
    reports = []
    run_batch(BatchSpec(scenario=scenario, trials=8, seed_base=500), reports.append)
    return reports


def _transcript_digests(reports, per_position, listed):
    # Public events pin what the parties announce, private ones the
    # analysis-only record kept beside them.
    trials = [r.transcript.to_list() for r in reports]
    for digests, form in ((listed, trials), (per_position, [expand(t) for t in trials])):
        public, private = digests
        assert _sha256(trials_json(form, private=False)) == public
        assert _sha256(trials_json(form, private=True)) == private


@pytest.mark.parametrize("name", sorted(GOLDEN_TRIALS))
def test_golden_transcript_and_extra_digest(name):
    reports = golden_reports(GOLDEN[name][0])
    _transcript_digests(reports, GOLDEN_TRIALS[name], GOLDEN_EVENTS[name])


def test_large_golden_digests():
    scenario, trials, jsonl_digest, public, private = LARGE
    spec = BatchSpec(scenario=scenario, trials=trials, seed_base=500)
    reports = []
    stats = run_batch(spec, reports.append)
    assert _sha256(jsonl_report(spec, stats, reports)) == jsonl_digest
    _transcript_digests(reports, (public, private), LARGE_EVENTS)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_private_record_reproduces_recovered_message(name):
    # The reader's totals XOR every collaboration publication, decoded two
    # bits per message position, is the message the reader announced --
    # whatever the adversary published.
    for report in golden_reports(GOLDEN[name][0]):
        events = report.transcript.events
        recovered = [e["bits"] for e in events if e["kind"] == "recovered"]
        [reader_bits] = report.recovered.values()
        if reader_bits is None:
            assert recovered == []
            continue
        record = {e["kind"]: e for e in private_events(report)}
        positions = record["message_positions"]["positions"]
        totals = record["totals"]
        codes = np.zeros(report.config.n_pairs, dtype=np.int64)
        codes[totals["positions"]] = totals["ops"]
        codes = codes[positions]
        for e in events:
            if e["kind"] == "publish_ops" and e["check"] == "collaboration":
                assert e["positions"].tolist() == positions.tolist()
                codes ^= e["ops"]
        bits = "".join(f"{code >> 1}{code & 1}" for code in codes.tolist())
        assert recovered == [bits]
