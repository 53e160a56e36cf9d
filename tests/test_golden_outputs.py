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

# name -> (sha256 of its trials' public events, of their private events),
# see trials_json, in the per-position form (see expand)
GOLDEN_TRIALS = {
    "improved-eve-agent0-agent1-t1": (
        "32dd2ca4228a57f87c4c9c922eec11fb5cf218210aa2a2fa54321fc4b0205dac",
        "1b27a68fdecbf40d36f8d80730ce48af2832c600ecc25edcc9780b5183bace36",
    ),
    "improved-eve-zach-a-t1": (
        "de4d1cbd821b7a30978323669102b6b8f0ad2d3eb7da56d0e4bc420cdf3c0c57",
        "10a6ca0994272593b4800ce880c3fe5b3c791ac12802c56bcdf28fb681199bda",
    ),
    "improved-eve-zach-t-t0": (
        "2ec3ab3425667c1fb9ad740478f5b808e182a5616d98cb584dfaf62581e3b46d",
        "4d268aa7d6c9a3822130bebba40899a9d951fa3948327e4a0bbbbb9b76b8b882",
    ),
    "improved-honest-3": (
        "9d0f9138790384eb8684cf51c0a373b73a1c5b019e4edf11af1fc5180eadef29",
        "ff33523009e1f38f1eb223b396e9f32dc2564c3364e359f0addd9d728142990c",
    ),
    "improved-swap-false-4": (
        "ee48a76571d13a5d6810e7c05c5d381b9456e235d17650e976337d101c93b6d2",
        "9415d8b6de470a79e1f8657054019f327afb15ad2b97b4edc95ec51d412453ea",
    ),
    "improved-swap-true-3-t1": (
        "9ca8983c8da946043c1bc655df98252a162156cebcccb44ef25733f98de08ca2",
        "aa7f5d08493d273a771c41f247c8416489b1189f0b1772a3ec543d5d79191cc1",
    ),
    "original-eve-alice-charlie-t1": (
        "33212ac1b52abc1b2bf0014bf9c22e955a096e76481f339aade2c2375c314285",
        "23e7adfe4ff2d5bd7d9a7626b46badde801f1b02234d48093a78f9a68b9f772a",
    ),
    "original-eve-bob-alice-t0": (
        "0423fa4ba65732f41c515411c1283dafe9a8777512b2e9616bdcb18fca3af097",
        "fdbe274dfb6fdf2e63df5fe56c4ef676477280dff1a4758ad13d74cbcbea5954",
    ),
    "original-eve-bob-charlie-t1": (
        "68ac551ca0978e58856bc3f0c0f01f41df24d0097f2cccbd65b72a8022b1b6e8",
        "26b4b845f90f2f3e480ce4b43d305f7e06a9f170bf2985dca20b52747f955b33",
    ),
    "original-honest": (
        "64977d5b42361f5ffaae276a0de2fafbf9e468ee6ee89d8bcab9bc93437f512d",
        "33e56b2c4bb95b98ed84f6a30261f91ddf841322a5e98b45ef5cfc77934af794",
    ),
    "original-swap-false": (
        "4c86475d82fed67a946493e85410f057205e6c0a7a785a26954d0d463862d820",
        "fef9d409df03f1657d9ac0fb4a6c0dec22b837ae30a13d92f2d833f05ac1b298",
    ),
    "original-swap-true": (
        "838a98992a5bb7f8ec0d7dd9b4f92bb976edffdf9bd7362eb3e14a4283939cce",
        "fef9d409df03f1657d9ac0fb4a6c0dec22b837ae30a13d92f2d833f05ac1b298",
    ),
}


# The same digests of the listed events, one per announcement.
GOLDEN_EVENTS = {
    "improved-eve-agent0-agent1-t1": (
        "f0c241c18656355f0a3475a8f5b2c7d779f823485f773a962da40d3fc483ae63",
        "143897eb1fb6b825e3b4b0ce3018acb042a6803d513da6dfb00223c51c3c8b1a",
    ),
    "improved-eve-zach-a-t1": (
        "e6df303eb57652b1c778b3cff193911671bfde4a9f415bb7bb9f25dbb49351ca",
        "b8938025b6dc3e5ef5092b9c62a4b25bd57e9a31c9a3ab52bd9d8c0705501f17",
    ),
    "improved-eve-zach-t-t0": (
        "6caf566ee007160df730f6a8b9a1ee213c5610235255e175ff538aad02555f80",
        "64d4a51bd0f1c160ba25ea9f93a9a00619efe2ee985fa5219570eb9485e38956",
    ),
    "improved-honest-3": (
        "ca247b5c873ab956d536977409ad70a8f8eb4276d8e8df54d398405e024e59c0",
        "4a252d7933a5a5a11536603ac513f0746ade4b0926ee6172d0a0308e6ca719f7",
    ),
    "improved-swap-false-4": (
        "af4b5981be6793fee760f32716e6369456b46b6e371b919b406855747e103640",
        "ec8c61243b7d8a482018d22cfb5b47a9c4652e8b728fb98052c754ad7f25815e",
    ),
    "improved-swap-true-3-t1": (
        "363844411ea9b40138bb0c65b19c7b17e690c5a7214975982dda7c0148da3cd7",
        "5558b3fa22508ebea9b921cf5323222211826f5efa88043384729932a8614a10",
    ),
    "original-eve-alice-charlie-t1": (
        "3da05d8cfa9220209cb4632530ed80465b064999a9c76e2c525e39c441483594",
        "e013bd8d8464534291de37fd467cb8ab6309ff848d19e6402c5e498cdab11022",
    ),
    "original-eve-bob-alice-t0": (
        "a19ebf883fc8f2d887e6cfc1299c327808019cbd8ba3851ca3bcb24ff9795233",
        "fdbe274dfb6fdf2e63df5fe56c4ef676477280dff1a4758ad13d74cbcbea5954",
    ),
    "original-eve-bob-charlie-t1": (
        "cf9acd26272a74d813646901440b6fc112dc19d82e547c4bbc2b28f496ff637d",
        "20332a8192e28b8e04635955320df3cb7871206c10885b3b9ddabe4831c064d5",
    ),
    "original-honest": (
        "28b6fc678cbdfce099a579b2e52c69b3b17a7da4e59fe91526fbb2df1134868b",
        "553328cdbaa78fec9686e5fa62012dc30a8ccbcc4160b8a9434ae1f959a577e9",
    ),
    "original-swap-false": (
        "1df3aa6f2f3a19ac6947662339702e9793c2557364884e0bd31b45b3c46aa27c",
        "4d43e4ceec7d08cccf9921b0ffc352399641c1709f73a00e8a19f1974b502ffb",
    ),
    "original-swap-true": (
        "46fdf5c285c958c5c662d50266023a7880d562ed7fb6aaaa76ecb4e68336ccb7",
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
    "bf259c916d0f1641f1e82a550cb7944dfc5bf36af36642465259fab2625b0144",
    "844e2240f416cfa43eab834bf4e503bc527045a625ee300e0dcc0b4e68fe3456",
    "8733ff078956fe459ec81640fb49abd9b0951acff7b543c3aec49c763f0d8a7c",
)
# LARGE's public and private digests of the listed events.
LARGE_EVENTS = (
    "66ac43b64c320ebde9b170b38b20cbe049483e02ad3d1dbab80e7ce80fd745fc",
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
