"""Tests for the three-party protocol mode."""

import numpy as np
import pytest

from qss_sim.adversaries import AdversarySpec
from qss_sim.pauli import BellLabel, PauliOp, compose
from qss_sim.protocol import (
    ConfigError,
    ScenarioConfig,
    _Abort,
    hop_names,
    run_original,
    run_trial,
    validate_config,
    zx_check,
)
from qss_sim.register import Register

from private_records import private_record


def _honest(seed, n_pairs=32, **kw):
    return ScenarioConfig(
        protocol="original", n_pairs=n_pairs, master_seed=seed, **kw
    )


def test_honest_run_completes_exactly():
    for seed in range(10):
        report = run_original(_honest(seed))
        assert report.detected is False
        assert all(c.mismatches == 0 for c in report.checks)
        assert [c.check_id for c in report.checks] == [
            "zx_check_1",
            "zx_check_2",
            "final_sample_check",
        ]
        assert report.recovered["charlie"] == report.dealer_message
        assert report.eavesdropper_message is None


def test_readout_is_composition_of_both_parties_ops():
    report = run_original(_honest(3))
    record = private_record(report)
    totals = record["totals"]
    alice = record["alice_ops"]
    bob = record["bob_ops"]
    for pos in record["message_positions"]:
        assert totals[pos] == compose(alice[pos], bob[pos])


def test_replay_is_deterministic():
    a = run_original(_honest(7))
    b = run_original(_honest(7))
    assert a.transcript.to_list() == b.transcript.to_list()
    assert a.to_dict() == b.to_dict()
    c = run_original(_honest(8))
    assert a.to_dict() != c.to_dict()


def test_transcript_records_protocol_flow():
    report = run_original(_honest(5))
    kinds = [e["kind"] for e in report.transcript.events]
    assert kinds[0] == "prepare"
    assert report.transcript.events[0]["party"] == "bob"
    hops = [e["hop"] for e in report.transcript.events if e["kind"] == "transmit"]
    assert hops == ["bob->alice", "bob->charlie", "alice->charlie"]
    # Bob's operations are published before the second check runs.
    pub = next(
        i
        for i, e in enumerate(report.transcript.events)
        if e["kind"] == "publish_ops" and e["check"] == "zx_check_2"
    )
    first_zx2 = next(
        i
        for i, e in enumerate(report.transcript.events)
        if e["kind"] == "zx_remote" and e["check"] == "zx_check_2"
    )
    assert pub < first_zx2


def test_run_trial_dispatch():
    report = run_trial(_honest(1))
    assert report.config.protocol == "original"
    with pytest.raises(ConfigError):
        run_trial(ScenarioConfig(protocol="bogus"))


def test_validate_config_rejects_bad_scenarios():
    with pytest.raises(ConfigError):
        validate_config(ScenarioConfig(protocol="other"))
    with pytest.raises(ConfigError):
        validate_config(ScenarioConfig(master_seed=-1))
    with pytest.raises(ConfigError):
        validate_config(ScenarioConfig(n_pairs=1))
    with pytest.raises(ConfigError):
        validate_config(ScenarioConfig(sample_fraction=0.0))
    with pytest.raises(ConfigError):
        validate_config(ScenarioConfig(sample_fraction=1.0))
    with pytest.raises(ConfigError):
        validate_config(ScenarioConfig(error_threshold=1.5))
    with pytest.raises(ConfigError):
        validate_config(
            ScenarioConfig(
                adversary=AdversarySpec(kind="eve_intercept_resend", hop="nowhere")
            )
        )


def test_hop_names_original():
    cfg = _honest(0)
    assert hop_names(cfg) == ["bob->alice", "bob->charlie", "alice->charlie"]


def test_mismatched_mode_rejected():
    with pytest.raises(ConfigError):
        run_original(ScenarioConfig(protocol="improved"))


def test_eve_on_first_hop_is_detected_and_aborts():
    cfg = _honest(
        0,
        n_pairs=64,
        sample_fraction=0.5,
        adversary=AdversarySpec(kind="eve_intercept_resend", hop="bob->alice"),
    )
    report = run_original(cfg)
    assert report.detected is True
    # The run stops at the first failed check.
    assert [c.check_id for c in report.checks] == ["zx_check_1"]
    assert report.checks[0].mismatches > 0
    assert report.recovered["charlie"] is None


def test_eve_error_rate_near_one_quarter():
    # Aggregate the first check over several seeds: the intercept-resend
    # error rate must sit near the closed-form 1/4.
    samples = mism = 0
    for seed in range(8):
        cfg = _honest(
            seed,
            n_pairs=128,
            sample_fraction=0.5,
            adversary=AdversarySpec(kind="eve_intercept_resend", hop="bob->alice"),
        )
        rep = run_original(cfg).checks[0]
        samples += rep.samples
        mism += rep.mismatches
    assert samples == 8 * 64
    assert mism / samples == pytest.approx(0.25, abs=0.06)


def test_eve_on_last_hop_fails_final_check_only():
    cfg = _honest(
        2,
        n_pairs=64,
        sample_fraction=0.25,
        adversary=AdversarySpec(kind="eve_intercept_resend", hop="alice->charlie"),
    )
    report = run_original(cfg)
    assert report.detected is True
    by_id = {c.check_id: c for c in report.checks}
    assert by_id["zx_check_1"].mismatches == 0
    assert by_id["zx_check_2"].mismatches == 0
    assert by_id["final_sample_check"].mismatches > 0


def test_nonzero_threshold_tolerates_small_error():
    rep = run_original(_honest(4, error_threshold=0.5))
    assert rep.detected is False
    assert all(c.threshold == 0.5 for c in rep.checks)


def _by_position(remote, local, expected):
    """zx_check's position-indexed arguments: photon ids and Pauli codes."""
    return np.array(remote), np.array(local), np.array([int(op) for op in expected])


def test_zx_check_unit_honest_pairs(unit_run):
    reg = Register(seed=50)
    rng = np.random.default_rng(51)
    remote, local, expected = [], [], []
    for pos in range(40):
        a, b = reg.prepare_bell(BellLabel.PSI_MINUS)
        local.append(a)
        remote.append(b)
        expected.append(PauliOp.I)
    remote, local, expected = _by_position(remote, local, expected)
    run = unit_run(reg, 40)
    run.partner, run.dealer = remote, local
    zx_check(run, "unit", np.arange(40), expected, rng)
    rep = run.checks[-1]
    assert run.transcript.events[-1] == {"kind": "check_report", **rep.to_dict()}
    assert run.positions.size == 0  # every sampled position is retired
    assert rep.samples == 40
    assert rep.mismatches == 0
    assert rep.verdict == "pass"


def test_zx_check_unit_shifted_pairs_with_announced_op(unit_run):
    reg = Register(seed=52)
    rng = np.random.default_rng(53)
    remote, local, expected = [], [], []
    ops = list(PauliOp)
    for pos in range(40):
        a, b = reg.prepare_bell(BellLabel.PSI_MINUS)
        op = ops[pos % 4]
        reg.apply_gate(b, op)
        local.append(a)
        remote.append(b)
        expected.append(op)
    remote, local, expected = _by_position(remote, local, expected)
    run = unit_run(reg, 40)
    run.partner, run.dealer = remote, local
    zx_check(run, "unit", np.arange(40), expected, rng)
    rep = run.checks[-1]
    assert rep.mismatches == 0


def test_zx_check_unit_wrong_announcement_shows_errors(unit_run):
    reg = Register(seed=54)
    rng = np.random.default_rng(55)
    remote, local, expected = [], [], []
    for pos in range(60):
        a, b = reg.prepare_bell(BellLabel.PSI_MINUS)
        reg.apply_gate(b, PauliOp.IY)  # flips both correlations
        local.append(a)
        remote.append(b)
        expected.append(PauliOp.I)
    remote, local, expected = _by_position(remote, local, expected)
    run = unit_run(reg, 60)
    run.partner, run.dealer = remote, local
    with pytest.raises(_Abort):
        zx_check(run, "unit", np.arange(60), expected, rng)
    rep = run.checks[-1]
    # An iY shift against an announced identity fails in every basis.
    assert rep.mismatches == 60
    assert rep.verdict == "abort"


def test_empty_check_passes_vacuously():
    from qss_sim.protocol import CheckReport

    rep = CheckReport("empty", 0, 0, 0.0)
    assert rep.error_rate == 0.0
    assert rep.verdict == "pass"
