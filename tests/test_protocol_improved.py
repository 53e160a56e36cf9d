"""Tests for the M-agent chain protocol mode."""

import numpy as np
import pytest

from qss_sim.adversaries import AdversarySpec
from qss_sim.pauli import BellLabel, PauliOp, compose_all, recover_dealer_pauli
from qss_sim.protocol import (
    ScenarioConfig,
    _Abort,
    decoy_round,
    hop_names,
    run_improved,
    verify_step6,
)
from qss_sim.register import Register, SingleGate

from private_records import private_record


def _improved(seed, agents=3, n_pairs=64, **kw):
    return ScenarioConfig(
        protocol="improved",
        n_pairs=n_pairs,
        master_seed=seed,
        agent_count=agents,
        **kw,
    )


@pytest.mark.parametrize("agents", [2, 3, 4, 5])
def test_honest_chain_completes_exactly(agents):
    for seed in range(5):
        report = run_improved(_improved(seed, agents=agents))
        assert report.detected is False
        assert all(c.mismatches == 0 for c in report.checks)
        assert report.recovered["zach"] == report.dealer_message


def test_check_sequence_grows_with_chain_length():
    report = run_improved(_improved(0, agents=4))
    assert [c.check_id for c in report.checks] == [
        "zx_check_step2",
        "hop_check_0",
        "hop_check_1",
        "step6_check",
        "decoy_check_t",
        "decoy_check_a",
    ]


def test_hop_names_improved():
    assert hop_names(_improved(0, agents=4)) == [
        "alice->agent0",
        "agent0->agent1",
        "agent1->agent2",
        "agent2->alice",
        "alice->zach:t",
        "alice->zach:a",
    ]


def test_readout_composes_all_encryption_layers():
    record = private_record(run_improved(_improved(1, agents=4)))
    totals = record["totals"]
    alice = record["alice_ops"]
    agent_ops = record["agent_ops"]
    for pos in record["message_positions"]:
        layered = [alice[pos]] + [ops.get(pos, PauliOp.I) for ops in agent_ops]
        assert totals[pos] == compose_all(layered)


def test_decoding_without_one_agent_fails_on_most_positions():
    # Dropping one agent's published operations leaves the reader with a
    # uniformly wrong Pauli on ~3/4 of the positions: collaboration is
    # necessary.
    wrong = total = 0
    for seed in range(12):
        record = private_record(run_improved(_improved(seed, agents=3, n_pairs=128)))
        totals = record["totals"]
        alice = record["alice_ops"]
        agent_ops = record["agent_ops"]
        for pos in record["message_positions"]:
            partial = recover_dealer_pauli(
                totals[pos], [agent_ops[0].get(pos, PauliOp.I)]
            )
            total += 1
            if partial != alice[pos]:
                wrong += 1
    assert total > 400
    assert wrong / total == pytest.approx(0.75, abs=0.05)


def test_replay_is_deterministic():
    a = run_improved(_improved(9))
    b = run_improved(_improved(9))
    assert a.transcript.to_list() == b.transcript.to_list()
    assert a.to_dict() == b.to_dict()


def test_step6_sample_count_override():
    report = run_improved(_improved(2, agents=3, step6_sample_count=8))
    by_id = {c.check_id: c for c in report.checks}
    assert by_id["step6_check"].samples == 8


def test_eve_on_checking_photon_hop_is_caught():
    cfg = _improved(
        0,
        agents=2,
        n_pairs=32,
        checking_photon_count=64,
        adversary=AdversarySpec(
            kind="eve_intercept_resend", hop="alice->zach:t", basis_policy="fixed-Z"
        ),
    )
    report = run_improved(cfg)
    assert report.detected is True
    by_id = {c.check_id: c for c in report.checks}
    assert by_id["zx_check_step2"].mismatches == 0
    assert by_id["step6_check"].mismatches == 0
    assert by_id["decoy_check_t"].samples == 64
    assert by_id["decoy_check_t"].mismatches > 0
    # The run aborts before the second transmission.
    assert "decoy_check_a" not in by_id
    assert report.recovered["zach"] is None


def test_swap_attack_fails_dealer_verification_mid_chain():
    for seed in range(5):
        cfg = _improved(
            seed,
            agents=3,
            step6_sample_count=8,
            adversary=AdversarySpec(kind="bob_swap_attack"),
        )
        report = run_improved(cfg)
        assert report.detected is True
        by_id = {c.check_id: c for c in report.checks}
        # The attacker survives every check he can announce into...
        assert by_id["zx_check_step2"].mismatches == 0
        assert by_id["hop_check_0"].mismatches == 0
        # ...but the dealer's own Bell verification exposes him.
        assert by_id["step6_check"].mismatches > 0
        assert report.recovered["zach"] is None


def test_swap_attack_with_two_agents_gains_nothing():
    # With only one chain agent there is no verification slot he cannot
    # fill, so no check fires -- but he never touches the dealer's encoded
    # sequence either, and the reader's output is garbage.
    exact = 0
    for seed in range(10):
        cfg = _improved(
            seed, agents=2, n_pairs=64, adversary=AdversarySpec(kind="bob_swap_attack")
        )
        report = run_improved(cfg)
        assert report.detected is False
        if report.recovered["zach"] == report.dealer_message:
            exact += 1
    assert exact == 0


# ---------------------------------------------------------------------------
# component-level checks


def test_decoy_round_honest_channel_is_clean(unit_run):
    reg = Register(seed=60)
    rng = np.random.default_rng(61)
    payload = np.array([reg.prepare_single(s) for s in _four_states(reg, 10)])
    run = unit_run(reg, len(payload), rng_dealer=rng, checking_photon_count=16)
    out = decoy_round(run, "unit", "hop", payload)
    rep = run.checks[-1]
    assert rep.samples == 16
    assert rep.mismatches == 0
    assert out.tolist() == payload.tolist()  # order preserved, ids unchanged


def _four_states(reg, n):
    from qss_sim.register import SingleState

    states = [SingleState.ZERO, SingleState.ONE, SingleState.PLUS, SingleState.MINUS]
    return [states[i % 4] for i in range(n)]


def test_decoy_round_zero_count_passes_vacuously(unit_run):
    reg = Register(seed=62)
    rng = np.random.default_rng(63)
    payload = np.array([reg.prepare_single(s) for s in _four_states(reg, 4)])
    run = unit_run(reg, len(payload), rng_dealer=rng, checking_photon_count=0)
    out = decoy_round(run, "unit", "hop", payload)
    rep = run.checks[-1]
    assert rep.samples == 0
    assert rep.verdict == "pass"
    assert out.tolist() == payload.tolist()


def test_decoy_round_intercept_resend_error_near_one_quarter(unit_run):
    from qss_sim.adversaries import EveInterceptResend

    reg = Register(seed=64)
    rng = np.random.default_rng(65)
    spec = AdversarySpec(kind="eve_intercept_resend", hop="hop", basis_policy="fixed-Z")
    eve = EveInterceptResend(reg, np.random.default_rng(66), spec)
    payload = np.zeros(0, dtype=np.int64)
    run = unit_run(reg, len(payload), rng_dealer=rng, eve=eve, checking_photon_count=2000)
    with pytest.raises(_Abort):
        decoy_round(run, "unit", "hop", payload)
    rep = run.checks[-1]
    assert rep.verdict == "abort"
    assert rep.samples == 2000
    assert rep.error_rate == pytest.approx(0.25, abs=0.03)


def test_verify_step6_accepts_published_operations(unit_run):
    reg = Register(seed=67)
    dealer, returned, published = [], [], []
    ops = list(PauliOp)
    for pos in range(20):
        a, t = reg.prepare_bell(BellLabel.PSI_MINUS)
        op = ops[pos % 4]
        reg.apply_gate(t, op)
        reg.apply_gate(t, SingleGate.H)  # the last agent's sample rotation
        dealer.append(a)
        returned.append(t)
        published.append(int(op))
    run = unit_run(reg, 20)
    run.dealer, run.partner = np.array(dealer), np.array(returned)
    verify_step6(run, np.arange(20), np.array(published))
    rep = run.checks[-1]
    assert rep.samples == 20
    assert rep.mismatches == 0


def test_verify_step6_rejects_false_publication(unit_run):
    reg = Register(seed=68)
    dealer, returned, published = [], [], []
    for pos in range(20):
        a, t = reg.prepare_bell(BellLabel.PSI_MINUS)
        reg.apply_gate(t, PauliOp.X)
        reg.apply_gate(t, SingleGate.H)
        dealer.append(a)
        returned.append(t)
        published.append(int(PauliOp.Z))  # lie
    run = unit_run(reg, 20)
    run.dealer, run.partner = np.array(dealer), np.array(returned)
    with pytest.raises(_Abort):
        verify_step6(run, np.arange(20), np.array(published))
    rep = run.checks[-1]
    assert rep.verdict == "abort"
    assert rep.mismatches == 20


def test_check_phases_are_called_through_module_globals(monkeypatch):
    # Per-phase tracing wraps these three module-level names, so every
    # run must look them up in qss_sim.protocol at call time.
    import qss_sim.protocol as protocol
    from qss_sim.protocol import run_original

    phases = ("zx_check", "decoy_round", "verify_step6")
    calls = dict.fromkeys(phases, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in phases:
        monkeypatch.setattr(protocol, name, counting(name, getattr(protocol, name)))

    run_original(ScenarioConfig(protocol="original", n_pairs=32, master_seed=1))
    assert calls == {"zx_check": 2, "decoy_round": 0, "verify_step6": 0}
    report = run_improved(_improved(1, agents=4))
    assert report.detected is False
    assert calls == {"zx_check": 2 + 3, "decoy_round": 2, "verify_step6": 1}
