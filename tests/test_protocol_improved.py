"""Tests for the M-agent chain protocol mode."""

import numpy as np
import pytest

from qss_sim.adversaries import AdversarySpec
from qss_sim.pauli import BellLabel, PauliOp, compose_all, recover_dealer_pauli
from qss_sim.protocol import (
    ScenarioConfig,
    _Abort,
    decoy_round,
    plan,
    run_improved,
    run_trial,
    verify_step6,
)
from qss_sim.register import Register

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


def test_plan_improved():
    # 64 pairs: each position-consuming check samples a quarter of what
    # the earlier ones left; a decoy check samples the checking photons.
    assert plan(_improved(0, agents=4, step6_sample_count=3)) == (
        ("alice->agent0", "zx_check_step2", "zx", 16),
        ("agent0->agent1", "hop_check_0", "zx", 12),
        ("agent1->agent2", "hop_check_1", "zx", 9),
        ("agent2->alice", "step6_check", "step6", 3),
        ("alice->zach:t", "decoy_check_t", "decoy", 8),
        ("alice->zach:a", "decoy_check_a", "decoy", 8),
    )


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
    run = unit_run(reg, len(payload), rng_dealer=rng, samples=16)
    out = decoy_round(run, payload)
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
    run = unit_run(reg, len(payload), rng_dealer=rng, samples=0)
    out = decoy_round(run, payload)
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
    run = unit_run(reg, len(payload), rng_dealer=rng, eve=eve, samples=2000)
    with pytest.raises(_Abort):
        decoy_round(run, payload)
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


def test_verify_step6_reads_codes_aligned_with_its_sample(unit_run):
    # As in zx_check, the published codes belong to the sampled positions,
    # in sample order.
    reg = Register(seed=70)
    pairs = [reg.prepare_bell(BellLabel.PSI_MINUS) for _ in range(16)]
    ops = list(PauliOp)
    for pos, (_, t) in enumerate(pairs):
        reg.apply_gate(t, ops[pos % 4])
    run = unit_run(reg, 16, samples=3)
    run.dealer, run.partner = (np.array(half) for half in zip(*pairs))
    sampled = np.array([3, 6, 9])
    verify_step6(run, sampled, np.array([ops[p % 4] for p in sampled]))
    rep = run.checks[-1]
    assert (rep.samples, rep.mismatches) == (3, 0)
    assert run.positions.tolist() == [p for p in range(16) if p not in sampled]


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


def test_trials_neither_sort_nor_search(monkeypatch):
    # Sampled positions, the positions left after a check and the
    # rotated ones are read off masks, and the register checks a
    # measuring call's photons distinct by writing and reading back one
    # scratch entry per row, so a trial never maps numpy's sort or
    # binary-search code.
    def refuse(*args, **kwargs):
        raise AssertionError("a trial called numpy's sort or searchsorted")

    monkeypatch.setattr(np, "sort", refuse)
    monkeypatch.setattr(np, "searchsorted", refuse)
    swap = AdversarySpec(kind="bob_swap_attack")
    eve = AdversarySpec(kind="eve_intercept_resend", hop="bob->charlie")
    trials = [
        _improved(2, agents=4),
        _improved(2, agents=3, step6_sample_count=8, adversary=swap),
        ScenarioConfig(protocol="original", master_seed=2, adversary=swap),
        ScenarioConfig(protocol="original", master_seed=2, error_threshold=1.0, adversary=eve),
    ]
    reports = [run_trial(config) for config in trials]
    # Each ran to its end: the honest and Eve trials to the readout, and
    # the chain's swap attack to the dealer's step-6 verification.
    assert [r.detected for r in reports] == [False, True, False, False]
    assert reports[1].checks[-1].check_id == "step6_check"
    assert all(None not in r.recovered.values() for r in reports if not r.detected)


def test_a_check_off_its_plan_row_raises(monkeypatch, unit_run):
    # `settle` holds each check to its plan row: a check that settles
    # another sample count than its row's, or settles once every row has,
    # broke the run order.
    import qss_sim.protocol as protocol

    zx_check = protocol.zx_check

    def short_by_one(run, sampled, *rest, **kwargs):
        zx_check(run, sampled[1:], *rest, **kwargs)

    monkeypatch.setattr(protocol, "zx_check", short_by_one)
    short = "^zx_check_step2 settled 15 samples; its plan row has 16$"
    with pytest.raises(RuntimeError, match=short):
        run_improved(_improved(0))
    run = unit_run(Register(seed=69), 4)
    run.settle(4, 0)
    with pytest.raises(RuntimeError, match="^a check settled after unit, the plan's last$"):
        run.settle(4, 0)


@pytest.mark.parametrize(
    "protocol, agents", [("original", 2)] + [("improved", m) for m in range(2, 6)]
)
def test_every_party_stream_is_drawn_from(monkeypatch, protocol, agents):
    # A run spawns a stream only for a party that draws: the chain's
    # final receiver draws nothing, so it has none.
    made = []
    default_rng = np.random.default_rng

    class Counting:
        """A Generator that counts the lookups of its methods."""

        def __init__(self, seed):
            self.generator = default_rng(seed)
            self.draws = 0
            made.append(self)

        def __getattr__(self, name):
            self.draws += 1
            return getattr(self.generator, name)

    monkeypatch.setattr(np.random, "default_rng", Counting)
    config = ScenarioConfig(protocol=protocol, n_pairs=32, master_seed=4, agent_count=agents)
    assert run_trial(config).detected is False
    # The streams are made in order: register, dealer, adversary, then
    # one per party.
    draws = [stream.draws for stream in made[3:]]
    assert draws and 0 not in draws
