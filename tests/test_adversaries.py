"""Tests for the channel adversaries."""

import inspect

import numpy as np
import pytest

from qss_sim.adversaries import (
    AdversarySpec,
    EveInterceptResend,
    SwapAttack,
    random_pauli,
)
from qss_sim.pauli import Basis, BellLabel, PauliOp, compose, decode_bell_to_pauli
from qss_sim.protocol import ScenarioConfig, _Agent, run_original, run_trial
from qss_sim.register import Register, SingleState


def test_spec_validation():
    AdversarySpec()  # honest default
    AdversarySpec(kind="bob_swap_attack", publish_true_ops=False)
    with pytest.raises(ValueError):
        AdversarySpec(kind="mallory")
    with pytest.raises(ValueError):
        AdversarySpec(kind="eve_intercept_resend")  # needs a hop
    with pytest.raises(ValueError):
        AdversarySpec(kind="eve_intercept_resend", hop="h", basis_policy="diagonal")


def test_random_pauli_is_roughly_uniform():
    rng = np.random.default_rng(0)
    counts = {p: 0 for p in PauliOp}
    for _ in range(4000):
        counts[random_pauli(rng)] += 1
    for c in counts.values():
        assert 850 < c < 1150


def test_eve_resends_her_own_eigenstate():
    # Whatever Eve measures, the forwarded photon re-measures identically
    # in her basis.
    reg = Register(seed=1)
    spec = AdversarySpec(kind="eve_intercept_resend", hop="h", basis_policy="fixed-Z")
    eve = EveInterceptResend(reg, np.random.default_rng(2), spec)
    for _ in range(50):
        a, b = reg.prepare_bell(BellLabel.PSI_MINUS)
        resent, in_x, outcomes = eve.intercept_sequence([a])
        assert in_x.tolist() == [Basis.Z]
        assert reg.measure_single(resent[0], Basis.Z) == outcomes[0]
        reg.measure_single(b, Basis.Z)


def test_eve_fixed_x_policy():
    reg = Register(seed=3)
    spec = AdversarySpec(kind="eve_intercept_resend", hop="h", basis_policy="fixed-X")
    eve = EveInterceptResend(reg, np.random.default_rng(4), spec)
    p = reg.prepare_single(SingleState.PLUS)
    resent, in_x, outcomes = eve.intercept_sequence([p])
    assert in_x.tolist() == [Basis.X]
    assert outcomes.tolist() == [0]
    assert reg.measure_single(resent[0], Basis.X) == 0


def test_eve_information_about_four_state_photons():
    # Empirical mutual information between Eve's (basis, outcome) reads
    # and the prepared state, vs. the exact 0.5 bits/photon.
    from qss_sim.harness import empirical_mutual_information

    reg = Register(seed=5)
    spec = AdversarySpec(kind="eve_intercept_resend", hop="h", basis_policy="uniform")
    eve = EveInterceptResend(reg, np.random.default_rng(6), spec)
    rng = np.random.default_rng(7)
    states = list(SingleState)
    pairs = []
    for _ in range(5000):
        state = states[int(rng.integers(4))]
        resent, in_x, outcomes = eve.intercept_sequence([reg.prepare_single(state)])
        reg.measure_single(resent[0], state.basis)
        pairs.append((state.value, (int(in_x[0]), int(outcomes[0]))))
    assert empirical_mutual_information(pairs) == pytest.approx(0.5, abs=0.05)


def test_swap_announcement_fools_correlation_check():
    # The corrected announcement decode(outcome) * fake_op turns the
    # dealer/third-party pair into exactly the announced Bell shift, so a
    # correlation check against it can never fail.
    reg = Register(seed=8)
    rng = np.random.default_rng(9)
    for _ in range(100):
        a, b = reg.prepare_bell(BellLabel.PSI_MINUS)      # genuine pair
        kept, fwd = reg.prepare_bell(BellLabel.PSI_MINUS)  # attacker's pair
        op = random_pauli(rng)
        reg.apply_gate(fwd, op)
        outcome = reg.measure_bell(b, kept)
        announced = compose(decode_bell_to_pauli(outcome), op)
        assert decode_bell_to_pauli(reg.measure_bell(a, fwd)) == announced


@pytest.mark.parametrize("n_pairs", [16, 64, 256])
def test_swap_attack_invariants(n_pairs):
    for seed in range(5):
        cfg = ScenarioConfig(
            protocol="original",
            n_pairs=n_pairs,
            master_seed=seed,
            adversary=AdversarySpec(kind="bob_swap_attack"),
        )
        report = run_original(cfg)
        assert report.detected is False
        assert all(c.mismatches == 0 for c in report.checks)
        assert report.eavesdropper_message == report.dealer_message
        # With truthful collaboration the reader still decodes exactly.
        assert report.recovered["charlie"] == report.dealer_message


def test_swap_attack_false_publication_corrupts_reader():
    diffs = total = 0
    for seed in range(5):
        cfg = ScenarioConfig(
            protocol="original",
            n_pairs=128,
            master_seed=seed,
            adversary=AdversarySpec(kind="bob_swap_attack", publish_true_ops=False),
        )
        report = run_original(cfg)
        assert report.detected is False
        assert report.eavesdropper_message == report.dealer_message
        rec = report.recovered["charlie"]
        assert rec is not None and rec != report.dealer_message
        total += len(rec)
        diffs += sum(r != d for r, d in zip(rec, report.dealer_message))
    # Uniformly wrong Paulis flip half the bits on average.
    assert diffs / total == pytest.approx(0.5, abs=0.06)


def test_chain_swap_forward_makes_one_gate_call(monkeypatch):
    # The chain's first agent, attacking, Hadamard-rotates his honest
    # sample photons and shifts his fake halves by their Paulis in one
    # register call.
    sizes, forwards = [], []
    apply_gates = Register.apply_gates
    forward = SwapAttack.forward

    def counting(self, photons, gates):
        sizes.append(len(photons))
        apply_gates(self, photons, gates)

    def watched(self, positions, photons, honest=None):
        sizes.clear()
        out = forward(self, positions, photons, honest)
        forwards.append((len(positions), len(honest), list(sizes)))
        return out

    monkeypatch.setattr(Register, "apply_gates", counting)
    monkeypatch.setattr(SwapAttack, "forward", watched)
    run_trial(
        ScenarioConfig(
            protocol="improved",
            n_pairs=16,
            agent_count=3,
            step6_sample_count=8,
            adversary=AdversarySpec(kind="bob_swap_attack"),
        )
    )
    # Of the 12 positions the step-2 check leaves, he swaps 9 and rotates
    # his 3 samples, all in one call.
    assert forwards == [(9, 3, [12])]


def test_adversaries_see_only_channel_state():
    # Attack constructors receive the shared register, a private stream
    # and the adversary description -- no party-private arguments exist
    # in any handler.
    for cls in (EveInterceptResend, SwapAttack):
        params = list(inspect.signature(cls).parameters)
        assert params == ["register", "rng", "spec"]
    handler_params = {
        "forward": ["positions", "photons", "honest"],
        "publish": ["positions", "kind"],
        "intercept_dealer": ["positions", "photons"],
    }
    assert sorted(name for name in vars(SwapAttack) if not name.startswith("_")) == sorted(
        handler_params
    )
    for name, expected in handler_params.items():
        sig = inspect.signature(getattr(SwapAttack, name))
        assert [p for p in sig.parameters if p != "self"] == expected
        # The protocol asks an honest agent exactly what it asks the attacker.
        assert inspect.signature(getattr(_Agent, name)) == sig
    assert sorted(name for name in vars(_Agent) if not name.startswith("_")) == sorted(
        handler_params
    )


@pytest.mark.parametrize(
    "protocol, agent_count, kinds",
    [
        ("original", 2, ["zx", "final", "collaboration"]),
        ("improved", 4, ["zx", "step6", "collaboration"]),
        ("improved", 5, ["zx", "zx", "step6", "collaboration"]),
    ],
)
def test_swap_attack_publishes_by_check_kind(monkeypatch, protocol, agent_count, kinds):
    # The steps hand each publication its plan row's kind; the attacker
    # alone decides what to announce for it.  In the chain the first
    # agent publishes at every hop check after his own and at step 6.
    seen = []
    publish = SwapAttack.publish

    def recording(self, positions, kind):
        seen.append(kind)
        return publish(self, positions, kind)

    monkeypatch.setattr(SwapAttack, "publish", recording)
    config = ScenarioConfig(
        protocol=protocol,
        n_pairs=64,
        agent_count=agent_count,
        error_threshold=1.0,
        adversary=AdversarySpec(kind="bob_swap_attack", publish_true_ops=False),
    )
    report = run_trial(config)
    assert seen == kinds
    assert not report.detected
    (recovered,) = report.recovered.values()
    assert recovered != report.dealer_message
