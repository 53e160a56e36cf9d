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
from qss_sim.protocol import ScenarioConfig, run_original
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
        out = eve.intercept_sequence([a])[0]
        basis, bit = eve.observations[-1]
        assert basis is Basis.Z
        assert reg.measure_single(out, Basis.Z) == bit
        reg.measure_single(b, Basis.Z)


def test_eve_fixed_x_policy():
    reg = Register(seed=3)
    spec = AdversarySpec(kind="eve_intercept_resend", hop="h", basis_policy="fixed-X")
    eve = EveInterceptResend(reg, np.random.default_rng(4), spec)
    p = reg.prepare_single(SingleState.PLUS)
    out = eve.intercept_sequence([p])[0]
    assert eve.observations == [(Basis.X, 0)]
    assert reg.measure_single(out, Basis.X) == 0


def test_eve_information_about_four_state_photons():
    # Empirical mutual information between Eve's (basis, outcome) record
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
        out = eve.intercept_sequence([reg.prepare_single(state)])[0]
        reg.measure_single(out, state.basis)
        pairs.append((state.value, eve.observations[-1]))
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


def test_adversaries_see_only_channel_state():
    # Attack constructors receive the shared register, a private stream
    # and the adversary description -- no party-private arguments exist
    # in any handler.
    for cls in (EveInterceptResend, SwapAttack):
        params = list(inspect.signature(cls).parameters)
        assert params == ["register", "rng", "spec"]
    handler_params = {
        "forward": ["positions", "photons", "honest"],
        "swap_correct": ["positions"],
        "fake_ops": ["positions"],
        "publish_final": ["positions"],
        "intercept_dealer": ["positions", "photons"],
    }
    for name, expected in handler_params.items():
        sig = inspect.signature(getattr(SwapAttack, name))
        assert [p for p in sig.parameters if p != "self"] == expected
