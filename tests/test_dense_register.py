"""The register against a dense statevector engine built without it.

`dense_register.DenseRegister` keeps one complex array with an axis per
live photon and shares no code with `qss_sim.register`.  So whole trials
and seeded op sequences that agree on both engines check the register's
row and seat bookkeeping (Bell merges, survivors changing seats, dead
sides, Eve's resends, the attacker's fake pairs) against plain physics,
and the check stays valid through every re-capture of the golden
digests, which only the register itself made.
"""

from dataclasses import replace

import numpy as np
import pytest
from dense_register import DenseRegister
from hypothesis import given, settings
from hypothesis import strategies as st
from test_register_vector import _OPS, _each, _segments

from qss_sim import protocol
from qss_sim.adversaries import VALID_POLICIES, AdversarySpec
from qss_sim.harness import BatchSpec, trial_line
from qss_sim.pauli import Basis, BellLabel
from qss_sim.protocol import ConfigError, ScenarioConfig, run_trial, validate_config
from qss_sim.register import Register, SingleGate, SingleState


def _grid():
    """Both protocols, 2 and 3 agents, 3 to 5 pairs and thresholds 0 and
    1, where `validate_config` accepts them, each with no adversary, the
    swap attack in both publication modes and Eve with each basis policy
    on each hop of the run's plan."""
    shapes = [("original", 2)] + [("improved", m) for m in (2, 3)]
    for (name, agents), n_pairs, threshold in (
        (shape, n, t) for shape in shapes for n in (3, 4, 5) for t in (0.0, 1.0)
    ):
        base = ScenarioConfig(
            protocol=name,
            n_pairs=n_pairs,
            agent_count=agents,
            checking_photon_count=2,
            error_threshold=threshold,
        )
        try:
            rows = validate_config(base)
        except ConfigError:
            continue
        adversaries = [AdversarySpec()] + [
            AdversarySpec(kind="bob_swap_attack", publish_true_ops=publish)
            for publish in (True, False)
        ]
        adversaries += [
            AdversarySpec(kind="eve_intercept_resend", hop=hop, basis_policy=policy)
            for hop, *_ in rows
            for policy in VALID_POLICIES
        ]
        for adversary in adversaries:
            yield replace(base, adversary=adversary)


def _trial(config: ScenarioConfig) -> tuple[str, list]:
    report = run_trial(config)
    return trial_line(BatchSpec(scenario=config), 0, report), report.transcript.to_list()


def test_whole_trials_equal_on_a_dense_engine(monkeypatch):
    configs = [replace(c, master_seed=seed) for c in _grid() for seed in range(4)]
    assert len(configs) > 500
    engine = [_trial(c) for c in configs]
    monkeypatch.setattr(protocol, "Register", DenseRegister)
    dense = [_trial(c) for c in configs]
    for config, want, got in zip(configs, engine, dense):
        assert got == want, config


def _assert_same_states(reg: Register, dense: DenseRegister) -> None:
    """Equal live photons and rows, and each row's amplitudes equal to
    the dense reduced state of its photons, up to a global phase."""
    assert reg.live_photons == dense.live_photons
    for p in reg.live_photons:
        photons, amps = reg.amplitudes_of(p)
        dense_photons, dense_amps = dense.amplitudes_of(p)
        assert sorted(photons) == dense_photons
        want = dense_amps.transpose([dense_photons.index(q) for q in photons]).reshape(-1)
        got = amps.reshape(-1)
        phase = np.vdot(got, want)
        assert abs(abs(phase) - 1) <= 1e-12
        np.testing.assert_allclose(phase * got, want, rtol=0, atol=1e-12)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.data())
def test_op_sequences_equal_on_a_dense_engine(data):
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    reg, dense = Register(seed=seed), DenseRegister(seed=seed)

    def both(op, *args):
        if op in ("prepare_bells", "prepare_singles"):
            got, want = getattr(reg, op)(*args), getattr(dense, op)(*args)
        else:
            got, want = _segments(reg, op, *args), _segments(dense, op, *args)
        np.testing.assert_array_equal(got, want)
        _assert_same_states(reg, dense)

    both("prepare_bells", 3, BellLabel.PSI_MINUS)
    for _ in range(data.draw(st.integers(1, 12), label="calls")):
        live = sorted(reg.live_photons)
        op = data.draw(st.sampled_from(_OPS))
        if op == "prepare_bells":
            if len(live) <= 8:
                both(op, data.draw(st.integers(0, 2)), data.draw(st.sampled_from(BellLabel)))
        elif op == "prepare_singles":
            if len(live) <= 8:
                both(op, data.draw(st.lists(st.sampled_from(SingleState), max_size=3)))
        elif not live:
            continue
        elif op == "apply_gates":
            photons = data.draw(st.lists(st.sampled_from(live), max_size=8))
            both(op, photons, data.draw(_each(photons, SingleGate)))
        elif op == "measure_singles":
            photons = data.draw(st.permutations(live))[: data.draw(st.integers(0, len(live)))]
            both(op, photons, [b is Basis.X for b in data.draw(_each(photons, Basis))])
        else:
            chosen = data.draw(st.permutations(live))
            k = data.draw(st.integers(0, len(chosen) // 2))
            both(op, chosen[:k], chosen[k : 2 * k])


def test_the_dense_engine_refuses_two_items_on_one_row():
    dense = DenseRegister(seed=1)
    (a, c), (b, d) = dense.prepare_bells(2, BellLabel.PSI_MINUS)
    for op, *args in (
        ("apply_gates", [a, b], [SingleGate.X] * 2),
        ("measure_singles", [a, a], [False] * 2),
        ("measure_bells", [a], [a]),
        ("measure_bells", [a, c], [c, d]),
    ):
        with pytest.raises(ValueError):
            getattr(dense, op)(*args)
    assert dense.live_photons == {a, b, c, d}
