"""The phase-free Pauli bookkeeping against brute-force amplitude oracles.

Every prediction of the label algebra is checked against either the
independent 4/16-amplitude enumeration in `oracles` or live statevector
runs of the Register engine.
"""

import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

import qss_sim
from qss_sim.oracles import (
    bell_pauli_table,
    decoy_error_rate,
    eve_state_information,
    intercept_resend_check_error,
    pauli_on_singlet,
    swap_attack_step6_pass_rate,
    swap_table,
)
from qss_sim.pauli import BellLabel, PauliOp, compose, decode_bell_to_pauli, swap_rule
from qss_sim.register import Register


def test_pauli_on_singlet_matches_decode_table():
    for p in PauliOp:
        assert decode_bell_to_pauli(pauli_on_singlet(p)) == p


def test_bell_pauli_table_matches_label_composition():
    # Shifting any Bell state by a Pauli composes labels exactly as the
    # 2-bit algebra predicts, for all 16 (Pauli, Bell state) cases.
    table = bell_pauli_table()
    for (p, label), outcome in table.items():
        predicted = compose(p, decode_bell_to_pauli(label))
        assert decode_bell_to_pauli(outcome) == predicted


def test_bell_pauli_table_matches_register():
    reg = Register(seed=100)
    for (p, label), outcome in bell_pauli_table().items():
        a, b = reg.prepare_bell(label)
        reg.apply_gate(a, p)
        assert reg.measure_bell(a, b) == outcome


def test_swap_rule_matches_all_64_oracle_entries():
    table = swap_table()
    assert len(table) == 64
    for (left, right, measured), result in table.items():
        assert swap_rule(left, right, measured) == result


def test_swap_rule_matches_register_all_initial_combinations():
    # All 16 (left, right) initial-label combinations, across whatever
    # outcomes the seeded engine produces.
    reg = Register(seed=101)
    seen = set()
    for left, right in itertools.product(BellLabel, BellLabel):
        for _ in range(12):
            p1, p2 = reg.prepare_bell(left)
            p3, p4 = reg.prepare_bell(right)
            measured = reg.measure_bell(p2, p3)
            seen.add((left, right, measured))
            assert reg.measure_bell(p1, p4) == swap_rule(left, right, measured)
    # With 12 draws per combination virtually every outcome appears.
    assert len(seen) > 48


def test_random_hadamard_free_circuits_match_frame():
    # 10^4 random circuits: a singlet pair hit by up to 8 random Paulis on
    # either photon.  The tracked label must predict the Bell readout with
    # zero discrepancies.
    rng = np.random.default_rng(2024)
    reg = Register(rng=np.random.default_rng(2025))
    paulis = list(PauliOp)
    discrepancies = 0
    for _ in range(10_000):
        pair = reg.prepare_bell(BellLabel.PSI_MINUS)
        frame = PauliOp.I
        for _ in range(int(rng.integers(0, 9))):
            op = paulis[int(rng.integers(4))]
            reg.apply_gate(pair[int(rng.integers(2))], op)
            frame = compose(frame, op)
        if decode_bell_to_pauli(reg.measure_bell(*pair)) != frame:
            discrepancies += 1
    assert discrepancies == 0


def test_intercept_resend_closed_forms():
    for policy in ("uniform", "fixed-Z", "fixed-X"):
        assert intercept_resend_check_error(policy) == pytest.approx(0.25, abs=1e-12)


def test_decoy_error_closed_forms():
    for policy in ("uniform", "fixed-Z", "fixed-X"):
        assert decoy_error_rate(policy) == pytest.approx(0.25, abs=1e-12)


def test_swap_attack_step6_pass_rate_is_one_quarter():
    assert swap_attack_step6_pass_rate() == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("oracle", ["swap_attack_step6_pass_rate", "swap_table"])
def test_bell_probability_checks_hold_under_optimize(oracle):
    # A Bell vector of the wrong norm gives outcome probabilities other
    # than 1/4; the oracle must refuse it even where asserts are off.
    code = (
        "from qss_sim import oracles\n"
        "from qss_sim.pauli import BellLabel\n"
        "oracles.BELL_VECTORS[BellLabel.PHI_PLUS] = 2 * oracles.BELL_VECTORS[BellLabel.PHI_PLUS]\n"
        f"print(oracles.{oracle}())\n"
    )
    src = os.path.dirname(os.path.dirname(qss_sim.__file__))
    result = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode != 0, result.stdout
    assert "ValueError: Bell outcome probability" in result.stderr


def test_eve_state_information_is_half_bit():
    assert abs(eve_state_information() - 0.5) < 1e-12
