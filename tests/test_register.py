"""Tests for the factored statevector register."""

import numpy as np
import pytest

from qss_sim.pauli import Basis, BellLabel, PauliOp
from qss_sim.register import (
    BELL_TENSORS,
    GATE_MATRICES,
    SINGLE_STATE_VECTORS,
    ConsumedPhotonError,
    Register,
    RegisterError,
    SingleGate,
    SingleState,
    _real_table,
)


def test_prepare_bell_amplitudes():
    reg = Register(seed=0)
    for label in BellLabel:
        a, b = reg.prepare_bell(label)
        photons, amps = reg.amplitudes_of(a)
        assert photons == [a, b]
        np.testing.assert_allclose(amps, BELL_TENSORS[label])
        assert reg.group_norm_sq(a) == pytest.approx(1.0, abs=1e-12)


def test_prepare_single_measure_deterministic():
    reg = Register(seed=1)
    for state in SingleState:
        p = reg.prepare_single(state)
        assert reg.measure_single(p, state.basis) == state.bit
        assert not reg.is_live(p)


def test_x_basis_outcome_convention():
    reg = Register(seed=2)
    plus = reg.prepare_single(SingleState.PLUS)
    minus = reg.prepare_single(SingleState.MINUS)
    assert reg.measure_single(plus, Basis.X) == 0
    assert reg.measure_single(minus, Basis.X) == 1


def test_h_twice_is_identity():
    reg = Register(seed=3)
    p = reg.prepare_single(SingleState.ONE)
    reg.apply_gate(p, SingleGate.H)
    reg.apply_gate(p, SingleGate.H)
    assert reg.measure_single(p, Basis.Z) == 1


def test_singlet_anticorrelation_both_bases():
    reg = Register(seed=4)
    for trial in range(200):
        a, b = reg.prepare_bell(BellLabel.PSI_MINUS)
        basis = Basis.Z if trial % 2 == 0 else Basis.X
        assert reg.measure_single(a, basis) ^ reg.measure_single(b, basis) == 1


def test_measure_bell_on_prepared_states_is_deterministic():
    reg = Register(seed=5)
    for label in BellLabel:
        for _ in range(10):
            a, b = reg.prepare_bell(label)
            assert reg.measure_bell(a, b) == label


def test_pauli_gates_shift_bell_labels():
    # Applying a Pauli to one half of a singlet yields the expected
    # deterministic Bell readout.
    expected = {
        PauliOp.I: BellLabel.PSI_MINUS,
        PauliOp.X: BellLabel.PHI_MINUS,
        PauliOp.IY: BellLabel.PHI_PLUS,
        PauliOp.Z: BellLabel.PSI_PLUS,
    }
    reg = Register(seed=6)
    for op, label in expected.items():
        a, b = reg.prepare_bell(BellLabel.PSI_MINUS)
        reg.apply_gate(a, op)
        assert reg.measure_bell(a, b) == label


def test_entanglement_swap_leaves_valid_residual_pair():
    # The surviving pair after a mid-chain Bell measurement is itself in a
    # definite Bell state: a second Bell measurement must be deterministic
    # given the first outcome (checked against the brute-force table).
    from qss_sim.oracles import swap_table

    table = swap_table()
    reg = Register(seed=7)
    for left in BellLabel:
        for right in BellLabel:
            for _ in range(8):
                p1, p2 = reg.prepare_bell(left)
                p3, p4 = reg.prepare_bell(right)
                measured = reg.measure_bell(p2, p3)
                assert reg.measure_bell(p1, p4) == table[(left, right, measured)]


def test_consumed_photon_errors():
    reg = Register(seed=8)
    p = reg.prepare_single(SingleState.ZERO)
    reg.measure_single(p, Basis.Z)
    with pytest.raises(ConsumedPhotonError):
        reg.measure_single(p, Basis.Z)
    with pytest.raises(ConsumedPhotonError):
        reg.apply_gate(p, SingleGate.X)
    with pytest.raises(ConsumedPhotonError):
        reg.measure_single(999, Basis.Z)


def test_bell_measurement_needs_distinct_photons():
    reg = Register(seed=9)
    a, _ = reg.prepare_bell(BellLabel.PHI_PLUS)
    with pytest.raises(RegisterError):
        reg.measure_bell(a, a)


def test_negative_bell_count_is_rejected():
    # A negative count would rewind the next row and photon, and the
    # next pair would overwrite a live one.
    reg = Register(seed=2)
    a, b = reg.prepare_bell(BellLabel.PHI_PLUS)
    with pytest.raises(RegisterError):
        reg.prepare_bells(-1, BellLabel.PHI_PLUS)
    c, d = reg.prepare_bell(BellLabel.PSI_MINUS)
    assert {c, d}.isdisjoint({a, b})
    assert reg.measure_bell(a, b) is BellLabel.PHI_PLUS


def test_live_photon_bookkeeping():
    reg = Register(seed=12)
    a, b = reg.prepare_bell(BellLabel.PSI_MINUS)
    c = reg.prepare_single(SingleState.PLUS)
    assert reg.live_photons == {a, b, c}
    reg.measure_bell(a, b)
    assert reg.live_photons == {c}


def test_seeded_replay_is_identical():
    def outcomes(seed):
        reg = Register(seed=seed)
        out = []
        for _ in range(50):
            a, b = reg.prepare_bell(BellLabel.PSI_MINUS)
            out.append(reg.measure_single(a, Basis.Z))
            out.append(reg.measure_single(b, Basis.X))
        return out

    assert outcomes(123) == outcomes(123)
    assert outcomes(123) != outcomes(124)


def test_norm_stays_unit_through_gates():
    reg = Register(seed=13)
    a, b = reg.prepare_bell(BellLabel.PSI_MINUS)
    for gate in (SingleGate.H, SingleGate.X, SingleGate.IY, SingleGate.Z, SingleGate.H):
        reg.apply_gate(a, gate)
        reg.apply_gate(b, gate)
        assert abs(reg.group_norm_sq(a) - 1.0) <= 1e-12


def test_amplitude_table_and_public_tables_are_real():
    # Every gate, state and Bell tensor is real, so the engine keeps a
    # float64 table and spends nothing on imaginary parts.
    reg = Register(seed=8)
    a, _ = reg.prepare_bell(BellLabel.PSI_MINUS)
    reg.apply_gate(a, SingleGate.H)
    assert reg._amps.dtype == np.float64
    assert reg.amplitudes_of(a)[1].dtype == np.float64
    for table in (GATE_MATRICES, SINGLE_STATE_VECTORS, BELL_TENSORS):
        for entry in table.values():
            assert entry.dtype == np.float64


def test_complex_table_entries_fail_loudly():
    # The kernel tables are derived through _real_table at import: a
    # complex gate raises there instead of losing its phase.
    pauli_y = np.array([[0, -1j], [1j, 0]])
    with pytest.raises(RegisterError):
        _real_table([GATE_MATRICES[SingleGate.X], pauli_y])
    table = _real_table([np.eye(2, dtype=complex), GATE_MATRICES[SingleGate.IY]])
    assert table.dtype == np.float64
    np.testing.assert_array_equal(table, [np.eye(2), [[0, 1], [-1, 0]]])
