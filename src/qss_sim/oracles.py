"""Brute-force reference computations.

Everything here is derived by direct amplitude expansion or exhaustive
enumeration with plain numpy, independently of both the Register engine
and the phase-free Pauli bookkeeping in `pauli`.  The test suite and the
`qss-sim oracle` subcommand use these tables as the ground truth that
the fast paths are checked against.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .pauli import Basis, BellLabel, PauliOp

_SQ2 = 1.0 / math.sqrt(2.0)

# 4-vectors over |00>, |01>, |10>, |11>
BELL_VECTORS = {
    BellLabel.PHI_PLUS: np.array([_SQ2, 0, 0, _SQ2], dtype=complex),
    BellLabel.PHI_MINUS: np.array([_SQ2, 0, 0, -_SQ2], dtype=complex),
    BellLabel.PSI_PLUS: np.array([0, _SQ2, _SQ2, 0], dtype=complex),
    BellLabel.PSI_MINUS: np.array([0, _SQ2, -_SQ2, 0], dtype=complex),
}

PAULI_MATRICES = {
    PauliOp.I: np.eye(2, dtype=complex),
    PauliOp.X: np.array([[0, 1], [1, 0]], dtype=complex),
    PauliOp.IY: np.array([[0, 1], [-1, 0]], dtype=complex),
    PauliOp.Z: np.array([[1, 0], [0, -1]], dtype=complex),
}

HADAMARD = np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex)

_KET = {
    "0": np.array([1, 0], dtype=complex),
    "1": np.array([0, 1], dtype=complex),
    "+": np.array([_SQ2, _SQ2], dtype=complex),
    "-": np.array([_SQ2, -_SQ2], dtype=complex),
}


def bell_label_of(vec: np.ndarray, tol: float = 1e-9) -> BellLabel:
    """Identify a two-photon state as a Bell state, up to global phase."""
    v = np.asarray(vec, dtype=complex).reshape(4)
    for label, ref in BELL_VECTORS.items():
        overlap = abs(np.vdot(ref, v))
        if abs(overlap - 1.0) < tol:
            return label
    raise ValueError("state is not a Bell state up to phase")


def pauli_on_singlet(p: PauliOp) -> BellLabel:
    """Which Bell state (P (x) I)|Psi-> is, by 4-amplitude expansion."""
    op = np.kron(PAULI_MATRICES[p], np.eye(2))
    return bell_label_of(op @ BELL_VECTORS[BellLabel.PSI_MINUS])


def bell_pauli_table() -> dict[tuple[PauliOp, BellLabel], BellLabel]:
    """For every (Pauli, initial Bell state): the deterministic Bell
    outcome after applying the Pauli to the first photon of the pair."""
    table = {}
    for p in PauliOp:
        for label in BellLabel:
            op = np.kron(PAULI_MATRICES[p], np.eye(2))
            table[(p, label)] = bell_label_of(op @ BELL_VECTORS[label])
    return table


def swap_table() -> dict[tuple[BellLabel, BellLabel, BellLabel], BellLabel]:
    """Entanglement-swapping outcomes by 16-amplitude expansion.

    Key (left, right, measured): pairs (1,2) and (3,4) start in `left`
    and `right`; a Bell measurement on (2,3) yielding `measured` leaves
    (1,4) in the value.  Every outcome occurs with probability 1/4."""
    table = {}
    for left, right in itertools.product(BellLabel, BellLabel):
        for measured, prob, res in _swap_outcomes(left, right):
            table[(left, right, measured)] = bell_label_of(res / math.sqrt(prob))
    return table


def _swap_outcomes(left: BellLabel, right: BellLabel):
    """Yield each Bell outcome `measured` on photons (2,3), with its
    probability and the unnormalized state of (1,4) it leaves, when pairs
    (1,2) and (3,4) start in `left` and `right`.  Raise ValueError unless
    the probability is 1/4: an explicit check, so that it holds under
    ``python -O``."""
    psi = np.tensordot(
        BELL_VECTORS[left].reshape(2, 2),
        BELL_VECTORS[right].reshape(2, 2),
        axes=0,
    )  # axes: photon 1, 2, 3, 4
    for measured in BellLabel:
        proj = np.conj(BELL_VECTORS[measured].reshape(2, 2))
        res = np.tensordot(psi, proj, axes=([1, 2], [0, 1]))
        prob = float(np.sum(np.abs(res) ** 2))
        if not abs(prob - 0.25) < 1e-12:
            raise ValueError(f"Bell outcome probability {prob!r}, not 1/4")
        yield measured, prob, res


def _measure_probs(vec: np.ndarray, basis: Basis) -> np.ndarray:
    if basis is Basis.X:
        vec = HADAMARD @ vec
    return np.abs(vec) ** 2


def intercept_resend_check_error(policy: str = "uniform") -> float:
    """Exact Z/X-check error rate with an intercept-resend eavesdropper
    on one half of a singlet.

    Enumerates Eve's basis (per `policy`: 'uniform', 'fixed-Z' or
    'fixed-X'), Eve's outcome, the check basis, and both legitimate
    outcomes; a check error is a correlated (equal) outcome pair where
    the singlet demands anti-correlation."""
    eve_bases = {
        "uniform": [(Basis.Z, 0.5), (Basis.X, 0.5)],
        "fixed-Z": [(Basis.Z, 1.0)],
        "fixed-X": [(Basis.X, 1.0)],
    }[policy]
    singlet = BELL_VECTORS[BellLabel.PSI_MINUS].reshape(2, 2)
    error = 0.0
    for eve_basis, w_eve in eve_bases:
        rot = HADAMARD if eve_basis is Basis.X else np.eye(2)
        # Eve measures photon 1 (the traveling one).
        rotated = np.tensordot(rot, singlet, axes=([1], [0]))
        for eve_out in (0, 1):
            collapsed_partner = rotated[eve_out, :]
            p_eve = float(np.sum(np.abs(collapsed_partner) ** 2))
            partner = collapsed_partner / math.sqrt(p_eve)
            resent = _KET[("01" if eve_basis is Basis.Z else "+-")[eve_out]]
            for check_basis, w_basis in ((Basis.Z, 0.5), (Basis.X, 0.5)):
                pr_resent = _measure_probs(resent, check_basis)
                pr_partner = _measure_probs(partner, check_basis)
                p_equal = float(pr_resent @ pr_partner)
                error += w_eve * p_eve * w_basis * p_equal
    return error


def decoy_error_rate(policy: str = "fixed-Z") -> float:
    """Exact checking-photon error rate for an intercept-resend attacker
    against single photons drawn uniformly from {|0>,|1>,|+>,|->},
    verified afterwards in their preparation basis."""
    eve_bases = {
        "uniform": [(Basis.Z, 0.5), (Basis.X, 0.5)],
        "fixed-Z": [(Basis.Z, 1.0)],
        "fixed-X": [(Basis.X, 1.0)],
    }[policy]
    states = [("0", Basis.Z, 0), ("1", Basis.Z, 1), ("+", Basis.X, 0), ("-", Basis.X, 1)]
    error = 0.0
    for name, prep_basis, prep_bit in states:
        vec = _KET[name]
        for eve_basis, w_eve in eve_bases:
            probs = _measure_probs(vec, eve_basis)
            for eve_out in (0, 1):
                resent = _KET[("01" if eve_basis is Basis.Z else "+-")[eve_out]]
                check = _measure_probs(resent, prep_basis)
                error += 0.25 * w_eve * probs[eve_out] * (1.0 - check[prep_bit])
    return float(error)


def swap_attack_step6_pass_rate() -> float:
    """Pass probability per dealer-verified Hadamard sample when the
    returned photon is half of the attacker's own pair instead of the
    dealer's partner.

    The dealer Bell-measures one photon from each of two independent
    Bell pairs; by direct expansion each of the four outcomes has
    probability 1/4, so the outcome matches the announced operations with
    probability 1/4 regardless of the Paulis or Hadamards applied."""
    outcomes = _swap_outcomes(BellLabel.PSI_MINUS, BellLabel.PSI_MINUS)
    return max(prob for _, prob, _ in outcomes)


def eve_state_information() -> float:
    """Mutual information, in bits per photon, between an intercept-resend
    eavesdropper's (basis, outcome) record and the true prepared state,
    for uniform four-state photons and a uniform-random basis policy.
    Computed from the exact joint distribution."""
    states = [("0", Basis.Z), ("1", Basis.Z), ("+", Basis.X), ("-", Basis.X)]
    joint: dict[tuple[int, int, int], float] = {}
    for s_idx, (name, _prep_basis) in enumerate(states):
        vec = _KET[name]
        for b_idx, basis in enumerate((Basis.Z, Basis.X)):
            probs = _measure_probs(vec, basis)
            for out in (0, 1):
                key = (s_idx, b_idx, out)
                joint[key] = joint.get(key, 0.0) + 0.25 * 0.5 * float(probs[out])
    p_s: dict[int, float] = {}
    p_e: dict[tuple[int, int], float] = {}
    for (s, b, o), p in joint.items():
        p_s[s] = p_s.get(s, 0.0) + p
        p_e[(b, o)] = p_e.get((b, o), 0.0) + p
    info = 0.0
    for (s, b, o), p in joint.items():
        if p > 0:
            info += p * math.log2(p / (p_s[s] * p_e[(b, o)]))
    return info
