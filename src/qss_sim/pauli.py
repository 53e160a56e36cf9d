"""Phase-free Pauli algebra over 2-bit symplectic labels.

Every single-photon operation used as a message symbol is one of
I, X, iY, Z.  Tracked mod global phase, each is its own inverse and
composition is bitwise XOR on the (xbit, zbit) label.  This module is the
message codec and the deterministic bookkeeping oracle for every
Hadamard-free circuit in the protocols: which Bell state a pair occupies
only ever shifts by the XOR of the Paulis applied to either photon.

Each symbol is an ``enum.IntEnum`` whose value is the integer code the
protocol's arrays carry, so an array of codes and a list of members mean
the same thing.  A Pauli's code is ``2*xbit + zbit``, so composing two of
them is one XOR of their codes; a basis is its X-mask entry; a Bell
outcome is the index the register's measurements report, and
``BELL_CODES`` gives the code of the Pauli it decodes to
(``decode_bell_to_pauli``):

    PauliOp    I     Z     X     IY
    code       0     1     2     3

    Basis      Z     X
    code       0     1

    BellLabel  phi+  phi-  psi+  psi-
    code       0     1     2     3
    decodes to 3     2     1     0

Members of different enums compare equal when their codes do
(``BellLabel.PHI_MINUS == PauliOp.Z``), so never compare them, or mix
them as keys, across enums; and since Python 3.11 ``str(member)`` is the
number, so output uses ``.name``.  ``expected_parity`` and
``decode_message`` take arrays of codes as well as members.

Bell-basis convention (fixed so tests are bit-exact):

    Phi+- = (|00> +- |11>)/sqrt(2)
    Psi+- = (|01> +- |10>)/sqrt(2)

The reference state for decoding is the singlet Psi-.
"""

from __future__ import annotations

import enum
from typing import Iterable, Sequence

import numpy as np


class Basis(enum.IntEnum):
    Z = 0
    X = 1


# An outcome's code is its place in the register's Born-rule draw, fixed
# so that seeded runs replay.
class BellLabel(enum.IntEnum):
    PHI_PLUS = 0
    PHI_MINUS = 1
    PSI_PLUS = 2
    PSI_MINUS = 3


class PauliOp(enum.IntEnum):
    """The four encoding unitaries, each coded 2*xbit + zbit from its
    (xbit, zbit) symplectic label."""

    I = 0
    X = 2
    IY = 3
    Z = 1

    @property
    def xbit(self) -> int:
        return self >> 1

    @property
    def zbit(self) -> int:
        return self & 1


# P such that (P (x) I)|Psi-> equals the key's Bell state up to phase.
BELL_TO_PAULI = {
    BellLabel.PSI_MINUS: PauliOp.I,
    BellLabel.PSI_PLUS: PauliOp.Z,
    BellLabel.PHI_MINUS: PauliOp.X,
    BellLabel.PHI_PLUS: PauliOp.IY,
}
PAULI_TO_BELL = {p: b for b, p in BELL_TO_PAULI.items()}
BELL_CODES = np.array([BELL_TO_PAULI[label] for label in sorted(BellLabel)])


def compose(a: PauliOp, b: PauliOp) -> PauliOp:
    """Phase-free product of two Paulis (commutative, XOR of labels)."""
    return PauliOp(a ^ b)


def compose_all(ops: Iterable[PauliOp]) -> PauliOp:
    out = PauliOp.I
    for op in ops:
        out = compose(out, op)
    return out


def decode_bell_to_pauli(outcome: BellLabel) -> PauliOp:
    """Which Pauli relates the singlet reference state to `outcome`."""
    return BELL_TO_PAULI[outcome]


def pauli_to_bell(p: PauliOp) -> BellLabel:
    """Bell state reached by applying `p` to one half of the singlet."""
    return PAULI_TO_BELL[p]


def conjugate_by_h(p: PauliOp) -> PauliOp:
    """H P H, mod phase: swaps the x and z bits (HXH=Z, HZH=X, H iY H ~ iY)."""
    return PauliOp(2 * p.zbit + p.xbit)


def swap_rule(
    initial_left: BellLabel, initial_right: BellLabel, measured: BellLabel
) -> BellLabel:
    """Entanglement-swapping outcome table.

    Pairs (1,2) and (3,4) start in `initial_left` and `initial_right`; a
    Bell measurement on photons (2,3) that yields `measured` leaves (1,4)
    in the returned state.  Validated exhaustively against the statevector
    oracle in the test suite.
    """
    p = compose_all(
        (
            decode_bell_to_pauli(initial_left),
            decode_bell_to_pauli(initial_right),
            decode_bell_to_pauli(measured),
        )
    )
    return pauli_to_bell(p)


def expected_parity(p: PauliOp | np.ndarray, basis: Basis | np.ndarray) -> int | np.ndarray:
    """XOR of the two outcomes when both halves of a pair with label `p`
    are measured in `basis`.  The singlet (label I) is anti-correlated in
    both bases; an X shift flips the Z-basis parity, a Z shift the X-basis
    parity.  Takes members or codes, or arrays of Pauli codes and of
    X-mask entries."""
    return 1 ^ (p >> (1 - basis)) & 1


def encode_message(bits: Sequence[int]) -> list[PauliOp]:
    """Map a flat bit string (even length) to Paulis, two bits per symbol:
    00 -> I, 10 -> X, 11 -> iY, 01 -> Z."""
    if len(bits) % 2:
        raise ValueError("message bit string must have even length")
    if any(b not in (0, 1) for b in bits):
        raise ValueError("message bits must be 0 or 1")
    return [PauliOp(2 * bits[i] + bits[i + 1]) for i in range(0, len(bits), 2)]


def decode_message(ops: Sequence[PauliOp] | np.ndarray) -> list[int]:
    """Inverse of encode_message: the bits (xbit, zbit) of each Pauli, of a
    sequence of members or an array of codes."""
    codes = np.asarray(ops, dtype=np.int64)
    return np.stack((codes >> 1, codes & 1), axis=-1).ravel().tolist()


def recover_dealer_pauli(total: PauliOp, agent_ops: Iterable[PauliOp]) -> PauliOp:
    """Strip the agents' announced operations from a Bell-readout total,
    leaving the dealer's encoding Pauli."""
    return compose(total, compose_all(agent_ops))
