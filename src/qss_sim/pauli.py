"""Phase-free Pauli algebra over 2-bit symplectic labels.

Every single-photon operation used as a message symbol is one of
I, X, iY, Z.  Tracked mod global phase, each is its own inverse and
composition is bitwise XOR on the (xbit, zbit) label.  This module is the
message codec and the deterministic bookkeeping oracle for every
Hadamard-free circuit in the protocols: which Bell state a pair occupies
only ever shifts by the XOR of the Paulis applied to either photon.

The protocol pipeline holds Paulis as integer codes, ``code = 2*xbit +
zbit``, so that composing two of them is one XOR of their codes:

    code  0  1  2  3
    Pauli I  Z  X  iY

``PAULI_BY_CODE`` maps a code back to its ``PauliOp``.  A Bell
measurement reports the index of its outcome in ``BELL_ORDER``;
``BELL_CODES`` gives the code of the Pauli that outcome decodes to
(``decode_bell_to_pauli``):

    index    0     1     2     3
    outcome  phi+  phi-  psi+  psi-
    code     3     2     1     0

Bell-basis convention (fixed so tests are bit-exact):

    Phi+- = (|00> +- |11>)/sqrt(2)
    Psi+- = (|01> +- |10>)/sqrt(2)

The reference state for decoding is the singlet Psi-.
"""

from __future__ import annotations

import enum
from typing import Iterable, Sequence

import numpy as np


class Basis(enum.Enum):
    Z = "Z"
    X = "X"


class BellLabel(enum.Enum):
    PHI_PLUS = "phi+"
    PHI_MINUS = "phi-"
    PSI_PLUS = "psi+"
    PSI_MINUS = "psi-"


class PauliOp(enum.Enum):
    """The four encoding unitaries, as (xbit, zbit) symplectic labels."""

    I = (0, 0)
    X = (1, 0)
    IY = (1, 1)
    Z = (0, 1)

    @property
    def xbit(self) -> int:
        return self.value[0]

    @property
    def zbit(self) -> int:
        return self.value[1]

    @property
    def bits(self) -> tuple[int, int]:
        return self.value

    @property
    def code(self) -> int:
        """The 2-bit code 2*xbit + zbit."""
        return 2 * self.value[0] + self.value[1]

    @classmethod
    def from_bits(cls, xbit: int, zbit: int) -> "PauliOp":
        return _BITS_TO_PAULI[(xbit, zbit)]


_BITS_TO_PAULI = {p.value: p for p in PauliOp}

# P such that (P (x) I)|Psi-> equals the key's Bell state up to phase.
BELL_TO_PAULI = {
    BellLabel.PSI_MINUS: PauliOp.I,
    BellLabel.PSI_PLUS: PauliOp.Z,
    BellLabel.PHI_MINUS: PauliOp.X,
    BellLabel.PHI_PLUS: PauliOp.IY,
}
PAULI_TO_BELL = {p: b for b, p in BELL_TO_PAULI.items()}

PAULI_BY_CODE = tuple(sorted(PauliOp, key=lambda p: p.code))

# Draw order for Bell measurement outcomes; fixed so seeded runs replay.
BELL_ORDER = (
    BellLabel.PHI_PLUS,
    BellLabel.PHI_MINUS,
    BellLabel.PSI_PLUS,
    BellLabel.PSI_MINUS,
)
BELL_CODES = np.array([BELL_TO_PAULI[label].code for label in BELL_ORDER])


def compose(a: PauliOp, b: PauliOp) -> PauliOp:
    """Phase-free product of two Paulis (commutative, XOR of labels)."""
    return PauliOp.from_bits(a.xbit ^ b.xbit, a.zbit ^ b.zbit)


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
    return PauliOp.from_bits(p.zbit, p.xbit)


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


def expected_parity(p: PauliOp, basis: Basis) -> int:
    """XOR of the two outcomes when both halves of a pair with label `p`
    are measured in `basis`.  The singlet (label I) is anti-correlated in
    both bases; an X shift flips the Z-basis parity, a Z shift the X-basis
    parity."""
    if basis is Basis.Z:
        return 1 ^ p.xbit
    return 1 ^ p.zbit


def encode_message(bits: Sequence[int]) -> list[PauliOp]:
    """Map a flat bit string (even length) to Paulis, two bits per symbol:
    00 -> I, 10 -> X, 11 -> iY, 01 -> Z."""
    if len(bits) % 2:
        raise ValueError("message bit string must have even length")
    if any(b not in (0, 1) for b in bits):
        raise ValueError("message bits must be 0 or 1")
    return [
        PauliOp.from_bits(bits[i], bits[i + 1]) for i in range(0, len(bits), 2)
    ]


def decode_message(ops: Sequence[PauliOp]) -> list[int]:
    """Inverse of encode_message."""
    bits: list[int] = []
    for op in ops:
        bits.extend(op.bits)
    return bits


def recover_dealer_pauli(total: PauliOp, agent_ops: Iterable[PauliOp]) -> PauliOp:
    """Strip the agents' announced operations from a Bell-readout total,
    leaving the dealer's encoding Pauli."""
    return compose(total, compose_all(agent_ops))
