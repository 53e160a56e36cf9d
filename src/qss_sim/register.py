"""Minimal statevector engine for polarization photons.

A Register tracks photons as members of independent entangled groups,
each group holding a normalized complex amplitude tensor of shape
(2,)*k.  Factoring the global state this way keeps a protocol run with
thousands of Bell pairs cheap: groups only merge when a Bell measurement
spans two of them, and measurements are destructive, so no group ever
grows past four photons in practice.

All randomness comes from the register's own numpy Generator, so a fixed
seed and a fixed operation sequence reproduce the same outcomes exactly.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .pauli import Basis, BellLabel, PauliOp

_SQ2 = 1.0 / math.sqrt(2.0)

NORM_TOL = 1e-12


class RegisterError(Exception):
    """Base class for statevector engine errors."""


class ConsumedPhotonError(RegisterError):
    """An operation referenced a photon that was already measured."""


class CapacityError(RegisterError):
    """An entangled group would exceed the register's group-size cap."""


class SingleGate(enum.Enum):
    I = "I"
    X = "X"
    IY = "iY"
    Z = "Z"
    H = "H"


class SingleState(enum.Enum):
    ZERO = "0"
    ONE = "1"
    PLUS = "+"
    MINUS = "-"

    @property
    def basis(self) -> Basis:
        return Basis.Z if self in (SingleState.ZERO, SingleState.ONE) else Basis.X

    @property
    def bit(self) -> int:
        return 0 if self in (SingleState.ZERO, SingleState.PLUS) else 1

    @classmethod
    def from_basis_bit(cls, basis: Basis, bit: int) -> "SingleState":
        if basis is Basis.Z:
            return cls.ONE if bit else cls.ZERO
        return cls.MINUS if bit else cls.PLUS


PAULI_GATES = {
    PauliOp.I: SingleGate.I,
    PauliOp.X: SingleGate.X,
    PauliOp.IY: SingleGate.IY,
    PauliOp.Z: SingleGate.Z,
}

GATE_MATRICES = {
    SingleGate.I: np.eye(2, dtype=complex),
    SingleGate.X: np.array([[0, 1], [1, 0]], dtype=complex),
    SingleGate.IY: np.array([[0, 1], [-1, 0]], dtype=complex),
    SingleGate.Z: np.array([[1, 0], [0, -1]], dtype=complex),
    SingleGate.H: np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
}

SINGLE_STATE_VECTORS = {
    SingleState.ZERO: np.array([1, 0], dtype=complex),
    SingleState.ONE: np.array([0, 1], dtype=complex),
    SingleState.PLUS: np.array([_SQ2, _SQ2], dtype=complex),
    SingleState.MINUS: np.array([_SQ2, -_SQ2], dtype=complex),
}

# Amplitude tensors over (photon_a, photon_b), computational ordering.
BELL_TENSORS = {
    BellLabel.PHI_PLUS: np.array([[_SQ2, 0], [0, _SQ2]], dtype=complex),
    BellLabel.PHI_MINUS: np.array([[_SQ2, 0], [0, -_SQ2]], dtype=complex),
    BellLabel.PSI_PLUS: np.array([[0, _SQ2], [_SQ2, 0]], dtype=complex),
    BellLabel.PSI_MINUS: np.array([[0, _SQ2], [-_SQ2, 0]], dtype=complex),
}

# Draw order for Bell measurement outcomes; fixed so seeded runs replay.
BELL_ORDER = (
    BellLabel.PHI_PLUS,
    BellLabel.PHI_MINUS,
    BellLabel.PSI_PLUS,
    BellLabel.PSI_MINUS,
)


class _Group:
    __slots__ = ("photons", "amps")

    def __init__(self, photons: list[int], amps: np.ndarray):
        self.photons = photons
        self.amps = amps


class Register:
    """A set of live photons with Born-rule measurements from a seeded stream."""

    def __init__(
        self,
        rng: np.random.Generator | None = None,
        seed: int | None = None,
        max_group_size: int = 16,
    ):
        if rng is None:
            rng = np.random.default_rng(seed)
        self.rng = rng
        self.max_group_size = max_group_size
        self._groups: dict[int, _Group] = {}
        self._where: dict[int, int] = {}
        self._next_photon = 0
        self._next_group = 0

    # -- bookkeeping ------------------------------------------------------

    @property
    def live_photons(self) -> frozenset[int]:
        return frozenset(self._where)

    def is_live(self, photon: int) -> bool:
        return photon in self._where

    def _require(self, photon: int) -> _Group:
        try:
            return self._groups[self._where[photon]]
        except KeyError:
            raise ConsumedPhotonError(
                f"photon {photon} is not live (never created or already measured)"
            ) from None

    def _new_group(self, photons: list[int], amps: np.ndarray) -> None:
        gid = self._next_group
        self._next_group += 1
        self._groups[gid] = _Group(photons, amps)
        for p in photons:
            self._where[p] = gid

    def _new_photon_ids(self, count: int) -> list[int]:
        ids = list(range(self._next_photon, self._next_photon + count))
        self._next_photon += count
        return ids

    def _check_norm(self, group: _Group) -> None:
        norm2 = float(np.sum(np.abs(group.amps) ** 2))
        if abs(norm2 - 1.0) > NORM_TOL:
            raise RegisterError(f"state norm drifted: |amps|^2 = {norm2!r}")

    def group_norm_sq(self, photon: int) -> float:
        """Squared norm of the amplitude vector holding `photon`."""
        return float(np.sum(np.abs(self._require(photon).amps) ** 2))

    def amplitudes_of(self, photon: int) -> tuple[list[int], np.ndarray]:
        """The entangled group containing `photon`: (photon ids, amplitude
        tensor of shape (2,)*k).  For inspection and tests only."""
        group = self._require(photon)
        return list(group.photons), group.amps.copy()

    # -- preparation ------------------------------------------------------

    def prepare_bell(self, label: BellLabel) -> tuple[int, int]:
        """Create two fresh photons jointly in the named Bell state."""
        a, b = self._new_photon_ids(2)
        self._new_group([a, b], BELL_TENSORS[label].copy())
        return a, b

    def prepare_single(self, state: SingleState) -> int:
        """Create one fresh photon in |0>, |1>, |+> or |->."""
        (p,) = self._new_photon_ids(1)
        self._new_group([p], SINGLE_STATE_VECTORS[state].copy())
        return p

    # -- unitaries --------------------------------------------------------

    def apply_gate(self, photon: int, gate: SingleGate) -> None:
        group = self._require(photon)
        axis = group.photons.index(photon)
        mat = GATE_MATRICES[gate]
        amps = np.tensordot(mat, group.amps, axes=([1], [axis]))
        group.amps = np.moveaxis(amps, 0, axis)
        self._check_norm(group)

    # -- measurements (destructive) ---------------------------------------

    def measure_single(self, photon: int, basis: Basis) -> int:
        """Born-rule single-photon measurement; returns 0/1 (in the X basis
        0 means the '+' outcome).  Consumes the photon."""
        if basis is Basis.X:
            self.apply_gate(photon, SingleGate.H)
        group = self._require(photon)
        axis = group.photons.index(photon)
        p0 = float(np.sum(np.abs(np.take(group.amps, 0, axis=axis)) ** 2))
        outcome = 0 if self.rng.random() < p0 else 1
        prob = p0 if outcome == 0 else 1.0 - p0
        residual = np.take(group.amps, outcome, axis=axis) / math.sqrt(prob)
        self._drop_photons(group, [photon], residual)
        return outcome

    def measure_bell(self, a: int, b: int) -> BellLabel:
        """Joint Bell-basis measurement of two photons.

        Merges entangled groups if needed, draws an outcome by the Born
        rule, and leaves the surviving photons in the correct
        post-measurement state (which is what makes entanglement swapping
        work).  Both photons are consumed."""
        if a == b:
            raise RegisterError("Bell measurement needs two distinct photons")
        ga = self._require(a)
        gb = self._require(b)
        if ga is not gb:
            ga = self._merge(ga, gb)
        ia, ib = ga.photons.index(a), ga.photons.index(b)
        residuals = []
        probs = []
        for label in BELL_ORDER:
            proj = np.conj(BELL_TENSORS[label])
            res = np.tensordot(ga.amps, proj, axes=([ia, ib], [0, 1]))
            residuals.append(res)
            probs.append(float(np.sum(np.abs(res) ** 2)))
        u = self.rng.random()
        acc = 0.0
        pick = len(BELL_ORDER) - 1
        for i, p in enumerate(probs):
            acc += p
            if u < acc:
                pick = i
                break
        label = BELL_ORDER[pick]
        residual = residuals[pick] / math.sqrt(probs[pick])
        self._drop_photons(ga, [a, b], residual)
        return label

    # -- internals --------------------------------------------------------

    def _merge(self, ga: _Group, gb: _Group) -> _Group:
        if len(ga.photons) + len(gb.photons) > self.max_group_size:
            raise CapacityError(
                f"entangled group would exceed {self.max_group_size} photons"
            )
        amps = np.tensordot(ga.amps, gb.amps, axes=0)
        merged = _Group(ga.photons + gb.photons, amps)
        gid_a = self._where[ga.photons[0]]
        gid_b = self._where[gb.photons[0]]
        del self._groups[gid_b]
        self._groups[gid_a] = merged
        for p in merged.photons:
            self._where[p] = gid_a
        return merged

    def _drop_photons(
        self, group: _Group, consumed: list[int], residual: np.ndarray
    ) -> None:
        gid = self._where[consumed[0]]
        for p in consumed:
            del self._where[p]
        survivors = [p for p in group.photons if p not in consumed]
        if not survivors:
            del self._groups[gid]
            return
        group.photons = survivors
        group.amps = residual
        self._check_norm(group)
