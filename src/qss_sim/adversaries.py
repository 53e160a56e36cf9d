"""Channel adversaries.

Three kinds are supported:

* ``none`` -- honest channel.
* ``eve_intercept_resend`` -- an outside eavesdropper attached to one
  quantum transmission; measures every in-transit photon in a policy
  basis and forwards a fresh photon in the observed eigenstate.
* ``bob_swap_attack`` -- the dishonest first agent: keeps the genuine
  photons he should forward, substitutes halves of his own Bell pairs,
  and uses entanglement swapping at announcement time to fake every
  correlation check he has an announcement slot for.

One class, ``SwapAttack``, runs that playbook against both protocols:
the same fake pairs, swap correction and publications, with the chain's
honest sample photons as the one difference.  ``SwapAttackOriginal`` and
``SwapAttackImproved``, the names of the two classes it replaced, are
bound to it because the benchmark's tracer still finds the attacker's
methods under them.

Adversary objects only ever see what a real attacker would: photons that
pass through their hands, the shared register, and the positions the
protocol announces, which it passes to their methods.  They are never
handed the transcript or any other party's private state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .pauli import BELL_CODES, Basis, BellLabel, PauliOp
from .register import Register, SingleGate

PAULI_ORDER = (PauliOp.I, PauliOp.X, PauliOp.IY, PauliOp.Z)
# The code of the Pauli that a draw k of rng.integers(4) picks.
_DRAW_CODES = np.array(PAULI_ORDER)

VALID_KINDS = ("none", "eve_intercept_resend", "bob_swap_attack")
VALID_POLICIES = ("uniform", "fixed-Z", "fixed-X")


@dataclass(frozen=True)
class AdversarySpec:
    """Which adversary to run and where it attaches.

    ``hop`` names the targeted quantum transmission for Eve (see the
    protocol engine for hop names); the swap attack always sits at the
    first agent and ignores it.  ``publish_true_ops`` controls whether
    the dishonest agent reveals his real substitute-pair operations at
    collaboration time."""

    kind: str = field(default="none", metadata={"choices": VALID_KINDS})
    hop: str | None = None
    basis_policy: str = field(default="uniform", metadata={"choices": VALID_POLICIES})
    publish_true_ops: bool = True

    def __post_init__(self):
        if self.kind not in VALID_KINDS:
            raise ValueError(f"unknown adversary kind {self.kind!r}")
        if self.basis_policy not in VALID_POLICIES:
            raise ValueError(f"unknown basis policy {self.basis_policy!r}")
        if self.kind == "eve_intercept_resend" and self.hop is None:
            raise ValueError("eve_intercept_resend needs a target hop")


def random_pauli(rng: np.random.Generator) -> PauliOp:
    return PAULI_ORDER[int(rng.integers(4))]


def _random_paulis(rng: np.random.Generator, count: int) -> np.ndarray:
    """`count` uniform Pauli codes: the same draws as `count` random_pauli
    calls."""
    return _DRAW_CODES[rng.integers(4, size=count)]


class EveInterceptResend:
    """Measure-and-resend eavesdropper on a single hop."""

    def __init__(self, register: Register, rng: np.random.Generator, spec: AdversarySpec):
        self.register = register
        self.rng = rng
        self.hop = spec.hop
        self.policy = spec.basis_policy
        self._observed: list[tuple[Basis, int]] = []
        # The X-basis mask and outcomes of each sequence intercepted since
        # `observations` was last read.
        self._pending: list[tuple[np.ndarray, np.ndarray]] = []

    @property
    def observations(self) -> list[tuple[Basis, int]]:
        """(basis, outcome) of every photon measured so far, in order."""
        for in_x, outcomes in self._pending:
            self._observed += zip(map(Basis, in_x.tolist()), outcomes.tolist())
        self._pending.clear()
        return self._observed

    def _pick_bases(self, count: int) -> np.ndarray:
        """X-basis mask of `count` policy bases."""
        if self.policy == "fixed-Z":
            return np.zeros(count, dtype=bool)
        if self.policy == "fixed-X":
            return np.ones(count, dtype=bool)
        return self.rng.random(count) >= 0.5

    def intercept_sequence(self, photons: np.ndarray) -> np.ndarray:
        """Measure every photon in a policy basis, in order, and return
        fresh photons in the observed eigenstates."""
        in_x = self._pick_bases(len(photons))
        outcomes = self.register.measure_singles(photons, in_x)
        self._pending.append((in_x, outcomes))
        # State code 2*(basis is X) + bit.
        return self.register.prepare_singles(2 * in_x + outcomes)


def _fake_pairs(
    register: Register, rng: np.random.Generator, count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`count` fresh singlets, the forwarded half of each shifted by a
    uniformly random Pauli: the kept halves, the forwarded halves and the
    Pauli codes."""
    kept, forwarded = register.prepare_bells(count, BellLabel.PSI_MINUS)
    ops = _random_paulis(rng, count)
    register.apply_gates(forwarded, ops)
    return kept, forwarded, ops


def _scatter(size: int, positions: np.ndarray, values: np.ndarray) -> np.ndarray:
    """A position-indexed array holding `values` at `positions` and -1
    elsewhere."""
    out = np.full(size, -1, dtype=np.int64)
    out[positions] = values
    return out


class SwapAttack:
    """The dishonest first agent Bob, in either protocol.

    He plays one intercept-resend and entanglement-swapping playbook.  He
    keeps the genuine photons he should forward and sends halves of his
    own singlets instead, each shifted by a random Pauli (the fake
    pairs).  When the positions of a check that he publishes for are
    announced, he Bell-measures the genuine photons against his kept
    fake halves and announces the Pauli that makes the check pass (the
    swap correction).  In the original protocol this fools both checks
    after his hop, and he finally intercepts the dealer's encoded
    sequence to read her Paulis outright.  In the chain he forwards his
    own sample photons honestly, so his hop's check passes; the dealer's
    own Hadamard-and-Bell verification gives him no announcement to
    correct, so he can only publish his fake Paulis there, and the
    unentangled sample photons betray him.

    Photon sequences are position-indexed photon-id arrays, positions are
    sorted, and Paulis are codes (see `pauli`); -1 marks a position with
    no such entry."""

    def __init__(self, register: Register, rng: np.random.Generator, spec: AdversarySpec):
        self.register = register
        self.rng = rng
        self.publish_true_ops = spec.publish_true_ops
        self.kept = np.zeros(0, dtype=np.int64)       # genuine photon per position
        self.fake_kept = np.zeros(0, dtype=np.int64)  # retained fake half
        self.fake_op = np.zeros(0, dtype=np.int64)    # Pauli on the forwarded half
        self.inferred = np.zeros(0, dtype=np.int64)   # dealer Pauli per position

    def forward(
        self, positions: np.ndarray, photons: np.ndarray, honest: np.ndarray | None = None
    ) -> np.ndarray:
        """Keep the genuine photon at each of `positions` and forward a
        fake-pair half in its place, except at the `honest` positions,
        some of `positions`, whose photons he Hadamard-rotates and
        forwards as an honest chain agent would."""
        swapped = positions
        if honest is not None:
            self.register.apply_gates(photons[honest], np.full(len(honest), SingleGate.H))
            is_honest = np.zeros(len(photons), dtype=bool)
            is_honest[honest] = True
            swapped = positions[~is_honest[positions]]
        size = len(photons)
        self.kept = _scatter(size, swapped, photons[swapped])
        kept, forwarded, ops = _fake_pairs(self.register, self.rng, len(swapped))
        self.fake_kept = _scatter(size, swapped, kept)
        self.fake_op = _scatter(size, swapped, ops)
        out = photons.copy()
        out[swapped] = forwarded
        return out

    def swap_correct(self, positions: np.ndarray) -> np.ndarray:
        """Entanglement-swap each announced check position and announce
        the Pauli that makes the dealer's pair pass the check."""
        outcomes = self.register.measure_bells(self.kept[positions], self.fake_kept[positions])
        return BELL_CODES[outcomes] ^ self.fake_op[positions]

    def fake_ops(self, positions: np.ndarray) -> np.ndarray:
        """The truthful Paulis of his fake pairs, which he publishes for a
        check he cannot swap-correct: the original protocol's final
        sample check, whose arithmetic they satisfy, and the chain's
        step-6 verification, which they do not."""
        return self.fake_op[positions]

    def publish_final(self, positions: np.ndarray) -> np.ndarray:
        """Operations published at collaboration time.  Truthful if Bob
        wants the reader to decode correctly, uniformly random
        otherwise."""
        if self.publish_true_ops:
            return self.fake_op[positions]
        return _random_paulis(self.rng, len(positions))

    def intercept_dealer(self, positions: np.ndarray, photons: np.ndarray) -> np.ndarray:
        """Bell-measure each intercepted dealer photon against the kept
        genuine partner, record the dealer's Pauli, re-apply it to the
        kept fake half, and forward that instead."""
        outcomes = self.register.measure_bells(photons[positions], self.kept[positions])
        ops = BELL_CODES[outcomes]
        self.inferred = _scatter(len(photons), positions, ops)
        kept = self.fake_kept[positions]
        self.register.apply_gates(kept, ops)
        return _scatter(len(photons), positions, kept)


# The names of the two classes SwapAttack replaced.  Only bench/tracer.py
# reads them: it finds the attacker's methods by class name, wraps them
# once per name, and counts each call once.
SwapAttackOriginal = SwapAttackImproved = SwapAttack
