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

    def intercept(self, photon: int) -> int:
        return int(self.intercept_sequence([photon])[0])

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


class SwapAttackOriginal:
    """The dishonest agent Bob in the original three-party protocol.

    After passing the first check honestly, Bob keeps the genuine
    partner sequence, forwards halves of freshly prepared singlets
    instead, swaps entanglement onto announced check positions so the
    second check sees perfect Bell correlations, and finally intercepts
    the dealer's encoded sequence to read her Paulis outright.

    Photon sequences are position-indexed photon-id arrays, and Paulis
    are codes (see `pauli`); -1 marks a position with no such entry."""

    def __init__(self, register: Register, rng: np.random.Generator, spec: AdversarySpec):
        self.register = register
        self.rng = rng
        self.publish_true_ops = spec.publish_true_ops
        self.kept_partner = np.zeros(0, dtype=np.int64)  # genuine photon per position
        self.fake_kept = np.zeros(0, dtype=np.int64)     # retained fake half
        self.fake_op = np.zeros(0, dtype=np.int64)       # Pauli on the forwarded half
        self.inferred = np.zeros(0, dtype=np.int64)      # dealer Pauli per position

    def on_send_to_third_party(
        self, positions: np.ndarray, partner_photons: np.ndarray
    ) -> np.ndarray:
        """Replace the sequence bound for the third party with fake-pair
        halves, one per surviving position; keep everything else."""
        size = len(partner_photons)
        self.kept_partner = _scatter(size, positions, partner_photons[positions])
        kept, forwarded, ops = _fake_pairs(self.register, self.rng, len(positions))
        self.fake_kept = _scatter(size, positions, kept)
        self.fake_op = _scatter(size, positions, ops)
        return _scatter(size, positions, forwarded)

    def on_check_positions_announced(self, positions: np.ndarray) -> np.ndarray:
        """Entanglement-swap each announced position and announce the
        Pauli that makes the dealer/third-party pair pass the check."""
        order = np.sort(positions)
        outcomes = self.register.measure_bells(
            self.kept_partner[order], self.fake_kept[order]
        )
        return BELL_CODES[outcomes] ^ self.fake_op[order]

    def on_intercept_dealer_sequence(
        self, positions: np.ndarray, dealer_photons: np.ndarray
    ) -> np.ndarray:
        """Bell-measure each intercepted photon against the retained
        genuine partner, record the dealer's Pauli, re-apply it to the
        kept fake half, and forward that instead."""
        outcomes = self.register.measure_bells(
            dealer_photons[positions], self.kept_partner[positions]
        )
        ops = BELL_CODES[outcomes]
        self.inferred = _scatter(len(dealer_photons), positions, ops)
        kept = self.fake_kept[positions]
        self.register.apply_gates(kept, ops)
        return _scatter(len(dealer_photons), positions, kept)

    def check_op(self, positions: np.ndarray) -> np.ndarray:
        """Operations published for the dealer's final sample check.  The
        substitute-pair Paulis make the check arithmetic work out, so the
        truthful values are always announced here."""
        return self.fake_op[positions]

    def published_op(self, positions: np.ndarray) -> np.ndarray:
        """Operations published at collaboration time.  Truthful if Bob
        wants the third party to decode correctly, uniformly random
        otherwise."""
        if self.publish_true_ops:
            return self.fake_op[positions]
        return _random_paulis(self.rng, len(positions))


class SwapAttackImproved:
    """The same attacker strategy run by the first agent of the improved
    protocol chain.

    He forwards genuine (Hadamard-rotated) photons at his own sample
    positions, so the check of his hop passes, and fake-pair halves
    everywhere else.  At later hop checks he has an announcement slot
    and swap-corrects exactly as in the original attack; at the dealer's
    final Hadamard verification he does not, and the unentangled sample
    photons betray him.

    The publish methods take sorted positions and return one Pauli code
    per position."""

    def __init__(self, register: Register, rng: np.random.Generator, spec: AdversarySpec):
        self.register = register
        self.rng = rng
        self.publish_true_ops = spec.publish_true_ops
        self.kept_travel = np.zeros(0, dtype=np.int64)
        self.fake_kept = np.zeros(0, dtype=np.int64)
        self.fake_op = np.zeros(0, dtype=np.int64)

    def on_forward(
        self,
        positions: np.ndarray,
        travel_photons: np.ndarray,
        own_samples: np.ndarray,
    ) -> np.ndarray:
        size = len(travel_photons)
        is_sample = np.zeros(size, dtype=bool)
        is_sample[own_samples] = True
        sampled = is_sample[positions]
        # Behave honestly where the next check will look.
        honest = travel_photons[positions[sampled]]
        self.register.apply_gates(honest, np.full(len(honest), SingleGate.H))
        swapped = positions[~sampled]
        self.kept_travel = _scatter(size, swapped, travel_photons[swapped])
        kept, forwarded, ops = _fake_pairs(self.register, self.rng, len(swapped))
        self.fake_kept = _scatter(size, swapped, kept)
        self.fake_op = _scatter(size, swapped, ops)
        out = travel_photons.copy()
        out[swapped] = forwarded
        return out

    def publish_for_hop_check(self, positions: np.ndarray) -> np.ndarray:
        """Swap-correct the announced mid-chain check positions."""
        outcomes = self.register.measure_bells(
            self.kept_travel[positions], self.fake_kept[positions]
        )
        return BELL_CODES[outcomes] ^ self.fake_op[positions]

    def publish_for_step6(self, positions: np.ndarray) -> np.ndarray:
        """No swap here: the original playbook has no correction move for
        the dealer's own Hadamard-and-Bell verification."""
        return self.fake_op[positions]

    def publish_final(self, positions: np.ndarray) -> np.ndarray:
        if self.publish_true_ops:
            return self.fake_op[positions]
        return _random_paulis(self.rng, len(positions))
