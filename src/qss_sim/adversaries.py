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
pass through their hands, the shared register, and the public
transcript.  They are handed no other party's private state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import Basis, BellLabel, PauliOp, compose, decode_bell_to_pauli
from .register import PAULI_GATES, Register, SingleGate, SingleState

PAULI_ORDER = (PauliOp.I, PauliOp.X, PauliOp.IY, PauliOp.Z)

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

    kind: str = "none"
    hop: str | None = None
    basis_policy: str = "uniform"
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


def _random_paulis(rng: np.random.Generator, count: int) -> list[PauliOp]:
    """`count` uniform Paulis: the same draws as `count` random_pauli calls."""
    return [PAULI_ORDER[k] for k in rng.integers(4, size=count).tolist()]


class EveInterceptResend:
    """Measure-and-resend eavesdropper on a single hop."""

    def __init__(self, register: Register, rng: np.random.Generator, spec: AdversarySpec):
        self.register = register
        self.rng = rng
        self.hop = spec.hop
        self.policy = spec.basis_policy
        self.observations: list[tuple[Basis, int]] = []

    def _pick_bases(self, count: int) -> list[Basis]:
        if self.policy == "fixed-Z":
            return [Basis.Z] * count
        if self.policy == "fixed-X":
            return [Basis.X] * count
        return [Basis.Z if z else Basis.X for z in (self.rng.random(count) < 0.5).tolist()]

    def intercept(self, photon: int) -> int:
        return self.intercept_sequence([photon])[0]

    def intercept_sequence(self, photons: list[int]) -> list[int]:
        """Measure every photon in a policy basis, in order, and return
        fresh photons in the observed eigenstates."""
        bases = self._pick_bases(len(photons))
        outcomes = self.register.measure_singles(photons, bases)
        self.observations.extend(zip(bases, outcomes))
        return self.register.prepare_singles(
            [SingleState.from_basis_bit(b, bit) for b, bit in zip(bases, outcomes)]
        )


@dataclass
class _FakePair:
    kept: int            # attacker-retained half
    forwarded: int       # half sent down the line
    op: PauliOp          # Pauli the attacker applied to the forwarded half


def _fake_pairs(
    register: Register, rng: np.random.Generator, positions: list[int]
) -> dict[int, _FakePair]:
    """One fresh singlet per position, its forwarded half shifted by a
    uniformly random Pauli."""
    kept, forwarded = register.prepare_bells(len(positions), BellLabel.PSI_MINUS)
    ops = _random_paulis(rng, len(positions))
    register.apply_gates(forwarded, [PAULI_GATES[op] for op in ops])
    return {
        pos: _FakePair(k, f, op) for pos, k, f, op in zip(positions, kept, forwarded, ops)
    }


class SwapAttackOriginal:
    """The dishonest agent Bob in the original three-party protocol.

    After passing the first check honestly, Bob keeps the genuine
    partner sequence, forwards halves of freshly prepared singlets
    instead, swaps entanglement onto announced check positions so the
    second check sees perfect Bell correlations, and finally intercepts
    the dealer's encoded sequence to read her Paulis outright."""

    def __init__(self, register: Register, rng: np.random.Generator, spec: AdversarySpec):
        self.register = register
        self.rng = rng
        self.publish_true_ops = spec.publish_true_ops
        self.kept_partner: dict[int, int] = {}     # position -> genuine photon
        self.fakes: dict[int, _FakePair] = {}
        self.inferred: dict[int, PauliOp] = {}     # dealer Pauli per position

    def on_send_to_third_party(self, partner_photons: dict[int, int]) -> dict[int, int]:
        """Replace the sequence bound for the third party with fake-pair
        halves, one per surviving position; keep everything else."""
        self.kept_partner = dict(partner_photons)
        order = sorted(partner_photons)
        self.fakes.update(_fake_pairs(self.register, self.rng, order))
        return {pos: self.fakes[pos].forwarded for pos in order}

    def on_check_positions_announced(self, positions: list[int]) -> dict[int, PauliOp]:
        """Entanglement-swap each announced position and announce the
        Pauli that makes the dealer/third-party pair pass the check."""
        order = sorted(positions)
        outcomes = self.register.measure_bells(
            [self.kept_partner.pop(pos) for pos in order],
            [self.fakes[pos].kept for pos in order],
        )
        return {
            pos: compose(decode_bell_to_pauli(outcome), self.fakes[pos].op)
            for pos, outcome in zip(order, outcomes)
        }

    def on_intercept_dealer_sequence(self, dealer_photons: dict[int, int]) -> dict[int, int]:
        """Bell-measure each intercepted photon against the retained
        genuine partner, record the dealer's Pauli, re-apply it to the
        kept fake half, and forward that instead."""
        order = sorted(dealer_photons)
        outcomes = self.register.measure_bells(
            [dealer_photons[pos] for pos in order],
            [self.kept_partner.pop(pos) for pos in order],
        )
        ops = [decode_bell_to_pauli(outcome) for outcome in outcomes]
        self.inferred.update(zip(order, ops))
        kept = [self.fakes[pos].kept for pos in order]
        self.register.apply_gates(kept, [PAULI_GATES[op] for op in ops])
        return dict(zip(order, kept))

    def check_op(self, pos: int) -> PauliOp:
        """Operation published for the dealer's final sample check.  The
        substitute-pair Pauli makes the check arithmetic work out, so the
        truthful value is always announced here."""
        return self.fakes[pos].op

    def published_op(self, pos: int) -> PauliOp:
        """Operation published at collaboration time.  Truthful if Bob
        wants the third party to decode correctly, uniformly random
        otherwise."""
        if self.publish_true_ops:
            return self.fakes[pos].op
        return random_pauli(self.rng)


class SwapAttackImproved:
    """The same attacker strategy run by the first agent of the improved
    protocol chain.

    He forwards genuine (Hadamard-rotated) photons at his own sample
    positions, so the check of his hop passes, and fake-pair halves
    everywhere else.  At later hop checks he has an announcement slot
    and swap-corrects exactly as in the original attack; at the dealer's
    final Hadamard verification he does not, and the unentangled sample
    photons betray him."""

    def __init__(self, register: Register, rng: np.random.Generator, spec: AdversarySpec):
        self.register = register
        self.rng = rng
        self.publish_true_ops = spec.publish_true_ops
        self.kept_travel: dict[int, int] = {}
        self.fakes: dict[int, _FakePair] = {}

    def on_forward(
        self,
        travel_photons: dict[int, int],
        own_samples: list[int],
    ) -> dict[int, int]:
        samples = set(own_samples)
        order = sorted(travel_photons)
        # Behave honestly where the next check will look.
        honest = [travel_photons[pos] for pos in order if pos in samples]
        self.register.apply_gates(honest, [SingleGate.H] * len(honest))
        swapped = [pos for pos in order if pos not in samples]
        self.kept_travel.update((pos, travel_photons[pos]) for pos in swapped)
        self.fakes.update(_fake_pairs(self.register, self.rng, swapped))
        return {
            pos: travel_photons[pos] if pos in samples else self.fakes[pos].forwarded
            for pos in order
        }

    def publish_for_hop_check(self, pos: int) -> PauliOp:
        """Swap-correct an announced mid-chain check position."""
        fake = self.fakes[pos]
        outcome = self.register.measure_bell(self.kept_travel.pop(pos), fake.kept)
        return compose(decode_bell_to_pauli(outcome), fake.op)

    def publish_for_step6(self, pos: int) -> PauliOp:
        """No swap here: the original playbook has no correction move for
        the dealer's own Hadamard-and-Bell verification."""
        return self.fakes[pos].op

    def publish_final(self, pos: int) -> PauliOp:
        if self.publish_true_ops:
            return self.fakes[pos].op
        return random_pauli(self.rng)
