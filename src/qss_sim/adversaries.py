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
honest sample photons as the one difference.  The protocol asks it what
it asks an honest first agent, and nothing else: ``forward`` the photons
he should pass on, ``publish`` his operations on announced positions for
a check of a given kind, and ``intercept_dealer`` the dealer's encoded
sequence.  Which publication the attacker makes at which check is
decided in ``SwapAttack.publish`` alone.  ``SwapAttackOriginal`` and
``SwapAttackImproved``, the names of the two classes it replaced, are
bound to it because the benchmark's tracer still finds the attacker's
methods under them.

Adversary objects only ever see what a real attacker would: photons that
pass through their hands, the shared register, and the positions the
protocol announces, which it passes to their methods.  They are never
handed the transcript or any other party's private state, and they keep
no record of their own: Eve returns what she read with the photons she
resends, and the run's transcript is its one record.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .pauli import BELL_CODES, BellLabel, PauliOp
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
    collaboration time.  A spec checks itself when it is made:
    ``protocol.check_fields`` checks each field against its declaration,
    and Eve needs a hop; both raise ConfigError."""

    kind: str = field(default="none", metadata={"choices": VALID_KINDS})
    hop: str | None = None
    basis_policy: str = field(default="uniform", metadata={"choices": VALID_POLICIES})
    publish_true_ops: bool = True

    def __post_init__(self):
        from .protocol import ConfigError, check_fields  # protocol imports this module

        check_fields(self)
        if self.kind == "eve_intercept_resend" and self.hop is None:
            raise ConfigError("eve_intercept_resend needs a target hop")


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

    def _pick_bases(self, count: int) -> np.ndarray:
        """X-basis mask of `count` policy bases."""
        if self.policy == "fixed-Z":
            return np.zeros(count, dtype=bool)
        if self.policy == "fixed-X":
            return np.ones(count, dtype=bool)
        return self.rng.random(count) >= 0.5

    def intercept_sequence(self, photons: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Measure every photon in a policy basis, in order.  Returns the
        fresh photons she resends in the observed eigenstates, and what
        she read: the X-basis mask and the outcomes."""
        in_x = self._pick_bases(len(photons))
        outcomes = self.register.measure_singles(photons, in_x)
        # State code 2*(basis is X) + bit.
        return self.register.prepare_singles(2 * in_x + outcomes), in_x, outcomes


def _scatter(
    size: int, positions: np.ndarray, values: np.ndarray | bool, fill: int | bool = -1
) -> np.ndarray:
    """An array over range(size) holding `values` at `positions` and `fill`
    elsewhere: -1 for "no entry", ``PauliOp.I`` for "no operation" (both
    int64), or False for a bool mask.  Every array over positions that
    is filled at some of them is built here."""
    out = np.zeros(size, dtype=bool if fill is False else np.int64)
    if fill:
        out.fill(fill)
    out[positions] = values
    return out


class SwapAttack:
    """The dishonest first agent Bob, in either protocol.

    He plays one intercept-resend and entanglement-swapping playbook.  He
    keeps the genuine photons he should forward and sends halves of his
    own singlets instead, each shifted by a random Pauli (the fake
    pairs).  When the positions of a hop's Z/X check are announced, he
    Bell-measures the genuine photons against his kept fake halves and
    announces the Pauli that makes the check pass (the swap correction).
    In the original protocol this fools both checks after his hop, and
    he finally intercepts the dealer's encoded sequence to read her
    Paulis outright.  In the chain he forwards his own sample photons
    honestly, so his hop's check passes; the dealer's own
    Hadamard-and-Bell verification gives him no announcement to correct,
    so he can only publish his fake Paulis there, and the unentangled
    sample photons betray him.  He answers the calls an honest agent
    answers (``forward``, ``publish``, ``intercept_dealer``), and
    `publish` alone picks his announcement from the check's kind.

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

    def forward(self, positions: np.ndarray, photons: np.ndarray, honest: np.ndarray) -> np.ndarray:
        """Keep the genuine photon at each of `positions` and forward a
        fake-pair half in its place.  The photons at the `honest`
        positions, none of `positions` (his chain sample; empty in the
        original protocol), he Hadamard-rotates and forwards as an honest
        chain agent would.  The fake pairs are singlets whose
        forwarded halves he shifts by uniformly random Paulis; that shift
        and the rotation are one register call, as their rows are
        distinct."""
        kept, forwarded = self.register.prepare_bells(len(positions), BellLabel.PSI_MINUS)
        ops = _random_paulis(self.rng, len(positions))
        rotated = photons[honest]
        gates = np.concatenate((np.full(len(rotated), SingleGate.H), ops))
        self.register.apply_gates(np.concatenate((rotated, forwarded)), gates)
        size = len(photons)
        self.kept = _scatter(size, positions, photons[positions])
        self.fake_kept = _scatter(size, positions, kept)
        self.fake_op = _scatter(size, positions, ops)
        out = photons.copy()
        out[positions] = forwarded
        return out

    def publish(self, positions: np.ndarray, kind: str) -> np.ndarray:
        """The Paulis he announces on the sorted `positions` for a check of
        `kind`, a plan row's kind, or ``"collaboration"``.  A hop's Z/X
        check (``zx``) he swap-corrects: he Bell-measures each genuine
        photon against its kept fake half and announces the Pauli that
        makes the dealer's pair pass.  At collaboration he announces
        uniformly random Paulis unless he wants the reader to decode
        correctly.  Everywhere else he announces his fake pairs' true
        Paulis: they satisfy the original protocol's final sample check,
        but not the chain's step-6 verification, which he cannot
        correct."""
        if kind == "zx":
            outcomes = self.register.measure_bells(self.kept[positions], self.fake_kept[positions])
            return BELL_CODES[outcomes] ^ self.fake_op[positions]
        if kind == "collaboration" and not self.publish_true_ops:
            return _random_paulis(self.rng, len(positions))
        return self.fake_op[positions]

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
