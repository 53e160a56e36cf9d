"""Protocol orchestration for EPR-pair secret splitting.

Two modes are implemented over the same statevector register,
transcript, and adversary seams:

* ``original`` -- the three-party protocol: the first agent prepares the
  singlet pairs, two Z/X correlation checks guard the transmissions, the
  dealer encodes her message with the four Paulis, and the third party
  reads the combined operations out with Bell measurements.
* ``improved`` -- the M-agent chain: the dealer prepares the pairs, each
  chain agent Hadamard-rotates fresh sample photons and Pauli-encrypts
  the rest, the dealer verifies the returned sequence with her own
  Hadamard-and-Bell check, and the final transmissions to the last agent
  are protected by four-state checking photons at secret positions.

Each mode is a short step function over one per-trial runner, ``_Run``,
which owns the streams, register, adversaries and transcript and the
steps both modes share (pair preparation, transmission, sample draws,
Pauli encryption, Bell readout, collaboration).  The check phases
``zx_check``, ``decoy_round`` and ``verify_step6`` are module-level
functions of the run, and each run looks them up here at call time, so
per-phase timing can wrap them by name.  Every check ends in
``_Run.settle``, the one place that builds a check report, records it,
retires the sampled positions and ends the run on an abort verdict;
``_Run.execute`` builds the one RunReport.  The dishonest first agent is
one ``SwapAttack`` in both modes.

A run is fully deterministic given (config, master seed): every random
choice comes from a stream spawned from the master seed in a fixed
order, so identical configs replay byte-identical transcripts.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .adversaries import AdversarySpec, EveInterceptResend, SwapAttack, _random_paulis
from .pauli import BELL_CODES, Basis, BellLabel, PauliOp, decode_message, expected_parity
from .register import MAX_PHOTONS, Register, SingleGate


class ConfigError(ValueError):
    """A scenario or batch configuration is unusable."""


# ---------------------------------------------------------------------------
# configuration and reports

PROTOCOLS = ("original", "improved")


@dataclass(frozen=True)
class ScenarioConfig:
    protocol: str = field(default="original", metadata={"choices": PROTOCOLS})
    n_pairs: int = 64
    master_seed: int = 0
    agent_count: int = 2
    sample_fraction: float = 0.25
    step6_sample_count: int | None = None
    checking_photon_count: int = 8
    error_threshold: float = 0.0
    adversary: AdversarySpec = field(default_factory=AdversarySpec)

    def to_dict(self) -> dict[str, Any]:
        # `dataclasses.asdict`, in field order, without its recursive deep
        # copy: every field but `adversary` is a scalar, and so is each of
        # its fields.  Every trial line carries this dict.
        return {**vars(self), "adversary": dict(vars(self.adversary))}


@dataclass
class CheckReport:
    check_id: str
    samples: int
    mismatches: int
    threshold: float

    @property
    def error_rate(self) -> float:
        if self.samples == 0:
            return 0.0
        return self.mismatches / self.samples

    @property
    def verdict(self) -> str:
        # Empty-sample checks pass vacuously.
        return "pass" if self.error_rate <= self.threshold else "abort"

    def to_dict(self) -> dict[str, Any]:
        return {
            "check_id": self.check_id,
            "samples": self.samples,
            "mismatches": self.mismatches,
            "error_rate": self.error_rate,
            "verdict": self.verdict,
        }


class _Deferred:
    """A value built on first read, as ``build(*args)``.  The arguments
    are arrays and strings, so a deferred value holds no register, rng or
    runner; its arrays are made read-only, so no later step can change
    what a read builds."""

    __slots__ = ("build", "args")

    def __init__(self, build, *args: Any) -> None:
        for arg in args:
            if isinstance(arg, np.ndarray):
                arg.flags.writeable = False
        self.build = build
        self.args = args

    def __call__(self) -> Any:
        return self.build(*self.args)


class Transcript:
    """Append-only record of a run: the public classical announcements,
    in order, and among them the private events, marked ``"private":
    True``, that record what no party announces (each party's Pauli
    operations, the reader's decoded totals, the message positions) for
    analysis.

    A step may record a run of events whose payloads grow with the
    number of pairs as a `_Deferred` that builds them from the step's
    arrays.  Deferred runs are expanded in place, in order, the first time
    `events` or `to_list()` is read."""

    def __init__(self) -> None:
        self._events: list[dict[str, Any] | _Deferred] = []
        self._pending = False

    def append(self, kind: str, **payload: Any) -> None:
        self._events.append({"kind": kind, **payload})

    def defer(self, build, *args: Any) -> None:
        """Record the events that ``build(*args)`` returns, built on
        first read."""
        self._events.append(_Deferred(build, *args))
        self._pending = True

    @property
    def events(self) -> list[dict[str, Any]]:
        """Every event in order, deferred runs expanded."""
        if self._pending:
            events = []
            for item in self._events:
                if isinstance(item, _Deferred):
                    events += item()
                else:
                    events.append(item)
            self._events = events
            self._pending = False
        return self._events

    def to_list(self) -> list[dict[str, Any]]:
        return list(self.events)


@dataclass
class RunReport:
    config: ScenarioConfig
    checks: list[CheckReport]
    dealer_message: list[int]
    recovered: dict[str, list[int] | None]
    eavesdropper_message: list[int] | None
    detected: bool
    transcript: Transcript

    def to_dict(self) -> dict[str, Any]:
        return {
            "config": self.config.to_dict(),
            "detected": self.detected,
            "checks": [c.to_dict() for c in self.checks],
            "dealer_message": _bits_str(self.dealer_message),
            "recovered": {
                party: (None if bits is None else _bits_str(bits))
                for party, bits in self.recovered.items()
            },
            "eavesdropper_message": (
                None
                if self.eavesdropper_message is None
                else _bits_str(self.eavesdropper_message)
            ),
        }


_BIT_CHARS = bytes.maketrans(b"\x00\x01", b"01")


def _bits_str(bits: list[int]) -> str:
    return bytes(bits).translate(_BIT_CHARS).decode("ascii")


# ---------------------------------------------------------------------------
# validation


def hop_names(config: ScenarioConfig) -> list[str]:
    if config.protocol == "original":
        return ["bob->alice", "bob->charlie", "alice->charlie"]
    m = config.agent_count
    hops = ["alice->agent0"]
    hops += [f"agent{k}->agent{k + 1}" for k in range(m - 2)]
    hops += [f"agent{m - 2}->alice", "alice->zach:t", "alice->zach:a"]
    return hops


def _sample_size(pool: int, fraction: float) -> int:
    return min(pool, max(1, math.ceil(fraction * pool)))


def require_integer(name: str, value: Any) -> None:
    """Raise ConfigError unless `value` is an integer; a bool is not one."""
    try:
        if isinstance(value, bool):
            raise TypeError
        operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None


def validate_config(config: ScenarioConfig) -> None:
    """Raise ConfigError if the scenario cannot run to completion."""
    if config.protocol not in PROTOCOLS:
        raise ConfigError(f"unknown protocol {config.protocol!r}")
    for name in ("n_pairs", "master_seed", "agent_count", "checking_photon_count"):
        require_integer(name, getattr(config, name))
    if config.step6_sample_count is not None:
        require_integer("step6_sample_count", config.step6_sample_count)
    if config.master_seed < 0:
        raise ConfigError("master_seed must be non-negative")
    if config.n_pairs < 2:
        raise ConfigError("n_pairs must be at least 2")
    if not 0.0 < config.sample_fraction < 1.0:
        raise ConfigError("sample_fraction must lie in (0, 1)")
    if not 0.0 <= config.error_threshold <= 1.0:
        raise ConfigError("error_threshold must lie in [0, 1]")
    if config.checking_photon_count < 0:
        raise ConfigError("checking_photon_count must be non-negative")
    for name in ("n_pairs", "checking_photon_count"):
        if getattr(config, name) > MAX_PHOTONS:
            raise ConfigError(f"{name} must be at most {MAX_PHOTONS}")
    if config.protocol == "improved" and config.agent_count < 2:
        raise ConfigError("improved protocol needs at least 2 agents")
    if config.step6_sample_count is not None and config.step6_sample_count < 1:
        raise ConfigError("step6_sample_count must be positive when given")

    remaining = config.n_pairs
    if config.protocol == "original":
        for _ in range(3):
            remaining -= _sample_size(remaining, config.sample_fraction)
    else:
        remaining -= _sample_size(remaining, config.sample_fraction)  # step 2
        for k in range(config.agent_count - 1):
            last = k == config.agent_count - 2
            if last and config.step6_sample_count is not None:
                q = config.step6_sample_count
                if q > remaining:
                    raise ConfigError(
                        "step6_sample_count exceeds the surviving positions"
                    )
            else:
                q = _sample_size(remaining, config.sample_fraction)
            remaining -= q
            # Each check takes a position, so this ends within n_pairs
            # agents, however many there are.
            if remaining < 1:
                break
    if remaining < 1:
        raise ConfigError("sampling would leave no message positions")

    adv = config.adversary
    if adv.kind == "eve_intercept_resend" and adv.hop not in hop_names(config):
        raise ConfigError(
            f"adversary hop {adv.hop!r} is not a hop of this protocol; "
            f"valid hops: {hop_names(config)}"
        )


# ---------------------------------------------------------------------------
# shared machinery
#
# Positions are sorted int arrays.  Photon sequences and every party's
# operations are arrays indexed by position; operations are Pauli codes
# (see `pauli`), so composing two layers is one XOR.

# Names by code.  Object arrays hand out the same str objects on every
# lookup, so a transcript holds no copies of them.
_PAULI_NAMES = np.array([p.name for p in sorted(PauliOp)], dtype=object)
_BELL_NAMES = np.array([label.name for label in sorted(BellLabel)], dtype=object)
_BASIS_NAMES = np.array([basis.name for basis in sorted(Basis)], dtype=object)


def _without(positions: np.ndarray, removed: np.ndarray) -> np.ndarray:
    """Mask of the sorted `positions` that are not in `removed`, a subset
    of them."""
    keep = np.ones(len(positions), dtype=bool)
    keep[np.searchsorted(positions, removed)] = False
    return keep


def _named(positions: np.ndarray, codes: np.ndarray, names: np.ndarray) -> dict[int, str]:
    """One name per position, names[code], for the transcript."""
    return dict(zip(positions.tolist(), names[codes].tolist()))


# Builders of deferred transcript events (see `Transcript.defer`).


def _sample_events(check: str, positions: np.ndarray) -> list[dict[str, Any]]:
    return [{"kind": "sample_positions", "check": check, "positions": positions.tolist()}]


def _collaboration_events(positions: np.ndarray) -> list[dict[str, Any]]:
    return [{"kind": "collaboration_positions", "positions": positions.tolist()}]


def _publish_events(
    check: str, party: str, positions: np.ndarray, codes: np.ndarray
) -> list[dict[str, Any]]:
    ops = _named(positions, codes, _PAULI_NAMES)
    return [{"kind": "publish_ops", "check": check, "party": party, "ops": ops}]


def _chain_publish_events(
    check: str, positions: np.ndarray, layers: np.ndarray
) -> list[dict[str, Any]]:
    """One publication of agents 0..k-1, whose codes are the rows of
    `layers`."""
    ops = {
        f"agent{j}": _named(positions, codes, _PAULI_NAMES) for j, codes in enumerate(layers)
    }
    return [{"kind": "publish_ops", "check": check, "ops": ops}]


def _outcome_events(
    check: str, positions: np.ndarray, codes: np.ndarray, names: np.ndarray
) -> list[dict[str, Any]]:
    outcomes = _named(positions, codes, names)
    return [{"kind": "bell_outcomes", "check": check, "outcomes": outcomes}]


def _zx_events(
    check: str,
    positions: np.ndarray,
    in_x: np.ndarray,
    remote: np.ndarray,
    local: np.ndarray,
) -> list[dict[str, Any]]:
    """The remote and then the local announcement at each position."""
    events = []
    for pos, basis, r, l in zip(
        positions.tolist(),
        _BASIS_NAMES[in_x.astype(np.int64)].tolist(),
        remote.tolist(),
        local.tolist(),
    ):
        events += (
            {"kind": "zx_remote", "check": check, "position": pos, "basis": basis, "result": r},
            {"kind": "zx_local", "check": check, "position": pos, "result": l},
        )
    return events


def _decoy_events(check: str, slots: np.ndarray, outcomes: np.ndarray) -> list[dict[str, Any]]:
    return [
        {"kind": "decoy_result", "check": check, "slot": slot, "result": outcome}
        for slot, outcome in zip(slots.tolist(), outcomes.tolist())
    ]


def _private_ops_events(
    kind: str, positions: np.ndarray, ops: np.ndarray
) -> list[dict[str, Any]]:
    """The position-indexed codes `ops` at `positions`, for analysis."""
    ops = _named(positions, ops[positions], _PAULI_NAMES)
    return [{"kind": kind, "private": True, "ops": ops}]


def _agent_ops_events(party: str, positions: np.ndarray, ops: np.ndarray) -> list[dict[str, Any]]:
    ops = _named(positions, ops[positions], _PAULI_NAMES)
    return [{"kind": "agent_ops", "private": True, "party": party, "ops": ops}]


def _message_positions_events(positions: np.ndarray) -> list[dict[str, Any]]:
    return [{"kind": "message_positions", "private": True, "positions": positions.tolist()}]


def _transmit(
    hop: str,
    photons: np.ndarray,
    eve: EveInterceptResend | None,
    transcript: Transcript,
) -> np.ndarray:
    transcript.append("transmit", hop=hop, count=len(photons))
    if eve is not None and eve.hop == hop:
        return eve.intercept_sequence(photons)
    return photons


def zx_check(
    run: _Run,
    check_id: str,
    sampled: np.ndarray,
    expected: np.ndarray,
    rng_remote: np.random.Generator,
    remote_applies_h: bool = False,
) -> None:
    """Z/X correlation check over the sampled pairs of `run`.

    For each sampled position the partner's holder (the remote party)
    measures its photon in a random basis and announces basis and
    result; the dealer measures her half in the same basis.  The outcome
    parity must match the Bell correlation of the pair's announced Pauli
    shift, whose codes `expected` are indexed by position.  `sampled` is
    sorted, as `_Run.draw` returns it; the check settles on it."""
    register = run.register
    in_x = rng_remote.random(len(sampled)) < 0.5
    remote = run.partner[sampled]
    if remote_applies_h:
        register.apply_gates(remote, np.full(len(remote), SingleGate.H))
    # Remote before local at each position: [r0, l0, r1, l1, ...].
    photons = np.stack((remote, run.dealer[sampled]), axis=1).ravel()
    results = register.measure_singles(photons, np.repeat(in_x, 2)).reshape(-1, 2)
    remote_out, local_out = results[:, 0], results[:, 1]
    parity = expected_parity(expected[sampled], in_x)
    mismatches = int(np.count_nonzero((remote_out ^ local_out) != parity))
    run.transcript.defer(_zx_events, check_id, sampled, in_x, remote_out, local_out)
    run.settle(check_id, len(sampled), mismatches, sampled)


def decoy_round(run: _Run, check_id: str, hop: str, photons: np.ndarray) -> np.ndarray:
    """Send one photon per surviving position over `hop` with the
    dealer's checking photons mixed in at secret slots; after transit,
    announce slots and preparation bases, measure the checking photons,
    and compare with preparation.  The check settles with no position
    consumed.  Returns the photons that arrive, indexed by position (ids
    may have been replaced in transit)."""
    count = run.config.checking_photon_count
    # A draw k picks state code k: basis X if k >= 2, bit k & 1.
    states = run.rng_dealer.integers(4, size=count)
    decoys = run.register.prepare_singles(states)
    total = len(run.positions) + count
    slots = np.sort(run.rng_dealer.choice(total, size=count, replace=False))
    # The k-th checking photon sits at the k-th slot, in slot order.
    is_decoy = np.zeros(total, dtype=bool)
    is_decoy[slots] = True
    sequence = np.empty(total, dtype=np.int64)
    sequence[slots] = decoys
    sequence[~is_decoy] = photons[run.positions]
    received = _transmit(hop, sequence, run.eve, run.transcript)
    in_x = states >> 1
    run.transcript.append(
        "decoy_positions",
        check=check_id,
        slots=slots.tolist(),
        bases=_BASIS_NAMES[in_x].tolist(),
    )
    outcomes = run.register.measure_singles(received[slots], in_x)
    run.transcript.defer(_decoy_events, check_id, slots, outcomes)
    run.settle(check_id, count, int(np.count_nonzero(outcomes != states & 1)))
    out = photons.copy()
    out[run.positions] = received[~is_decoy]
    return out


def verify_step6(run: _Run, sampled: np.ndarray, published: np.ndarray) -> None:
    """The dealer's own verification of the returned sequence.

    For each sampled position the dealer undoes the last agent's
    Hadamard, Bell-measures the returned photon against her retained
    half, and requires the decoded Pauli to equal the XOR of the agents'
    published operations, whose codes `published` are indexed by
    position.  `sampled` is sorted; the check settles on it."""
    returned = run.partner[sampled]
    run.register.apply_gates(returned, np.full(len(returned), SingleGate.H))
    outcomes = run.register.measure_bells(run.dealer[sampled], returned)
    mismatches = int(np.count_nonzero(BELL_CODES[outcomes] != published[sampled]))
    run.transcript.defer(_outcome_events, "step6_check", sampled, outcomes, _BELL_NAMES)
    run.settle("step6_check", len(sampled), mismatches, sampled)


class _Abort(Exception):
    """A check's verdict ended the run."""


class _Run:
    """One trial: its streams, register, adversaries and transcript, the
    two halves of every surviving pair, and the steps both protocol
    modes share.

    ``positions`` is the sorted array of surviving positions.
    ``dealer`` holds the dealer's half of each position's pair and
    ``partner`` the other half, both indexed by position; entries at
    retired positions are stale."""

    def __init__(self, config: ScenarioConfig, protocol: str, n_parties: int) -> None:
        validate_config(config)
        if config.protocol != protocol:
            raise ConfigError(f"run_{protocol} needs protocol={protocol!r}")
        children = np.random.SeedSequence(config.master_seed).spawn(3 + n_parties)
        self.register = Register(rng=np.random.default_rng(children[0]))
        self.rng_dealer = np.random.default_rng(children[1])
        rng_adv = np.random.default_rng(children[2])
        self.rng_parties = [np.random.default_rng(c) for c in children[3:]]
        adv = config.adversary
        self.eve: EveInterceptResend | None = None
        self.attack: SwapAttack | None = None
        if adv.kind == "eve_intercept_resend":
            self.eve = EveInterceptResend(self.register, rng_adv, adv)
        elif adv.kind == "bob_swap_attack":
            self.attack = SwapAttack(self.register, rng_adv, adv)
        self.config = config
        self.threshold = config.error_threshold
        self.transcript = Transcript()
        self.checks: list[CheckReport] = []
        self.positions = np.arange(config.n_pairs)
        self.dealer = self.partner = np.zeros(0, dtype=np.int64)
        self.dealer_bits: list[int] = []
        self.recovered: list[int] | None = None
        self.eavesdropper_bits: list[int] | None = None

    def execute(self, steps, reader: str) -> RunReport:
        """Run `steps` until they finish or a check aborts the run."""
        try:
            steps(self)
            detected = False
        except _Abort:
            detected = True
        return RunReport(
            config=self.config,
            checks=self.checks,
            dealer_message=self.dealer_bits,
            recovered={reader: self.recovered},
            eavesdropper_message=self.eavesdropper_bits,
            detected=detected,
            transcript=self.transcript,
        )

    def identity(self) -> np.ndarray:
        """Position-indexed Pauli codes, I everywhere."""
        return np.zeros(self.config.n_pairs, dtype=np.int64)

    def prepare(self, party: str) -> None:
        """`party` prepares one singlet per position; the dealer's half is
        the first photon of each pair."""
        self.dealer, self.partner = self.register.prepare_bells(
            len(self.positions), BellLabel.PSI_MINUS
        )
        self.transcript.append("prepare", party=party, pairs=self.config.n_pairs)

    def transmit(
        self, hop: str, photons: np.ndarray, party: str | None = None
    ) -> np.ndarray:
        """Send one photon per surviving position over `hop` and log its
        receipt; returns the photons that arrive."""
        out = photons.copy()
        out[self.positions] = _transmit(
            hop, photons[self.positions], self.eve, self.transcript
        )
        receipt = {} if party is None else {"party": party}
        self.transcript.append("receipt", **receipt, hop=hop)
        return out

    def draw(self, rng: np.random.Generator, count: int | None = None) -> np.ndarray:
        """Sample `count` surviving positions (by default the configured
        fraction of them), sorted."""
        if count is None:
            count = _sample_size(len(self.positions), self.config.sample_fraction)
        return np.sort(rng.choice(self.positions, size=count, replace=False))

    def sample_event(self, check: str, sampled: np.ndarray) -> None:
        """Announce the positions a check has sampled."""
        self.transcript.defer(_sample_events, check, sampled)

    def settle(
        self, check_id: str, samples: int, mismatches: int, sampled: np.ndarray | None = None
    ) -> None:
        """Report a check and retire the `sampled` positions it consumed;
        an abort verdict ends the run here."""
        report = CheckReport(check_id, samples, mismatches, self.threshold)
        self.transcript.append("check_report", **report.to_dict())
        self.checks.append(report)
        if sampled is not None:
            self.positions = self.positions[_without(self.positions, sampled)]
        if report.verdict == "abort":
            raise _Abort(check_id)

    def announce(self, check: str, party: str, positions: np.ndarray, ops: np.ndarray) -> None:
        """`party` publishes its operations `ops` on the sorted `positions`."""
        self.transcript.defer(_publish_events, check, party, positions, ops)

    def encode(self, positions: np.ndarray) -> np.ndarray:
        """Draw the dealer's message, two bits per position, and return
        the code of the Pauli that encodes each position's pair of bits,
        indexed by position (-1 elsewhere)."""
        bits = self.rng_dealer.integers(2, size=2 * len(positions))
        self.dealer_bits = bits.tolist()
        codes = np.full(self.config.n_pairs, -1, dtype=np.int64)
        codes[positions] = 2 * bits[0::2] + bits[1::2]
        return codes

    def encrypt(
        self,
        photons: np.ndarray,
        rng: np.random.Generator,
        fixed: np.ndarray | None = None,
        rotated: np.ndarray | None = None,
    ) -> np.ndarray:
        """One party's pass over its surviving photons: H at the `rotated`
        positions (some of the surviving ones), the `fixed` code where it
        is not negative, and a fresh random Pauli from `rng` everywhere
        else.  Returns the Pauli codes, indexed by position (I where no
        Pauli was applied)."""
        positions = self.positions
        gates = np.full(len(positions), -1) if fixed is None else fixed[positions]
        if rotated is not None:
            gates[np.searchsorted(positions, rotated)] = SingleGate.H
        free = gates < 0
        gates[free] = _random_paulis(rng, np.count_nonzero(free))
        self.register.apply_gates(photons[positions], gates)
        ops = self.identity()
        ops[positions] = np.where(gates == SingleGate.H, PauliOp.I, gates)
        return ops

    def readout(self) -> np.ndarray:
        """The reader's Bell measurement of every surviving pair, decoded
        to the code of the total Pauli applied to it, indexed by
        position."""
        outcomes = self.register.measure_bells(
            self.dealer[self.positions], self.partner[self.positions]
        )
        totals = self.identity()
        totals[self.positions] = BELL_CODES[outcomes]
        return totals

    def collaborate(self, reader: str, totals: np.ndarray, publishers) -> None:
        """Each (party, publish) in `publishers` announces its operation on
        every surviving position; `reader` strips them from the readout
        and decodes the dealer's message."""
        positions = self.positions
        self.transcript.defer(_collaboration_events, positions)
        dealer_codes = totals[positions]
        for party, publish in publishers:
            ops = publish(positions)
            self.announce("collaboration", party, positions, ops)
            dealer_codes = dealer_codes ^ ops
        self.recovered = decode_message(dealer_codes)
        self.transcript.append("recovered", party=reader, bits=_bits_str(self.recovered))


# ---------------------------------------------------------------------------
# original three-party protocol


def _original_steps(run: _Run) -> None:
    rng_alice = run.rng_dealer
    rng_bob, rng_charlie = run.rng_parties
    attack = run.attack
    run.prepare("bob")
    run.dealer = run.transmit("bob->alice", run.dealer, "alice")

    # First eavesdropping check (Alice-Bob).
    q1 = run.draw(rng_alice)
    run.sample_event("zx_check_1", q1)
    zx_check(run, "zx_check_1", q1, run.identity(), rng_bob)

    # Bob encrypts his sequence and sends it to Charlie -- or substitutes
    # halves of his own pairs.
    bob_positions = run.positions
    bob_ops = run.identity()
    if attack is not None:
        run.partner = attack.forward(run.positions, run.partner)
    else:
        bob_ops = run.encrypt(run.partner, rng_bob)
    run.partner = run.transmit("bob->charlie", run.partner, "charlie")

    # Second eavesdropping check (Alice-Charlie), with Bob's operations
    # published first.
    q2 = run.draw(rng_alice)
    run.sample_event("zx_check_2", q2)
    announced = attack.swap_correct(q2) if attack is not None else bob_ops[q2]
    run.announce("zx_check_2", "bob", q2, announced)
    expected = run.identity()
    expected[q2] = announced
    zx_check(run, "zx_check_2", q2, expected, rng_charlie)

    # Alice picks her own samples, encodes the message elsewhere, and
    # sends her sequence to Charlie.
    q3 = run.draw(rng_alice)
    message_positions = run.positions[_without(run.positions, q3)]
    alice_ops = run.encrypt(run.dealer, rng_alice, fixed=run.encode(message_positions))
    if attack is not None:
        run.dealer = attack.intercept_dealer(run.positions, run.dealer)
    run.dealer = run.transmit("alice->charlie", run.dealer, "charlie")

    # Charlie's Bell readout over every surviving position.
    totals = run.readout()
    run.transcript.defer(_private_ops_events, "totals", run.positions, totals)
    run.transcript.defer(_private_ops_events, "alice_ops", run.positions, alice_ops)
    if attack is None:
        run.transcript.defer(_private_ops_events, "bob_ops", bob_positions, bob_ops)
    run.transcript.defer(_message_positions_events, message_positions)

    # Final sample check: Charlie's outcomes against Alice's and Bob's
    # announced operations.
    run.sample_event("final_sample_check", q3)
    run.transcript.defer(
        _outcome_events, "final_sample_check", q3, totals[q3], _PAULI_NAMES
    )
    published = attack.fake_ops(q3) if attack is not None else bob_ops[q3]
    run.announce("final_sample_check", "bob", q3, published)
    mismatches = int(np.count_nonzero(totals[q3] != alice_ops[q3] ^ published))
    run.settle("final_sample_check", len(q3), mismatches, q3)

    # Collaboration: Bob publishes his operations on the message
    # positions and Charlie decodes.
    bob_publish = attack.publish_final if attack is not None else bob_ops.__getitem__
    run.collaborate("charlie", totals, [("bob", bob_publish)])
    if attack is not None:
        run.eavesdropper_bits = decode_message(attack.inferred[run.positions])


def run_original(config: ScenarioConfig) -> RunReport:
    """One run of the original protocol (dealer Alice, agents Bob and
    Charlie) against the configured adversary."""
    return _Run(config, "original", 2).execute(_original_steps, "charlie")


# ---------------------------------------------------------------------------
# improved M-agent protocol


def _improved_steps(run: _Run) -> None:
    m = run.config.agent_count
    rng_agents = run.rng_parties
    attack = run.attack
    run.prepare("alice")
    run.partner = run.transmit("alice->agent0", run.partner, "agent0")

    # Step 2: Z/X check between the dealer and the first agent.
    q = run.draw(run.rng_dealer)
    run.sample_event("zx_check_step2", q)
    zx_check(run, "zx_check_step2", q, run.identity(), rng_agents[0])

    # Steps 3-6: the encryption chain through agents 0..M-2.  Each
    # agent's codes are I where it applied no Pauli; a dishonest first
    # agent applies none.
    agent_ops = [run.identity() for _ in range(m)]
    for k in range(m - 1):
        last_chain_agent = k == m - 2
        count = run.config.step6_sample_count if last_chain_agent else None
        samples = run.draw(rng_agents[k], count)
        if k == 0 and attack is not None:
            run.partner = attack.forward(run.positions, run.partner, honest=samples)
        else:
            agent_ops[k] = run.encrypt(run.partner, rng_agents[k], rotated=samples)
            encrypted = run.positions[_without(run.positions, samples)]
            run.transcript.defer(_agent_ops_events, f"agent{k}", encrypted, agent_ops[k])

        hop = f"agent{k}->agent{k + 1}" if not last_chain_agent else f"agent{k}->alice"
        check_id = f"hop_check_{k}" if not last_chain_agent else "step6_check"
        run.partner = run.transmit(hop, run.partner)
        run.sample_event(check_id, samples)

        # Publication of the earlier agents' operations on the sampled
        # photons; agent k itself only Hadamard-rotated them.  The
        # dishonest first agent swap-corrects a hop check but has no
        # correction for the dealer's own verification.
        published = run.identity()
        if k > 0:
            layers = np.array([agent_ops[j][samples] for j in range(k)])
            if attack is not None:
                layers[0] = (
                    attack.fake_ops(samples) if last_chain_agent else attack.swap_correct(samples)
                )
            published[samples] = np.bitwise_xor.reduce(layers)
            run.transcript.defer(_chain_publish_events, check_id, samples, layers)

        if not last_chain_agent:
            # The receiving agent undoes the Hadamard and the pair is
            # checked with the usual Z/X procedure.
            zx_check(run, check_id, samples, published, rng_agents[k + 1], remote_applies_h=True)
        else:
            verify_step6(run, samples, published)

    # Step 7: message encoding.
    alice_ops = run.encode(run.positions)
    run.encrypt(run.dealer, run.rng_dealer, fixed=alice_ops)
    run.transcript.defer(_private_ops_events, "alice_ops", run.positions, alice_ops)
    run.transcript.defer(_message_positions_events, run.positions)

    # Steps 7-9: both sequences go to the last agent behind checking photons.
    run.partner = decoy_round(run, "decoy_check_t", "alice->zach:t", run.partner)
    run.dealer = decoy_round(run, "decoy_check_a", "alice->zach:a", run.dealer)

    # Step 10: Bell readout by the last agent.
    totals = run.readout()
    run.transcript.defer(_private_ops_events, "totals", run.positions, totals)

    # Step 11: collaboration.
    publishers = [(f"agent{k}", agent_ops[k].__getitem__) for k in range(m - 1)]
    if attack is not None:
        publishers[0] = ("agent0", attack.publish_final)
    run.collaborate("zach", totals, publishers)


def run_improved(config: ScenarioConfig) -> RunReport:
    """One run of the improved protocol with agent_count agents; agent 0
    is the first chain agent, agent M-2 the last one before the sequence
    returns to the dealer, and agent M-1 the final receiver."""
    return _Run(config, "improved", config.agent_count).execute(_improved_steps, "zach")


def run_trial(config: ScenarioConfig) -> RunReport:
    """Dispatch on the configured protocol mode."""
    if config.protocol == "original":
        return run_original(config)
    if config.protocol == "improved":
        return run_improved(config)
    raise ConfigError(f"unknown protocol {config.protocol!r}")
