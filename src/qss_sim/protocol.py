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
Pauli encryption, Bell readout, collaboration).  A shared step takes no
switch that only one mode sets: each step function spawns its parties'
streams, the chain's step function itself undoes its agents' sample
Hadamards before each check, and encryption takes the gates to apply
as one array over positions.  ``plan`` is the one table of a run's
checks, one row per hop in run order: the hop, the check that guards
it, the check's kind and its sample size.
``validate_config`` builds it once, rejecting a config whose sizes
fail or whose eavesdropper sits on no hop of it, after ``check_fields``
has checked each field against its declaration; ``_Run`` keeps a cursor
at the next row, and each step takes its hop, check id and sample size
from there.  Every transmission crosses its hop in ``_transmit``, which
logs it and is the one place a run hands photons to the eavesdropper.
The transcript is the one record of a run; the adversaries keep none.
Each announcement, and each private record, is one transcript event,
recorded where it happens; a payload value that grows with the number
of pairs is an array of positions, results or codes, which the
transcript makes read-only as it records it and names only when it is
listed.  The check phases ``zx_check``, ``decoy_round`` and
``verify_step6`` are module-level functions of the run, and each run
looks them up here at call time, so per-phase timing can wrap them by
name; ``zx_check`` and ``verify_step6`` only measure and compare the
photons they are handed.  Every check ends in ``_Run.settle``, the one place that builds a
check report, records it, retires the sampled positions, moves the
cursor on and ends the run on an abort verdict, and which raises if a
check settles off its row; ``_Run.execute`` builds the one RunReport.

Every first agent, honest or not, answers the same three calls:
``forward`` the photons he passes on, Hadamard-rotating the sample
photons he is handed (none in the original protocol), ``publish`` his
operations on announced positions for a check of the plan row's kind
(or at collaboration, once every row has settled), and
``intercept_dealer`` the dealer's encoded sequence.
An honest agent is an ``_Agent``; the dishonest first agent is one
``SwapAttack`` in both modes, and what he publishes at which check is
decided there, not here.  The steps test for the attacker only to keep
his operations out of the private records and to read out what he
learned.

A run is fully deterministic given (config, master seed): every random
choice comes from a stream spawned from the master seed in a fixed
order, so identical configs replay byte-identical transcripts.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field
from typing import Any, get_args, get_type_hints

import numpy as np

from .adversaries import AdversarySpec, EveInterceptResend, SwapAttack, _random_paulis, _scatter
from .pauli import BELL_CODES, Basis, BellLabel, PauliOp, decode_message, expected_parity
from .register import MAX_PHOTONS, Register, SingleGate


class ConfigError(ValueError):
    """A scenario or batch configuration is unusable."""


@functools.cache
def fields(cls: type) -> tuple[tuple[str, type, bool, Any, tuple[str, ...] | None], ...]:
    """The fields of the config dataclass `cls` in declaration order, one
    ``(name, type, optional, default, choices)`` per field: the declared
    type (``int`` for ``int | None``), whether None is allowed, the
    default (``dataclasses.MISSING`` for none) and the ``choices``
    metadata (None for none).  This is the one reading of a config's
    declarations, cached per class."""
    hints = get_type_hints(cls)
    out = []
    for f in dataclasses.fields(cls):
        args = get_args(hints[f.name])
        kind = next((t for t in args if t is not type(None)), hints[f.name])
        out.append((f.name, kind, type(None) in args, f.default, f.metadata.get("choices")))
    return tuple(out)


# What `check_fields` takes for a declared type, and what it calls it.
# The number types are concrete, since an isinstance check against a
# `numbers` ABC costs about a microsecond and every trial validates its
# config.  Any other type takes its own instances.
_ACCEPTED = {
    int: (int, np.integer),
    float: (int, float, np.integer, np.floating),
    bool: (bool, np.bool_),
}
_NOUNS = {int: "an integer", float: "a real number", bool: "a bool", str: "a string"}


def check_fields(obj: Any) -> None:
    """Raise ConfigError, worded ``<name> must be ...``, unless each field
    of the config dataclass `obj` holds a value of its declared type, or
    None where that is allowed, and one of its ``choices`` where it lists
    them.  A bool is a value of a bool field only."""
    for name, kind, optional, _, choices in fields(type(obj)):
        value = getattr(obj, name)
        if value is None and optional:
            continue
        accepted = _ACCEPTED.get(kind, kind)
        if not isinstance(value, accepted) or isinstance(value, bool) and kind is not bool:
            article = "an " if kind.__name__[0] in "AEIOU" else "a "
            noun = _NOUNS.get(kind) or article + kind.__name__
            raise ConfigError(f"{name} must be {noun}, got {value!r}")
        if choices and value not in choices:
            raise ConfigError(f"{name} must be one of {choices}, got {value!r}")


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


# Names by code of the payload keys that hold codes.  Object arrays hand
# out the same str objects on every lookup, so a listed transcript holds
# no copies of them.
_BASIS_NAMES = np.array([basis.name for basis in sorted(Basis)], dtype=object)
_CODE_NAMES = {
    "ops": np.array([p.name for p in sorted(PauliOp)], dtype=object),
    "outcomes": np.array([label.name for label in sorted(BellLabel)], dtype=object),
    "basis": _BASIS_NAMES,
    "bases": _BASIS_NAMES,
}


def _listed(key: str, value: Any) -> Any:
    """A payload value as plain JSON: an array as a list, with codes
    named by `_CODE_NAMES[key]`."""
    if not isinstance(value, np.ndarray):
        return value
    names = _CODE_NAMES.get(key)
    return (value if names is None else names.take(value)).tolist()


class Transcript:
    """Append-only record of a run: the public classical announcements,
    in order, and among them the private events, marked ``"private":
    True``, that record what no party announces (each party's Pauli
    operations, the reader's decoded totals, the message positions) for
    analysis.

    ``events`` holds one dict per announcement or private record, as
    `append` recorded it.  A payload value that grows with the number of
    pairs is an array: positions and measured results, and the codes of
    Paulis (``ops``, an agent per row in the chain's layered
    publication), Bell outcomes (``outcomes``) and bases (``basis``, X
    where true, and ``bases``).  `append` makes every array it records
    read-only, so no later step can change what was recorded; `to_list()`
    is the one place that names codes and turns arrays into lists."""

    def __init__(self) -> None:
        self.events: list[dict[str, Any]] = []

    def append(self, kind: str, **payload: Any) -> None:
        for value in payload.values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
        self.events.append({"kind": kind, **payload})

    def to_list(self) -> list[dict[str, Any]]:
        """Every event as a new dict of plain JSON values."""
        return [{key: _listed(key, value) for key, value in e.items()} for e in self.events]


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
            "recovered": {party: _bits_str(bits) for party, bits in self.recovered.items()},
            "eavesdropper_message": _bits_str(self.eavesdropper_message),
        }


_BIT_CHARS = bytes.maketrans(b"\x00\x01", b"01")


def _bits_str(bits: list[int] | None) -> str | None:
    if bits is None:
        return None
    return bytes(bits).translate(_BIT_CHARS).decode("ascii")


# ---------------------------------------------------------------------------
# validation


def plan(config: ScenarioConfig) -> tuple[tuple[str, str, str, int], ...]:
    """The run's checks in run order, one row ``(hop, check, kind,
    samples)`` per hop: the transmission the check guards, its id, its
    kind (``zx``, ``final``, ``step6`` or ``decoy``) and how many photons
    it samples.  A position-consuming check retires what it samples, so
    its size is taken from the positions the earlier checks left; a decoy
    check samples ``checking_photon_count`` checking photons and consumes
    no position.  Raise ConfigError if the step-6 sample cannot be drawn
    or no message position would be left.  The scalar fields must
    already be valid (see `validate_config`)."""

    def guarded():
        # (hop, check, kind) of each position-consuming check, in run
        # order, made lazily: a plan over many agents stops where its
        # positions run out.
        if config.protocol == "original":
            yield "bob->alice", "zx_check_1", "zx"
            yield "bob->charlie", "zx_check_2", "zx"
            yield "alice->charlie", "final_sample_check", "final"
            return
        m = config.agent_count
        if m - 1 > config.n_pairs:
            # Each of the m - 1 Z/X checks takes a position, so the walk
            # below would refuse; refuse without making a row per agent.
            raise ConfigError("sampling would leave no message positions")
        yield "alice->agent0", "zx_check_step2", "zx"
        for k in range(m - 2):
            yield f"agent{k}->agent{k + 1}", f"hop_check_{k}", "zx"
        yield f"agent{m - 2}->alice", "step6_check", "step6"

    rows = []
    remaining = config.n_pairs
    for hop, check, kind in guarded():
        if kind == "step6" and config.step6_sample_count is not None:
            if config.step6_sample_count > remaining:
                raise ConfigError("step6_sample_count exceeds the surviving positions")
            q = config.step6_sample_count
        elif remaining < 1:
            # Each check takes a position, so this ends within n_pairs
            # checks, however many agents there are.
            break
        else:
            q = min(remaining, max(1, math.ceil(config.sample_fraction * remaining)))
        rows.append((hop, check, kind, q))
        remaining -= q
    if remaining < 1:
        raise ConfigError("sampling would leave no message positions")
    if config.protocol == "improved":
        count = config.checking_photon_count
        rows += [(f"alice->zach:{s}", f"decoy_check_{s}", "decoy", count) for s in "ta"]
    return tuple(rows)


def validate_config(config: ScenarioConfig) -> tuple[tuple[str, str, str, int], ...]:
    """Raise ConfigError if the scenario cannot run to completion; return
    its `plan`.  `check_fields` checks each field against its
    declaration; the ranges, the plan and Eve's hop are checked here."""
    check_fields(config)
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

    rows = plan(config)
    hops = [row[0] for row in rows]
    adv = config.adversary
    if adv.kind == "eve_intercept_resend" and adv.hop not in hops:
        raise ConfigError(
            f"adversary hop {adv.hop!r} is not a hop of this protocol; valid hops: {hops}"
        )
    return rows


# ---------------------------------------------------------------------------
# shared machinery
#
# Positions are sorted int arrays.  A sorted subset of them (a check's
# sample, the positions left after one, the Hadamard-rotated ones) is
# read off a bool mask over positions, so no trial sorts or searches.
# Photon sequences and every party's operations are arrays indexed by
# position; operations are Pauli codes (see `pauli`), so composing two
# layers is one XOR.  An array over positions that is filled at some of
# them (a mask, a party's operations, the readout) is built by
# `_scatter`, with the fill that marks the rest.  A check phase reads
# codes only on its own sample, so it takes them aligned with `sampled`.


def _transmit(run: _Run, sequence: np.ndarray) -> np.ndarray:
    """Send the photons of `sequence` over the plan row's hop and log it;
    returns the photons that arrive: the ones Eve resends if she sits on
    the hop, else `sequence` itself.  This is the one place a run meets
    Eve; what she read is not recorded."""
    hop = run.row[0]
    run.transcript.append("transmit", hop=hop, count=len(sequence))
    eve = run.eve
    if eve is None or eve.hop != hop:
        return sequence
    resent, _, _ = eve.intercept_sequence(sequence)
    return resent


def zx_check(
    run: _Run, sampled: np.ndarray, expected: np.ndarray | PauliOp, rng_remote: np.random.Generator
) -> None:
    """Z/X correlation check over the sampled pairs of `run`.

    The partner's holder (the remote party) measures its photon at each
    sampled position as it stands (a chain's step function has undone
    the sending agent's Hadamard) in a random basis drawn from
    `rng_remote`, and announces bases and results; then the dealer
    measures her halves in the same bases.  Each is one
    register call, since a pair's two photons share a row.  The outcome
    parity must match the Bell correlation of the pair's announced Pauli
    shift, whose codes `expected` are aligned with `sampled` (or
    ``PauliOp.I`` when nothing was published).  `sampled` is sorted, as
    `_Run.draw` returns it; the check settles on it."""
    register = run.register
    in_x = rng_remote.random(len(sampled)) < 0.5
    remote_out = register.measure_singles(run.partner[sampled], in_x)
    local_out = register.measure_singles(run.dealer[sampled], in_x)
    parity = expected_parity(expected, in_x)
    mismatches = int(np.count_nonzero((remote_out ^ local_out) != parity))
    run.transcript.append(
        "zx_results",
        check=run.row[1],
        positions=sampled,
        basis=in_x,
        remote=remote_out,
        local=local_out,
    )
    run.settle(len(sampled), mismatches, sampled)


def decoy_round(run: _Run, photons: np.ndarray) -> np.ndarray:
    """Send one photon per surviving position over the plan row's hop
    with as many of the dealer's checking photons as the row samples
    mixed in at secret slots; after transit, announce slots and
    preparation bases, measure the checking photons, and compare with
    preparation.  The check settles with no position consumed.  Returns
    the photons that arrive, indexed by position (ids may have been
    replaced in transit)."""
    _, check_id, _, count = run.row
    # A draw k picks state code k: basis X if k >= 2, bit k & 1.
    states = run.rng_dealer.integers(4, size=count)
    decoys = run.register.prepare_singles(states)
    total = len(run.positions) + count
    is_decoy = _scatter(total, run.rng_dealer.choice(total, size=count, replace=False), True, False)
    # The k-th checking photon sits at the k-th slot, in slot order.
    slots = np.flatnonzero(is_decoy)
    sequence = np.empty(total, dtype=np.int64)
    sequence[slots] = decoys
    sequence[~is_decoy] = photons[run.positions]
    received = _transmit(run, sequence)
    in_x = states >> 1
    run.transcript.append("decoy_positions", check=check_id, slots=slots, bases=in_x)
    outcomes = run.register.measure_singles(received[slots], in_x)
    run.transcript.append("decoy_results", check=check_id, results=outcomes)
    run.settle(count, int(np.count_nonzero(outcomes != states & 1)))
    out = photons.copy()
    out[run.positions] = received[~is_decoy]
    return out


def verify_step6(run: _Run, sampled: np.ndarray, published: np.ndarray | PauliOp) -> None:
    """The dealer's own verification of the returned sequence.

    For each sampled position the dealer Bell-measures the returned
    photon as it stands (the chain's step function has undone the last
    agent's Hadamard) against her retained half, and requires the
    decoded Pauli to equal the XOR of the agents' published operations,
    whose codes `published` are aligned with `sampled` (or
    ``PauliOp.I`` when nothing was published).  `sampled` is sorted; the
    check settles on it."""
    outcomes = run.register.measure_bells(run.dealer[sampled], run.partner[sampled])
    mismatches = int(np.count_nonzero(BELL_CODES[outcomes] != published))
    run.transcript.append(
        "bell_outcomes",
        check=run.row[1],
        positions=sampled,
        outcomes=outcomes,
    )
    run.settle(len(sampled), mismatches, sampled)


class _Abort(Exception):
    """A check's verdict ended the run."""


class _Run:
    """One trial: its streams, register, adversaries and transcript, the
    two halves of every surviving pair, and the steps both protocol
    modes share.

    ``positions`` is the sorted array of surviving positions; each sorted
    subset of them is read off a bool mask over positions, which
    `_scatter` builds.
    ``dealer`` holds the dealer's half of each position's pair and
    ``partner`` the other half, both indexed by position; entries at
    retired positions are stale.  ``row`` is the `plan` row of the next
    check to settle, (hop, check, kind, samples), and ``rows`` iterates
    over the rows after it; the steps take each hop, check id and sample
    size from ``row``."""

    def __init__(self, config: ScenarioConfig, protocol: str) -> None:
        self.rows = iter(validate_config(config))
        self.row: tuple[str, str, str, int] | None = next(self.rows)
        if config.protocol != protocol:
            raise ConfigError(f"run_{protocol} needs protocol={protocol!r}")
        self.seeds = np.random.SeedSequence(config.master_seed)
        rng_register, self.rng_dealer, rng_adv = self.streams(3)
        self.register = Register(rng=rng_register)
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

    def streams(self, count: int) -> list[np.random.Generator]:
        """`count` new streams, spawned from the master seed after every
        stream spawned before them."""
        return [np.random.default_rng(seed) for seed in self.seeds.spawn(count)]

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

    def prepare(self, party: str) -> None:
        """`party` prepares one singlet per position; the dealer's half is
        the first photon of each pair."""
        self.dealer, self.partner = self.register.prepare_bells(
            len(self.positions), BellLabel.PSI_MINUS
        )
        self.transcript.append("prepare", party=party, pairs=self.config.n_pairs)

    def transmit(self, photons: np.ndarray, party: str | None = None) -> np.ndarray:
        """Send one photon per surviving position over the plan row's hop
        and log its receipt; returns the photons that arrive, indexed by
        position: a copy of `photons` if they were intercepted, else
        `photons` itself."""
        sent = photons[self.positions]
        received = _transmit(self, sent)
        if received is not sent:
            photons = photons.copy()
            photons[self.positions] = received
        receipt = {} if party is None else {"party": party}
        self.transcript.append("receipt", **receipt, hop=self.row[0])
        return photons

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        """Sample as many of the surviving positions as the plan row's
        check samples, sorted."""
        drawn = rng.choice(self.positions, size=self.row[3], replace=False)
        return np.flatnonzero(_scatter(self.config.n_pairs, drawn, True, False))

    def without(self, removed: np.ndarray) -> np.ndarray:
        """The surviving positions not in `removed`, a subset of them."""
        return self.positions[~_scatter(self.config.n_pairs, removed, True, False)[self.positions]]

    def sample_event(self, sampled: np.ndarray) -> None:
        """Announce the positions the plan row's check has sampled."""
        self.transcript.append("sample_positions", check=self.row[1], positions=sampled)

    def settle(self, samples: int, mismatches: int, sampled: np.ndarray | None = None) -> None:
        """Report the plan row's check, retire the `sampled` positions it
        consumed and move on to the next row; an abort verdict ends the run
        here.  Raise RuntimeError, naming the check, if no row is left or
        the row plans another sample count: the steps broke the plan."""
        if self.row is None:
            raise RuntimeError(f"a check settled after {self.checks[-1].check_id}, the plan's last")
        _, check_id, _, planned = self.row
        if samples != planned:
            raise RuntimeError(f"{check_id} settled {samples} samples; its plan row has {planned}")
        self.row = next(self.rows, None)
        report = CheckReport(check_id, samples, mismatches, self.threshold)
        self.transcript.append("check_report", **report.to_dict())
        self.checks.append(report)
        if sampled is not None:
            self.positions = self.without(sampled)
        if report.verdict == "abort":
            raise _Abort(check_id)

    def announce(self, party: str, agent: Any, positions: np.ndarray) -> np.ndarray:
        """`party`'s `agent` publishes its operations on the sorted
        `positions` for the plan row's check, or for collaboration once
        every row has settled; returns them."""
        check, kind = ("collaboration",) * 2 if self.row is None else self.row[1:3]
        ops = agent.publish(positions, kind)
        self.transcript.append(
            "publish_ops", check=check, party=party, positions=positions, ops=ops
        )
        return ops

    def record_ops(self, kind: str, positions: np.ndarray, ops: np.ndarray, **party: str) -> None:
        """Record privately, for analysis, the position-indexed codes `ops`
        at the sorted `positions`, with the agent's ``party`` name when
        given."""
        self.transcript.append(
            kind, private=True, **party, positions=positions, ops=ops[positions]
        )

    def encode(self, positions: np.ndarray) -> np.ndarray:
        """Draw the dealer's message, two bits per position, and return
        the code of the Pauli that encodes each position's pair of bits,
        indexed by position (-1 elsewhere)."""
        bits = self.rng_dealer.integers(2, size=2 * len(positions))
        self.dealer_bits = bits.tolist()
        return _scatter(self.config.n_pairs, positions, 2 * bits[0::2] + bits[1::2])

    def encrypt(
        self, photons: np.ndarray, rng: np.random.Generator, gates: np.ndarray
    ) -> np.ndarray:
        """One party's pass over its surviving photons: at each surviving
        position the gate whose code `gates`, an array over positions,
        holds there (H or a Pauli), or a fresh random Pauli from `rng`
        where it holds -1.  `gates` is not modified.  Returns the Pauli
        codes, indexed by position (I where no Pauli was applied)."""
        positions = self.positions
        gates = gates[positions]
        free = gates < 0
        gates[free] = _random_paulis(rng, np.count_nonzero(free))
        self.register.apply_gates(photons[positions], gates)
        ops = np.where(gates == SingleGate.H, PauliOp.I, gates)
        return _scatter(self.config.n_pairs, positions, ops, PauliOp.I)

    def readout(self) -> np.ndarray:
        """The reader's Bell measurement of every surviving pair, decoded
        to the code of the total Pauli applied to it, indexed by
        position."""
        outcomes = self.register.measure_bells(
            self.dealer[self.positions], self.partner[self.positions]
        )
        return _scatter(self.config.n_pairs, self.positions, BELL_CODES[outcomes], PauliOp.I)

    def collaborate(self, reader: str, totals: np.ndarray, agents: dict[str, Any]) -> None:
        """Each party's agent in `agents` publishes its operation on every
        surviving position; `reader` strips them from the readout and
        decodes the dealer's message."""
        positions = self.positions
        self.transcript.append("collaboration_positions", positions=positions)
        dealer_codes = totals[positions]
        for party, agent in agents.items():
            dealer_codes = dealer_codes ^ self.announce(party, agent, positions)
        self.recovered = decode_message(dealer_codes)
        self.transcript.append("recovered", party=reader, bits=_bits_str(self.recovered))


class _Agent:
    """An honest agent of `run`, asked what a `SwapAttack` first agent is
    asked.  ``ops`` holds the Pauli codes of his last `forward`, indexed by
    position."""

    def __init__(self, run: _Run, rng: np.random.Generator) -> None:
        self.run = run
        self.rng = rng

    def forward(self, positions: np.ndarray, photons: np.ndarray, honest: np.ndarray) -> np.ndarray:
        """Encrypt every surviving photon, Hadamard-rotating the ones at
        the `honest` positions, his sample (empty in the original
        protocol), and a fresh random Pauli on the rest (see
        `_Run.encrypt`), and forward them all: `positions`, the ones an
        attacker would swap out, need no other treatment."""
        self.ops = self.run.encrypt(photons, self.rng, _scatter(len(photons), honest, SingleGate.H))
        return photons

    def publish(self, positions: np.ndarray, kind: str) -> np.ndarray:
        """His true operations on `positions`, whatever the check."""
        return self.ops[positions]

    def intercept_dealer(self, positions: np.ndarray, photons: np.ndarray) -> np.ndarray:
        """The dealer's photons pass him by untouched."""
        return photons


# ---------------------------------------------------------------------------
# original three-party protocol


def _original_steps(run: _Run) -> None:
    rng_alice = run.rng_dealer
    rng_bob, rng_charlie = run.streams(2)
    bob = run.attack or _Agent(run, rng_bob)
    run.prepare("bob")
    run.dealer = run.transmit(run.dealer, "alice")

    # First eavesdropping check (Alice-Bob).
    q1 = run.draw(rng_alice)
    run.sample_event(q1)
    zx_check(run, q1, PauliOp.I, rng_bob)

    # Bob encrypts his sequence and sends it to Charlie -- or, attacking,
    # substitutes halves of his own pairs.
    bob_positions = run.positions
    no_samples = run.positions[:0]
    run.partner = run.transmit(bob.forward(run.positions, run.partner, no_samples), "charlie")

    # Second eavesdropping check (Alice-Charlie), with Bob's operations
    # published first.
    q2 = run.draw(rng_alice)
    run.sample_event(q2)
    zx_check(run, q2, run.announce("bob", bob, q2), rng_charlie)

    # Alice picks her own samples, encodes the message elsewhere, and
    # sends her sequence to Charlie, past Bob.
    q3 = run.draw(rng_alice)
    message_positions = run.without(q3)
    alice_ops = run.encrypt(run.dealer, rng_alice, run.encode(message_positions))
    run.dealer = run.transmit(bob.intercept_dealer(run.positions, run.dealer), "charlie")

    # Charlie's Bell readout over every surviving position.
    totals = run.readout()
    run.record_ops("totals", run.positions, totals)
    run.record_ops("alice_ops", run.positions, alice_ops)
    if run.attack is None:
        run.record_ops("bob_ops", bob_positions, bob.ops)
    run.transcript.append("message_positions", private=True, positions=message_positions)

    # Final sample check: Charlie's outcomes against Alice's and Bob's
    # announced operations.
    run.sample_event(q3)
    # The reader's decoded totals, Pauli codes and not Bell outcomes.
    run.transcript.append("bell_outcomes", check=run.row[1], positions=q3, ops=totals[q3])
    published = run.announce("bob", bob, q3)
    mismatches = int(np.count_nonzero(totals[q3] != alice_ops[q3] ^ published))
    run.settle(len(q3), mismatches, q3)

    # Collaboration: Bob publishes his operations on the message
    # positions and Charlie decodes.
    run.collaborate("charlie", totals, {"bob": bob})
    if run.attack is not None:
        run.eavesdropper_bits = decode_message(run.attack.inferred[run.positions])


def run_original(config: ScenarioConfig) -> RunReport:
    """One run of the original protocol (dealer Alice, agents Bob and
    Charlie) against the configured adversary."""
    return _Run(config, "original").execute(_original_steps, "charlie")


# ---------------------------------------------------------------------------
# improved M-agent protocol


def _improved_steps(run: _Run) -> None:
    rng_agents = run.streams(run.config.agent_count - 1)
    run.prepare("alice")
    run.partner = run.transmit(run.partner, "agent0")

    # Step 2: Z/X check between the dealer and the first agent.
    q = run.draw(run.rng_dealer)
    run.sample_event(q)
    zx_check(run, q, PauliOp.I, rng_agents[0])

    # Steps 3-6: the encryption chain through agents 0..M-2, the first of
    # them possibly the attacker.
    agents = [run.attack or _Agent(run, rng_agents[0])]
    agents += [_Agent(run, rng) for rng in rng_agents[1:]]
    for k, agent in enumerate(agents):
        samples = run.draw(rng_agents[k])
        rest = run.without(samples)
        run.partner = agent.forward(rest, run.partner, samples)
        if agent is not run.attack:
            run.record_ops("agent_ops", rest, agent.ops, party=f"agent{k}")

        run.partner = run.transmit(run.partner)
        run.sample_event(samples)
        _, check_id, kind, _ = run.row

        # Publication of the earlier agents' operations on the sampled
        # photons; agent k itself only Hadamard-rotated them.
        published = PauliOp.I
        if k > 0:
            # Row j of `ops` holds agent j's operations.
            layers = np.array([a.publish(samples, kind) for a in agents[:k]])
            published = np.bitwise_xor.reduce(layers)
            run.transcript.append("publish_ops", check=check_id, positions=samples, ops=layers)

        # The receiver, the next agent or the dealer, undoes agent k's
        # Hadamard before the check.
        run.register.apply_gates(run.partner[samples], np.full(len(samples), SingleGate.H))
        if kind == "zx":
            zx_check(run, samples, published, rng_agents[k + 1])
        else:
            verify_step6(run, samples, published)

    # Step 7: message encoding.
    alice_ops = run.encode(run.positions)
    run.encrypt(run.dealer, run.rng_dealer, alice_ops)
    run.record_ops("alice_ops", run.positions, alice_ops)
    run.transcript.append("message_positions", private=True, positions=run.positions)

    # Steps 7-9: both sequences go to the last agent behind checking photons.
    run.partner = decoy_round(run, run.partner)
    run.dealer = decoy_round(run, run.dealer)

    # Step 10: Bell readout by the last agent.
    totals = run.readout()
    run.record_ops("totals", run.positions, totals)

    # Step 11: collaboration.
    run.collaborate("zach", totals, {f"agent{k}": agent for k, agent in enumerate(agents)})


def run_improved(config: ScenarioConfig) -> RunReport:
    """One run of the improved protocol with agent_count agents; agent 0
    is the first chain agent, agent M-2 the last one before the sequence
    returns to the dealer, and agent M-1 the final receiver, who draws
    nothing and so has no stream."""
    return _Run(config, "improved").execute(_improved_steps, "zach")


def run_trial(config: ScenarioConfig) -> RunReport:
    """Dispatch on the configured protocol mode; `run_original` refuses
    any protocol but the two."""
    if config.protocol == "improved":
        return run_improved(config)
    return run_original(config)
