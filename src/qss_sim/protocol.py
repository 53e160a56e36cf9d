"""Protocol orchestration for EPR-pair secret splitting.

Two modes are implemented over the same statevector register, public
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
Pauli encryption, Bell readout, collaboration).  Every check report goes
through ``_Run.settle``, which retires the sampled positions and ends
the run on an abort verdict; ``_Run.execute`` builds the one RunReport.

A run is fully deterministic given (config, master seed): every random
choice comes from a stream spawned from the master seed in a fixed
order, so identical configs replay byte-identical transcripts.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .adversaries import (
    AdversarySpec,
    EveInterceptResend,
    SwapAttackImproved,
    SwapAttackOriginal,
    _random_paulis,
)
from .pauli import (
    Basis,
    BellLabel,
    PauliOp,
    compose,
    compose_all,
    decode_bell_to_pauli,
    decode_message,
    encode_message,
    expected_parity,
    recover_dealer_pauli,
)
from .register import PAULI_GATES, Register, SingleGate, SingleState


class ConfigError(ValueError):
    """A scenario or batch configuration is unusable."""


# ---------------------------------------------------------------------------
# configuration and reports


@dataclass(frozen=True)
class ScenarioConfig:
    protocol: str = "original"
    n_pairs: int = 64
    master_seed: int = 0
    agent_count: int = 2
    sample_fraction: float = 0.25
    step6_sample_count: int | None = None
    checking_photon_count: int = 8
    error_threshold: float = 0.0
    adversary: AdversarySpec = field(default_factory=AdversarySpec)

    def to_dict(self) -> dict[str, Any]:
        d = dataclasses.asdict(self)
        d["adversary"] = dataclasses.asdict(self.adversary)
        return d


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


class Transcript:
    """Append-only public log of classical announcements."""

    def __init__(self) -> None:
        self.events: list[dict[str, Any]] = []

    def append(self, kind: str, **payload: Any) -> None:
        self.events.append({"kind": kind, **payload})

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
    # Analysis-only data (per-position Paulis etc.); never serialized.
    extra: dict[str, Any] = field(default_factory=dict)

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


def _bits_str(bits: list[int]) -> str:
    return "".join(str(b) for b in bits)


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


def validate_config(config: ScenarioConfig) -> None:
    """Raise ConfigError if the scenario cannot run to completion."""
    if config.protocol not in ("original", "improved"):
        raise ConfigError(f"unknown protocol {config.protocol!r}")
    if config.n_pairs < 2:
        raise ConfigError("n_pairs must be at least 2")
    if not 0.0 < config.sample_fraction < 1.0:
        raise ConfigError("sample_fraction must lie in (0, 1)")
    if not 0.0 <= config.error_threshold <= 1.0:
        raise ConfigError("error_threshold must lie in [0, 1]")
    if config.checking_photon_count < 0:
        raise ConfigError("checking_photon_count must be non-negative")
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


_BASES = (Basis.Z, Basis.X)
_DECOY_STATES = (SingleState.ZERO, SingleState.ONE, SingleState.PLUS, SingleState.MINUS)


def _transmit(
    hop: str,
    photons: list[int],
    eve: EveInterceptResend | None,
    transcript: Transcript,
) -> list[int]:
    transcript.append("transmit", hop=hop, count=len(photons))
    if eve is not None and eve.hop == hop:
        return eve.intercept_sequence(photons)
    return photons


def zx_check(
    check_id: str,
    positions: list[int],
    remote_photons: dict[int, int],
    local_photons: dict[int, int],
    expected: dict[int, PauliOp],
    register: Register,
    rng_remote: np.random.Generator,
    transcript: Transcript,
    threshold: float,
    remote_applies_h: bool = False,
) -> CheckReport:
    """Z/X correlation check over sampled singlet pairs.

    For each sampled position the remote party measures its photon in a
    random basis and announces basis and result; the local party measures
    the partner in the same basis.  The outcome parity must match the
    Bell correlation of the pair's announced Pauli shift."""
    order = sorted(positions)
    bases = [_BASES[x] for x in (rng_remote.random(len(order)) < 0.5).tolist()]
    remote = [remote_photons[pos] for pos in order]
    if remote_applies_h:
        register.apply_gates(remote, [SingleGate.H] * len(remote))
    # Remote before local at each position: [r0, l0, r1, l1, ...].
    photons = [p for pair in zip(remote, (local_photons[pos] for pos in order)) for p in pair]
    results = register.measure_singles(photons, [b for b in bases for _ in (0, 1)])
    mismatches = 0
    for pos, basis, remote_out, local_out in zip(order, bases, results[::2], results[1::2]):
        transcript.append(
            "zx_remote",
            check=check_id,
            position=pos,
            basis=basis.value,
            result=remote_out,
        )
        transcript.append(
            "zx_local", check=check_id, position=pos, result=local_out
        )
        if (remote_out ^ local_out) != expected_parity(expected[pos], basis):
            mismatches += 1
    report = CheckReport(check_id, len(positions), mismatches, threshold)
    transcript.append("check_report", **report.to_dict())
    return report


def decoy_round(
    check_id: str,
    register: Register,
    rng_dealer: np.random.Generator,
    count: int,
    payload: list[int],
    hop: str,
    eve: EveInterceptResend | None,
    transcript: Transcript,
    threshold: float,
) -> tuple[CheckReport, list[int]]:
    """Send `payload` photons with `count` checking photons mixed in at
    secret positions; after transit, announce positions and preparation
    bases, measure the checking photons, and compare with preparation.

    Returns the check report and the payload photons (ids may have been
    replaced in transit) in their original order."""
    states = [_DECOY_STATES[k] for k in rng_dealer.integers(4, size=count).tolist()]
    decoys = iter(register.prepare_singles(states))
    total = len(payload) + count
    slots = set(
        int(i) for i in rng_dealer.choice(total, size=count, replace=False)
    )
    # The k-th checking photon sits at the k-th slot, in slot order.
    ordered_slots = sorted(slots)
    rest = iter(payload)
    sequence = [next(decoys) if slot in slots else next(rest) for slot in range(total)]
    received = _transmit(hop, sequence, eve, transcript)
    transcript.append(
        "decoy_positions",
        check=check_id,
        slots=ordered_slots,
        bases=[s.basis.value for s in states],
    )
    outcomes = register.measure_singles(
        [received[slot] for slot in ordered_slots], [s.basis for s in states]
    )
    mismatches = 0
    for slot, state, outcome in zip(ordered_slots, states, outcomes):
        transcript.append(
            "decoy_result", check=check_id, slot=slot, result=outcome
        )
        if outcome != state.bit:
            mismatches += 1
    out_payload = [photon for slot, photon in enumerate(received) if slot not in slots]
    report = CheckReport(check_id, count, mismatches, threshold)
    transcript.append("check_report", **report.to_dict())
    return report, out_payload


def verify_step6(
    positions: list[int],
    published: dict[int, PauliOp],
    dealer_photons: dict[int, int],
    returned_photons: dict[int, int],
    register: Register,
    transcript: Transcript,
    threshold: float,
) -> CheckReport:
    """The dealer's own verification of the returned sequence.

    For each sampled position the dealer undoes the last agent's
    Hadamard, Bell-measures the returned photon against its retained
    partner, and requires the decoded Pauli to equal the XOR of the
    agents' published operations."""
    order = sorted(positions)
    returned = [returned_photons[pos] for pos in order]
    register.apply_gates(returned, [SingleGate.H] * len(returned))
    labels = register.measure_bells([dealer_photons[pos] for pos in order], returned)
    outcomes = {pos: label.name for pos, label in zip(order, labels)}
    mismatches = sum(
        decode_bell_to_pauli(label) != published[pos] for pos, label in zip(order, labels)
    )
    report = CheckReport("step6_check", len(positions), mismatches, threshold)
    transcript.append("bell_outcomes", check="step6_check", outcomes=outcomes)
    transcript.append("check_report", **report.to_dict())
    return report


class _Abort(Exception):
    """A check's verdict ended the run."""


class _Run:
    """One trial: its streams, register, adversaries and transcript, the
    two halves of every surviving pair, and the steps both protocol
    modes share.

    ``dealer`` maps each surviving position to the dealer's half of its
    pair, ``partner`` to the other half; both always hold exactly the
    positions in ``positions``, which stays sorted."""

    def __init__(
        self, config: ScenarioConfig, protocol: str, n_parties: int, attack_cls
    ) -> None:
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
        self.attack = None
        if adv.kind == "eve_intercept_resend":
            self.eve = EveInterceptResend(self.register, rng_adv, adv)
        elif adv.kind == "bob_swap_attack":
            self.attack = attack_cls(self.register, rng_adv, adv)
        self.config = config
        self.threshold = config.error_threshold
        self.transcript = Transcript()
        self.checks: list[CheckReport] = []
        self.positions = list(range(config.n_pairs))
        self.dealer: dict[int, int] = {}
        self.partner: dict[int, int] = {}
        self.dealer_bits: list[int] = []
        self.recovered: list[int] | None = None
        self.eavesdropper_bits: list[int] | None = None
        # Analysis-only data, as far as the run got.
        self.extra: dict[str, Any] = {}

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
            extra=self.extra,
        )

    def prepare(self, party: str) -> None:
        """`party` prepares one singlet per position; the dealer's half is
        the first photon of each pair."""
        first, second = self.register.prepare_bells(len(self.positions), BellLabel.PSI_MINUS)
        self.dealer = dict(zip(self.positions, first))
        self.partner = dict(zip(self.positions, second))
        self.transcript.append("prepare", party=party, pairs=self.config.n_pairs)

    def transmit(
        self, hop: str, photons: dict[int, int], party: str | None = None
    ) -> dict[int, int]:
        """Send one photon per surviving position over `hop` and log its
        receipt; returns the photons that arrive."""
        out = _transmit(
            hop, [photons[p] for p in self.positions], self.eve, self.transcript
        )
        receipt = {} if party is None else {"party": party}
        self.transcript.append("receipt", **receipt, hop=hop)
        return dict(zip(self.positions, out))

    def draw(self, rng: np.random.Generator, count: int | None = None) -> list[int]:
        """Sample `count` surviving positions (by default the configured
        fraction of them), sorted."""
        if count is None:
            count = _sample_size(len(self.positions), self.config.sample_fraction)
        picked = rng.choice(np.array(self.positions), size=count, replace=False)
        return sorted(int(p) for p in picked)

    def settle(self, report: CheckReport, sampled: list[int]) -> None:
        """Record a check and retire the positions it consumed; an abort
        verdict ends the run here."""
        self.checks.append(report)
        retired = set(sampled)
        self.positions = [p for p in self.positions if p not in retired]
        for p in sampled:
            del self.dealer[p], self.partner[p]
        if report.verdict == "abort":
            raise _Abort(report.check_id)

    def check_pairs(
        self,
        check_id: str,
        sampled: list[int],
        expected: dict[int, PauliOp],
        rng_remote: np.random.Generator,
        remote_applies_h: bool = False,
    ) -> None:
        """Z/X check of the sampled pairs: the partner's holder measures
        first, the dealer second."""
        report = zx_check(
            check_id,
            sampled,
            self.partner,
            self.dealer,
            expected,
            self.register,
            rng_remote,
            self.transcript,
            self.threshold,
            remote_applies_h=remote_applies_h,
        )
        self.settle(report, sampled)

    def announce(self, check: str, party: str, ops: dict[int, PauliOp]) -> None:
        """`party` publishes its operations on some positions."""
        names = {p: ops[p].name for p in sorted(ops)}
        self.transcript.append("publish_ops", check=check, party=party, ops=names)

    def encode(self, positions: list[int]) -> dict[int, PauliOp]:
        """Draw the dealer's message, two bits per position, and return
        the Pauli that encodes each position's pair of bits."""
        self.dealer_bits = self.rng_dealer.integers(2, size=2 * len(positions)).tolist()
        return dict(zip(positions, encode_message(self.dealer_bits)))

    def encrypt(
        self,
        photons: dict[int, int],
        rng: np.random.Generator,
        fixed: dict[int, PauliOp] | None = None,
        rotated: set[int] | frozenset[int] = frozenset(),
    ) -> dict[int, PauliOp]:
        """One party's pass over its surviving photons: H at `rotated`
        positions, the `fixed` Pauli where one is given, and a fresh
        random Pauli from `rng` everywhere else.  Returns the Paulis."""
        fixed = fixed or {}
        ops = {pos: fixed.get(pos) for pos in self.positions if pos not in rotated}
        free = [pos for pos, op in ops.items() if op is None]
        ops.update(zip(free, _random_paulis(rng, len(free))))
        gates = [
            SingleGate.H if pos in rotated else PAULI_GATES[ops[pos]] for pos in self.positions
        ]
        self.register.apply_gates([photons[pos] for pos in self.positions], gates)
        return ops

    def readout(self) -> dict[int, PauliOp]:
        """The reader's Bell measurement of every surviving pair, decoded
        to the total Pauli applied to it."""
        outcomes = self.register.measure_bells(
            [self.dealer[pos] for pos in self.positions],
            [self.partner[pos] for pos in self.positions],
        )
        return {
            pos: decode_bell_to_pauli(outcome)
            for pos, outcome in zip(self.positions, outcomes)
        }

    def collaborate(self, reader: str, totals: dict[int, PauliOp], publishers) -> None:
        """Each (party, publish) in `publishers` announces its operation on
        every surviving position; `reader` strips them from the readout
        and decodes the dealer's message."""
        positions = self.positions
        self.transcript.append("collaboration_positions", positions=positions)
        layers: list[dict[int, PauliOp]] = []
        for party, publish in publishers:
            layers.append({pos: publish(pos) for pos in positions})
            self.announce("collaboration", party, layers[-1])
        self.recovered = decode_message(
            [recover_dealer_pauli(totals[p], [o[p] for o in layers]) for p in positions]
        )
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
    run.transcript.append("sample_positions", check="zx_check_1", positions=q1)
    run.check_pairs("zx_check_1", q1, {p: PauliOp.I for p in q1}, rng_bob)

    # Bob encrypts his sequence and sends it to Charlie -- or substitutes
    # halves of his own pairs.
    bob_ops: dict[int, PauliOp] = {}
    if attack is not None:
        run.partner = attack.on_send_to_third_party(run.partner)
    else:
        bob_ops = run.encrypt(run.partner, rng_bob)
    run.partner = run.transmit("bob->charlie", run.partner, "charlie")

    # Second eavesdropping check (Alice-Charlie), with Bob's operations
    # published first.
    q2 = run.draw(rng_alice)
    run.transcript.append("sample_positions", check="zx_check_2", positions=q2)
    if attack is not None:
        announced = attack.on_check_positions_announced(q2)
    else:
        announced = {p: bob_ops[p] for p in q2}
    run.announce("zx_check_2", "bob", announced)
    run.check_pairs("zx_check_2", q2, announced, rng_charlie)

    # Alice picks her own samples, encodes the message elsewhere, and
    # sends her sequence to Charlie.
    q3 = run.draw(rng_alice)
    sampled = set(q3)
    message_positions = [p for p in run.positions if p not in sampled]
    alice_ops = run.encrypt(run.dealer, rng_alice, fixed=run.encode(message_positions))
    if attack is not None:
        run.dealer = attack.on_intercept_dealer_sequence(run.dealer)
    run.dealer = run.transmit("alice->charlie", run.dealer, "charlie")

    # Charlie's Bell readout over every surviving position.
    totals = run.readout()

    # Final sample check: Charlie's outcomes against Alice's and Bob's
    # announced operations.
    run.transcript.append("sample_positions", check="final_sample_check", positions=q3)
    run.transcript.append(
        "bell_outcomes",
        check="final_sample_check",
        outcomes={p: totals[p].name for p in q3},
    )
    published = {
        p: attack.check_op(p) if attack is not None else bob_ops[p] for p in q3
    }
    run.announce("final_sample_check", "bob", published)
    mism = sum(1 for p in q3 if totals[p] != compose(alice_ops[p], published[p]))
    report = CheckReport("final_sample_check", len(q3), mism, run.threshold)
    run.transcript.append("check_report", **report.to_dict())
    run.extra = {
        "totals": totals,
        "alice_ops": alice_ops,
        "bob_ops": bob_ops,
        "message_positions": message_positions,
    }
    run.settle(report, q3)

    # Collaboration: Bob publishes his operations on the message
    # positions and Charlie decodes.
    bob_publish = attack.published_op if attack is not None else lambda p: bob_ops[p]
    run.collaborate("charlie", totals, [("bob", bob_publish)])
    if attack is not None:
        run.eavesdropper_bits = decode_message([attack.inferred[p] for p in run.positions])


def run_original(config: ScenarioConfig) -> RunReport:
    """One run of the original protocol (dealer Alice, agents Bob and
    Charlie) against the configured adversary."""
    run = _Run(config, "original", 2, SwapAttackOriginal)
    return run.execute(_original_steps, "charlie")


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
    run.transcript.append("sample_positions", check="zx_check_step2", positions=q)
    run.check_pairs("zx_check_step2", q, {p: PauliOp.I for p in q}, rng_agents[0])

    # Steps 3-6: the encryption chain through agents 0..M-2.
    agent_ops: list[dict[int, PauliOp]] = [dict() for _ in range(m)]
    run.extra["agent_ops"] = agent_ops

    def publisher(j: int, attack_move: str):
        """How agent j announces its operation on a position; the
        dishonest first agent answers with the attack's `attack_move`."""
        if j == 0 and attack is not None:
            return getattr(attack, attack_move)
        return lambda pos: agent_ops[j].get(pos, PauliOp.I)

    for k in range(m - 1):
        last_chain_agent = k == m - 2
        count = run.config.step6_sample_count if last_chain_agent else None
        samples = run.draw(rng_agents[k], count)
        if k == 0 and attack is not None:
            run.partner = attack.on_forward(run.partner, samples)
        else:
            agent_ops[k] = run.encrypt(run.partner, rng_agents[k], rotated=set(samples))

        hop = f"agent{k}->agent{k + 1}" if not last_chain_agent else f"agent{k}->alice"
        check_id = f"hop_check_{k}" if not last_chain_agent else "step6_check"
        move = "publish_for_hop_check" if not last_chain_agent else "publish_for_step6"
        run.partner = run.transmit(hop, run.partner)
        run.transcript.append("sample_positions", check=check_id, positions=samples)

        # Publication of the earlier agents' operations on the sampled
        # photons; agent k itself only Hadamard-rotated them.
        announcers = [publisher(j, move) for j in range(k)]
        layers = [{p: publish(p) for p in samples} for publish in announcers]
        published = {p: compose_all(ops[p] for ops in layers) for p in samples}
        if layers:
            names = {
                f"agent{j}": {p: op.name for p, op in ops.items()}
                for j, ops in enumerate(layers)
            }
            run.transcript.append("publish_ops", check=check_id, ops=names)

        if not last_chain_agent:
            # The receiving agent undoes the Hadamard and the pair is
            # checked with the usual Z/X procedure.
            run.check_pairs(
                check_id, samples, published, rng_agents[k + 1], remote_applies_h=True
            )
        else:
            report = verify_step6(
                samples,
                published,
                run.dealer,
                run.partner,
                run.register,
                run.transcript,
                run.threshold,
            )
            run.settle(report, samples)

    # Step 7: message encoding.
    alice_ops = run.encode(run.positions)
    run.encrypt(run.dealer, run.rng_dealer, fixed=alice_ops)
    run.extra.update(alice_ops=alice_ops, message_positions=run.positions)

    # Steps 7-9: both sequences go to the last agent behind checking photons.
    run.partner = _guarded(run, "decoy_check_t", "alice->zach:t", run.partner)
    run.dealer = _guarded(run, "decoy_check_a", "alice->zach:a", run.dealer)

    # Step 10: Bell readout by the last agent.
    totals = run.readout()
    run.extra["totals"] = totals

    # Step 11: collaboration.
    publishers = [(f"agent{k}", publisher(k, "publish_final")) for k in range(m - 1)]
    run.collaborate("zach", totals, publishers)


def _guarded(
    run: _Run, check_id: str, hop: str, photons: dict[int, int]
) -> dict[int, int]:
    """Send one photon per surviving position to the last agent with the
    dealer's checking photons mixed in; returns the photons that arrive."""
    report, received = decoy_round(
        check_id,
        run.register,
        run.rng_dealer,
        run.config.checking_photon_count,
        [photons[p] for p in run.positions],
        hop,
        run.eve,
        run.transcript,
        run.threshold,
    )
    run.settle(report, [])
    return dict(zip(run.positions, received))


def run_improved(config: ScenarioConfig) -> RunReport:
    """One run of the improved protocol with agent_count agents; agent 0
    is the first chain agent, agent M-2 the last one before the sequence
    returns to the dealer, and agent M-1 the final receiver."""
    run = _Run(config, "improved", config.agent_count, SwapAttackImproved)
    return run.execute(_improved_steps, "zach")


def run_trial(config: ScenarioConfig) -> RunReport:
    """Dispatch on the configured protocol mode."""
    if config.protocol == "original":
        return run_original(config)
    if config.protocol == "improved":
        return run_improved(config)
    raise ConfigError(f"unknown protocol {config.protocol!r}")
