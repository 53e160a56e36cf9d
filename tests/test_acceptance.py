"""Acceptance gate: end-to-end statistical claims of the simulator.

Each test prints one ``[PASS]``/``[FAIL]`` line (run pytest with ``-s``
to see them inline) and asserts the corresponding claim:

1. honest three-party runs complete with zero detections and exact decode;
2. the swap attack on the three-party protocol is invisible and reads the
   whole message;
3. the reader decodes exactly iff the dishonest agent publishes his true
   operations, and a falsified publication corrupts ~3/4 of the symbols;
4. honest chain runs complete for 2-5 agents with exact positionwise
   decomposition of the readout;
5. the chain protocol's dealer verification defeats the swap attack with
   the per-sample pass rate the amplitude oracle predicts;
6. intercept-resend error rates match the closed-form enumerations;
7. the label algebra never disagrees with the statevector engine;
8. norms stay within 1e-12 under fuzzing and batch output is
   byte-identical.
"""

import math
import time

import numpy as np

from qss_sim.adversaries import AdversarySpec
from qss_sim.harness import BatchSpec, jsonl_report, run_batch
from qss_sim.oracles import (
    bell_pauli_table,
    decoy_error_rate,
    intercept_resend_check_error,
    swap_attack_step6_pass_rate,
    swap_table,
)
from qss_sim.pauli import BellLabel, PauliOp, compose, compose_all, decode_bell_to_pauli, swap_rule
from qss_sim.protocol import ScenarioConfig, run_improved, run_original
from qss_sim.register import Basis, Register, SingleGate, SingleState

from private_records import private_record


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_acceptance_1_honest_original():
    start = time.perf_counter()
    spec = BatchSpec(
        scenario=ScenarioConfig(protocol="original", n_pairs=64),
        trials=100,
        seed_base=1000,
    )
    stats, reports = run_batch(spec)
    elapsed = time.perf_counter() - start
    exact = all(r.recovered["charlie"] == r.dealer_message for r in reports)
    ok = stats.detection_frequency == 0.0 and exact and elapsed < 5.0
    _verdict(
        "honest original protocol",
        ok,
        f"detection {stats.detection_frequency}, exact decode {exact}, "
        f"{elapsed:.2f}s for 100 trials",
    )


def test_acceptance_2_swap_attack_success():
    spec = BatchSpec(
        scenario=ScenarioConfig(
            protocol="original",
            n_pairs=64,
            adversary=AdversarySpec(kind="bob_swap_attack"),
        ),
        trials=100,
        seed_base=2000,
    )
    stats, _ = run_batch(spec)
    ok = (
        stats.detection_frequency == 0.0
        and stats.eavesdropper_exact_frequency == 1.0
    )
    _verdict(
        "undetected full readout by the dishonest agent",
        ok,
        f"detection {stats.detection_frequency}, "
        f"eavesdropper exact {stats.eavesdropper_exact_frequency}",
    )


def test_acceptance_3_reader_conditional_on_true_publication():
    base = dict(protocol="original", n_pairs=2048, sample_fraction=0.125, master_seed=30)
    truthful = run_original(
        ScenarioConfig(adversary=AdversarySpec(kind="bob_swap_attack"), **base)
    )
    falsified = run_original(
        ScenarioConfig(
            adversary=AdversarySpec(kind="bob_swap_attack", publish_true_ops=False),
            **base,
        )
    )
    n_sym = len(falsified.dealer_message) // 2
    assert n_sym >= 1000
    truth_exact = truthful.recovered["charlie"] == truthful.dealer_message
    rec, dealer = falsified.recovered["charlie"], falsified.dealer_message
    sym_diff = sum(
        rec[2 * i : 2 * i + 2] != dealer[2 * i : 2 * i + 2] for i in range(n_sym)
    ) / n_sym
    ok = truth_exact and abs(sym_diff - 0.75) <= 0.05
    _verdict(
        "reader decode conditional on truthful publication",
        ok,
        f"truthful exact {truth_exact}, falsified symbol-diff {sym_diff:.3f} "
        f"over {n_sym} positions (expect 0.75 +/- 0.05)",
    )


def test_acceptance_4_honest_improved_all_chain_lengths():
    start = time.perf_counter()
    detections = 0
    exact = True
    decomposition_ok = True
    for agents in (2, 3, 4, 5):
        spec = BatchSpec(
            scenario=ScenarioConfig(
                protocol="improved", n_pairs=128, agent_count=agents
            ),
            trials=25,
            seed_base=4000 + agents,
        )
        stats, reports = run_batch(spec)
        detections += round(stats.detection_frequency * stats.trials)
        for r in reports:
            exact &= r.recovered["zach"] == r.dealer_message
            record = private_record(r)
            totals, alice = record["totals"], record["alice_ops"]
            for pos in record["message_positions"]:
                layered = [alice[pos]] + [
                    ops.get(pos, PauliOp.I) for ops in record["agent_ops"]
                ]
                decomposition_ok &= totals[pos] == compose_all(layered)
    elapsed = time.perf_counter() - start
    ok = detections == 0 and exact and decomposition_ok and elapsed < 30.0
    _verdict(
        "honest chain protocol, 2-5 agents",
        ok,
        f"detections {detections}/100, exact decode {exact}, positionwise "
        f"decomposition {decomposition_ok}, {elapsed:.2f}s",
    )


def test_acceptance_5_improved_defeats_swap_attack():
    p_pass = swap_attack_step6_pass_rate()  # amplitude oracle: 0.25
    trials = 500
    spec = BatchSpec(
        scenario=ScenarioConfig(
            protocol="improved",
            n_pairs=64,
            agent_count=3,
            step6_sample_count=8,
            adversary=AdversarySpec(kind="bob_swap_attack"),
        ),
        trials=trials,
        seed_base=5000,
    )
    stats, _ = run_batch(spec)
    cs = stats.check_stats["step6_check"]
    empirical_pass = 1.0 - cs.mean_error_rate
    expected_detection = 1.0 - p_pass**8
    sigma = math.sqrt(expected_detection * (1.0 - expected_detection) / trials)
    det_dev = abs(stats.detection_frequency - expected_detection)
    ok = (
        cs.total_samples == trials * 8
        and abs(empirical_pass - p_pass) <= 0.03
        and det_dev <= 3.0 * sigma + 0.5 / trials
    )
    _verdict(
        "chain protocol defeats the swap attack",
        ok,
        f"per-sample pass {empirical_pass:.4f} (oracle {p_pass}), detection "
        f"{stats.detection_frequency:.4f} (expect {expected_detection:.6f} "
        f"+/- 3 sigma)",
    )


def test_acceptance_6_intercept_resend_baselines():
    # (a) Z/X-check error with a uniform-basis interceptor on a hop.
    samples = mism = 0
    seed = 60
    while samples < 2000:
        rep = run_original(
            ScenarioConfig(
                protocol="original",
                n_pairs=4096,
                sample_fraction=0.5,
                master_seed=seed,
                adversary=AdversarySpec(kind="eve_intercept_resend", hop="bob->alice"),
            )
        ).checks[0]
        samples += rep.samples
        mism += rep.mismatches
        seed += 1
    zx_err = mism / samples
    zx_oracle = intercept_resend_check_error("uniform")

    # (b) fixed-basis interceptor against four-state checking photons.
    rep = run_improved(
        ScenarioConfig(
            protocol="improved",
            n_pairs=32,
            agent_count=2,
            checking_photon_count=2000,
            master_seed=61,
            adversary=AdversarySpec(
                kind="eve_intercept_resend",
                hop="alice->zach:t",
                basis_policy="fixed-Z",
            ),
        )
    )
    decoy = {c.check_id: c for c in rep.checks}["decoy_check_t"]
    decoy_err = decoy.error_rate
    decoy_oracle = decoy_error_rate("fixed-Z")
    ok = (
        abs(zx_err - zx_oracle) <= 0.03
        and decoy.samples == 2000
        and abs(decoy_err - decoy_oracle) <= 0.03
    )
    _verdict(
        "intercept-resend baselines",
        ok,
        f"zx-check error {zx_err:.4f} over {samples} samples (oracle "
        f"{zx_oracle:.2f}), checking-photon error {decoy_err:.4f} over "
        f"{decoy.samples} (oracle {decoy_oracle:.2f})",
    )


def test_acceptance_7_oracle_equivalence():
    discrepancies = 0
    reg = Register(seed=700)
    # All 16 (Pauli, Bell state) single-pair cases.
    for (p, label), outcome in bell_pauli_table().items():
        a, b = reg.prepare_bell(label)
        reg.apply_gate(a, p)
        discrepancies += reg.measure_bell(a, b) != outcome
        discrepancies += decode_bell_to_pauli(outcome) != compose(
            p, decode_bell_to_pauli(label)
        )
    # All 16 initial-label combinations of the swapping rule, across
    # observed outcomes, plus the full 64-entry table.
    for (left, right, measured), result in swap_table().items():
        discrepancies += swap_rule(left, right, measured) != result
    for left in BellLabel:
        for right in BellLabel:
            for _ in range(10):
                p1, p2 = reg.prepare_bell(left)
                p3, p4 = reg.prepare_bell(right)
                measured = reg.measure_bell(p2, p3)
                discrepancies += reg.measure_bell(p1, p4) != swap_rule(
                    left, right, measured
                )
    # 10^4 random Hadamard-free circuits.
    rng = np.random.default_rng(701)
    paulis = list(PauliOp)
    for _ in range(10_000):
        pair = reg.prepare_bell(BellLabel.PSI_MINUS)
        frame = PauliOp.I
        for _ in range(int(rng.integers(0, 9))):
            op = paulis[int(rng.integers(4))]
            reg.apply_gate(pair[int(rng.integers(2))], op)
            frame = compose(frame, op)
        discrepancies += decode_bell_to_pauli(reg.measure_bell(*pair)) != frame
    ok = discrepancies == 0
    _verdict(
        "label algebra equals statevector engine",
        ok,
        f"{discrepancies} discrepancies across 16+64+10^4 cases",
    )


def test_acceptance_8_engine_and_harness_invariants():
    # (a) 10^5-operation fuzz with an explicit norm check after each op.
    rng = np.random.default_rng(800)
    reg = Register(rng=np.random.default_rng(801))
    live: list[int] = []
    worst = 0.0
    states = list(SingleState)
    gates = list(SingleGate)
    ops = 0
    while ops < 100_000:
        kind = int(rng.integers(5)) if len(live) >= 2 else 0
        if kind == 0 and len(live) < 24:
            a, b = reg.prepare_bell(BellLabel.PSI_MINUS)
            live += [a, b]
        elif kind == 1 and len(live) < 24:
            live.append(reg.prepare_single(states[int(rng.integers(4))]))
        elif kind == 2 or len(live) >= 24:
            if len(live) >= 2 and int(rng.integers(2)):
                i, j = rng.choice(len(live), size=2, replace=False)
                a, b = live[int(i)], live[int(j)]
                reg.measure_bell(a, b)
                live.remove(a)
                live.remove(b)
            elif live:
                p = live.pop(int(rng.integers(len(live))))
                reg.measure_single(p, Basis.Z if int(rng.integers(2)) else Basis.X)
        else:
            p = live[int(rng.integers(len(live)))]
            reg.apply_gate(p, gates[int(rng.integers(5))])
        ops += 1
        if live:
            p = live[int(rng.integers(len(live)))]
            worst = max(worst, abs(reg.group_norm_sq(p) - 1.0))
    norm_ok = worst <= 1e-12

    # (b) byte-identical reports for identical (config, seed).
    scenario = ScenarioConfig(
        protocol="improved",
        n_pairs=32,
        agent_count=3,
        adversary=AdversarySpec(kind="bob_swap_attack"),
    )
    spec = BatchSpec(scenario=scenario, trials=20, seed_base=8000)
    out1 = jsonl_report(spec, *run_batch(spec))
    out2 = jsonl_report(spec, *run_batch(spec))
    repeat_ok = out1 == out2
    ok = norm_ok and repeat_ok
    _verdict(
        "engine and harness invariants",
        ok,
        f"max norm drift {worst:.2e} over 10^5 ops, repeat-identical {repeat_ok}",
    )
