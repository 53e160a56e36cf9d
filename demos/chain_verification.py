"""Why the chain protocol's dealer verification defeats the swap attack.

The first chain agent runs the same substitution playbook as in the
three-party attack: genuine (Hadamard-rotated) photons wherever his own
sample positions will be checked, fake-pair halves everywhere else, and
entanglement swapping whenever a later check gives him an announcement
slot.

The dealer's own verification is the move he cannot counter: she
Bell-measures returned sample photons against their retained partners
and compares the decoded Pauli with the published operations.  A fake
half is not entangled with her partner photon at all, so each sampled
position passes only with probability 1/4 -- with 8 samples the attack
survives about one run in 65,000.
"""

from qss_sim import AdversarySpec, ScenarioConfig
from qss_sim.harness import BatchSpec, run_batch
from qss_sim.oracles import swap_attack_step6_pass_rate


def main():
    p = swap_attack_step6_pass_rate()
    print(f"oracle per-sample pass probability: {p}")
    print(f"predicted detection rate with 8 samples: {1 - p**8:.6f}\n")

    spec = BatchSpec(
        scenario=ScenarioConfig(
            protocol="improved",
            n_pairs=64,
            agent_count=3,
            step6_sample_count=8,
            adversary=AdversarySpec(kind="bob_swap_attack"),
        ),
        trials=200,
        seed_base=0,
    )
    reports = []
    stats = run_batch(spec, reports.append)
    print(f"{spec.trials} attacked runs, 3 agents, 8 dealer-verified samples:")
    for check_id, cs in sorted(stats.check_stats.items()):
        print(
            f"  {check_id:<20} error rate {cs.mean_error_rate:.4f} "
            f"over {cs.total_samples} samples"
        )
    print(f"  detection frequency: {stats.detection_frequency:.4f}")

    # The checks the attacker can announce into stay spotless; only the
    # dealer's own verification fires.
    one = reports[0]
    print("\nfirst run in detail:")
    for check in one.checks:
        print(
            f"  {check.check_id:<20} {check.samples:>3} samples, "
            f"{check.mismatches} mismatches -> {check.verdict}"
        )


if __name__ == "__main__":
    main()
