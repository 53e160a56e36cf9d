"""qss-sim benchmark: seeded batch workloads through ``qss-sim run``.

Usage (from the root of a checkout):

    python3 bench/run.py --workload chain_honest --seed 0 --seconds 30 --trace 0

A run repeats one workload for ``--seconds``.  Each repetition is a fresh
interpreter (``child.py``) making one serial ``qss_sim.cli.main(["run",
...])`` call with a fixed trial count, so every repetition of a run does
identical work and the figures reported are medians over repetitions.
The workload seed sets ``--seed-base``; the program sees only the flags.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions, reports the per-layer metrics from the
traced ones and the tracing overhead from the pair.  Either way the JSON
lines every repetition wrote are checked: per-trial invariants, the
workload's pooled statistical gate, and one ``jsonl_sha256`` across all
repetitions.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a full record goes to
``bench/results/``.  Exit code 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
CHILD = BENCH_DIR / "child.py"

REP_TIMEOUT_S = 120
# Trial seeds of two benchmark seeds never overlap while a batch has
# fewer trials than this.
SEED_STRIDE = 1_000_000

# Why each workload was chosen is in README.md.
WORKLOADS = {
    "chain_honest": {
        "n_pairs": 512,
        "trials": 12,
        "flags": [
            "--protocol", "improved", "--agent-count", "6", "--n-pairs", "512",
            "--checking-photon-count", "64", "--adversary", "none",
        ],
    },
    "eve_large": {
        "n_pairs": 8192,
        "trials": 1,
        "flags": [
            "--protocol", "original", "--n-pairs", "8192",
            "--adversary", "eve_intercept_resend", "--adversary-hop", "bob->charlie",
            "--basis-policy", "uniform", "--error-threshold", "1.0",
        ],
    },
    "chain_swap_short": {
        "n_pairs": 16,
        "trials": 400,
        "flags": [
            "--protocol", "improved", "--agent-count", "3", "--n-pairs", "16",
            "--step6-sample-count", "8", "--adversary", "bob_swap_attack",
        ],
    },
}


def workload_flags(name: str) -> list[str]:
    w = WORKLOADS[name]
    return [*w["flags"], "--trials", str(w["trials"])]


# ---------------------------------------------------------------------------
# correctness


def _check(trial: dict, check_id: str) -> dict | None:
    return next((c for c in trial["checks"] if c["check_id"] == check_id), None)


def trial_ok(workload: str, trial: dict) -> bool:
    """The per-trial invariant of a workload, on one JSON-lines record."""
    if workload == "chain_honest":
        return (
            not trial["detected"]
            and trial["recovery_exact"].get("zach") is True
            and all(c["mismatches"] == 0 for c in trial["checks"])
        )
    if workload == "eve_large":
        zx1 = _check(trial, "zx_check_1")
        return not trial["detected"] and zx1 is not None and zx1["mismatches"] == 0
    step2 = _check(trial, "zx_check_step2")
    hop0 = _check(trial, "hop_check_0")
    step6 = _check(trial, "step6_check")
    return (
        step2 is not None and step2["mismatches"] == 0
        and hop0 is not None and hop0["mismatches"] == 0
        and step6 is not None and step6["samples"] == 8
    )


def pooled_gate(workload: str, trials: list[dict]) -> dict | None:
    """The workload's statistical claim: a pooled check error within 4
    sigma of the oracle's exact value.  None where the workload has none."""
    sys.path.insert(0, str(SRC))
    from qss_sim import oracles

    if workload == "eve_large":
        check_id, expected = "zx_check_2", oracles.intercept_resend_check_error("uniform")
    elif workload == "chain_swap_short":
        check_id, expected = "step6_check", 1.0 - oracles.swap_attack_step6_pass_rate()
    else:
        return None
    checks = [c for t in trials if (c := _check(t, check_id)) is not None]
    samples = sum(c["samples"] for c in checks)
    mismatches = sum(c["mismatches"] for c in checks)
    observed = mismatches / samples if samples else math.nan
    sigma = math.sqrt(expected * (1.0 - expected) / samples) if samples else math.nan
    return {
        "check": check_id,
        "expected": expected,
        "observed": observed,
        "samples": samples,
        "passed": samples > 0 and abs(observed - expected) <= 4.0 * sigma,
    }


# ---------------------------------------------------------------------------
# repetitions


def run_rep(workload: str, seed_base: int, out_path: Path, spans_path: Path | None) -> dict:
    """One fresh-process ``qss-sim run`` call, with its output checked."""
    expected_trials = WORKLOADS[workload]["trials"]
    spec = {
        "src": str(SRC),
        "argv": ["run", *workload_flags(workload), "--seed-base", str(seed_base),
                 "--out", str(out_path)],
        "spans_path": str(spans_path) if spans_path else None,
    }
    out_path.unlink(missing_ok=True)
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    rep = {"traced": spans_path is not None, "trials": expected_trials, "failed": expected_trials}
    try:
        # On timeout the child is killed and waited for.
        proc = subprocess.run(
            [sys.executable, str(CHILD), json.dumps(spec)],
            capture_output=True, text=True, timeout=REP_TIMEOUT_S, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        rep["error"] = f"repetition exceeded {REP_TIMEOUT_S} s"
        return rep
    if proc.returncode != 0 or not proc.stdout.strip():
        rep["error"] = proc.stderr.strip()[-2000:] or f"exit code {proc.returncode}"
        return rep
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    if child["exit_code"] != 0 or not out_path.exists():
        rep["error"] = f"qss-sim run exited {child['exit_code']}: {proc.stderr.strip()[-2000:]}"
        return rep

    data = out_path.read_bytes()
    records = [json.loads(line) for line in data.splitlines()]
    trials = [r for r in records if r["record"] == "trial"]
    rep.update(
        wall_s=child["wall_s"],
        trial_s=child["trial_s"],
        setup_s=child["first_trial_mono"] - started,
        peak_rss_mb=child["peak_rss_mb"],
        jsonl_sha256=hashlib.sha256(data).hexdigest(),
        jsonl_bytes=len(data),
        records=trials,
        failed=(
            expected_trials
            if len(trials) != expected_trials
            else sum(not trial_ok(workload, t) for t in trials)
        ),
    )
    if "layers" in child:
        rep["layers"] = child["layers"]
        rep["trace_missing"] = child["trace_missing"]
    return rep


def measure(workload: str, seed: int, seconds: int, trace: bool) -> list[dict]:
    """Repeat the workload until `seconds` have passed.  Untraced only,
    or untraced and traced in turn."""
    RESULTS.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}"
    for old in RESULTS.glob(f"spans-{tag}-rep*.npz"):
        old.unlink()
    out_path = RESULTS / f"{tag}.jsonl"
    min_reps = 2 if trace else 3
    reps: list[dict] = []
    deadline = time.monotonic() + seconds
    while len(reps) < min_reps or time.monotonic() < deadline:
        traced = trace and len(reps) % 2 == 1
        spans = RESULTS / f"spans-{tag}-rep{len(reps)}.npz" if traced else None
        rep = run_rep(workload, seed * SEED_STRIDE, out_path, spans)
        reps.append(rep)
        if "error" in rep:
            break
    return reps


# ---------------------------------------------------------------------------
# metrics


def trials_per_s(reps: list[dict]) -> float:
    return statistics.median(r["trials"] / r["wall_s"] for r in reps)


def end_to_end(workload: str, reps: list[dict]) -> tuple[dict, dict]:
    """Metrics from untraced repetitions, and figures kept only in the
    result file: the p90 and the sample counts."""
    n_pairs = WORKLOADS[workload]["n_pairs"]
    tps = trials_per_s(reps)
    trial_ms = [1e3 * s for r in reps for s in r["trial_s"]]
    metrics = {
        "trials_per_s": {"value": tps, "unit": "1/s"},
        "pairs_per_s": {"value": tps * n_pairs, "unit": "1/s"},
        "trial_ms_p50": {"value": statistics.median(trial_ms), "unit": "ms"},
        "setup_s": {"value": statistics.median(r["setup_s"] for r in reps), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in reps), "unit": "MB"},
    }
    extra = {"trial_ms_samples": len(trial_ms), "untraced_repetitions": len(reps)}
    if len(trial_ms) >= 100:
        extra["trial_ms_p90"] = statistics.quantiles(trial_ms, n=10)[-1]
    return metrics, extra


def per_layer(workload: str, untraced: list[dict], traced: list[dict]) -> dict:
    n_pairs = WORKLOADS[workload]["n_pairs"]
    names = traced[0]["layers"].keys()
    values = {n: statistics.median(r["layers"][n] for r in traced) for n in names}
    records = traced[0]["records"]
    values["harness.jsonl_bytes"] = traced[0]["jsonl_bytes"] / len(records)
    delivered = sum(len(t["dealer_message"]) // 2 for t in records if not t["detected"])
    values["protocol.message_frac"] = delivered / (n_pairs * len(records))
    values["protocol.abort_frac"] = sum(t["detected"] for t in records) / len(records)
    values["trace_overhead_frac"] = 1.0 - trials_per_s(traced) / trials_per_s(untraced)
    units = _layer_units()
    return {n: {"value": values[n], "unit": units[n]} for n in sorted(values)}


def _layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


# ---------------------------------------------------------------------------
# reporting


def environment(seed: int) -> dict:
    git_sha = None
    try:
        top, sha = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, cwd=ROOT, timeout=30, check=True,
        ).stdout.split()
        if Path(top).resolve() == ROOT:
            git_sha = sha
    except (OSError, ValueError, subprocess.SubprocessError):
        pass  # not a git checkout: src_sha256 identifies the code
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    import numpy

    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "seed_base": seed * SEED_STRIDE,
        "workload_flags": {name: workload_flags(name) for name in WORKLOADS},
    }


def print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, m in metrics.items():
        print(f"  {name:<38}{m['value']:>16.6g} {m['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be non-negative and --seconds positive")
    if not (SRC / "qss_sim" / "cli.py").is_file():
        print(f"error: no qss_sim sources under {SRC}", file=sys.stderr)
        return 2

    reps = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    untraced = [r for r in reps if not r["traced"] and "error" not in r]
    traced = [r for r in reps if r["traced"] and "error" not in r]
    errors = [r["error"] for r in reps if "error" in r]
    attempted = sum(r["trials"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    digests = sorted({r["jsonl_sha256"] for r in untraced + traced})
    gate = pooled_gate(args.workload, untraced[0]["records"]) if untraced else None
    correct = (
        not errors and failed == 0 and len(digests) == 1
        and (gate is None or gate["passed"])
    )

    result: dict = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "jsonl_sha256": digests[0] if len(digests) == 1 else digests,
        "pooled_gate": gate,
        "errors": errors,
    }
    metrics: dict = {}
    if correct:
        e2e, extra = end_to_end(args.workload, untraced)
        result["end_to_end"] = e2e
        result.update(extra)
        metrics = e2e
        print_table(f"{args.workload} seed {args.seed}: end to end (untraced)", e2e)
        if args.trace:
            metrics = per_layer(args.workload, untraced, traced)
            result["per_layer"] = metrics
            result["trace_missing"] = traced[0]["trace_missing"]
            print_table(f"{args.workload} seed {args.seed}: per layer (traced, per trial)", metrics)
    result["repetitions_detail"] = [
        {k: v for k, v in r.items() if k not in ("records", "trial_s")} for r in reps
    ]
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=2) + "\n")
    for err in errors:
        print(f"error: {err}", file=sys.stderr)
    if gate is not None:
        print(f"gate {gate['check']}: observed {gate['observed']:.4f} "
              f"expected {gate['expected']:.4f} over {gate['samples']} samples")
    print(f"jsonl_sha256 {result['jsonl_sha256']}  result file {out.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
