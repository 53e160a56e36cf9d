"""Batch scenario runner and report aggregation.

Trials run one after another: trial t runs with master seed
``seed_base + t`` and owns its register, transcript and random streams
exclusively.  ``run_batch`` hands each report to a sink as its trial
finishes, folds it into the aggregate and drops it, so a batch holds
one report at a time and its memory does not grow with the number of
trials.  Aggregation is a deterministic fold in trial order, and the
structured JSON-lines output contains nothing time-dependent, so
identical batch specs yield byte-identical output.
"""

from __future__ import annotations

import dataclasses
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

import numpy as np

from . import __version__
from .protocol import (
    ConfigError,
    RunReport,
    ScenarioConfig,
    check_fields,
    run_trial,
    validate_config,
)

_Z95 = 1.959963984540054

OUTPUT_FORMATS = ("jsonl", "table")


@dataclass(frozen=True)
class BatchSpec:
    scenario: ScenarioConfig
    trials: int = 100
    seed_base: int = 0
    out_path: str | None = None
    output_format: str = field(default="jsonl", metadata={"choices": OUTPUT_FORMATS})


@dataclass
class CheckStats:
    total_samples: int = 0
    total_mismatches: int = 0

    @property
    def mean_error_rate(self) -> float:
        if self.total_samples == 0:
            return 0.0
        return self.total_mismatches / self.total_samples

    def confidence_interval(self) -> tuple[float, float]:
        """95% interval for the per-sample error probability, normal
        approximation with continuity correction."""
        n = self.total_samples
        if n == 0:
            return (0.0, 0.0)
        p = self.mean_error_rate
        half = _Z95 * math.sqrt(p * (1.0 - p) / n) + 0.5 / n
        return (max(0.0, p - half), min(1.0, p + half))

    def to_dict(self) -> dict[str, Any]:
        lo, hi = self.confidence_interval()
        return {
            "total_samples": self.total_samples,
            "total_mismatches": self.total_mismatches,
            "mean_error_rate": self.mean_error_rate,
            "ci95_low": lo,
            "ci95_high": hi,
        }


@dataclass
class AggregateStats:
    """Running totals of a batch; `add` folds in each report, in trial
    order."""

    trials: int = 0
    detected: int = 0
    check_stats: dict[str, CheckStats] = field(default_factory=dict)
    recovery_hits: Counter = field(default_factory=Counter)
    recovery_seen: Counter = field(default_factory=Counter)
    eavesdropper_seen: int = 0
    eavesdropper_exact: int = 0
    # (dealer symbol, Eve symbol) -> count, keys in first-seen order.
    joint: Counter = field(default_factory=Counter)

    def add(self, report: RunReport) -> None:
        self.trials += 1
        if report.detected:
            self.detected += 1
        for check in report.checks:
            cs = self.check_stats.setdefault(check.check_id, CheckStats())
            cs.total_samples += check.samples
            cs.total_mismatches += check.mismatches
        for party, bits in report.recovered.items():
            self.recovery_seen[party] += 1
            if bits is not None and bits == report.dealer_message:
                self.recovery_hits[party] += 1
        if report.eavesdropper_message is not None:
            self.eavesdropper_seen += 1
            if report.eavesdropper_message == report.dealer_message:
                self.eavesdropper_exact += 1
            dealer, eav = report.dealer_message, report.eavesdropper_message
            for i in range(0, min(len(dealer), len(eav)) - 1, 2):
                self.joint[(2 * dealer[i] + dealer[i + 1], 2 * eav[i] + eav[i + 1])] += 1

    @property
    def detection_frequency(self) -> float:
        return self.detected / self.trials if self.trials else 0.0

    @property
    def recovery_frequency(self) -> dict[str, float]:
        return {
            party: self.recovery_hits[party] / seen
            for party, seen in sorted(self.recovery_seen.items())
        }

    @property
    def eavesdropper_exact_frequency(self) -> float | None:
        if not self.eavesdropper_seen:
            return None
        return self.eavesdropper_exact / self.eavesdropper_seen

    @property
    def mutual_information_bits(self) -> float | None:
        return mutual_information(self.joint) if self.joint else None

    def to_dict(self) -> dict[str, Any]:
        return {
            "trials": self.trials,
            "detection_frequency": self.detection_frequency,
            "checks": {cid: cs.to_dict() for cid, cs in sorted(self.check_stats.items())},
            "recovery_frequency": self.recovery_frequency,
            "eavesdropper_exact_frequency": self.eavesdropper_exact_frequency,
            "mutual_information_bits": self.mutual_information_bits,
        }


def empirical_mutual_information(pairs: list[tuple[Any, Any]]) -> float:
    """Plug-in estimate of I(X;Y) in bits from observed (x, y) pairs."""
    return mutual_information(Counter(pairs)) if pairs else 0.0


def mutual_information(joint: Counter) -> float:
    """Plug-in estimate of I(X;Y) in bits from the count of each observed
    (x, y) pair, summed in the order of `joint`'s keys."""
    n = sum(joint.values())
    px: Counter = Counter()
    py: Counter = Counter()
    for (x, y), c in joint.items():
        px[x] += c
        py[y] += c
    info = 0.0
    for (x, y), c in joint.items():
        p = c / n
        info += p * math.log2(p * n * n / (px[x] * py[y]))
    return info


def validate_batch(spec: BatchSpec) -> None:
    """Raise ConfigError if the batch cannot run to completion.
    `check_fields` checks each field against its declaration; the counts'
    ranges and the output path are checked here, and the scenario by
    `validate_config`."""
    check_fields(spec)
    if spec.trials < 1:
        raise ConfigError("trials must be at least 1")
    if spec.seed_base < 0:
        raise ConfigError("seed_base must be non-negative")
    if spec.out_path and "\0" in spec.out_path:
        # No file system can name it: `open` would raise ValueError.
        raise ConfigError(f"out_path must not contain a NUL character, got {spec.out_path!r}")
    validate_config(spec.scenario)


def run_batch(spec: BatchSpec, sink: Callable[[RunReport], Any]) -> AggregateStats:
    """Run the trials in order, hand each report to `sink`, fold it into
    the aggregate statistics and drop it."""
    validate_batch(spec)
    stats = AggregateStats()
    for t in range(spec.trials):
        report = run_trial(dataclasses.replace(spec.scenario, master_seed=spec.seed_base + t))
        sink(report)
        stats.add(report)
        del report  # the next trial runs without this one alive
    return stats


def aggregate(reports: Iterable[RunReport]) -> AggregateStats:
    """The statistics `run_batch` returns, folded from given reports."""
    stats = AggregateStats()
    for report in reports:
        stats.add(report)
    return stats


# ---------------------------------------------------------------------------
# serialization


def _plain(value: Any) -> Any:
    """A numpy scalar, which a config may hold, as its Python value."""
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json(obj: Any) -> str:
    return json.dumps(obj, separators=(",", ":"), sort_keys=False, default=_plain)


def trial_line(spec: BatchSpec, t: int, report: RunReport) -> str:
    """The JSON line of trial `t`, newline included."""
    line = {
        "record": "trial",
        "trial": t,
        "seed": spec.seed_base + t,
    }
    line.update(report.to_dict())
    line["recovery_exact"] = {
        party: (bits is not None and bits == report.dealer_message)
        for party, bits in report.recovered.items()
    }
    return _json(line) + "\n"


def summary_line(spec: BatchSpec, stats: AggregateStats) -> str:
    """The batch's closing JSON line, newline included."""
    summary = {
        "record": "summary",
        "version": __version__,
        "config": spec.scenario.to_dict(),
        "trials": spec.trials,
        "seed_base": spec.seed_base,
        "ci_method": "normal approximation with continuity correction, 95%",
    }
    summary.update(stats.to_dict())
    return _json(summary) + "\n"


def jsonl_report(spec: BatchSpec, stats: AggregateStats, reports: list[RunReport]) -> str:
    """UTF-8 JSON lines: one object per trial plus one summary object.
    Deterministic byte-for-byte for a given BatchSpec; ``qss-sim run``
    writes the same lines as its trials finish."""
    lines = [trial_line(spec, t, report) for t, report in enumerate(reports)]
    return "".join(lines) + summary_line(spec, stats)


def table_report(spec: BatchSpec, stats: AggregateStats, seconds: float) -> str:
    """Fixed-width human-readable summary table of a batch that ran for
    `seconds` of wall-clock time."""
    out = []
    out.append(f"qss-sim {__version__}")
    cfg = spec.scenario
    out.append(
        f"protocol={cfg.protocol} n_pairs={cfg.n_pairs} agents={cfg.agent_count} "
        f"adversary={cfg.adversary.kind} trials={spec.trials} seed_base={spec.seed_base}"
    )
    out.append("")
    out.append(f"{'check':<22}{'samples':>9}{'mismatch':>9}{'error':>9}  95% CI")
    for cid, cs in sorted(stats.check_stats.items()):
        lo, hi = cs.confidence_interval()
        out.append(
            f"{cid:<22}{cs.total_samples:>9}{cs.total_mismatches:>9}"
            f"{cs.mean_error_rate:>9.4f}  [{lo:.4f}, {hi:.4f}]"
        )
    out.append("")
    out.append(f"detection frequency     {stats.detection_frequency:.4f}")
    for party, freq in sorted(stats.recovery_frequency.items()):
        out.append(f"exact recovery ({party:<8}) {freq:.4f}")
    if stats.eavesdropper_exact_frequency is not None:
        out.append(
            f"eavesdropper exact      {stats.eavesdropper_exact_frequency:.4f}"
        )
    if stats.mutual_information_bits is not None:
        out.append(
            f"eavesdropper MI         {stats.mutual_information_bits:.4f} bits/symbol"
        )
    out.append(f"wall clock              {seconds:.2f} s")
    return "\n".join(out) + "\n"
