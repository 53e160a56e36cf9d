"""Tests for the batch runner, aggregation, report formats and the CLI."""

import gc
import json
import math
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qss_sim import cli, harness
from qss_sim.adversaries import AdversarySpec
from qss_sim.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, main
from qss_sim.harness import (
    BatchSpec,
    CheckStats,
    aggregate,
    empirical_mutual_information,
    jsonl_report,
    mutual_information,
    run_batch,
    table_report,
    validate_batch,
)
from qss_sim.protocol import ConfigError, ScenarioConfig
from qss_sim.register import Register


def _spec(**kw):
    scenario = ScenarioConfig(protocol="original", n_pairs=16)
    defaults = dict(scenario=scenario, trials=5, seed_base=100)
    defaults.update(kw)
    return BatchSpec(**defaults)


def _batch(spec):
    reports = []
    stats = run_batch(spec, reports.append)
    return stats, reports


def test_run_batch_honest_aggregate():
    stats, reports = _batch(_spec())
    assert stats.trials == 5
    assert len(reports) == 5
    assert stats.detection_frequency == 0.0
    assert stats.recovery_frequency == {"charlie": 1.0}
    assert stats.eavesdropper_exact_frequency is None
    assert stats.mutual_information_bits is None
    for cs in stats.check_stats.values():
        assert cs.total_mismatches == 0
        assert cs.trials_seen == 5


def test_trials_use_distinct_seeds():
    _, reports = _batch(_spec())
    seeds = {r.config.master_seed for r in reports}
    assert seeds == {100, 101, 102, 103, 104}
    messages = {tuple(r.dealer_message) for r in reports}
    assert len(messages) > 1


def test_jsonl_output_is_byte_identical_across_runs():
    spec = _spec()
    out1 = jsonl_report(spec, *_batch(spec))
    out2 = jsonl_report(spec, *_batch(spec))
    assert out1 == out2


def test_batch_reports_retain_no_register():
    # A report keeps its transcript and analysis data, never the engine
    # state of its trial: run_batch drops each report once the sink has
    # it, but a sink such as list.append may keep them all.
    scenario = ScenarioConfig(
        protocol="improved",
        n_pairs=16,
        agent_count=3,
        step6_sample_count=8,
        adversary=AdversarySpec(kind="bob_swap_attack"),
    )

    def registers() -> set[int]:
        gc.collect()
        return {id(o) for o in gc.get_objects() if isinstance(o, Register)}

    before = registers()
    stats, reports = _batch(BatchSpec(scenario=scenario, trials=50, seed_base=7))
    assert stats.trials == len(reports) == 50
    assert registers() - before == set()


def test_jsonl_structure():
    spec = _spec(trials=3)
    stats, reports = _batch(spec)
    lines = jsonl_report(spec, stats, reports).splitlines()
    assert len(lines) == 4
    trial0 = json.loads(lines[0])
    assert trial0["record"] == "trial"
    assert trial0["seed"] == 100
    assert trial0["detected"] is False
    assert trial0["recovery_exact"] == {"charlie": True}
    assert trial0["recovered"]["charlie"] == trial0["dealer_message"]
    summary = json.loads(lines[-1])
    assert summary["record"] == "summary"
    assert summary["trials"] == 3
    assert summary["detection_frequency"] == 0.0
    assert "wall_clock" not in json.dumps(summary)


def test_table_report_contents():
    spec = _spec(trials=2, output_format="table")
    stats = run_batch(spec, lambda report: None)
    text = table_report(spec, stats)
    assert "zx_check_1" in text
    assert "detection frequency     0.0000" in text
    assert "wall clock" in text


def test_check_stats_confidence_interval():
    cs = CheckStats(total_samples=2000, total_mismatches=500)
    assert cs.mean_error_rate == 0.25
    lo, hi = cs.confidence_interval()
    half = 1.959963984540054 * math.sqrt(0.25 * 0.75 / 2000) + 0.5 / 2000
    assert lo == pytest.approx(0.25 - half)
    assert hi == pytest.approx(0.25 + half)
    assert CheckStats().confidence_interval() == (0.0, 0.0)


def test_empirical_mutual_information_extremes():
    perfect = [(i % 4, i % 4) for i in range(4000)]
    assert empirical_mutual_information(perfect) == pytest.approx(2.0)
    independent = [(i % 4, (i // 4) % 4) for i in range(4096)]
    assert empirical_mutual_information(independent) == pytest.approx(0.0, abs=1e-9)
    assert empirical_mutual_information([]) == 0.0


def _plug_in(pairs):
    """The plug-in estimate over the list of pairs, as the aggregate
    computed it before it counted them."""
    n = len(pairs)
    px = Counter(x for x, _ in pairs)
    py = Counter(y for _, y in pairs)
    info = 0.0
    for (x, y), c in Counter(pairs).items():
        p = c / n
        info += p * math.log2(p * n * n / (px[x] * py[y]))
    return info


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=60))
def test_mutual_information_from_counts_matches_the_pairs(pairs):
    # Counted one pair at a time, as the aggregate counts symbols.
    joint: Counter = Counter()
    for pair in pairs:
        joint[pair] += 1
    assert mutual_information(joint) == empirical_mutual_information(pairs) == _plug_in(pairs)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.lists(
        st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=2, max_size=8),
        min_size=1,
        max_size=6,
    )
)
def test_aggregate_counts_symbols_across_reports(messages):
    # Each report's messages as (dealer bit, Eve bit) per position; an odd
    # last bit is no symbol.
    reports = [
        SimpleNamespace(
            detected=False,
            checks=[],
            recovered={},
            dealer_message=[d for d, _ in bits],
            eavesdropper_message=[e for _, e in bits],
        )
        for bits in messages
    ]
    pairs = [
        (2 * bits[i][0] + bits[i + 1][0], 2 * bits[i][1] + bits[i + 1][1])
        for bits in messages
        for i in range(0, len(bits) - 1, 2)
    ]
    stats = aggregate(reports)
    assert stats.mutual_information_bits == _plug_in(pairs)


def test_validate_batch_rejects_bad_specs():
    with pytest.raises(ConfigError):
        validate_batch(_spec(trials=0))
    with pytest.raises(ConfigError):
        validate_batch(_spec(output_format="xml"))
    with pytest.raises(ConfigError):
        validate_batch(_spec(seed_base=-1))
    with pytest.raises(ConfigError):
        validate_batch(BatchSpec(scenario=ScenarioConfig(n_pairs=1)))


# ---------------------------------------------------------------------------
# CLI


def test_cli_run_writes_jsonl(tmp_path):
    out = tmp_path / "batch.jsonl"
    rc = main(
        [
            "run",
            "--protocol",
            "original",
            "--n-pairs",
            "16",
            "--trials",
            "3",
            "--seed-base",
            "7",
            "--out",
            str(out),
        ]
    )
    assert rc == EXIT_OK
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    assert json.loads(lines[-1])["record"] == "summary"


def test_cli_run_stdout_table(capsys):
    rc = main(
        ["run", "--protocol", "original", "--n-pairs", "16", "--trials", "2",
         "--format", "table"]
    )
    assert rc == EXIT_OK
    assert "detection frequency" in capsys.readouterr().out


def test_cli_validate_good_and_bad(capsys):
    assert main(["validate", "--protocol", "original", "--n-pairs", "16"]) == EXIT_OK
    assert "OK" in capsys.readouterr().out
    assert main(["validate", "--protocol", "original", "--n-pairs", "1"]) == EXIT_CONFIG
    assert "error" in capsys.readouterr().err


def test_cli_bad_adversary_hop_is_config_error(capsys):
    rc = main(
        ["validate", "--protocol", "original", "--adversary", "eve_intercept_resend",
         "--adversary-hop", "nowhere"]
    )
    assert rc == EXIT_CONFIG
    assert "valid hops" in capsys.readouterr().err


def test_cli_negative_seed_base_is_config_error(capsys):
    rc = main(["run", "--protocol", "original", "--n-pairs", "16", "--seed-base", "-1"])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "seed_base must be non-negative" in err


@pytest.mark.parametrize(
    "flags",
    [
        ["--n-pairs", str(2**62)],
        ["--protocol", "improved", "--checking-photon-count", str(2**62)],
        ["--protocol", "improved", "--agent-count", str(2**62)],
    ],
    ids=["n_pairs", "checking_photon_count", "agent_count"],
)
@pytest.mark.parametrize("command", ["validate", "run"])
def test_cli_counts_too_large_to_run_are_config_errors(capsys, command, flags):
    # numpy refuses arrays this large before allocating them; the config
    # must be refused first, and validating must not loop over agents.
    assert main([command, *flags]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_out_of_memory_is_an_error_line(monkeypatch, capsys):
    def exhausted(spec, sink):
        raise MemoryError("Unable to allocate 64.0 EiB")

    monkeypatch.setattr(cli, "run_batch", exhausted)
    assert main(["run", "--protocol", "original", "--n-pairs", "16"]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: out of memory: Unable to allocate 64.0 EiB\n"


def test_cli_unwritable_output_is_io_error(tmp_path, capsys):
    rc = main(
        ["run", "--protocol", "original", "--n-pairs", "16", "--trials", "1",
         "--out", str(tmp_path / "no" / "such" / "dir" / "x.jsonl")]
    )
    assert rc == EXIT_IO


_RUN = ["run", "--protocol", "original", "--n-pairs", "16", "--trials", "3"]


def _trial_calls(monkeypatch, fail_at=None):
    """Count the trials `run_batch` runs through `harness.run_trial`;
    trial number `fail_at` (from 1) runs out of memory."""
    calls = []
    run_trial = harness.run_trial

    def counted(config):
        calls.append(config.master_seed)
        if len(calls) == fail_at:
            raise MemoryError("Unable to allocate 1.00 TiB")
        return run_trial(config)

    monkeypatch.setattr(harness, "run_trial", counted)
    return calls


def test_cli_unwritable_output_fails_before_the_first_trial(tmp_path, monkeypatch, capsys):
    calls = _trial_calls(monkeypatch)
    rc = main([*_RUN, "--out", str(tmp_path / "no" / "such" / "x.jsonl")])
    assert rc == EXIT_IO
    assert calls == []
    assert capsys.readouterr().err.startswith("error: cannot write ")


def test_cli_failed_run_leaves_no_output(tmp_path, monkeypatch, capsys):
    calls = _trial_calls(monkeypatch, fail_at=2)
    assert main([*_RUN, "--out", str(tmp_path / "x.jsonl")]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: out of memory: Unable to allocate 1.00 TiB\n"
    assert len(calls) == 2
    assert list(tmp_path.iterdir()) == []


def test_cli_failed_run_keeps_an_existing_output(tmp_path, monkeypatch):
    out = tmp_path / "x.jsonl"
    out.write_bytes(b"an earlier batch\n")
    _trial_calls(monkeypatch, fail_at=3)
    assert main([*_RUN, "--out", str(out)]) == EXIT_CONFIG
    assert out.read_bytes() == b"an earlier batch\n"
    assert list(tmp_path.iterdir()) == [out]


def test_cli_stdout_keeps_the_lines_of_finished_trials(monkeypatch, capsys):
    _trial_calls(monkeypatch, fail_at=3)
    assert main(_RUN) == EXIT_CONFIG
    lines = capsys.readouterr().out.splitlines()
    assert [json.loads(line)["trial"] for line in lines] == [0, 1]


def test_cli_batch_memory_does_not_grow_with_trials(tmp_path):
    # At 128 pairs a kept report and its transcript take about 27 KB.
    argv = ["run", "--protocol", "improved", "--agent-count", "4", "--n-pairs", "128",
            "--out", str(tmp_path / "x.jsonl")]
    assert main([*argv, "--trials", "2"]) == EXIT_OK  # lazy imports and caches
    peaks = {}
    for trials in (4, 40):
        tracemalloc.start()
        try:
            assert main([*argv, "--trials", str(trials)]) == EXIT_OK
            peaks[trials] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert (peaks[40] - peaks[4]) / 36 < 1024


def test_cli_missing_config_file_is_config_error(capsys):
    rc = main(["validate", "--config", "/does/not/exist.ini"])
    assert rc == EXIT_CONFIG


def test_cli_ini_config_with_flag_override(tmp_path):
    ini = tmp_path / "scenario.ini"
    ini.write_text(
        "[scenario]\n"
        "protocol = improved\n"
        "n_pairs = 32\n"
        "agent_count = 3\n"
        "[adversary]\n"
        "kind = bob_swap_attack\n"
        "[batch]\n"
        "trials = 2\n"
        "seed_base = 5\n"
    )
    out = tmp_path / "r.jsonl"
    rc = main(["run", "--config", str(ini), "--out", str(out)])
    assert rc == EXIT_OK
    summary = json.loads(out.read_text().splitlines()[-1])
    assert summary["config"]["protocol"] == "improved"
    assert summary["config"]["adversary"]["kind"] == "bob_swap_attack"
    assert summary["trials"] == 2
    assert summary["detection_frequency"] == 1.0

    # A flag overrides the file value.
    out2 = tmp_path / "r2.jsonl"
    rc = main(["run", "--config", str(ini), "--adversary", "none", "--out", str(out2)])
    assert rc == EXIT_OK
    summary2 = json.loads(out2.read_text().splitlines()[-1])
    assert summary2["config"]["adversary"]["kind"] == "none"
    assert summary2["detection_frequency"] == 0.0


def test_cli_ini_values_are_literal(tmp_path):
    # A '%' in a value is part of the value, not an interpolation.
    out = tmp_path / "results_50%.jsonl"
    ini = tmp_path / "batch.ini"
    ini.write_text(
        f"[scenario]\nprotocol = original\nn_pairs = 16\n[batch]\ntrials = 1\nout = {out}\n"
    )
    assert main(["run", "--config", str(ini)]) == EXIT_OK
    assert json.loads(out.read_text().splitlines()[-1])["record"] == "summary"


@pytest.mark.parametrize(
    "command, text, message",
    [
        (
            "validate",
            b"[scenario]\nn_pairs = abc\n",
            "bad value 'abc' for 'n_pairs' in [scenario]",
        ),
        ("run", b"[batch]\ntrials = x\n", "bad value 'x' for 'trials' in [batch]"),
        ("validate", b"[batch]\ntrials = 0\n", "trials must be at least 1"),
        ("run", b"[batch]\nseed_base = -3\n", "seed_base must be non-negative"),
        ("run", b"[batch]\nworkers = 2\n", "unknown key 'workers' in [batch]"),
        (
            "validate",
            b"[adversary]\npublish_true_ops = maybe\n",
            "bad value 'maybe' for 'publish_true_ops' in [adversary]",
        ),
        ("validate", b"n_pairs = 8\n", "File contains no section headers"),
        ("validate", b"[scenario]\nprotocol = \xff\n", "can't decode byte 0xff"),
        ("validate", b"[scenario]\nn_pair = 8\n", "unknown key 'n_pair' in [scenario]"),
        ("validate", b"[scenaro]\nn_pairs = 8\n", "unknown section [scenaro]"),
        ("validate", b"[DEFAULT]\nx = 1\n", "unknown section [DEFAULT]"),
        ("validate", b"[DEFAULT]\nn_pairs = 8\n", "unknown section [DEFAULT]"),
        (
            "run",
            b"[DEFAULT]\nn_pairs = 8\n[scenario]\nprotocol = original\n",
            "unknown section [DEFAULT]",
        ),
    ],
    ids=[
        "bad-int", "bad-batch-int", "validate-checks-batch", "negative-seed-base",
        "workers-removed", "bad-bool",
        "no-section", "not-utf8", "unknown-key", "unknown-section",
        "default-unknown-key", "default-known-key", "default-beside-scenario",
    ],
)
def test_cli_bad_ini_is_config_error(tmp_path, capsys, command, text, message):
    ini = tmp_path / "bad.ini"
    ini.write_bytes(text)
    assert main([command, "--config", str(ini)]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert err.startswith("error: ")
    assert message in err
    assert "configuration OK" not in out


def test_cli_oracle_tables(capsys):
    assert main(["oracle"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "0.2500" in out
    assert "PSI_MINUS" in out
    assert "0.5000 bits/photon" in out
    assert main(["oracle", "--table", "swap"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "result(1,4)" in out
