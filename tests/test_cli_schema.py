"""The public configuration interface: every `run` flag and INI key, the
field it sets, and flag-over-file precedence."""

import re

import pytest

from qss_sim import cli
from qss_sim.cli import main

# (section, INI key, flag, field path, file value, flag value, parsed file
# value, parsed flag value).  The file values form one valid scenario;
# each flag value keeps it valid.
_TABLE = [
    ("scenario", "protocol", "--protocol", "scenario.protocol",
     "improved", "original", "improved", "original"),
    ("scenario", "n_pairs", "--n-pairs", "scenario.n_pairs", "64", "48", 64, 48),
    ("scenario", "agent_count", "--agent-count", "scenario.agent_count", "3", "4", 3, 4),
    ("scenario", "sample_fraction", "--sample-fraction", "scenario.sample_fraction",
     "0.25", "0.5", 0.25, 0.5),
    ("scenario", "step6_sample_count", "--step6-sample-count",
     "scenario.step6_sample_count", "4", "6", 4, 6),
    ("scenario", "checking_photon_count", "--checking-photon-count",
     "scenario.checking_photon_count", "8", "4", 8, 4),
    ("scenario", "error_threshold", "--error-threshold", "scenario.error_threshold",
     "0.0", "0.5", 0.0, 0.5),
    ("adversary", "kind", "--adversary", "scenario.adversary.kind",
     "bob_swap_attack", "none", "bob_swap_attack", "none"),
    ("adversary", "hop", "--adversary-hop", "scenario.adversary.hop",
     "bob->charlie", "alice->agent0", "bob->charlie", "alice->agent0"),
    ("adversary", "basis_policy", "--basis-policy", "scenario.adversary.basis_policy",
     "uniform", "fixed-Z", "uniform", "fixed-Z"),
    ("adversary", "publish_true_ops", "--publish-false-ops",
     "scenario.adversary.publish_true_ops", "true", None, True, False),
    ("batch", "trials", "--trials", "trials", "1", "2", 1, 2),
    ("batch", "seed_base", "--seed-base", "seed_base", "0", "5", 0, 5),
    ("batch", "format", "--format", "output_format", "jsonl", "table", "jsonl", "table"),
    ("batch", "out", "--out", "out_path", "a.jsonl", "b.jsonl", "a.jsonl", "b.jsonl"),
]
_IDS = [row[1] for row in _TABLE]


class _Captured(Exception):
    pass


@pytest.fixture
def captured(monkeypatch):
    """Stop `run` at its batch call and keep the BatchSpec it built."""
    specs = []

    def fake_run_batch(spec):
        specs.append(spec)
        raise _Captured

    monkeypatch.setattr(cli, "run_batch", fake_run_batch)
    return specs


def _ini(tmp_path) -> str:
    sections: dict[str, list[str]] = {}
    for section, key, _, _, file_value, *_ in _TABLE:
        sections.setdefault(section, []).append(f"{key} = {file_value}")
    path = tmp_path / "scenario.ini"
    path.write_text(
        "".join(f"[{s}]\n" + "\n".join(lines) + "\n" for s, lines in sections.items())
    )
    return str(path)


def _field(spec, path: str):
    value = spec
    for name in path.split("."):
        value = getattr(value, name)
    return value


def _run(argv, captured):
    with pytest.raises(_Captured):
        main(argv)
    return captured.pop()


def test_every_ini_key_reaches_its_field(tmp_path, captured):
    spec = _run(["run", "--config", _ini(tmp_path)], captured)
    for _, _, _, path, _, _, parsed, _ in _TABLE:
        assert _field(spec, path) == parsed, path


@pytest.mark.parametrize("row", _TABLE, ids=_IDS)
def test_flag_overrides_file(tmp_path, captured, row):
    _, _, flag, path, _, flag_value, file_parsed, flag_parsed = row
    argv = [flag] if flag_value is None else [flag, flag_value]
    spec = _run(["run", "--config", _ini(tmp_path), *argv], captured)
    assert _field(spec, path) == flag_parsed
    for _, _, _, other, _, _, parsed, _ in _TABLE:
        if other != path:
            assert _field(spec, other) == parsed, other
    assert file_parsed != flag_parsed


def _flags(command, capsys) -> set[str]:
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    return set(re.findall(r"(?<![\w-])--[a-z0-9][a-z0-9-]*", capsys.readouterr().out))


def test_flag_and_key_sets_are_exactly_the_public_ones(capsys):
    scenario_flags = {flag for section, _, flag, *_ in _TABLE if section != "batch"}
    batch_flags = {flag for section, _, flag, *_ in _TABLE if section == "batch"}
    assert _flags("run", capsys) == {"--help", "--config"} | scenario_flags | batch_flags
    assert _flags("validate", capsys) == {"--help", "--config"} | scenario_flags
    keys = {(section, key) for section, keys in cli._INI_KEYS.items() for key in keys}
    assert keys == {(section, key) for section, key, *_ in _TABLE}


def test_workers_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--workers", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
