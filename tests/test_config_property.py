"""Properties: every scenario that `validate_config` accepts runs to completion
through the checks its plan lists, and the plan keeps the hops and sample
sizes of its reference implementations."""

import dataclasses
import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qss_sim import cli, harness
from qss_sim.adversaries import VALID_KINDS, VALID_POLICIES, AdversarySpec
from qss_sim.harness import BatchSpec, run_batch, validate_batch
from qss_sim.protocol import (
    PROTOCOLS,
    ConfigError,
    RunReport,
    ScenarioConfig,
    plan,
    run_improved,
    run_trial,
    validate_config,
)


# Reference copies of the two functions that `plan` replaced, frozen as
# they were: the hops in run order, and the sizes of the
# position-consuming checks in run order.


def _reference_hop_names(config: ScenarioConfig) -> list[str]:
    if config.protocol == "original":
        return ["bob->alice", "bob->charlie", "alice->charlie"]
    m = config.agent_count
    hops = ["alice->agent0"]
    hops += [f"agent{k}->agent{k + 1}" for k in range(m - 2)]
    hops += [f"agent{m - 2}->alice", "alice->zach:t", "alice->zach:a"]
    return hops


def _reference_sample_sizes(config: ScenarioConfig) -> list[int]:
    if config.protocol == "original":
        checks, last = 3, None
    else:
        checks, last = config.agent_count, config.step6_sample_count
    remaining = config.n_pairs
    sizes = []
    for i in range(checks):
        if i == checks - 1 and last is not None:
            if last > remaining:
                raise ConfigError("step6_sample_count exceeds the surviving positions")
            q = last
        elif remaining < 1:
            break
        else:
            q = min(remaining, max(1, math.ceil(config.sample_fraction * remaining)))
        sizes.append(q)
        remaining -= q
    if remaining < 1:
        raise ConfigError("sampling would leave no message positions")
    return sizes


@st.composite
def scenarios(draw) -> ScenarioConfig:
    shape = ScenarioConfig(
        protocol=draw(st.sampled_from(PROTOCOLS)), agent_count=draw(st.integers(2, 5))
    )
    adversary = AdversarySpec(
        kind=draw(st.sampled_from(VALID_KINDS)),
        hop=draw(st.sampled_from(_reference_hop_names(shape))),
        basis_policy=draw(st.sampled_from(VALID_POLICIES)),
        publish_true_ops=draw(st.booleans()),
    )
    return dataclasses.replace(
        shape,
        n_pairs=draw(st.integers(2, 64)),
        master_seed=draw(st.integers(-(2**31), 2**32 - 1)),
        sample_fraction=draw(st.floats(0.0, 0.6, exclude_min=True)),
        step6_sample_count=draw(st.none() | st.integers(1, 16)),
        checking_photon_count=draw(st.integers(0, 16)),
        error_threshold=draw(st.floats(0.0, 1.0)),
        adversary=adversary,
    )


@settings(max_examples=400, deadline=None, derandomize=True)
@given(scenarios())
def test_accepted_configs_run_to_completion(config):
    try:
        rows = validate_config(config)
    except ConfigError:
        return
    report = run_trial(config)
    assert isinstance(report, RunReport)
    # The trial's checks are its plan's rows, in order, with the planned
    # sample counts, decoy checks included; an abort ends the run early.
    checks = [(c.check_id, c.samples) for c in report.checks]
    assert checks == [(check, samples) for _, check, _, samples in rows[: len(checks)]]
    if not report.detected:
        assert len(checks) == len(rows)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(scenarios())
def test_plan_matches_the_reference_hops_and_sizes(config):
    try:
        sizes = _reference_sample_sizes(config)
    except ConfigError as exc:
        with pytest.raises(ConfigError) as caught:
            plan(config)
        assert str(caught.value) == str(exc)
        return
    rows = plan(config)
    assert [hop for hop, *_ in rows] == _reference_hop_names(config)
    assert [samples for _, _, kind, samples in rows if kind != "decoy"] == sizes
    assert [samples for _, _, kind, samples in rows if kind == "decoy"] == (
        [config.checking_photon_count] * 2 if config.protocol == "improved" else []
    )


@settings(max_examples=100, deadline=None, derandomize=True)
@given(scenarios())
def test_config_dict_is_asdict(config):
    # Key order too: the dict is serialized into every trial line.
    assert json.dumps(config.to_dict()) == json.dumps(dataclasses.asdict(config))


_BATCH_FIELDS = ("trials", "seed_base")


@pytest.mark.parametrize(
    "name, value",
    [
        ("n_pairs", 64.0),
        ("agent_count", 3.0),
        ("checking_photon_count", 8.0),
        ("step6_sample_count", 4.0),
        ("master_seed", 1.5),
        ("master_seed", True),
        ("trials", 2.0),
        ("trials", True),
        ("seed_base", 1.5),
        ("seed_base", np.float64(3.0)),
    ],
)
def test_non_integer_counts_are_config_errors(name, value):
    # Each would pass the range checks and then fail inside a trial.
    scenario = ScenarioConfig(protocol="improved", n_pairs=64, agent_count=3)
    if name in _BATCH_FIELDS:
        spec = BatchSpec(**{"scenario": scenario, "trials": 2, name: value})
    else:
        spec = BatchSpec(scenario=dataclasses.replace(scenario, **{name: value}), trials=2)
    with pytest.raises(ConfigError, match=f"^{name} must be an integer, got "):
        validate_batch(spec)


@pytest.mark.parametrize("run", [run_trial, run_improved])
def test_a_run_validates_its_config_before_reading_it(run):
    # A run spawns its party streams from the agent count only after
    # validating it.
    config = ScenarioConfig(protocol="improved", agent_count="3")
    with pytest.raises(ConfigError, match=r"^agent_count must be an integer, got '3'$"):
        run(config)


@pytest.mark.parametrize("n_pairs", [10**9, 10**15])
def test_a_chain_with_more_checks_than_pairs_is_refused_at_once(capsys, n_pairs):
    # Each of the chain's agent_count - 1 Z/X checks takes a position, so
    # the plan is refused before a row is made, however many agents.
    argv = ["validate", "--protocol", "improved", "--n-pairs", str(n_pairs)]
    argv += ["--sample-fraction", "1e-300", "--agent-count", str(10**30)]
    start = time.perf_counter()
    assert cli.main(argv) == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == "error: sampling would leave no message positions\n"


@pytest.mark.parametrize(
    "name, value",
    [
        ("sample_fraction", "0.25"),
        ("sample_fraction", 0.25 + 0j),
        ("error_threshold", None),
        ("error_threshold", True),
        ("adversary", None),
        ("publish_true_ops", "no"),
    ],
)
def test_mistyped_fields_are_refused_before_any_trial(monkeypatch, name, value):
    # Validation refuses each by name before a trial can start on it.
    def trial(config):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "run_trial", trial)
    with pytest.raises(ValueError, match=f"^{name} must be "):
        if name == "publish_true_ops":
            adversary = AdversarySpec(kind="bob_swap_attack", publish_true_ops=value)
            scenario = ScenarioConfig(adversary=adversary)
        else:
            scenario = dataclasses.replace(ScenarioConfig(), **{name: value})
        run_batch(BatchSpec(scenario=scenario, trials=2), lambda report: None)


# Every field of the three config dataclasses, read off their declarations.
_SCHEMA = [
    (cls, f) for cls in (ScenarioConfig, AdversarySpec, BatchSpec) for f in dataclasses.fields(cls)
]


def _validate_with(cls, name, value):
    """Validate a batch whose `cls` holds `value` in its field `name`."""
    scenario = ScenarioConfig()
    if cls is AdversarySpec:
        scenario = ScenarioConfig(adversary=AdversarySpec(**{name: value}))
    elif cls is ScenarioConfig:
        scenario = dataclasses.replace(scenario, **{name: value})
    spec = BatchSpec(scenario=scenario, trials=1)
    if cls is BatchSpec:
        spec = dataclasses.replace(spec, **{name: value})
    validate_batch(spec)


@pytest.mark.parametrize(
    "cls, name",
    [(cls, f.name) for cls, f in _SCHEMA],
    ids=[f"{cls.__name__}.{f.name}" for cls, f in _SCHEMA],
)
def test_every_field_refuses_a_value_of_another_type(cls, name):
    with pytest.raises(ConfigError, match=f"^{name} must be "):
        _validate_with(cls, name, object())


_CHOICES = [(cls, f) for cls, f in _SCHEMA if "choices" in f.metadata]


@pytest.mark.parametrize(
    "cls, name",
    [(cls, f.name) for cls, f in _CHOICES],
    ids=[f"{cls.__name__}.{f.name}" for cls, f in _CHOICES],
)
def test_every_choices_field_refuses_an_unlisted_string(cls, name):
    with pytest.raises(ConfigError, match=f"^{name} must be one of "):
        _validate_with(cls, name, "unlisted")


def test_integer_and_numpy_real_fields_run():
    pairs = [(np.float64(0.25), 0), (np.float32(0.5), 1), (1 / 3, np.float16(0.5))]
    for fraction, threshold in pairs:
        scenario = ScenarioConfig(sample_fraction=fraction, error_threshold=threshold)
        validate_config(scenario)
        assert isinstance(run_trial(scenario), RunReport)


def test_numpy_integer_counts_run():
    scenario = ScenarioConfig(
        protocol="improved",
        n_pairs=np.int64(32),
        agent_count=np.int32(3),
        step6_sample_count=np.int16(4),
        checking_photon_count=np.uint8(4),
        master_seed=np.int64(9),
    )
    validate_config(scenario)
    assert isinstance(run_trial(scenario), RunReport)
    spec = BatchSpec(scenario=scenario, trials=np.int64(2), seed_base=np.int64(3))
    assert run_batch(spec, lambda report: None).trials == 2
