"""Property: every scenario that `validate_config` accepts runs to completion."""

import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qss_sim.adversaries import VALID_KINDS, VALID_POLICIES, AdversarySpec
from qss_sim.harness import BatchSpec, run_batch, validate_batch
from qss_sim.protocol import (
    PROTOCOLS,
    ConfigError,
    RunReport,
    ScenarioConfig,
    hop_names,
    run_trial,
    sample_sizes,
    validate_config,
)


@st.composite
def scenarios(draw) -> ScenarioConfig:
    shape = ScenarioConfig(
        protocol=draw(st.sampled_from(PROTOCOLS)), agent_count=draw(st.integers(2, 5))
    )
    adversary = AdversarySpec(
        kind=draw(st.sampled_from(VALID_KINDS)),
        hop=draw(st.sampled_from(hop_names(shape))),
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


# The checks that sample and retire positions, as `sample_sizes` plans
# them; the decoy checks consume none.
_POSITION_CHECKS = re.compile(
    r"zx_check_1|zx_check_2|final_sample_check|zx_check_step2|hop_check_\d+|step6_check"
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(scenarios())
def test_accepted_configs_run_to_completion(config):
    try:
        validate_config(config)
    except ConfigError:
        return
    report = run_trial(config)
    assert isinstance(report, RunReport)
    # Each check samples what the plan says; an abort ends the run early.
    samples = [c.samples for c in report.checks if _POSITION_CHECKS.fullmatch(c.check_id)]
    plan = sample_sizes(config)
    assert samples == plan[: len(samples)]
    if not report.detected:
        assert len(samples) == len(plan)


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
