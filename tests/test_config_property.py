"""Property: every scenario that `validate_config` accepts runs to completion."""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from qss_sim.adversaries import VALID_KINDS, VALID_POLICIES, AdversarySpec
from qss_sim.protocol import (
    PROTOCOLS,
    ConfigError,
    RunReport,
    ScenarioConfig,
    hop_names,
    run_trial,
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


@settings(max_examples=400, deadline=None, derandomize=True)
@given(scenarios())
def test_accepted_configs_run_to_completion(config):
    try:
        validate_config(config)
    except ConfigError:
        return
    assert isinstance(run_trial(config), RunReport)
