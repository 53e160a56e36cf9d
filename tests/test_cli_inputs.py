"""Every input through `cli.main` ends in an exit code, never in a
traceback: a generative sweep of one or two INI keys or flags of a valid
3-agent Eve config, set to awkward values."""

import contextlib
import io
import os
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qss_sim import cli
from qss_sim.adversaries import VALID_KINDS, VALID_POLICIES
from qss_sim.protocol import PROTOCOLS, ScenarioConfig, plan

# A valid 3-agent chain with Eve between its first two agents: each INI
# key's value as the file spells it.
_EVE = {
    "scenario": {
        "protocol": "improved",
        "n_pairs": "16",
        "agent_count": "3",
        "sample_fraction": "0.25",
        "step6_sample_count": "4",
        "checking_photon_count": "4",
        "error_threshold": "1.0",
    },
    "adversary": {
        "kind": "eve_intercept_resend",
        "hop": "agent0->agent1",
        "basis_policy": "uniform",
        "publish_true_ops": "true",
    },
    "batch": {"trials": "1", "seed_base": "0", "format": "jsonl", "out": "out.jsonl"},
}
_KEYS = [(section, key) for section, keys in _EVE.items() for key in keys]

_HOPS = sorted(
    {row[0] for row in plan(ScenarioConfig(protocol="improved", n_pairs=16, agent_count=3))}
    | {row[0] for row in plan(ScenarioConfig(protocol="original", n_pairs=16))}
)
_PALETTE = [
    "", "nan", "NaN", "inf", "-inf", "1e400", str(10**30), str(2**64), "0x10", "1_6",
    "١٦", "é", "%(x)s", "a\0b", "/", "-1", "0", "1", "2", "0.5",
    *PROTOCOLS, *VALID_KINDS, *VALID_POLICIES, *_HOPS, "jsonl", "table", "true", "false",
]

# The most a `run` case may ask for of each count.  A larger value goes
# through `validate` only: `trials = 10**30` is valid, and would run
# for ever.
_RUN_BOUNDS = {"n_pairs": 64, "checking_photon_count": 64, "trials": 2}


def _runnable(key: str, value: str) -> bool:
    """Whether `run` may take `value` for `key` and still end soon and
    write only inside its working directory."""
    if "\n" in value or "\r" in value:
        return False  # it could add lines to the INI file
    if key == "out":
        return "/" not in value or value.strip() == "/"
    if key not in _RUN_BOUNDS:
        return True
    try:
        return int(value) <= _RUN_BOUNDS[key]
    except ValueError:
        return True  # refused before any trial


@st.composite
def mutations(draw):
    """One or two distinct (section, key, value, given as a flag)."""
    keys = draw(st.lists(st.sampled_from(_KEYS), min_size=1, max_size=2, unique=True))
    values = st.sampled_from(_PALETTE) | st.text(max_size=12)
    return [(section, key, draw(values), draw(st.booleans())) for section, key in keys]


def _main(argv: list[str]) -> tuple[int, str]:
    """`cli.main`'s exit code and stderr; a traceback fails the test."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            # argparse refused a flag: its usage, then one error line.
            assert exc.code == 2
            assert err.getvalue().splitlines()[-1].startswith(f"qss-sim {argv[0]}: error: ")
            return exc.code, err.getvalue()
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_IO)
    if code != cli.EXIT_OK:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
    return code, err.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(mutations())
# The one input a sweep of this palette found to end in a traceback.
@example([("batch", "out", "a\0b", False)])
def test_every_input_ends_in_an_exit_code(changes):
    ini = {section: dict(keys) for section, keys in _EVE.items()}
    validate_flags, run_flags = [], []
    for section, key, value, as_flag in changes:
        option = cli._INI_KEYS[section][key]
        if not as_flag:
            ini[section][key] = value
            continue
        # A boolean flag takes no value: it sets the opposite of the default.
        flag = option.flag if option.cast is cli._boolean else f"{option.flag}={value}"
        run_flags.append(flag)
        if section != "batch":  # `validate` takes no batch flags
            validate_flags.append(flag)
    text = "".join(
        f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for section, keys in ini.items()
    )
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "eve.ini")
        path.write_text(text, encoding="utf-8")
        work = Path(tmp, "work")
        work.mkdir()
        os.chdir(work)
        try:
            accepted, _ = _main(["validate", "--config", str(path), *validate_flags])
            if all(_runnable(key, value) for _, key, value, _ in changes):
                ran, err = _main(["run", "--config", str(path), *run_flags])
                # What `validate` accepts, `run` runs, unless it cannot
                # write its output.
                if validate_flags == run_flags and accepted == cli.EXIT_OK:
                    assert ran in (cli.EXIT_OK, cli.EXIT_IO), err
        finally:
            os.chdir(cwd)
