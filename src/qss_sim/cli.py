"""Command-line interface.

Subcommands:

* ``qss-sim run --config scenario.ini [--trials N] [--seed-base S]
  [--out path] [--format jsonl|table]`` -- execute a trial batch.
* ``qss-sim validate --config scenario.ini`` -- feasibility check only.
* ``qss-sim oracle [--table bell-pauli|swap|decoy]`` -- print the
  brute-force statevector reference tables.

Configuration files are flat INI (key = value in [scenario],
[adversary] and [batch] sections); every key has a matching CLI flag
and flags override file values.  Unknown sections and keys are
rejected.  Exit codes: 0 success, 1 configuration error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import configparser
import sys

from . import __version__
from .adversaries import AdversarySpec
from .harness import BatchSpec, emit_report, run_batch, validate_batch
from .oracles import (
    bell_pauli_table,
    decoy_error_rate,
    eve_state_information,
    intercept_resend_check_error,
    swap_attack_step6_pass_rate,
    swap_table,
)
from .protocol import ConfigError, ScenarioConfig

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qss-sim",
        description="Quantum secret splitting protocol simulator",
    )
    parser.add_argument("--version", action="version", version=f"qss-sim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="INI scenario file")
        p.add_argument("--protocol", choices=["original", "improved"])
        p.add_argument("--n-pairs", type=int)
        p.add_argument("--agent-count", type=int)
        p.add_argument("--sample-fraction", type=float)
        p.add_argument("--step6-sample-count", type=int)
        p.add_argument("--checking-photon-count", type=int)
        p.add_argument("--error-threshold", type=float)
        p.add_argument(
            "--adversary",
            choices=["none", "eve_intercept_resend", "bob_swap_attack"],
        )
        p.add_argument("--adversary-hop")
        p.add_argument(
            "--basis-policy", choices=["uniform", "fixed-Z", "fixed-X"]
        )
        p.add_argument(
            "--publish-false-ops",
            action="store_true",
            default=None,
            help="dishonest agent falsifies his published operations",
        )

    p_run = sub.add_parser("run", help="execute a batch of seeded trials")
    add_scenario_flags(p_run)
    p_run.add_argument("--trials", type=int)
    p_run.add_argument("--seed-base", type=int)
    p_run.add_argument("--out", help="output path (default: stdout)")
    p_run.add_argument("--format", choices=["jsonl", "table"], dest="fmt")
    p_run.add_argument("--workers", type=int)

    p_val = sub.add_parser("validate", help="check a configuration for feasibility")
    add_scenario_flags(p_val)

    p_orc = sub.add_parser("oracle", help="print brute-force reference tables")
    p_orc.add_argument(
        "--table",
        choices=["bell-pauli", "swap", "decoy"],
        help="print one table instead of all",
    )
    return parser


def _boolean(value: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[value.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {value!r}") from None


# Every INI key: section -> key -> (field name, cast).
_INI_KEYS = {
    "scenario": {
        "protocol": ("protocol", str),
        "n_pairs": ("n_pairs", int),
        "agent_count": ("agent_count", int),
        "sample_fraction": ("sample_fraction", float),
        "step6_sample_count": ("step6_sample_count", int),
        "checking_photon_count": ("checking_photon_count", int),
        "error_threshold": ("error_threshold", float),
    },
    "adversary": {
        "kind": ("kind", str),
        "hop": ("hop", str),
        "basis_policy": ("basis_policy", str),
        "publish_true_ops": ("publish_true_ops", _boolean),
    },
    "batch": {
        "trials": ("trials", int),
        "seed_base": ("seed_base", int),
        "format": ("output_format", str),
        "out": ("out_path", str),
        "workers": ("workers", int),
    },
}


def _read_ini(path: str) -> dict[str, dict]:
    """Read a config file into one dict of field values per section."""
    ini = configparser.ConfigParser()
    try:
        read = ini.read(path, encoding="utf-8")
        sections = {name: dict(ini[name]) for name in ini.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        detail = str(exc).replace("\n", " ")
        raise ConfigError(f"cannot parse config file {path!r}: {detail}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    # configparser copies [DEFAULT] keys into every section; reject them
    # under their own name.
    if ini.defaults():
        raise ConfigError(f"unknown section [{ini.default_section}]")
    values: dict[str, dict] = {section: {} for section in _INI_KEYS}
    for section, items in sections.items():
        if section not in _INI_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in items.items():
            if key not in _INI_KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            name, cast = _INI_KEYS[section][key]
            try:
                values[section][name] = cast(raw)
            except ValueError as exc:
                raise ConfigError(
                    f"bad value {raw!r} for {key!r} in [{section}]: {exc}"
                ) from exc
    return values


def _scenario_from_args(args: argparse.Namespace) -> ScenarioConfig:
    ini = _read_ini(args.config) if args.config else {name: {} for name in _INI_KEYS}
    scenario, adversary, batch = ini["scenario"], ini["adversary"], ini["batch"]
    args._batch_from_file = batch

    overrides = {
        "protocol": args.protocol,
        "n_pairs": args.n_pairs,
        "agent_count": args.agent_count,
        "sample_fraction": args.sample_fraction,
        "step6_sample_count": args.step6_sample_count,
        "checking_photon_count": args.checking_photon_count,
        "error_threshold": args.error_threshold,
    }
    scenario.update({k: v for k, v in overrides.items() if v is not None})
    if args.adversary is not None:
        adversary["kind"] = args.adversary
    if args.adversary_hop is not None:
        adversary["hop"] = args.adversary_hop
    if args.basis_policy is not None:
        adversary["basis_policy"] = args.basis_policy
    if args.publish_false_ops:
        adversary["publish_true_ops"] = False
    try:
        spec = AdversarySpec(**adversary)
        return ScenarioConfig(adversary=spec, **scenario)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _batch_from_args(args: argparse.Namespace, scenario: ScenarioConfig) -> BatchSpec:
    batch = dict(getattr(args, "_batch_from_file", {}))
    if args.trials is not None:
        batch["trials"] = args.trials
    if args.seed_base is not None:
        batch["seed_base"] = args.seed_base
    if args.out is not None:
        batch["out_path"] = args.out
    if args.fmt is not None:
        batch["output_format"] = args.fmt
    if args.workers is not None:
        batch["workers"] = args.workers
    return BatchSpec(scenario=scenario, **batch)


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = _scenario_from_args(args)
    spec = _batch_from_args(args, scenario)
    validate_batch(spec)
    stats, reports = run_batch(spec)
    text = emit_report(spec, stats, reports)
    if spec.out_path:
        try:
            with open(spec.out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {spec.out_path!r}: {exc}", file=sys.stderr)
            return EXIT_IO
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    scenario = _scenario_from_args(args)
    from .protocol import validate_config

    validate_config(scenario)
    print("configuration OK")
    return EXIT_OK


def _print_bell_pauli() -> None:
    print("# Bell outcome after applying a Pauli to the first photon of a pair")
    print(f"{'pauli':<6}{'initial':<12}outcome")
    for (p, label), outcome in bell_pauli_table().items():
        print(f"{p.name:<6}{label.name:<12}{outcome.name}")


def _print_swap() -> None:
    print("# Entanglement swapping: pairs (1,2) and (3,4), Bell measurement on (2,3)")
    print(f"{'left':<12}{'right':<12}{'measured':<12}result(1,4)")
    for (left, right, measured), result in swap_table().items():
        print(f"{left.name:<12}{right.name:<12}{measured.name:<12}{result.name}")


def _print_decoy() -> None:
    print("# Intercept-resend error rates (exact enumeration)")
    for policy in ("uniform", "fixed-Z", "fixed-X"):
        zx = intercept_resend_check_error(policy)
        dec = decoy_error_rate(policy)
        print(f"policy {policy:<8} zx-check error {zx:.4f}   decoy error {dec:.4f}")
    print(
        "# Per-sample pass rate of the swap attack at the dealer's Hadamard check: "
        f"{swap_attack_step6_pass_rate():.4f}"
    )
    print(
        "# Eavesdropper information about four-state photons (uniform policy): "
        f"{eve_state_information():.4f} bits/photon"
    )


def _cmd_oracle(args: argparse.Namespace) -> int:
    table = getattr(args, "table", None)
    if table in (None, "bell-pauli"):
        _print_bell_pauli()
    if table in (None, "swap"):
        _print_swap()
    if table in (None, "decoy"):
        _print_decoy()
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "validate":
            return _cmd_validate(args)
        return _cmd_oracle(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
