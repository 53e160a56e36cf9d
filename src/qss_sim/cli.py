"""Command-line interface.

Subcommands:

* ``qss-sim run [--config scenario.ini] [flags]`` -- execute a trial
  batch, writing each trial's JSON line as the trial finishes.
* ``qss-sim validate [--config scenario.ini] [flags]`` -- feasibility
  check only.
* ``qss-sim oracle [--table bell-pauli|swap|decoy]`` -- print the
  brute-force statevector reference tables.

The fields of ``ScenarioConfig``, ``AdversarySpec`` and ``BatchSpec``
are the configuration schema.  Every field but the per-trial
``master_seed`` is a key in the flat INI section [scenario], [adversary]
or [batch] and a flag of ``run``; ``validate`` takes the first two
sections' flags.  Casts and choice lists are read off the declarations
by ``protocol.fields``; ``_ALIASES`` holds the public names that differ
from the field names.  Flags override file values.  Unknown sections and
keys are rejected.  The values themselves are checked where a library
caller's are, each against its field's declaration by
``protocol.check_fields`` (an ``AdversarySpec`` as it is made, the rest
in ``validate_batch``), and their ranges by ``validate_batch``.  Exit
codes: 0 success, 1 configuration error or not enough memory, 2 I/O
error.

``run --out`` writes to ``<out>.partial`` and moves it onto ``<out>``
once the batch has finished; a failed run removes it and leaves an
existing ``<out>`` as it was.  An ``--out`` that cannot be written, a
directory among them, fails before the first trial.  Without ``--out``
the lines go to stdout, so a failure mid-batch leaves the lines already
written.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import dataclasses
import itertools
import os
import sys
import time
from typing import IO, Any, Callable, NamedTuple

from . import __version__
from .adversaries import VALID_POLICIES, AdversarySpec
from .harness import (
    BatchSpec,
    run_batch,
    summary_line,
    table_report,
    trial_line,
    validate_batch,
)
from .oracles import (
    bell_pauli_table,
    decoy_error_rate,
    eve_state_information,
    intercept_resend_check_error,
    swap_attack_step6_pass_rate,
    swap_table,
)
from .protocol import ConfigError, ScenarioConfig, fields

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2

_SECTIONS = {"scenario": ScenarioConfig, "adversary": AdversarySpec, "batch": BatchSpec}

# Public names that differ from the field name: field -> (INI key, flag),
# or None for a field that is not settable.
_ALIASES = {
    "master_seed": None,  # seed_base + t for trial t
    "kind": ("kind", "--adversary"),
    "hop": ("hop", "--adversary-hop"),
    "publish_true_ops": ("publish_true_ops", "--publish-false-ops"),
    "output_format": ("format", "--format"),
    "out_path": ("out", "--out"),
}


def _boolean(value: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[value.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {value!r}") from None


class _Option(NamedTuple):
    field: str
    key: str
    flag: str
    cast: Callable[[str], Any]
    default: Any
    choices: tuple[str, ...] | None


def _options(cls: type) -> dict[str, _Option]:
    """INI key -> option for every settable field of a config dataclass."""
    options = {}
    for name, kind, _, default, choices in fields(cls):
        names = _ALIASES.get(name, (name, "--" + name.replace("_", "-")))
        if names is None or dataclasses.is_dataclass(kind):
            continue
        cast = _boolean if kind is bool else kind
        options[names[0]] = _Option(name, *names, cast, default, choices)
    return options


# Every INI key: section -> key -> option.
_INI_KEYS = {section: _options(cls) for section, cls in _SECTIONS.items()}


def _add_flags(parser: argparse.ArgumentParser, sections: tuple[str, ...]) -> None:
    parser.add_argument("--config", help="INI scenario file")
    for section in sections:
        for key, o in _INI_KEYS[section].items():
            if o.cast is _boolean:
                # A boolean flag sets the opposite of the default.
                value = not o.default
                parser.add_argument(
                    o.flag, dest=o.field, action="store_const", const=value,
                    help=f"[{section}] {key} = {str(value).lower()}",
                )
            else:
                default = "" if o.default is None else f", default {o.default}"
                parser.add_argument(
                    o.flag, dest=o.field, type=o.cast, choices=o.choices,
                    help=f"[{section}] {key}{default}",
                )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qss-sim",
        description="Quantum secret splitting protocol simulator",
    )
    parser.add_argument("--version", action="version", version=f"qss-sim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a batch of seeded trials")
    _add_flags(p_run, ("scenario", "adversary", "batch"))

    p_val = sub.add_parser("validate", help="check a configuration for feasibility")
    _add_flags(p_val, ("scenario", "adversary"))

    p_orc = sub.add_parser("oracle", help="print brute-force reference tables")
    p_orc.add_argument(
        "--table",
        choices=["bell-pauli", "swap", "decoy"],
        help="print one table instead of all",
    )
    return parser


def _read_ini(path: str) -> dict[str, dict]:
    """Read a config file into one dict of field values per section.
    Values are taken literally: no ``%`` interpolation."""
    ini = configparser.ConfigParser(interpolation=None)
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
            option = _INI_KEYS[section][key]
            try:
                values[section][option.field] = option.cast(raw)
            except ValueError as exc:
                raise ConfigError(
                    f"bad value {raw!r} for {key!r} in [{section}]: {exc}"
                ) from exc
    return values


def _spec_from_args(args: argparse.Namespace) -> BatchSpec:
    """The batch that the config file and the flags describe; a flag
    overrides the file."""
    values = _read_ini(args.config) if args.config else {s: {} for s in _INI_KEYS}
    for section, options in _INI_KEYS.items():
        for o in options.values():
            flag_value = getattr(args, o.field, None)
            if flag_value is not None:
                values[section][o.field] = flag_value
    adversary = AdversarySpec(**values["adversary"])
    scenario = ScenarioConfig(adversary=adversary, **values["scenario"])
    return BatchSpec(scenario=scenario, **values["batch"])


def _write_batch(spec: BatchSpec, out: IO[str]) -> None:
    """Run the batch, writing each trial's line as the trial finishes."""
    if spec.output_format == "table":
        start = time.perf_counter()
        stats = run_batch(spec, lambda report: None)
        out.write(table_report(spec, stats, time.perf_counter() - start))
        return
    trials = itertools.count()
    stats = run_batch(spec, lambda report: out.write(trial_line(spec, next(trials), report)))
    out.write(summary_line(spec, stats))


def _cmd_run(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    validate_batch(spec)
    if not spec.out_path:
        _write_batch(spec, sys.stdout)
        return EXIT_OK
    # Write beside --out and replace it only once the batch has finished,
    # so a failed run leaves an existing file as it was.  A directory
    # could not be replaced: refuse it before the first trial.
    partial = spec.out_path + ".partial"
    try:
        if os.path.isdir(spec.out_path):
            raise IsADirectoryError("is a directory")
        fh = open(partial, "w", encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot write {spec.out_path!r}: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        with fh:
            _write_batch(spec, fh)
        os.replace(partial, spec.out_path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(partial)
        raise
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    validate_batch(_spec_from_args(args))
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
    for policy in VALID_POLICIES:
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
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
