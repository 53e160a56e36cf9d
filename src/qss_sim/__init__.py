"""Seedable simulator of EPR-pair quantum secret splitting protocols."""

from .adversaries import AdversarySpec
from .pauli import (
    Basis,
    BellLabel,
    PauliOp,
    compose,
    conjugate_by_h,
    decode_bell_to_pauli,
    decode_message,
    encode_message,
    pauli_to_bell,
    recover_dealer_pauli,
    swap_rule,
)
from .protocol import (
    CheckReport,
    ConfigError,
    RunReport,
    ScenarioConfig,
    Transcript,
    run_improved,
    run_original,
    run_trial,
    validate_config,
)
from .register import (
    ConsumedPhotonError,
    Register,
    RegisterError,
    SingleGate,
    SingleState,
)

__version__ = "0.1.0"

__all__ = [
    "AdversarySpec",
    "Basis",
    "BellLabel",
    "CheckReport",
    "ConfigError",
    "ConsumedPhotonError",
    "PauliOp",
    "Register",
    "RegisterError",
    "RunReport",
    "ScenarioConfig",
    "SingleGate",
    "SingleState",
    "Transcript",
    "compose",
    "conjugate_by_h",
    "decode_bell_to_pauli",
    "decode_message",
    "encode_message",
    "pauli_to_bell",
    "recover_dealer_pauli",
    "run_improved",
    "run_original",
    "run_trial",
    "swap_rule",
    "validate_config",
    "__version__",
]
