"""A run's private events, read back in one dict for analysis.

The protocol records what no party announces -- each party's Pauli
operations, the reader's decoded totals and the message positions -- as
transcript events marked ``"private": True``, each with a ``positions``
array and, for operations, an ``ops`` array of Pauli codes beside it.
``private_record`` gathers them by kind, with operations as
``{position: PauliOp}``.
"""

from qss_sim.pauli import PauliOp


def private_events(report) -> list[dict]:
    return [e for e in report.transcript.events if e.get("private")]


def _ops(event: dict) -> dict[int, PauliOp]:
    return dict(zip(event["positions"].tolist(), map(PauliOp, event["ops"].tolist())))


def private_record(report) -> dict:
    """The private events of `report` as far as the run got: ``totals``,
    ``alice_ops`` and ``bob_ops`` as position -> PauliOp dicts (``bob_ops``
    empty when Bob attacks), ``agent_ops`` as one such dict per agent of
    the chain (empty for an agent that encrypted nothing) once the step-2
    check has passed, and the ``message_positions`` list."""
    config = report.config
    record: dict = {}
    if config.protocol == "improved" and report.checks[0].verdict == "pass":
        record["agent_ops"] = [{} for _ in range(config.agent_count)]
    for event in private_events(report):
        kind = event["kind"]
        if kind == "message_positions":
            record[kind] = event["positions"].tolist()
        elif kind == "agent_ops":
            record[kind][int(event["party"].removeprefix("agent"))] = _ops(event)
        else:
            record[kind] = _ops(event)
    if config.protocol == "original" and record:
        record.setdefault("bob_ops", {})
    return record
