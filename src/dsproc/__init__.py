"""dsproc: domain-specific process design, generation, execution, monitoring.

Pipeline stages, each usable on its own:

- :mod:`dsproc.domain` / :mod:`dsproc.process` parse the textual languages
- :mod:`dsproc.pivot` lowers processes to the generic pivot model
- :mod:`dsproc.bpmn` generates and parses BPMN 2.0 with concept traceability
- :mod:`dsproc.mappings` keeps concept/activity maps and stable uids
- :mod:`dsproc.deploy` binds abstract services to concrete endpoints
- :mod:`dsproc.engine` simulates execution into a deterministic event log
- :mod:`dsproc.eventlog` writes and reads that log, the contract of engine and monitor
- :mod:`dsproc.monitor` aggregates logs into concept metrics and SLA alerts
"""
