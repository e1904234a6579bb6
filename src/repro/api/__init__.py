"""Declarative scenario API: specs, the variation registry, builders, campaigns.

This package separates the *policy description* from the *execution engine*
(the split Section 3 of the paper implies): a scenario is data -- a
:class:`~repro.api.spec.SystemSpec` or :class:`~repro.api.spec.FleetSpec`
that round-trips through JSON -- and the builders are the single construction
path from that data to running :class:`~repro.engine.session.NVariantSession` /
:class:`~repro.engine.scheduler.MultiSessionEngine` machinery.

Typical use::

    from repro import SystemSpec, VariationSpec, build_session, run_campaign

    spec = SystemSpec(name="2-variant-uid", variations=(VariationSpec("uid"),))
    report = run_campaign([spec])                          # attacks x specs
    result = build_session(spec, kernel, factory).run()    # one concrete system

``python -m repro run scenario.json`` drives the same API from the command
line, so new scenarios require no code at all.
"""

from repro.api.builders import (
    build_engine,
    build_session,
    build_variations,
)
from repro.api.campaign import (
    CampaignReport,
    attacks_by_name,
    prepare_attack,
    run_attack,
    run_campaign,
    standard_attacks,
)
from repro.api.experiments import (
    ExperimentParameter,
    ExperimentParameterError,
    ExperimentRegistry,
    ExperimentRegistryError,
    ExperimentReport,
    RegisteredExperiment,
    ReportKeyValues,
    ReportTable,
    UnknownExperimentError,
    experiments,
)
from repro.api.registry import (
    RegisteredVariation,
    UnknownVariationError,
    VariationParameterError,
    VariationRegistry,
    VariationRegistryError,
    registry,
)
from repro.api.spec import (
    ADDRESS_ORBIT_3_SPEC,
    ADDRESS_PARTITIONING_SPEC,
    ADDRESS_UID_SPEC,
    COMBINED_ORBIT_3_SPEC,
    ExperimentSpec,
    FLEET_HALT_POLICIES,
    FleetSpec,
    SINGLE_PROCESS_SPEC,
    STANDARD_SYSTEM_SPECS,
    SystemSpec,
    UID_DIVERSITY_SPEC,
    UID_ORBIT_3_SPEC,
    VariationSpec,
    WorkloadSpec,
    address_orbit_spec,
    combined_orbit_spec,
    keyed_address_spec,
    keyed_uid_spec,
    uid_orbit_spec,
)

__all__ = [
    "ADDRESS_ORBIT_3_SPEC",
    "ADDRESS_PARTITIONING_SPEC",
    "ADDRESS_UID_SPEC",
    "COMBINED_ORBIT_3_SPEC",
    "CampaignReport",
    "ExperimentParameter",
    "ExperimentParameterError",
    "ExperimentRegistry",
    "ExperimentRegistryError",
    "ExperimentReport",
    "ExperimentSpec",
    "FLEET_HALT_POLICIES",
    "FleetSpec",
    "RegisteredExperiment",
    "RegisteredVariation",
    "ReportKeyValues",
    "ReportTable",
    "SINGLE_PROCESS_SPEC",
    "STANDARD_SYSTEM_SPECS",
    "SystemSpec",
    "UID_DIVERSITY_SPEC",
    "UID_ORBIT_3_SPEC",
    "UnknownExperimentError",
    "UnknownVariationError",
    "VariationParameterError",
    "VariationRegistry",
    "VariationRegistryError",
    "VariationSpec",
    "WorkloadSpec",
    "address_orbit_spec",
    "attacks_by_name",
    "build_engine",
    "build_session",
    "build_variations",
    "combined_orbit_spec",
    "experiments",
    "keyed_address_spec",
    "keyed_uid_spec",
    "prepare_attack",
    "registry",
    "run_attack",
    "run_campaign",
    "standard_attacks",
    "uid_orbit_spec",
]
