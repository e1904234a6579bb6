"""repro: reproduction of "Security through Redundant Data Diversity" (DSN 2008).

The package is organised as the paper's system is layered:

* :mod:`repro.kernel` -- simulated Unix kernel substrate (processes,
  credentials, VFS, descriptors, network, syscalls, detection calls).
* :mod:`repro.memory` -- simulated address spaces and the memory-corruption
  primitives attacks operate with.
* :mod:`repro.isa` -- miniature instruction set for the tagging variation.
* :mod:`repro.core` -- the N-variant framework with data diversity:
  reexpression functions, variations, lockstep engine, monitor, wrappers.
* :mod:`repro.engine` -- the concurrent multi-session execution engine:
  resumable lockstep sessions and the cooperative round-robin scheduler.
* :mod:`repro.api` -- the declarative scenario layer: JSON-round-trippable
  system/fleet specs, the variation registry, the builders that are the only
  supported construction path, and the unified campaign runner.
* :mod:`repro.transform` -- mini-C source-to-source UID transformation
  (Section 3.3 / Section 4 change accounting).
* :mod:`repro.apps` -- the mini Apache case-study server and the
  WebBench-style workload generator.
* :mod:`repro.attacks` -- the attack library (campaigns run through
  :func:`repro.api.campaign.run_campaign`).
* :mod:`repro.analysis` -- virtual-time performance model, metrics, and one
  registered experiment per paper table/figure (see
  :mod:`repro.api.experiments`).

The documented import path for the scenario API is this top-level package::

    from repro import SystemSpec, FleetSpec, build_session, build_engine, registry

``python -m repro run scenario.json`` drives the same API from the shell.
"""

from repro._version import __version__
from repro.api import (
    ADDRESS_ORBIT_3_SPEC,
    ADDRESS_PARTITIONING_SPEC,
    ADDRESS_UID_SPEC,
    COMBINED_ORBIT_3_SPEC,
    CampaignReport,
    ExperimentReport,
    ExperimentSpec,
    FleetSpec,
    SINGLE_PROCESS_SPEC,
    STANDARD_SYSTEM_SPECS,
    SystemSpec,
    UID_DIVERSITY_SPEC,
    UID_ORBIT_3_SPEC,
    UnknownVariationError,
    VariationParameterError,
    VariationRegistry,
    VariationSpec,
    WorkloadSpec,
    build_engine,
    build_session,
    build_variations,
    experiments,
    prepare_attack,
    registry,
    run_attack,
    run_campaign,
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
    "ExperimentReport",
    "ExperimentSpec",
    "FleetSpec",
    "SINGLE_PROCESS_SPEC",
    "STANDARD_SYSTEM_SPECS",
    "SystemSpec",
    "UID_DIVERSITY_SPEC",
    "UID_ORBIT_3_SPEC",
    "UnknownVariationError",
    "VariationParameterError",
    "VariationRegistry",
    "VariationSpec",
    "WorkloadSpec",
    "__version__",
    "address_orbit_spec",
    "combined_orbit_spec",
    "build_engine",
    "build_session",
    "build_variations",
    "experiments",
    "keyed_address_spec",
    "keyed_uid_spec",
    "prepare_attack",
    "registry",
    "run_attack",
    "run_campaign",
    "uid_orbit_spec",
]
