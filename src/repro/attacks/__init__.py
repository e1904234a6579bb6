"""Attack library: payload builders and spec-driven attack drivers.

Each attack family has one driver that takes any
:class:`~repro.api.spec.SystemSpec`, the undefended ``num_variants=1``
single-process spec included: :func:`~repro.attacks.uid_attacks.prepare_remote_attack`
and :func:`~repro.attacks.uid_attacks.prepare_corruption_attack` for UID
corruption, :func:`~repro.attacks.memory_attacks.prepare_address_attack` for
address injection.  Run one cell with
``repro.api.campaign.run_attack(attack, spec)`` (``prepare_attack`` picks
the driver), or a cross product with
:func:`repro.api.campaign.run_campaign`.
:class:`~repro.api.campaign.CampaignReport` stays importable from here for
report-consuming callers.
"""

from repro.api.campaign import CampaignReport
from repro.attacks.code_injection import (
    CodeInjectionAttack,
    run_code_injection_tagged,
    run_code_injection_untagged,
)
from repro.attacks.memory_attacks import (
    AddressInjectionAttack,
    INJECTED_ABSOLUTE_ADDRESS,
    prepare_address_attack,
    standard_address_attacks,
)
from repro.attacks.outcomes import AttackOutcome, OutcomeKind, classify
from repro.attacks.payloads import (
    DEFAULT_TARGET_FILE,
    OverflowSpec,
    banner_pointer_payload,
    benign_request,
    traversal_path,
    uid_overwrite_payload,
)
from repro.attacks.uid_attacks import (
    SHADOW_MARKER,
    UIDAttack,
    prepare_corruption_attack,
    prepare_remote_attack,
    standard_uid_attacks,
)

__all__ = [
    "AddressInjectionAttack",
    "AttackOutcome",
    "CampaignReport",
    "CodeInjectionAttack",
    "DEFAULT_TARGET_FILE",
    "INJECTED_ABSOLUTE_ADDRESS",
    "OutcomeKind",
    "OverflowSpec",
    "SHADOW_MARKER",
    "UIDAttack",
    "banner_pointer_payload",
    "benign_request",
    "classify",
    "prepare_address_attack",
    "prepare_corruption_attack",
    "prepare_remote_attack",
    "run_code_injection_tagged",
    "run_code_injection_untagged",
    "standard_address_attacks",
    "standard_uid_attacks",
    "traversal_path",
    "uid_overwrite_payload",
]
