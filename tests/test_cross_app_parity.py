"""Cross-application parity: the guarantees are app-independent.

The paper's security argument never mentions HTTP: detection rests on data
diversity at the syscall boundary, so swapping the protected workload must
not move a single cell of the detection matrix.  Both registered serving
apps share one vulnerable state layout and one overflow wire format, and
this suite pins every Table-2/Table-3 attack class to the *same*
detected/undetected classification on httpd and ftpd alike.
"""

import pytest

from repro.api.campaign import run_attack
from repro.api.spec import STANDARD_SYSTEM_SPECS
from repro.apps.catalog import app_names
from repro.attacks.memory_attacks import standard_address_attacks
from repro.attacks.outcomes import OutcomeKind
from repro.attacks.uid_attacks import standard_uid_attacks

APPS = ("httpd", "ftpd")

UC = OutcomeKind.UNDETECTED_COMPROMISE
DET = OutcomeKind.DETECTED
NE = OutcomeKind.NO_EFFECT
CRASH = OutcomeKind.CRASHED

#: Expected outcomes per configuration (single, address, uid, address+uid),
#: identical for every registered app -- the parity being asserted.
PARITY_MATRIX = {
    "full-word-root-overwrite": (UC, UC, DET, DET),
    "full-word-user-overwrite": (UC, UC, DET, DET),
    "partial-1-byte-overwrite": (UC, UC, DET, DET),
    "partial-2-byte-overwrite": (UC, UC, DET, DET),
    "partial-3-byte-overwrite": (UC, UC, DET, DET),
    "low-bit-flip": (NE, NE, NE, NE),
    "high-bit-flip": (UC, UC, UC, UC),
    "absolute-address-injection": (UC, DET, DET, DET),
    "high-partition-address-injection": (CRASH, DET, DET, DET),
}


def _attacks(app):
    by_name = {attack.name: attack for attack in standard_uid_attacks(app)}
    by_name.update(
        {attack.name: attack for attack in standard_address_attacks(app)}
    )
    return by_name


def test_both_apps_are_registered():
    assert set(APPS) <= set(app_names())


def test_matrix_covers_every_standard_attack():
    assert set(PARITY_MATRIX) == set(_attacks("httpd"))


@pytest.mark.parametrize("app", APPS)
@pytest.mark.parametrize("spec_index", range(len(STANDARD_SYSTEM_SPECS)))
@pytest.mark.parametrize("attack_name", sorted(PARITY_MATRIX))
def test_cell_classification_is_app_independent(app, attack_name, spec_index):
    attack = _attacks(app)[attack_name]
    spec = STANDARD_SYSTEM_SPECS[spec_index]
    outcome = run_attack(attack, spec)
    expected = PARITY_MATRIX[attack_name][spec_index]
    assert outcome.kind is expected, f"{app}: {outcome.describe()}"


@pytest.mark.parametrize("attack_name", sorted(PARITY_MATRIX))
def test_apps_agree_cell_for_cell(attack_name):
    """Belt and braces: compare the two apps' raw outcome kinds directly,
    so the parity claim cannot rot if PARITY_MATRIX is edited."""
    for spec in STANDARD_SYSTEM_SPECS:
        kinds = []
        for app in APPS:
            kinds.append(run_attack(_attacks(app)[attack_name], spec).kind)
        assert kinds[0] is kinds[1], f"{attack_name} @ {spec.name}: {kinds}"
