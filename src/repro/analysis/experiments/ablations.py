"""Ablation experiments for the design choices DESIGN.md calls out.

Three design decisions in the paper have explicit alternatives that were
considered and rejected (or deferred); each ablation here makes the trade-off
measurable:

1. **Detection syscalls vs. plain syscall-boundary monitoring** (Section 5).
   With the detection calls, a corrupted UID is caught at its first use; with
   only ordinary syscall monitoring, detection waits until the corrupted
   value reaches a real kernel call.  We measure the detection latency (in
   system calls issued after the corrupting request) for both builds.
2. **XOR 0x7FFFFFFF vs. XOR 0xFFFFFFFF** (Section 3.2).  The full flip closes
   the sign-bit blind spot analytically, but produces UID representations
   the kernel rejects, breaking normal equivalence; we demonstrate both
   halves.
3. **Unshared files vs. in-process reexpression of external data**
   (Section 3.4).  Embedding ``R_1`` in the server lets an attacker who can
   inject a *semantic* UID value have the process itself reexpress it --
   the corrupted value then decodes identically in both variants and the
   attack is not detected.  With unshared files there is no such in-process
   path.
"""

from __future__ import annotations

import dataclasses

from repro.api.builders import build_session
from repro.api.experiments import ExperimentReport, ReportKeyValues
from repro.api.spec import SystemSpec, UID_DIVERSITY_SPEC, VariationSpec
from repro.apps.clients.webbench import WebBenchWorkload, drive_nvariant_many
from repro.core.reexpression import sample_domain
from repro.core.variations.uid import FullFlipUIDVariation, UIDVariation
from repro.engine import MultiSessionEngine
from repro.kernel.host import build_standard_host


# ---------------------------------------------------------------------------
# Ablation 1: detection syscalls vs plain syscall-boundary monitoring
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class DetectionLatencyResult:
    """Syscall-level detection latency with and without detection calls.

    Latency is measured in lockstep rounds between the corruption and the
    alarm.  The probe corrupts a cached UID and then performs several
    user-space uses of it (comparisons that steer application logic) before
    the value finally reaches a kernel call.  With the detection calls of
    Table 2 the very first use is exposed to the monitor; relying only on
    ordinary syscall-boundary monitoring, the divergence stays invisible
    until the corrupted value reaches ``setuid`` -- the precision-vs-
    intrusiveness trade-off Section 5 discusses.
    """

    with_detection_calls: int | None
    without_detection_calls: int | None
    user_space_uses: int

    @property
    def detects_strictly_earlier(self) -> bool:
        """Detection syscalls alarm before syscall-boundary monitoring does."""
        return (
            self.with_detection_calls is not None
            and self.without_detection_calls is not None
            and self.with_detection_calls < self.without_detection_calls
        )

    def section(self) -> ReportKeyValues:
        """This ablation's comparison as a report section."""
        return ReportKeyValues(
            title="Ablation 1: detection syscalls vs syscall-boundary monitoring",
            pairs=(
                (
                    "user-space UID uses between corruption and the kernel call",
                    str(self.user_space_uses),
                ),
                (
                    "rounds from corruption to alarm (with detection syscalls)",
                    str(self.with_detection_calls),
                ),
                (
                    "rounds from corruption to alarm (syscall-boundary monitoring only)",
                    str(self.without_detection_calls),
                ),
            ),
        )


def _latency_probe_factory(*, use_detection_calls: bool, user_space_uses: int):
    """Probe program for the detection-latency ablation."""

    def factory(context):
        libc = context.libc
        codec = context.uid_codec

        def program():
            from repro.kernel.filesystem import O_RDONLY, O_WRONLY, O_APPEND
            from repro.kernel.passwd import parse_passwd

            opened = yield from libc.open("/etc/passwd", O_RDONLY)
            data = (yield from libc.read(opened.value, 8192)).value
            yield from libc.close(opened.value)
            entries = parse_passwd(data.decode())
            worker_uid = next(e.uid for e in entries if e.name == "www-data")
            log_fd = (yield from libc.open("/var/log/httpd/error_log", O_WRONLY | O_APPEND)).value

            # Marker call right before the corruption so both builds share the
            # same pre-corruption round count.
            yield from libc.nanosleep(0)

            # The attack: the same concrete value lands in both variants.
            corrupted = 0

            decisions = []
            for _ in range(user_space_uses):
                if use_detection_calls:
                    is_root = (yield from libc.cc_eq(corrupted, codec.root)).value
                else:
                    is_root = corrupted == codec.root
                decisions.append(bool(is_root))
                # Application work that does not expose the decision to the
                # kernel: the divergence stays internal.
                yield from libc.write(log_fd, "request handled\n")

            yield from libc.seteuid(corrupted)
            yield from libc.close(log_fd)
            yield from libc.exit(0)

        return program()

    return factory


def _latency_from_result(result) -> int | None:
    alarm = result.first_alarm()
    if alarm is None or alarm.lockstep_index is None:
        return None
    # Rounds before the corruption marker are identical in both builds: open,
    # read, close, open(log), nanosleep = 5 rounds.
    pre_corruption_rounds = 5
    return alarm.lockstep_index - pre_corruption_rounds


def run_detection_latency(user_space_uses: int = 5) -> DetectionLatencyResult:
    """Run ablation 1: both builds interleaved on one engine."""
    sessions = [
        build_session(
            UID_DIVERSITY_SPEC,
            build_standard_host(),
            _latency_probe_factory(
                use_detection_calls=use_detection_calls, user_space_uses=user_space_uses
            ),
            name=f"ablation1-{'with' if use_detection_calls else 'without'}",
        )
        for use_detection_calls in (True, False)
    ]
    with_calls, without_calls = MultiSessionEngine(sessions, name="ablation1").run().values()
    return DetectionLatencyResult(
        with_detection_calls=_latency_from_result(with_calls),
        without_detection_calls=_latency_from_result(without_calls),
        user_space_uses=user_space_uses,
    )


# ---------------------------------------------------------------------------
# Ablation 2: the reexpression mask
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class MaskAblationResult:
    """Consequences of the 31-bit vs 32-bit reexpression masks."""

    full_flip_breaks_normal_operation: bool
    full_flip_alarms: int
    paper_mask_serves_normally: bool
    paper_mask_high_bit_blind_spot: bool
    full_flip_closes_blind_spot: bool

    def section(self) -> ReportKeyValues:
        """This ablation's comparison as a report section."""
        return ReportKeyValues(
            title="Ablation 2: reexpression mask (0x7FFFFFFF vs 0xFFFFFFFF)",
            pairs=(
                (
                    "XOR 0xFFFFFFFF variant fails on a benign workload (kernel rejects "
                    "sign-bit UIDs)",
                    str(self.full_flip_breaks_normal_operation),
                ),
                ("alarms raised by the full-flip configuration", str(self.full_flip_alarms)),
                (
                    "XOR 0x7FFFFFFF variant serves the benign workload",
                    str(self.paper_mask_serves_normally),
                ),
                (
                    "XOR 0x7FFFFFFF cannot detect a corruption confined to the sign bit",
                    str(self.paper_mask_high_bit_blind_spot),
                ),
                (
                    "XOR 0xFFFFFFFF would detect that corruption (analytically)",
                    str(self.full_flip_closes_blind_spot),
                ),
            ),
        )


def run_mask_ablation(requests: int = 4) -> MaskAblationResult:
    """Run ablation 2."""
    workload = WebBenchWorkload(total_requests=requests)

    (paper_measurement, paper_result), (full_measurement, full_result) = drive_nvariant_many(
        [
            (workload, UID_DIVERSITY_SPEC.with_name("mask-paper")),
            (
                workload,
                SystemSpec(name="mask-full-flip", variations=(VariationSpec("uid-full-flip"),)),
            ),
        ]
    )

    # Analytical blind-spot check: corrupt only the sign bit with the same
    # concrete change in both variants and ask whether the decoded values
    # differ (Section 2.3's detection rule).
    paper_variation = UIDVariation()
    full_variation = FullFlipUIDVariation()

    def detects_sign_bit_overwrite(variation) -> bool:
        for uid in sample_domain(bits=31, count=64):
            post = [variation.encode(i, uid) | 0x80000000 for i in range(2)]
            decoded = [variation.decode(i, value) for i, value in enumerate(post)]
            if decoded[0] != decoded[1]:
                return True
        return False

    return MaskAblationResult(
        full_flip_breaks_normal_operation=not full_measurement.completed_ok
        or full_result.attack_detected,
        full_flip_alarms=len(full_result.alarms),
        paper_mask_serves_normally=paper_measurement.completed_ok
        and not paper_result.attack_detected,
        paper_mask_high_bit_blind_spot=not detects_sign_bit_overwrite(paper_variation),
        full_flip_closes_blind_spot=detects_sign_bit_overwrite(full_variation),
    )


# ---------------------------------------------------------------------------
# Ablation 3: unshared files vs in-process reexpression
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class ExternalDataAblationResult:
    """Unshared files vs embedding the reexpression function in the process."""

    unshared_files_detects_injection: bool
    in_process_reexpression_detects_injection: bool

    def section(self) -> ReportKeyValues:
        """This ablation's comparison as a report section."""
        return ReportKeyValues(
            title="Ablation 3: unshared files vs in-process reexpression",
            pairs=(
                (
                    "injected UID detected when external data comes from unshared files",
                    str(self.unshared_files_detects_injection),
                ),
                (
                    "injected UID detected when the process reexpresses external data itself",
                    str(self.in_process_reexpression_detects_injection),
                ),
            ),
        )


def run_external_data_ablation() -> ExternalDataAblationResult:
    """Run ablation 3.

    Both cases model an attacker who has corrupted the *semantic* UID the
    server is about to use (e.g. by overwriting it before it is encoded).  If
    the running process applies ``R_i`` itself, it faithfully reexpresses the
    attacker's value and the target interpreters receive equivalent data --
    no detection.  When the only diversified source of trusted UIDs is the
    per-variant file, the attacker's single concrete value cannot be valid in
    both variants.
    """
    variation = UIDVariation()
    injected_semantic_uid = 0  # the attacker wants root

    # In-process reexpression: each variant encodes the attacker's value.
    decoded_in_process = {
        variation.decode(i, variation.encode(i, injected_semantic_uid)) for i in range(2)
    }
    in_process_detected = len(decoded_in_process) > 1

    # Unshared files: the attacker's value reaches both variants as the same
    # concrete bytes (input is replicated); decoding diverges.
    decoded_unshared = {variation.decode(i, injected_semantic_uid) for i in range(2)}
    unshared_detected = len(decoded_unshared) > 1

    return ExternalDataAblationResult(
        unshared_files_detects_injection=unshared_detected,
        in_process_reexpression_detects_injection=in_process_detected,
    )


@dataclasses.dataclass
class AblationSuiteResult:
    """All three ablations bundled for the benchmark harness."""

    detection_latency: DetectionLatencyResult
    mask: MaskAblationResult
    external_data: ExternalDataAblationResult

    def claim_results(self) -> dict[str, bool]:
        """The design-choice justifications, checked against the ablations."""
        return {
            "detection syscalls detect strictly earlier than syscall-boundary "
            "monitoring": self.detection_latency.detects_strictly_earlier,
            "the paper's 31-bit mask serves the benign workload": (
                self.mask.paper_mask_serves_normally
            ),
            "the full 32-bit flip breaks normal operation": (
                self.mask.full_flip_breaks_normal_operation
            ),
            "the 31-bit mask has the documented sign-bit blind spot": (
                self.mask.paper_mask_high_bit_blind_spot
            ),
            "the full flip would close the blind spot (analytically)": (
                self.mask.full_flip_closes_blind_spot
            ),
            "unshared files close the in-process reexpression bypass": (
                self.external_data.unshared_files_detects_injection
                and not self.external_data.in_process_reexpression_detects_injection
            ),
        }

    def to_report(self) -> ExperimentReport:
        """All three ablations as one shared experiment report."""
        return ExperimentReport(
            title="Design-choice ablations",
            sections=(
                self.detection_latency.section(),
                self.mask.section(),
                self.external_data.section(),
            ),
            claims=self.claim_results(),
            result=self,
        )


def run(*, user_space_uses: int = 5, requests: int = 4) -> AblationSuiteResult:
    """Run all ablations."""
    return AblationSuiteResult(
        detection_latency=run_detection_latency(user_space_uses),
        mask=run_mask_ablation(requests),
        external_data=run_external_data_ablation(),
    )


def experiment(*, user_space_uses: int = 5, requests: int = 4) -> ExperimentReport:
    """Registry entry point: run the suite, return the shared report."""
    return run(user_space_uses=user_space_uses, requests=requests).to_report()
