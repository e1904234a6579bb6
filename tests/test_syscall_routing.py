"""Per-syscall routing of the variation hooks, and the lockstep layer seams.

A variation declares, per hook, the system calls the hook may rewrite (its
*footprint*); :class:`VariationStack` routes each call only through the
variations whose footprint covers it, and the session and comparator skip a
stage outright when no variation's footprint covers the round's syscall.
These tests pin the contract that makes the skipping exact:

* every shipped variation returns its input object unchanged outside its
  declared footprints (so skipping the call cannot change a result);
* a subclass overriding a hook without redeclaring its footprint is still
  routed through (the stale-override rule);
* the routed stack hooks equal a full walk over every variation, for every
  syscall, before and after key rotation;
* the engine still enters every layer through the instance attributes a
  tracer wraps, so no layer can hide from an outside-in trace.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.analysis.experiments.apps import diversity_spec
from repro.api.builders import build_variations
from repro.api.spec import ADDRESS_UID_SPEC
from repro.apps.catalog import get_app
from repro.apps.clients.webbench import WebBenchWorkload
from repro.core.variations import (
    AddressPartitioning,
    ExtendedAddressPartitioning,
    FdOrbitVariation,
    FullFlipUIDVariation,
    InstructionSetTagging,
    KeyedAddressPartitioning,
    KeyedUIDVariation,
    OrbitAddressPartitioning,
    OrbitUIDVariation,
    UIDVariation,
    Variation,
    VariationStack,
)
from repro.core.variations.base import FOOTPRINT_HOOKS
from repro.engine import MultiSessionEngine
from repro.kernel.errors import Errno
from repro.kernel.host import build_standard_host
from repro.kernel.syscalls import Syscall, SyscallRequest, SyscallResult
from repro.load.checkpoint import build_serving_session

ALL_SYSCALLS = tuple(Syscall)

#: Values that exercise every decode branch: UID and fd boundaries, the
#: (uid_t)-1 sentinel, negatives, bools and non-integers.
ARG_VALUES = st.one_of(
    st.sampled_from((0, 1, 3, 65535, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF, -1)),
    st.integers(min_value=-(2**33), max_value=2**33),
    st.booleans(),
    st.binary(max_size=8),
    st.text(max_size=8),
)
ARGS = st.lists(ARG_VALUES, max_size=4).map(tuple)
RESULTS = st.builds(
    SyscallResult,
    value=ARG_VALUES,
    errno=st.sampled_from((Errno.OK, Errno.OK, Errno.EPERM, Errno.EBADF)),
)


def shipped_variations():
    """One instance of every variation the library ships."""
    return [
        UIDVariation(),
        FullFlipUIDVariation(),
        OrbitUIDVariation(3),
        KeyedUIDVariation(2, seed=20080625),
        FdOrbitVariation(3),
        AddressPartitioning(),
        OrbitAddressPartitioning(3),
        ExtendedAddressPartitioning(),
        KeyedAddressPartitioning(seed=20080625),
        InstructionSetTagging(),
    ]


def _call(variation, hook, index, req, result):
    if hook == "transform_result":
        return variation.transform_result(index, req, result), result
    return getattr(variation, hook)(index, req), req


class TestFootprintSoundness:
    def test_every_shipped_variation_declares_all_three_footprints(self):
        for variation in shipped_variations():
            stack = VariationStack([variation], variation.num_variants)
            assert stack.canonical_syscalls() is not None, variation.name
            assert stack.transform_syscalls() is not None, variation.name
            assert stack.result_syscalls() is not None, variation.name

    @settings(max_examples=40, deadline=None)
    @given(args=ARGS, result=RESULTS)
    def test_hooks_are_identities_outside_their_footprints(self, args, result):
        for variation in shipped_variations():
            for attribute, hook in FOOTPRINT_HOOKS:
                footprint = getattr(variation, attribute)
                for name in ALL_SYSCALLS:
                    if name in footprint:
                        continue
                    req = SyscallRequest(name, args)
                    for index in range(variation.num_variants):
                        out, given_in = _call(variation, hook, index, req, result)
                        assert out is given_in, (variation.name, hook, name, index)

    def test_result_override_without_redeclaring_footprint_is_routed(self):
        class WiderResults(UIDVariation):
            name = "wider-results"

            def transform_result(self, index, req, result):  # inherits stale footprint
                if req.name is Syscall.GETPID:
                    return SyscallResult.success(result.value + index)
                return super().transform_result(index, req, result)

        stack = VariationStack([AddressPartitioning(), WiderResults()])
        assert stack.result_syscalls() is None
        assert stack.canonical_syscalls() is not None
        pid = stack.transform_result(1, SyscallRequest(Syscall.GETPID), SyscallResult.success(7))
        assert pid.value == 8

    def test_redeclared_footprint_is_trusted(self):
        class DeclaredResults(UIDVariation):
            name = "declared-results"
            result_syscalls = UIDVariation.result_syscalls | {Syscall.GETPID}

            def transform_result(self, index, req, result):
                if req.name is Syscall.GETPID:
                    return SyscallResult.success(result.value + index)
                return super().transform_result(index, req, result)

        stack = VariationStack([DeclaredResults()])
        assert Syscall.GETPID in stack.result_syscalls()
        pid = stack.transform_result(1, SyscallRequest(Syscall.GETPID), SyscallResult.success(7))
        assert pid.value == 8


# -- routing equivalence ------------------------------------------------------


def _reference_canonicalize(stack, index, req):
    for variation in stack.variations:
        req = variation.canonicalize_request(index, req)
    return req


def _reference_transform(stack, index, req):
    for variation in stack.variations:
        req = variation.transform_request(index, req)
    return req


def _reference_result(stack, index, req, result):
    for variation in reversed(stack.variations):
        result = variation.transform_result(index, req, result)
    return result


def _stacks():
    keyed = [KeyedAddressPartitioning(seed=11), KeyedUIDVariation(2, seed=12)]
    return [
        VariationStack(build_variations(ADDRESS_UID_SPEC), ADDRESS_UID_SPEC.num_variants),
        VariationStack(build_variations(diversity_spec(3)), 3),
        VariationStack(keyed, 2),
    ]


def _outcome(hook, *args):
    """What *hook* returns, or the type of what it raises (drawn values may be
    ill-typed for a syscall, e.g. a bytes ``getuid`` result)."""
    try:
        return hook(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return type(exc)


def _assert_routed_equals_full_walk(stack, args, result):
    for name in ALL_SYSCALLS:
        req = SyscallRequest(name, args)
        for index in range(stack.num_variants):
            pairs = (
                (stack.canonicalize_request, _reference_canonicalize, (index, req)),
                (stack.transform_request, _reference_transform, (index, req)),
                (stack.transform_result, _reference_result, (index, req, result)),
            )
            for routed, reference, call_args in pairs:
                expected = _outcome(reference, stack, *call_args)
                assert _outcome(routed, *call_args) == expected, (routed.__name__, name, index)


class TestRoutingEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(args=ARGS, result=RESULTS)
    def test_routed_hooks_equal_the_full_walk(self, args, result):
        for stack in _stacks():
            _assert_routed_equals_full_walk(stack, args, result)

    @settings(max_examples=15, deadline=None)
    @given(args=ARGS, result=RESULTS)
    def test_routing_survives_key_rotation(self, args, result):
        for stack in _stacks():
            # Fill every cached route first, so the rotated keys are used
            # through routes planned under the old ones.
            _assert_routed_equals_full_walk(stack, args, result)
            for variation in stack:
                rotate = getattr(variation, "rotate_key", None)
                if rotate is not None:
                    rotate()
            _assert_routed_equals_full_walk(stack, args, result)

    def test_overlapping_footprints_keep_call_order(self):
        """Requests compose forward and results unwind in reverse, including
        when several variations rewrite the same syscall."""

        class Affine(Variation):
            name = "affine"
            canonical_syscalls = transform_syscalls = result_syscalls = frozenset(
                {Syscall.GETPID, Syscall.KILL}
            )

            def __init__(self, scale, shift):
                self.scale, self.shift = scale, shift

            def _apply(self, value):
                return value * self.scale + self.shift

            def canonicalize_request(self, index, req):
                if req.name not in self.canonical_syscalls:
                    return req
                return req.with_args((self._apply(req.args[0]),))

            transform_request = canonicalize_request

            def transform_result(self, index, req, result):
                if req.name not in self.result_syscalls:
                    return result
                return SyscallResult.success(self._apply(result.value))

        stack = VariationStack([Affine(2, 0), Affine(1, 3), AddressPartitioning()])
        _assert_routed_equals_full_walk(stack, (5,), SyscallResult.success(5))
        getpid = SyscallRequest(Syscall.GETPID, (5,))
        assert stack.transform_request(0, getpid).args == (13,)
        assert stack.transform_result(0, getpid, SyscallResult.success(5)).value == 16

    def test_keyed_uid_decode_changes_with_rotation(self):
        """The rotation test is only meaningful if rotation moves the masks."""
        variation = KeyedUIDVariation(2, seed=12)
        stack = VariationStack([variation], 2)
        req = SyscallRequest(Syscall.SETUID, (0x1234,))
        before = stack.transform_request(1, req)
        variation.rotate_key()
        assert stack.transform_request(1, req) != before


# -- layer seams ----------------------------------------------------------------


def test_every_traced_layer_seam_is_entered_on_an_httpd_run():
    """Each instance attribute an outside-in tracer wraps is called at run time.

    A tracer wraps these attributes on a session that is already built; a
    layer that cached a bound method at construction would bypass the
    wrapper and vanish from the trace.
    """
    app = get_app("httpd")
    kernel = build_standard_host()
    app.prepare_host(kernel)
    payloads = WebBenchWorkload(total_requests=12).connection_payloads()
    for index, payload in enumerate(payloads):
        app.connect(kernel, payload, client=f"client-{index}")
    session = build_serving_session(ADDRESS_UID_SPEC, app, kernel=kernel, max_requests=12)

    entered: dict[str, int] = {}

    def wrap(owner, attribute):
        inner = getattr(owner, attribute)
        key = f"{type(owner).__name__}.{attribute}"
        entered[key] = 0

        def counted(*args, **kwargs):
            entered[key] += 1
            return inner(*args, **kwargs)

        setattr(owner, attribute, counted)

    for hook in ("canonicalize_request", "transform_request", "transform_result"):
        wrap(session.variations, hook)
    wrap(session.comparator, "check_round")
    wrap(session.comparator, "transform_round")
    wrap(session.wrappers, "execute_round")
    wrap(session.kernel, "execute")
    wrap(session, "step")

    result = MultiSessionEngine([session]).run()
    assert result.total_alarms == 0
    assert sum(bool(c.response_bytes()) for c in kernel.network.connections) == 12
    assert all(entered.values()), entered
