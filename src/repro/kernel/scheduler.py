"""Running simulated programs against the kernel.

A *program* in this reproduction is a Python generator: it yields
:class:`~repro.kernel.syscalls.SyscallRequest` objects whenever it needs a
kernel service and receives :class:`~repro.kernel.syscalls.SyscallResult`
objects back.  This module provides the single-process runner (used for the
"unmodified Apache" baseline, Configuration 1 of Table 3).

The N-variant lockstep session in :mod:`repro.engine.session` uses the same
program protocol but interposes the monitor and wrapper layer between the
programs and the kernel.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Generator

from repro.kernel.errors import VariantFault
from repro.kernel.kernel import SimulatedKernel
from repro.kernel.process import Process
from repro.kernel.syscalls import Syscall, SyscallRequest, SyscallResult

#: Type alias for the program protocol.
Program = Generator[SyscallRequest, SyscallResult, Any]


@dataclasses.dataclass
class RunResult:
    """Outcome of running a single program to completion."""

    process: Process
    steps: int
    return_value: Any = None
    fault: VariantFault | None = None
    trace: list[SyscallRequest] = dataclasses.field(default_factory=list)

    @property
    def exited_normally(self) -> bool:
        """True when the program finished without faulting."""
        return self.fault is None and self.process.fault_reason is None

    @property
    def exit_code(self) -> int | None:
        """The exit code passed to ``exit``, if any."""
        return self.process.exit_code


class ProgramRunner:
    """Runs one program to completion against a kernel."""

    def __init__(self, kernel: SimulatedKernel, *, max_steps: int = 1_000_000, keep_trace: bool = False):
        self.kernel = kernel
        self.max_steps = max_steps
        self.keep_trace = keep_trace

    def run(self, process: Process, program: Program) -> RunResult:
        """Drive *program* until it returns, exits, or faults."""
        steps = 0
        trace: list[SyscallRequest] = []
        result: SyscallResult | None = None
        return_value: Any = None
        fault: VariantFault | None = None
        try:
            request = program.send(None)
            while True:
                steps += 1
                if steps > self.max_steps:
                    raise RuntimeError(f"program exceeded {self.max_steps} steps")
                if not isinstance(request, SyscallRequest):
                    raise TypeError(f"program yielded {request!r}, expected a SyscallRequest")
                if self.keep_trace:
                    trace.append(request)
                result = self.kernel.execute(process, request)
                if request.name is Syscall.EXIT or not process.alive:
                    break
                request = program.send(result)
        except StopIteration as stop:
            return_value = stop.value
        except VariantFault as caught:
            fault = caught
            process.fault(f"{caught.kind}: {caught.message}")
        finally:
            program.close()
        if process.alive and process.exit_code is None and fault is None:
            # Program returned without calling exit(); treat as a clean exit 0.
            process.exit(0)
        return RunResult(
            process=process,
            steps=steps,
            return_value=return_value,
            fault=fault,
            trace=trace,
        )
