"""Simulated Unix kernel substrate.

This package stands in for the modified Linux kernel of the paper's
prototype.  It provides processes with POSIX-style credentials, a virtual
filesystem with permissions, per-process descriptor tables, a minimal network
stack, the system-call interface (including the paper's new detection calls
from Table 2), and runners for generator-based simulated programs.

The N-variant machinery itself (lockstep execution, monitoring, input
replication, unshared files, reexpression) lives in :mod:`repro.core` and is
layered *on top of* this kernel, mirroring how the paper layered its wrapper
code on top of stock kernel services.
"""

from repro.kernel.credentials import (
    Credentials,
    MAX_VALID_UID,
    NOBODY_UID,
    ROOT_GID,
    ROOT_UID,
    root_credentials,
    user_credentials,
    validate_gid,
    validate_uid,
)
from repro.kernel.errors import (
    Errno,
    IllegalInstructionFault,
    KernelError,
    ProcessKilled,
    SegmentationFault,
    VariantFault,
)
from repro.kernel.filesystem import (
    FileSystem,
    Inode,
    O_APPEND,
    O_CREAT,
    O_RDONLY,
    O_RDWR,
    O_TRUNC,
    O_WRONLY,
    R_OK,
    StatResult,
    W_OK,
    X_OK,
)
from repro.kernel.host import (
    ACCESS_LOG,
    DEFAULT_DOCUMENTS,
    DOCROOT,
    DocumentSpec,
    ERROR_LOG,
    HTTPD_CONF,
    HTTP_PORT,
    SHADOW_FILE,
    build_filesystem,
    build_standard_host,
    install_diversified_user_db,
)
from repro.kernel.kernel import KernelStats, SimulatedKernel
from repro.kernel.libc import Libc, libc
from repro.kernel.network import Connection, ListeningSocket, NetworkStack
from repro.kernel.passwd import (
    GroupEntry,
    PasswdEntry,
    UserDatabase,
    default_group_entries,
    default_passwd_entries,
    diversify_group,
    diversify_passwd,
    format_group,
    format_passwd,
    parse_group,
    parse_passwd,
)
from repro.kernel.process import Process, ProcessState, ProcessTable
from repro.kernel.scheduler import Program, ProgramRunner, RunResult
from repro.kernel.signals import Signal, SignalState
from repro.kernel.syscalls import (
    DETECTION_SYSCALLS,
    INPUT_SYSCALLS,
    OUTPUT_SYSCALLS,
    PATH_SYSCALLS,
    Syscall,
    SyscallRequest,
    SyscallResult,
    UID_COMPARISON_SYSCALLS,
    UID_PARAMETER_SYSCALLS,
    UID_RESULT_SYSCALLS,
    request,
)

__all__ = [
    "ACCESS_LOG",
    "Connection",
    "Credentials",
    "DEFAULT_DOCUMENTS",
    "DETECTION_SYSCALLS",
    "DOCROOT",
    "DocumentSpec",
    "ERROR_LOG",
    "Errno",
    "FileSystem",
    "GroupEntry",
    "HTTPD_CONF",
    "HTTP_PORT",
    "IllegalInstructionFault",
    "INPUT_SYSCALLS",
    "Inode",
    "KernelError",
    "KernelStats",
    "Libc",
    "ListeningSocket",
    "MAX_VALID_UID",
    "NOBODY_UID",
    "NetworkStack",
    "O_APPEND",
    "O_CREAT",
    "O_RDONLY",
    "O_RDWR",
    "O_TRUNC",
    "O_WRONLY",
    "OUTPUT_SYSCALLS",
    "PATH_SYSCALLS",
    "PasswdEntry",
    "Process",
    "ProcessKilled",
    "ProcessState",
    "ProcessTable",
    "Program",
    "ProgramRunner",
    "R_OK",
    "ROOT_GID",
    "ROOT_UID",
    "RunResult",
    "SHADOW_FILE",
    "SegmentationFault",
    "Signal",
    "SignalState",
    "SimulatedKernel",
    "StatResult",
    "Syscall",
    "SyscallRequest",
    "SyscallResult",
    "UID_COMPARISON_SYSCALLS",
    "UID_PARAMETER_SYSCALLS",
    "UID_RESULT_SYSCALLS",
    "UserDatabase",
    "VariantFault",
    "W_OK",
    "X_OK",
    "build_filesystem",
    "build_standard_host",
    "default_group_entries",
    "default_passwd_entries",
    "diversify_group",
    "diversify_passwd",
    "format_group",
    "format_passwd",
    "install_diversified_user_db",
    "libc",
    "parse_group",
    "parse_passwd",
    "request",
    "root_credentials",
    "user_credentials",
    "validate_gid",
    "validate_uid",
]
