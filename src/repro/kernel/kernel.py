"""The simulated kernel: system-call dispatch against host state.

This is the substrate the paper's prototype modified.  A
:class:`SimulatedKernel` owns the host-wide state (filesystem, network stack,
process table, virtual clock) and executes one system call at a time on
behalf of a process.  It knows nothing about variants: the N-variant engine
in :mod:`repro.core` wraps this kernel, deciding *which* variant's call is
actually executed, replicating input results, redirecting unshared-file
opens, and applying reexpression functions -- exactly the division of labour
between the stock kernel and the paper's wrapper layer.

The dispatcher converts :class:`~repro.kernel.errors.KernelError` into error
results carrying errno values so that simulated programs observe Unix-style
failures rather than Python exceptions.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable

from repro.kernel.credentials import ROOT_UID
from repro.kernel.errors import Errno, KernelError, SegmentationFault
from repro.kernel.filesystem import (
    FileSystem,
    O_ACCMODE,
    O_CREAT,
    O_RDONLY,
    O_RDWR,
    O_TRUNC,
    O_WRONLY,
    R_OK,
    W_OK,
)
from repro.kernel.filetable import OpenFile, SocketDescriptor
from repro.kernel.network import Connection, ListeningSocket, NetworkStack
from repro.kernel.process import Process, ProcessTable
from repro.kernel.signals import Signal
from repro.kernel.syscalls import Syscall, SyscallRequest, SyscallResult


@dataclasses.dataclass
class KernelStats:
    """Host-wide accounting used by the virtual-time performance model."""

    syscall_count: int = 0
    syscall_breakdown: dict[str, int] = dataclasses.field(default_factory=dict)
    bytes_read: int = 0
    bytes_written: int = 0

    def record(self, name: Syscall) -> None:
        """Count one executed system call."""
        self.syscall_count += 1
        key = name.value
        self.syscall_breakdown[key] = self.syscall_breakdown.get(key, 0) + 1


class SimulatedKernel:
    """Executes system calls for simulated processes."""

    def __init__(
        self,
        filesystem: FileSystem | None = None,
        network: NetworkStack | None = None,
    ):
        self.fs = filesystem if filesystem is not None else FileSystem()
        self.network = network if network is not None else NetworkStack()
        self.processes = ProcessTable()
        self.stats = KernelStats()
        self.clock = 0
        self._random_state = 0x12345678
        self._handlers: dict[Syscall, Callable[..., Any]] = {
            Syscall.EXIT: self._sys_exit,
            Syscall.GETPID: self._sys_getpid,
            Syscall.FORK: self._sys_unsupported,
            Syscall.WAITPID: self._sys_unsupported,
            Syscall.KILL: self._sys_kill,
            Syscall.GETUID: self._sys_getuid,
            Syscall.GETEUID: self._sys_geteuid,
            Syscall.GETGID: self._sys_getgid,
            Syscall.GETEGID: self._sys_getegid,
            Syscall.SETUID: self._sys_setuid,
            Syscall.SETEUID: self._sys_seteuid,
            Syscall.SETREUID: self._sys_setreuid,
            Syscall.SETRESUID: self._sys_setresuid,
            Syscall.SETGID: self._sys_setgid,
            Syscall.SETEGID: self._sys_setegid,
            Syscall.SETGROUPS: self._sys_setgroups,
            Syscall.OPEN: self._sys_open,
            Syscall.CLOSE: self._sys_close,
            Syscall.READ: self._sys_read,
            Syscall.WRITE: self._sys_write,
            Syscall.LSEEK: self._sys_lseek,
            Syscall.STAT: self._sys_stat,
            Syscall.FSTAT: self._sys_fstat,
            Syscall.ACCESS: self._sys_access,
            Syscall.MKDIR: self._sys_mkdir,
            Syscall.UNLINK: self._sys_unlink,
            Syscall.RENAME: self._sys_rename,
            Syscall.CHOWN: self._sys_chown,
            Syscall.CHMOD: self._sys_chmod,
            Syscall.GETDENTS: self._sys_getdents,
            Syscall.CHDIR: self._sys_chdir,
            Syscall.SOCKET: self._sys_socket,
            Syscall.BIND: self._sys_bind,
            Syscall.LISTEN: self._sys_listen,
            Syscall.ACCEPT: self._sys_accept,
            Syscall.RECV: self._sys_recv,
            Syscall.SEND: self._sys_send,
            Syscall.SHUTDOWN: self._sys_shutdown,
            Syscall.TIME: self._sys_time,
            Syscall.GETRANDOM: self._sys_getrandom,
            Syscall.NANOSLEEP: self._sys_nanosleep,
            Syscall.PEEK: self._sys_peek,
            Syscall.UID_VALUE: self._sys_uid_value,
            Syscall.COND_CHK: self._sys_cond_chk,
            Syscall.CC_EQ: self._sys_cc(lambda a, b: a == b),
            Syscall.CC_NEQ: self._sys_cc(lambda a, b: a != b),
            Syscall.CC_LT: self._sys_cc(lambda a, b: a < b),
            Syscall.CC_LEQ: self._sys_cc(lambda a, b: a <= b),
            Syscall.CC_GT: self._sys_cc(lambda a, b: a > b),
            Syscall.CC_GEQ: self._sys_cc(lambda a, b: a >= b),
        }

    # -- process management ----------------------------------------------------

    def spawn_process(self, name: str = "proc", **kwargs: Any) -> Process:
        """Create a new process registered with this kernel."""
        return self.processes.spawn(name, **kwargs)

    # -- dispatch ----------------------------------------------------------------

    def execute(self, process: Process, request: SyscallRequest) -> SyscallResult:
        """Execute *request* on behalf of *process* and return its result."""
        if not process.alive:
            return SyscallResult.failure(Errno.ESRCH)
        handler = self._handlers.get(request.name)
        if handler is None:
            return SyscallResult.failure(Errno.ENOSYS)
        self.clock += 1
        self.stats.record(request.name)
        process.stats.syscall_count += 1
        try:
            value = handler(process, *request.args)
        except KernelError as error:
            return SyscallResult.failure(error.errno)
        except TypeError as error:
            # Wrong number/kind of arguments from the program: EINVAL, not a
            # Python crash -- mirrors the kernel rejecting a malformed call.
            if "positional argument" in str(error) or "argument" in str(error):
                return SyscallResult.failure(Errno.EINVAL)
            raise
        return SyscallResult.success(value)

    # -- process control handlers ---------------------------------------------------

    def _sys_exit(self, process: Process, code: int = 0) -> int:
        process.exit(int(code))
        return 0

    def _sys_getpid(self, process: Process) -> int:
        return process.pid

    def _sys_unsupported(self, process: Process, *args: Any) -> int:
        raise KernelError(
            Errno.ENOSYS,
            "fork/waitpid are not supported by the simulated kernel; the "
            "mini-httpd uses a single-process event loop (see DESIGN.md)",
        )

    def _sys_kill(self, process: Process, pid: int, signal: int) -> int:
        target = self.processes.get(pid)
        if target is None:
            raise KernelError(Errno.ESRCH, f"no process {pid}")
        if not process.credentials.is_privileged() and process.credentials.euid not in (
            target.credentials.ruid,
            target.credentials.euid,
        ):
            raise KernelError(Errno.EPERM, "kill not permitted")
        target.signals.post(Signal(signal))
        if target.signals.is_fatal(Signal(signal)):
            target.fault(f"killed by signal {Signal(signal).name}")
        return 0

    # -- credential handlers ------------------------------------------------------------

    def _sys_getuid(self, process: Process) -> int:
        return process.credentials.ruid

    def _sys_geteuid(self, process: Process) -> int:
        return process.credentials.euid

    def _sys_getgid(self, process: Process) -> int:
        return process.credentials.rgid

    def _sys_getegid(self, process: Process) -> int:
        return process.credentials.egid

    def _sys_setuid(self, process: Process, uid: int) -> int:
        process.credentials.setuid(uid)
        return 0

    def _sys_seteuid(self, process: Process, euid: int) -> int:
        process.credentials.seteuid(euid)
        return 0

    def _sys_setreuid(self, process: Process, ruid: int, euid: int) -> int:
        process.credentials.setreuid(ruid, euid)
        return 0

    def _sys_setresuid(self, process: Process, ruid: int, euid: int, suid: int) -> int:
        process.credentials.setresuid(ruid, euid, suid)
        return 0

    def _sys_setgid(self, process: Process, gid: int) -> int:
        process.credentials.setgid(gid)
        return 0

    def _sys_setegid(self, process: Process, egid: int) -> int:
        process.credentials.setegid(egid)
        return 0

    def _sys_setgroups(self, process: Process, groups: tuple[int, ...]) -> int:
        process.credentials.setgroups(groups)
        return 0

    # -- filesystem handlers ----------------------------------------------------------------

    def _sys_open(self, process: Process, path: str, flags: int = O_RDONLY, mode: int = 0o644) -> int:
        creds = process.credentials
        accmode = flags & O_ACCMODE
        if not self.fs.exists(path):
            if not flags & O_CREAT:
                raise KernelError(Errno.ENOENT, path)
            parent = path.rsplit("/", 1)[0] or "/"
            if not self.fs.access(parent, creds, W_OK):
                raise KernelError(Errno.EACCES, f"cannot create in {parent}")
            self.fs.create_file(path, b"", mode=mode, uid=creds.euid, gid=creds.egid)
        inode = self.fs.lookup(path)
        if inode.is_directory and accmode != O_RDONLY:
            raise KernelError(Errno.EISDIR, path)
        want = 0
        if accmode in (O_RDONLY, O_RDWR):
            want |= R_OK
        if accmode in (O_WRONLY, O_RDWR):
            want |= W_OK
        if not inode.permits(creds, want):
            raise KernelError(Errno.EACCES, path)
        if flags & O_TRUNC and not inode.is_directory:
            inode.data = bytearray()
        open_file = OpenFile(inode=inode, flags=flags, path=path)
        return process.fds.allocate(open_file)

    def _sys_close(self, process: Process, fd: int) -> int:
        process.fds.close(fd)
        return 0

    def _sys_read(self, process: Process, fd: int, count: int) -> bytes:
        entry = process.fds.get(fd)
        if isinstance(entry, SocketDescriptor):
            return self._socket_recv(entry, count)
        data = process.fds.get_file(fd).read(count)
        self.stats.bytes_read += len(data)
        process.stats.bytes_read += len(data)
        return data

    def _sys_write(self, process: Process, fd: int, data: bytes) -> int:
        if isinstance(data, str):
            data = data.encode()
        entry = process.fds.get(fd)
        if isinstance(entry, SocketDescriptor):
            written = self._socket_send(entry, data)
        else:
            written = process.fds.get_file(fd).write(bytes(data))
        self.stats.bytes_written += written
        process.stats.bytes_written += written
        return written

    def _sys_lseek(self, process: Process, fd: int, offset: int, whence: int = 0) -> int:
        return process.fds.get_file(fd).seek(offset, whence)

    def _sys_stat(self, process: Process, path: str) -> tuple[int, ...]:
        return self.fs.stat(path).as_tuple()

    def _sys_fstat(self, process: Process, fd: int) -> tuple[int, ...]:
        return process.fds.get_file(fd).inode.stat().as_tuple()

    def _sys_access(self, process: Process, path: str, mode: int) -> int:
        if not self.fs.access(path, process.credentials, mode):
            raise KernelError(Errno.EACCES, path)
        return 0

    def _sys_mkdir(self, process: Process, path: str, mode: int = 0o755) -> int:
        creds = process.credentials
        parent = path.rsplit("/", 1)[0] or "/"
        if not self.fs.access(parent, creds, W_OK):
            raise KernelError(Errno.EACCES, parent)
        self.fs.mkdir(path, mode=mode, uid=creds.euid, gid=creds.egid)
        return 0

    def _sys_unlink(self, process: Process, path: str) -> int:
        creds = process.credentials
        parent = path.rsplit("/", 1)[0] or "/"
        if not self.fs.access(parent, creds, W_OK):
            raise KernelError(Errno.EACCES, parent)
        self.fs.unlink(path)
        return 0

    def _sys_rename(self, process: Process, old: str, new: str) -> int:
        self.fs.rename(old, new)
        return 0

    def _sys_chown(self, process: Process, path: str, uid: int, gid: int) -> int:
        creds = process.credentials
        if not creds.is_privileged():
            raise KernelError(Errno.EPERM, "chown requires privilege")
        self.fs.chown(path, uid, gid)
        return 0

    def _sys_chmod(self, process: Process, path: str, mode: int) -> int:
        creds = process.credentials
        inode = self.fs.lookup(path)
        if not creds.is_privileged() and creds.euid != inode.uid:
            raise KernelError(Errno.EPERM, "chmod requires ownership")
        self.fs.chmod(path, mode)
        return 0

    def _sys_getdents(self, process: Process, path: str) -> tuple[str, ...]:
        return tuple(self.fs.listdir(path))

    def _sys_chdir(self, process: Process, path: str) -> int:
        inode = self.fs.lookup(path)
        if not inode.is_directory:
            raise KernelError(Errno.ENOTDIR, path)
        process.cwd = path
        return 0

    # -- socket handlers ---------------------------------------------------------------------

    def _sys_socket(self, process: Process) -> int:
        return process.fds.allocate(SocketDescriptor(endpoint=None))

    def _sys_bind(self, process: Process, fd: int, port: int) -> int:
        descriptor = process.fds.get_socket(fd)
        if port < 1024 and not process.credentials.is_privileged():
            raise KernelError(Errno.EACCES, f"binding port {port} requires privilege")
        descriptor.endpoint = self.network.bind(port)
        descriptor.path = f"<listener:{port}>"
        return 0

    def _sys_listen(self, process: Process, fd: int, backlog: int = 128) -> int:
        descriptor = process.fds.get_socket(fd)
        if not isinstance(descriptor.endpoint, ListeningSocket):
            raise KernelError(Errno.EINVAL, "listen on an unbound socket")
        descriptor.endpoint.backlog = backlog
        return 0

    def _sys_accept(self, process: Process, fd: int) -> int:
        descriptor = process.fds.get_socket(fd)
        if not isinstance(descriptor.endpoint, ListeningSocket):
            raise KernelError(Errno.EINVAL, "accept on a non-listening socket")
        connection = descriptor.endpoint.accept()
        conn_descriptor = SocketDescriptor(
            endpoint=connection, path=f"<conn:{connection.connection_id}>"
        )
        return process.fds.allocate(conn_descriptor)

    def _socket_recv(self, descriptor: SocketDescriptor, count: int) -> bytes:
        if not isinstance(descriptor.endpoint, Connection):
            raise KernelError(Errno.ENOTCONN, "recv on a non-connected socket")
        data = descriptor.endpoint.recv(count)
        self.stats.bytes_read += len(data)
        return data

    def _socket_send(self, descriptor: SocketDescriptor, data: bytes) -> int:
        if not isinstance(descriptor.endpoint, Connection):
            raise KernelError(Errno.ENOTCONN, "send on a non-connected socket")
        return descriptor.endpoint.send(bytes(data))

    def _sys_recv(self, process: Process, fd: int, count: int) -> bytes:
        data = self._socket_recv(process.fds.get_socket(fd), count)
        process.stats.bytes_read += len(data)
        return data

    def _sys_send(self, process: Process, fd: int, data: bytes) -> int:
        if isinstance(data, str):
            data = data.encode()
        written = self._socket_send(process.fds.get_socket(fd), data)
        self.stats.bytes_written += written
        process.stats.bytes_written += written
        return written

    def _sys_shutdown(self, process: Process, fd: int) -> int:
        descriptor = process.fds.get_socket(fd)
        if isinstance(descriptor.endpoint, Connection):
            descriptor.endpoint.closed_by_server = True
        elif isinstance(descriptor.endpoint, ListeningSocket):
            self.network.unbind(descriptor.endpoint.port)
        return 0

    # -- misc handlers ---------------------------------------------------------------------

    def _sys_time(self, process: Process) -> int:
        return self.clock

    def _sys_getrandom(self, process: Process, count: int) -> bytes:
        # Deterministic xorshift stream: reproducible runs matter more for the
        # simulation than cryptographic quality.
        output = bytearray()
        state = self._random_state
        while len(output) < count:
            state ^= (state << 13) & 0xFFFFFFFF
            state ^= state >> 17
            state ^= (state << 5) & 0xFFFFFFFF
            output.extend(state.to_bytes(4, "little"))
        self._random_state = state
        return bytes(output[:count])

    def _sys_nanosleep(self, process: Process, ticks: int) -> int:
        self.clock += max(0, int(ticks))
        return 0

    def _sys_peek(self, process: Process, address: int, count: int = 4) -> bytes:
        # A checked read of the caller's own address space.  An unmapped or
        # out-of-partition address returns EFAULT as an errno result instead
        # of killing the process: a unanimous miss stays silent (no variant
        # faults, no lifecycle divergence), which is what makes it the probe
        # primitive of the attacker model -- only a *partial* hit, where some
        # variants read data and others do not, diverges and alarms.
        if count <= 0 or count > 4096:
            raise KernelError(Errno.EINVAL, f"peek count {count} out of range")
        try:
            return process.address_space.load_bytes(int(address), int(count))
        except SegmentationFault as fault:
            raise KernelError(Errno.EFAULT, str(fault)) from None

    # -- detection syscalls (Table 2), single-variant semantics --------------------------------
    #
    # In a plain (non-redundant) run these calls behave exactly as the paper
    # specifies for one variant: uid_value and cond_chk return their argument,
    # the cc_* family computes the comparison.  The cross-variant equivalence
    # checks are performed by the N-variant wrapper layer before the call
    # reaches this kernel.

    def _sys_uid_value(self, process: Process, uid: int) -> int:
        return uid

    def _sys_cond_chk(self, process: Process, condition: bool) -> bool:
        return bool(condition)

    def _sys_cc(self, comparison: Callable[[int, int], bool]) -> Callable[..., bool]:
        def handler(process: Process, left: int, right: int) -> bool:
            return bool(comparison(left, right))

        return handler

    # -- helpers for drivers (not syscalls) -------------------------------------------------------

    def client_connect(self, port: int, request: bytes, *, client: str = "client") -> Connection:
        """Inject a client connection carrying *request* bytes (driver-side)."""
        return self.network.connect(port, request, client=client)
