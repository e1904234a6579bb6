"""FtpBench: the webbench analogue for the second serving workload.

Drives a deterministic RETR mix against the mini-ftpd -- standalone or under
any N-variant configuration -- and reports the same
:class:`~repro.apps.clients.webbench.WorkloadMeasurement` record, so the
virtual-time performance model consumes both applications' runs unchanged.
Only the FTP wire format lives here; the drivers are the shared ones from
:mod:`repro.apps.clients.webbench`.

Every scripted conversation pre-connects its command channel *and* its data
channel (the simulated PORT-mode client, see the catalog's ``connect``); the
server accepts them FIFO, so the n-th command connection is always paired
with the n-th data channel.
"""

from __future__ import annotations

import dataclasses
from typing import ClassVar, Optional, Sequence

from repro.apps.clients.webbench import (
    ClientWorkload,
    RequestMixEntry,
    WorkloadMeasurement,
    drive_engine,
    drive_nvariant,
    drive_nvariant_many,
    serve_standalone,
)
from repro.apps.ftpd.server import MiniFtpd
from repro.attacks.payloads import FTP_PASSWORD, FTP_USER, format_ftp_commands
from repro.kernel.kernel import SimulatedKernel
from repro.kernel.scheduler import ProgramRunner

__all__ = [
    "DEFAULT_FTP_MIX",
    "FtpBenchWorkload",
    "FtpMixEntry",
    "drive_engine",
    "drive_nvariant",
    "drive_nvariant_many",
    "drive_standalone",
]

#: One file in the RETR mix with its relative weight.
FtpMixEntry = RequestMixEntry

#: The default transfer mix over the standard FTP site, weighted towards the
#: small files like the webbench static mix is.
DEFAULT_FTP_MIX: tuple[FtpMixEntry, ...] = (
    FtpMixEntry("/welcome.txt", 6),
    FtpMixEntry("/pub/readme.txt", 4),
    FtpMixEntry("/incoming/notes.txt", 3),
    FtpMixEntry("/pub/tools.tar", 2),
    FtpMixEntry("/pub/dataset.bin", 1),
)


@dataclasses.dataclass
class FtpBenchWorkload(ClientWorkload):
    """A deterministic FTP transfer sequence.

    ``transfers_per_connection`` batches that many RETRs into one
    conversation (one login, several transfers, one QUIT) -- the FTP
    analogue of webbench's keep-alive pipelining.
    """

    app: ClassVar[str] = "ftpd"

    mix: Sequence[FtpMixEntry] = DEFAULT_FTP_MIX
    transfers_per_connection: int = 1

    def connection_payloads(self) -> list[bytes]:
        """One command-channel byte blob per scripted conversation."""
        if self.transfers_per_connection < 1:
            raise ValueError("transfers_per_connection must be at least 1")
        paths = self.request_paths()
        size = self.transfers_per_connection
        payloads = []
        for start in range(0, len(paths), size):
            commands = [f"USER {FTP_USER}", f"PASS {FTP_PASSWORD}"]
            commands.extend(f"RETR {path}" for path in paths[start : start + size])
            commands.append("QUIT")
            payloads.append(format_ftp_commands(commands))
        return payloads

    def collect(self, kernel: SimulatedKernel) -> tuple[int, dict[int, int], int]:
        """Count transfers: ``226`` replies on command channels, bytes on data channels."""
        completed = 0
        statuses: dict[int, int] = {}
        body_bytes = 0
        for connection in kernel.network.connections:
            raw = connection.response_bytes()
            if not raw:
                continue
            if connection.client.endswith("-data"):
                body_bytes += len(raw)
                continue
            for line in raw.split(b"\r\n"):
                if len(line) >= 4 and line[:3].isdigit() and line[3:4] == b" ":
                    status = int(line[:3])
                    statuses[status] = statuses.get(status, 0) + 1
                    if status == 226:
                        completed += 1
        return completed, statuses, body_bytes


def drive_standalone(
    workload: FtpBenchWorkload,
    *,
    transformed: bool = False,
    multiplex: int = 1,
    kernel: Optional[SimulatedKernel] = None,
    configuration: str = "ftpd-standalone",
) -> WorkloadMeasurement:
    """Run the workload against a single (non-redundant) ftpd process."""
    return serve_standalone(
        workload,
        MiniFtpd,
        ProgramRunner,
        transformed=transformed,
        multiplex=multiplex,
        kernel=kernel,
        configuration=configuration,
    )
