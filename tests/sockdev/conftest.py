"""Shared by the socket-backend suites: every test binds the loopback
interface, so each module self-skips where that is not permitted
(sandboxes without sockets)."""

import socket

import pytest


def _loopback_available() -> bool:
    try:
        probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        probe.bind(("127.0.0.1", 0))
        probe.close()
        return True
    except OSError:
        return False


requires_loopback = pytest.mark.skipif(
    not _loopback_available(),
    reason="UDP loopback sockets unavailable in this environment")


def accounted(device) -> int:
    """Datagrams the device has given a fate."""
    return (device.rx_frames + device.rx_missed
            + sum(device.drop_ledger().values()))
