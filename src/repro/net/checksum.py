"""The Internet checksum (RFC 1071 one's-complement sum).

Used by IP (header checksum), UDP (optional payload checksum — the one
Section 4.1 suggests fusing into MPEG's data read via a path
transformation), and ICMP.

The sum is taken without a loop over words.  Read as one big-endian
integer, the data is its 16-bit words times powers of ``2**16``, and
``2**16 % 0xFFFF == 1``, so the integer leaves the same remainder mod
``0xFFFF`` as the plain word sum.  Folding the carries keeps that
remainder and yields ``0xFFFF``, not ``0``, for any non-zero sum, so the
folded sum is the remainder with that one fix-up.  Its complement, the
checksum, is then ``-total % 0xFFFF`` for any non-zero *total*: the
fix-up case complements to ``0``, as does a zero remainder.
"""

from __future__ import annotations


def _folded_sum(data: bytes) -> int:
    """The carry-folded 16-bit one's-complement sum of *data*'s words.

    Odd-length input is zero-padded, per the RFC.
    """
    total = int.from_bytes(data, "big")
    if len(data) & 1:
        total <<= 8
    folded = total % 0xFFFF
    return 0xFFFF if folded == 0 and total else folded


def internet_checksum(data: bytes) -> int:
    """Compute the 16-bit one's-complement checksum of *data*.

    Odd-length input is zero-padded, per the RFC.
    """
    total = int.from_bytes(data, "big")
    if len(data) & 1:
        total <<= 8
    return -total % 0xFFFF if total else 0xFFFF


def verify_checksum(data: bytes) -> bool:
    """True when *data* (including its embedded checksum field) sums to a
    valid one's-complement zero."""
    return _folded_sum(data) == 0xFFFF
