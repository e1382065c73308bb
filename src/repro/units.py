"""Unit helpers: simulation time is in seconds, sizes in bytes.

The simulator keeps all times as ``float`` seconds and all sizes as
``int`` bytes.  These helpers exist so scenario code reads naturally
(``ms(330)``, ``KB(19)``) instead of littering magic conversion factors.
"""

from __future__ import annotations

#: One millisecond, in seconds.
MILLISECOND = 1e-3
#: One microsecond, in seconds.
MICROSECOND = 1e-6
#: One minute, in seconds.
MINUTE = 60.0
#: One hour, in seconds.
HOUR = 3600.0
#: One day, in seconds.
DAY = 86400.0

#: One kilobyte (decimal, as used for network accounting in the paper).
KILOBYTE = 1000
#: One megabyte.
MEGABYTE = 1000 * 1000
#: One mebibyte (for memory accounting).
MEBIBYTE = 1024 * 1024


def ms(value: float) -> float:
    """Convert milliseconds to seconds."""
    return value * MILLISECOND


def us(value: float) -> float:
    """Convert microseconds to seconds."""
    return value * MICROSECOND


def minutes(value: float) -> float:
    """Convert minutes to seconds."""
    return value * MINUTE


def hours(value: float) -> float:
    """Convert hours to seconds."""
    return value * HOUR


def KB(value: float) -> int:
    """Convert kilobytes (decimal) to bytes."""
    return int(value * KILOBYTE)


def MB(value: float) -> int:
    """Convert megabytes (decimal) to bytes."""
    return int(value * MEGABYTE)


def MiB(value: float) -> int:
    """Convert mebibytes to bytes."""
    return int(value * MEBIBYTE)


def Mbps(value: float) -> float:
    """Convert megabits per second to bytes per second."""
    return value * 1e6 / 8.0
