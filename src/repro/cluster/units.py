"""Unit constants and helpers.

Conventions used across the whole repository:

* sizes in **bytes** (Hadoop-style binary multiples for block sizes),
* time in **seconds**,
* rates in **bytes per second** (link speeds are quoted in bits/s and
  converted at the edge of the system, here).
"""

from __future__ import annotations

KB = 1024
MB = 1024 * KB
GB = 1024 * MB
TB = 1024 * GB

KBPS = 1_000 / 8.0
MBPS = 1_000_000 / 8.0
GBPS = 1_000_000_000 / 8.0


def fmt_bytes(size: float) -> str:
    """Human-readable byte count (binary multiples), e.g. ``1.5 GiB``."""
    magnitude = float(size)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(magnitude) < 1024.0 or unit == "TiB":
            return f"{magnitude:.2f} {unit}" if unit != "B" else f"{int(magnitude)} B"
        magnitude /= 1024.0
    raise AssertionError("unreachable")
