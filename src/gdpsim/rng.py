"""Deterministic seed derivation and draw streams.

All randomness in the package flows from numpy PCG64 generators keyed by a
stable splitting rule:

    key = first 8 bytes (big-endian) of SHA-256(b"gdpsim.v1" || part_0 || ...)

where integer parts are encoded as ``b"i"`` plus 16 signed big-endian bytes
and string parts as ``b"s"`` plus the UTF-8 bytes plus ``b"\\x00"``.  The rule
is platform-independent, so a (master seed, label, ...) tuple always denotes
the same stream.

The experiment harness derives one key per (component, policy, bit) arm;
column ``j`` of its tableau is ``generator(arm_key, "col", j)``, whose
draw ``t`` goes to trial ``t`` (see ``gdpsim.batch``).  Sessions opened
with a plain integer seed use ``PCG64(seed)`` directly.
"""

from __future__ import annotations

import hashlib

import numpy as np

_TAG = b"gdpsim.v1"


def derive_key(*parts: int | str) -> int:
    """Stable 64-bit key for a tuple of integer/string labels."""
    h = hashlib.sha256(_TAG)
    for part in parts:
        if isinstance(part, bool):
            raise TypeError("boolean labels are ambiguous; use 0/1 ints")
        if isinstance(part, int):
            h.update(b"i" + part.to_bytes(16, "big", signed=True))
        elif isinstance(part, str):
            h.update(b"s" + part.encode("utf-8") + b"\x00")
        else:
            raise TypeError(f"unsupported label type: {type(part).__name__}")
    return int.from_bytes(h.digest()[:8], "big")


def generator(*parts: int | str) -> np.random.Generator:
    """PCG64 generator keyed by ``derive_key(*parts)``."""
    return np.random.Generator(np.random.PCG64(derive_key(*parts)))

