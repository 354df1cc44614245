"""Deterministic seed derivation and draw streams.

All randomness in the package flows from numpy PCG64 generators keyed by a
stable splitting rule.  A tuple of labels hashes to

    digest = SHA-256(b"gdpsim.v1" || part_0 || ...)

where integer parts are encoded as ``b"i"`` plus 16 signed big-endian bytes
and string parts as ``b"s"`` plus the UTF-8 bytes plus ``b"\\x00"``.  The
64-bit key of the tuple is the digest's first 8 bytes (big-endian).  Its
stream is the PCG64 whose 128-bit state is the digest's first 16 bytes and
whose increment is its last 16 bytes with the low bit set (PCG64 needs an
odd increment), both big-endian, with no buffered 32-bit half.  The state
is set straight from the digest.  NumPy's PCG64 still seeds every new bit
generator from a SeedSequence before that; building a SeedSequence costs
several times the hash, so one, built on the first call of ``streams``,
serves every generator: its output is overwritten at once.  (Built at
import, it would move NumPy's ``numpy.random`` import into gdpsim's.)
The rule is platform-independent, so a (master seed, label, ...) tuple
always denotes the same stream.

The experiment harness derives one key per (component, policy, bit) arm;
column ``j`` of its tableau is the stream of ``(arm_key, "col", j)``, whose
draw ``t`` goes to trial ``t`` (see ``gdpsim.batch``); ``streams(arm_key,
"col")`` hashes the columns' shared label prefix once, and each column only
its own index into a copy: SHA-256 reads its input in order, so the digest,
and the stream, are the same bytes.  Sessions opened with a plain integer
seed use ``PCG64(seed)`` directly.
"""

from __future__ import annotations

import hashlib
from functools import cache

import numpy as np

from ._numeric import is_int

_TAG = b"gdpsim.v1"


def _hasher(parts, h=None):
    """``h``, by default a new SHA-256 fed the tag, fed the label encoding
    of ``parts``."""
    if h is None:
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
    return h


def derive_key(*parts: int | str) -> int:
    """Stable 64-bit key for a tuple of integer/string labels."""
    return int.from_bytes(_hasher(parts).digest()[:8], "big")


def _set_stream(gen: np.random.Generator, d: bytes) -> np.random.Generator:
    gen.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": int.from_bytes(d[:16], "big"),
                  "inc": int.from_bytes(d[16:], "big") | 1},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


@cache
def _unused_seed() -> np.random.SeedSequence:
    """The seeding PCG64 requires of a new bit generator; ``streams`` sets
    its generator to a digest's stream before any draw, so this output is
    never used."""
    return np.random.SeedSequence(0)


def streams(*prefix: int | str):
    """The streams of the label tuples that begin with ``prefix``: returns
    ``f(*parts)``, which sets one unkeyed generator of its own to the stream
    of ``prefix + parts`` and returns it, bitwise the same generator as
    ``generator(*prefix, *parts)``; what it drew before, a buffered 32-bit
    half included, leaves no trace.  The prefix is hashed once; each call
    copies that hash and feeds it ``parts``."""
    head = _hasher(prefix)
    gen = np.random.Generator(np.random.PCG64(_unused_seed()))

    def stream(*parts: int | str) -> np.random.Generator:
        return _set_stream(gen, _hasher(parts, head.copy()).digest())

    return stream


def generator(*parts: int | str) -> np.random.Generator:
    """A new PCG64 generator on the stream of ``parts``."""
    return streams(*parts)()


def check_seed(name: str, seed) -> int:
    """``seed`` as an int if it is a master seed, an integer argument
    (``_numeric.is_int``) that the label encoding's 16 signed bytes hold;
    otherwise ``ValueError``."""
    if not is_int(seed) or not -2**127 <= int(seed) < 2**127:
        raise ValueError(f"{name} must be an integer in [-2**127, 2**127), got {seed!r}")
    return int(seed)
