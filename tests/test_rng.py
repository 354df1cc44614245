"""The stream key rule: a label tuple's SHA-256 digest is its PCG64 state."""

import hashlib

import numpy as np
import pytest

from gdpsim.rng import derive_key, generator, streams


def label_digest(*parts):
    """The tagged label encoding of gdpsim.rng, written out."""
    data = b"gdpsim.v1"
    for part in parts:
        if isinstance(part, int):
            data += b"i" + part.to_bytes(16, "big", signed=True)
        else:
            data += b"s" + part.encode("utf-8") + b"\x00"
    return hashlib.sha256(data).digest()


@pytest.mark.parametrize("parts", [(42, "normality"), (derive_key(1, "t"), "col", 3),
                                   (-2**127,), ("",), ()])
def test_generator_state_is_the_two_halves_of_the_digest(parts):
    d = label_digest(*parts)
    state = generator(*parts).bit_generator.state
    assert state == {
        "bit_generator": "PCG64",
        "state": {"state": int.from_bytes(d[:16], "big"),
                  "inc": int.from_bytes(d[16:], "big") | 1},
        "has_uint32": 0,
        "uinteger": 0,
    }
    assert state["state"]["inc"] % 2 == 1
    assert derive_key(*parts) == int.from_bytes(d[:8], "big")


def test_rekey_after_a_partial_draw_matches_a_fresh_generator():
    # streams(*prefix) re-keys one generator of its own for every label
    for prefix in ((), (1,), (1, "x")):
        stream = streams(*prefix)
        gen = stream("a")
        gen.standard_normal(5)
        gen.integers(0, 2**32, dtype=np.uint32)
        assert gen.bit_generator.state["has_uint32"] == 1   # a buffered 32-bit half
        assert stream(2, "b") is gen
        fresh = generator(*prefix, 2, "b")
        assert gen.bit_generator.state == fresh.bit_generator.state
        for draw in (lambda g: g.integers(0, 2**32, size=3, dtype=np.uint32),
                     lambda g: g.standard_normal(7), lambda g: g.random(4)):
            assert draw(gen).tobytes() == draw(fresh).tobytes()


def test_labels_must_be_ints_or_strings():
    for bad in (True, 1.0, b"x", None):
        with pytest.raises(TypeError):
            generator(1, bad)
        with pytest.raises(TypeError):
            streams(1)(bad)
