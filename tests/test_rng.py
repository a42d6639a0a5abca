import subprocess
import sys

import numpy as np
import pytest

from bootperc.rng import derive_key, make_generator


def test_key_is_deterministic():
    assert derive_key(7, 3, 0) == derive_key(7, 3, 0)


def test_key_depends_on_every_part():
    base = derive_key(7, 3, 0)
    assert derive_key(8, 3, 0) != base
    assert derive_key(7, 4, 0) != base
    assert derive_key(7, 3, 1) != base


def test_key_is_order_sensitive():
    assert derive_key(1, 2) != derive_key(2, 1)


def test_generator_streams_reproduce():
    g1 = make_generator(123, 5)
    g2 = make_generator(123, 5)
    assert np.array_equal(g1.integers(0, 2**62, size=64), g2.integers(0, 2**62, size=64))


def test_generator_streams_differ_across_trials():
    a = make_generator(123, 5).integers(0, 2**62, size=64)
    b = make_generator(123, 6).integers(0, 2**62, size=64)
    assert not np.array_equal(a, b)


def test_parts_of_2_64_or_more_rejected():
    # a wide part's high words were once folded in as later parts, so
    # make_generator(b + t 2^64 + s 2^128) was make_generator(b, t, s)
    for parts in [(2**64,), (5 + (2 << 128),), (7, 2**200 + 17, 0)]:
        with pytest.raises(ValueError, match="stream key parts must be below 2\\*\\*64"):
            make_generator(*parts)


def test_parts_below_2_64_keep_their_keys():
    # the keys of parts below 2^64 are those of the wide-part fold before it
    assert derive_key(2**64 - 1) == (16490336266968443936, 6755974106381971767)
    assert derive_key(5, 0, 2) == (10199714216523646185, 18212269899809022295)


def test_negative_part_rejected():
    # in a child process under a timeout: -1 >> 64 == -1, so a loop over
    # the high bits of a negative part would never end
    code = (
        "from bootperc.rng import derive_key, make_generator\n"
        "for parts in [(-1,), (7, -3, 0), (-(2**70),)]:\n"
        "    try:\n"
        "        derive_key(*parts)\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
        "make_generator(-4)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.stdout.splitlines() == [
        "stream key parts must be non-negative, got -1",
        "stream key parts must be non-negative, got -3",
        f"stream key parts must be non-negative, got {-(2**70)}",
    ]
    assert proc.returncode == 1
    assert "ValueError: stream key parts must be non-negative, got -4" in proc.stderr
