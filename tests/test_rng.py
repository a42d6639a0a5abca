import subprocess
import sys

import numpy as np

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


def test_huge_seed_parts():
    # parts wider than 64 bits are absorbed, not truncated
    assert derive_key(2**200 + 17) != derive_key(17)


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
