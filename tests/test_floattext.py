"""floattext.json_join against the standard library's float text, json.dumps per value, as bytes."""

import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from wignerosc.floattext import _shortest, json_join

SEP = b",\n      "


def stdlib(values) -> bytes:
    """The bytes of sep.join(json.dumps(v) for v in values), by the C encoder."""
    return json.dumps(np.asarray(values, dtype=float).tolist(), separators=(SEP.decode(), ": "))[1:-1].encode()


def assert_same(values):
    got, want = json_join(np.asarray(values, dtype=float), SEP), stdlib(values)
    if got != want:  # name the first value that differs, not a megabyte of text
        bad = [(g, w) for g, w in zip(got.split(SEP), want.split(SEP)) if g != w]
        raise AssertionError(f"{len(bad)} values differ, first {bad[:3]}")


def neighbours(x):
    """x and the doubles one ulp either side of it."""
    x = np.asarray(x, dtype=float)
    return np.concatenate([np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 2**64 - 1), max_size=300))
def test_arbitrary_bit_patterns(bits):
    assert_same(np.array(bits, dtype=np.uint64).view(np.float64))


def families():
    rng = np.random.default_rng(20240601)
    m = rng.integers(1, 4, 50_000)
    short = rng.integers(1, 10**6, 50_000) / 10.0 ** rng.integers(-8, 12, 50_000)  # k / 10^m
    found = {
        "random bits": rng.integers(0, 2**64, 500_000, dtype=np.uint64).view(np.float64),
        "uniform": np.concatenate([rng.random(100_000), rng.uniform(-1e3, 1e3, 100_000)]),
        "short decimals": neighbours(np.concatenate([short, rng.integers(1, 10**m) / 10.0**m])),
        "powers of ten": neighbours(np.array([float(f"1e{k}") for k in range(-300, 301)])),
        "powers of two": np.ldexp(1.0, np.arange(-1074, 1024)),
        "subnormals": np.concatenate([
            rng.integers(1, 2**52, 20_000, dtype=np.uint64).view(np.float64),
            np.arange(1, 200, dtype=np.uint64).view(np.float64),
        ]),
        "ties": neighbours(np.array([0.5, 0.25, 2.5, 0.125, 1.5, 0.375, 12.5, 1e23, 5e-324, 9007199254740993.0])),
        "layout edges": neighbours(np.array([1e-4, 1e-5, 1e15, 1e16, 1e17, 1e-250, 1e250, 1.0, 10.0])),
        "special": np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 1.7976931348623157e308]),
    }
    # a random sign on each value, flipped bitwise so that NaNs keep their bits
    return {
        name: (values.view(np.uint64) ^ (rng.integers(0, 2, values.size, dtype=np.uint64) << np.uint64(63))).view(
            np.float64)
        for name, values in found.items()
    }


def test_seeded_families():  # about a million values, 2 s on 2 vCPUs
    sizes = []
    for name, values in families().items():
        sizes.append(values.size)
        try:
            assert_same(values)
        except AssertionError as exc:
            raise AssertionError(f"{name}: {exc}") from None
    assert sum(sizes) > 1_000_000


def test_ordinary_values_take_the_numpy_path():
    # the fallback is for ties, bounds and the edges of the range, not for ordinary values; near
    # 1e14..1e18 the scaling is exact, so a tenth of the values sit exactly on a bound and fall back
    rng = np.random.default_rng(7)
    powers = np.concatenate([rng.integers(-200, 10, 50_000), rng.integers(24, 200, 50_000)])
    *_, bad = _shortest(rng.random(100_000) * 10.0**powers)
    assert np.count_nonzero(bad) < 10


def test_empty_and_only_special_values():
    assert json_join(np.array([]), SEP) == b""
    assert_same([0.0, -0.0, math.nan, math.inf, -math.inf] * 300)
    assert json_join(np.array([1.0, 2.0]), b"%") == b"1.0%2.0"  # a separator that % would read
