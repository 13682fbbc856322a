import itertools
from fractions import Fraction

import numpy as np
import pytest

from asynctrig.errors import ConfigError, ResourceCapError
from asynctrig.horizons import (
    action_codes,
    avg_idle_metric,
    enumerate_horizons,
    horizon_from_text,
    horizon_to_text,
    rotation_classes,
)


def test_counts_geometric():
    assert len(enumerate_horizons(2, 1, 3)) == 39
    assert len(enumerate_horizons(2, 1, 6)) == 1092
    assert len(enumerate_horizons(2, 3, 6)) == 1080
    assert len(enumerate_horizons(1, 1, 1)) == 2
    assert len(enumerate_horizons(3, 2, 2)) == 16


def test_order_is_length_then_lexicographic():
    hs = enumerate_horizons(2, 1, 2)
    want = [(a,) for a in range(3)] + list(itertools.product(range(3), repeat=2))
    assert hs == want


def test_metric_values():
    assert avg_idle_metric((0,), 2) == 1.0
    assert avg_idle_metric((1,), 2) == 0.5
    assert avg_idle_metric((0, 0, 1, 2, 2, 2, 2), 2) == pytest.approx(9 / 14)
    # all-idle maximizes at 2/m, all-busy minimizes at 1/m
    assert avg_idle_metric((0, 0, 0), 3) == pytest.approx(2 / 3)
    assert avg_idle_metric((1, 2, 3), 3) == pytest.approx(1 / 3)


def test_metric_is_exact_ieee_quotient():
    # metrics of equal rationals must compare equal bit for bit
    assert avg_idle_metric((0, 1), 2) == avg_idle_metric((1, 0), 2)
    assert avg_idle_metric((0, 1, 0, 2), 2) == avg_idle_metric((0, 2), 2)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_metric_is_the_unused_slot_fraction_plus_a_constant(m):
    # (z + l)/(m l) = (m l - readings)/(m l) + (2 - m)/m: the two agree only at
    # m = 2, yet order and tie every horizon alike, so no decision tells them apart
    horizons = enumerate_horizons(m, 1, 4)
    readings = np.array([sum(a != 0 for a in s) for s in horizons])
    slots = m * np.array([len(s) for s in horizons])
    unused = slots - readings
    metrics = np.array([avg_idle_metric(s, m) for s in horizons])
    for value, u, total in zip(metrics.tolist(), unused.tolist(), slots.tolist()):
        assert value == float(Fraction(u, total) + Fraction(2 - m, m))
    # unused_i/slots_i against unused_j/slots_j, exactly, by cross-multiplying
    exact = np.sign(np.multiply.outer(unused, slots) - np.multiply.outer(slots, unused))
    np.testing.assert_array_equal(np.sign(np.subtract.outer(metrics, metrics)), exact)


def test_text_round_trip():
    for sigma in enumerate_horizons(2, 1, 3):
        assert horizon_from_text(horizon_to_text(sigma)) == sigma
    assert horizon_to_text((0, 0, 1, 2, 2, 2, 2)) == "0012222"
    assert horizon_from_text("0") == (0,)


def test_text_rejects_wide_alphabets_and_junk():
    with pytest.raises(ConfigError):
        horizon_to_text((10,))
    with pytest.raises(ConfigError):
        horizon_from_text("1a2")
    with pytest.raises(ConfigError):
        horizon_from_text("")


def test_bad_bounds():
    with pytest.raises(ConfigError):
        enumerate_horizons(2, 0, 3)
    with pytest.raises(ConfigError):
        enumerate_horizons(2, 3, 2)
    with pytest.raises(ConfigError):
        enumerate_horizons(0, 1, 2)


def test_resource_cap():
    with pytest.raises(ResourceCapError, match="exceeds cap"):
        enumerate_horizons(3, 1, 12, cap=1000)


def test_action_codes_pad_each_horizon_with_minus_one():
    horizons = [(2, 0, 1), (1,), (0, 0), (3, 1, 2, 0)]
    want = np.array(list(itertools.zip_longest(*horizons, fillvalue=-1)), dtype=np.int8)
    codes = action_codes(horizons)
    assert codes.dtype == np.int8 and codes.flags.c_contiguous
    assert np.array_equal(codes, want)
    assert action_codes([]).shape == (0, 0)


def test_rotation_classes_are_the_necklaces():
    # 4 + 10 + 24 + 70 + 208 + 700 + 2344 necklaces of lengths 1..7 over 4 actions
    horizons = enumerate_horizons(3, 1, 7)
    cls, first = rotation_classes(action_codes(horizons))
    assert first.size == cls.max() + 1 == 3360
    members = {}
    for i, c in enumerate(cls.tolist()):
        members.setdefault(c, []).append(i)
    for c, rows in members.items():
        assert rows[0] == first[c]  # the representative is the class's first horizon
        s = horizons[rows[0]]
        assert {horizons[i] for i in rows} == {s[r:] + s[:r] for r in range(len(s))}


def test_rotation_classes_split_codes_that_would_overflow():
    # base 2 and length 64: the codes do not fit int64, so no two horizons share a class
    s = (1,) + (0,) * 63
    cls, first = rotation_classes(action_codes([s, s[1:] + s[:1], (1, 0), (0, 1)]))
    assert cls[0] != cls[1] and cls[2] == cls[3] and sorted(first.tolist()) == [0, 1, 2]
