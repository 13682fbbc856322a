import itertools
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from asynctrig.errors import ConfigError, ResourceCapError
from asynctrig.horizons import (
    avg_idle_metric,
    enumerate_horizons,
    horizon_at,
    horizon_codes,
    horizon_from_text,
    horizon_index,
    horizon_to_text,
    rotation_classes,
)
from helpers import action_codes

# every property runs the same fixed examples on every run: Tier-1 stays deterministic
PROPERTY = settings(derandomize=True, max_examples=60, deadline=None, database=None)


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


@pytest.mark.parametrize("text", ["\u0661\u0662", "1\u00b2"])
def test_text_accepts_only_ascii_digits(text):
    # Arabic-Indic digits would parse to (1, 2) and a superscript two would fail inside int():
    # both are ConfigErrors that name the text
    with pytest.raises(ConfigError, match=repr(text)):
        horizon_from_text(text)


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
    # the test suite's oracle of horizon_codes, checked on its own
    horizons = [(2, 0, 1), (1,), (0, 0), (3, 1, 2, 0)]
    want = np.array(list(itertools.zip_longest(*horizons, fillvalue=-1)), dtype=np.int8)
    codes = action_codes(horizons)
    assert codes.dtype == np.int8 and codes.flags.c_contiguous
    assert np.array_equal(codes, want)
    assert action_codes([]).shape == (0, 0)


@PROPERTY
@given(st.integers(1, 4), st.integers(1, 7), st.integers(0, 6))
def test_horizon_codes_are_the_enumerated_tuples_coded(m, l_min, extra):
    l_max = min(l_min + extra, 7)  # at most 97 655 horizons (m = 4), under the default cap
    codes = horizon_codes(m, l_min, l_max)
    want = action_codes([s for l in range(l_min, l_max + 1) for s in itertools.product(range(m + 1), repeat=l)])
    assert codes.dtype == np.int8 and codes.flags.c_contiguous
    assert np.array_equal(codes, want)
    assert np.array_equal(codes, action_codes(enumerate_horizons(m, l_min, l_max)))


@PROPERTY
@given(st.integers(1, 4), st.integers(1, 6), st.integers(0, 3))
def test_horizon_codes_cap_is_inclusive(m, l_min, extra):
    l_max = l_min + extra
    count = sum((m + 1) ** l for l in range(l_min, l_max + 1))
    assume(count <= 10**6)  # keeps the arrays small
    assert horizon_codes(m, l_min, l_max, cap=count).shape == (l_max, count)
    with pytest.raises(ResourceCapError, match=f"horizon count {count} exceeds cap {count - 1}"):
        horizon_codes(m, l_min, l_max, cap=count - 1)


@PROPERTY
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2))
def test_horizon_index_is_the_list_index(m, l_min, extra):
    l_max = l_min + extra
    horizons = enumerate_horizons(m, l_min, l_max)
    codes = horizon_codes(m, l_min, l_max)
    first = {}  # each horizon's first position, which is what horizons.index finds, in one pass
    for i, sigma in enumerate(horizons):
        first.setdefault(sigma, i)
    for i, sigma in enumerate(horizons):
        assert horizon_index(sigma, m, l_min, l_max) == first[sigma] == i
        assert horizon_at(codes, i) == sigma


@PROPERTY
@given(
    st.integers(1, 4),
    st.integers(2, 5),
    st.integers(0, 2),
    st.lists(st.integers(0, 9), min_size=0, max_size=9),
)
def test_horizon_index_refuses_what_the_set_lacks(m, l_min, extra, sigma):
    # too short, too long, or an action above m: each is outside the set
    l_max = l_min + extra
    sigma = tuple(sigma)
    inside = l_min <= len(sigma) <= l_max and all(a <= m for a in sigma)
    if inside:
        assert horizon_index(sigma, m, l_min, l_max) == enumerate_horizons(m, l_min, l_max).index(sigma)
    else:
        with pytest.raises(ConfigError, match="is not in the enumerated set"):
            horizon_index(sigma, m, l_min, l_max)
    for outside in ((0,) * (l_min - 1), (0,) * (l_max + 1), (m + 1,) * l_min):
        with pytest.raises(ConfigError, match=rf"fallback horizon {re.escape(str(outside))} is not"):
            horizon_index(outside, m, l_min, l_max)


def test_horizon_codes_refuse_codes_int8_cannot_hold():
    # 128 would wrap to -128 in an int8 code
    with pytest.raises(ConfigError, match=r"sensor count must be in \[1, 127\], got 128"):
        horizon_codes(128, 1, 1)
    assert horizon_codes(127, 1, 1).max() == 127


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
