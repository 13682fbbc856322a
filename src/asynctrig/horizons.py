"""Horizon enumeration and the average-idle objective.

A horizon is a nonempty tuple of actions in {0..m} (0 = idle).  A set of
horizons travels as a code array: one int8 (position, horizon) array, -1
past each horizon's end, as `horizon_codes` builds it in closed form.  Every
triggering mechanism maximizes the same count-based objective
(z + l)/(m l), z idle steps in l.  It is the fraction of sensor-slots left
unused over the horizon plus the constant (2 - m)/m, so it orders and ties
horizons exactly as that fraction does.
"""

from functools import reduce

import numpy as np

from .errors import ConfigError, ResourceCapError

DEFAULT_CAP = 10**6


def horizon_codes(m: int, l_min: int, l_max: int, cap: int = DEFAULT_CAP) -> np.ndarray:
    """Every action sequence over {0..m} of each length in [l_min, l_max], as one
    int8 (position, horizon) array, -1 past each horizon's end.

    Lengths ascend, and the horizon at index i of a length's block is i's
    base-(m+1) digits, most significant first: lexicographic order.  The
    count is sum_{i=l_min}^{l_max} (m+1)^i and must not exceed the cap.
    """
    if not 1 <= m <= 127:  # an int8 code holds actions up to 127
        raise ConfigError(f"sensor count must be in [1, 127], got {m}")
    if not (1 <= l_min <= l_max):
        raise ConfigError(f"need 1 <= l_min <= l_max, got [{l_min}, {l_max}]")
    base = m + 1
    count = sum(base**i for i in range(l_min, l_max + 1))
    if count > cap:
        raise ResourceCapError(f"horizon count {count} exceeds cap {cap}")
    codes = np.full((l_max, count), -1, dtype=np.int8)
    digits = np.arange(base, dtype=np.int8)[:, None]
    start = 0
    for l in range(l_min, l_max + 1):
        for k, row in enumerate(codes[:l, start : start + base**l]):
            # digit k runs through 0..m in runs of base**(l-1-k), base**k times over
            row.reshape(base**k, base, base ** (l - 1 - k))[:] = digits
        start += base**l
    return codes


def enumerate_horizons(m: int, l_min: int, l_max: int, cap: int = DEFAULT_CAP):
    """The horizons of `horizon_codes(m, l_min, l_max, cap)`, in its order, as tuples."""
    codes = horizon_codes(m, l_min, l_max, cap)
    out, start = [], 0
    for l in range(l_min, l_max + 1):  # one length's block at a time, its columns cut to length
        out += map(tuple, codes[:l, start : start + (m + 1) ** l].T.tolist())
        start += (m + 1) ** l
    return out


def horizon_index(sigma, m: int, l_min: int, l_max: int) -> int:
    """sigma's index among the horizons of `horizon_codes(m, l_min, l_max)`: the
    count of the shorter horizons plus sigma's base-(m+1) value.  A sigma
    outside the set is a ConfigError."""
    sigma = tuple(sigma)
    base = m + 1
    if not (l_min <= len(sigma) <= l_max and all(a in range(base) for a in sigma)):
        raise ConfigError(f"fallback horizon {sigma} is not in the enumerated set")
    offset = sum(base**i for i in range(l_min, len(sigma)))
    return offset + reduce(lambda value, a: value * base + int(a), sigma, 0)


def horizon_at(codes, i) -> tuple:
    """Horizon i of a `horizon_codes` array, as a tuple of ints."""
    column = codes[:, i]
    return tuple(column[column >= 0].tolist())


def rotation_classes(codes):
    """(cls, first): horizon i of a `horizon_codes` array lies in rotation class cls[i],
    and first[c] indexes class c's first horizon in list order.

    Two horizons share a class iff they have the same length and the same least
    base-b code over their cyclic rotations, b being one more than the largest
    action.  Where a length's codes would overflow int64, each of its horizons is
    a class of its own.
    """
    lengths = (codes >= 0).sum(axis=0)
    base = int(codes.max(initial=0)) + 1
    cls = np.empty(codes.shape[1], dtype=np.intp)
    first = []
    count = 0
    for l in np.unique(lengths).tolist():
        rows = np.flatnonzero(lengths == l)
        if base**l > 2**63:
            key = np.arange(rows.size)
        else:
            digits = codes[:l, rows].astype(np.int64)
            top = base ** (l - 1)
            key = code = base ** np.arange(l - 1, -1, -1, dtype=np.int64) @ digits
            for d in digits[:-1]:  # rotate left: the leading action moves to the end
                code = (code - d * top) * base + d
                key = np.minimum(key, code)
        _, idx, inv = np.unique(key, return_index=True, return_inverse=True)
        cls[rows] = count + inv
        first.append(rows[idx])
        count += idx.size
    return cls, np.concatenate(first) if first else np.empty(0, dtype=np.intp)


def avg_idle_metric(sigma, m: int) -> float:
    """(z + |sigma|)/(m |sigma|) with z = number of idle steps.

    Equals 1 - readings/(m |sigma|) + (2 - m)/m: the fraction of sensor-slots
    unused, offset by a constant of m alone, so equal only at m = 2.
    """
    if m < 1:
        raise ConfigError(f"sensor count must be >= 1, got {m}")
    sigma = tuple(sigma)
    z = sum(1 for a in sigma if a == 0)
    return (z + len(sigma)) / (m * len(sigma))


def horizon_to_text(sigma) -> str:
    """Comma-free digit string, e.g. (0,0,1,2) -> \"0012\"."""
    sigma = tuple(sigma)
    if any(not (0 <= a <= 9) for a in sigma):
        raise ConfigError("digit-string format supports at most 9 sensors")
    return "".join(str(a) for a in sigma)


def horizon_from_text(text: str):
    """Digit string -> horizon, e.g. \"0012\" -> (0,0,1,2); only ASCII digits are actions."""
    if not text or not (text.isascii() and text.isdigit()):
        raise ConfigError(f"invalid horizon string {text!r}")
    return tuple(int(ch) for ch in text)
