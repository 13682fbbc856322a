"""Horizon enumeration and the average-idle objective.

A horizon is a nonempty tuple of actions in {0..m} (0 = idle).  Every
triggering mechanism maximizes the same count-based objective
(z + l)/(m l), z idle steps in l.  It is the fraction of sensor-slots left
unused over the horizon plus the constant (2 - m)/m, so it orders and ties
horizons exactly as that fraction does.
"""

from itertools import chain, product

import numpy as np

from .errors import ConfigError, ResourceCapError

DEFAULT_CAP = 10**6


def enumerate_horizons(m: int, l_min: int, l_max: int, cap: int = DEFAULT_CAP):
    """All action sequences over {0..m} of each length in [l_min, l_max].

    Lexicographic within each length, lengths ascending; the count is
    sum_{i=l_min}^{l_max} (m+1)^i and must not exceed the cap.
    """
    if m < 1:
        raise ConfigError(f"sensor count must be >= 1, got {m}")
    if not (1 <= l_min <= l_max):
        raise ConfigError(f"need 1 <= l_min <= l_max, got [{l_min}, {l_max}]")
    count = sum((m + 1) ** i for i in range(l_min, l_max + 1))
    if count > cap:
        raise ResourceCapError(f"horizon count {count} exceeds cap {cap}")
    out = []
    for l in range(l_min, l_max + 1):
        out.extend(product(range(m + 1), repeat=l))
    return out


def action_codes(horizons) -> np.ndarray:
    """The horizons' actions as one int8 (position, horizon) array, -1 past each horizon's end."""
    lengths = np.fromiter(map(len, horizons), np.intp, len(horizons))
    flat = np.fromiter(chain.from_iterable(horizons), np.int8, int(lengths.sum()))
    codes = np.full((len(horizons), lengths.max(initial=0)), -1, dtype=np.int8)
    codes[np.arange(codes.shape[1]) < lengths[:, None]] = flat  # row by row, as chain lists them
    return np.ascontiguousarray(codes.T)


def rotation_classes(codes):
    """(cls, first): horizon i of an `action_codes` array lies in rotation class cls[i],
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
    if not text or not text.isdigit():
        raise ConfigError(f"invalid horizon string {text!r}")
    return tuple(int(ch) for ch in text)
