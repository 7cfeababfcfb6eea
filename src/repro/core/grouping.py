"""The group-by primitive every hot path in ``core`` and ``analysis`` uses.

The perf lint rules (RPL301/RPL304) forbid Python-level row loops in
the hot packages; the idiom that replaces ``for ticket in failures:
bucket[key(ticket)].append(...)`` is one stable argsort over an integer
key column plus boundary detection — O(n log n) in numpy instead of n
interpreter round-trips.  Dataset group-bys (``FOTDataset.by_*``),
repeat chains, incident links and correlated-pair counts all group this
way:

* :func:`composite_key` packs any number of integer columns into one
  collision-free ``int64`` key that orders lexicographically.
* :func:`group_slices` sorts a key column once and returns the group
  boundaries; callers slice per group (the per-*group* loop is over the
  handful of groups, not over n rows), or compare neighbours inside
  ``order`` to walk each group in its original order.

Both are pure functions over immutable inputs — safe on frozen
``ColumnStore`` column views.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

_INT64 = np.iinfo(np.int64)


def _dense_ranks(column: np.ndarray) -> np.ndarray:
    """Order-preserving ranks ``0..k-1`` of the ``k`` distinct values."""
    return np.unique(column, return_inverse=True)[1].reshape(column.shape)


def composite_key(*columns: np.ndarray) -> np.ndarray:
    """Pack integer columns into one collision-free ``int64`` key.

    Keys order lexicographically by the columns, first column most
    significant.  Later columns may hold negative values (e.g. -1
    sentinel codes); each is shifted to zero before packing.  When the
    packed value would overflow ``int64`` (ids from an outside dump can
    be arbitrarily large), the key so far and the next column are
    replaced by their dense ranks first, which keeps the order and
    bounds the key below ``n ** 2``.
    """
    if not columns:
        raise ValueError("composite_key needs at least one column")
    key: np.ndarray = np.asarray(columns[0]).astype(np.int64)
    for column in columns[1:]:
        minor: np.ndarray = np.asarray(column).astype(np.int64)
        if minor.shape != key.shape:
            raise ValueError(
                f"key columns differ in shape: {key.shape} vs {minor.shape}"
            )
        if key.size == 0:
            continue
        low = int(minor.min())
        span = int(minor.max()) - low + 1
        if (
            int(key.min()) * span < _INT64.min
            or int(key.max()) * span + span - 1 > _INT64.max
        ):
            key, minor = _dense_ranks(key), _dense_ranks(minor)
            low, span = 0, int(minor.max()) + 1
        key = key * span + (minor - low)
    return key


def group_slices(
    keys: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One stable sort over ``keys`` -> per-group index slices.

    Returns ``(order, starts, stops)``: ``order`` is the stable argsort
    of ``keys`` (ties keep input order, so time-sorted input stays
    time-sorted within each group); group ``g`` occupies
    ``order[starts[g]:stops[g]]`` and groups appear in ascending key
    order.  ``order[starts]`` is each group's first input position, so
    ``np.argsort(order[starts])`` lists the groups in first-appearance
    order.
    """
    keys = np.asarray(keys)
    if keys.ndim != 1:
        raise ValueError(f"expected a 1-D key array, got shape {keys.shape}")
    if keys.size == 0:
        empty = np.empty(0, dtype=np.int64)
        empty.setflags(write=False)
        return empty, empty, empty
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    starts = np.flatnonzero(
        np.r_[True, sorted_keys[1:] != sorted_keys[:-1]]
    )
    stops = np.r_[starts[1:], sorted_keys.size]
    return order, starts, stops


__all__ = ["composite_key", "group_slices"]
