"""The group-by primitive every hot path in ``core`` and ``analysis`` uses.

The group-by oracles (``tests/test_groupby_oracles.py``) and the product
benchmark's per-layer timings hold the hot paths to this idiom: what
replaces ``for ticket in failures: bucket[key(ticket)].append(...)`` is
one stable argsort over an integer key column plus boundary detection —
O(n log n) in numpy instead of n interpreter round-trips, and no ticket
objects.  Dataset group-bys (``FOTDataset.by_*``),
repeat chains, incident links and correlated-pair counts all group this
way:

* :func:`composite_key` packs any number of integer columns into one
  collision-free ``int64`` key that orders lexicographically.
* :func:`group_slices` sorts a key column once and returns the group
  boundaries; callers slice per group (the per-*group* loop is over the
  handful of groups, not over n rows), or compare neighbours inside
  ``order`` to walk each group in its original order.
* :func:`distinct` and :func:`distinct_counts` find distinct values
  the same way: sort, don't hash.

All are pure functions over immutable inputs — safe on frozen
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


def _sorted_integers(column: np.ndarray) -> np.ndarray:
    """``column`` flattened and sorted; integer dtypes only."""
    column = np.asarray(column)
    if not np.issubdtype(column.dtype, np.integer):
        raise TypeError(f"expected an integer column, got dtype {column.dtype}")
    return np.sort(column, axis=None)


def _run_heads(ordered: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal values in a
    sorted array."""
    heads = np.empty(ordered.size, dtype=bool)
    heads[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=heads[1:])
    heads.setflags(write=False)
    return heads


def distinct(column: np.ndarray) -> np.ndarray:
    """The sorted distinct values of an integer column.

    Equal to ``np.unique(column)``, by one ``np.sort`` and a neighbour
    compare.  On numpy >= 2.3 a values-only ``np.unique`` takes a hash
    table, which on 32- and 64-bit row columns costs several times a
    sort; on 8- and 16-bit codes the hash wins, so callers keep
    ``np.unique`` there.  Integer-only: ``np.unique`` merges NaNs, a
    neighbour compare would not.
    """
    ordered = _sorted_integers(column)
    return ordered[_run_heads(ordered)]


def distinct_counts(column: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``np.unique(column, return_counts=True)`` of an integer column,
    by the same sort as :func:`distinct`: the sorted distinct values and
    how often each occurs (``intp``)."""
    ordered = _sorted_integers(column)
    starts = np.flatnonzero(_run_heads(ordered))
    return ordered[starts], np.diff(starts, append=ordered.size)


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

    For int32/int64 keys, each key is packed with its input position as
    ``(key - low) * n + position``.  The packed values are distinct, so
    numpy's default sort (unstable, but about 3x faster than the stable
    merge sort) orders them as the stable argsort would, and the sorted
    packed values decode into both ``order`` (``% n``) and the sorted
    keys (``// n``) with no argsort and no gather.  Keys of 16 bits or
    less, and keys whose packing would overflow, keep the stable sort,
    a radix sort for the narrow ones.
    """
    keys = np.asarray(keys)
    if keys.ndim != 1:
        raise ValueError(f"expected a 1-D key array, got shape {keys.shape}")
    n = keys.size
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        empty.setflags(write=False)
        return empty, empty, empty
    wide = keys.dtype.kind == "i" and keys.dtype.itemsize >= 4
    low = int(keys.min()) if wide else 0
    if wide and int(keys.max()) - low < _INT64.max // n:
        packed = np.sort((keys.astype(np.int64) - low) * n + np.arange(n))
        sorted_keys, order = np.divmod(packed, n)
    else:
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
    starts = np.flatnonzero(_run_heads(sorted_keys))
    stops = np.r_[starts[1:], n]
    return order, starts, stops


__all__ = ["composite_key", "distinct", "distinct_counts", "group_slices"]
