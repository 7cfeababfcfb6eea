"""Differential tests: ``Inventory``'s numpy CSV reader, one-call writer
and interned per-DC lookup against the row-walking code they replaced.

The references below are the ``csv.DictReader`` loader, the per-row
``save_csv`` writer and the name-walking ``servers_per_position``, kept
verbatim.  Each is obviously correct by inspection and slow; the
columnar code must match it exactly — dtypes, float bits, names,
count-column order, per-DC slot counts and the bytes written — on
inventories ``save_csv`` writes and then reshapes the ways a real dump
may differ: no rows, count-column subsets in any header order, an extra
non-``n_`` column, blank lines and CRLF line ends.  The code under test
runs with warnings raised as errors, so an empty body must load
silently.
"""

from __future__ import annotations

import contextlib
import csv
import sys
import tempfile
import warnings
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.types import ComponentClass
from repro.fleet.inventory import Inventory


@contextlib.contextmanager
def _warnings_as_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


# ---------------------------------------------------------------------------
# References: the row-walking implementations, unchanged.

_REF_CSV_BASE = ("host_id", "idc", "position", "deployed_at", "product_line")


def ref_load_csv(path: Union[str, Path]) -> Inventory:
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        fields = reader.fieldnames or []
        missing = set(_REF_CSV_BASE) - set(fields)
        if missing:
            raise ValueError(f"inventory CSV missing columns: {sorted(missing)}")
        count_cols = [
            ComponentClass(f[2:]) for f in fields if f.startswith("n_")
        ]
        host_ids, idcs, positions, deployed, lines = [], [], [], [], []
        counts: Dict[ComponentClass, List[int]] = {c: [] for c in count_cols}
        for row in reader:
            host_ids.append(int(row["host_id"]))
            idcs.append(row["idc"])
            positions.append(int(row["position"]))
            deployed.append(float(row["deployed_at"]))
            lines.append(row["product_line"])
            for c in count_cols:
                counts[c].append(int(row[f"n_{c.value}"]))
    return Inventory(host_ids, idcs, positions, deployed, lines, counts)


def ref_save_csv(inv: Inventory, path: Path) -> None:
    count_cols = sorted(inv.component_counts, key=lambda c: c.value)
    fields = [*_REF_CSV_BASE, *(f"n_{c.value}" for c in count_cols)]
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for i in range(len(inv)):
            row = [
                int(inv.host_ids[i]),
                inv.idcs[i],
                int(inv.positions[i]),
                float(inv.deployed_ats[i]),
                inv.product_lines[i],
            ]
            row.extend(int(inv.component_counts[c][i]) for c in count_cols)
            writer.writerow(row)


def ref_servers_per_position(inv: Inventory, idc: Optional[str] = None) -> np.ndarray:
    if idc is None:
        positions = inv.positions
    else:
        mask = np.fromiter(
            (name == idc for name in inv.idcs), dtype=bool, count=len(inv)
        )
        if not mask.any():
            raise ValueError(f"no servers in data center {idc!r}")
        positions = inv.positions[mask]
    return np.bincount(positions).astype(float)


# ---------------------------------------------------------------------------
# Adversarial inventories.

_INT32 = st.integers(-(2**31), 2**31 - 1)
#: Names mix CSV-special characters into arbitrary text.  Surrogates
#: cannot be written as UTF-8, and csv.reader rejects NUL before 3.11.
_NAMES = st.text(
    st.one_of(
        st.sampled_from(',"#\r\n \t'),
        st.characters(
            exclude_categories=("Cs",),
            exclude_characters="\x00" if sys.version_info < (3, 11) else "",
        ),
    ),
    max_size=6,
)


@st.composite
def inventories(draw, positions=_INT32):
    n = draw(st.integers(0, 12), label="servers")
    classes = draw(
        st.lists(st.sampled_from(list(ComponentClass)), unique=True, max_size=4)
    )

    def column(elements):
        return draw(st.lists(elements, min_size=n, max_size=n))

    dcs = draw(st.lists(_NAMES, min_size=1, max_size=4, unique=True))
    return Inventory(
        host_ids=column(st.integers(-(2**63), 2**63 - 1)),
        idcs=column(st.sampled_from(dcs)),
        positions=column(positions),
        deployed_ats=column(st.floats()),
        product_lines=column(_NAMES),
        component_counts={c: column(_INT32) for c in classes},
    )


def _rewrite(path: Path, data) -> None:
    """Rewrite ``path``, as ``save_csv`` wrote it, with its columns in
    any order, maybe an extra column, blank lines and CRLF ends."""
    with path.open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if data.draw(st.booleans(), label="extra column"):
        rows = [rows[0] + ["note"]] + [row + [data.draw(_NAMES)] for row in rows[1:]]
    order = data.draw(st.permutations(range(len(rows[0]))), label="column order")
    rows = [[row[j] for j in order] for row in rows]
    blank = data.draw(st.sets(st.integers(1, len(rows)), max_size=3), label="blank before")
    end = data.draw(st.sampled_from(["\n", "\r\n"]), label="line end")
    with path.open("w", encoding="utf-8", newline="") as fh:
        # Under an LF terminator csv leaves a lone CR unquoted, which no
        # reader takes as part of a field; such rows are quoted in full.
        bare = csv.writer(fh, lineterminator=end)
        quoted = csv.writer(fh, lineterminator=end, quoting=csv.QUOTE_ALL)
        for i, row in enumerate([*rows, None]):
            if i in blank:
                fh.write(end)
            if row is not None:
                (quoted if any("\r" in f for f in row) else bare).writerow(row)


def _assert_same(got: Inventory, want: Inventory) -> None:
    for name in ("host_ids", "positions", "deployed_ats"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got.idcs == want.idcs
    assert got.product_lines == want.product_lines
    assert all(type(s) is str for s in [*got.idcs, *got.product_lines])
    assert list(got.component_counts) == list(want.component_counts)
    for cls, b in want.component_counts.items():
        a = got.component_counts[cls]
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), cls


def _outcome(fn, *args):
    """``fn``'s result, or the type of the ``ValueError`` it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc)


class TestLoadCsvOracle:
    @given(inv=inventories(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, inv, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "inventory.csv"
            inv.save_csv(path)
            _rewrite(path, data)
            with _warnings_as_errors():
                _assert_same(Inventory.load_csv(path), ref_load_csv(path))

    def test_empty_body_matches_reference(self, tmp_path):
        path = tmp_path / "inventory.csv"
        for body in ("", "\n", "\r\n\r\n"):
            path.write_text("host_id,idc,position,deployed_at,product_line,n_hdd\r\n"
                            + body, encoding="utf-8", newline="")
            with _warnings_as_errors():
                loaded = Inventory.load_csv(path)
                _assert_same(loaded, ref_load_csv(path))
            assert len(loaded) == 0


class TestSaveCsvOracle:
    @given(inv=inventories())
    @settings(max_examples=100, deadline=None)
    def test_bytes_match_reference(self, inv):
        with tempfile.TemporaryDirectory() as tmp:
            new, ref = Path(tmp) / "new.csv", Path(tmp) / "ref.csv"
            with _warnings_as_errors():
                inv.save_csv(new)
                ref_save_csv(inv, ref)
            assert new.read_bytes() == ref.read_bytes()


class TestServersPerPositionOracle:
    @given(inv=inventories(positions=st.integers(-2, 40)), probe=_NAMES)
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, inv, probe):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "inventory.csv"
            inv.save_csv(path)
            loaded = Inventory.load_csv(path)
        for idc in [None, *dict.fromkeys(inv.idcs), probe]:
            with _warnings_as_errors():
                got = _outcome(loaded.servers_per_position, idc)
                want = _outcome(ref_servers_per_position, loaded, idc)
            if isinstance(want, np.ndarray):
                assert isinstance(got, np.ndarray)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            else:
                assert got is want
