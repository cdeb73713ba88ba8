"""Parse, validate and serialize the yearly value/flow panel.

CSV schema: UTF-8, comma separated, ``.`` decimal point, header exactly
``year,value,flow`` followed by zero or more ``iv_<name>`` instrument
columns.  Both directions work a column at a time: the parser maps each
column into one row of a ``(k, n)`` float array and checks cells one by
one only to name the first fault of a bad file; the serializer formats
each row with one ``%.17g`` template, so a round trip is bit exact.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, TextIO

import numpy as np

__all__ = [
    "PanelFormatError",
    "RawPanel",
    "parse_panel",
    "serialize_panel",
]

REQUIRED_COLUMNS = ("year", "value", "flow")
INSTRUMENT_PREFIX = "iv_"


class PanelFormatError(ValueError):
    """Raised when panel text or panel contents violate the schema."""


@dataclass(frozen=True)
class RawPanel:
    """Aligned yearly series of gross value and natural-resource flow."""

    years: tuple[int, ...]
    value: np.ndarray
    flow: np.ndarray
    instruments: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "value", np.asarray(self.value, dtype=np.float64))
        object.__setattr__(self, "flow", np.asarray(self.flow, dtype=np.float64))
        object.__setattr__(
            self,
            "instruments",
            {k: np.asarray(v, dtype=np.float64) for k, v in self.instruments.items()},
        )
        n = len(self.years)
        if n == 0:
            raise PanelFormatError("panel has no rows")
        series = {"value": self.value, "flow": self.flow, **self.instruments}
        for name, s in series.items():
            if s.ndim != 1 or s.shape[0] != n:
                raise PanelFormatError(
                    f"column '{name}' has length {s.shape[0] if s.ndim == 1 else '?'}, expected {n}"
                )
            finite = np.isfinite(s)
            if not finite.all():
                bad = int(np.flatnonzero(~finite)[0])
                raise PanelFormatError(f"non-finite entry in column '{name}' at data row {bad + 1}")
        out_of_order = list(map(operator.le, self.years[1:], self.years))
        if any(out_of_order):
            i = out_of_order.index(True) + 1
            raise PanelFormatError(
                f"years must be strictly increasing ({self.years[i - 1]} then {self.years[i]})"
            )

    @property
    def n(self) -> int:
        return len(self.years)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RawPanel):
            return NotImplemented
        return (
            self.years == other.years
            and np.array_equal(self.value, other.value)
            and np.array_equal(self.flow, other.flow)
            and list(self.instruments) == list(other.instruments)
            and all(np.array_equal(v, other.instruments[k]) for k, v in self.instruments.items())
        )


def _first_fault(rows, names) -> None:
    """Raise the first fault of the numbered ``rows`` in file order: a ragged
    row, a non-integer or duplicate year, or a non-numeric or non-finite cell."""
    seen_years: set[int] = set()
    for line_no, row in rows:
        if len(row) != len(names):
            raise PanelFormatError(
                f"line {line_no}: expected {len(names)} columns, got {len(row)} (ragged row)"
            )
        try:
            year = int(row[0])
        except ValueError:
            raise PanelFormatError(f"line {line_no}: non-integer year {row[0]!r}") from None
        if year in seen_years:
            raise PanelFormatError(f"line {line_no}: duplicate year {year}")
        seen_years.add(year)
        for name, cell in zip(names[1:], row[1:]):
            try:
                v = float(cell)
            except ValueError:
                raise PanelFormatError(
                    f"line {line_no}: non-numeric cell {cell!r} in column '{name}'"
                ) from None
            if not math.isfinite(v):
                raise PanelFormatError(f"line {line_no}: non-finite cell in column '{name}'")


def parse_panel(source: str | TextIO | Iterable[str]) -> RawPanel:
    """Parse CSV text (string, file object or iterable of lines) into a RawPanel."""
    if isinstance(source, str):
        source = io.StringIO(source)
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise PanelFormatError("empty input: missing header row") from None
    except csv.Error as exc:
        raise PanelFormatError(f"line 1: {exc}") from None
    header = [h.strip() for h in header]
    if tuple(header[:3]) != REQUIRED_COLUMNS:
        raise PanelFormatError(
            f"header must start with 'year,value,flow', got {','.join(header) or '<empty>'!r}"
        )
    iv_names = header[3:]
    for name in iv_names:
        if not name.startswith(INSTRUMENT_PREFIX) or len(name) <= len(INSTRUMENT_PREFIX):
            raise PanelFormatError(f"instrument column {name!r} must be named 'iv_<name>'")
    if len(set(iv_names)) != len(iv_names):
        raise PanelFormatError("duplicate instrument column names")

    rows = []  # (line number, cells) of each non-blank row
    line_no = 1
    try:
        for line_no, row in enumerate(reader, start=2):
            if len(row) > 1 or (row and row[0].strip()):
                rows.append((line_no, row))
    except csv.Error as exc:
        _first_fault(rows, header)
        raise PanelFormatError(f"line {line_no + 1}: {exc}") from None
    if not rows:
        raise PanelFormatError("no data rows")
    # whole columns at a time; on any fault the row loop names the first one
    try:
        year_cells, *cells = zip(*(row for _, row in rows))
        years = tuple(map(int, year_cells))
        table = np.array([list(map(float, column)) for column in cells])
    except ValueError:
        table = None
    if (table is None or any(len(row) != len(header) for _, row in rows)
            or len(set(years)) != len(years) or not np.isfinite(table).all()):
        _first_fault(rows, header)
    return RawPanel(years, table[0], table[1], dict(zip(iv_names, table[2:])))


def serialize_panel(panel: RawPanel) -> str:
    """Emit the panel in the CSV schema with full float precision."""
    columns = [panel.value, panel.flow, *panel.instruments.values()]
    row = "%s" + ",%.17g" * len(columns) + "\n"
    lines = [",".join(REQUIRED_COLUMNS + tuple(panel.instruments)) + "\n"]
    lines.extend(row % cells for cells in zip(panel.years, *(c.tolist() for c in columns)))
    return "".join(lines)
