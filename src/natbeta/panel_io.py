"""Parse, validate and serialize the yearly value/flow panel.

CSV schema: UTF-8, comma separated, ``.`` decimal point, header exactly
``year,value,flow`` followed by zero or more ``iv_<name>`` instrument
columns.  Serialization emits 17 significant digits so a parse/serialize
round trip is bit exact.
"""

from __future__ import annotations

import csv
import io
import math
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
            if not np.all(np.isfinite(s)):
                bad = int(np.flatnonzero(~np.isfinite(s))[0])
                raise PanelFormatError(f"non-finite entry in column '{name}' at data row {bad + 1}")
        for i in range(1, n):
            if self.years[i] <= self.years[i - 1]:
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


def _parse_year(cell: str, line_no: int) -> int:
    try:
        return int(cell.strip())
    except ValueError:
        raise PanelFormatError(f"line {line_no}: non-integer year {cell!r}") from None


def _parse_float(cell: str, column: str, line_no: int) -> float:
    try:
        v = float(cell.strip())
    except ValueError:
        raise PanelFormatError(f"line {line_no}: non-numeric cell {cell!r} in column '{column}'") from None
    if math.isnan(v) or math.isinf(v):
        raise PanelFormatError(f"line {line_no}: non-finite cell in column '{column}'")
    return v


def parse_panel(source: str | TextIO | Iterable[str]) -> RawPanel:
    """Parse CSV text (string, file object or iterable of lines) into a RawPanel."""
    if isinstance(source, str):
        source = io.StringIO(source)
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise PanelFormatError("empty input: missing header row") from None
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

    years: list[int] = []
    value: list[float] = []
    flow: list[float] = []
    ivs: dict[str, list[float]] = {name: [] for name in iv_names}
    seen_years: set[int] = set()
    width = len(header)
    for line_no, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue  # tolerate blank lines
        if len(row) != width:
            raise PanelFormatError(
                f"line {line_no}: expected {width} columns, got {len(row)} (ragged row)"
            )
        year = _parse_year(row[0], line_no)
        if year in seen_years:
            raise PanelFormatError(f"line {line_no}: duplicate year {year}")
        seen_years.add(year)
        years.append(year)
        value.append(_parse_float(row[1], "value", line_no))
        flow.append(_parse_float(row[2], "flow", line_no))
        for name, cell in zip(iv_names, row[3:]):
            ivs[name].append(_parse_float(cell, name, line_no))
    if not years:
        raise PanelFormatError("no data rows")
    return RawPanel(
        years=tuple(years),
        value=np.array(value),
        flow=np.array(flow),
        instruments={k: np.array(v) for k, v in ivs.items()},
    )


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def serialize_panel(panel: RawPanel) -> str:
    """Emit the panel in the CSV schema with full float precision."""
    header = ",".join(REQUIRED_COLUMNS + tuple(panel.instruments))
    lines = [header]
    for i, year in enumerate(panel.years):
        cells = [str(year), _fmt(panel.value[i]), _fmt(panel.flow[i])]
        cells.extend(_fmt(panel.instruments[name][i]) for name in panel.instruments)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"

