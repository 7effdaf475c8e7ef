"""Data ingestion and configuration parsing for the command-line surface.

A unit table is a CSV file with header columns ``id``, coordinates
(``x``/``y``, or ``x1..xk``, or a single ``x``), ``treatment``, ``outcome``,
and optionally ``enrollment``. Run configurations are JSON documents read
strictly: unknown keys are rejected so typos fail loudly instead of being
ignored.

This module only turns text into typed values, each read once, and names
the CSV row and column or the JSON key path of a bad field. A CSV file is
read in one pass into columns, and a numeric column is parsed at once, as
``float()`` parses a cell. A JSON integer is read by ``errors.check_integer``
(an integer or an integral float) and a JSON number by ``errors.read_number``
(a finite integer or float), the readers of the library's own arguments, so a
config file and a library call accept the same values; strings, booleans and
null are neither. Value rules (ranges, cross-field checks, uniqueness) belong
to the types built from the values: ``Population``, ``RunConfig``,
``NeighborhoodSet`` (the indices of a neighborhood file are its to read), and
the simulation's ``synthetic_layout`` and ``Scenario``. A default belongs to the
type that uses the value: ``SimConfig.params`` holds only the ``Scenario``
arguments a file gives, and which keys a command reads is the command's
rule (``cli``). The report helpers read their report through
``errors.check_instance``, as the library reads its object arguments.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import re
from dataclasses import dataclass, field
from io import StringIO
from itertools import zip_longest
from pathlib import Path
from typing import Optional

import numpy as np

from .contrast import ContrastReport
from .design import ExposureMapping, NeighborhoodSet, Population
from .errors import ValidationError, check_instance, check_integer, check_positive, check_probability, read_number
from .monotone import MonotoneCiReport
from .simulate import LAYOUT_KINDS, SCENARIO_KINDS
from .simulate import CoverageTable


def _path(where: tuple) -> str:
    """JSON key path: a root name, then keys and list indices."""
    root, *keys = where
    return str(root) + "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in keys)


def _mismatch(where: tuple, expected: str, value) -> ValidationError:
    return ValidationError(f"{_path(where)}: expected {expected}, got {value!r}")


def _object(value, allowed: set, *where, required: tuple = ()) -> dict:
    if not isinstance(value, dict):
        raise _mismatch(where, "an object", value)
    unknown = set(value) - allowed
    if unknown:
        raise ValidationError(f"{_path(where)}: unknown keys {sorted(unknown)} (allowed: {sorted(allowed)})")
    for key in required:
        if key not in value:
            raise ValidationError(f"{_path(where)}: {key} is required")
    return value


def _int(value, *where) -> int:
    try:
        return check_integer(value, _path(where))
    except ValidationError:
        raise _mismatch(where, "an integer", value) from None


def _float(value, *where) -> float:
    try:
        return read_number(value, _path(where))
    except ValidationError:
        raise _mismatch(where, "a finite number", value) from None


def _choice(value, options: tuple, *where) -> str:
    if isinstance(value, str) and value in options:
        return value
    raise _mismatch(where, f"one of {list(options)}", value)


def _pairs(value, *where) -> tuple:
    """A nonempty list of [d_min, d] integer pairs."""
    if not isinstance(value, list) or not value:
        raise _mismatch(where, "a nonempty list of [d_min, d] pairs", value)
    pairs = []
    for i, entry in enumerate(value):
        if not (isinstance(entry, list) and len(entry) == 2):
            raise _mismatch(where + (i,), "a [d_min, d] pair", entry)
        pairs.append((_int(entry[0], *where, i, 0), _int(entry[1], *where, i, 1)))
    return tuple(pairs)


def _load_json(path):
    try:
        with Path(path).open() as handle:
            return json.load(handle)
    except ValueError as exc:  # malformed JSON or undecodable bytes
        raise ValidationError(f"{path}: not a valid JSON file: {exc}") from None


def _read_csv(path: Path, required: tuple) -> dict:
    """The columns of a CSV file with the ``required`` columns, by stripped header name, read in one pass
    as ``csv.DictReader`` reads records: blank ones skipped, a short one's missing cells None, extra
    cells ignored, and of a repeated name the last column kept."""
    try:
        with path.open(newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                raise ValidationError(f"{path}: empty file")
            records = [record for record in reader if record]
    except (csv.Error, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path}: not a readable CSV file: {exc}") from None
    # The header pads every column to its width; its own cell is dropped.
    columns = {name.strip(): column[1:] for name, column in zip(header, zip_longest(header, *records))}
    for name in required:
        if name not in columns:
            raise ValidationError(f"{path}: missing required column {name!r}")
    return columns


def _cell(raw, column: str, row: int, integer: bool = False) -> float:
    """A numeric CSV cell (a treatment is 0 or 1); with ``integer`` it must also be integral (so finite)."""
    if column == "treatment" and (raw or "").strip() not in ("0", "1"):
        raise ValidationError(f"row {row}: column 'treatment' must be 0 or 1, got {(raw or '').strip()!r}")
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ValidationError(f"row {row}: column {column!r} is not a number: {raw!r}") from None
    if integer and not value.is_integer():
        raise ValidationError(f"row {row}: column {column!r} must be an integer, got {raw!r}")
    return value


def _coordinate_columns(fieldnames) -> list:
    names = set(fieldnames)
    if {"x", "y"} <= names:
        return ["x", "y"]
    numbered = sorted(
        (int(match.group(1)), name)
        for name in names
        if (match := re.fullmatch(r"x(\d+)", name))
    )
    if numbered:
        expected = list(range(1, len(numbered) + 1))
        if [k for k, _ in numbered] != expected:
            raise ValidationError(
                f"coordinate columns must be consecutive x1..xk, got {[n for _, n in numbered]}"
            )
        return [name for _, name in numbered]
    if "x" in names:
        return ["x"]
    raise ValidationError("no coordinate columns found (expected x/y, x1..xk, or x)")


def load_units(path, rho: float) -> Population:
    """Read a unit table; row order becomes unit index order.

    A bad cell, or a unit that breaks one of ``Population``'s rules, is reported by its row.
    """
    path = Path(path)
    columns = _read_csv(path, ("id", "treatment", "outcome"))
    coord_cols = _coordinate_columns(columns)
    has_enrollment = "enrollment" in columns
    names = [*coord_cols, "treatment", "outcome"] + ["enrollment"] * has_enrollment
    cells = [columns[name] for name in names]
    try:  # numpy would read None (a short record's cell) as NaN, and a treatment such as "1.0" as a number
        if any(None in column for column in cells) or not {"0", "1"}.issuperset(columns["treatment"]):
            raise ValueError
        values = np.array(cells, dtype=float)
    except ValueError:  # read again cell by cell, row by row, to name the first bad cell
        rows = enumerate(zip(*cells), start=2)
        values = np.array([[_cell(raw, name, row) for name, raw in zip(names, record)] for row, record in rows]).T
    dim = len(coord_cols)
    try:
        return Population(
            ids=columns["id"], coords=np.ascontiguousarray(values[:dim].T), treatment=values[dim],
            outcome=values[dim + 1], rho=rho, enrollment=values[dim + 2] if has_enrollment else None,
        )
    except ValidationError as exc:
        if exc.unit is None:
            raise
        raise ValidationError(f"row {exc.unit + 2}: {exc}") from None


def load_neighborhoods(path) -> NeighborhoodSet:
    """Explicit adjacency-list loader: a JSON list of per-unit index lists, whose indices ``NeighborhoodSet`` reads."""
    data = _load_json(path)
    if not isinstance(data, list):
        raise _mismatch((path,), "a list of index lists", data)
    for i, members in enumerate(data):
        if not isinstance(members, list):
            raise _mismatch((path, i), "a list of unit indices", members)
    return NeighborhoodSet.from_sets(data)


def load_count_table(path) -> dict:
    """Aggregate two-arm count table: columns arm, total, positive.

    ``arm`` must be exactly 'control' and 'treated', one row each.
    """
    path = Path(path)
    columns = _read_csv(path, ("arm", "total", "positive"))
    rows = {}
    for row, (arm, *counts) in enumerate(zip(columns["arm"], columns["total"], columns["positive"]), start=2):
        arm = (arm or "").strip()
        if arm not in ("control", "treated"):
            raise ValidationError(f"row {row}: arm must be 'control' or 'treated', got {arm!r}")
        if arm in rows:
            raise ValidationError(f"row {row}: duplicate arm {arm!r}")
        rows[arm] = tuple(int(_cell(raw, c, row, integer=True)) for c, raw in zip(("total", "positive"), counts))
    if set(rows) != {"control", "treated"}:
        raise ValidationError(f"{path}: count table needs exactly one control and one treated row")
    return {
        "n_treated": rows["treated"][0],
        "pos_treated": rows["treated"][1],
        "n_control": rows["control"][0],
        "pos_control": rows["control"][1],
    }


@dataclass(frozen=True)
class RunConfig:
    """Analysis configuration; construction enforces its value rules."""

    rho: float
    alpha: float = 0.05
    mapping: Optional[ExposureMapping] = None
    d: Optional[int] = None
    bonferroni: Optional[tuple] = None   # ((d_min, d), ...)
    mc_samples: Optional[int] = None     # Monte Carlo draws; None: exact profile
    mc_seed: int = 0
    variance_floor: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "rho", check_probability(self.rho, "config: rho"))
        object.__setattr__(self, "alpha", check_probability(self.alpha, "config: alpha"))
        if self.mc_samples is not None and check_integer(self.mc_samples, "config: p_method.samples") < 1:
            raise ValidationError("config: Monte Carlo p_method needs samples >= 1")
        if self.variance_floor is not None:
            object.__setattr__(self, "variance_floor", check_positive(self.variance_floor, "config: diagnostics.c"))


def parse_run_config(data: dict) -> RunConfig:
    _object(
        data,
        {"rho", "alpha", "mapping", "neighborhood", "bonferroni", "p_method", "diagnostics"},
        "config",
        required=("rho",),
    )
    fields = {"rho": _float(data["rho"], "config", "rho")}
    if "alpha" in data:
        fields["alpha"] = _float(data["alpha"], "config", "alpha")
    if "mapping" in data:
        mapping = _object(data["mapping"], {"kind", "d_min"}, "config", "mapping")
        kind = _choice(mapping.get("kind"), ("product", "threshold"), "config", "mapping", "kind")
        d_min = _int(mapping["d_min"], "config", "mapping", "d_min") if "d_min" in mapping else None
        fields["mapping"] = ExposureMapping(kind, d_min)
    if "neighborhood" in data:
        nbhd = _object(data["neighborhood"], {"d"}, "config", "neighborhood", required=("d",))
        fields["d"] = _int(nbhd["d"], "config", "neighborhood", "d")
    if "bonferroni" in data:
        fields["bonferroni"] = _pairs(data["bonferroni"], "config", "bonferroni")
    if "p_method" in data and data["p_method"] != "exact":
        method = _object(data["p_method"], {"kind", "samples", "seed"}, "config", "p_method")
        _choice(method.get("kind"), ("mc",), "config", "p_method", "kind")
        fields["mc_samples"] = _int(method.get("samples", 0), "config", "p_method", "samples")
        fields["mc_seed"] = _int(method.get("seed", 0), "config", "p_method", "seed")
    if "diagnostics" in data:
        diagnostics = _object(data["diagnostics"], {"c"}, "config", "diagnostics")
        if "c" in diagnostics:
            fields["variance_floor"] = _float(diagnostics["c"], "config", "diagnostics", "c")
    return RunConfig(**fields)


def load_run_config(path) -> RunConfig:
    return parse_run_config(_load_json(path))


@dataclass(frozen=True)
class SimConfig:
    """Typed simulation configuration; its values are checked by the
    layout, scenario and experiment built from it. ``params`` holds the
    ``Scenario`` arguments the file gives (``rho``, ``seed`` and those of its
    ``params`` block); ``Scenario`` holds their defaults."""

    scenario: str
    layout_kind: str
    n: int
    configs: tuple
    replicates: int
    layout_seed: int = 0
    alpha: float = 0.05
    params: dict = field(default_factory=dict)


def parse_sim_config(data: dict) -> SimConfig:
    where = "sim config"
    _object(
        data,
        {"scenario", "layout", "rho", "alpha", "configs", "replicates", "seed", "params"},
        where,
        required=("scenario", "layout", "configs", "replicates"),
    )
    layout = _object(data["layout"], {"kind", "n", "seed"}, where, "layout", required=("n",))
    params = _object(data.get("params", {}), {"count_mean", "count_dispersion", "spillover_max"}, where, "params")
    params = {key: _float(value, where, "params", key) for key, value in params.items()}
    for key, read in (("rho", _float), ("seed", _int)):
        if key in data:
            params[key] = read(data[key], where, key)
    fields = {"alpha": _float(data["alpha"], where, "alpha")} if "alpha" in data else {}
    if "seed" in layout:
        fields["layout_seed"] = _int(layout["seed"], where, "layout", "seed")
    return SimConfig(
        scenario=_choice(data["scenario"], SCENARIO_KINDS, where, "scenario"),
        layout_kind=_choice(layout.get("kind"), LAYOUT_KINDS, where, "layout", "kind"),
        n=_int(layout["n"], where, "layout", "n"),
        configs=_pairs(data["configs"], where, "configs"),
        replicates=_int(data["replicates"], where, "replicates"),
        params=params,
        **fields,
    )


def load_sim_config(path) -> SimConfig:
    return parse_sim_config(_load_json(path))


def monotone_report_dict(report: MonotoneCiReport) -> dict:
    data = dataclasses.asdict(check_instance(report, MonotoneCiReport, "report"))
    data["interval"] = [0.0, report.upper_bound]
    return data


def contrast_report_dict(report: ContrastReport) -> dict:
    data = dataclasses.asdict(check_instance(report, ContrastReport, "report"))
    if report.lambda_1 is None:  # the treatment split has no eigenvalue
        for key in ("lambda_1_certificate", "lambda_1_ritz", "lambda_1_steps"):
            del data[key]
    return data


def coverage_table_dict(table: CoverageTable) -> dict:
    return dataclasses.asdict(check_instance(table, CoverageTable, "table"))


def dump_json(payload) -> str:
    """Deterministic JSON rendering; floats round-trip exactly."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_csv(handle, header, rows) -> None:
    """CSV rendering, row by row, to an open text file: None is an empty cell and floats round-trip exactly."""
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def dump_csv(header, rows) -> str:
    """The ``write_csv`` rendering as a string."""
    buffer = StringIO()
    write_csv(buffer, header, rows)
    return buffer.getvalue()
