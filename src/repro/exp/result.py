"""Structured experiment results (frozen, JSON-serializable).

Every experiment in the registry returns a :class:`Result` instead of
printing text.  A result carries:

* **tables** — presentation-ready rows (:class:`Table` of :class:`Row`),
  exactly what the CLI renders; cells are pre-formatted strings so serial
  and parallel runs emit byte-identical output.
* **series** — ``(x, y)`` curves (:class:`Series`) for the line plots.
* **scalars** — the raw machine-facing numbers the paper claims are
  asserted on (``tests/test_paper_claims.py``).
* **paper** — the paper's expected values for those scalars, attached so
  any consumer can compute measured-vs-paper deltas without re-reading
  the paper.
* **notes** — free-form trailing lines (headline sentences).

Everything is an immutable dataclass over JSON scalars; mappings are
stored as sorted ``(key, value)`` pair tuples so instances are genuinely
frozen and hashable, and the canonical JSON encoding is deterministic:
``Result.from_dict(result.to_dict())`` round-trips exactly and
``to_json`` output is byte-stable for equal results.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Optional, Union

from repro.errors import ConfigError

#: Version tag embedded in every serialized result.
SCHEMA = "repro-result/1"

#: The JSON-scalar leaves every result document is built from.
Scalar = Union[str, int, float, bool, None]

#: Frozen-mapping encoding: sorted ``(key, value)`` pairs.
Pairs = tuple[tuple[str, Scalar], ...]

_SCALAR_TYPES = (str, int, float, bool, type(None))


def _check_scalar(value: Any, where: str) -> Scalar:
    if not isinstance(value, _SCALAR_TYPES):
        raise ConfigError(
            f"{where} must be a JSON scalar, got {type(value).__name__}"
        )
    return value


def freeze_mapping(
    mapping: Union[Mapping[str, Any], Pairs, None],
    where: str = "mapping",
) -> Pairs:
    """``dict`` -> sorted ``((key, value), ...)`` pair tuple."""
    if mapping is None:
        return ()
    if isinstance(mapping, tuple):
        mapping = dict(mapping)
    items = []
    for key in sorted(mapping):
        items.append((str(key), _check_scalar(mapping[key],
                                              f"{where}[{key!r}]")))
    return tuple(items)


@dataclass(frozen=True)
class Row:
    """One table row: a label, formatted cells, and the paper's value.

    ``paper`` holds the paper-reported rendering for this row ("" when
    the paper gives none); tables grow a trailing ``Paper`` column when
    any row carries one.
    """

    label: str
    values: tuple[Scalar, ...] = ()
    paper: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(
            _check_scalar(v, f"row {self.label!r} cell") for v in self.values
        ))

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {"label": self.label,
                               "values": list(self.values)}
        if self.paper:
            doc["paper"] = self.paper
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> Row:
        return cls(label=doc["label"], values=tuple(doc["values"]),
                   paper=doc.get("paper", ""))


@dataclass(frozen=True)
class Table:
    """One rendered table (or bar group, per ``kind``)."""

    title: str
    columns: tuple[str, ...]
    rows: tuple[Row, ...] = ()
    kind: str = "table"        # "table" | "bars" (render hint)
    unit: str = ""             # bar-chart unit suffix

    def __post_init__(self) -> None:
        if self.kind not in ("table", "bars"):
            raise ConfigError(f"unknown table kind {self.kind!r}")
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "rows", tuple(self.rows))

    def to_dict(self) -> dict[str, Any]:
        return {
            "title": self.title,
            "columns": list(self.columns),
            "rows": [row.to_dict() for row in self.rows],
            "kind": self.kind,
            "unit": self.unit,
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> Table:
        return cls(
            title=doc["title"],
            columns=tuple(doc["columns"]),
            rows=tuple(Row.from_dict(r) for r in doc["rows"]),
            kind=doc.get("kind", "table"),
            unit=doc.get("unit", ""),
        )


@dataclass(frozen=True)
class Series:
    """One named ``(x, y)`` curve (Fig. 8's p99-vs-load lines)."""

    name: str
    points: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(
            (float(x), float(y)) for x, y in self.points
        ))

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name,
                "points": [[x, y] for x, y in self.points]}

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> Series:
        return cls(name=doc["name"],
                   points=tuple((x, y) for x, y in doc["points"]))


@dataclass(frozen=True)
class Result:
    """Complete outcome of one experiment run."""

    experiment: str
    params: Pairs = ()
    tables: tuple[Table, ...] = ()
    series: tuple[Series, ...] = ()
    scalars: Pairs = ()
    paper: Pairs = ()
    notes: tuple[str, ...] = ()
    meta: Pairs = ()           # render hints (plot title, y ceiling, ...)

    @classmethod
    def create(cls, experiment: str,
               params: Optional[Mapping[str, Any]] = None,
               tables: Iterable[Table] = (),
               series: Iterable[Series] = (),
               scalars: Optional[Mapping[str, Any]] = None,
               paper: Optional[Mapping[str, Any]] = None,
               notes: Iterable[str] = (),
               meta: Optional[Mapping[str, Any]] = None) -> Result:
        """Build a result from plain dicts/lists (the authoring API)."""
        return cls(
            experiment=experiment,
            params=freeze_mapping(params, "params"),
            tables=tuple(tables),
            series=tuple(series),
            scalars=freeze_mapping(scalars, "scalars"),
            paper=freeze_mapping(paper, "paper"),
            notes=tuple(notes),
            meta=freeze_mapping(meta, "meta"),
        )

    # -- mapping views ---------------------------------------------------

    @property
    def params_dict(self) -> dict[str, Scalar]:
        return dict(self.params)

    @property
    def scalars_dict(self) -> dict[str, Scalar]:
        return dict(self.scalars)

    @property
    def meta_dict(self) -> dict[str, Scalar]:
        return dict(self.meta)

    def scalar(self, key: str) -> Scalar:
        """One measured number, by name (raises ``KeyError`` if absent)."""
        return dict(self.scalars)[key]

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": SCHEMA,
            "experiment": self.experiment,
            "params": dict(self.params),
            "tables": [t.to_dict() for t in self.tables],
            "series": [s.to_dict() for s in self.series],
            "scalars": dict(self.scalars),
            "paper": dict(self.paper),
            "notes": list(self.notes),
            "meta": dict(self.meta),
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> Result:
        if doc.get("schema") != SCHEMA:
            raise ConfigError(
                f"unsupported result schema {doc.get('schema')!r}"
            )
        return cls.create(
            experiment=doc["experiment"],
            params=doc.get("params"),
            tables=[Table.from_dict(t) for t in doc.get("tables", [])],
            series=[Series.from_dict(s) for s in doc.get("series", [])],
            scalars=doc.get("scalars"),
            paper=doc.get("paper"),
            notes=tuple(doc.get("notes", [])),
            meta=doc.get("meta"),
        )

    def to_json(self) -> str:
        """Canonical encoding: sorted keys, 2-space indent, newline."""
        return canonical_json(self.to_dict())

    @classmethod
    def from_json(cls, text: Union[str, bytes]) -> Result:
        return cls.from_dict(json.loads(text))


def canonical_json(doc: Any) -> str:
    """The one JSON encoding used everywhere byte-identity matters."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
