"""Triplet vocabulary: class ids, names, and component projections.

An action triplet is an ``(instrument, verb, target)`` combination. Only a
curated subset of the full cross product is clinically valid; each valid
combination gets a dense ``triplet_id``. The schema maps triplet ids to
their component ids and supports projecting a triplet onto any of the six
component spaces used for evaluation: ``i``, ``v``, ``t``, ``iv``, ``it``
and ``ivt``. Within each component the realized classes also get a dense
class index, assigned in sorted key order, which the evaluation's match
table is keyed by.
"""

from __future__ import annotations

import csv
from importlib import resources
from pathlib import Path
from typing import Union

from .errors import SchemaError

COMPONENTS = ("i", "v", "t", "iv", "it", "ivt")

# A component key is either a single class id (i, v, t, ivt) or a pair
# (iv, it). Pairs stay as tuples so they never collide with plain ids.
ComponentKey = Union[int, tuple[int, int]]

MAX_CLASSES = 1 << 16  # per axis: schema tables hold an entry per class id

_HEADER = [
    "triplet_id",
    "instrument_id",
    "verb_id",
    "target_id",
    "instrument_name",
    "verb_name",
    "target_name",
]


class TripletSchema:
    """Immutable triplet vocabulary.

    ``triplets`` maps triplet_id -> (instrument_id, verb_id, target_id).
    Name maps may contain placeholder entries for ids that never occur in
    the triplet table but are still part of the declared class count.
    ``class_keys[component]`` lists the component keys reachable from the
    triplet table in sorted order; a key's position is its class index,
    and ``class_index[component]`` maps each triplet id of the table, and
    no other id, to it. Schemas compare by their eight given fields.
    """

    _FIELDS = ("n_triplets", "n_instruments", "n_verbs", "n_targets",
               "triplets", "instrument_names", "verb_names", "target_names")
    # class_keys and class_index derive from triplets; each class_index map
    # holds exactly the table's triplet ids
    __slots__ = (*_FIELDS, "class_keys", "class_index")

    def __init__(
        self, n_triplets: int, n_instruments: int, n_verbs: int, n_targets: int,
        triplets: dict[int, tuple[int, int, int]], instrument_names: dict[int, str],
        verb_names: dict[int, str], target_names: dict[int, str],
    ) -> None:
        given = (n_triplets, n_instruments, n_verbs, n_targets,
                 triplets, instrument_names, verb_names, target_names)
        for name, value in zip(self._FIELDS, given):
            object.__setattr__(self, name, value)
        # each triplet's key in every component, in COMPONENTS order
        projected = {tid: (i, v, t, (i, v), (i, t), tid)
                     for tid, (i, v, t) in triplets.items()}
        keys, index = {}, {}
        for n, comp in enumerate(COMPONENTS):
            keys[comp] = tuple(sorted({key[n] for key in projected.values()}))
            rank = {key: k for k, key in enumerate(keys[comp])}
            index[comp] = {tid: rank[key[n]] for tid, key in projected.items()}
        object.__setattr__(self, "class_keys", keys)
        object.__setattr__(self, "class_index", index)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, f) for f in self._FIELDS)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._FIELDS)

    def project(self, triplet_id: int, component: str) -> ComponentKey:
        """Project a triplet id onto one component space."""
        if component not in COMPONENTS:
            raise SchemaError(f"unknown component {component!r}")
        try:
            return self.class_keys[component][self.class_index[component][triplet_id]]
        except KeyError:
            raise SchemaError(f"unknown triplet_id {triplet_id}") from None

    def triplet_name(self, triplet_id: int) -> str:
        i, v, t = self.triplets[triplet_id]
        return ",".join(
            (self.instrument_names[i], self.verb_names[v], self.target_names[t])
        )


def parse_int(text: str) -> int:
    """``int(text)``, but only for an optional sign and ASCII digits amid whitespace."""
    digits = text.strip().lstrip("+-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a plain integer: {text!r}")
    return int(text)


def _parse_header_overrides(lines: list[str], source: str) -> dict[str, int]:
    """Comment lines of the form ``# key=value`` override class counts.
    ``lines`` are the file's first lines; errors name ``source`` and the line."""
    overrides: dict[str, int] = {}
    for lineno, line in enumerate(lines, start=1):
        body = line.lstrip("#").strip()
        if not body or "=" not in body:
            continue
        key, _, value = body.partition("=")
        key = key.strip()
        if key not in ("triplets", "instruments", "verbs", "targets"):
            raise SchemaError(f"{source}:{lineno}: unknown schema header key {key!r}")
        try:
            overrides[key] = parse_int(value)
        except ValueError:
            raise SchemaError(
                f"{source}:{lineno}: schema header {key}={value.strip()!r} is not an integer"
            ) from None
    return overrides


def load_schema(path: str | Path | None = None) -> TripletSchema:
    """Load a triplet vocabulary from CSV.

    With no path the packaged default vocabulary is used (100 triplets over
    6 instruments, 10 verbs and 15 targets). Leading ``#`` comment lines may
    override the declared class counts, which small test vocabularies use.
    """
    if path is None:
        ref = resources.files("tripletseg").joinpath("data/triplet_schema.csv")
        text = ref.read_text(encoding="utf-8")
        source = "packaged triplet_schema.csv"
    else:
        path = Path(path)
        try:  # an OSError is an i/o error, left to the caller
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise SchemaError(f"cannot read schema file {path}: {exc}") from exc
        source = str(path)
    if text.startswith("\ufeff"):
        raise SchemaError(f"{source}: starts with a UTF-8 byte order mark")

    lines = text.splitlines()
    comment_lines = []
    while lines and lines[0].startswith("#"):
        comment_lines.append(lines.pop(0))
    overrides = _parse_header_overrides(comment_lines, source)

    try:
        rows = list(csv.reader(lines))
    except csv.Error as exc:  # e.g. a field over csv's size limit
        raise SchemaError(f"{source}: {exc}") from exc
    if not rows:
        raise SchemaError(f"{source}: empty schema file")
    if [h.strip() for h in rows[0]] != _HEADER:
        raise SchemaError(
            f"{source}: bad header, expected {','.join(_HEADER)}"
        )

    triplets: dict[int, tuple[int, int, int]] = {}
    instrument_names: dict[int, str] = {}
    verb_names: dict[int, str] = {}
    target_names: dict[int, str] = {}
    seen_combos: set[tuple[int, int, int]] = set()

    for lineno, row in enumerate(rows[1:], start=len(comment_lines) + 2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 7:
            raise SchemaError(f"{source}:{lineno}: expected 7 fields, got {len(row)}")
        try:
            tid, i, v, t = (parse_int(row[k]) for k in range(4))
        except ValueError:
            raise SchemaError(f"{source}:{lineno}: non-integer id field") from None
        i_name, v_name, t_name = (row[k].strip() for k in range(4, 7))
        if min(tid, i, v, t) < 0:
            raise SchemaError(f"{source}:{lineno}: negative id")
        if tid in triplets:
            raise SchemaError(f"{source}:{lineno}: duplicate triplet_id {tid}")
        combo = (i, v, t)
        if combo in seen_combos:
            raise SchemaError(f"{source}:{lineno}: duplicate combination {combo}")
        seen_combos.add(combo)
        triplets[tid] = combo
        for names, cid, name, label in (
            (instrument_names, i, i_name, "instrument"),
            (verb_names, v, v_name, "verb"),
            (target_names, t, t_name, "target"),
        ):
            if not name:
                raise SchemaError(f"{source}:{lineno}: empty {label} name")
            if cid in names and names[cid] != name:
                raise SchemaError(
                    f"{source}:{lineno}: {label} id {cid} renamed "
                    f"{names[cid]!r} -> {name!r}"
                )
            names[cid] = name

    if not triplets:
        raise SchemaError(f"{source}: no triplet rows")

    n_triplets = overrides.get("triplets", max(triplets) + 1)
    n_instruments = overrides.get("instruments", max(instrument_names) + 1)
    n_verbs = overrides.get("verbs", max(verb_names) + 1)
    n_targets = overrides.get("targets", max(target_names) + 1)

    for count, ids, label in (
        (n_triplets, triplets, "triplet"),
        (n_instruments, instrument_names, "instrument"),
        (n_verbs, verb_names, "verb"),
        (n_targets, target_names, "target"),
    ):
        if max(ids) >= count:
            raise SchemaError(
                f"{source}: {label} id {max(ids)} outside declared range [0, {count})"
            )
        if count > MAX_CLASSES:
            raise SchemaError(f"{source}: {count} {label} classes exceed {MAX_CLASSES}")
        if ids is not triplets:  # placeholder names, so every class id prints
            for cid in range(count):
                ids.setdefault(cid, f"{label}_{cid}")

    return TripletSchema(
        n_triplets=n_triplets,
        n_instruments=n_instruments,
        n_verbs=n_verbs,
        n_targets=n_targets,
        triplets=triplets,
        instrument_names=instrument_names,
        verb_names=verb_names,
        target_names=target_names,
    )
