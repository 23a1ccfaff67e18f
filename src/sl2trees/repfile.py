"""Strict JSON representation files.

The on-disk shape is deliberately rigid: three top-level fields, group
descriptors by kind, matrix entries as exact rational strings.  Unknown
fields are rejected rather than ignored so that typos surface as errors
instead of silently changing the input.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Dict, List

from .classify import Representation
from .errors import DeterminantNotOneError, ValidationError
from .field import PrimeContext
from .matrices import SL2Matrix
from .words import Presentation, word_to_text

_RATIONAL_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")


def _require_keys(obj: Dict, required, optional=(), where: str = "object"):
    if not isinstance(obj, dict):
        raise ValidationError(f"{where} must be a JSON object")
    for key in obj:
        if key not in required and key not in optional:
            raise ValidationError(f"unknown field {key!r} in {where}")
    for key in required:
        if key not in obj:
            raise ValidationError(f"missing field {key!r} in {where}")


def _parse_rational(value, where: str) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise ValidationError(
            f"{where} must be an exact rational string, got {value!r}"
        )
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str) and _RATIONAL_RE.match(value):
        try:
            return Fraction(value)
        except ValueError:  # Python's 4300-digit limit on int strings
            raise ValidationError(
                f"{where} has a number of over 4300 digits") from None
    raise ValidationError(
        f"{where} must look like 'a' or 'a/b', got {value!r}"
    )


def _parse_group(data, given: int) -> Presentation:
    """The presentation a group descriptor names; given, the number of
    generator matrices in the file, bounds a surface genus before its
    2 * genus names are built."""
    _require_keys(data, ("kind",), ("rank", "genus", "generators", "relators"),
                  "group descriptor")
    kind = data.get("kind")
    if kind == "free":
        _require_keys(data, ("kind", "rank"), ("generators",), "free group")
        rank = data["rank"]
        if isinstance(rank, bool) or not isinstance(rank, int):
            raise ValidationError("free rank must be an integer")
        names = data.get("generators")
        if names is not None:
            if (
                not isinstance(names, list)
                or not all(isinstance(x, str) for x in names)
            ):
                raise ValidationError("free generators must be a list of names")
            return Presentation.free(rank, names)
        return Presentation.free(rank)
    if kind == "surface":
        _require_keys(data, ("kind", "genus"), (), "surface group")
        genus = data["genus"]
        if isinstance(genus, bool) or not isinstance(genus, int):
            raise ValidationError("surface genus must be an integer")
        if 2 * genus > given:
            raise ValidationError(f"surface genus {genus} needs 2 * genus "
                                  f"generator matrices, the file gives {given}")
        return Presentation.surface(genus)
    if kind == "explicit":
        _require_keys(
            data, ("kind", "generators", "relators"), (), "explicit group"
        )
        names = data["generators"]
        relators = data["relators"]
        if not isinstance(names, list) or not all(
            isinstance(x, str) for x in names
        ):
            raise ValidationError("explicit generators must be a list of names")
        if not isinstance(relators, list) or not all(
            isinstance(x, str) for x in relators
        ):
            raise ValidationError("explicit relators must be a list of words")
        return Presentation.explicit(names, relators)
    raise ValidationError(f"unknown group kind {kind!r}")


def _parse_matrix(value, name: str, context: PrimeContext) -> SL2Matrix:
    where = f"generator {name!r}"
    if (
        not isinstance(value, list)
        or len(value) != 2
        or any(not isinstance(row, list) or len(row) != 2 for row in value)
    ):
        raise ValidationError(f"{where} must be a 2x2 array")
    rows = tuple(
        tuple(
            _parse_rational(entry, f"{where} entry ({i},{j})")
            for j, entry in enumerate(row)
        )
        for i, row in enumerate(value)
    )
    try:
        return SL2Matrix(rows, context)
    except DeterminantNotOneError as exc:
        raise ValidationError(f"det({name}) is not 1: {exc}") from exc


def parse_representation(data) -> Representation:
    """Validate a decoded JSON document into a Representation."""
    _require_keys(data, ("prime", "group", "generators"), (), "representation")
    prime = data["prime"]
    if isinstance(prime, bool) or not isinstance(prime, int):
        raise ValidationError("prime must be an integer")
    context = PrimeContext(prime)
    gens = data["generators"]
    if not isinstance(gens, dict):
        raise ValidationError("generators must map names to matrices")
    presentation = _parse_group(data["group"], len(gens))
    expected = set(presentation.generators)
    given = set(gens)
    if given != expected:
        missing = sorted(expected - given)
        extra = sorted(given - expected)
        detail = []
        if missing:
            detail.append(f"missing {missing}")
        if extra:
            detail.append(f"unexpected {extra}")
        raise ValidationError("generator matrices " + ", ".join(detail))
    assignment = {
        name: _parse_matrix(gens[name], name, context)
        for name in presentation.generators
    }
    return Representation(presentation, assignment)


def load_representation(path: str) -> Representation:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        # also ints past the 4300-digit limit, and nesting past the stack
        except (ValueError, RecursionError) as exc:
            raise ValidationError(f"not valid JSON: {exc}") from exc
    return parse_representation(data)


def representation_to_data(rep: Representation) -> Dict:
    """Inverse of parse_representation, up to rational normalization."""
    presentation = rep.presentation
    if presentation.kind == "free":
        group = {
            "kind": "free",
            "rank": presentation.rank,
            "generators": list(presentation.generators),
        }
    elif presentation.kind == "surface":
        group = {"kind": "surface", "genus": presentation.genus}
    else:
        group = {
            "kind": "explicit",
            "generators": list(presentation.generators),
            "relators": [
                word_to_text(r, presentation) for r in presentation.relators
            ],
        }
    generators: Dict[str, List[List[str]]] = {}
    for name in presentation.generators:
        m = rep.matrix(name)
        generators[name] = [
            [str(m.a), str(m.b)],
            [str(m.c), str(m.d)],
        ]
    return {
        "prime": rep.context.p,
        "group": group,
        "generators": generators,
    }


def save_representation(rep: Representation, path: str):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(representation_to_data(rep), handle, indent=2)
        handle.write("\n")
