"""Checked-in JSON schemas for the exported artifacts + a mini validator.

The trace (Chrome ``trace_event``), span-JSONL and metrics-snapshot
formats are contracts: tests and the CI smoke job validate every emitted
file against the schemas under ``repro/obs/schemas/``.  The validator
implements the JSON-Schema subset those schemas use (``type``,
``required``, ``properties``, ``items``, ``enum``, ``minimum``,
``maximum``, ``additionalProperties``) so validation needs no
third-party dependency.

Command line::

    python -m repro.obs.schema trace trace.json [more.json ...]
    python -m repro.obs.schema metrics metrics.json
    python -m repro.obs.schema spans spans.jsonl
    python -m repro.obs.schema ledger ledger.jsonl
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict, List, Optional

SCHEMA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "schemas")

#: Schema name → (file, jsonl?) — jsonl formats validate per line.
FORMATS = {
    "trace": ("trace_event.schema.json", False),
    "spans": ("span.schema.json", True),
    "metrics": ("metrics.schema.json", False),
    "ledger": ("ledger.schema.json", True),
}

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "null": type(None),
}


def load_schema(name: str) -> Dict[str, Any]:
    """Load one of the checked-in schemas by format name."""
    filename, _ = FORMATS[name]
    with open(os.path.join(SCHEMA_DIR, filename), encoding="utf-8") as f:
        return json.load(f)


def _type_ok(value: Any, expected: str) -> bool:
    if expected == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if expected == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, _TYPES[expected])


def validate(instance: Any, schema: Dict[str, Any],
             path: str = "$") -> List[str]:
    """Validate ``instance`` against the schema subset; returns errors."""
    errors: List[str] = []
    expected = schema.get("type")
    if expected is not None:
        options = expected if isinstance(expected, list) else [expected]
        if not any(_type_ok(instance, t) for t in options):
            errors.append("%s: expected type %s, got %s"
                          % (path, "/".join(options),
                             type(instance).__name__))
            return errors  # structural mismatch: nothing below applies
    if "enum" in schema and instance not in schema["enum"]:
        errors.append("%s: %r not in enum %r"
                      % (path, instance, schema["enum"]))
    if isinstance(instance, (int, float)) and not isinstance(instance, bool):
        if "minimum" in schema and instance < schema["minimum"]:
            errors.append("%s: %r < minimum %r"
                          % (path, instance, schema["minimum"]))
        if "maximum" in schema and instance > schema["maximum"]:
            errors.append("%s: %r > maximum %r"
                          % (path, instance, schema["maximum"]))
    if isinstance(instance, dict):
        for name in schema.get("required", ()):
            if name not in instance:
                errors.append("%s: missing required property %r"
                              % (path, name))
        properties = schema.get("properties", {})
        for name, value in instance.items():
            sub = properties.get(name)
            if sub is not None:
                errors.extend(validate(value, sub, "%s.%s" % (path, name)))
            elif schema.get("additionalProperties") is False:
                errors.append("%s: unexpected property %r" % (path, name))
    if isinstance(instance, list) and "items" in schema:
        for i, item in enumerate(instance):
            errors.extend(
                validate(item, schema["items"], "%s[%d]" % (path, i))
            )
    return errors


def validate_file(kind: str, path: str) -> List[str]:
    """Validate one emitted file against the named format's schema."""
    schema = load_schema(kind)
    _, jsonl = FORMATS[kind]
    errors: List[str] = []
    with open(path, encoding="utf-8") as handle:
        if jsonl:
            for lineno, line in enumerate(handle, 1):
                if not line.strip():
                    continue
                try:
                    instance = json.loads(line)
                except ValueError as exc:
                    errors.append("line %d: not JSON (%s)" % (lineno, exc))
                    continue
                errors.extend(
                    "line %d: %s" % (lineno, e)
                    for e in validate(instance, schema)
                )
        else:
            try:
                instance = json.load(handle)
            except ValueError as exc:
                return ["not JSON (%s)" % exc]
            errors = validate(instance, schema)
    return errors


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.schema",
        description="validate emitted trace/metrics files against the "
        "checked-in schemas",
    )
    parser.add_argument("kind", choices=sorted(FORMATS))
    parser.add_argument("files", nargs="+", metavar="FILE")
    args = parser.parse_args(argv)
    failed = 0
    for path in args.files:
        errors = validate_file(args.kind, path)
        if errors:
            failed += 1
            print("%s: INVALID (%d error(s))" % (path, len(errors)))
            for error in errors[:20]:
                print("  " + error)
        else:
            print("%s: ok (%s schema)" % (path, args.kind))
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI smoke
    sys.exit(main())
