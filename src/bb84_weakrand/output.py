"""Deterministic machine-readable output: canonical JSON, CSV, manifests.

Floats are always printed with 9 significant digits so that emitted
text is identical across platforms and survives a parse/re-serialize
round trip byte for byte.  JSON keys are sorted lexicographically.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass
from datetime import datetime, timezone

from .errors import ValidationError

FLOAT_SIG_DIGITS = 9
# Run seeds are unsigned 64-bit integers, as the manifest records them and
# the simulator's generator takes them.
MAX_SEED = 2**64 - 1


def format_float(value: float) -> str:
    """Fixed 9-significant-digit decimal form, always marked as a float."""
    if math.isnan(value) or math.isinf(value):
        raise ValidationError(f"non-finite value {value!r} cannot be serialized")
    if value == 0.0:
        value = 0.0  # collapse -0.0
    text = format(float(value), f".{FLOAT_SIG_DIGITS}g")
    if "." not in text and "e" not in text and "E" not in text:
        text += ".0"
    return text


def _serialize(value, indent: int) -> str:
    pad = "  " * indent
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, numbers.Integral):
        return str(int(value))
    if isinstance(value, numbers.Real):
        return format_float(float(value))
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=False)
    if isinstance(value, dict):
        if not value:
            return "{}"
        lines = [
            f"{pad}  {json.dumps(str(key), ensure_ascii=False)}: "
            f"{_serialize(item, indent + 1)}"
            for key, item in sorted(value.items(), key=lambda kv: str(kv[0]))
        ]
        return "{\n" + ",\n".join(lines) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        lines = [f"{pad}  {_serialize(item, indent + 1)}" for item in value]
        return "[\n" + ",\n".join(lines) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(value).__name__} deterministically")


def canonical_json(value) -> str:
    """Canonical JSON text: sorted keys, 9-digit floats, no trailing whitespace."""
    return _serialize(value, 0)


def checksum_of(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def csv_field(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, numbers.Integral):
        return str(int(value))
    if isinstance(value, numbers.Real):
        return format_float(float(value))
    text = str(value)
    if any(c in text for c in ',"\n\r'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def csv_text(header: list[str], rows: list[list]) -> str:
    """RFC-4180-style CSV with a mandatory header row and LF line endings."""
    lines = [",".join(csv_field(h) for h in header)]
    lines.extend(",".join(csv_field(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def flatten(value, prefix: str = "") -> list[tuple[str, object]]:
    """Depth-first (key path, scalar) pairs of a nested JSON-like value."""
    if isinstance(value, dict):
        items: list[tuple[str, object]] = []
        for key in sorted(value, key=str):
            path = f"{prefix}.{key}" if prefix else str(key)
            items.extend(flatten(value[key], path))
        return items
    if isinstance(value, (list, tuple)):
        items = []
        for i, element in enumerate(value):
            items.extend(flatten(element, f"{prefix}[{i}]"))
        return items
    return [(prefix, value)]


@dataclass(frozen=True)
class RunManifest:
    """Provenance of one command invocation.

    The checksum covers the canonical result payload only, so re-running
    the same manifest must reproduce it byte for byte; the timestamp is
    informational and deliberately excluded.
    """

    command: str
    params: dict
    version: str
    seed: int | None
    timestamp: str
    checksum: str

    @classmethod
    def build(
        cls, command: str, params: dict, version: str, seed: int | None, payload: str
    ) -> "RunManifest":
        return cls(
            command=command,
            params=params,
            version=version,
            seed=seed,
            timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
            checksum=checksum_of(payload),
        )

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "params": dict(self.params),
            "version": self.version,
            "seed": self.seed,
            "timestamp": self.timestamp,
            "checksum": self.checksum,
        }
