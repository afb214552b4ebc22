"""Shared small helpers: canonical JSON, hashing, JSONL and asset IO."""

from __future__ import annotations

import datetime
import functools
import hashlib
import json
from pathlib import Path

ASSETS_DIR = Path(__file__).parent / "assets"


def canonical_json(obj) -> str:
    """Stable serialization used for hashing configs and fixtures."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def sha256_hex(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def now_iso() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


@functools.cache
def read_asset(name: str) -> str:
    """The text of a packaged asset, read once per process. Callers parse
    their own copy, so an edit to one result never reaches the next."""
    return (ASSETS_DIR / name).read_text(encoding="utf-8")


def require_fields(rec, where: str, error: type[ValueError] = ValueError, **fields: type) -> dict:
    """``rec``, if it is a JSON object that holds each of ``fields``, names
    mapped to their types; otherwise ``error`` names ``where`` and why."""
    if not isinstance(rec, dict):
        raise error(f"{where}: not a JSON object")
    for name, kind in fields.items():
        if not isinstance(rec.get(name), kind):
            raise error(f"{where}: field {name!r} is missing or not a {kind.__name__}")
    return rec


def read_jsonl(path: str | Path, **fields: type) -> list[tuple[str, dict]]:
    """Each non-blank line's record, holding ``fields`` (``require_fields``),
    with its place "<path>, line <n>", by which a bad line, or one that is
    not UTF-8, is refused."""
    records = []
    with open(path, "rb") as fh:
        for number, raw in enumerate(fh, 1):
            where = f"{path}, line {number}"
            try:
                line = raw.decode("utf-8")
                if line.strip():
                    records.append((where, require_fields(json.loads(line), where, **fields)))
            except UnicodeDecodeError as exc:
                raise ValueError(f"{where}: not UTF-8 text ({exc.reason} at byte {exc.start + 1})") from exc
            except json.JSONDecodeError as exc:
                raise ValueError(f"{where}: {exc.msg} at column {exc.colno}") from exc
    return records


def write_jsonl(path: str | Path, records) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")
