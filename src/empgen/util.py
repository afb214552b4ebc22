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


def read_jsonl(path: str | Path) -> list[dict]:
    """One record per non-blank line; a malformed line is refused by the
    file's path and its line number."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}, line {number}: {exc.msg} at column {exc.colno}") from exc
    return records


def write_jsonl(path: str | Path, records) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")
