"""Shared small helpers: canonical JSON, hashing, asset IO, and the one
reader of JSON and JSONL files and the one writer of output files."""

from __future__ import annotations

import datetime
import functools
import hashlib
import json
import os
from pathlib import Path
from typing import BinaryIO, Callable

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


def read_json(path: str | Path, what: str, error: type[ValueError] = ValueError) -> dict:
    """The JSON object in the file at ``path``. A file that is not UTF-8,
    not JSON or not an object is refused with ``error``, naming ``what``
    and the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except ValueError as exc:  # bad UTF-8 or bad JSON
        raise error(f"{what} {path}: {exc}") from exc
    return require_fields(data, f"{what} {path}", error)


def read_jsonl(path: str | Path, error: type[ValueError] = ValueError, **fields: type) -> list[tuple[str, dict]]:
    """Each non-blank line's record, holding ``fields`` (``require_fields``),
    with its place "<path>, line <n>", by which ``error`` refuses a bad
    line, or one that is not UTF-8."""
    records = []
    with open(path, "rb") as fh:
        for number, raw in enumerate(fh, 1):
            where = f"{path}, line {number}"
            try:
                line = raw.decode("utf-8")
                if line.strip():
                    records.append((where, require_fields(json.loads(line), where, error, **fields)))
            except UnicodeDecodeError as exc:
                raise error(f"{where}: not UTF-8 text ({exc.reason} at byte {exc.start + 1})") from exc
            except json.JSONDecodeError as exc:
                raise error(f"{where}: {exc.msg} at column {exc.colno}") from exc
    return records


def write_file(path: str | Path, content: str | Callable[[BinaryIO], object]) -> None:
    """Write ``content``, text as UTF-8 or a function that writes to a binary
    file, beside ``path`` and rename it onto ``path``: an interrupted write
    leaves the previous file, or none, and no partial one."""
    write = content if callable(content) else lambda fh: fh.write(content.encode("utf-8"))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            write(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_jsonl(path: str | Path, records) -> None:
    write_file(path, "".join(json.dumps(rec, ensure_ascii=False) + "\n" for rec in records))
