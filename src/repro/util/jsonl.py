"""Append-only JSONL files: a header line, then one record per line.

The durability model behind the run history
(:class:`repro.obs.history.RunHistory`), the repo's one append-only
JSONL store:

* a fresh file starts with a header line that pins the caller's format
  version;
* every record is one line, flushed as soon as it is written, so
  anything short of the host dying leaves a loadable prefix;
* before appending to a file whose last line was torn by a kill
  mid-write, that line is terminated, so new records never splice into
  the malformed JSON;
* the reader skips malformed lines with a warning, hands the header to
  the caller's check (which raises on a version it does not speak), and
  yields the records of the kinds the caller asked for.

The caller serializes its own lines, so its format keeps its exact
bytes.
"""

from __future__ import annotations

import json
import logging
import os
from pathlib import Path
from typing import Callable, Iterator, TextIO

_log = logging.getLogger("repro.util.jsonl")


def open_append(path: Path, header: str) -> TextIO:
    """Open *path* for appending the next record line.

    Creates missing parent directories, writes *header* (one line of
    JSON, no newline) to a new or empty file, and terminates a torn
    final line of an existing one.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    size = path.stat().st_size if path.exists() else 0
    torn_tail = False
    if size:
        with open(path, "rb") as fh:
            fh.seek(-1, os.SEEK_END)
            torn_tail = fh.read(1) != b"\n"
    fh = open(path, "a", encoding="utf-8")
    if torn_tail:
        fh.write("\n")
    elif not size:
        write_line(fh, header)
    return fh


def write_line(fh: TextIO, text: str) -> None:
    """Append one record line and flush it."""
    fh.write(text + "\n")
    fh.flush()


def read_records(
    path: Path,
    what: str,
    check_header: Callable[[dict], None],
    kinds: tuple[str, ...],
) -> Iterator[tuple[int, dict]]:
    """``(line number, record)`` for every well-formed record of *kinds*.

    *what* names the store in warnings.  Header lines go to
    *check_header*; malformed lines and unknown kinds are skipped with a
    warning.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except ValueError:
                _log.warning(
                    "%s %s: skipping malformed line %d "
                    "(torn write from an interrupted run?)",
                    what,
                    path,
                    lineno,
                )
                continue
            kind = rec.get("kind")
            if kind == "header":
                check_header(rec)
            elif kind in kinds:
                yield lineno, rec
            else:
                _log.warning(
                    "%s %s: skipping unknown record kind %r on line %d",
                    what,
                    path,
                    kind,
                    lineno,
                )
