"""Packet-lifecycle event tracer with bounded memory and two exporters.

The instrumented network (:mod:`repro.net.instrumented`) emits one event
row per packet-lifecycle transition:

========== ===================================================== =========
kind       meaning                                               fields
========== ===================================================== =========
``inject`` a packet left a node's CPU into an injection FIFO     node, pid
``link``   a link transmission (occupancy interval)              node, dir, dur, pid
``queue``  a packet enqueued behind others in a VC buffer        node, dir, depth, pid
``deliver``a packet drained by the destination CPU               node, pid, src, t0 (inject time), phase, final
``drop``   a lossy link ate a packet (fault runs)                node, dir, pid
``retx``   the reliability layer re-sent a timed-out packet      node, seq, attempt
``reroute``a hop forced off the minimal torus path by faults     node, dir, pid
========== ===================================================== =========

Rows live in a ring buffer (``deque(maxlen=capacity)``): a trace never
grows without bound, and when it overflows it keeps the *latest* events —
the end of a collective is where stragglers and throttle windows show up.
``sample`` keeps every packet whose id is ``0 (mod sample)``; sampling by
packet id (assigned deterministically at injection) means the same packets
are kept on every run, so traces are bit-identical across job counts.

Two exporters:

* :func:`write_jsonl` — one JSON object per line, sorted by (time, seq);
  greppable, diffable, and the format of the committed golden trace.
* :func:`write_chrome_trace` — Chrome trace-event JSON loadable in
  Perfetto (https://ui.perfetto.dev): each node is a "process", each link
  direction a "thread", link occupancy intervals render as duration
  slices and the other lifecycle events as instants.  Timestamps are
  simulated cycles, displayed as if microseconds.
"""

from __future__ import annotations

import json
from collections import deque
from typing import IO, Iterable, Optional, Union

#: Direction labels for 1-3 dimensions (matches repro.net.topology).
_DIR_NAMES = ("+X", "-X", "+Y", "-Y", "+Z", "-Z")

#: Default ring-buffer capacity (events).
DEFAULT_CAPACITY = 500_000

#: Event kinds a tracer can record, in export order.
EVENT_KINDS = (
    "inject", "link", "queue", "deliver", "drop", "retx", "reroute",
)

#: Per-kind field names following (t, kind).
_FIELDS = {
    "inject": ("node", "pid"),
    "link": ("node", "dir", "dur", "pid"),
    "queue": ("node", "dir", "depth", "pid"),
    "deliver": ("node", "pid", "src", "t0", "phase", "final"),
    "drop": ("node", "dir", "pid"),
    "retx": ("node", "seq", "attempt"),
    "reroute": ("node", "dir", "pid"),
}


class Tracer:
    """Bounded, sampled recorder of simulation lifecycle events.

    The instrumented network calls :meth:`want` (sampling gate) and
    :meth:`emit`; everything else is export-side.
    """

    __slots__ = ("capacity", "sample", "events", "total", "_seq")

    def __init__(
        self, capacity: int = DEFAULT_CAPACITY, sample: int = 1
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if sample < 1:
            raise ValueError("sample must be >= 1")
        self.capacity = capacity
        self.sample = sample
        #: Ring of (t, seq, kind, *fields) rows; seq makes sort stable.
        self.events: deque[tuple] = deque(maxlen=capacity)
        #: Events emitted (recorded + overwritten); ``total - len(events)``
        #: is how many the ring dropped.
        self.total = 0
        self._seq = 0

    # -------------------------------------------------------------- #
    # recording (hot on traced runs only)
    # -------------------------------------------------------------- #

    def want(self, pid: int) -> bool:
        """Whether the packet with id *pid* is in the sample."""
        return pid % self.sample == 0

    def emit(self, t: float, kind: str, *fields) -> None:
        self._seq += 1
        self.total += 1
        self.events.append((t, self._seq, kind) + fields)

    # -------------------------------------------------------------- #
    # export
    # -------------------------------------------------------------- #

    @property
    def dropped(self) -> int:
        """Events the ring buffer overwrote."""
        return self.total - len(self.events)

    def event_counts(self) -> dict[str, int]:
        """Recorded (retained) events per kind."""
        counts: dict[str, int] = {}
        for row in self.events:
            k = row[2]
            counts[k] = counts.get(k, 0) + 1
        return counts

    def rows(self) -> list[tuple]:
        """Retained rows sorted by (time, emission order)."""
        return sorted(self.events)

    def to_payload(self) -> dict:
        """JSON-native snapshot (rides the runner codec across workers)."""
        return {
            "total": self.total,
            "dropped": self.dropped,
            "sample": self.sample,
            "capacity": self.capacity,
            "counts": {k: v for k, v in sorted(self.event_counts().items())},
            "events": [list(r) for r in self.rows()],
        }


def _named_rows(payload: dict) -> Iterable[dict]:
    """Rows of a tracer payload as name->value dicts (JSONL records)."""
    for row in payload["events"]:
        t, _seq, kind = row[0], row[1], row[2]
        rec = {"t": t, "kind": kind}
        for name, value in zip(_FIELDS[kind], row[3:]):
            rec[name] = value
        yield rec


def write_jsonl(
    payload: dict, dest: Union[str, IO[str]], point: Optional[str] = None
) -> int:
    """Write a tracer payload as JSON Lines; returns rows written.

    *dest* is a path or an open text file (multi-point traces append to
    one handle).  *point* adds a ``point`` label field to every row.
    """
    close = False
    if isinstance(dest, str):
        fh = open(dest, "w", encoding="utf-8")
        close = True
    else:
        fh = dest
    n = 0
    try:
        for rec in _named_rows(payload):
            if point is not None:
                rec["point"] = point
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
            n += 1
    finally:
        if close:
            fh.close()
    return n


def _dir_name(d: int) -> str:
    return _DIR_NAMES[d] if 0 <= d < len(_DIR_NAMES) else f"dir{d}"


def chrome_events(
    payload: dict, pid_base: int = 0, label: str = ""
) -> Iterable[dict]:
    """Chrome trace-event records for one tracer payload.

    ``pid_base`` offsets the Perfetto process ids so several points can
    share one trace file without their tracks colliding; ``label``
    prefixes the process names.
    """
    seen_pids: set[tuple[int, int]] = set()
    prefix = f"{label}:" if label else ""
    for row in payload["events"]:
        t, _seq, kind = row[0], row[1], row[2]
        fields = dict(zip(_FIELDS[kind], row[3:]))
        node = fields.get("node", 0)
        cpid = pid_base + node
        # Link events get their own thread per direction; lifecycle
        # instants share thread 0 ("cpu").
        tid = fields["dir"] + 1 if "dir" in fields else 0
        if (cpid, tid) not in seen_pids:
            if not any(p == cpid for p, _ in seen_pids):
                yield {
                    "ph": "M", "name": "process_name", "pid": cpid,
                    "args": {"name": f"{prefix}node {node}"},
                }
            seen_pids.add((cpid, tid))
            tname = "cpu" if tid == 0 else f"link {_dir_name(tid - 1)}"
            yield {
                "ph": "M", "name": "thread_name", "pid": cpid, "tid": tid,
                "args": {"name": tname},
            }
        if kind == "link":
            yield {
                "ph": "X", "name": f"pkt {fields['pid']}", "cat": "link",
                "pid": cpid, "tid": tid, "ts": t, "dur": fields["dur"],
                "args": {"pid": fields["pid"]},
            }
        else:
            args = {
                k: v for k, v in fields.items() if k not in ("node", "dir")
            }
            yield {
                "ph": "i", "s": "t", "name": kind, "cat": kind,
                "pid": cpid, "tid": tid, "ts": t, "args": args,
            }


def write_chrome_trace(
    payloads: Union[dict, list],
    path: str,
    labels: Optional[list[str]] = None,
    extra_records: Optional[Iterable[dict]] = None,
) -> int:
    """Write one or many tracer payloads as a Perfetto-loadable trace.

    *payloads* is a single payload or a list (one per simulation point);
    node tracks of point *i* are namespaced into their own process-id
    range.  *extra_records* appends pre-built trace-event records (e.g.
    the phase-profiler span track,
    :func:`repro.obs.profile.profile_chrome_events`) into the same
    document.  Returns the number of trace records written.
    """
    if isinstance(payloads, dict):
        payloads = [payloads]
    records: list[dict] = []
    stride = 1
    for p in payloads:
        for row in p["events"]:
            fields = dict(zip(_FIELDS[row[2]], row[3:]))
            stride = max(stride, fields.get("node", 0) + 1)
    for i, p in enumerate(payloads):
        label = labels[i] if labels and i < len(labels) else (
            f"point{i}" if len(payloads) > 1 else ""
        )
        records.extend(chrome_events(p, pid_base=i * stride, label=label))
    if extra_records is not None:
        records.extend(extra_records)
    doc = {"traceEvents": records, "displayTimeUnit": "ns"}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")
    return len(records)
