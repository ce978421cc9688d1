"""Canonical JSON encoding of simulation inputs and outputs.

Two jobs live here:

* **Key material** — :func:`point_fingerprint` turns a :class:`SimPoint`
  into a canonical, sorted, JSON-safe structure covering *everything* that
  can change a simulation's outcome (shape, strategy class + options,
  message size, seed, machine parameters, fault plan, and a schema
  version).  Its SHA-256 is the cache key.
* **Result transport** — :func:`encode_run` / :func:`decode_run` round-trip
  an :class:`~repro.api.AllToAllRun` through plain JSON types.  The same
  payload serves worker → parent IPC and the on-disk cache, and *every*
  result the runner returns goes through one encode/decode cycle — so a
  cache hit, a pool worker result and an in-process run are byte-identical
  (``json`` float round-trips are exact: ``float(repr(x)) == x``).

Bump :data:`SCHEMA_VERSION` whenever simulator semantics change in a way
that should invalidate previously cached results.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, fields
from typing import Any

import numpy as np

from repro.api import AllToAllRun
from repro.model.machine import MachineParams
from repro.model.torus import TorusShape
from repro.net.faults import FaultPlan
from repro.net.trace import SimulationResult

from repro.runner.point import SimPoint

#: Version of both the fingerprint layout and the result payload.  Bumping
#: it orphans every previously cached result (they are keyed by it).
#: v2: SimulationResult grew the per-link ``link_packets`` counter.
SCHEMA_VERSION = 2


# --------------------------------------------------------------------- #
# fingerprinting (cache keys)
# --------------------------------------------------------------------- #


def _strategy_fingerprint(strategy: Any) -> dict:
    cls = type(strategy)
    return {
        "class": f"{cls.__module__}.{cls.__qualname__}",
        "options": {k: v for k, v in sorted(vars(strategy).items())},
    }


def _faults_fingerprint(faults: FaultPlan | None) -> dict | None:
    if faults is None:
        return None
    return {
        "dead_links": sorted(list(link) for link in faults.dead_links),
        "loss_prob": faults.loss_prob,
        "seed": faults.seed,
        "retx_timeout_cycles": faults.retx_timeout_cycles,
    }


def point_fingerprint(point: SimPoint) -> dict:
    """Canonical JSON-safe structure identifying *point*'s outcome."""
    params = point.params or MachineParams.bluegene_l()
    return {
        "schema": SCHEMA_VERSION,
        "shape": {
            "dims": list(point.shape.dims),
            "torus": list(point.shape.torus),
        },
        "strategy": _strategy_fingerprint(point.strategy),
        "msg_bytes": point.msg_bytes,
        "seed": point.seed,
        "params": asdict(params),
        # Points once carried a router config apart from the params; a
        # fixed null keeps every key, cached result and golden byte-stable.
        "config": None,
        "faults": _faults_fingerprint(point.faults),
    }


def point_key(point: SimPoint) -> str:
    """Stable content hash of *point* (the cache key)."""
    blob = json.dumps(
        point_fingerprint(point), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------- #
# result payloads
# --------------------------------------------------------------------- #


def canonical_extras(value: Any, path: str = "extras") -> Any:
    """Return *value* as canonical JSON-native types, or fail loudly.

    ``SimulationResult.extras`` is an open dict that strategies and the
    observability layer populate; before it crosses the cache/IPC
    boundary every value must become a plain JSON type so fresh, pooled
    and cached results stay bit-identical.  Numpy scalars become native
    ``int``/``float``/``bool``, arrays and tuples become lists, and dict
    keys must be strings.  Anything else raises ``TypeError`` naming the
    offending path instead of letting ``json.dumps`` produce an opaque
    error (or, worse, ``allow_nan`` artifacts) deep inside a worker.
    """
    if value is None:
        return value
    # Exact native types only: an IntEnum (e.g. RoutingMode) or np.str_
    # would satisfy an isinstance check yet make the fresh payload differ
    # from its decoded-from-JSON twin in type, breaking the bit-identity
    # contract.  Coerce subclasses down to the base type.
    if isinstance(value, bool):
        return value if type(value) is bool else bool(value)
    if isinstance(value, int):
        return value if type(value) is int else int(value)
    if isinstance(value, str):
        return value if type(value) is str else str(value)
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise ValueError(f"{path}: non-finite float {value!r}")
        # np.float64 subclasses float; coerce so the payload is native.
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return canonical_extras(float(value), path)
    if isinstance(value, np.ndarray):
        return canonical_extras(value.tolist(), path)
    if isinstance(value, (list, tuple)):
        return [
            canonical_extras(v, f"{path}[{i}]") for i, v in enumerate(value)
        ]
    if isinstance(value, dict):
        out = {}
        for k, v in value.items():
            if not isinstance(k, str):
                raise TypeError(
                    f"{path}: non-string key {k!r} ({type(k).__name__})"
                )
            out[k] = canonical_extras(v, f"{path}.{k}")
        return out
    raise TypeError(
        f"{path}: {type(value).__name__} is not JSON-encodable"
    )


def encode_run(run: AllToAllRun) -> dict:
    """Encode *run* as a plain-JSON-types dict (the cache/IPC payload)."""
    r = run.result
    result = {
        f.name: getattr(r, f.name)
        for f in fields(SimulationResult)
        if f.name not in ("link_busy_cycles", "link_packets")
    }
    result["link_busy_cycles"] = r.link_busy_cycles.tolist()
    result["link_packets"] = (
        None if r.link_packets is None else r.link_packets.tolist()
    )
    result["extras"] = canonical_extras(r.extras)
    return {
        "schema": SCHEMA_VERSION,
        "strategy": run.strategy,
        "shape": {
            "dims": list(run.shape.dims),
            "torus": list(run.shape.torus),
        },
        "msg_bytes": run.msg_bytes,
        "params": asdict(run.params),
        "predicted_cycles": run.predicted_cycles,
        "result": result,
    }


def decode_run(payload: dict) -> AllToAllRun:
    """Rebuild the :class:`AllToAllRun` encoded by :func:`encode_run`."""
    result = dict(payload["result"])
    result["link_busy_cycles"] = np.asarray(
        result["link_busy_cycles"], dtype=np.float64
    )
    if result.get("link_packets") is not None:
        result["link_packets"] = np.asarray(
            result["link_packets"], dtype=np.int64
        )
    return AllToAllRun(
        strategy=payload["strategy"],
        shape=TorusShape(
            payload["shape"]["dims"], payload["shape"]["torus"]
        ),
        msg_bytes=payload["msg_bytes"],
        params=MachineParams(**payload["params"]),
        result=SimulationResult(**result),
        predicted_cycles=payload["predicted_cycles"],
    )
