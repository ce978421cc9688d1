"""Per-layer host time from a cProfile run of the benchmark's calls.

Works on the ``stats`` dict of a :class:`cProfile.Profile` (after
``create_stats()``): ``(file, line, name) -> (cc, nc, tt, ct, callers)``,
where ``callers`` maps each calling function to that edge's
``(cc, nc, tt, ct)``.  Layers are the modules of ``src/repro``.
"""

from __future__ import annotations

#: (module path under ``src/repro/``, function or None for any) -> the
#: self-time share it is charged to; prefix match, first hit wins, and
#: everything else is ``prof.other``.  ``build_network`` lives in
#: faultsim.py but builds every network, so it counts as network code
#: rather than fault handling, which keeps the fault share 0 when no
#: fault is planned.
GROUPS = (
    ("net/simulator.py", None, "prof.net.simulator"),
    ("net/faultsim.py", "build_network", "prof.net.other"),
    ("net/faultsim.py", None, "prof.net.faultsim"),
    ("net/instrumented.py", None, "prof.net.instrumented"),
    ("net/packet.py", None, "prof.net.packet"),
    ("net/", None, "prof.net.other"),
    ("check/", None, "prof.check"),
    ("obs/", None, "prof.obs"),
    ("strategies/", None, "prof.strategies"),
    ("runner/", None, "prof.runner"),
    ("model/", None, "prof.model"),
    ("experiments/", None, "prof.experiments"),
)
SHARES = tuple(dict.fromkeys(name for _, _, name in GROUPS)) + ("prof.other",)

_MARK = "/src/repro/"


def module_of(func: tuple) -> str | None:
    """Path of *func*'s file under ``src/repro/``, or None outside it."""
    filename = func[0].replace("\\", "/")
    at = filename.rfind(_MARK)
    return filename[at + len(_MARK):] if at >= 0 else None


def group_of(func: tuple) -> str:
    rel = module_of(func)
    if rel is not None:
        for prefix, function, name in GROUPS:
            if rel.startswith(prefix) and function in (None, func[2]):
                return name
    return "prof.other"


def is_builtin(func: tuple) -> bool:
    return func[0] == "~"


def self_shares(stats: dict) -> dict:
    """Share of all self time spent in each layer.

    A C builtin has no module of its own, so its self time is charged to
    the function that called it, edge by edge; the part no edge covers
    (a builtin called at the profile's top level) goes to ``prof.other``.
    """
    charged = dict.fromkeys(SHARES, 0.0)
    for func, (_, _, tt, _, callers) in stats.items():
        if not is_builtin(func):
            charged[group_of(func)] += tt
            continue
        covered = 0.0
        for caller, edge in callers.items():
            charged["prof.other" if is_builtin(caller) else group_of(caller)] += edge[2]
            covered += edge[2]
        charged["prof.other"] += max(tt - covered, 0.0)
    total = sum(charged.values())
    return {k: (v / total if total > 0 else 0.0) for k, v in charged.items()}


def total_self(stats: dict) -> float:
    return sum(v[2] for v in stats.values())


def entry_time(stats: dict, match) -> float:
    """Cumulative time inside the functions *match* selects, counting only
    calls made from outside that set, so nested matches count once."""
    chosen = {f for f in stats if match(f)}
    total = 0.0
    for func in chosen:
        _, _, _, ct, callers = stats[func]
        from_edges = 0.0
        for caller, edge in callers.items():
            from_edges += edge[3]
            if caller not in chosen:
                total += edge[3]
        total += max(ct - from_edges, 0.0)  # called at the top level
    return total


def _fn(path: str, *names: str):
    def match(func):
        rel = module_of(func)
        return rel is not None and rel.startswith(path) and (
            not names or func[2] in names
        )

    return match


#: Per-layer cumulative times: metric -> the layer's entry functions (all
#: functions of the module when none are named).
ENTRIES = {
    "api.simulate_s": _fn("api.py", "simulate_alltoall"),
    "strategies.build_program_s": _fn("strategies/", "build_program"),
    "net.build_network_s": _fn("net/faultsim.py", "build_network"),
    "net.run_s": _fn("net/", "run"),
    "runner.sweep_s": _fn("runner/pool.py", "run_sweep"),
    "runner.codec_s": _fn("runner/codec.py", "encode_run", "decode_run"),
    "runner.cache_get_s": _fn("runner/cache.py", "cache_get"),
    "runner.cache_put_s": _fn("runner/cache.py", "cache_put"),
    "runner.point_key_s": _fn("runner/codec.py", "point_key"),
    "experiments.driver_s": _fn("experiments/registry.py", "run_experiment"),
    "model.s": _fn("model/"),
    "obs.report_s": _fn("obs/report.py", "write_report"),
}


def layer_times(stats: dict, calls: int, points: int, events: int) -> dict:
    """Per-call layer times of *calls* profiled calls that requested
    *points* points and simulated *events* events each."""
    t = {k: entry_time(stats, m) / calls for k, m in ENTRIES.items()}
    t["net.ns_per_event"] = 1e9 * t["net.run_s"] / events if events else 0.0
    t["runner.overhead_ms_per_point"] = (
        1e3 * max(t["runner.sweep_s"] - t["api.simulate_s"], 0.0) / points
        if t["runner.sweep_s"] and points
        else 0.0
    )
    t["experiments.other_s"] = (
        max(t["experiments.driver_s"] - t["runner.sweep_s"], 0.0)
        if t["experiments.driver_s"]
        else 0.0
    )
    return t
