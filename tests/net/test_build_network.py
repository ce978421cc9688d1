"""build_network composes the fault, observation and check layers.

One class per fault × obs × check combination, named after its layers;
exactly the plain class when obs and check are off; and never a
different simulation — every combination reproduces the plain run's
``time_cycles`` and ``events_processed``.
"""

from __future__ import annotations

import functools
import itertools

import pytest

from repro.check.config import CheckConfig
from repro.model.machine import MachineParams
from repro.model.torus import TorusShape
from repro.net.faults import FaultPlan, LinkOutage
from repro.net.faultsim import FaultyTorusNetwork, build_network
from repro.net.simulator import TorusNetwork
from repro.obs.config import ObsConfig
from repro.strategies import ARDirect

SHAPE = TorusShape.parse("4x4x2")
PARAMS = MachineParams.bluegene_l()
MSG = 128
# Dead links, loss (retransmission events) and an outage window: every
# event kind the fault network adds to the dispatch loop.
PLAN = FaultPlan.random(
    SHAPE,
    seed=3,
    dead_link_fraction=0.05,
    loss_prob=0.02,
    retx_timeout_cycles=2000.0,
    outages=(LinkOutage(node=0, direction=0, start=100.0, end=600.0),),
)


def _run(faulty: bool, obs=None, check=None):
    plan = PLAN if faulty else None
    net = build_network(SHAPE, PARAMS, None, plan, obs, check)
    program = ARDirect().build_program(SHAPE, MSG, PARAMS, 1, faults=plan)
    return net, net.run(program)


@functools.lru_cache(maxsize=None)
def _plain(faulty: bool):
    _, res = _run(faulty)
    return res.time_cycles, res.events_processed


class TestLayerLattice:
    @pytest.mark.parametrize(
        "faulty,observed,checked",
        list(itertools.product((False, True), repeat=3)),
        ids=lambda v: "on" if v else "off",
    )
    def test_every_layer_combination(self, faulty, observed, checked):
        obs = ObsConfig(metrics=True, link_stats=True) if observed else None
        check = CheckConfig(audit_interval=64) if checked else None
        net, res = _run(faulty, obs, check)

        base = FaultyTorusNetwork if faulty else TorusNetwork
        name = (
            ("Checked" if checked else "")
            + ("Instrumented" if observed else "")
            + base.__name__
        )
        assert type(net).__name__ == name
        assert isinstance(net, base)
        if not observed and not checked:
            assert type(net) is base
        assert (res.time_cycles, res.events_processed) == _plain(faulty)
        if faulty:
            assert res.retransmitted_packets > 0
            assert res.outage_cycles > 0

    def test_combination_classes_are_built_once(self):
        obs = ObsConfig(metrics=True)
        check = CheckConfig()
        a = build_network(SHAPE, obs=obs, check=check)
        b = build_network(SHAPE, obs=obs, check=check)
        assert type(a) is type(b)
