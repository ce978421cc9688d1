"""build_network composes the fault, observation and check layers.

The network is exactly :class:`TorusNetwork` or
:class:`FaultyTorusNetwork` for every fault × obs × check combination —
observation and checking attach as observers, never as subclasses, and
a network built without either carries none — and never a different
simulation: every combination reproduces the plain run's
``time_cycles`` and ``events_processed``.  Any other observer attaches
the same way.
"""

from __future__ import annotations

import functools
import itertools

import pytest

from repro.check import oracle
from repro.check.config import CheckConfig
from repro.model.machine import MachineParams
from repro.model.torus import TorusShape
from repro.net.faults import FaultPlan
from repro.net.faultsim import FaultyTorusNetwork, build_network
from repro.net.simulator import TorusNetwork
from repro.obs.config import ObsConfig
from repro.strategies import ARDirect

SHAPE = TorusShape.parse("4x4x2")
PARAMS = MachineParams.bluegene_l()
MSG = 128
# Dead links and loss (retransmission events): every event kind the
# fault network adds to the run kernel.
PLAN = FaultPlan.random(
    SHAPE,
    seed=3,
    dead_link_fraction=0.05,
    loss_prob=0.02,
    retx_timeout_cycles=2000.0,
)


def _run(faulty: bool, obs=None, check=None):
    plan = PLAN if faulty else None
    net = build_network(SHAPE, PARAMS, plan, obs, check)
    program = ARDirect().build_program(SHAPE, MSG, PARAMS, 1)
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
    def test_every_layer_combination(
        self, monkeypatch, faulty, observed, checked
    ):
        monkeypatch.setattr(oracle, "AUDIT_INTERVAL", 64)
        obs = ObsConfig(metrics=True, link_stats=True) if observed else None
        check = CheckConfig() if checked else None
        net, res = _run(faulty, obs, check)

        assert type(net) is (FaultyTorusNetwork if faulty else TorusNetwork)
        assert len(net._observers) == observed + checked
        assert (res.time_cycles, res.events_processed) == _plain(faulty)
        assert ("obs" in res.extras) == observed
        # The field outlives the outage windows it summed, until the
        # codec schema next changes.
        assert res.outage_cycles == 0.0
        if faulty:
            assert res.retransmitted_packets > 0


class TestObserverSurface:
    def test_custom_observer_sees_every_launch_and_delivery(self):
        from repro.net.simulator import SimObserver

        class Counter(SimObserver):
            def bind(self, net):
                self.launches = self.deliveries = 0

                def launch(u, d, v, h, vc, now, busy0, flags):
                    self.launches += 1

                def deliver(u, h):
                    self.deliveries += 1

                return {"launch": launch, "deliver": deliver}

        seen = Counter()
        net = build_network(SHAPE, PARAMS, PLAN)
        net.attach(seen)
        program = ARDirect().build_program(SHAPE, MSG, PARAMS, 1)
        res = net.run(program)
        assert (res.time_cycles, res.events_processed) == _plain(True)
        assert seen.launches == res.total_hops
        assert seen.deliveries == res.delivered_packets

    def test_unknown_hook_name_is_rejected(self):
        from repro.net.simulator import SimObserver

        class Typo(SimObserver):
            def bind(self, net):
                return {"lanch": lambda *args: None}

        net = build_network(SHAPE, PARAMS)
        net.attach(Typo())
        program = ARDirect().build_program(SHAPE, MSG, PARAMS, 1)
        with pytest.raises(ValueError, match="unknown hook 'lanch'"):
            net.run(program)
