"""Layer timing from outside the simulator.

:class:`Recorder` wraps public functions of the simulator's modules for
the life of one workload process; nothing under ``src/`` changes.  Two
kinds of record are kept, both in memory until the process ends:

* per-call aggregates for the per-cycle functions (router phases, input
  and output units, interfaces, traffic, NBTI): call count, total time
  and self time (total minus the time of wrapped functions it called);
* full spans for the scenario-level functions (scenario, build, run,
  executor map, journal append, state write): name, start, end, parent
  span and enclosing scenario span.

An untraced run installs only the :func:`run_scenario` hook, which
collects results and the time the first scenario started.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Dict, List, Optional

#: Wrapped functions reported as ``<name>.calls`` and ``<name>.self_s``.
CALLS_AND_SELF = (
    "network.step", "router.phase_va", "router.phase_sa_st",
    "input_unit.receive_flit", "output_unit.run_policy", "output_unit.on_credit",
    "interface.phase_va", "interface.phase_send", "interface.phase_eject",
    "traffic.inject", "traffic.advance", "nbti.flush_all", "router.phase_nbti",
    "journal.append", "checkpoint.state_write",
)


class Recorder:
    def __init__(self) -> None:
        #: name -> [calls, total_s, self_s, extra]; ``extra`` sums a
        #: per-call quantity taken from the return value.
        self.aggs: Dict[str, List[float]] = {}
        #: [name, start, end, parent index, scenario index]
        self.spans: List[list] = []
        self.results: List[object] = []
        self.executors: Dict[int, object] = {}
        self.first_scenario_at: Optional[float] = None
        self._children = [0.0]  # wrapped-callee time of each open frame
        self._open: List[int] = []  # indexes of open spans
        self._scenario: Optional[int] = None
        self._undo: List[Callable[[], None]] = []

    # -- wrappers ------------------------------------------------------
    def _counted(self, name: str, fn, extra: Optional[Callable] = None):
        agg = self.aggs.setdefault(name, [0, 0.0, 0.0, 0])
        children = self._children
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = children.pop()
                children[-1] += elapsed
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - inner
            if extra is not None:
                agg[3] += extra(result)
            return result

        return wrapper

    def _spanned(self, name: str, fn, before=None, after=None):
        counted = self._counted(name, fn)
        spans = self.spans
        opened = self._open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            index = len(spans)
            parent = opened[-1] if opened else None
            span = [name, clock(), None, parent, self._scenario]
            spans.append(span)
            opened.append(index)
            if name == "scenario":
                outer, self._scenario = self._scenario, index
                span[4] = index
            try:
                result = counted(*args, **kwargs)
            finally:
                span[2] = clock()
                opened.pop()
                if name == "scenario":
                    self._scenario = outer
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- patching ------------------------------------------------------
    def _patch_method(self, cls, attr: str, wrapper) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, wrapper)
        self._undo.append(lambda: setattr(cls, attr, original))

    def _patch_function(self, original, wrapper) -> None:
        """Rebind ``original`` in every loaded ``repro`` module holding it
        (``from x import f`` copies the binding into the importer)."""
        for name, module in list(sys.modules.items()):
            if name != "repro" and not name.startswith("repro."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append(
                        lambda m=module, a=attr: setattr(m, a, original)
                    )

    def close(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- installation --------------------------------------------------
    def install_scenario_hook(self) -> None:
        """The only hook of an untraced run: one call per scenario."""
        from repro.experiments import parallel, runner  # noqa: F401 (bindings)

        def before(_args):
            if self.first_scenario_at is None:
                self.first_scenario_at = time.time()

        def after(_args, result):
            self.results.append(result)

        self._patch_function(
            runner.run_scenario,
            self._spanned("scenario", runner.run_scenario, before, after),
        )

    def install_layers(self) -> None:
        """Wrap every layer boundary the per-layer metrics read."""
        import repro.cli  # noqa: F401 (load every module holding a binding)
        from repro.experiments import checkpoint, parallel, persistence, runner  # noqa: F401
        from repro.nbti.sensor import SensorBank
        from repro.noc.input_unit import InputUnit
        from repro.noc.interface import NetworkInterface
        from repro.noc.network import Network
        from repro.noc.output_unit import UpstreamPort
        from repro.noc.router import Router
        from repro.noc.soa import NbtiArrays, SoAEngine
        from repro.telemetry.runtime import Telemetry
        from repro.traffic.base import TrafficGenerator
        from repro.traffic.real import BenchmarkTraffic
        from repro.traffic.synthetic import SyntheticTraffic

        counted = [
            (SoAEngine, "run_span", "soa.run_span", None),
            (Network, "step", "network.step", None),
            (Router, "phase_va", "router.phase_va", None),
            (Router, "phase_sa_st", "router.phase_sa_st", lambda moved: moved),
            (Router, "phase_nbti", "router.phase_nbti", None),
            (InputUnit, "receive_flit", "input_unit.receive_flit", None),
            (InputUnit, "apply_command", "input_unit.apply_command", None),
            (UpstreamPort, "run_policy", "output_unit.run_policy", None),
            (UpstreamPort, "on_credit", "output_unit.on_credit", None),
            (UpstreamPort, "set_most_degraded", "output_unit.set_most_degraded", None),
            (NetworkInterface, "phase_va", "interface.phase_va", None),
            (NetworkInterface, "phase_send", "interface.phase_send", None),
            (NetworkInterface, "phase_eject", "interface.phase_eject", None),
            (NbtiArrays, "flush_all", "nbti.flush_all", None),
            (SensorBank, "sample", "sensor.sample", None),
            (Telemetry, "attach", "telemetry.attach", None),
            (Telemetry, "finalize", "telemetry.finalize", None),
        ]
        traffic_classes = (TrafficGenerator, SyntheticTraffic, BenchmarkTraffic)
        for cls in traffic_classes:
            for attr, extra in (
                ("inject", lambda out: 1 if out else 0),
                ("next_injection_cycle", None),
                ("advance", None),
            ):
                if attr in cls.__dict__:
                    counted.append((cls, attr, f"traffic.{attr}", extra))
        for cls, attr, name, extra in counted:
            self._patch_method(cls, attr, self._counted(name, cls.__dict__[attr], extra))

        def track_executor(args):
            self.executors[id(args[0])] = args[0]

        self._patch_method(
            parallel.Executor, "map",
            self._spanned("executor.map", parallel.Executor.map, track_executor),
        )
        self._patch_method(
            checkpoint.ScenarioJournal, "append",
            self._spanned("journal.append", checkpoint.ScenarioJournal.append),
        )
        self._patch_method(
            Network, "run", self._spanned("run", Network.run),
        )
        self._patch_function(
            runner.build_network,
            self._spanned("build", runner.build_network),
        )
        self._patch_function(
            checkpoint.atomic_write_json,
            self._spanned("checkpoint.state_write", checkpoint.atomic_write_json),
        )
        self.install_scenario_hook()

    # -- derived metrics -----------------------------------------------
    def layer_metrics(self) -> Dict[str, float]:
        """Every per-layer metric, 0 where the workload never reached it."""
        def calls(name):
            return self.aggs.get(name, (0, 0.0, 0.0, 0))[0]

        def total(name):
            return self.aggs.get(name, (0, 0.0, 0.0, 0))[1]

        def self_s(name):
            return self.aggs.get(name, (0, 0.0, 0.0, 0))[2]

        def per_call(name):
            """The summed return-value quantity per call."""
            n, _, _, extra = self.aggs.get(name, (0, 0.0, 0.0, 0))
            return extra / n if n else 0.0

        def span_total(name, parent_name=None):
            spans = self.spans
            return sum(
                end - start
                for span_name, start, end, parent, _ in spans
                if span_name == name and (
                    parent_name is None
                    or (parent is not None and spans[parent][0] == parent_name)
                )
            )

        scenario_s = span_total("scenario")
        build_s = span_total("build", "scenario")
        run_s = span_total("run", "scenario")
        metrics = {
            "runner.build_s": build_s,
            "runner.run_s": run_s,
            "runner.harvest_s": scenario_s - build_s - run_s,
            "soa.run_span.calls": calls("soa.run_span"),
            "soa.self_s": self_s("soa.run_span"),
            "router.sa_st.moved_per_call": per_call("router.phase_sa_st"),
            "input_unit.apply_command.calls": calls("input_unit.apply_command"),
            "output_unit.set_most_degraded.calls": calls("output_unit.set_most_degraded"),
            "traffic.inject.nonempty_ratio": per_call("traffic.inject"),
            "traffic.next_injection_cycle.calls": calls("traffic.next_injection_cycle"),
            "sensor.sample.calls": calls("sensor.sample"),
            "telemetry.attach_s": total("telemetry.attach"),
            "telemetry.finalize_s": total("telemetry.finalize"),
            "tracer.events": sum(
                r.telemetry.total_events for r in self.results if r.telemetry is not None
            ),
            "executor.map_s": span_total("executor.map"),
            "executor.overhead_s": (
                span_total("executor.map") - span_total("scenario", "executor.map")
            ),
            "executor.journal_hits": sum(
                e.stats.journal_hits for e in self.executors.values()
            ),
            "engine.soa_spans": calls("soa.run_span"),
            "engine.stepped_cycles": calls("network.step"),
        }
        for name in CALLS_AND_SELF:
            metrics[f"{name}.calls"] = calls(name)
            metrics[f"{name}.self_s"] = self_s(name)
        return metrics
