"""Online autotuning: the SIM-SITU predict->verify->act loop, closed.

The paper measures in situ costs (Secs. 4.1-4.2) and the perf package
predicts them; this package is the missing third leg -- an online
controller that *acts* on the gap between the two while the run is live:

- :mod:`sensor` -- subscribes to per-step trace spans
  (:meth:`~repro.trace.TraceRecorder.subscribe`) and reduces them to the
  Sec. 4.1.1 phase observation the controller consumes;
- :mod:`controller` -- holds a user-declared latency/overhead SLO against
  per-config predictions from
  :class:`~repro.perf.control_model.ControlModel`, maintains a believed
  staging-fabric derate, and re-plans between steps: switching in-transit
  FlexPath <-> in-line Catalyst and resizing the PNG worker count.
  Writer groups adopt
  configurations by the same ``allreduce(MIN)`` lockstep consensus the
  staging transport uses for degradation;
- :mod:`journal` -- every decision is a pure function of (observed spans,
  model state, seeded RNG) and is appended to a structured journal, so the
  same seed replays to a byte-identical decision log across runs and SPMD
  backends;
- :mod:`demo` -- a closed-loop demonstration under an injected mid-run
  bandwidth derating (``repro control``): the controller degrades staged
  analysis to in-line, holds the SLO through the outage, probes the
  staging path on a seeded schedule, and recovers.
"""

from repro.control.controller import SLO, Controller
from repro.control.demo import run_control_demo
from repro.control.journal import Decision, DecisionJournal
from repro.control.sensor import SpanSensor

__all__ = [
    "SLO",
    "Controller",
    "Decision",
    "DecisionJournal",
    "SpanSensor",
    "run_control_demo",
]
