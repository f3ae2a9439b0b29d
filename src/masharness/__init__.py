"""Runtime test harness for a self-adaptive streetlight multi-agent system.

The pieces compose bottom-up: annotated log events routed through an
in-process topic broker; state machines that validate consumed log traces;
a discrete-time streetlight simulation whose agents publish those logs; a
neuroevolution observer that trains the light controllers; and a CLI tying
it all together.
"""

from importlib import import_module as _import_module

from .logmodel import (
    BindingPattern,
    EventClock,
    InvalidPattern,
    InvalidTag,
    KeyTooLong,
    LogEvent,
    MasharnessError,
    RoutingKey,
    make_log_event,
    parse_binding_pattern,
    routing_key,
)
from .broker import (
    AgentPublisher,
    Broker,
    BrokerStats,
    DuplicateQueue,
    QueueClosed,
    QueueHandle,
    matches,
)

#: ``testkit`` and the numpy half, served on first use (PEP 562): each submodule
#: and the names the package exports from it, so a command that needs none of
#: it loads no numpy, and ``timeline`` no test machines
_LAZY = {name: module for module, names in (
    ("testkit", "BindingMismatch ParseError TestCase TestMachine TestVerdict TransitionSpec "
                "compile judge load_test_plan merge_timeline run"),
    ("world", "ControllerBatch EpisodeMetrics FaultSpec InvalidConfig UnknownFault UnknownTarget "
              "WorldConfig init_world load_world_config move_people parse_fault_spec run_episode "
              "run_episodes sense actuate step_world"),
    ("neural", "GenomeShapeMismatch NetworkTopology NeuralController decode load_genome "
               "save_genome"),
    ("evolution", "FitnessReport GAConfig Genome MetricsOutOfRange ObserverResult "
                  "evaluate_solution evolve_generation fitness load_ga_config run_observer"),
) for name in (module, *names.split())}

#: ``from masharness import *`` gives every name the package exports, eager or lazy
__all__ = [*(name for name in globals() if not name.startswith("_")), *_LAZY]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    if module not in globals():  # an imported submodule is bound here
        # the numpy half's world first, as an eager import had it: compiled before
        # its own numpy import runs, world.py does not raise a process's peak memory
        if module != "testkit":
            _import_module(".world", __name__)
        _import_module(f".{module}", __name__)
    loaded = globals()[module]
    return loaded if name == module else getattr(loaded, name)


def __dir__():
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"
