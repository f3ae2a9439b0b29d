"""Runtime test harness for a self-adaptive streetlight multi-agent system.

The pieces compose bottom-up: annotated log events routed through an
in-process topic broker; state machines that validate consumed log traces;
a discrete-time streetlight simulation whose agents publish those logs; a
neuroevolution observer that trains the light controllers; and a CLI tying
it all together.
"""

from .logmodel import (
    BindingPattern,
    EventClock,
    InvalidPattern,
    InvalidTag,
    KeyTooLong,
    LogEvent,
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
from .testkit import (
    BindingMismatch,
    ParseError,
    TestCase,
    TestMachine,
    TestVerdict,
    TransitionSpec,
    compile,
    judge,
    load_test_plan,
    merge_timeline,
    run,
)
from .world import (
    ControllerBatch,
    EpisodeMetrics,
    FaultSpec,
    InvalidConfig,
    UnknownFault,
    UnknownTarget,
    WorldConfig,
    init_world,
    load_world_config,
    move_people,
    parse_fault_spec,
    run_episode,
    run_episodes,
    sense,
    actuate,
    step_world,
)
from .neural import (
    GenomeShapeMismatch,
    NetworkTopology,
    NeuralController,
    decode,
    load_genome,
    save_genome,
)
from .evolution import (
    FitnessReport,
    GAConfig,
    Genome,
    MetricsOutOfRange,
    ObserverResult,
    evaluate_solution,
    evolve_generation,
    fitness,
    load_ga_config,
    run_observer,
)

__version__ = "0.1.0"
