"""Trace-driven toolkit for temporal locality of MoE expert routing under
memory-constrained expert offloading: locality metrics, a per-layer expert
cache simulator, fetch-bound verification, and a toy gate trainer with
analytic gradients."""

from .trace import (
    RoutingTrace,
    SynthConfig,
    TraceError,
    TraceHeader,
    Violation,
    load_trace,
    parse_trace,
    save_trace,
    synth_trace,
    validate_trace,
    write_trace,
)
from .metrics import MetricsReport, compute_metrics, eor
from .cache_sim import (
    CacheConfig,
    FaultKind,
    FaultScenario,
    IoModel,
    Policy,
    SimReport,
    estimate_tpot,
    percentile,
    reroute_topk,
    simulate,
)
from .bounds import (
    BoundReport,
    check_step_bound,
    check_working_set_bound,
    run_campaign,
    run_counterexamples,
)
from .gate import (
    GateParams,
    pinsker_check,
    probability_margin,
    topk,
)
from .objective import (
    LossBreakdown,
    LossWeights,
    fd_gradients,
    total_objective,
    value_and_grad,
)
from .trainer import SyntheticDataConfig, TrainConfig, TrainResult, train

__version__ = "0.1.0"
