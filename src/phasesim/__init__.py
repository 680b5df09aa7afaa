"""Online program-phase detection with adaptive profiling intervals,
driving migration decisions on a simulated asymmetric multicore."""

from .config import (
    ConfigError,
    ExperimentConfig,
    Mode,
    default_machine,
    load_machine_file,
    parse_config_file,
    parse_config_pairs,
)
from .core_model import (
    CoreClass,
    CoreSpec,
    SegmentCursor,
    WorkloadSegment,
    a_core,
    b_core,
    simulate_interval,
)
from .detector import (
    PHASE_CHANGE_KINDS,
    DetectorConfig,
    PhaseDetector,
    PhaseEvent,
    PhaseEventKind,
    PhaseState,
    UtilizationClass,
    match_recurring_phase,
    utilization_class,
)
from .experiment import (
    RunResult,
    ScatterRow,
    detect_over_samples,
    format_overhead_report,
    load_summary,
    overhead_report,
    run_experiment,
)
from .interval_control import IntervalController
from .records import IntervalSample, TraceError, TraceParseError, TraceValidationError
from .scheduler import decide_migration
from .workload import (
    PRESETS,
    WorkloadSpec,
    detect_format,
    fft_like,
    fmm_like,
    generate_workload,
    load_trace,
    load_workload_spec,
    preset,
    save_trace,
    save_workload_spec,
    steady,
)

__version__ = "0.1.0"
