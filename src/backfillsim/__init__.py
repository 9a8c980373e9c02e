"""backfillsim: discrete-event models of backfill-slot job brokering and
multi-generation pilot runtimes on a leadership-class batch cluster."""

__version__ = "0.1.0"

from .simcore import CausalityError, SimEvent, Simulation, stream_rng
from .scheduler import (BACKFILL, CAPABILITY, BatchJob, ClusterConfig, EasyBackfillScheduler,
                        ReplayScheduler, SubmitError)
from .workload import (BackgroundLoadProfile, ContentionModel, EventDurationModel,
                       IoProfile, SetupModel, SimJobSpec, UnitDurationModel, WorkloadConfig,
                       generate_background_jobs, job_makespans_batch)
from .broker import (Broker, BrokerConfig, BrokerFleet, Bundle, FailureMix, FailureModel,
                     MetricsPoller, bundle_outcomes)
from .pilot import AgentTimeline, OverheadModel, PilotConfig, PilotReport, Unit, run_pilot
from .metrics import (AvailabilityLedger, PollRecord, WindowReport, month_windows,
                      total_backfill_availability, window_report)
from .traces import (TraceFormatError, TraceJob, emit_poll_trace, emit_swf,
                     ingest_poll_trace, ingest_swf, trace_summary)
from .config import (DEFAULTS, ConfigError, ScenarioConfig, config_hash, dump_defaults,
                     load_scenario_file, resolve_config)
from .scenarios import RunManifest, run_scenario, synthetic_slots
