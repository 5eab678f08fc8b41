"""The slotted discrete-event simulation layer.

* :mod:`repro.sim.trace` / :mod:`repro.sim.metrics` -- per-slot records and
  the derived statistics (throughput, UR, accuracy, delay, EI);
* :mod:`repro.sim.reader` -- composes a protocol, a detector, a channel and
  a timing model into one inventory run;
* :mod:`repro.sim.engine` -- event-driven wrapper adding tag mobility;
* :mod:`repro.sim.monitoring` -- repeated inventories over a churning
  population (the ABS/AQS use case);
* :mod:`repro.sim.energy` -- tag/reader energy accounting;
* :mod:`repro.sim.deployment` / :mod:`repro.sim.scheduling` /
  :mod:`repro.sim.multireader` -- the spatial scenario of Table V;
* :mod:`repro.sim.batch` -- vectorized Monte-Carlo kernels for the
  50 000-tag cases: all R rounds of a grid point in one numpy program (a
  single inventory is a batch of one stream), cross-validated against the
  exact reader (see ``docs/PERFORMANCE.md``);
* :mod:`repro.sim.export` -- CSV/JSON trace and stats export.
"""

from repro.sim.deployment import Deployment, Reader2D
from repro.sim.energy import EnergyBreakdown, EnergyModel, inventory_energy
from repro.sim.engine import MobileInventoryEngine
from repro.sim.export import (
    read_trace_csv,
    read_trace_json,
    stats_to_dict,
    trace_to_rows,
    write_stats_json,
    write_trace_csv,
    write_trace_json,
)
from repro.sim.batch import (
    BatchResult,
    bt_fast_batch,
    dfsa_fast_batch,
    fsa_fast_batch,
    stats_equal,
)
from repro.sim.metrics import (
    DelayStats,
    InventoryStats,
    SlotCounts,
    efficiency_improvement,
)
from repro.sim.monitoring import ContinuousMonitor, MonitoringResult
from repro.sim.multireader import MultiReaderResult, run_multireader_inventory
from repro.sim.reader import InventoryResult, Reader
from repro.sim.scheduling import color_schedule, interference_graph
from repro.sim.trace import SlotRecord, SlotTrace

__all__ = [
    "SlotRecord",
    "SlotTrace",
    "SlotCounts",
    "DelayStats",
    "InventoryStats",
    "efficiency_improvement",
    "Reader",
    "InventoryResult",
    "MobileInventoryEngine",
    "ContinuousMonitor",
    "MonitoringResult",
    "EnergyModel",
    "EnergyBreakdown",
    "inventory_energy",
    "Deployment",
    "Reader2D",
    "interference_graph",
    "color_schedule",
    "MultiReaderResult",
    "run_multireader_inventory",
    "BatchResult",
    "fsa_fast_batch",
    "bt_fast_batch",
    "dfsa_fast_batch",
    "stats_equal",
    "trace_to_rows",
    "stats_to_dict",
    "write_trace_csv",
    "write_trace_json",
    "read_trace_csv",
    "read_trace_json",
    "write_stats_json",
]
