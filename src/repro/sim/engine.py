"""Event-driven inventory with tag mobility.

The plain :class:`~repro.sim.reader.Reader` identifies a static population.
:class:`MobileInventoryEngine` adds the scenario Section VI-D motivates the
delay metric with: tags *arrive* in the interrogation range while the
inventory is running and *depart* after a dwell time -- identified or not.
Time is the airtime clock of the timing model, so a faster detector (QCD)
directly translates into more tags identified before they escape.

The engine interleaves a :class:`~repro.tags.mobility.MobilitySchedule`
with the reader's slot loop: before each slot, all due arrivals are
admitted into the protocol and all due departures are withdrawn; a tag that
departs unidentified is recorded as *escaped*.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs import instruments as _inst
from repro.obs.state import STATE as _OBS
from repro.sim.metrics import DelayStats, InventoryStats
from repro.sim.reader import Reader, record_effective
from repro.sim.trace import SlotRecord
from repro.tags.mobility import MobilitySchedule
from repro.tags.tag import Tag
from repro.verify.invariants import STATE as _INV
from repro.verify.invariants import check_inventory as _check_inventory

__all__ = ["MobileInventoryEngine", "MobileInventoryResult"]


@dataclass
class MobileInventoryResult:
    """Outcome of a mobile-population inventory."""

    trace: list[SlotRecord]
    stats: InventoryStats
    identified_ids: list[int]
    escaped_ids: list[int]
    #: Delay from each identified tag's *arrival* to its identification
    #: (the per-tag delay that matters for mobile tags).
    sojourn_delays: DelayStats
    end_time: float

    @property
    def escape_rate(self) -> float:
        total = len(self.identified_ids) + len(self.escaped_ids)
        return len(self.escaped_ids) / total if total else 0.0


@dataclass
class MobileInventoryEngine:
    """Runs a protocol over a mobility schedule.

    Parameters
    ----------
    reader:
        Configured reader (detector + timing + channel + policy).
    max_slots:
        Safety bound on total slots across the whole run.
    """

    reader: Reader
    max_slots: int = 10_000_000
    _arrivals: dict[int, float] = field(default_factory=dict, repr=False)

    def run(
        self,
        protocol,
        schedule: MobilitySchedule,
        initial_tags: list[Tag] | None = None,
    ) -> MobileInventoryResult:
        """Run until the schedule is exhausted and the backlog identified."""
        tags0 = list(initial_tags or [])
        trace: list[SlotRecord] = []
        identified: list[int] = []
        lost: list[int] = []
        escaped: list[int] = []
        sojourns: list[float] = []
        time = 0.0
        self._arrivals = {id(t): 0.0 for t in tags0}
        protocol.start(tags0)
        index = 0
        obs_on = _OBS.enabled
        inv_on = _INV.enabled
        bits = self.reader.detector.packed_bits
        seen_ids = [t.tag_id for t in tags0] if inv_on else []
        if obs_on:
            _OBS.tracer.start_span(
                "mobile_inventory",
                engine="mobile",
                protocol=protocol.name,
                initial_tags=len(tags0),
            )
        while True:
            # Deliver all mobility events due at the current airtime.
            for ev in schedule.events_until(time):
                if ev.kind == "arrive":
                    self._arrivals[id(ev.tag)] = max(ev.time, time)
                    if inv_on:
                        seen_ids.append(ev.tag.tag_id)
                    protocol.admit(ev.tag)
                    if obs_on:
                        _OBS.registry.counter(
                            _inst.MOBILITY_EVENTS,
                            "Mobility events applied",
                            labelnames=("kind",),
                        ).labels(kind="arrive").inc()
                else:
                    if not ev.tag.identified:
                        escaped.append(ev.tag.tag_id)
                        if obs_on:
                            _OBS.registry.counter(
                                _inst.ESCAPED,
                                "Tags that departed unidentified",
                            ).inc()
                    protocol.withdraw(ev.tag)
                    if obs_on:
                        _OBS.registry.counter(
                            _inst.MOBILITY_EVENTS,
                            "Mobility events applied",
                            labelnames=("kind",),
                        ).labels(kind="depart").inc()
            if protocol.finished:
                nxt = schedule.peek_next_time()
                if nxt is None:
                    break
                # Idle the reader until the next arrival; protocols restart
                # their schedule when contenders appear.
                time = max(time, nxt)
                continue
            if index >= self.max_slots:
                if obs_on:
                    _OBS.tracer.end_span(aborted=True)
                raise RuntimeError(f"exceeded max_slots={self.max_slots}")
            responders = protocol.responders()
            time, record = self.reader._run_slot(
                index, time, protocol, responders, identified, lost, bits
            )
            if record.identified_tag is not None:
                tag = next(
                    t for t in responders if t.tag_id == record.identified_tag
                )
                arrived = self._arrivals.get(id(tag), 0.0)
                sojourns.append(record.end_time - arrived)
            trace.append(record)
            protocol.feedback(
                record_effective(record, self.reader.policy), responders
            )
            index += 1
        stats = InventoryStats.from_trace(
            trace,
            n_tags=len(self._arrivals),
            frames=protocol.frames_started,
            id_bits=self.reader.timing.id_bits,
            tau=self.reader.timing.tau,
        )
        if inv_on:
            # Tags may depart unidentified, so the run is never "complete"
            # in the static-inventory sense; subset/partition checks only.
            _check_inventory(trace, seen_ids, identified, lost)
        if obs_on:
            _OBS.tracer.end_span(
                slots=index,
                identified=len(identified),
                escaped=len(escaped),
                airtime=time,
            )
            _inst.record_inventory("mobile", stats.frames, stats.total_time)
        return MobileInventoryResult(
            trace=trace,
            stats=stats,
            identified_ids=identified,
            escaped_ids=escaped,
            sojourn_delays=DelayStats.from_delays(sojourns),
            end_time=time,
        )
