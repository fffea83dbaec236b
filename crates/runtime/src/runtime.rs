//! The elastic control loop: serve → observe → re-schedule → migrate.
//!
//! [`run_elastic_with_cache`] closes the loop between the serving simulator
//! (`mars-serve`) and the co-scheduler (`mars-core`): a [`SimState`] replays
//! a non-stationary [`PhasedTraffic`] trace while the chosen
//! [`RuntimePolicy`] decides if and when the placement is re-searched:
//!
//! * [`Static`](RuntimePolicy::Static) — the offline baseline: one
//!   co-schedule up front, kept for the whole horizon.
//! * [`Reactive`](RuntimePolicy::Reactive) — a [`DriftMonitor`] watches the
//!   live stream; when it fires, `co_schedule` re-runs **warm-started** from
//!   the incumbent with the workloads' SLA weights scaled by the *observed*
//!   per-workload load, and the new placement activates only after the
//!   background-search delay, the in-flight drain and the
//!   [migration](crate::migrate) transfer are charged.
//! * [`Oracle`](RuntimePolicy::Oracle) — phase-boundary clairvoyant: it
//!   re-schedules exactly at each [`TrafficPhase`](mars_model::TrafficPhase)
//!   boundary using the phase's *true* rates, pays no detection lag and no
//!   search delay, but still pays the migration itself.  The gap between
//!   Reactive and Oracle is the price of having to *detect* drift.
//!
//! Everything is a pure function of `(workloads, topo, catalog, scenario,
//! trace, policy, config)`: co-schedules are thread-count-invariant, the
//! simulator and monitor are single-threaded pure state machines, and all
//! seeds derive from the schedule's master seed (`outer.seed` of
//! [`CoScheduleConfig::outer`]) — so the whole
//! [`ElasticReport`] is bit-identical across `MARS_THREADS` values and
//! repeat runs.

use crate::migrate::{migration_cost, MigrationCost};
use crate::monitor::{DriftMonitor, TriggerReason, WINDOW_SECONDS};
use mars_accel::Catalog;
use mars_core::{
    co_schedule_cached, CoScheduleConfig, CoScheduleError, CoScheduleResult, InnerSearchCache,
    Workload,
};
use mars_model::{FaultKind, PhasedTraffic, TrafficError};
use mars_obs::Recorder;
use mars_serve::{FaultPolicy, ServeConfig, ServeError, ServeReport, SimState, Trace};
use mars_topology::{AccelId, Topology};

/// Who decides when the placement changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuntimePolicy {
    /// One offline co-schedule, never changed.
    Static,
    /// Drift-triggered warm-started re-scheduling from observed load.
    Reactive,
    /// Phase-boundary clairvoyant re-scheduling from true rates.
    Oracle,
}

impl RuntimePolicy {
    /// All policies, in the order the benchmark tables print them.
    pub const ALL: [RuntimePolicy; 3] = [
        RuntimePolicy::Static,
        RuntimePolicy::Reactive,
        RuntimePolicy::Oracle,
    ];

    /// Short display name (`static`, `reactive`, `oracle`).
    pub fn name(self) -> &'static str {
        match self {
            RuntimePolicy::Static => "static",
            RuntimePolicy::Reactive => "reactive",
            RuntimePolicy::Oracle => "oracle",
        }
    }
}

impl std::fmt::Display for RuntimePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Launch margin of the EDF serving lanes, as a fraction of the batch cost:
/// healthy lanes meet deadlines robustly instead of by floating-point luck,
/// so the monitor's miss-rate signal means *drift*, not zero-slack
/// metastability.
const DEADLINE_SLACK: f64 = 0.2;
/// Simulated seconds a *reactive* background re-search takes before its
/// result can start migrating (the oracle pays zero — it is clairvoyant).
const RESCHEDULE_DELAY_SECONDS: f64 = 0.050;
/// Minimum simulated seconds between two reactive reconfigurations.
const COOLDOWN_SECONDS: f64 = 1.0;
/// Hard cap on *placement-changing* reconfigurations per run (a
/// runaway-trigger backstop; re-schedules that confirm the incumbent are
/// free and uncounted).
const MAX_RECONFIGURATIONS: usize = 6;
/// Migration budget: a re-schedule whose weight transfer would take longer
/// than this is declined (recorded but not applied).  Moving hundreds of
/// megabytes of weights can cost more serving time than a better placement
/// recovers — an elastic runtime must know when *not* to move.
const MAX_MIGRATION_SECONDS: f64 = 0.3;
/// How far observed load may scale a workload's SLA weight for the
/// re-search, as a factor in `[1/limit, limit]` around the base weight.
const WEIGHT_SHIFT_LIMIT: f64 = 8.0;
/// What happens to batches in flight on an accelerator the moment it fails.
const FAULT_POLICY: FaultPolicy = FaultPolicy::RequeueInflight;
/// Most monitor windows one run may span: a longer horizon would mean an
/// unbounded list of control-loop boundaries.
const MAX_WINDOWS_PER_RUN: f64 = 1e6;

/// Configuration of the elastic runtime: the budget of its co-schedules.
///
/// Everything else the runtime does is fixed: EDF serving with a 20% launch
/// margin, drift checks every 0.5 s of simulated time, fp16 weight
/// migration over the platform's links, a 50 ms background-search delay for
/// reactive re-schedules, a one-second cooldown between them, at most 6
/// placement changes per run, a 0.3 s migration budget, observed load
/// shifting SLA weights by up to 8x, and in-flight batches on a failed
/// accelerator requeued.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeConfig {
    /// Budget, master seed and (optional) warm start of every co-schedule
    /// the runtime runs; re-schedules always warm-start from the incumbent
    /// on top of this.
    pub schedule: CoScheduleConfig,
}

impl RuntimeConfig {
    /// The runtime around the given co-schedule budget.
    pub fn new(schedule: CoScheduleConfig) -> Self {
        Self { schedule }
    }
}

/// Errors of the elastic runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum ElasticError {
    /// The traffic scenario is malformed.
    Traffic(TrafficError),
    /// A co-schedule (initial or re-schedule) was rejected.
    Schedule(CoScheduleError),
    /// The serving simulator rejected its inputs.
    Serve(ServeError),
    /// The scenario, trace and workloads disagree on shape.
    ShapeMismatch {
        /// Number of workloads handed to the runtime.
        workloads: usize,
        /// Number of workloads the scenario describes.
        scenario: usize,
        /// Number of arrival streams in the trace.
        streams: usize,
    },
    /// The trace's horizon differs from the scenario's.
    HorizonMismatch {
        /// The scenario horizon in seconds.
        scenario: f64,
        /// The trace horizon in seconds.
        trace: f64,
    },
    /// The scenario spans more than 10⁶ monitor windows (500,000 s).
    HorizonTooLong {
        /// The scenario horizon in seconds.
        horizon: f64,
        /// The longest accepted horizon in seconds.
        max: f64,
    },
    /// A fault event in the scenario names an accelerator the topology does
    /// not have.
    FaultAccelOutOfRange {
        /// The accelerator index the fault names.
        accel: usize,
        /// How many accelerators the topology has.
        accelerators: usize,
    },
}

impl std::fmt::Display for ElasticError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ElasticError::Traffic(e) => write!(f, "traffic scenario: {e}"),
            ElasticError::Schedule(e) => write!(f, "co-schedule: {e}"),
            ElasticError::Serve(e) => write!(f, "serving: {e}"),
            ElasticError::ShapeMismatch {
                workloads,
                scenario,
                streams,
            } => write!(
                f,
                "shape mismatch: {workloads} workloads, scenario describes {scenario}, trace has {streams} streams"
            ),
            ElasticError::HorizonMismatch { scenario, trace } => {
                write!(f, "horizon mismatch: scenario {scenario}s, trace {trace}s")
            }
            ElasticError::HorizonTooLong { horizon, max } => {
                write!(f, "horizon {horizon}s exceeds the {max}s limit")
            }
            ElasticError::FaultAccelOutOfRange {
                accel,
                accelerators,
            } => write!(
                f,
                "fault names accelerator {accel} but the topology has {accelerators}"
            ),
        }
    }
}

impl std::error::Error for ElasticError {}

impl From<TrafficError> for ElasticError {
    fn from(e: TrafficError) -> Self {
        ElasticError::Traffic(e)
    }
}
impl From<CoScheduleError> for ElasticError {
    fn from(e: CoScheduleError) -> Self {
        ElasticError::Schedule(e)
    }
}
impl From<ServeError> for ElasticError {
    fn from(e: ServeError) -> Self {
        ElasticError::Serve(e)
    }
}

/// One reconfiguration decision the runtime took: a placement change, a
/// search that confirmed the incumbent, or a change declined because its
/// migration would take longer than the 0.3 s migration budget.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconfigureEvent {
    /// When the decision was taken (trigger instant or phase boundary).
    pub decided_at: f64,
    /// When the new placement went live: decision + background-search delay
    /// (reactive only) + in-flight drain + migration transfer.  Equal to
    /// [`decided_at`](Self::decided_at) when nothing was applied.
    pub activated_at: f64,
    /// Why the runtime re-scheduled.
    pub reason: TriggerReason,
    /// What the migration cost (for a declined change: what it *would* have
    /// cost); [`MigrationCost::is_free`] when the search confirmed the
    /// incumbent.
    pub migration: MigrationCost,
    /// `true` when the placement actually changed.
    pub applied: bool,
    /// Configuration epoch in force *after* this decision.  The run starts
    /// at epoch 0; every applied change increments it, so applied events
    /// carry strictly increasing epochs and declined events repeat the
    /// incumbent's.
    pub epoch: u64,
    /// Per-workload accelerator subsets in force after the decision (the new
    /// placement's when applied, the incumbent's when not).
    pub accels: Vec<Vec<AccelId>>,
    /// Accelerators that were down at the moment of the decision.
    pub down: Vec<AccelId>,
}

impl ReconfigureEvent {
    /// `true` when the re-schedule actually changed the placement.
    pub fn changed(&self) -> bool {
        self.applied
    }

    /// `true` when the search found a better placement but the migration
    /// budget declined it.
    pub fn declined(&self) -> bool {
        !self.applied && !self.migration.is_free()
    }
}

/// Outcome of one elastic serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ElasticReport {
    /// The policy that produced this report.
    pub policy: RuntimePolicy,
    /// The end-to-end serving outcome over the whole horizon.
    pub serve: ServeReport,
    /// Every reconfiguration, in decision order (empty for
    /// [`RuntimePolicy::Static`]).
    pub reconfigurations: Vec<ReconfigureEvent>,
    /// Drift triggers the monitor fired, including any suppressed by the
    /// cooldown or the reconfiguration cap (always 0 for Static and Oracle,
    /// which do not run the monitor).
    pub triggers_fired: usize,
}

impl ElasticReport {
    /// Reconfigurations that actually changed the placement.
    pub fn placements_changed(&self) -> usize {
        self.reconfigurations.iter().filter(|e| e.changed()).count()
    }

    /// Total simulated seconds spent migrating weights (applied changes
    /// only — declined migrations cost nothing).
    pub fn migration_seconds(&self) -> f64 {
        // Folded from +0.0: an empty `f64` sum is -0.0.
        self.reconfigurations
            .iter()
            .filter(|e| e.applied)
            .fold(0.0, |total, e| total + e.migration.seconds)
    }

    /// The configuration epoch the run ended on: 0 if the placement never
    /// changed, otherwise the epoch of the last applied reconfiguration.
    pub fn final_epoch(&self) -> u64 {
        self.reconfigurations
            .iter()
            .filter(|e| e.applied)
            .map(|e| e.epoch)
            .max()
            .unwrap_or(0)
    }
}

/// Runs the elastic serving loop — see the crate docs for the policy
/// semantics.  `trace` must be drawn from `scenario` (same horizon, same
/// workload count); use [`Trace::phased`].
///
/// Inner searches go through `cache`, re-plans on the survivors of a
/// failure included, so several runs over the same
/// `(workloads, topo, catalog, schedule)` — the Static/Reactive/Oracle
/// comparison of `table_elastic` — share every one; a single run passes
/// `&InnerSearchCache::new()`.  See [`InnerSearchCache`] for the
/// reuse-soundness contract.
///
/// # Errors
///
/// Rejects malformed scenarios, shape mismatches and horizons past 10⁶
/// monitor windows, and propagates co-scheduler and simulator rejections —
/// see [`ElasticError`].
#[allow(clippy::too_many_arguments)]
pub fn run_elastic_with_cache(
    workloads: &[Workload],
    topo: &Topology,
    catalog: &Catalog,
    scenario: &PhasedTraffic,
    trace: &Trace,
    policy: RuntimePolicy,
    config: &RuntimeConfig,
    cache: &InnerSearchCache,
) -> Result<ElasticReport, ElasticError> {
    run_elastic_observed(
        workloads,
        topo,
        catalog,
        scenario,
        trace,
        policy,
        config,
        cache,
        &Recorder::disabled(),
    )
}

/// [`run_elastic_with_cache`] with an observability [`Recorder`] attached:
/// the serving simulation streams its lane metrics and fault instants into
/// it, the drift monitor records its per-window signal series, and the
/// trigger → re-plan → migrate → epoch timeline lands on the `"runtime"`
/// trace track.  Everything recorded derives from the simulation clock and
/// the deterministic event list, so the returned [`ElasticReport`] is
/// bit-identical whether the recorder is enabled, disabled, or absent.
///
/// # Errors
///
/// As for [`run_elastic_with_cache`].
#[allow(clippy::too_many_arguments)]
pub fn run_elastic_observed(
    workloads: &[Workload],
    topo: &Topology,
    catalog: &Catalog,
    scenario: &PhasedTraffic,
    trace: &Trace,
    policy: RuntimePolicy,
    config: &RuntimeConfig,
    cache: &InnerSearchCache,
    recorder: &Recorder,
) -> Result<ElasticReport, ElasticError> {
    scenario.validate()?;
    let k = workloads.len();
    if scenario.workloads() != k || trace.arrivals.len() != k {
        return Err(ElasticError::ShapeMismatch {
            workloads: k,
            scenario: scenario.workloads(),
            streams: trace.arrivals.len(),
        });
    }
    if trace.horizon_seconds.to_bits() != scenario.horizon_seconds.to_bits() {
        return Err(ElasticError::HorizonMismatch {
            scenario: scenario.horizon_seconds,
            trace: trace.horizon_seconds,
        });
    }
    // The control loop keeps one boundary per monitor window: reject a
    // horizon that would make that list unbounded up front instead of
    // building it.
    if scenario.horizon_seconds / WINDOW_SECONDS > MAX_WINDOWS_PER_RUN {
        return Err(ElasticError::HorizonTooLong {
            horizon: scenario.horizon_seconds,
            max: MAX_WINDOWS_PER_RUN * WINDOW_SECONDS,
        });
    }
    if let Some(accel) = scenario.max_fault_accel() {
        if accel >= topo.len() {
            return Err(ElasticError::FaultAccelOutOfRange {
                accel,
                accelerators: topo.len(),
            });
        }
    }

    // The shared starting point of every policy: the plain co-schedule of
    // the base workloads (what an offline deployment would compute).
    let mut incumbent = co_schedule_cached(workloads, topo, catalog, &config.schedule, cache)?;
    let mut sim = SimState::new(
        &incumbent,
        &scenario.phases[0].profiles,
        trace,
        &ServeConfig::default().with_deadline_slack(DEADLINE_SLACK),
    )?
    .with_recorder(recorder.clone());
    let mut monitor = DriftMonitor::new(sim.snapshot()).with_recorder(recorder.clone());

    // Control-loop boundaries: every monitor window mark plus every phase
    // start plus every fault instant, in order.  Instants that coincide are
    // processed once (faults first, then phase bookkeeping, then
    // observation).
    let horizon = scenario.horizon_seconds;
    let mut boundaries: Vec<f64> = Vec::new();
    let mut mark = WINDOW_SECONDS;
    while mark < horizon {
        boundaries.push(mark);
        mark += WINDOW_SECONDS;
    }
    boundaries.extend(scenario.boundaries());
    boundaries.extend(scenario.fault_instants());
    boundaries.sort_by(f64::total_cmp);
    boundaries.dedup_by(|a, b| a.to_bits() == b.to_bits());

    let mut events: Vec<ReconfigureEvent> = Vec::new();
    let mut last_obs = 0.0f64;
    let mut last_reconfig = f64::NEG_INFINITY;
    let mut sla_factors: Vec<f64> = scenario.phases[0].sla_factors();

    // Fault bookkeeping: the next unprocessed fault, the current host-link
    // health (scales migration transfer time) and the configuration epoch.
    let mut fault_idx = 0usize;
    let mut link_factor = 1.0f64;
    let mut epoch = 0u64;

    for &t in &boundaries {
        sim.run_until(t);

        // Faults land first: the rest of this boundary's decisions must see
        // the post-fault pool.
        let mut pool_changed = false;
        while fault_idx < scenario.faults.len()
            && scenario.faults[fault_idx].at_seconds.to_bits() == t.to_bits()
        {
            match scenario.faults[fault_idx].kind {
                FaultKind::AccelDown { accel } => {
                    sim.fail_accel(AccelId(accel), FAULT_POLICY);
                    pool_changed = true;
                }
                FaultKind::AccelRestored { accel } => {
                    sim.restore_accel(AccelId(accel));
                    pool_changed = true;
                }
                FaultKind::LinkDegraded { factor } => link_factor = factor,
            }
            fault_idx += 1;
        }

        // Phase bookkeeping: new SLA budgets for everyone.
        let phase = scenario.phase_index_at(t);
        let is_phase_start = scenario.phases[phase].start_seconds.to_bits() == t.to_bits();
        if is_phase_start {
            sla_factors = scenario.phases[phase].sla_factors();
            sim.set_sla_factors(&sla_factors)?;
        }

        // Oracle: re-schedule at every phase boundary and every pool change,
        // from the phase's true rates, with zero detection lag.  A pool
        // change that coincides with a phase start is one decision, not two.
        if policy == RuntimePolicy::Oracle && (pool_changed || is_phase_start) {
            let rates: Vec<f64> = scenario.phases[phase].rates_qps();
            let reason = if pool_changed {
                TriggerReason::TopologyChanged {
                    down: sim.down().to_vec(),
                }
            } else {
                TriggerReason::PhaseBoundary { phase }
            };
            reconfigure(
                &mut sim,
                &mut incumbent,
                &mut events,
                &mut epoch,
                Reschedule {
                    workloads,
                    topo,
                    catalog,
                    config,
                    cache,
                    at: t,
                    rates: &rates,
                    delay: 0.0,
                    reason,
                    sla_factors: &sla_factors,
                    link_factor,
                },
            )?;
            monitor.rebase(&sim.snapshot());
        }

        // Reactive: observe the window that just ended; maybe re-schedule.
        // A topology trigger bypasses both the cooldown and the
        // reconfiguration cap — surviving a failure outranks rate limiting.
        if policy == RuntimePolicy::Reactive {
            let arrivals: Vec<usize> = (0..k).map(|w| trace.arrivals_in(w, last_obs, t)).collect();
            let window = (t - last_obs).max(f64::MIN_POSITIVE);
            if let Some(trigger) = monitor.observe(&sim.snapshot(), &arrivals) {
                let topology = matches!(trigger.reason, TriggerReason::TopologyChanged { .. });
                let calm = t - last_reconfig >= COOLDOWN_SECONDS;
                let changed = events.iter().filter(|e| e.changed()).count();
                if topology || (calm && changed < MAX_RECONFIGURATIONS) {
                    let rates: Vec<f64> = trigger
                        .window_arrivals
                        .iter()
                        .map(|&n| n as f64 / window)
                        .collect();
                    reconfigure(
                        &mut sim,
                        &mut incumbent,
                        &mut events,
                        &mut epoch,
                        Reschedule {
                            workloads,
                            topo,
                            catalog,
                            config,
                            cache,
                            at: t,
                            rates: &rates,
                            delay: RESCHEDULE_DELAY_SECONDS,
                            reason: trigger.reason,
                            sla_factors: &sla_factors,
                            link_factor,
                        },
                    )?;
                    last_reconfig = t;
                    monitor.rebase(&sim.snapshot());
                }
            }
        }
        last_obs = t;
    }

    let triggers_fired = monitor.triggers_fired();
    record_timeline(recorder, &events, triggers_fired);
    Ok(ElasticReport {
        policy,
        serve: sim.finish(),
        reconfigurations: events,
        triggers_fired,
    })
}

/// Records the reconfiguration timeline on the `"runtime"` trace track plus
/// the headline counters — called once per run, after the control loop, so
/// recording can never perturb the decisions it describes.
fn record_timeline(recorder: &Recorder, events: &[ReconfigureEvent], triggers_fired: usize) {
    if !recorder.is_enabled() {
        return;
    }
    for e in events {
        recorder.instant("runtime", &format!("trigger:{}", e.reason), e.decided_at);
        if e.applied {
            // decided → (re-plan + drain) → migrate → new epoch active.
            let migrate_start = e.activated_at - e.migration.seconds;
            recorder.span(
                "runtime",
                &format!("replan+drain(epoch {})", e.epoch),
                e.decided_at,
                migrate_start,
            );
            if !e.migration.is_free() {
                recorder.span(
                    "runtime",
                    &format!("migrate(epoch {})", e.epoch),
                    migrate_start,
                    e.activated_at,
                );
            }
            recorder.instant("runtime", &format!("epoch:{}", e.epoch), e.activated_at);
        } else {
            recorder.instant("runtime", "declined", e.decided_at);
        }
    }
    recorder.counter("runtime/triggers_fired", triggers_fired as u64);
    recorder.counter("runtime/reconfigurations", events.len() as u64);
    recorder.counter(
        "runtime/placements_changed",
        events.iter().filter(|e| e.changed()).count() as u64,
    );
}

/// Everything one re-schedule decision needs (bundled to keep the call sites
/// readable).
struct Reschedule<'a> {
    workloads: &'a [Workload],
    topo: &'a Topology,
    catalog: &'a Catalog,
    config: &'a RuntimeConfig,
    cache: &'a InnerSearchCache,
    /// Decision instant.
    at: f64,
    /// Requests per second per workload driving the re-weighting.
    rates: &'a [f64],
    /// Background-search delay charged before migration starts.
    delay: f64,
    reason: TriggerReason,
    /// SLA factors in force (forwarded to the simulator on activation).
    sla_factors: &'a [f64],
    /// Current host-link health in `(0, 1]`; migration transfer time is
    /// divided by it, so a degraded link makes every move more expensive.
    link_factor: f64,
}

/// Runs one warm-started re-schedule — over the full topology when every
/// accelerator is healthy, over the surviving sub-topology otherwise — and,
/// if the placement changed, charges drain + delay + migration before
/// activating it.  Applied changes increment `epoch`.
fn reconfigure(
    sim: &mut SimState,
    incumbent: &mut CoScheduleResult,
    events: &mut Vec<ReconfigureEvent>,
    epoch: &mut u64,
    r: Reschedule<'_>,
) -> Result<(), ElasticError> {
    let down = sim.down().to_vec();
    // A recovery move: the incumbent parks a workload on a dead accelerator.
    // Such a placement serves nothing, so the migration budget must not be
    // allowed to veto the move off it.
    let incumbent_dead = incumbent
        .placements
        .iter()
        .any(|p| p.accels.iter().any(|a| down.contains(a)));

    // Effective SLA weights: base × (load share), clamped.  Load is the
    // service demand the observed rate implies *on the incumbent placement*
    // (rate × per-inference latency), so a surged workload on a slow
    // partition shouts loudest.
    let loads: Vec<f64> = r
        .rates
        .iter()
        .zip(incumbent.placements.iter())
        .map(|(&rate, p)| rate * p.result.mapping.latency_seconds)
        .collect();
    let mean = loads.iter().sum::<f64>() / loads.len().max(1) as f64;
    let has_load = mean > 0.0 && mean.is_finite();
    if !has_load && !incumbent_dead {
        // Nothing is arriving at all (or the rates are garbage): there is no
        // load signal to adapt to — keep the incumbent.
        return Ok(());
    }
    let eff: Vec<Workload> = r
        .workloads
        .iter()
        .zip(&loads)
        .map(|(w, &load)| {
            // With no load signal (a recovery under a silent window), fall
            // back to the base weights.
            let shift = if has_load {
                (load / mean).clamp(1.0 / WEIGHT_SHIFT_LIMIT, WEIGHT_SHIFT_LIMIT)
            } else {
                1.0
            };
            w.clone().with_weight(w.weight * shift)
        })
        .collect();

    let new_co = if down.is_empty() {
        let schedule = r.config.schedule.clone().warm_start(incumbent);
        co_schedule_cached(&eff, r.topo, r.catalog, &schedule, r.cache)?
    } else {
        // Re-plan on the surviving sub-topology.  If there are not enough
        // survivors to give every workload a partition (or the sub-topology
        // cannot be built), keep the incumbent and wait for a restore.
        let survivors: Vec<AccelId> = r
            .topo
            .accelerators()
            .filter(|a| !down.contains(a))
            .collect();
        if survivors.len() < r.workloads.len() {
            return Ok(());
        }
        let Ok((sub_topo, map)) = r.topo.subtopology(&survivors) else {
            return Ok(());
        };
        // Warm-start from the incumbent *restricted to the survivors*: each
        // placement's accelerators filtered to the live set and renamed into
        // the sub-topology's contiguous id space.  If a placement loses its
        // whole partition the restriction is meaningless — cold-start.
        let to_local = |a: &AccelId| map.iter().position(|g| g == a).map(AccelId);
        let mut restricted = incumbent.clone();
        let mut restrictable = true;
        for p in &mut restricted.placements {
            let local: Vec<AccelId> = p.accels.iter().filter_map(to_local).collect();
            if local.is_empty() {
                restrictable = false;
                break;
            }
            p.accels = local;
        }
        let mut schedule = r.config.schedule.clone();
        if restrictable {
            schedule = schedule.warm_start(&restricted);
        }
        // The cache keys inner searches on sub-platform content, so the
        // survivors' searches share it with the full-pool ones.
        let mut sub_co = co_schedule_cached(&eff, &sub_topo, r.catalog, &schedule, r.cache)?;
        // Rename the winning placements back into the global id space.
        for p in &mut sub_co.placements {
            for a in &mut p.accels {
                *a = map[a.0];
            }
        }
        sub_co
    };

    let mut migration = migration_cost(r.topo, r.workloads, incumbent, &new_co);
    if r.link_factor < 1.0 {
        migration.seconds /= r.link_factor;
    }
    if migration.is_free() || (!incumbent_dead && migration.seconds > MAX_MIGRATION_SECONDS) {
        // Either the search confirmed the incumbent (free), or the better
        // placement is not worth its transfer bill: record the decision,
        // change nothing, pay nothing.  (A recovery move is never declined
        // on budget — see `incumbent_dead` above.)
        events.push(ReconfigureEvent {
            decided_at: r.at,
            activated_at: r.at,
            reason: r.reason,
            migration,
            applied: false,
            epoch: *epoch,
            accels: incumbent
                .placements
                .iter()
                .map(|p| p.accels.clone())
                .collect(),
            down,
        });
        return Ok(());
    }
    // Drain in-flight batches, wait out the background search, then move the
    // weights; the new placement serves from `activated_at` on.
    let drained = sim.drain_seconds().max(r.at + r.delay);
    let activated_at = drained + migration.seconds;
    sim.apply_placements(&new_co, r.sla_factors, activated_at)?;
    *epoch += 1;
    events.push(ReconfigureEvent {
        decided_at: r.at,
        activated_at,
        reason: r.reason,
        migration,
        applied: true,
        epoch: *epoch,
        accels: new_co.placements.iter().map(|p| p.accels.clone()).collect(),
        down,
    });
    *incumbent = new_co;
    Ok(())
}
