//! A schedulable workload: a network plus its service parameters, and the
//! traffic profile describing how requests for it arrive online.

use crate::graph::Network;

/// One workload of a multi-DNN scenario: a [`Network`] together with the
/// service parameters the co-scheduler optimises for.  The bundled mixes in
/// [`zoo::MixZoo`](crate::zoo::MixZoo) produce these, and
/// `mars_core::scheduler` consumes them.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The computation graph to place.
    pub network: Network,
    /// SLA weight: relative latency criticality (higher = stricter).  Scales
    /// the workload's completion time in the weighted-makespan objective.
    pub weight: f64,
    /// Inferences per scheduling round; the workload occupies its partition
    /// for `batch` back-to-back inferences.
    pub batch: usize,
    /// Resident memory the workload needs on **every** accelerator of its
    /// partition, in bytes (model weights plus peak KV cache for
    /// autoregressive workloads).  Zero — the default, and the right value
    /// for the CNN zoo whose activations stream through on-chip buffers —
    /// means "no memory constraint".  The co-scheduler treats a non-zero
    /// footprint as a *hard* placement constraint: a partition whose
    /// tightest accelerator cannot hold it is rejected, not penalised.
    pub memory_bytes: u64,
}

impl Workload {
    /// Creates a workload with an SLA weight of 1, a batch of 1 and no
    /// memory footprint.
    pub fn new(network: Network) -> Self {
        Self {
            network,
            weight: 1.0,
            batch: 1,
            memory_bytes: 0,
        }
    }

    /// Sets the SLA weight.
    pub fn with_weight(mut self, weight: f64) -> Self {
        self.weight = weight;
        self
    }

    /// Sets the batch size.
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch;
        self
    }

    /// Sets the per-accelerator resident-memory footprint.
    pub fn with_memory_bytes(mut self, memory_bytes: u64) -> Self {
        self.memory_bytes = memory_bytes;
        self
    }

    /// Total compute demand: MACs per inference times batch.  Drives the
    /// co-scheduler's greedy partition seed (bigger demand → bigger subset).
    pub fn demand_macs(&self) -> u64 {
        self.network.total_macs() * self.batch as u64
    }
}

/// The online arrival pattern of one workload's request stream.
///
/// A co-schedule gives every workload a dedicated accelerator partition; the
/// serving simulator (`mars-serve`) replays a seeded Poisson-like request
/// stream with this profile against that partition.  The SLA is expressed
/// *relative* to the partition's per-inference latency so that one profile is
/// meaningful across platforms of different speed: a request arriving at `t`
/// on a placement with per-inference latency `L` must complete by
/// `t + sla_factor × L`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficProfile {
    /// Mean arrival rate in requests per second (the Poisson intensity).
    pub qps: f64,
    /// Deadline budget in units of the placement's per-inference latency.
    pub sla_factor: f64,
}

impl TrafficProfile {
    /// Creates a profile with the given arrival rate and SLA budget.
    pub fn new(qps: f64, sla_factor: f64) -> Self {
        Self { qps, sla_factor }
    }

    /// A profile whose stream is silent: zero arrivals per second.  Used by
    /// [`TrafficPhase`]s to model a workload that has *departed* (or not yet
    /// arrived) during part of a [`PhasedTraffic`] scenario.
    pub fn silent(sla_factor: f64) -> Self {
        Self {
            qps: 0.0,
            sla_factor,
        }
    }

    /// `true` when the profile produces no requests (non-positive or
    /// non-finite rate).
    pub fn is_silent(&self) -> bool {
        !(self.qps > 0.0 && self.qps.is_finite())
    }
}

/// What happens to the accelerator pool at a [`FaultEvent`]'s instant.
///
/// Accelerators are named by their *index* in the serving platform's
/// topology (the model crate stays topology-agnostic; the elastic runtime
/// checks the index against the actual pool size).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The accelerator dies: batches in flight on it are lost or requeued
    /// (per the serving simulator's fault policy) and no new batch may be
    /// dispatched to it until an [`AccelRestored`](FaultKind::AccelRestored)
    /// event revives it.
    AccelDown {
        /// Index of the failing accelerator in the platform topology.
        accel: usize,
    },
    /// A previously-failed accelerator rejoins the pool.
    AccelRestored {
        /// Index of the recovering accelerator in the platform topology.
        accel: usize,
    },
    /// Every link of the platform degrades: migration traffic moves at
    /// `factor` times its healthy bandwidth from this instant on (serving
    /// itself is intra-partition and keeps its placement-time latency).
    LinkDegraded {
        /// Remaining fraction of healthy bandwidth, in `(0, 1]`.
        factor: f64,
    },
}

/// One hardware fault injected into a [`PhasedTraffic`] scenario: at
/// [`at_seconds`](FaultEvent::at_seconds) the pool changes per
/// [`kind`](FaultEvent::kind).
///
/// Faults are deterministic scenario data, not random processes — the same
/// scenario always fails the same accelerator at the same instant, which
/// keeps failover runs bit-identical across thread counts and repeat runs.
///
/// ```
/// use mars_model::{FaultEvent, FaultKind};
///
/// let dies = FaultEvent::accel_down(2.5, 3);
/// assert_eq!(dies.kind, FaultKind::AccelDown { accel: 3 });
/// let heals = FaultEvent::accel_restored(8.0, 3);
/// assert_eq!(heals.at_seconds, 8.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// When the fault strikes, in seconds from the start of the scenario
    /// (strictly inside `(0, horizon)`).
    pub at_seconds: f64,
    /// What the fault does to the pool.
    pub kind: FaultKind,
}

impl FaultEvent {
    /// An accelerator failure at `at_seconds`.
    pub fn accel_down(at_seconds: f64, accel: usize) -> Self {
        Self {
            at_seconds,
            kind: FaultKind::AccelDown { accel },
        }
    }

    /// An accelerator recovery at `at_seconds`.
    pub fn accel_restored(at_seconds: f64, accel: usize) -> Self {
        Self {
            at_seconds,
            kind: FaultKind::AccelRestored { accel },
        }
    }

    /// A link degradation to `factor` of healthy bandwidth at `at_seconds`.
    pub(crate) fn link_degraded(at_seconds: f64, factor: f64) -> Self {
        Self {
            at_seconds,
            kind: FaultKind::LinkDegraded { factor },
        }
    }
}

/// Errors rejected when validating a [`PhasedTraffic`] scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum TrafficError {
    /// The scenario has no phases.
    NoPhases,
    /// The scenario's horizon is not a positive finite number.
    InvalidHorizon(f64),
    /// A phase starts outside `[0, horizon)`, or phase 0 does not start at 0.
    InvalidPhaseStart {
        /// Index of the offending phase.
        phase: usize,
        /// Its rejected start time in seconds.
        start_seconds: f64,
    },
    /// Phase starts are not strictly increasing.
    UnsortedPhases {
        /// Index of the phase that starts at or before its predecessor.
        phase: usize,
    },
    /// A phase's profile count differs from the scenario's workload count.
    WorkloadMismatch {
        /// Index of the offending phase.
        phase: usize,
        /// Number of profiles every phase must carry.
        expected: usize,
        /// Number of profiles the phase actually carries.
        got: usize,
    },
    /// A profile's SLA factor is not a positive finite number (a silent
    /// *rate* is legal — it models departure — but the deadline budget of a
    /// phase must always be meaningful).
    InvalidSla {
        /// Index of the offending phase.
        phase: usize,
        /// Index of the offending workload within the phase.
        workload: usize,
        /// The rejected factor.
        sla_factor: f64,
    },
    /// A fault event's instant is not strictly inside `(0, horizon)`, or is
    /// not finite.
    InvalidFaultTime {
        /// Index of the offending fault event.
        fault: usize,
        /// Its rejected instant in seconds.
        at_seconds: f64,
    },
    /// Fault events are not sorted by non-decreasing instant.
    UnsortedFaults {
        /// Index of the fault event that strikes before its predecessor.
        fault: usize,
    },
    /// A [`FaultKind::LinkDegraded`] factor is outside `(0, 1]`.
    InvalidLinkFactor {
        /// Index of the offending fault event.
        fault: usize,
        /// The rejected bandwidth factor.
        factor: f64,
    },
    /// The fault sequence is inconsistent: an accelerator goes down while
    /// already down, or is restored while up.
    InconsistentFault {
        /// Index of the offending fault event.
        fault: usize,
        /// Index of the accelerator whose state the event contradicts.
        accel: usize,
    },
    /// An LLM lane's KV budget cannot hold one maximal request (prompt plus
    /// full output), so such a request could never be admitted.
    RequestExceedsKvBudget {
        /// Index of the offending workload.
        workload: usize,
        /// KV bytes of one maximal request.
        request_bytes: u64,
        /// The lane's KV budget in bytes.
        budget_bytes: u64,
    },
    /// A workload expects more than [`MAX_EXPECTED_ARRIVALS`] (2^32)
    /// arrivals over the scenario (qps × the window of each phase where it
    /// is not silent, summed), more than a drawn trace can hold.
    TooManyArrivals {
        /// Index of the offending workload.
        workload: usize,
        /// Its expected arrival count.
        expected: f64,
    },
}

/// The most arrivals one workload may expect over a traffic scenario:
/// 2^32.  [`PhasedTraffic::validate`] and every trace draw reject more
/// with [`TrafficError::TooManyArrivals`] before anything is reserved.
pub const MAX_EXPECTED_ARRIVALS: f64 = 4_294_967_296.0;

impl std::fmt::Display for TrafficError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrafficError::NoPhases => write!(f, "phased traffic has no phases"),
            TrafficError::InvalidHorizon(h) => write!(f, "invalid traffic horizon {h}"),
            TrafficError::InvalidPhaseStart {
                phase,
                start_seconds,
            } => write!(f, "phase {phase} has invalid start {start_seconds}s"),
            TrafficError::UnsortedPhases { phase } => {
                write!(f, "phase {phase} does not start after its predecessor")
            }
            TrafficError::WorkloadMismatch {
                phase,
                expected,
                got,
            } => write!(
                f,
                "phase {phase} carries {got} profiles, expected {expected}"
            ),
            TrafficError::InvalidSla {
                phase,
                workload,
                sla_factor,
            } => write!(
                f,
                "phase {phase}, workload {workload}: invalid SLA factor {sla_factor}"
            ),
            TrafficError::InvalidFaultTime { fault, at_seconds } => {
                write!(f, "fault {fault} strikes at invalid instant {at_seconds}s")
            }
            TrafficError::UnsortedFaults { fault } => {
                write!(f, "fault {fault} strikes before its predecessor")
            }
            TrafficError::InvalidLinkFactor { fault, factor } => {
                write!(f, "fault {fault} has invalid link factor {factor}")
            }
            TrafficError::InconsistentFault { fault, accel } => write!(
                f,
                "fault {fault} contradicts accelerator {accel}'s up/down state"
            ),
            TrafficError::RequestExceedsKvBudget {
                workload,
                request_bytes,
                budget_bytes,
            } => write!(
                f,
                "workload {workload}: one maximal request ({request_bytes} B) exceeds the lane's KV budget ({budget_bytes} B)"
            ),
            TrafficError::TooManyArrivals { workload, expected } => write!(
                f,
                "workload {workload} expects {expected} arrivals, more than {MAX_EXPECTED_ARRIVALS}"
            ),
        }
    }
}

impl std::error::Error for TrafficError {}

/// One piece of a piecewise-stationary traffic scenario: from
/// [`start_seconds`](TrafficPhase::start_seconds) until the next phase begins
/// (or the scenario's horizon ends), workload `w`'s requests arrive
/// Poisson-like at `profiles[w].qps` with deadline budget
/// `profiles[w].sla_factor`.
///
/// The schema deliberately stays piecewise-*constant*: ramps are expressed as
/// a staircase of phases, a burst is a short high-qps phase, and workload
/// arrival/departure is a phase whose profile for that workload is
/// [`TrafficProfile::silent`].  Piecewise-constant phases keep trace
/// generation exactly reproducible (one RNG stream per `(workload, phase)`)
/// and give the oracle runtime policy an unambiguous set of boundaries to be
/// clairvoyant about.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficPhase {
    /// When this phase begins, in seconds from the start of the scenario.
    /// Phase 0 must start at `0.0`; later phases must start strictly after
    /// their predecessor and strictly before the scenario horizon.
    pub start_seconds: f64,
    /// One profile per workload, in workload order.  A
    /// [silent](TrafficProfile::is_silent) profile models the workload being
    /// absent for the duration of the phase.
    pub profiles: Vec<TrafficProfile>,
}

impl TrafficPhase {
    /// Creates a phase starting at `start_seconds` with the given profiles.
    pub fn new(start_seconds: f64, profiles: Vec<TrafficProfile>) -> Self {
        Self {
            start_seconds,
            profiles,
        }
    }

    /// The per-workload SLA factors of this phase, in workload order — the
    /// vector runtime consumers feed to the serving engine's
    /// `set_sla_factors` at each phase boundary.
    pub fn sla_factors(&self) -> Vec<f64> {
        self.profiles.iter().map(|p| p.sla_factor).collect()
    }

    /// The per-workload offered rates of this phase, clamped to `>= 0` qps
    /// (silent profiles encode absence as zero, never negative demand).
    pub fn rates_qps(&self) -> Vec<f64> {
        self.profiles.iter().map(|p| p.qps.max(0.0)).collect()
    }
}

/// A non-stationary traffic scenario: a sequence of piecewise-constant
/// [`TrafficPhase`]s over a fixed horizon.
///
/// This is the input vocabulary of the elastic runtime (`mars-runtime`): the
/// serving trace is drawn phase by phase, the drift monitor watches the live
/// stream for the resulting shifts, and the oracle policy reads
/// [`boundaries`](PhasedTraffic::boundaries) directly.  A scenario with a
/// single phase is ordinary stationary traffic
/// ([`stationary`](PhasedTraffic::stationary)).
///
/// ```
/// use mars_model::{PhasedTraffic, TrafficPhase, TrafficProfile};
///
/// let scenario = PhasedTraffic::new(
///     2.0,
///     vec![
///         TrafficPhase::new(0.0, vec![TrafficProfile::new(100.0, 5.0)]),
///         TrafficPhase::new(1.0, vec![TrafficProfile::new(400.0, 5.0)]),
///     ],
/// );
/// scenario.validate().unwrap();
/// assert_eq!(scenario.phase_index_at(0.5), 0);
/// assert_eq!(scenario.phase_index_at(1.5), 1);
/// assert_eq!(scenario.boundaries(), vec![1.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PhasedTraffic {
    /// Length of the scenario in seconds; no request arrives at or after
    /// this instant.
    pub horizon_seconds: f64,
    /// The phases, ordered by strictly increasing
    /// [`TrafficPhase::start_seconds`], the first at `0.0`.
    pub phases: Vec<TrafficPhase>,
    /// Hardware faults injected into the scenario, ordered by non-decreasing
    /// [`FaultEvent::at_seconds`].  Empty for a healthy pool — a scenario
    /// with `faults = []` is served exactly as if the field did not exist.
    pub faults: Vec<FaultEvent>,
}

impl PhasedTraffic {
    /// Creates a scenario from explicit phases (validate with
    /// [`validate`](Self::validate)).
    pub fn new(horizon_seconds: f64, phases: Vec<TrafficPhase>) -> Self {
        Self {
            horizon_seconds,
            phases,
            faults: Vec::new(),
        }
    }

    /// A single-phase (stationary) scenario: the given profiles hold for the
    /// whole horizon.
    pub fn stationary(profiles: Vec<TrafficProfile>, horizon_seconds: f64) -> Self {
        Self {
            horizon_seconds,
            phases: vec![TrafficPhase::new(0.0, profiles)],
            faults: Vec::new(),
        }
    }

    /// Attaches hardware [`FaultEvent`]s to the scenario (validate with
    /// [`validate`](Self::validate)).
    ///
    /// ```
    /// use mars_model::{FaultEvent, PhasedTraffic, TrafficProfile};
    ///
    /// let scenario = PhasedTraffic::stationary(vec![TrafficProfile::new(50.0, 5.0)], 10.0)
    ///     .with_faults(vec![
    ///         FaultEvent::accel_down(3.0, 1),
    ///         FaultEvent::accel_restored(7.0, 1),
    ///     ]);
    /// scenario.validate().unwrap();
    /// assert_eq!(scenario.fault_instants(), vec![3.0, 7.0]);
    /// ```
    pub fn with_faults(mut self, faults: Vec<FaultEvent>) -> Self {
        self.faults = faults;
        self
    }

    /// Number of workloads every phase describes (0 for an empty scenario).
    pub fn workloads(&self) -> usize {
        self.phases.first().map_or(0, |p| p.profiles.len())
    }

    /// Checks the schema invariants: at least one phase, a positive finite
    /// horizon, phase 0 at `0.0`, strictly increasing starts inside
    /// `[0, horizon)`, a consistent workload count, positive finite SLA
    /// factors everywhere (silent *rates* are legal, silent deadlines are
    /// not), and at most 2^32 expected arrivals per workload, so drawing a
    /// trace never asks for more memory than exists.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant — see [`TrafficError`].
    pub fn validate(&self) -> Result<(), TrafficError> {
        if self.phases.is_empty() {
            return Err(TrafficError::NoPhases);
        }
        if !(self.horizon_seconds > 0.0 && self.horizon_seconds.is_finite()) {
            return Err(TrafficError::InvalidHorizon(self.horizon_seconds));
        }
        let expected = self.workloads();
        let mut prev = f64::NEG_INFINITY;
        for (i, phase) in self.phases.iter().enumerate() {
            let start = phase.start_seconds;
            let valid_start = if i == 0 {
                start == 0.0
            } else {
                start.is_finite() && (0.0..self.horizon_seconds).contains(&start)
            };
            if !valid_start {
                return Err(TrafficError::InvalidPhaseStart {
                    phase: i,
                    start_seconds: start,
                });
            }
            if start <= prev {
                return Err(TrafficError::UnsortedPhases { phase: i });
            }
            prev = start;
            if phase.profiles.len() != expected {
                return Err(TrafficError::WorkloadMismatch {
                    phase: i,
                    expected,
                    got: phase.profiles.len(),
                });
            }
            for (w, p) in phase.profiles.iter().enumerate() {
                if !(p.sla_factor > 0.0 && p.sla_factor.is_finite()) {
                    return Err(TrafficError::InvalidSla {
                        phase: i,
                        workload: w,
                        sla_factor: p.sla_factor,
                    });
                }
            }
        }
        for workload in 0..expected {
            let arrivals = (self.phases.iter().enumerate())
                .filter(|(_, phase)| !phase.profiles[workload].is_silent())
                .map(|(i, phase)| {
                    let window = self.phase_end(i) - phase.start_seconds;
                    phase.profiles[workload].qps * window
                })
                .sum::<f64>();
            if arrivals > MAX_EXPECTED_ARRIVALS {
                return Err(TrafficError::TooManyArrivals {
                    workload,
                    expected: arrivals,
                });
            }
        }
        validate_faults(&self.faults, self.horizon_seconds)
    }

    /// Index of the phase active at time `t` (clamped: times before 0 map to
    /// phase 0, times at or past the horizon to the last phase).
    pub fn phase_index_at(&self, t: f64) -> usize {
        self.phases
            .iter()
            .rposition(|p| p.start_seconds <= t)
            .unwrap_or(0)
    }

    /// The profiles active at time `t` (see
    /// [`phase_index_at`](Self::phase_index_at)).
    pub fn profiles_at(&self, t: f64) -> &[TrafficProfile] {
        &self.phases[self.phase_index_at(t)].profiles
    }

    /// The end of phase `i`: the next phase's start, or the horizon for the
    /// last phase.
    pub fn phase_end(&self, i: usize) -> f64 {
        self.phases
            .get(i + 1)
            .map_or(self.horizon_seconds, |p| p.start_seconds)
    }

    /// The interior phase-change instants, in increasing order (phase 0's
    /// start at `0.0` is not a boundary).  These are exactly the instants the
    /// clairvoyant oracle runtime re-schedules at.
    pub fn boundaries(&self) -> Vec<f64> {
        self.phases
            .iter()
            .skip(1)
            .map(|p| p.start_seconds)
            .collect()
    }

    /// The distinct instants at which faults strike, in increasing order.
    /// The elastic runtime treats these like phase boundaries: serving is
    /// advanced exactly to each instant before the pool changes, which keeps
    /// failover runs bit-identical regardless of monitor-window alignment.
    pub fn fault_instants(&self) -> Vec<f64> {
        let mut instants: Vec<f64> = self.faults.iter().map(|f| f.at_seconds).collect();
        instants.sort_by(f64::total_cmp);
        instants.dedup_by(|a, b| a.to_bits() == b.to_bits());
        instants
    }

    /// The largest accelerator index any fault names, if the scenario has
    /// accelerator faults at all.  The runtime checks this against the pool
    /// size before serving.
    pub fn max_fault_accel(&self) -> Option<usize> {
        self.faults
            .iter()
            .filter_map(|f| match f.kind {
                FaultKind::AccelDown { accel } | FaultKind::AccelRestored { accel } => Some(accel),
                FaultKind::LinkDegraded { .. } => None,
            })
            .max()
    }
}

/// Checks a fault schedule against a scenario horizon: every instant finite
/// and strictly inside `(0, horizon)`, non-decreasing instants, link factors
/// in `(0, 1]`, and a consistent up/down history per accelerator (no double
/// failure, no restoring a healthy accelerator).  [`PhasedTraffic::validate`]
/// runs it on the scenario's own faults; a serving replay runs it on the
/// schedule it is handed.
///
/// # Errors
///
/// Returns the first violated invariant — see [`TrafficError`].
pub fn validate_faults(faults: &[FaultEvent], horizon_seconds: f64) -> Result<(), TrafficError> {
    let mut prev = 0.0_f64;
    let mut down: Vec<usize> = Vec::new();
    for (i, fault) in faults.iter().enumerate() {
        let at = fault.at_seconds;
        if !(at.is_finite() && at > 0.0 && at < horizon_seconds) {
            return Err(TrafficError::InvalidFaultTime {
                fault: i,
                at_seconds: at,
            });
        }
        if at < prev {
            return Err(TrafficError::UnsortedFaults { fault: i });
        }
        prev = at;
        match fault.kind {
            FaultKind::AccelDown { accel } => {
                if down.contains(&accel) {
                    return Err(TrafficError::InconsistentFault { fault: i, accel });
                }
                down.push(accel);
            }
            FaultKind::AccelRestored { accel } => {
                let Some(pos) = down.iter().position(|&a| a == accel) else {
                    return Err(TrafficError::InconsistentFault { fault: i, accel });
                };
                down.remove(pos);
            }
            FaultKind::LinkDegraded { factor } => {
                if !(factor.is_finite() && factor > 0.0 && factor <= 1.0) {
                    return Err(TrafficError::InvalidLinkFactor { fault: i, factor });
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    #[test]
    fn traffic_profile_holds_its_knobs() {
        let p = TrafficProfile::new(120.0, 6.0);
        assert_eq!(p.qps, 120.0);
        assert_eq!(p.sla_factor, 6.0);
    }

    fn two_phase() -> PhasedTraffic {
        PhasedTraffic::new(
            2.0,
            vec![
                TrafficPhase::new(
                    0.0,
                    vec![
                        TrafficProfile::new(100.0, 5.0),
                        TrafficProfile::new(50.0, 4.0),
                    ],
                ),
                TrafficPhase::new(
                    1.25,
                    vec![TrafficProfile::silent(5.0), TrafficProfile::new(300.0, 4.0)],
                ),
            ],
        )
    }

    #[test]
    fn phased_traffic_validates_and_indexes_phases() {
        let scenario = two_phase();
        scenario.validate().unwrap();
        assert_eq!(scenario.workloads(), 2);
        assert_eq!(scenario.phase_index_at(-1.0), 0);
        assert_eq!(scenario.phase_index_at(0.0), 0);
        assert_eq!(scenario.phase_index_at(1.25), 1);
        assert_eq!(scenario.phase_index_at(99.0), 1);
        assert_eq!(scenario.profiles_at(0.5)[0].qps, 100.0);
        assert!(scenario.profiles_at(1.5)[0].is_silent());
        assert_eq!(scenario.boundaries(), vec![1.25]);
        assert_eq!(scenario.phase_end(0), 1.25);
        assert_eq!(scenario.phase_end(1), 2.0);
    }

    #[test]
    fn stationary_scenario_is_a_single_phase() {
        let s = PhasedTraffic::stationary(vec![TrafficProfile::new(10.0, 5.0)], 1.0);
        s.validate().unwrap();
        assert_eq!(s.phases.len(), 1);
        assert!(s.boundaries().is_empty());
        assert_eq!(s.phase_end(0), 1.0);
    }

    #[test]
    fn phased_traffic_rejects_schema_violations() {
        let p = |qps| vec![TrafficProfile::new(qps, 5.0)];
        assert_eq!(
            PhasedTraffic::new(1.0, Vec::new()).validate(),
            Err(TrafficError::NoPhases)
        );
        assert_eq!(
            PhasedTraffic::stationary(p(1.0), 0.0).validate(),
            Err(TrafficError::InvalidHorizon(0.0))
        );
        // Phase 0 must start at exactly 0.
        let late_first = PhasedTraffic::new(1.0, vec![TrafficPhase::new(0.5, p(1.0))]);
        assert!(matches!(
            late_first.validate(),
            Err(TrafficError::InvalidPhaseStart { phase: 0, .. })
        ));
        // Starts must be strictly increasing and inside [0, horizon).
        let dup = PhasedTraffic::new(
            1.0,
            vec![
                TrafficPhase::new(0.0, p(1.0)),
                TrafficPhase::new(0.5, p(2.0)),
                TrafficPhase::new(0.5, p(3.0)),
            ],
        );
        assert_eq!(
            dup.validate(),
            Err(TrafficError::UnsortedPhases { phase: 2 })
        );
        let beyond = PhasedTraffic::new(
            1.0,
            vec![
                TrafficPhase::new(0.0, p(1.0)),
                TrafficPhase::new(1.0, p(2.0)),
            ],
        );
        assert!(matches!(
            beyond.validate(),
            Err(TrafficError::InvalidPhaseStart { phase: 1, .. })
        ));
        // Every phase must describe the same workloads.
        let mismatched = PhasedTraffic::new(
            1.0,
            vec![
                TrafficPhase::new(0.0, p(1.0)),
                TrafficPhase::new(0.5, Vec::new()),
            ],
        );
        assert_eq!(
            mismatched.validate(),
            Err(TrafficError::WorkloadMismatch {
                phase: 1,
                expected: 1,
                got: 0
            })
        );
        // Silent rates are fine; silent SLAs are not.
        let silent_rate = PhasedTraffic::stationary(vec![TrafficProfile::silent(5.0)], 1.0);
        assert_eq!(silent_rate.validate(), Ok(()));
        let bad_sla = PhasedTraffic::stationary(vec![TrafficProfile::new(1.0, 0.0)], 1.0);
        assert!(matches!(
            bad_sla.validate(),
            Err(TrafficError::InvalidSla {
                phase: 0,
                workload: 0,
                ..
            })
        ));
    }

    #[test]
    fn expected_arrivals_are_bounded_per_workload() {
        let stationary = |qps| PhasedTraffic::stationary(vec![TrafficProfile::new(qps, 5.0)], 1.0);
        // 2^32 expected arrivals pass; one more does not.
        assert_eq!(stationary(4_294_967_296.0).validate(), Ok(()));
        assert_eq!(
            stationary(4_294_967_297.0).validate(),
            Err(TrafficError::TooManyArrivals {
                workload: 0,
                expected: 4_294_967_297.0
            })
        );
        // A rate whose product with the window overflows is rejected too,
        // and a silent (here infinite) rate counts nothing.
        let overflow = PhasedTraffic::stationary(vec![TrafficProfile::new(f64::MAX, 5.0)], 2.0);
        assert!(matches!(
            overflow.validate(),
            Err(TrafficError::TooManyArrivals { expected, .. }) if expected == f64::INFINITY
        ));
        assert_eq!(stationary(f64::INFINITY).validate(), Ok(()));
        // The bound holds for the sum over a workload's phases.
        let phase = |start, qps| {
            TrafficPhase::new(
                start,
                vec![TrafficProfile::new(1.0, 5.0), TrafficProfile::new(qps, 5.0)],
            )
        };
        let split = PhasedTraffic::new(2.0, vec![phase(0.0, 3e9), phase(1.0, 3e9)]);
        assert_eq!(
            split.validate(),
            Err(TrafficError::TooManyArrivals {
                workload: 1,
                expected: 6e9
            })
        );
    }

    #[test]
    fn fault_events_validate_and_expose_instants() {
        let scenario = two_phase().with_faults(vec![
            FaultEvent::accel_down(0.5, 3),
            FaultEvent::link_degraded(0.5, 0.5),
            FaultEvent::accel_down(1.0, 5),
            FaultEvent::accel_restored(1.5, 3),
        ]);
        scenario.validate().unwrap();
        assert_eq!(scenario.fault_instants(), vec![0.5, 1.0, 1.5]);
        assert_eq!(scenario.max_fault_accel(), Some(5));
        // A fault-free scenario reports no instants and no accel.
        assert!(two_phase().fault_instants().is_empty());
        assert_eq!(two_phase().max_fault_accel(), None);
    }

    #[test]
    fn fault_schema_violations_are_rejected() {
        let base = two_phase();
        // Instants must be finite and strictly inside (0, horizon).
        for bad in [0.0, -1.0, 2.0, 5.0, f64::NAN, f64::INFINITY] {
            let s = base
                .clone()
                .with_faults(vec![FaultEvent::accel_down(bad, 0)]);
            assert!(
                matches!(
                    s.validate(),
                    Err(TrafficError::InvalidFaultTime { fault: 0, .. })
                ),
                "instant {bad} must be rejected"
            );
        }
        // Instants must be non-decreasing.
        let unsorted = base.clone().with_faults(vec![
            FaultEvent::accel_down(1.0, 0),
            FaultEvent::accel_down(0.5, 1),
        ]);
        assert_eq!(
            unsorted.validate(),
            Err(TrafficError::UnsortedFaults { fault: 1 })
        );
        // Link factors live in (0, 1].
        for bad in [0.0, -0.5, 1.5, f64::NAN] {
            let s = base
                .clone()
                .with_faults(vec![FaultEvent::link_degraded(0.5, bad)]);
            assert!(
                matches!(
                    s.validate(),
                    Err(TrafficError::InvalidLinkFactor { fault: 0, .. })
                ),
                "factor {bad} must be rejected"
            );
        }
        // No double failure; no restoring a healthy accelerator.
        let double = base.clone().with_faults(vec![
            FaultEvent::accel_down(0.5, 2),
            FaultEvent::accel_down(1.0, 2),
        ]);
        assert_eq!(
            double.validate(),
            Err(TrafficError::InconsistentFault { fault: 1, accel: 2 })
        );
        let phantom = base
            .clone()
            .with_faults(vec![FaultEvent::accel_restored(0.5, 2)]);
        assert_eq!(
            phantom.validate(),
            Err(TrafficError::InconsistentFault { fault: 0, accel: 2 })
        );
        // A full down/restore cycle may repeat.
        let cycle = base.with_faults(vec![
            FaultEvent::accel_down(0.3, 2),
            FaultEvent::accel_restored(0.6, 2),
            FaultEvent::accel_down(0.9, 2),
        ]);
        assert_eq!(cycle.validate(), Ok(()));
    }

    #[test]
    fn builder_defaults_and_setters() {
        let w = Workload::new(zoo::alexnet(10));
        assert_eq!(w.weight, 1.0);
        assert_eq!(w.batch, 1);
        let w = w.with_weight(2.5).with_batch(4);
        assert_eq!(w.weight, 2.5);
        assert_eq!(w.batch, 4);
        assert_eq!(w.demand_macs(), w.network.total_macs() * 4);
    }
}
