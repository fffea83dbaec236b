//! Windowed drift detection over the live serving stream.
//!
//! The monitor never looks at the traffic scenario — only at what the
//! serving simulation actually did.  At the end of every half-second window
//! of simulated time the runtime hands it the current [`SimSnapshot`] plus
//! the window's arrival counts; the monitor diffs against the previous
//! snapshot and checks three deterministic signals:
//!
//! 1. **SLA misses** — more than 20% of the window's completions blew their
//!    deadline, counted only once the window has at least 6 completions.
//! 2. **Queue growth** — a lane's waiting room grew by at least 8 requests
//!    across the window (the classic symptom of a partition whose service
//!    rate fell behind its arrival rate).
//! 3. **Imbalance** — the busiest accelerator worked more than 6× the
//!    platform mean while the mean accelerator was busy for at least 30% of
//!    the window (capacity parked on the wrong partition; an idle platform is
//!    allowed to be lopsided).
//!
//! Every check is a pure function of the two snapshots, so trigger
//! sequences are bit-identical across `MARS_THREADS` values and repeat runs
//! — the property the runtime's determinism tests pin.

use mars_obs::Recorder;
use mars_serve::SimSnapshot;
use mars_topology::AccelId;

/// Length of the observation window in seconds.
pub(crate) const WINDOW_SECONDS: f64 = 0.5;
/// Fire when more than this fraction of the window's completions missed
/// their deadline (given at least [`MIN_WINDOW_COMPLETIONS`]).
const MISS_RATE_THRESHOLD: f64 = 0.20;
/// Minimum completions in a window for the miss-rate check to be
/// statistically meaningful.
const MIN_WINDOW_COMPLETIONS: usize = 6;
/// Fire when some lane's queue grew by at least this many requests over the
/// window.
const QUEUE_GROWTH_THRESHOLD: usize = 8;
/// Fire when the busiest accelerator's window busy time exceeds this
/// multiple of the platform mean (and the mean is at least
/// [`IMBALANCE_MIN_LOAD`] of the window).
const IMBALANCE_THRESHOLD: f64 = 6.0;
/// Mean per-accelerator load (busy fraction of the window) below which the
/// imbalance check stays silent — an idle platform is allowed to be
/// lopsided.
const IMBALANCE_MIN_LOAD: f64 = 0.30;

/// Why the drift monitor fired.
#[derive(Debug, Clone, PartialEq)]
pub enum TriggerReason {
    /// Too many of the window's completions missed their deadline.
    SlaMisses {
        /// Completions in the window that missed.
        missed: usize,
        /// Total completions in the window.
        completed: usize,
    },
    /// A lane's waiting room grew past the threshold.
    QueueGrowth {
        /// The lane (workload index) whose queue grew.
        workload: usize,
        /// Queue length at the window's start.
        from: usize,
        /// Queue length at the window's end.
        to: usize,
    },
    /// One accelerator is working far harder than the platform average.
    Imbalance {
        /// `max per-accel busy / mean per-accel busy` over the window.
        ratio: f64,
    },
    /// A phase boundary (only ever attached by the *oracle* policy, which is
    /// told the boundaries instead of detecting them).
    PhaseBoundary {
        /// Index of the phase that just began.
        phase: usize,
    },
    /// The set of down accelerators changed between the two snapshots — an
    /// accelerator failed or came back.  Checked before every other signal:
    /// a shrunken platform must be re-planned even if the surviving lanes
    /// still look healthy.
    TopologyChanged {
        /// The down set at the end of the window.
        down: Vec<AccelId>,
    },
}

impl std::fmt::Display for TriggerReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TriggerReason::SlaMisses { missed, completed } => {
                write!(f, "sla-misses {missed}/{completed}")
            }
            TriggerReason::QueueGrowth { workload, from, to } => {
                write!(f, "queue-growth w{workload} {from}->{to}")
            }
            TriggerReason::Imbalance { ratio } => write!(f, "imbalance {ratio:.1}x"),
            TriggerReason::PhaseBoundary { phase } => write!(f, "phase-boundary {phase}"),
            TriggerReason::TopologyChanged { down } => {
                let ids: Vec<String> = down.iter().map(|a| a.0.to_string()).collect();
                write!(f, "topology-changed down=[{}]", ids.join(","))
            }
        }
    }
}

/// A deterministic "re-schedule now" signal from the drift monitor.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ReconfigureTrigger {
    /// The window boundary the trigger fired at, seconds.
    pub(crate) at: f64,
    /// What drifted.
    pub(crate) reason: TriggerReason,
    /// Requests that arrived during the window, per workload — the observed
    /// rates a reactive re-scheduler feeds back into the search.
    pub(crate) window_arrivals: Vec<usize>,
}

/// What one window did, diffed from its two snapshots: the single source of
/// both the trigger checks and the recorded signal series.
struct Window {
    /// Window length in seconds (never zero).
    seconds: f64,
    /// Completions during the window.  Counter diffs saturate: revoking an
    /// in-flight batch after a failure legitimately rolls `completed` and
    /// `met_sla` backwards.
    completed: usize,
    /// Completions during the window that missed their deadline.
    missed: usize,
    /// Requests queued across all lanes at the window's end.
    queued: usize,
    /// Busy seconds per accelerator during the window.  Accelerators may
    /// appear in the new snapshot that the old one never saw (after a
    /// re-placement); their whole busy time counts as this window's.
    busy: Vec<f64>,
}

impl Window {
    fn between(prev: &SimSnapshot, now: &SimSnapshot) -> Self {
        let mut completed = 0usize;
        let mut met = 0usize;
        let mut queued = 0usize;
        for (a, b) in prev.lanes.iter().zip(&now.lanes) {
            completed += b.completed.saturating_sub(a.completed);
            met += b.met_sla.saturating_sub(a.met_sla);
            queued += b.queued;
        }
        let prev_busy = |id| {
            prev.accel_busy
                .iter()
                .find(|(a, _)| *a == id)
                .map_or(0.0, |(_, b)| *b)
        };
        Self {
            seconds: (now.clock - prev.clock).max(f64::MIN_POSITIVE),
            completed,
            missed: completed.saturating_sub(met),
            queued,
            busy: now
                .accel_busy
                .iter()
                .map(|&(id, busy)| busy - prev_busy(id))
                .collect(),
        }
    }

    /// Mean busy seconds per accelerator, `None` on an empty platform.
    fn mean_busy(&self) -> Option<f64> {
        (!self.busy.is_empty()).then(|| self.busy.iter().sum::<f64>() / self.busy.len() as f64)
    }
}

/// The windowed drift monitor: diffs consecutive [`SimSnapshot`]s.
#[derive(Debug, Clone)]
pub(crate) struct DriftMonitor {
    prev: SimSnapshot,
    triggers: usize,
    /// Observability sink for the per-window drift signals (miss rate,
    /// total queued, mean utilization) — disabled (a null check) by default.
    recorder: Recorder,
}

impl DriftMonitor {
    /// Starts monitoring from `initial` (normally the time-zero snapshot).
    pub(crate) fn new(initial: SimSnapshot) -> Self {
        Self {
            prev: initial,
            triggers: 0,
            recorder: Recorder::disabled(),
        }
    }

    /// Attaches an observability recorder: every [`observe`](Self::observe)
    /// records the window's drift-signal values as series keyed on the
    /// window-end clock.  The values are pure functions of the snapshots, so
    /// recording never changes trigger decisions.
    pub(crate) fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Triggers fired so far.
    pub(crate) fn triggers_fired(&self) -> usize {
        self.triggers
    }

    /// Observes the window ending at `snapshot.clock`: diffs against the
    /// previous observation and returns a trigger if any drift signal fired
    /// (checks run in the fixed order SLA-misses → queue growth → imbalance;
    /// the first hit wins).  `window_arrivals[w]` is how many requests of
    /// workload `w` arrived during the window (the runtime reads this off
    /// the trace).
    ///
    /// The observation becomes the new baseline either way, and the result
    /// is a pure function of `(previous snapshot, snapshot, arrivals)`.
    pub(crate) fn observe(
        &mut self,
        snapshot: &SimSnapshot,
        window_arrivals: &[usize],
    ) -> Option<ReconfigureTrigger> {
        let window = Window::between(&self.prev, snapshot);
        let reason = self.drift_reason(&window, snapshot);
        self.record_window(&window, snapshot.clock);
        self.prev = snapshot.clone();
        reason.map(|reason| {
            self.triggers += 1;
            ReconfigureTrigger {
                at: snapshot.clock,
                reason,
                window_arrivals: window_arrivals.to_vec(),
            }
        })
    }

    /// Resets the baseline without checking (used right after a
    /// reconfiguration, so the turbulence of the migration window itself is
    /// not read as fresh drift).
    pub(crate) fn rebase(&mut self, snapshot: &SimSnapshot) {
        self.prev = snapshot.clone();
    }

    /// Records the window's drift-signal values as series keyed on the
    /// window-end clock — read off the same [`Window`] the trigger checks
    /// use, so the plotted signals are exactly what the thresholds saw.
    fn record_window(&self, window: &Window, clock: f64) {
        if !self.recorder.is_enabled() {
            return;
        }
        let miss_rate = if window.completed > 0 {
            window.missed as f64 / window.completed as f64
        } else {
            0.0
        };
        let mean_load = window.mean_busy().map_or(0.0, |mean| mean / window.seconds);
        self.recorder
            .point("runtime/window_miss_rate", clock, miss_rate);
        self.recorder
            .point("runtime/window_queued", clock, window.queued as f64);
        self.recorder
            .point("runtime/window_utilization", clock, mean_load);
    }

    fn drift_reason(&self, window: &Window, now: &SimSnapshot) -> Option<TriggerReason> {
        let prev = &self.prev;

        // 0. Topology change — an accelerator failed or was restored.  This
        // outranks every drift heuristic: the platform the incumbent
        // schedule was planned for no longer exists.
        if now.down != prev.down {
            return Some(TriggerReason::TopologyChanged {
                down: now.down.clone(),
            });
        }

        // 1. SLA misses among the window's completions.
        let (missed, completed) = (window.missed, window.completed);
        if completed >= MIN_WINDOW_COMPLETIONS
            && missed as f64 > MISS_RATE_THRESHOLD * completed as f64
        {
            return Some(TriggerReason::SlaMisses { missed, completed });
        }

        // 2. Queue growth on any lane.
        for (a, b) in prev.lanes.iter().zip(&now.lanes) {
            if b.queued >= a.queued + QUEUE_GROWTH_THRESHOLD {
                return Some(TriggerReason::QueueGrowth {
                    workload: b.workload,
                    from: a.queued,
                    to: b.queued,
                });
            }
        }

        // 3. Per-accelerator imbalance over the window.
        if let Some(mean) = window.mean_busy() {
            let max = window.busy.iter().copied().fold(0.0, f64::max);
            if mean / window.seconds >= IMBALANCE_MIN_LOAD && max > IMBALANCE_THRESHOLD * mean {
                return Some(TriggerReason::Imbalance { ratio: max / mean });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_serve::LaneSnapshot;
    use mars_topology::AccelId;
    use proptest::prelude::*;

    fn lane(workload: usize, completed: usize, met: usize, queued: usize) -> LaneSnapshot {
        LaneSnapshot {
            workload,
            enqueued: completed + queued,
            queued,
            completed,
            met_sla: met,
            busy_seconds: 0.0,
            free_at: 0.0,
            accels: vec![AccelId(2 * workload), AccelId(2 * workload + 1)].into(),
        }
    }

    fn snap(clock: f64, lanes: Vec<LaneSnapshot>, busy: &[f64]) -> SimSnapshot {
        SimSnapshot {
            clock,
            lanes,
            accel_busy: busy
                .iter()
                .enumerate()
                .map(|(i, &b)| (AccelId(i), b))
                .collect(),
            down: vec![],
        }
    }

    #[test]
    fn fires_on_miss_rate_and_reports_the_window() {
        let start = snap(0.0, vec![lane(0, 0, 0, 0)], &[0.0, 0.0]);
        let mut monitor = DriftMonitor::new(start);
        // 20 completions, 12 missed: 60% > 25%.
        let t = monitor
            .observe(&snap(0.25, vec![lane(0, 20, 8, 0)], &[0.1, 0.1]), &[20])
            .expect("must fire");
        assert_eq!(t.at, 0.25);
        assert_eq!(
            t.reason,
            TriggerReason::SlaMisses {
                missed: 12,
                completed: 20
            }
        );
        assert_eq!(t.window_arrivals, vec![20]);
        assert_eq!(monitor.triggers_fired(), 1);
    }

    #[test]
    fn too_few_completions_stay_silent_but_queue_growth_fires() {
        let start = snap(0.0, vec![lane(0, 0, 0, 0)], &[0.0, 0.0]);
        let mut monitor = DriftMonitor::new(start);
        // 4 completions all missed — below min_window_completions, silent.
        assert!(monitor
            .observe(&snap(0.25, vec![lane(0, 4, 0, 2)], &[0.0, 0.0]), &[6])
            .is_none());
        // Queue explodes by 9 in the next window: fires.
        let t = monitor
            .observe(&snap(0.5, vec![lane(0, 4, 0, 11)], &[0.0, 0.0]), &[9])
            .expect("queue growth");
        assert_eq!(
            t.reason,
            TriggerReason::QueueGrowth {
                workload: 0,
                from: 2,
                to: 11
            }
        );
    }

    #[test]
    fn imbalance_needs_load_and_a_lopsided_platform() {
        // Eight accelerators, one window, the shipped thresholds: fire when
        // the busiest accelerator works more than 6x the platform mean while
        // the mean accelerator is busy for at least 30% of the window.
        let start = snap(0.0, vec![lane(0, 0, 0, 0)], &[0.0; 8]);
        let observe = |busy: &[f64]| {
            DriftMonitor::new(start.clone())
                .observe(&snap(WINDOW_SECONDS, vec![lane(0, 0, 0, 0)], busy), &[0])
        };
        // Loaded and lopsided: a 1.3 s batch (busy time is credited at
        // dispatch) on one accelerator, the other seven cold.  Mean load
        // 1.3 / 8 / 0.5 = 32.5%, ratio 8.
        let mut lopsided = [0.0; 8];
        lopsided[3] = 1.3;
        let t = observe(&lopsided).expect("a loaded lopsided window fires");
        assert_eq!(t.reason, TriggerReason::Imbalance { ratio: 8.0 });
        // Loaded but balanced: every accelerator busy the whole window.
        assert!(observe(&[WINDOW_SECONDS; 8]).is_none());
        // Lopsided but near-idle: the same shape at 0.04 s is a 1% mean load.
        lopsided[3] = 0.04;
        assert!(observe(&lopsided).is_none());
    }

    #[test]
    fn topology_change_outranks_every_other_signal() {
        let start = snap(0.0, vec![lane(0, 0, 0, 0)], &[0.0, 0.0]);
        let mut monitor = DriftMonitor::new(start);
        // A window that would fire SlaMisses *and* QueueGrowth on its own —
        // but accel 1 also went down, and that wins.
        let mut failed = snap(0.25, vec![lane(0, 20, 2, 12)], &[0.1, 0.1]);
        failed.down = vec![AccelId(1)];
        let t = monitor.observe(&failed, &[30]).expect("must fire");
        assert_eq!(
            t.reason,
            TriggerReason::TopologyChanged {
                down: vec![AccelId(1)]
            }
        );
        // Restoration is a topology change too (down set shrinks back).
        // Counters roll backwards across this window — the saturating diffs
        // must stay silent rather than panic.
        let restored = snap(0.5, vec![lane(0, 18, 2, 1)], &[0.1, 0.1]);
        let t = monitor.observe(&restored, &[0]).expect("restore fires");
        assert_eq!(t.reason, TriggerReason::TopologyChanged { down: vec![] });
        assert_eq!(monitor.triggers_fired(), 2);
    }

    #[test]
    fn stationary_windows_never_fire_and_rebase_resets_the_baseline() {
        let mut monitor = DriftMonitor::new(snap(0.0, vec![lane(0, 0, 0, 1)], &[0.0, 0.0]));
        // A healthy steady state: high completions, low misses, flat queue,
        // balanced platform.
        for k in 1..=20usize {
            let t = 0.25 * k as f64;
            let s = snap(t, vec![lane(0, 40 * k, 38 * k, 1)], &[0.2 * t, 0.19 * t]);
            assert!(monitor.observe(&s, &[40]).is_none(), "window {k} fired");
        }
        assert_eq!(monitor.triggers_fired(), 0);
        // rebase swallows an otherwise-firing diff.
        let jump = snap(5.25, vec![lane(0, 1000, 500, 1)], &[1.2, 1.0]);
        monitor.rebase(&jump);
        assert!(monitor
            .observe(
                &snap(5.5, vec![lane(0, 1040, 538, 1)], &[1.25, 1.05]),
                &[40]
            )
            .is_none());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Stationary, healthy windows — high SLA-met ratio, flat queues, a
        /// balanced platform — never fire the monitor, whatever the exact rates.
        #[test]
        fn monitor_stays_silent_on_stationary_healthy_traffic(
            rate_per_window in 10usize..200,
            met_ratio in 0.90f64..=1.0,
            queue in 0usize..6,
            busy_fraction in 0.05f64..0.95,
            skew in 0.8f64..1.25,
            windows in 3usize..20,
        ) {
            let window = 0.5f64;
            let lanes_at = |k: usize| {
                let completed = rate_per_window * k;
                vec![LaneSnapshot {
                    workload: 0,
                    enqueued: completed + queue,
                    queued: queue,
                    completed,
                    met_sla: (completed as f64 * met_ratio).round() as usize,
                    busy_seconds: busy_fraction * window * k as f64,
                    free_at: 0.0,
                    accels: vec![AccelId(0), AccelId(1)].into(),
                }]
            };
            let snap_at = |k: usize| SimSnapshot {
                clock: window * k as f64,
                lanes: lanes_at(k),
                accel_busy: vec![
                    (AccelId(0), busy_fraction * window * k as f64),
                    (AccelId(1), busy_fraction * skew * window * k as f64),
                ],
                down: vec![],
            };
            let mut monitor = DriftMonitor::new(snap_at(0));
            for k in 1..=windows {
                let trigger = monitor.observe(&snap_at(k), &[rate_per_window]);
                prop_assert!(trigger.is_none(), "window {k} fired: {trigger:?}");
            }
            prop_assert_eq!(monitor.triggers_fired(), 0);
        }

        /// The monitor is a pure function of its snapshots: replaying the same
        /// observation sequence yields the same triggers, bit for bit.
        #[test]
        fn monitor_is_deterministic_over_any_snapshot_sequence(
            completions in proptest::collection::vec(0usize..400, 2..10),
            met_per_mille in 0u32..=1000,
            queue_step in 0usize..12,
        ) {
            let build = || {
                let mut cumulative = 0usize;
                let mut snaps = vec![SimSnapshot {
                    clock: 0.0,
                    lanes: vec![LaneSnapshot {
                        workload: 0,
                        enqueued: 0,
                        queued: 0,
                        completed: 0,
                        met_sla: 0,
                        busy_seconds: 0.0,
                        free_at: 0.0,
                        accels: vec![AccelId(0)].into(),
                    }],
                    accel_busy: vec![(AccelId(0), 0.0)],
                    down: vec![],
                }];
                for (k, &c) in completions.iter().enumerate() {
                    cumulative += c;
                    snaps.push(SimSnapshot {
                        clock: 0.5 * (k + 1) as f64,
                        lanes: vec![LaneSnapshot {
                            workload: 0,
                            enqueued: cumulative + queue_step * (k + 1),
                            queued: queue_step * (k + 1),
                            completed: cumulative,
                            met_sla: cumulative * met_per_mille as usize / 1000,
                            busy_seconds: 0.1 * (k + 1) as f64,
                            free_at: 0.0,
                            accels: vec![AccelId(0)].into(),
                        }],
                        accel_busy: vec![(AccelId(0), 0.1 * (k + 1) as f64)],
                        down: vec![],
                    });
                }
                snaps
            };
            let run = || {
                let snaps = build();
                let mut monitor = DriftMonitor::new(snaps[0].clone());
                let triggers: Vec<_> = snaps[1..]
                    .iter()
                    .map(|s| monitor.observe(s, &[7]))
                    .collect();
                (triggers, monitor.triggers_fired())
            };
            prop_assert_eq!(run(), run());
        }
    }
}
