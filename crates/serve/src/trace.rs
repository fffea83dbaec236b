//! Seeded request-arrival traces.
//!
//! A [`Trace`] is the replayable input of the serving simulator: one arrival
//! stream per workload, drawn once from the deterministic [`rand`] shim and
//! then treated as immutable data.  Generating the trace up front (instead of
//! sampling inside the event loop) keeps the simulation a pure function of
//! `(trace, placements, config)` — the property the determinism tests pin.
//! Each stream is an `Arc`, so every replay's lanes share it instead of
//! copying it.

use mars_core::genome_stream_seed;
use mars_model::{PhasedTraffic, TrafficError, TrafficProfile, MAX_EXPECTED_ARRIVALS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Domain-separation tag mixed into every per-workload trace seed so arrival
/// streams never collide with the co-scheduler's search streams, which derive
/// from the same master seed.
const TRACE_STREAM: u64 = 0x72ac_e5ed;

/// Domain-separation tag for phased traces: each `(workload, phase)` pair
/// draws from its own stream, so editing one phase never perturbs the
/// arrivals of any other phase or workload.
const PHASE_STREAM: u64 = 0x009a_5ed0;

/// One workload's request stream plus every other workload's, replayable.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Length of the arrival window in seconds; no request arrives at or
    /// after this instant.
    pub horizon_seconds: f64,
    /// Per-workload arrival times in seconds, non-decreasing within each
    /// workload, all inside `[0, horizon_seconds)`.  Replays share each
    /// stream with their lanes; edit one with [`Arc::make_mut`].
    pub arrivals: Vec<Arc<Vec<f64>>>,
}

/// One arrival stream of consecutive segments `(seed, qps, start, end)`:
/// in each, exponential gaps at `qps` from `start` until one reaches `end`,
/// drawn from the RNG stream seeded `seed`.  The stream is reserved once, at
/// its expected length plus four standard deviations.
fn draw(segments: impl Iterator<Item = (u64, f64, f64, f64)> + Clone) -> Arc<Vec<f64>> {
    let mean: f64 = (segments.clone())
        .map(|(_, qps, start, end)| qps * (end - start))
        .sum();
    let mut times = Vec::with_capacity((mean + 4.0 * mean.sqrt()).ceil() as usize);
    for (seed, qps, start, end) in segments {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = start;
        loop {
            let u: f64 = rng.gen();
            // u ∈ [0, 1) so 1-u ∈ (0, 1]: ln is finite and the gap is
            // non-negative.
            t += -(1.0 - u).ln() / qps;
            if t >= end {
                break;
            }
            times.push(t);
        }
    }
    Arc::new(times)
}

impl Trace {
    /// Draws a Poisson-like trace: workload `w`'s inter-arrival gaps are
    /// exponential with mean `1 / profiles[w].qps`, from an RNG stream
    /// derived from `(seed, w)` — so adding a workload never perturbs the
    /// streams of the others, and the same `(profiles, horizon, seed)`
    /// always yields the same trace.
    ///
    /// Profiles with non-positive or non-finite `qps` yield an empty stream
    /// (the simulator rejects them before this matters), and so does every
    /// profile when `horizon_seconds` is not positive and finite (the
    /// simulator rejects the horizon with [`ServeError::InvalidHorizon`]).
    ///
    /// # Errors
    ///
    /// [`TrafficError::TooManyArrivals`] for the first workload whose
    /// `qps × horizon_seconds` exceeds [`MAX_EXPECTED_ARRIVALS`] (2^32), the
    /// bound [`PhasedTraffic::validate`] applies, before anything is drawn.
    ///
    /// [`ServeError::InvalidHorizon`]: crate::ServeError::InvalidHorizon
    pub fn poisson(
        profiles: &[TrafficProfile],
        horizon_seconds: f64,
        seed: u64,
    ) -> Result<Self, TrafficError> {
        let horizon_ok = horizon_seconds > 0.0 && horizon_seconds.is_finite();
        let drawn = |p: &TrafficProfile| horizon_ok && p.qps > 0.0 && p.qps.is_finite();
        for (workload, p) in profiles.iter().enumerate() {
            let expected = p.qps * horizon_seconds;
            if drawn(p) && expected > MAX_EXPECTED_ARRIVALS {
                return Err(TrafficError::TooManyArrivals { workload, expected });
            }
        }
        let arrivals = profiles
            .iter()
            .enumerate()
            .map(|(w, p)| {
                if !drawn(p) {
                    return Arc::default();
                }
                let stream_seed = genome_stream_seed(seed, TRACE_STREAM, w as u64);
                draw(std::iter::once((stream_seed, p.qps, 0.0, horizon_seconds)))
            })
            .collect();
        Ok(Trace {
            horizon_seconds,
            arrivals,
        })
    }

    /// Draws a trace for a non-stationary [`PhasedTraffic`] scenario:
    /// workload `w`'s arrivals are Poisson-like at each phase's rate inside
    /// that phase's window, from an RNG stream derived from
    /// `(seed, phase, w)` — so editing one phase (or adding a workload)
    /// never perturbs any other phase's or workload's arrivals, and the same
    /// `(scenario, seed)` always yields the same trace.
    ///
    /// [Silent](TrafficProfile::is_silent) phase profiles yield no arrivals
    /// for their window — that is how workload departure (and late arrival)
    /// is expressed.
    ///
    /// # Errors
    ///
    /// Propagates [`PhasedTraffic::validate`].
    pub fn phased(scenario: &PhasedTraffic, seed: u64) -> Result<Self, TrafficError> {
        scenario.validate()?;
        let horizon = scenario.horizon_seconds;
        let arrivals = (0..scenario.workloads())
            .map(|w| {
                let segments = (scenario.phases.iter().enumerate())
                    .filter(|(_, phase)| !phase.profiles[w].is_silent())
                    .map(|(pi, phase)| {
                        let stream = PHASE_STREAM.wrapping_add(pi as u64);
                        let stream_seed = genome_stream_seed(seed, stream, w as u64);
                        let end = scenario.phase_end(pi).min(horizon);
                        (stream_seed, phase.profiles[w].qps, phase.start_seconds, end)
                    });
                draw(segments)
            })
            .collect();
        Ok(Trace {
            horizon_seconds: horizon,
            arrivals,
        })
    }

    /// Total number of requests across all workloads.
    pub fn total_requests(&self) -> usize {
        self.arrivals.iter().map(|s| s.len()).sum()
    }

    /// Requests of workload `w` arriving inside `[from, to)` — the windowed
    /// arrival count the elastic runtime's drift monitor consumes.
    ///
    /// Arrival streams are sorted (a [`Trace`] invariant), so the window is
    /// two `partition_point` binary searches instead of a linear scan — the
    /// drift monitor calls this per window per workload, against streams
    /// that reach ~10^5 arrivals at fleet scale.  Boundary semantics are
    /// unchanged: an arrival exactly at `from` counts, one exactly at `to`
    /// does not, and an inverted window (`from > to`) counts zero.
    pub fn arrivals_in(&self, w: usize, from: f64, to: f64) -> usize {
        let stream = &self.arrivals[w];
        let lo = stream.partition_point(|&t| t < from);
        let hi = stream.partition_point(|&t| t < to);
        hi.saturating_sub(lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profiles() -> Vec<TrafficProfile> {
        vec![
            TrafficProfile::new(100.0, 4.0),
            TrafficProfile::new(30.0, 4.0),
        ]
    }

    #[test]
    fn poisson_traces_are_deterministic_and_in_window() {
        let a = Trace::poisson(&profiles(), 1.0, 42).unwrap();
        let b = Trace::poisson(&profiles(), 1.0, 42).unwrap();
        assert_eq!(a, b);
        for stream in &a.arrivals {
            assert!(stream.windows(2).all(|w| w[0] < w[1]), "not increasing");
            assert!(stream.iter().all(|&t| (0.0..1.0).contains(&t)));
        }
        // Rates are roughly respected (loose bound: 3x either way).
        assert!(a.arrivals[0].len() > a.arrivals[1].len());
        assert!((30..300).contains(&a.arrivals[0].len()));
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let a = Trace::poisson(&profiles(), 1.0, 1).unwrap();
        let b = Trace::poisson(&profiles(), 1.0, 2).unwrap();
        assert_ne!(a.arrivals, b.arrivals);
    }

    #[test]
    fn phased_traces_respect_phase_windows_and_rates() {
        use mars_model::{PhasedTraffic, TrafficPhase};
        let scenario = PhasedTraffic::new(
            2.0,
            vec![
                TrafficPhase::new(
                    0.0,
                    vec![
                        TrafficProfile::new(100.0, 5.0),
                        TrafficProfile::new(50.0, 5.0),
                    ],
                ),
                // Workload 0 departs; workload 1 surges 8x.
                TrafficPhase::new(
                    1.0,
                    vec![TrafficProfile::silent(5.0), TrafficProfile::new(400.0, 5.0)],
                ),
            ],
        );
        let a = Trace::phased(&scenario, 42).unwrap();
        let b = Trace::phased(&scenario, 42).unwrap();
        assert_eq!(a, b, "same scenario + seed must be bit-identical");
        for stream in &a.arrivals {
            assert!(stream.windows(2).all(|w| w[0] < w[1]), "not increasing");
            assert!(stream.iter().all(|&t| (0.0..2.0).contains(&t)));
        }
        // Workload 0 is silent after its departure at t = 1.
        assert_eq!(a.arrivals_in(0, 1.0, 2.0), 0);
        assert!(a.arrivals_in(0, 0.0, 1.0) > 50);
        // Workload 1's surge phase is much denser than its quiet phase.
        let quiet = a.arrivals_in(1, 0.0, 1.0);
        let surge = a.arrivals_in(1, 1.0, 2.0);
        assert!(
            surge > 3 * quiet,
            "surge {surge} should dwarf quiet {quiet}"
        );
        // Windowed counts tile the horizon.
        assert_eq!(
            a.arrivals_in(1, 0.0, 1.0) + a.arrivals_in(1, 1.0, 2.0),
            a.arrivals[1].len()
        );
    }

    #[test]
    fn phased_single_phase_matches_scenario_shape_and_validates() {
        use mars_model::{PhasedTraffic, TrafficError};
        let stationary = PhasedTraffic::stationary(profiles(), 1.0);
        let t = Trace::phased(&stationary, 7).unwrap();
        assert_eq!(t.arrivals.len(), 2);
        assert!(t.total_requests() > 0);
        // Validation errors propagate.
        let bad = PhasedTraffic::new(0.0, Vec::new());
        assert_eq!(Trace::phased(&bad, 7), Err(TrafficError::NoPhases));
    }

    /// A rate no trace can hold is a typed error before anything is drawn:
    /// 1e9 qps over 1e3 s would reserve 10^12 arrivals, and 1e300 qps
    /// overflows the reserve.  The same holds for an LLM trace.
    #[test]
    fn unbounded_phased_traffic_is_a_typed_error() {
        use crate::llm::LlmTrace;
        use mars_model::zoo::llm_mix;
        use mars_model::{PhasedTraffic, TrafficError};
        for qps in [1e9, 1e300] {
            let mut profiles = profiles();
            profiles[1].qps = qps;
            let scenario = PhasedTraffic::stationary(profiles, 1e3);
            let expected = TrafficError::TooManyArrivals {
                workload: 1,
                expected: qps * 1e3,
            };
            assert_eq!(Trace::phased(&scenario, 7), Err(expected));
            let mut spec = llm_mix();
            for phase in &mut spec.traffic.phases {
                phase.profiles[2].qps = qps;
            }
            assert!(matches!(
                LlmTrace::draw(&spec, 7),
                Err(TrafficError::TooManyArrivals { workload: 2, .. })
            ));
        }
    }

    /// The binary-searched window count keeps the linear scan's exact
    /// boundary semantics: `from` is inclusive, `to` exclusive, arrivals
    /// *exactly at* either instant land on the documented side, and the
    /// result always equals the reference filter.
    #[test]
    fn arrivals_in_pins_boundary_instants_and_matches_linear_scan() {
        let trace = Trace {
            horizon_seconds: 10.0,
            arrivals: vec![Arc::new(vec![1.0, 2.0, 2.0, 3.5, 7.0]), Arc::default()],
        };
        // An arrival exactly at `from` counts; exactly at `to` does not.
        assert_eq!(trace.arrivals_in(0, 1.0, 3.5), 3);
        assert_eq!(trace.arrivals_in(0, 2.0, 7.0), 3);
        // Duplicated instants all count when inside the window.
        assert_eq!(trace.arrivals_in(0, 2.0, 2.5), 2);
        // Degenerate and inverted windows count zero.
        assert_eq!(trace.arrivals_in(0, 2.0, 2.0), 0);
        assert_eq!(trace.arrivals_in(0, 7.0, 1.0), 0);
        // Empty stream, and windows outside the data.
        assert_eq!(trace.arrivals_in(1, 0.0, 10.0), 0);
        assert_eq!(trace.arrivals_in(0, 8.0, 10.0), 0);
        assert_eq!(trace.arrivals_in(0, -5.0, 0.5), 0);

        // Exhaustive equivalence with the reference linear filter on a real
        // seeded trace, over a grid of window edges that includes exact
        // arrival instants.
        let drawn = Trace::poisson(&profiles(), 1.0, 42).unwrap();
        let mut edges: Vec<f64> = (0..=10).map(|i| i as f64 * 0.1).collect();
        edges.extend(drawn.arrivals[0].iter().take(8).copied());
        for &from in &edges {
            for &to in &edges {
                for w in 0..drawn.arrivals.len() {
                    let linear = drawn.arrivals[w]
                        .iter()
                        .filter(|&&t| from <= t && t < to)
                        .count();
                    assert_eq!(
                        drawn.arrivals_in(w, from, to),
                        linear,
                        "w={w} from={from} to={to}"
                    );
                }
            }
        }
    }

    #[test]
    fn degenerate_profiles_yield_empty_streams() {
        let degenerate: Vec<_> = [0.0, -3.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY]
            .into_iter()
            .map(|qps| TrafficProfile::new(qps, 4.0))
            .collect();
        let t = Trace::poisson(&degenerate, 1.0, 7).unwrap();
        assert_eq!(t.arrivals, vec![Arc::default(); degenerate.len()]);
        // A horizon that is not positive and finite draws nothing; an
        // infinite one must not draw forever.
        for horizon in [0.0, -1.0, f64::INFINITY, f64::NAN] {
            let t = Trace::poisson(&profiles(), horizon, 7).unwrap();
            assert_eq!(t.arrivals, vec![Arc::default(); 2], "horizon {horizon}");
        }
    }

    /// A rate whose expected arrivals exceed the bound `PhasedTraffic`
    /// applies is rejected before any stream is reserved or drawn, naming
    /// the first such workload.
    #[test]
    fn rates_past_the_arrival_bound_are_rejected() {
        let with = |qps| {
            vec![
                TrafficProfile::new(10.0, 4.0),
                TrafficProfile::new(qps, 4.0),
            ]
        };
        assert_eq!(
            Trace::poisson(&with(1e9), 1e3, 7),
            Err(TrafficError::TooManyArrivals {
                workload: 1,
                expected: 1e12
            })
        );
        assert_eq!(
            Trace::poisson(&with(1e300), 1.0, 7),
            Err(TrafficError::TooManyArrivals {
                workload: 1,
                expected: 1e300
            })
        );
        // A product that overflows is rejected too.
        let max = [TrafficProfile::new(f64::MAX, 4.0)];
        assert!(matches!(
            Trace::poisson(&max, 2.0, 7),
            Err(TrafficError::TooManyArrivals { expected, .. }) if expected == f64::INFINITY
        ));
    }
}
