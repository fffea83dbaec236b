//! `serve` and `serve_traced`: fleet-scale serving replay, without search.
//!
//! Both replay a CNN fleet generated from `MixZoo::fleet()` (its lanes
//! replicated with per-lane service-time and rate jitter, its horizon
//! stretched, its fault schedule repeated on every replica's accelerators)
//! and an LLM fleet generated from `llm_mix()` (its lanes replicated with
//! per-lane rate jitter, keeping each lane's traffic shape).  Every round
//! replays the same inputs, so every round must reproduce round 0.
//!
//! * `serve` (recorder disabled): one op is one sharded replay — the CNN
//!   fleet under each `DispatchPolicy` (with faults), the LLM fleet under
//!   each `BatchingMode`: 5 ops.  Host time is the calendar queue, request
//!   arena, dispatch loop, shard merge and LLM iteration loop.
//! * `serve_traced` (`Recorder::enabled()`, on a smaller fleet): the ops are
//!   the observed default-policy CNN replay, the observed continuous-batching
//!   LLM replay, and the `metrics_json` plus `chrome_trace_json` export of
//!   what they recorded — what `table_fleet --metrics --trace` does.

use crate::harness::{median, Digest, Harness, SimResults};
use mars_core::{genome_stream_seed, CoScheduleResult};
use mars_model::zoo::{llm_mix, FleetSpec, LlmSpec, MixZoo};
use mars_model::{FaultEvent, FaultKind, PhasedTraffic, TrafficPhase, TrafficProfile};
use mars_obs::{chrome_trace_json, metrics_json, Recorder};
use mars_serve::{
    fleet_co_schedule, simulate_llm_sharded, simulate_llm_sharded_observed,
    simulate_sharded_observed, simulate_sharded_with_faults, BatchingMode, DispatchPolicy,
    FaultPolicy, LlmServeReport, LlmTrace, ServeConfig, ServeReport, Trace,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const FLEET_STREAM: u64 = 4;
const TRACE_STREAM: u64 = 5;
const LLM_STREAM: u64 = 6;
const LLM_TRACE_STREAM: u64 = 7;

/// Recorder off (`serve`) or on (`serve_traced`).
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Plain,
    Observed,
}

/// Input sizes of one mode.
struct Size {
    /// Copies of the bundled fleet's 144 lanes.
    fleet_replicas: usize,
    /// Factor on the bundled fleet's 8 s horizon (phases and faults scale).
    fleet_stretch: f64,
    /// Copies of the bundled LLM mix's 3 lanes.
    llm_replicas: usize,
    /// Repetitions of the bundled LLM mix's 12 s traffic shape.
    llm_cycles: usize,
}

impl Mode {
    fn size(self) -> Size {
        match self {
            Mode::Plain => Size {
                fleet_replicas: 4,
                fleet_stretch: 4.0,
                llm_replicas: 32,
                llm_cycles: 10,
            },
            Mode::Observed => Size {
                fleet_replicas: 1,
                fleet_stretch: 1.0,
                llm_replicas: 8,
                llm_cycles: 3,
            },
        }
    }
}

/// The bundled fleet with `replicas` copies of each lane and its horizon
/// stretched by `stretch`.  Each lane draws a service-time factor in
/// [0.95, 1.05) and a rate factor in [0.9, 1.1); each replica repeats the
/// bundled fault schedule on its own accelerators, shifted by a draw in
/// [0, `stretch`) seconds.
fn scaled_fleet(seed: u64, replicas: usize, stretch: f64) -> FleetSpec {
    let base = MixZoo::fleet();
    let lanes = base.names.len();
    let mut rng = StdRng::seed_from_u64(genome_stream_seed(seed, FLEET_STREAM, 0));
    let mut fleet = FleetSpec {
        names: Vec::with_capacity(lanes * replicas),
        weights: Vec::with_capacity(lanes * replicas),
        latencies_seconds: Vec::with_capacity(lanes * replicas),
        traffic: PhasedTraffic::new(
            base.traffic.horizon_seconds * stretch,
            base.traffic
                .phases
                .iter()
                .map(|p| TrafficPhase::new(p.start_seconds * stretch, Vec::new()))
                .collect(),
        ),
    };
    let mut faults = Vec::new();
    for r in 0..replicas {
        for w in 0..lanes {
            let service = rng.gen_range(0.95..1.05);
            let rate = rng.gen_range(0.9..1.1);
            fleet.names.push(format!("{}-r{r}", base.names[w]));
            fleet.weights.push(base.weights[w]);
            fleet
                .latencies_seconds
                .push(base.latencies_seconds[w] * service);
            for (phase, bundled) in fleet.traffic.phases.iter_mut().zip(&base.traffic.phases) {
                let p = bundled.profiles[w];
                phase
                    .profiles
                    .push(TrafficProfile::new(p.qps * rate, p.sla_factor));
            }
        }
        // Accelerators `2w` and `2w + 1` serve lane `w`, so replica `r`'s
        // pool starts at `2 * lanes * r`.
        let offset = 2 * lanes * r;
        let shift = rng.gen_range(0.0..stretch);
        for f in &base.traffic.faults {
            let kind = match f.kind {
                FaultKind::AccelDown { accel } => FaultKind::AccelDown {
                    accel: accel + offset,
                },
                FaultKind::AccelRestored { accel } => FaultKind::AccelRestored {
                    accel: accel + offset,
                },
                kind => kind,
            };
            faults.push(FaultEvent {
                at_seconds: f.at_seconds * stretch + shift,
                kind,
            });
        }
    }
    faults.sort_by(|a, b| a.at_seconds.total_cmp(&b.at_seconds));
    fleet.traffic.faults = faults;
    fleet
}

/// The bundled LLM mix with `replicas` copies of each lane, its 12 s
/// base/surge/cool traffic shape repeated `cycles` times; each lane draws a
/// rate factor in [0.9, 1.1).
fn llm_fleet(seed: u64, replicas: usize, cycles: usize) -> LlmSpec {
    let base = llm_mix();
    let period = base.traffic.horizon_seconds;
    let mut rng = StdRng::seed_from_u64(genome_stream_seed(seed, LLM_STREAM, 0));
    let rates: Vec<f64> = (0..replicas * base.workloads.len())
        .map(|_| rng.gen_range(0.9..1.1))
        .collect();
    let phases = (0..cycles)
        .flat_map(|c| base.traffic.phases.iter().map(move |p| (c, p)))
        .map(|(c, bundled)| {
            let profiles = rates
                .iter()
                .enumerate()
                .map(|(lane, rate)| {
                    let p = bundled.profiles[lane % base.workloads.len()];
                    TrafficProfile::new(p.qps * rate, p.sla_factor)
                })
                .collect();
            TrafficPhase::new(c as f64 * period + bundled.start_seconds, profiles)
        })
        .collect();
    let workloads = (0..replicas)
        .flat_map(|r| {
            base.workloads.iter().map(move |llm| {
                let mut lane = llm.clone();
                lane.name = format!("{}-{r:02}", llm.name);
                lane
            })
        })
        .collect();
    LlmSpec {
        workloads,
        traffic: PhasedTraffic::new(cycles as f64 * period, phases),
        ..base
    }
}

struct Inputs {
    co: CoScheduleResult,
    profiles: Vec<TrafficProfile>,
    faults: Vec<FaultEvent>,
    trace: Trace,
    llm: LlmSpec,
    llm_trace: LlmTrace,
}

fn build(h: &Harness, seed: u64, size: &Size) -> Inputs {
    let fleet = h.call("model.build", || {
        scaled_fleet(seed, size.fleet_replicas, size.fleet_stretch)
    });
    let trace = h
        .call("serve.trace", || {
            Trace::phased(&fleet.traffic, genome_stream_seed(seed, TRACE_STREAM, 0))
        })
        .expect("generated fleet scenario is valid");
    let llm = h.call("model.build", || {
        llm_fleet(seed, size.llm_replicas, size.llm_cycles)
    });
    let llm_trace = h
        .call("serve.trace", || {
            LlmTrace::draw(&llm, genome_stream_seed(seed, LLM_TRACE_STREAM, 0))
        })
        .expect("generated LLM scenario is valid");
    Inputs {
        co: fleet_co_schedule(&fleet),
        profiles: fleet.traffic.phases[0].profiles.clone(),
        faults: fleet.traffic.faults,
        trace,
        llm,
        llm_trace,
    }
}

fn check_cnn(h: &Harness, what: &str, r: &ServeReport, requests: usize) {
    h.check(
        r.goodput <= r.completed && r.completed <= r.total_requests,
        what,
        "goodput <= completed <= total_requests",
    );
    h.check(
        r.total_requests == requests,
        what,
        "total_requests equals the trace's count",
    );
}

fn check_llm(h: &Harness, what: &str, r: &LlmServeReport, requests: usize) {
    h.check(
        r.goodput <= r.completed && r.completed <= r.total_requests,
        what,
        "goodput <= completed <= total_requests",
    );
    h.check(
        r.total_requests == requests,
        what,
        "total_requests equals the trace's count",
    );
    h.check(
        r.per_workload
            .iter()
            .all(|lane| lane.peak_kv_bytes <= lane.kv_budget_bytes),
        what,
        "every lane's peak_kv_bytes <= kv_budget_bytes",
    );
}

fn count_cnn(h: &Harness, r: &ServeReport) {
    let batches: usize = r.per_workload.iter().map(|w| w.batches).sum();
    let batched: f64 = r
        .per_workload
        .iter()
        .map(|w| w.mean_batch * w.batches as f64)
        .sum();
    h.count("serve.sim.events", (r.total_requests + batches) as f64);
    h.count("serve.sim.batches", batches as f64);
    h.count("serve.sim.batched_requests", batched);
}

fn count_llm(h: &Harness, r: &LlmServeReport) {
    let iterations: usize = r.per_workload.iter().map(|w| w.iterations).sum();
    let running: f64 = r
        .per_workload
        .iter()
        .map(|w| w.mean_running * w.iterations as f64)
        .sum();
    h.count("serve.llm.iterations", iterations as f64);
    h.count("serve.llm.running", running);
}

fn pct(num: usize, den: usize) -> f64 {
    100.0 * num as f64 / den as f64
}

pub fn run(h: &Harness, seed: u64, mode: Mode) -> SimResults {
    let size = mode.size();
    let rebuild = || build(h, seed, &size);
    let inputs = h.setup(5, rebuild);
    let requests = inputs.trace.total_requests();
    let llm_requests = inputs.llm_trace.total_requests();
    match mode {
        Mode::Plain => plain(h, &inputs, rebuild, requests, llm_requests),
        Mode::Observed => observed(h, &inputs, rebuild, requests, llm_requests),
    }
}

fn plain(
    h: &Harness,
    i: &Inputs,
    rebuild: impl FnMut() -> Inputs,
    requests: usize,
    llm_requests: usize,
) -> SimResults {
    let mut first: Option<(Vec<ServeReport>, Vec<LlmServeReport>)> = None;
    h.measure(1, true, rebuild, |_| {
        let mut d = Digest::new();
        let mut cnn = Vec::new();
        for policy in DispatchPolicy::ALL {
            let out = h.op(|| {
                h.call("serve.sim", || {
                    simulate_sharded_with_faults(
                        &i.co,
                        &i.profiles,
                        &i.trace,
                        &ServeConfig::new(policy),
                        &i.faults,
                        FaultPolicy::RequeueInflight,
                    )
                })
            });
            let what = format!("CNN fleet {policy}");
            match out {
                Ok(r) => {
                    check_cnn(h, &what, &r, requests);
                    count_cnn(h, &r);
                    d.add(&r);
                    cnn.push(r);
                }
                Err(e) => h.check(false, &what, &format!("simulation failed: {e}")),
            }
        }
        let mut llm = Vec::new();
        for mode in BatchingMode::ALL {
            let out = h.op(|| {
                h.call("serve.llm", || {
                    simulate_llm_sharded(&i.llm, &i.llm_trace, mode)
                })
            });
            let what = format!("LLM fleet {mode}");
            match out {
                Ok(r) => {
                    check_llm(h, &what, &r, llm_requests);
                    count_llm(h, &r);
                    d.add(&r);
                    llm.push(r);
                }
                Err(e) => h.check(false, &what, &format!("simulation failed: {e}")),
            }
        }
        first.get_or_insert((cnn, llm));
        d.value()
    });
    let (cnn, llm) = first.expect("measure runs at least one round");
    let edf = cnn
        .iter()
        .find(|r| r.policy == ServeConfig::default().policy);
    let continuous = llm.iter().find(|r| r.mode == BatchingMode::Continuous);
    SimResults {
        quality: (
            "goodput_pct",
            pct(
                cnn.iter().map(|r| r.goodput).sum(),
                cnn.iter().map(|r| r.total_requests).sum(),
            ),
        ),
        quality2: (
            "llm_goodput_pct",
            pct(
                llm.iter().map(|r| r.goodput).sum(),
                llm.iter().map(|r| r.total_requests).sum(),
            ),
        ),
        latency: ("p99_ms", edf.map_or(f64::NAN, |r| r.p99_ms)),
        latency2: ("llm_p50_ms", continuous.map_or(f64::NAN, |r| r.p50_ms)),
    }
}

fn observed(
    h: &Harness,
    i: &Inputs,
    rebuild: impl FnMut() -> Inputs,
    requests: usize,
    llm_requests: usize,
) -> SimResults {
    let mut first: Option<(ServeReport, LlmServeReport)> = None;
    h.measure(1, true, rebuild, |_| {
        let mut d = Digest::new();
        let recorder = Recorder::enabled();
        let cnn = h.op(|| {
            h.call("obs.observed", || {
                simulate_sharded_observed(
                    &i.co,
                    &i.profiles,
                    &i.trace,
                    &ServeConfig::default(),
                    &i.faults,
                    FaultPolicy::RequeueInflight,
                    &recorder,
                )
            })
        });
        match &cnn {
            Ok(r) => check_cnn(h, "observed CNN fleet", r, requests),
            Err(e) => h.check(
                false,
                "observed CNN fleet",
                &format!("simulation failed: {e}"),
            ),
        }
        let llm = h.op(|| {
            h.call("obs.observed", || {
                simulate_llm_sharded_observed(
                    &i.llm,
                    &i.llm_trace,
                    BatchingMode::Continuous,
                    &recorder,
                )
            })
        });
        match &llm {
            Ok(r) => check_llm(h, "observed LLM fleet", r, llm_requests),
            Err(e) => h.check(
                false,
                "observed LLM fleet",
                &format!("simulation failed: {e}"),
            ),
        }
        let (obs, metrics, trace) = h.op(|| {
            h.call("obs.export", || {
                let obs = recorder.snapshot();
                let metrics = metrics_json(&obs);
                let trace = chrome_trace_json(&obs);
                (obs, metrics, trace)
            })
        });
        h.check(
            !obs.spans().is_empty() && trace.contains("\"ph\": \"X\""),
            "export",
            "the exported trace contains spans",
        );
        h.count("obs.spans", obs.spans().len() as f64);
        h.count(
            "obs.export_mib",
            (metrics.len() + trace.len()) as f64 / (1u64 << 20) as f64,
        );
        d.add(&metrics);
        d.add(&trace);
        if let (Ok(cnn), Ok(llm)) = (cnn, llm) {
            d.add(&cnn);
            d.add(&llm);
            first.get_or_insert((cnn, llm));
        }
        d.value()
    });
    if h.traced() {
        recorder_overhead(h, i);
    }
    // Without a successful replay the metrics read NaN, which fails the run.
    let (cnn, llm) = first
        .as_ref()
        .map_or((None, None), |(c, l)| (Some(c), Some(l)));
    SimResults {
        quality: (
            "observed_goodput_pct",
            cnn.map_or(f64::NAN, |r| pct(r.goodput, r.total_requests)),
        ),
        quality2: (
            "observed_llm_goodput_pct",
            llm.map_or(f64::NAN, |r| pct(r.goodput, r.total_requests)),
        ),
        latency: ("observed_p99_ms", cnn.map_or(f64::NAN, |r| r.p99_ms)),
        latency2: ("observed_llm_p50_ms", llm.map_or(f64::NAN, |r| r.p50_ms)),
    }
}

/// `obs.overhead_x`: an observed replay over a plain replay of the same
/// input, alternating the two; the plain replays run in the traced run only.
/// Recording must not change the replays' results.
fn recorder_overhead(h: &Harness, i: &Inputs) {
    let (mut plain, mut observed) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let t = Instant::now();
        let cnn = simulate_sharded_with_faults(
            &i.co,
            &i.profiles,
            &i.trace,
            &ServeConfig::default(),
            &i.faults,
            FaultPolicy::RequeueInflight,
        );
        let llm = simulate_llm_sharded(&i.llm, &i.llm_trace, BatchingMode::Continuous);
        plain.push(t.elapsed().as_secs_f64());

        let recorder = Recorder::enabled();
        let t = Instant::now();
        let (cnn_observed, llm_observed) = (
            simulate_sharded_observed(
                &i.co,
                &i.profiles,
                &i.trace,
                &ServeConfig::default(),
                &i.faults,
                FaultPolicy::RequeueInflight,
                &recorder,
            ),
            simulate_llm_sharded_observed(
                &i.llm,
                &i.llm_trace,
                BatchingMode::Continuous,
                &recorder,
            ),
        );
        observed.push(t.elapsed().as_secs_f64());
        if cnn != cnn_observed || llm != llm_observed {
            h.problem("recording changed a replay's results".into());
        }
    }
    h.set_layer("obs.overhead_x", median(&observed) / median(&plain));
}
