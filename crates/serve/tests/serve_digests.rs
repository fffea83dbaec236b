//! Bit-exact digests of whole serving runs.
//!
//! The table goldens pin goodput counts, and the fleet equivalence suite
//! compares the engine with an oracle that shares its percentile code; these
//! digests pin every bit a replay returns.  Each digest is FNV-1a over the
//! `Debug` rendering of the run's output, which prints every `f64` in its
//! shortest exact form, so a changed latency sample, percentile, utilisation
//! or counter changes the digest.  A speed-only change to the event queue,
//! the percentile selection or the lane bookkeeping must leave every digest
//! unchanged, at every `MARS_THREADS` setting.
//!
//! Coverage, on inputs that need no search:
//!
//! - the bundled fleet (`fleet_co_schedule(&MixZoo::fleet())`, trace
//!   `Trace::phased(.., 42)`) under each `DispatchPolicy` through
//!   `simulate_sharded_with_faults`: healthy, and with the bundled fault
//!   schedule under each `FaultPolicy`;
//! - one `SimState` on that fleet: a snapshot at half the horizon, then the
//!   finished report;
//! - one `SimState` on that fleet driven to exhaustion by `step`: every
//!   batch event and the final report;
//! - `llm_mix()` with `LlmTrace::draw(.., 42)` under both `BatchingMode`s
//!   through `simulate_llm_sharded`;
//! - the metrics JSON and the Chrome trace JSON of that LLM replay, under
//!   both `BatchingMode`s, through `simulate_llm_sharded_observed` and
//!   through one `LlmSimState` with a recorder (the same bytes);
//! - one `LlmSimState` per `BatchingMode` on that mix: its report at a
//!   quarter, half and three quarters of the horizon, then the finished
//!   report;
//! - the metrics JSON and the Chrome trace JSON of one recorded `SimState`
//!   fleet run with the bundled faults: the metrics include the
//!   `serve/calendar_occupancy` series, and the trace holds the CNN batch
//!   spans and fault instants.
//!
//! When a change is *meant* to alter serving results, re-run this test,
//! copy the printed digests into the constants below, and say so in the
//! change log.

use mars_model::zoo::{llm_mix, MixZoo};
use mars_model::{FaultEvent, FaultKind, TrafficProfile};
use mars_obs::{chrome_trace_json, metrics_json, Recorder};
use mars_serve::{
    fleet_co_schedule, simulate_llm_sharded, simulate_llm_sharded_observed,
    simulate_sharded_with_faults, BatchingMode, DispatchPolicy, FaultPolicy, LlmSimState, LlmTrace,
    ServeConfig, SimState, Trace,
};
use mars_topology::AccelId;
use std::fmt::{Debug, Write};

const SEED: u64 = 42;

/// FNV-1a over the bytes written into it, so `Debug` output streams into
/// the hash without being collected first.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, value: &impl Debug) {
        write!(self, "{value:?}").expect("hashing never fails");
    }
}

impl Write for Digest {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

fn digest_of(value: &impl Debug) -> u64 {
    let mut d = Digest::new();
    d.add(value);
    d.0
}

#[track_caller]
fn assert_digest(what: &str, got: u64, pinned: u64) {
    assert_eq!(
        got, pinned,
        "{what}: digest {got:#018x}, pinned {pinned:#018x} \
         (intentional change? re-pin the digest constants)"
    );
}

/// The bundled fleet's placements, first-phase profiles, trace and faults.
struct Fleet {
    co: mars_core::CoScheduleResult,
    profiles: Vec<TrafficProfile>,
    trace: Trace,
    faults: Vec<FaultEvent>,
}

fn fleet() -> Fleet {
    let spec = MixZoo::fleet();
    Fleet {
        co: fleet_co_schedule(&spec),
        profiles: spec.traffic.phases[0].profiles.clone(),
        trace: Trace::phased(&spec.traffic, SEED).expect("bundled traffic is valid"),
        faults: spec.traffic.faults.clone(),
    }
}

/// Fleet replays per dispatch policy: `[healthy, faults + LoseInflight,
/// faults + RequeueInflight]`.
const FLEET_REPLAY_DIGESTS: [(DispatchPolicy, [u64; 3]); 3] = [
    (
        DispatchPolicy::Fifo,
        [
            0x24d8_6805_2ffd_95df,
            0x9638_d78c_2197_133d,
            0x9638_d78c_2197_133d,
        ],
    ),
    (
        DispatchPolicy::EarliestDeadline,
        [
            0xa3ef_c9fa_b566_a0ff,
            0x13ec_225a_af4c_d2eb,
            0x13ec_225a_af4c_d2eb,
        ],
    ),
    (
        DispatchPolicy::SlaWeighted,
        [
            0xde62_193c_4eae_cdcc,
            0x4df5_c139_fbc4_c180,
            0xfbb5_2d04_f62e_6a79,
        ],
    ),
];

/// `SimState` at the default config: the snapshot at half the horizon, then
/// the finished report.
const SNAPSHOT_DIGEST: u64 = 0xe0c8_7568_fa12_2ff3;
const FINISH_DIGEST: u64 = 0xa3ef_c9fa_b566_a0ff;

/// `SimState` at the default config stepped to exhaustion.
const STEP_DIGEST: u64 = 0x2048_62da_1ac6_c14e;

/// `llm_mix()` per batching mode, in `BatchingMode::ALL` order.
const LLM_DIGESTS: [(BatchingMode, u64); 2] = [
    (BatchingMode::OneShot, 0xb662_2d2b_6a88_1c19),
    (BatchingMode::Continuous, 0x191d_2ede_d224_0864),
];

/// `llm_mix()` per batching mode through `simulate_llm_sharded_observed`:
/// `[metrics_json, chrome_trace_json]` of what the replay recorded.
const LLM_EXPORT_DIGESTS: [(BatchingMode, [u64; 2]); 2] = [
    (
        BatchingMode::OneShot,
        [0x31aa_f6b3_e034_5884, 0x037e_794b_3cb6_3c15],
    ),
    (
        BatchingMode::Continuous,
        [0x0c3e_da1d_84b8_5c52, 0xe7c8_8ceb_a473_137e],
    ),
];

/// `llm_mix()` per batching mode: one `LlmSimState`'s reports at ¼, ½ and
/// ¾ of the horizon, then its finished report, hashed in that order.
const LLM_RESUMED_DIGESTS: [(BatchingMode, u64); 2] = [
    (BatchingMode::OneShot, 0x8a7b_f437_1701_489f),
    (BatchingMode::Continuous, 0xde83_42f2_82e9_9366),
];

/// `metrics_json` of the recorded fleet run with the bundled faults.
const METRICS_DIGEST: u64 = 0xd444_8f94_260b_664b;

/// `chrome_trace_json` of the same recorded fleet run.
const FLEET_TRACE_DIGEST: u64 = 0x907b_4435_26fd_857e;

#[test]
fn fleet_replay_digests() {
    let f = fleet();
    for (policy, pinned) in FLEET_REPLAY_DIGESTS {
        let config = ServeConfig::new(policy);
        let runs = [
            (&[][..], FaultPolicy::default(), "healthy"),
            (&f.faults[..], FaultPolicy::LoseInflight, "faults, lose"),
            (
                &f.faults[..],
                FaultPolicy::RequeueInflight,
                "faults, requeue",
            ),
        ];
        for ((faults, fault_policy, label), pinned) in runs.into_iter().zip(pinned) {
            let report = simulate_sharded_with_faults(
                &f.co,
                &f.profiles,
                &f.trace,
                &config,
                faults,
                fault_policy,
            )
            .expect("valid fleet replay");
            assert_digest(&format!("{policy} {label}"), digest_of(&report), pinned);
        }
    }
}

#[test]
fn sim_state_snapshot_and_finish_digests() {
    let f = fleet();
    let mut sim = SimState::new(&f.co, &f.profiles, &f.trace, &ServeConfig::default())
        .expect("valid fleet inputs");
    sim.run_until(f.trace.horizon_seconds / 2.0);
    assert_digest("snapshot", digest_of(&sim.snapshot()), SNAPSHOT_DIGEST);
    assert_digest("finish", digest_of(&sim.finish()), FINISH_DIGEST);
}

#[test]
fn sim_state_step_digest() {
    let f = fleet();
    let mut sim = SimState::new(&f.co, &f.profiles, &f.trace, &ServeConfig::default())
        .expect("valid fleet inputs");
    let mut d = Digest::new();
    while let Some(batch) = sim.step() {
        d.add(&batch);
    }
    d.add(&sim.report());
    assert_digest("step", d.0, STEP_DIGEST);
}

#[test]
fn llm_replay_digests() {
    let spec = llm_mix();
    let trace = LlmTrace::draw(&spec, SEED).expect("bundled LLM mix is valid");
    for (mode, pinned) in LLM_DIGESTS {
        let report = simulate_llm_sharded(&spec, &trace, mode).expect("valid LLM replay");
        assert_digest(&format!("llm {mode}"), digest_of(&report), pinned);
    }
}

#[test]
fn llm_export_digests() {
    let spec = llm_mix();
    let trace = LlmTrace::draw(&spec, SEED).expect("bundled LLM mix is valid");
    for (mode, [metrics_pin, trace_pin]) in LLM_EXPORT_DIGESTS {
        let sharded = Recorder::enabled();
        simulate_llm_sharded_observed(&spec, &trace, mode, &sharded).expect("valid LLM replay");
        let single = Recorder::enabled();
        LlmSimState::new(&spec, &trace, mode)
            .expect("valid LLM inputs")
            .with_recorder(single.clone())
            .finish();
        for (path, recorder) in [("sharded", sharded), ("one engine", single)] {
            let obs = recorder.take();
            let metrics = metrics_json(&obs);
            let chrome = chrome_trace_json(&obs);
            assert!(metrics.contains("llm/kv_reserved/") && chrome.contains("llm/"));
            // LLM lanes record lane-local metrics only: never the calendar
            // occupancy or stale-skip counts of a top-level CNN engine.
            assert!(
                !metrics.contains("serve/calendar_occupancy")
                    && !metrics.contains("serve/stale_skips"),
                "llm {mode} {path}: engine-level metrics recorded"
            );
            let mut d = Digest::new();
            d.write_str(&metrics).expect("hashing never fails");
            assert_digest(&format!("llm {mode} {path} metrics"), d.0, metrics_pin);
            let mut d = Digest::new();
            d.write_str(&chrome).expect("hashing never fails");
            assert_digest(&format!("llm {mode} {path} trace"), d.0, trace_pin);
        }
    }
}

#[test]
fn llm_sim_state_resumed_digests() {
    let spec = llm_mix();
    let trace = LlmTrace::draw(&spec, SEED).expect("bundled LLM mix is valid");
    for (mode, pinned) in LLM_RESUMED_DIGESTS {
        let mut sim = LlmSimState::new(&spec, &trace, mode).expect("valid LLM inputs");
        let mut d = Digest::new();
        for quarter in 1..4 {
            sim.run_until(trace.horizon_seconds * f64::from(quarter) / 4.0);
            d.add(&sim.report());
        }
        d.add(&sim.finish());
        assert_digest(&format!("llm {mode} resumed"), d.0, pinned);
    }
}

#[test]
fn recorded_fleet_metrics_digest() {
    let f = fleet();
    let recorder = Recorder::enabled();
    let mut sim = SimState::new(&f.co, &f.profiles, &f.trace, &ServeConfig::default())
        .expect("valid fleet inputs")
        .with_recorder(recorder.clone());
    for fault in &f.faults {
        sim.run_until(fault.at_seconds);
        match fault.kind {
            FaultKind::AccelDown { accel } => {
                sim.fail_accel(AccelId(accel), FaultPolicy::RequeueInflight);
            }
            FaultKind::AccelRestored { accel } => sim.restore_accel(AccelId(accel)),
            FaultKind::LinkDegraded { .. } => {}
        }
    }
    sim.finish();
    let obs = recorder.take();
    let metrics = metrics_json(&obs);
    assert!(metrics.contains("serve/calendar_occupancy"));
    let mut d = Digest::new();
    d.write_str(&metrics).expect("hashing never fails");
    assert_digest("metrics", d.0, METRICS_DIGEST);
    let chrome = chrome_trace_json(&obs);
    assert!(chrome.contains("\"ph\": \"X\"") && chrome.contains("\"ph\": \"i\""));
    let mut d = Digest::new();
    d.write_str(&chrome).expect("hashing never fails");
    assert_digest("trace", d.0, FLEET_TRACE_DIGEST);
}
