//! Golden regression tests pinning the seeded headline numbers of the
//! reproduced tables.
//!
//! The searches are deterministic (fixed seeds, thread-count-invariant), so
//! these figures must not move unless an evaluator/mapper/search change is
//! *intentional* — a drift here means paper-reproduction results silently
//! changed.  When a change is deliberate, re-run
//! `cargo run --release -p mars-bench --bin table3` (and `table_multi`,
//! `table_serve`) and update the pinned constants.
//!
//! Every test here runs in the default suite (`cargo test -q`, a few
//! seconds at the test profile's `opt-level = 1`), so each PR pins every
//! table number.  CI runs the suite at `MARS_THREADS=1` and `4`, and the
//! scheduled nightly workflow adds `8`, which also enforces that the pinned
//! numbers are identical at every thread count.
//!
//! The co-schedule and elastic goldens also pin a digest of each row's whole
//! output (see [`multi_digest`] and [`elastic_digest`]), so a change that
//! keeps the headline numbers but moves a placement, a mapping or a
//! reconfiguration still fails here.

use mars_accel::{Catalog, ProfileTable};
use mars_bench::{
    table3_row, table_elastic_row, table_failover_row, table_fleet_row, table_llm_row,
    table_multi_row, table_serve_row, Budget, ElasticRow, MultiRow,
};
use mars_model::zoo::{Benchmark, MixZoo};
use mars_obs::Recorder;
use mars_runtime::RuntimePolicy;
use mars_serve::{BatchingMode, DispatchPolicy};
use std::fmt::{Debug, Write};

/// Tolerance in milliseconds: the pins are recorded at 1e-9 ms precision and
/// the searches are bit-deterministic, so the only slack needed is decimal
/// rounding of the constants themselves.
const TOL_MS: f64 = 1e-6;

/// FNV-1a over the bytes written into it, so `Debug` output streams into
/// the hash without building the whole string.  `Debug` prints every `f64`
/// in its shortest round-trip form, so equal digests mean equal bits.
struct Digest(u64);

impl Write for Digest {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

fn digest_of(value: &impl Debug) -> u64 {
    let mut d = Digest(0xcbf2_9ce4_8422_2325);
    write!(d, "{value:?}").expect("hashing never fails");
    d.0
}

/// Digest of a `table_multi` row: every placement's workload, accelerators
/// and mapping, both makespans, the outer GA's history and evaluation count,
/// and both sequential-exclusive makespans.  Timings, search statistics and
/// the inner-search count are left out: they vary with the machine and with
/// what the cache already held.
fn multi_digest(row: &MultiRow) -> u64 {
    let r = &row.result;
    let placements: Vec<_> = r
        .placements
        .iter()
        .map(|p| (p.workload, &p.accels, &p.result.mapping))
        .collect();
    digest_of(&(
        placements,
        r.makespan_seconds.to_bits(),
        r.weighted_makespan_seconds.to_bits(),
        &r.outer_history,
        r.outer_evaluations,
        row.sequential.makespan_seconds.to_bits(),
        row.sequential.weighted_makespan_seconds.to_bits(),
    ))
}

/// Digest of an elastic row: every policy's whole [`ElasticReport`]
/// (serving report, reconfiguration events, trigger count).
///
/// [`ElasticReport`]: mars_runtime::ElasticReport
fn elastic_digest(row: &ElasticRow) -> u64 {
    digest_of(&row.reports)
}

#[track_caller]
fn assert_digest(what: &str, got: u64, pinned: u64) {
    assert_eq!(
        got, pinned,
        "{what}: digest {got:#018x}, pinned {pinned:#018x} \
         (intentional change? re-pin the digest constants)"
    );
}

#[track_caller]
fn assert_pinned(what: &str, got: f64, pinned: f64) {
    assert!(
        (got - pinned).abs() <= TOL_MS,
        "{what} drifted: got {got:.9} ms, pinned {pinned:.9} ms \
         (intentional change? re-pin the golden constants)"
    );
}

/// The fast-budget Table III headline figures at the standard seeds
/// (`table3` uses seed `40 + row`): `(benchmark, baseline_ms, mars_ms)`.
const TABLE3_GOLDEN: [(Benchmark, f64, f64); 5] = [
    (Benchmark::AlexNet, 4.616181000, 3.403350500),
    (Benchmark::Vgg16, 44.266184000, 27.644454000),
    (Benchmark::ResNet34, 14.215456000, 5.450556000),
    (Benchmark::ResNet101, 45.629612000, 28.281436000),
    (Benchmark::WideResNet50_2, 50.612380000, 30.981862000),
];

fn golden_table3_row(index: usize) {
    let (benchmark, baseline_ms, mars_ms) = TABLE3_GOLDEN[index];
    let row = table3_row(
        benchmark,
        Budget::Fast,
        40 + index as u64,
        &Recorder::disabled(),
    );
    assert_pinned(
        &format!("{} baseline", benchmark.name()),
        row.baseline_ms,
        baseline_ms,
    );
    assert_pinned(&format!("{} MARS", benchmark.name()), row.mars_ms, mars_ms);
    // The pinned relationship, not just the numbers: MARS beats the baseline.
    assert!(row.mars_ms < row.baseline_ms);
}

#[test]
fn golden_table3_alexnet() {
    golden_table3_row(0);
}

#[test]
fn golden_table3_vgg16() {
    golden_table3_row(1);
}

#[test]
fn golden_table3_resnet34() {
    golden_table3_row(2);
}

#[test]
fn golden_table3_resnet101() {
    golden_table3_row(3);
}

#[test]
fn golden_table3_wide_resnet50_2() {
    golden_table3_row(4);
}

/// Table II's per-model design preferences: how many convolutions of each
/// benchmark prefer each catalogue design `(SuperLIP, Systolic, Winograd)`.
/// Pure profiling, no search — cheap enough to run unconditionally.
#[test]
fn golden_table2_design_preferences() {
    const GOLDEN: [(Benchmark, [usize; 3]); 5] = [
        (Benchmark::AlexNet, [0, 5, 0]),
        (Benchmark::Vgg16, [1, 0, 12]),
        (Benchmark::ResNet34, [1, 3, 32]),
        (Benchmark::ResNet101, [1, 70, 33]),
        (Benchmark::WideResNet50_2, [1, 36, 16]),
    ];
    let catalog = Catalog::standard_three();
    for (benchmark, pinned) in GOLDEN {
        let net = benchmark.build();
        let profile = ProfileTable::build(&net, &catalog);
        let mut counts = [0usize; 3];
        for (id, _) in net.conv_layers() {
            counts[profile.best_design(id).0] += 1;
        }
        assert_eq!(
            counts,
            pinned,
            "{} design preferences drifted (intentional change? re-pin)",
            benchmark.name()
        );
    }
}

/// The co-scheduling headline numbers of `table_multi` at its seeds
/// (`42 + row`): `(mix, co_makespan_ms, sequential_makespan_ms, digest)`.
const MULTI_GOLDEN: [(MixZoo, f64, f64, u64); 3] = [
    (
        MixZoo::ClassicPair,
        64.584400000,
        82.098062000,
        0xd60c_0c21_79bb_636b,
    ),
    (
        MixZoo::ResNetSurf,
        19.898528000,
        28.942344000,
        0x7178_55ad_2662_b848,
    ),
    (
        MixZoo::HeteroTriple,
        38.156704000,
        40.679349000,
        0x3442_bfc9_cc07_42cf,
    ),
];

/// The online-serving headline numbers of `table_serve` at its seeds
/// (`42 + row`): `(mix, total requests, [fifo, edf, sla-w] goodput)`.
/// Goodputs are request *counts*, so the pins are exact integers — any
/// drift at all means the trace generator, the batcher or the placements
/// changed.
const SERVE_GOLDEN: [(MixZoo, usize, [usize; 3]); 3] = [
    (MixZoo::ClassicPair, 172, [41, 69, 69]),
    (MixZoo::ResNetSurf, 294, [35, 134, 147]),
    (MixZoo::HeteroTriple, 222, [63, 79, 79]),
];

#[test]
fn golden_table_serve_goodput() {
    for (index, (mix, requests, goodputs)) in SERVE_GOLDEN.into_iter().enumerate() {
        let row = table_serve_row(mix, Budget::Fast, 42 + index as u64, &Recorder::disabled());
        assert_eq!(
            row.trace.total_requests(),
            requests,
            "{mix} request count drifted (intentional change? re-pin)"
        );
        for (policy, pinned) in DispatchPolicy::ALL.into_iter().zip(goodputs) {
            assert_eq!(
                row.report(policy).goodput,
                pinned,
                "{mix}/{policy} goodput drifted (intentional change? re-pin)"
            );
        }
        // The acceptance relationship, not just the numbers: SLA-aware
        // dispatch (EDF or SLA-weighted) beats FIFO on goodput for every
        // bundled mix at the default seeds.
        assert!(
            row.sla_aware_goodput_gain() > 1.0,
            "{mix}: SLA-aware gain {:.2} must exceed 1",
            row.sla_aware_goodput_gain()
        );
    }
}

/// The elastic-runtime headline numbers of `table_elastic` at seed 42:
/// `(mix, total requests, [static, reactive, oracle] goodput, digest)`.  Goodputs
/// are request *counts*, so the pins are exact integers — any drift at all
/// means the traffic scenarios, the drift monitor, the warm-started
/// re-scheduler or the migration model changed.
const ELASTIC_GOLDEN: [(MixZoo, usize, [usize; 3], u64); 3] = [
    (
        MixZoo::ClassicPair,
        454,
        [432, 432, 432],
        0x8aa2_3d75_2879_4fa8,
    ),
    (
        MixZoo::ResNetSurf,
        1127,
        [930, 945, 968],
        0x21be_c132_2419_2528,
    ),
    (
        MixZoo::HeteroTriple,
        819,
        [532, 627, 642],
        0x31a9_7662_1da6_9998,
    ),
];

#[test]
fn golden_table_elastic_goodput() {
    let mut strict_wins = 0usize;
    for (mix, requests, goodputs, digest) in ELASTIC_GOLDEN {
        let row = table_elastic_row(mix, Budget::Fast, 42, &Recorder::disabled());
        assert_digest(&format!("{mix} elastic"), elastic_digest(&row), digest);
        assert_eq!(
            row.trace.total_requests(),
            requests,
            "{mix} request count drifted (intentional change? re-pin)"
        );
        for (policy, pinned) in RuntimePolicy::ALL.into_iter().zip(goodputs) {
            assert_eq!(
                row.report(policy).serve.goodput,
                pinned,
                "{mix}/{policy} goodput drifted (intentional change? re-pin)"
            );
        }
        // The acceptance relationships, not just the numbers: closing the
        // loop never loses to the static placement (on mixes where every
        // migration is uneconomic the runtime declines them all and ties),
        // and the clairvoyant oracle bounds the reactive detector.
        let s = row.report(RuntimePolicy::Static).serve.goodput;
        let r = row.report(RuntimePolicy::Reactive).serve.goodput;
        let o = row.report(RuntimePolicy::Oracle).serve.goodput;
        assert!(r >= s, "{mix}: Reactive {r} must not lose to Static {s}");
        assert!(o >= r, "{mix}: Oracle {o} must not lose to Reactive {r}");
        if r > s {
            strict_wins += 1;
        }
        // Static never reconfigures; the oracle only moves at boundaries.
        assert!(row
            .report(RuntimePolicy::Static)
            .reconfigurations
            .is_empty());
        assert!(
            row.report(RuntimePolicy::Oracle).reconfigurations.len()
                <= row.scenario.boundaries().len()
        );
    }
    assert!(
        strict_wins >= 2,
        "Reactive must strictly beat Static on at least 2 of 3 mixes, got {strict_wins}"
    );
}

/// The failover headline numbers of `table_failover` at seed 42:
/// `(mix, total requests, [static, reactive, oracle] goodput, digest)` under
/// the bundled failure scenarios.  Goodputs are request *counts*, so the pins
/// are exact integers — any drift at all means the fault injection, the
/// revocation accounting, the topology trigger or the sub-topology
/// re-scheduler changed.
const FAILOVER_GOLDEN: [(MixZoo, usize, [usize; 3], u64); 3] = [
    (
        MixZoo::ClassicPair,
        454,
        [203, 391, 392],
        0xb465_3f98_7646_a81a,
    ),
    (
        MixZoo::ResNetSurf,
        1127,
        [413, 798, 889],
        0xbb80_8997_9de3_4cfc,
    ),
    (
        MixZoo::HeteroTriple,
        819,
        [407, 547, 611],
        0x39b7_4e87_0b8c_fc4f,
    ),
];

#[test]
fn golden_table_failover_goodput() {
    for (mix, requests, goodputs, digest) in FAILOVER_GOLDEN {
        let row = table_failover_row(mix, Budget::Fast, 42, &Recorder::disabled());
        assert_digest(&format!("{mix} failover"), elastic_digest(&row), digest);
        assert_eq!(
            row.trace.total_requests(),
            requests,
            "{mix} request count drifted (intentional change? re-pin)"
        );
        for (policy, pinned) in RuntimePolicy::ALL.into_iter().zip(goodputs) {
            assert_eq!(
                row.report(policy).serve.goodput,
                pinned,
                "{mix}/{policy} goodput drifted (intentional change? re-pin)"
            );
        }
        // The recovery relationships, not just the numbers: under faults a
        // re-planning runtime *strictly* beats the static placement on every
        // bundled mix, and the clairvoyant oracle bounds the detector.
        let s = row.report(RuntimePolicy::Static).serve.goodput;
        let r = row.report(RuntimePolicy::Reactive).serve.goodput;
        let o = row.report(RuntimePolicy::Oracle).serve.goodput;
        assert!(r > s, "{mix}: Reactive {r} must strictly beat Static {s}");
        assert!(o >= r, "{mix}: Oracle {o} must not lose to Reactive {r}");
        // Epoch discipline: applied reconfigurations carry strictly
        // increasing epochs, and no post-recovery placement ever targets a
        // downed accelerator.
        for report in &row.reports {
            let mut last_epoch = 0u64;
            for e in &report.reconfigurations {
                if e.applied {
                    assert!(
                        e.epoch > last_epoch,
                        "{mix}/{}: epoch {} not strictly increasing",
                        report.policy,
                        e.epoch
                    );
                    last_epoch = e.epoch;
                    for accels in &e.accels {
                        assert!(
                            accels.iter().all(|a| !e.down.contains(a)),
                            "{mix}/{}: placement targets downed accel",
                            report.policy
                        );
                    }
                }
            }
            assert_eq!(report.final_epoch(), last_epoch);
        }
    }
}

/// The fleet-scale headline numbers of `table_fleet` at seed 42: total
/// requests and the `[fifo, edf, sla-w]` goodputs of the faulted,
/// partition-sharded run over the 144-workload [`MixZoo::fleet`] scenario.
/// Goodputs are request *counts*, so the pins are exact integers — any
/// drift at all means the calendar engine, the arena batcher, the shard
/// merge or the fleet scenario changed.  (No search behind this row: the
/// placements are synthetic, so the whole golden runs in well under a
/// second.)
const FLEET_GOLDEN: (usize, [usize; 3]) = (126_518, [23_450, 79_726, 82_383]);

#[test]
fn golden_table_fleet_goodput() {
    let (requests, goodputs) = FLEET_GOLDEN;
    let row = table_fleet_row(42, &Recorder::disabled());
    assert_eq!(
        row.trace.total_requests(),
        requests,
        "fleet request count drifted (intentional change? re-pin)"
    );
    for (policy, pinned) in DispatchPolicy::ALL.into_iter().zip(goodputs) {
        assert_eq!(
            row.report(policy).goodput,
            pinned,
            "fleet/{policy:?} goodput drifted (intentional change? re-pin)"
        );
    }
    // The acceptance relationship: SLA-aware dispatch beats FIFO at fleet
    // scale too.
    let fifo = row.report(DispatchPolicy::Fifo).goodput;
    let best = row
        .report(DispatchPolicy::EarliestDeadline)
        .goodput
        .max(row.report(DispatchPolicy::SlaWeighted).goodput);
    assert!(
        best > fifo,
        "fleet: SLA-aware goodput {best} must beat FIFO {fifo}"
    );
}

/// The `table_llm` seed-42 headline figures: total requests, then
/// `(completed, goodput)` per batching mode in [`BatchingMode::ALL`] order
/// (one-shot first).  No search behind this row either — the trace draw and
/// both replays are bit-deterministic, so the golden runs in milliseconds.
const LLM_GOLDEN: (usize, [(usize, usize); 2]) = (213, [(147, 61), (200, 171)]);

#[test]
fn golden_table_llm_goodput() {
    let (requests, outcomes) = LLM_GOLDEN;
    let row = table_llm_row(42, &Recorder::disabled());
    assert_eq!(
        row.trace.total_requests(),
        requests,
        "LLM request count drifted (intentional change? re-pin)"
    );
    for (mode, (completed, goodput)) in BatchingMode::ALL.into_iter().zip(outcomes) {
        let report = row.report(mode);
        assert_eq!(
            report.completed, completed,
            "llm/{mode} completion count drifted (intentional change? re-pin)"
        );
        assert_eq!(
            report.goodput, goodput,
            "llm/{mode} goodput drifted (intentional change? re-pin)"
        );
    }
    // The acceptance relationship: iteration-level batch re-forming beats
    // holding every slot until the slowest member finishes — on the same
    // trace, under the same KV budgets.
    let one_shot = row.report(BatchingMode::OneShot).goodput;
    let continuous = row.report(BatchingMode::Continuous).goodput;
    assert!(
        continuous > one_shot,
        "llm: continuous goodput {continuous} must beat one-shot {one_shot}"
    );
    // And the batches never outgrow their lanes' KV budgets.
    for report in &row.reports {
        for s in &report.per_workload {
            assert!(
                s.peak_kv_bytes <= s.kv_budget_bytes,
                "llm/{}: {} peaked over its KV budget",
                report.mode,
                s.name
            );
        }
    }
}

#[test]
fn golden_table_multi_makespans() {
    for (index, (mix, co_ms, seq_ms, digest)) in MULTI_GOLDEN.into_iter().enumerate() {
        let row = table_multi_row(mix, Budget::Fast, 42 + index as u64);
        assert_digest(&format!("{mix} co-schedule"), multi_digest(&row), digest);
        assert_pinned(
            &format!("{mix} co-scheduled"),
            row.result.makespan_ms(),
            co_ms,
        );
        assert_pinned(
            &format!("{mix} sequential"),
            row.sequential.makespan_ms(),
            seq_ms,
        );
        // Co-scheduling beats sequential-exclusive on every bundled mix.
        assert!(row.result.makespan_ms() < row.sequential.makespan_ms());
    }
}
