//! Memory is a **hard constraint**, proved twice over:
//!
//! * no `co_schedule` placement ever puts a workload on an accelerator that
//!   cannot hold its resident footprint — infeasible demands are *rejected*
//!   ([`CoScheduleError::MemoryInfeasible`]), never merely penalised; and
//! * no continuous-batching step ever reserves more KV-cache memory than
//!   the lane's budget (capacity minus resident weights) — the engine's
//!   reservation-based admission makes overcommit impossible by
//!   construction, and this suite checks the invariant at every step of
//!   real runs rather than trusting the construction.
//!
//! Both properties are exercised at `MARS_THREADS` 1 and 4 with the results
//! asserted **bit-identical** across thread counts.  The co-scheduler takes
//! its worker count from [`CoScheduleConfig::with_threads`], so only the
//! serving half touches the process environment — and this binary keeps all
//! env-reading assertions inside a single `#[test]`, so the sequential
//! set/restore cannot race (the same discipline as the fleet equivalence
//! harness).

use mars::core::CoScheduleError;
use mars::model::zoo::{llm_mix, MixZoo};
use mars::model::Workload;
use mars::prelude::*;
use mars::serve::{simulate_llm_sharded, BatchingMode, LlmSimState, LlmTrace};
use mars::topology::presets;
use proptest::prelude::*;

/// The small co-schedule budget of the scheduler unit suite: placement
/// quality is irrelevant here, only the feasibility contract.
fn tiny_config(seed: u64) -> CoScheduleConfig {
    CoScheduleConfig {
        outer: GaConfig {
            population: 4,
            generations: 2,
            ..GaConfig::first_level(seed)
        },
        ..CoScheduleConfig::fast(seed)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random resident footprints on the F1 platform (1 GiB effective
    /// capacity per accelerator): demands beyond capacity are rejected up
    /// front, demands within capacity schedule with every accelerator of
    /// every partition holding its workload — and the outcome is
    /// bit-identical at 1 and 4 co-scheduler threads.
    #[test]
    fn co_schedule_placements_never_exceed_accelerator_memory(
        seed in 0u64..1000,
        demand_a_mib in 0u64..1536,
        demand_b_mib in 0u64..1536,
    ) {
        let topo = presets::f1_16xlarge();
        let catalog = Catalog::standard_three();
        let capacity_of = |a: mars::topology::AccelId| {
            topo.dram_bytes(a).min(catalog.min_memory_bytes())
        };
        let best_capacity = topo
            .accelerators()
            .map(capacity_of)
            .max()
            .expect("F1 has accelerators");

        let demands = [demand_a_mib << 20, demand_b_mib << 20];
        let workloads: Vec<Workload> = demands
            .iter()
            .map(|&d| {
                Workload::new(mars::model::zoo::alexnet(10)).with_memory_bytes(d)
            })
            .collect();

        let run = |threads: usize| {
            mars::co_schedule(
                &workloads,
                &topo,
                &catalog,
                &tiny_config(seed).with_threads(threads),
            )
        };
        let serial = run(1);
        let parallel = run(4);

        match (&serial, &parallel) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(
                    a.weighted_makespan_seconds.to_bits(),
                    b.weighted_makespan_seconds.to_bits(),
                    "thread count changed the objective"
                );
                for (pa, pb) in a.placements.iter().zip(&b.placements) {
                    prop_assert_eq!(&pa.accels, &pb.accels, "thread count moved a placement");
                }
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            _ => prop_assert!(false, "thread count changed feasibility"),
        }

        match serial {
            Ok(result) => {
                prop_assert!(result.is_valid());
                for p in &result.placements {
                    let demand = demands[p.workload];
                    prop_assert!(demand <= best_capacity);
                    for &a in &p.accels {
                        prop_assert!(
                            demand <= capacity_of(a),
                            "workload {} ({} MiB) overcommits {:?}",
                            p.workload,
                            demand >> 20,
                            a
                        );
                    }
                }
            }
            Err(CoScheduleError::MemoryInfeasible { workload, demand_bytes, capacity_bytes }) => {
                // Only a genuinely impossible demand may be rejected.
                prop_assert_eq!(demand_bytes, demands[workload]);
                prop_assert_eq!(capacity_bytes, best_capacity);
                prop_assert!(demand_bytes > best_capacity);
            }
            Err(other) => prop_assert!(false, "unexpected error: {other}"),
        }
    }
}

/// The serving half: drive [`LlmSimState`] through a fine time grid and
/// assert the KV reservation never exceeds the budget at **any** step, for
/// both batching modes, with `MARS_THREADS` at 1 and 4 — and the sharded
/// reports bit-identical across thread counts and to the unsharded run.
/// The only test in this binary that touches the environment.
#[test]
fn no_batching_step_exceeds_the_kv_budget_at_any_thread_count() {
    let spec = llm_mix();
    let trace = LlmTrace::draw(&spec, 42).expect("bundled mix is valid");
    let saved = std::env::var("MARS_THREADS").ok();

    for mode in BatchingMode::ALL {
        // Step the unsharded engine over a fine grid, checking the
        // reservation envelope between every pair of events.
        let mut sim = LlmSimState::new(&spec, &trace, mode).expect("valid inputs");
        let steps = 200;
        for k in 0..=steps {
            sim.run_until(trace.horizon_seconds * k as f64 / steps as f64);
            for w in 0..spec.workloads.len() {
                assert!(
                    sim.kv_reserved_bytes(w) <= sim.kv_budget_bytes(w),
                    "{mode}: workload {w} overcommits KV at step {k}"
                );
                // The budget itself fits beside the weights.
                assert!(
                    spec.workloads[w].weights_bytes + sim.kv_budget_bytes(w)
                        <= spec.accel_memory_bytes,
                    "{mode}: workload {w} budget exceeds card memory"
                );
            }
        }
        let stepped = sim.report();

        let single = LlmSimState::new(&spec, &trace, mode)
            .expect("valid inputs")
            .finish();
        assert_eq!(stepped, single, "{mode}: stepped run diverges");
        for s in &single.per_workload {
            assert!(
                s.peak_kv_bytes <= s.kv_budget_bytes,
                "{mode}: {} peaked over budget",
                s.name
            );
        }

        for threads in ["1", "4"] {
            std::env::set_var("MARS_THREADS", threads);
            let sharded = simulate_llm_sharded(&spec, &trace, mode).expect("valid inputs");
            assert_eq!(
                sharded, single,
                "{mode}/MARS_THREADS={threads}: sharded run diverges"
            );
        }
    }

    // The same envelope holds under the heavier fleet-derived traffic shape
    // (sanity that llm_mix is not a special case): reuse its phased traffic
    // with the LLM workload set.
    let fleet = MixZoo::fleet();
    assert!(fleet.traffic.validate().is_ok());

    match saved {
        Some(v) => std::env::set_var("MARS_THREADS", v),
        None => std::env::remove_var("MARS_THREADS"),
    }
}
