//! One [`InnerSearchCache`] serves every sub-platform of a platform, and
//! what an inner search finds must not depend on which searches of the same
//! cache ran before it.
//!
//! For each distinct network of the bundled [`MixZoo`] mixes, single-workload
//! co-schedules run on F1 sub-platforms of one to seven accelerators: inside
//! group 0, inside group 1 and across the group boundary.  They run through
//! one shared cache in forward order, through another in reverse order, and
//! each on a fresh cache.  Every run must return the bit-identical mapping,
//! history and evaluation counts, at 1 and at 4 outer worker threads.

use mars_accel::Catalog;
use mars_core::{
    co_schedule_cached, CoScheduleConfig, CoScheduleResult, GaConfig, InnerSearchCache, Workload,
};
use mars_model::zoo::MixZoo;
use mars_topology::{presets, AccelId, Topology};

/// The F1 windows: sizes 1-4 inside each group of four, sizes 2-7
/// straddling the boundary between accelerators 3 and 4.
fn windows() -> Vec<Vec<AccelId>> {
    let span = |start: usize, len: usize| (start..start + len).map(AccelId).collect();
    let mut windows: Vec<Vec<AccelId>> = Vec::new();
    for group_start in [0, 4] {
        windows.extend((1..=4).map(|len| span(group_start, len)));
    }
    windows.extend((2..=7).map(|len| span(4 - len / 2, len)));
    windows
}

/// Everything a co-schedule returns except timings, search statistics and
/// the inner-search count, as bits.
fn fingerprint(co: &CoScheduleResult) -> String {
    let p = &co.placements[0];
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    format!(
        "{:?} {} {:?} {} {:?} {} {:?}",
        p.result.mapping,
        p.result.mapping.latency_seconds.to_bits(),
        bits(&p.result.history),
        p.result.evaluations,
        bits(&co.outer_history),
        co.outer_evaluations,
        co.makespan_seconds.to_bits(),
    )
}

#[test]
fn inner_results_do_not_depend_on_what_the_cache_searched_first() {
    let f1 = presets::f1_16xlarge();
    let catalog = Catalog::standard_three();
    let platforms: Vec<Topology> = windows()
        .iter()
        .map(|w| f1.subtopology(w).expect("valid window").0)
        .collect();
    let mut names = Vec::new();
    let networks: Vec<_> = MixZoo::ALL
        .iter()
        .flat_map(|mix| mix.entries())
        .filter(|w| {
            let name = w.network.name().to_string();
            let new = !names.contains(&name);
            names.push(name);
            new
        })
        .collect();
    for workload in networks {
        let workloads = [Workload::new(workload.network)];
        let name = workloads[0].network.name().to_string();
        let mut first: Option<Vec<String>> = None;
        for threads in [1, 4] {
            // One workload takes its whole sub-platform, so the outer GA only
            // re-reads one inner search; keep it small.
            let config = CoScheduleConfig {
                outer: GaConfig {
                    population: 4,
                    generations: 2,
                    ..GaConfig::first_level(5)
                },
                ..CoScheduleConfig::fast(5)
            }
            .with_threads(threads);
            let run = |topo: &Topology, cache: &InnerSearchCache| {
                fingerprint(
                    &co_schedule_cached(&workloads, topo, &catalog, &config, cache)
                        .expect("a single workload schedules"),
                )
            };
            let fresh: Vec<String> = platforms
                .iter()
                .map(|t| run(t, &InnerSearchCache::new()))
                .collect();
            let forward_cache = InnerSearchCache::new();
            let forward: Vec<String> = platforms.iter().map(|t| run(t, &forward_cache)).collect();
            let reverse_cache = InnerSearchCache::new();
            let mut reverse: Vec<String> = platforms
                .iter()
                .rev()
                .map(|t| run(t, &reverse_cache))
                .collect();
            reverse.reverse();
            for (i, window) in windows().iter().enumerate() {
                assert_eq!(
                    forward[i], fresh[i],
                    "{name} on {window:?}, forward order, {threads} threads"
                );
                assert_eq!(
                    reverse[i], fresh[i],
                    "{name} on {window:?}, reverse order, {threads} threads"
                );
            }
            match &first {
                None => first = Some(fresh),
                Some(serial) => assert_eq!(&fresh, serial, "{name}: 1 vs {threads} threads"),
            }
        }
    }
}
