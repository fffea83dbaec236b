//! Property tests of the GA budgets: every value a caller can set in a
//! [`GaConfig`] — degenerate populations and generation counts included —
//! must let a search finish with a valid result, never panic.  The GA
//! operators are constants of the level that runs, so the budget, the seed
//! and the thread count are all a caller can vary.

use mars_accel::Catalog;
use mars_core::{co_schedule, CoScheduleConfig, GaConfig, Mars, SearchConfig, Workload};
use mars_model::zoo;
use mars_topology::presets;
use proptest::prelude::*;

/// The small end of every budget: 0–3 individuals, 0–2 generations, 1–2
/// threads (the pool starts `min(threads, population)` OS threads) and any
/// seed.
fn budget() -> impl Strategy<Value = GaConfig> {
    (0usize..=3, 0usize..=2, 1usize..=2, 0u64..=u64::MAX).prop_map(
        |(population, generations, threads, seed)| GaConfig {
            population,
            generations,
            seed,
            threads,
        },
    )
}

fn search_config(first_level: GaConfig, second_level: GaConfig) -> SearchConfig {
    SearchConfig {
        first_level,
        second_level,
        ..SearchConfig::fast(0)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_search_budget_finds_a_valid_mapping(first in budget(), second in budget()) {
        let net = zoo::alexnet(1000);
        let topo = presets::f1_16xlarge();
        let catalog = Catalog::standard_three();
        let config = search_config(first, second);
        let result = Mars::new(&net, &topo, &catalog).with_config(config).search();
        prop_assert!(result.mapping.is_valid(), "{config:?}");
    }

    #[test]
    fn any_co_schedule_budget_finds_a_valid_placement(
        outer in budget(),
        first in budget(),
        second in budget(),
    ) {
        let workloads = [
            Workload::new(zoo::alexnet(100)),
            Workload::new(zoo::alexnet(10)),
        ];
        let topo = presets::f1_16xlarge();
        let catalog = Catalog::standard_three();
        let config = CoScheduleConfig {
            outer,
            inner: search_config(first, second),
            ..CoScheduleConfig::fast(0)
        };
        let result = co_schedule(&workloads, &topo, &catalog, &config);
        prop_assert!(
            matches!(&result, Ok(co) if co.is_valid()),
            "{config:?}: {result:?}"
        );
    }
}
