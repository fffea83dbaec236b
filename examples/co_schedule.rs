//! Multi-DNN co-scheduling quickstart: place a bundled workload mix on the
//! F1-style platform and compare against sequential-exclusive execution.
//!
//! ```sh
//! cargo run --release --example co_schedule
//! ```

use mars::core::report;
use mars::model::zoo::MixZoo;
use mars::prelude::*;

fn main() {
    let topo = mars::topology::presets::f1_16xlarge();
    let catalog = Catalog::standard_three();

    let config = CoScheduleConfig::fast(42);
    for mix in MixZoo::ALL {
        let workloads: Vec<Workload> = mix.entries();
        // One cache: the baseline's full-platform searches join the
        // co-schedule's.
        let cache = InnerSearchCache::new();
        let result = mars::core::co_schedule_cached(&workloads, &topo, &catalog, &config, &cache)
            .expect("valid mix");
        let sequential =
            mars::core::sequential_exclusive(&workloads, &topo, &catalog, &config, &cache)
                .expect("valid mix");
        println!("== {mix} ==");
        print!(
            "{}",
            report::render_co_schedule(&workloads, &result, &sequential)
        );
        println!(
            "   ({} inner searches, {} outer evals, {:.1} s)\n",
            result.inner_searches,
            result.outer_evaluations,
            result.elapsed.as_secs_f64()
        );
    }
}
