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

    for mix in MixZoo::ALL {
        let workloads: Vec<Workload> = mix.entries();
        let result = mars::co_schedule(&workloads, &topo, &catalog, &CoScheduleConfig::fast(42))
            .expect("valid mix");
        println!("== {mix} ==");
        print!("{}", report::render_co_schedule(&workloads, &result));
        println!(
            "   ({} inner searches, {} outer evals, {:.1} s)\n",
            result.inner_searches,
            result.outer_evaluations,
            result.elapsed.as_secs_f64()
        );
    }
}
