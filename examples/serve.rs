//! Online serving quickstart: co-schedule a workload mix, then replay a
//! seeded one-second request trace against the placements under each
//! dispatch policy and compare goodput and tail latency.
//!
//! ```sh
//! cargo run --release --example serve
//! ```

use mars::prelude::*;
use mars::serve::{render_serve, simulate_sharded_with_faults, Trace};

fn main() {
    let mix = mars::model::zoo::MixZoo::ClassicPair;
    let workloads: Vec<Workload> = mix.entries();
    let topo = mars::topology::presets::f1_16xlarge();
    let catalog = Catalog::standard_three();

    let co = mars::co_schedule(&workloads, &topo, &catalog, &CoScheduleConfig::fast(42))
        .expect("bundled mix fits the platform");

    let profiles: Vec<TrafficProfile> = mix.traffic();
    let trace = Trace::poisson(&profiles, 1.0, 42).expect("bundled traffic is bounded");
    println!(
        "{mix}: replaying {} requests over {:.1}s against {} placements\n",
        trace.total_requests(),
        trace.horizon_seconds,
        co.placements.len()
    );

    for policy in DispatchPolicy::ALL {
        let config = ServeConfig::new(policy);
        // `&[]`: no fault schedule, a healthy pool.
        let report = simulate_sharded_with_faults(
            &co,
            &profiles,
            &trace,
            &config,
            &[],
            FaultPolicy::default(),
        )
        .expect("bundled profiles are valid");
        println!("{}", render_serve(&report));
    }
}
