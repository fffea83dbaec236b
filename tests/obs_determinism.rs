//! The observability determinism contract, end to end: attaching a
//! [`Recorder`](mars::obs::Recorder) to the search, the serving simulators
//! or the elastic runtime must never change what they compute — recorder on
//! vs off yields byte-identical outcomes — and the *merged* metrics must be
//! bit-identical across worker-thread counts, because everything recorded
//! derives from simulation clocks and deterministic counters (wall time
//! lives in an explicitly-nondeterministic section that is stripped before
//! comparison).

use mars::model::zoo::MixZoo;
use mars::obs::{chrome_trace_json, metrics_json, Recorder};
use mars::prelude::*;
use mars::runtime::{run_elastic_observed, RuntimePolicy};
use mars::serve::{
    simulate_llm_sharded_observed, simulate_sharded_observed, simulate_sharded_with_faults,
    BatchingMode, LlmTrace,
};

/// The deterministic export of everything a recorder collected: wall time
/// stripped, both exporters rendered (they order events canonically).
fn deterministic_exports(recorder: &Recorder) -> (String, String) {
    let mut obs = recorder.snapshot();
    obs.strip_wall();
    (metrics_json(&obs), chrome_trace_json(&obs))
}

/// Whether the `histograms` section of `obs`'s metrics JSON holds `name`
/// (a histogram is listed once it has observed a sample).
fn has_histogram(obs: &Obs, name: &str) -> bool {
    let json = metrics_json(obs);
    let Some(start) = json.find("\n  \"histograms\": {\n") else {
        return false;
    };
    let section = &json[start + 1..];
    let section = &section[..section.find("\n  }").expect("sections close")];
    section.contains(&format!("\n    \"{name}\": {{\"count\": "))
}

/// Recorder on vs off → bit-identical `SearchResult` at 1 and 4 worker
/// threads, and the merged search metrics are bit-identical across the two
/// thread counts.
#[test]
fn search_result_and_metrics_are_thread_and_recorder_invariant() {
    let net = mars::model::zoo::alexnet(1000);
    let topo = mars::topology::presets::f1_16xlarge();
    let catalog = Catalog::standard_three();

    let mut exports = Vec::new();
    for threads in [1usize, 4] {
        let config = SearchConfig::fast(31).with_threads(threads);
        let plain = Mars::new(&net, &topo, &catalog)
            .with_config(config)
            .search();
        let recorder = Recorder::enabled();
        let observed = Mars::new(&net, &topo, &catalog)
            .with_config(config)
            .with_recorder(recorder.clone())
            .search();

        assert_eq!(
            plain.mapping.latency_seconds.to_bits(),
            observed.mapping.latency_seconds.to_bits(),
            "threads={threads}: recording changed the searched latency"
        );
        assert_eq!(plain.mapping.assignments, observed.mapping.assignments);
        assert_eq!(plain.mapping.strategies, observed.mapping.strategies);
        let plain_bits: Vec<u64> = plain.history.iter().map(|f| f.to_bits()).collect();
        let observed_bits: Vec<u64> = observed.history.iter().map(|f| f.to_bits()).collect();
        assert_eq!(plain_bits, observed_bits);
        assert_eq!(plain.evaluations, observed.evaluations);

        let obs = recorder.snapshot();
        assert!(
            obs.counter_value("search/evaluations") > 0,
            "search recorded nothing"
        );
        assert!(obs.series("search/best_fitness").is_some());
        exports.push(deterministic_exports(&recorder));
    }
    assert_eq!(
        exports[0], exports[1],
        "merged search metrics differ between 1 and 4 threads"
    );
}

/// Recorder on vs off → identical `ServeReport` on one engine, with the
/// expected lane and engine-level metrics collected.
#[test]
fn serve_report_is_unchanged_by_recording() {
    let mix = MixZoo::ClassicPair;
    let workloads = mix.entries();
    let topo = mars::topology::presets::f1_16xlarge();
    let catalog = Catalog::standard_three();
    let co = mars::co_schedule(&workloads, &topo, &catalog, &CoScheduleConfig::fast(42)).unwrap();
    let profiles = mix.traffic();
    let trace = mars::serve::Trace::poisson(&profiles, 1.0, 42);
    let config = ServeConfig::default();

    let plain = SimState::new(&co, &profiles, &trace, &config)
        .unwrap()
        .finish();
    let recorder = Recorder::enabled();
    let observed = SimState::new(&co, &profiles, &trace, &config)
        .unwrap()
        .with_recorder(recorder.clone())
        .finish();
    assert_eq!(plain, observed, "recording changed the serve report");

    let obs = recorder.snapshot();
    assert!(has_histogram(&obs, "serve/batch_size"));
    assert!(has_histogram(&obs, "serve/queue_depth"));
    assert!(
        obs.series("serve/calendar_occupancy").is_some(),
        "engine-level metrics missing on the top-level simulator"
    );
    assert!(!obs.spans().is_empty(), "no batch spans recorded");
}

/// The sharded fleet runner and the sharded LLM runner: recorder on vs off
/// → identical reports at `MARS_THREADS` 1 and 4, and the shard-merged
/// metrics are bit-identical across the two thread counts.  The only test
/// in this binary that touches the environment, so the sequential
/// set/restore cannot race.
#[test]
fn sharded_metrics_merge_identically_at_every_thread_count() {
    let fleet = MixZoo::fleet();
    let co = mars::serve::fleet_co_schedule(&fleet);
    let profiles = fleet.traffic.phases[0].profiles.clone();
    let trace = mars::serve::Trace::phased(&fleet.traffic, 42).unwrap();
    let config = ServeConfig::default();

    let llm_spec = mars::model::zoo::llm_mix();
    let llm_trace = LlmTrace::draw(&llm_spec, 42).unwrap();

    let saved = std::env::var("MARS_THREADS").ok();
    let mut fleet_exports = Vec::new();
    let mut llm_exports = Vec::new();
    for threads in ["1", "4"] {
        std::env::set_var("MARS_THREADS", threads);

        let plain = simulate_sharded_with_faults(
            &co,
            &profiles,
            &trace,
            &config,
            &fleet.traffic.faults,
            FaultPolicy::RequeueInflight,
        )
        .unwrap();
        let recorder = Recorder::enabled();
        let observed = simulate_sharded_observed(
            &co,
            &profiles,
            &trace,
            &config,
            &fleet.traffic.faults,
            FaultPolicy::RequeueInflight,
            &recorder,
        )
        .unwrap();
        assert_eq!(
            plain, observed,
            "MARS_THREADS={threads}: recording changed the fleet report"
        );
        let obs = recorder.snapshot();
        assert!(has_histogram(&obs, "serve/batch_size"));
        assert!(!obs.spans().is_empty());
        fleet_exports.push(deterministic_exports(&recorder));

        let llm_plain =
            mars::serve::simulate_llm_sharded(&llm_spec, &llm_trace, BatchingMode::Continuous)
                .unwrap();
        let llm_recorder = Recorder::enabled();
        let llm_observed = simulate_llm_sharded_observed(
            &llm_spec,
            &llm_trace,
            BatchingMode::Continuous,
            &llm_recorder,
        )
        .unwrap();
        assert_eq!(
            llm_plain, llm_observed,
            "MARS_THREADS={threads}: recording changed the LLM report"
        );
        llm_exports.push(deterministic_exports(&llm_recorder));
    }
    match saved {
        Some(v) => std::env::set_var("MARS_THREADS", v),
        None => std::env::remove_var("MARS_THREADS"),
    }

    assert_eq!(
        fleet_exports[0], fleet_exports[1],
        "merged fleet metrics differ between 1 and 4 shard threads"
    );
    assert_eq!(
        llm_exports[0], llm_exports[1],
        "merged LLM metrics differ between 1 and 4 shard threads"
    );
    assert!(llm_exports[0].0.contains("llm/"), "no LLM metrics recorded");
}

/// Recorder on vs off → identical `ElasticReport` for every policy, with
/// the drift-monitor windows and the reconfiguration timeline collected,
/// and the metrics bit-identical across search thread counts.
#[test]
fn elastic_report_is_unchanged_by_recording() {
    let mix = MixZoo::ClassicPair;
    let workloads: Vec<Workload> = mix.entries();
    let topo = mars::topology::presets::f1_16xlarge();
    let catalog = Catalog::standard_three();
    let scenario = mix.failure_scenario();
    let trace = mars::serve::Trace::phased(&scenario, 42).unwrap();
    let cache = InnerSearchCache::new();

    let mut exports = Vec::new();
    for threads in [1usize, 4] {
        let config = RuntimeConfig::new(CoScheduleConfig::fast(42).with_threads(threads));
        for policy in RuntimePolicy::ALL {
            let plain = mars::runtime::run_elastic_with_cache(
                &workloads,
                &topo,
                &catalog,
                &scenario,
                &trace,
                policy,
                &config,
                &InnerSearchCache::new(),
            )
            .unwrap();
            let recorder = Recorder::enabled();
            let observed = run_elastic_observed(
                &workloads, &topo, &catalog, &scenario, &trace, policy, &config, &cache, &recorder,
            )
            .unwrap();
            assert_eq!(
                plain, observed,
                "threads={threads}/{policy:?}: recording changed the elastic report"
            );
            if policy == RuntimePolicy::Reactive {
                let obs = recorder.snapshot();
                assert!(
                    obs.series("runtime/window_miss_rate").is_some(),
                    "drift-monitor windows not recorded"
                );
                assert_eq!(
                    obs.counter_value("runtime/reconfigurations"),
                    observed.reconfigurations.len() as u64
                );
                exports.push(deterministic_exports(&recorder));
            }
        }
    }
    assert_eq!(
        exports[0], exports[1],
        "merged elastic metrics differ between 1 and 4 search threads"
    );
}
