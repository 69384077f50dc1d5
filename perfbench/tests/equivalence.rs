//! The benchmark's instruments must not change what they measure: the timing
//! wrapper and the clone-free input path reach the same decisions as the
//! bare store and the `next_batch` path, every check passes at reduced
//! scale, and the metric names agree with `BENCHMARK.json`.

use orchestra_model::schema::bioinformatics_schema;
use orchestra_model::ParticipantId;
use orchestra_store::{CentralStore, UpdateStore};
use perfbench::timed_store::{Method, TimedStore};
use perfbench::workloads::{
    run, Generation, Outcome, RunConfig, Sizes, Workload, DERIVED_LAYER_METRICS, E2E_METRICS,
    LAYER_METRICS,
};
use std::path::PathBuf;
use std::time::Instant;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("perfbench-test-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn reduced(workload: Workload, traced: bool, generation: Generation) -> Outcome {
    let tag = format!("{}-{traced}-{generation:?}", workload.name());
    let dir = scratch(&tag);
    let outcome = run(&RunConfig {
        workload,
        seed: 7,
        sizes: Sizes::reduced(workload),
        traced,
        generation,
        scratch: dir.clone(),
        started: Instant::now(),
    });
    std::fs::remove_dir_all(&dir).ok();
    for check in &outcome.checks {
        assert!(check.ok, "{}: check {} failed: {}", workload.name(), check.name, check.detail);
    }
    assert_eq!(outcome.failed, 0, "{}: no operation may fail", workload.name());
    assert!(outcome.attempted > 0);
    outcome
}

#[test]
fn wrapped_and_bare_stores_reach_identical_decisions() {
    for workload in [Workload::ConflictChurn, Workload::IngestRestart] {
        let bare = reduced(workload, false, Generation::Interleaved);
        let wrapped = reduced(workload, true, Generation::Interleaved);
        assert_ne!(bare.fingerprint, 0);
        assert_eq!(bare.fingerprint, wrapped.fingerprint, "{}", workload.name());
        assert_eq!(bare.stable, wrapped.stable, "{}", workload.name());
        // The wrapper saw the session traffic it claims to time.
        assert!(wrapped.layers["store.begin_calls"] > 0.0);
        assert_eq!(wrapped.layers["store.begin_calls"], wrapped.layers["store.commit_calls"]);
    }
}

#[test]
fn clone_free_generation_matches_next_batch() {
    for workload in Workload::ALL {
        let interleaved = reduced(workload, false, Generation::Interleaved);
        let batched = reduced(workload, false, Generation::Batched);
        assert_eq!(interleaved.fingerprint, batched.fingerprint, "{}", workload.name());
        assert_eq!(interleaved.stable, batched.stable, "{}", workload.name());
    }
}

#[test]
fn traced_fabric_run_attributes_every_phase() {
    let traced = reduced(Workload::FabricFanin, true, Generation::Interleaved);
    let untraced = reduced(Workload::FabricFanin, false, Generation::Interleaved);
    assert_eq!(traced.stable, untraced.stable, "tracing must not change any output");
    assert!(traced.checks.iter().any(|c| c.name == "layer_self_times_sum_to_phase_wall"));
    assert!(traced.layers["fabric.requests.shard0"] > 0.0);
    assert!(traced.trace.as_deref().unwrap_or("").starts_with("orchestra-obs-trace v1"));
}

#[test]
fn wrapper_forwards_methods_with_default_bodies() {
    let wrapped = TimedStore::new(CentralStore::new(bioinformatics_schema()), None);
    // A default body would report a scalar-only store and refuse the switch.
    assert!(!wrapped.causal_mode());
    wrapped.enable_causal_mode().expect("the central store supports causal mode");
    assert!(wrapped.causal_mode());
    assert!(wrapped.inner().causal_mode());
    assert_eq!(wrapped.next_publisher_seq(ParticipantId(1)), 1);
    assert_eq!(wrapped.counters().calls(Method::Other), 4);
}

#[test]
fn metric_names_match_the_benchmark_definition() {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark directory");
    let names_in = |section: &str| -> Vec<String> {
        let start = spec.find(&format!("\"{section}\"")).expect("section present");
        let body = &spec[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\"")
            .skip(1)
            .map(|rest| rest.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    };
    let e2e: Vec<String> = E2E_METRICS.iter().map(|s| s.to_string()).collect();
    assert_eq!(names_in("end_to_end"), e2e);
    let mut layers: Vec<String> =
        LAYER_METRICS.iter().chain(DERIVED_LAYER_METRICS.iter()).map(|s| s.to_string()).collect();
    let mut listed = names_in("per_layer");
    layers.sort();
    listed.sort();
    assert_eq!(listed, layers);
}
