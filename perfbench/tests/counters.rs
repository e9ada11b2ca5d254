//! The benchmark's deterministic counters repeat exactly for one input, and
//! the traced decomposition agrees with `Session::attach`.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use appsim::scenario::Diagnosis;
use perfbench::layers::{traced_attach, CostModel, TracedAttach};
use perfbench::report::{per_layer_names, END_TO_END, PRINTED_ONLY};
use perfbench::run::wave_leaf_bytes;
use perfbench::trace::Tracer;
use perfbench::workload::{Drive, Workload, FAULT_WAVE, WORKLOADS};

/// A seed the benchmark's own runs do not use.
const HELD_OUT_SEED: u64 = 1_000_003;

fn attach_workloads() -> impl Iterator<Item = Workload> {
    WORKLOADS.into_iter().filter(|w| w.drive == Drive::Attach)
}

fn traced(workload: &Workload, seed: u64) -> (TracedAttach, CostModel) {
    let session = workload.session();
    let run = traced_attach(&session, &workload.app(seed), &mut Tracer::default())
        .expect("the traced attach merges cleanly");
    assert!(run.verdict.passed(), "{}", run.verdict.summary());
    (run, CostModel::predict(&session, workload.tasks))
}

fn assert_matches_attach(workload: &Workload, seed: u64, run: &TracedAttach) {
    let report = workload
        .session()
        .attach(&workload.app(seed))
        .expect("the attach merges cleanly");
    let diagnosis: Diagnosis = report.diagnosis();
    assert_eq!(
        run.diagnosis.classes, diagnosis.classes,
        "{}",
        workload.name
    );
    assert_eq!(
        run.counters.leaf_bytes, report.packet_bytes,
        "{}",
        workload.name
    );
    assert_eq!(
        run.counters.frontend_bytes_in, report.gather.metrics.frontend_bytes_in,
        "{}",
        workload.name
    );
    assert_eq!(
        run.counters.filter_invocations,
        report.gather.metrics.filter_invocations
    );
    assert_eq!(
        run.counters.link_bytes,
        report.gather.metrics.total_link_bytes
    );
    assert_eq!(run.counters.traces, report.traces_gathered);
    assert_eq!(run.counters.daemons, report.daemons);
    assert_eq!(run.counters.daemons, workload.daemons);
}

fn counters_repeat(seed: u64) {
    for workload in attach_workloads() {
        let (first, model) = traced(&workload, seed);
        let (second, model_again) = traced(&workload, seed);
        assert_eq!(first.counters, second.counters, "{}", workload.name);
        assert_eq!(model, model_again, "{}", workload.name);
        assert_eq!(
            model.residual(&first.counters),
            model.residual(&second.counters)
        );
        assert_eq!(first.diagnosis.classes, second.diagnosis.classes);
        assert_matches_attach(&workload, seed, &first);
    }
}

#[test]
fn attach_counters_repeat_exactly_on_one_seed() {
    counters_repeat(1);
}

#[test]
fn attach_counters_repeat_exactly_on_a_held_out_seed() {
    counters_repeat(HELD_OUT_SEED);
}

#[test]
fn the_seed_reaches_the_program_as_the_hung_rank() {
    for workload in attach_workloads() {
        let (run, _) = traced(&workload, HELD_OUT_SEED);
        let hung = HELD_OUT_SEED % workload.tasks;
        assert_eq!(workload.app(HELD_OUT_SEED).hung_rank(), hung);
        assert!(
            run.diagnosis.classes.iter().any(|c| c.ranks == [hung]),
            "{}: rank {hung} is not isolated",
            workload.name
        );
    }
}

#[test]
fn stream_wave_counters_repeat_exactly() {
    let workload = Workload::named("stream-208k").expect("the stream workload exists");
    for seed in [1, HELD_OUT_SEED] {
        let mut runs = Vec::new();
        for _ in 0..2 {
            let mut stream = workload
                .open_stream(workload.schedule(seed))
                .expect("the stream opens");
            let mut waves = Vec::new();
            for _ in 0..=FAULT_WAVE + 1 {
                let wave = stream.advance().expect("the wave merges cleanly");
                assert!(wave.verdict.passed(), "{}", wave.verdict.summary());
                waves.push((
                    wave.packet_bytes,
                    wave.delta_bytes,
                    wave.full_packet_bytes,
                    wave_leaf_bytes(&wave),
                    wave.classes,
                    wave.diagnosis.classes.clone(),
                    stream.resident_bytes(),
                ));
            }
            runs.push(waves);
        }
        assert_eq!(runs[0], runs[1], "seed {seed}");
    }
}

#[test]
fn benchmark_json_lists_every_reported_metric_and_workload() {
    let json = include_str!("../../BENCHMARK.json");
    for (name, unit) in END_TO_END {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert_eq!(
            json.contains(&entry),
            !PRINTED_ONLY.contains(&name),
            "{name}"
        );
    }
    for (name, unit) in per_layer_names() {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "{name}");
    }
    for workload in WORKLOADS {
        assert!(json.contains(&format!("\"name\": \"{}\"", workload.name)));
    }
}
