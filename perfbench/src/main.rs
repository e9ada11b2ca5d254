//! Command-line entry point: `perfbench --workload <name> --seed <n>
//! --seconds <s> --trace <0|1>`.  The last line of standard output is the JSON
//! result; the exit code is non-zero if any diagnosis was wrong.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use perfbench::layers::{TracedAttach, DIAGNOSIS_SPAN};
use perfbench::report::{end_to_end, json_line, peak_rss_mb, per_layer, Metric};
use perfbench::run::{measure, stream_episodes, trace_attaches, Measured};
use perfbench::stats::median;
use perfbench::trace::Tracer;
use perfbench::workload::{Drive, Workload, WORKLOADS};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::named(&value).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or(format!("bad --seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}; 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    println!(
        "workload {}: {} tasks, {} daemons, {}, seed {} (hung rank {}), closed loop, 1 client",
        w.name,
        w.tasks,
        w.daemons,
        w.representation.label(),
        args.seed,
        args.seed % w.tasks
    );

    let (attempted, failures, metrics) = if args.trace {
        traced(&args)
    } else {
        let budget = Duration::from_secs_f64(args.seconds);
        let measured = measure(&w, args.seed, budget);
        let (metrics, tail) = end_to_end(&measured, peak_rss_mb());
        print_metrics(&metrics);
        println!(
            "  tail is p{:.1}: {} of {} diagnoses beyond it; {} set-ups timed",
            tail.percentile,
            tail.beyond,
            tail.count,
            measured.setup_s.len()
        );
        println!(
            "  times are corrected for host speed: uncorrected diagnosis p50 {:.3} ms, \
             median speed factor {:.4}",
            median(&measured.diagnosis_ms),
            median(&measured.diagnosis_factor)
        );
        (measured.attempted, measured.failures, metrics)
    };

    for failure in &failures {
        println!("FAILED: {failure}");
    }
    println!("{}", json_line(attempted, failures.len(), &metrics));
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The traced run.  Attach workloads alternate untraced and traced attaches;
/// a stream's only span is the one around each `advance`, so its untraced
/// baseline is the benchmark's own timer around that span.
fn traced(args: &Args) -> (u64, Vec<String>, Vec<Metric>) {
    let w = &args.workload;
    let budget = Duration::from_secs_f64(args.seconds);
    let mut tracer = Tracer::default();
    let (mut measured, attaches, model, waves) = match w.drive {
        Drive::Attach => {
            let (measured, attaches, model) = trace_attaches(w, args.seed, budget, &mut tracer);
            (measured, attaches, Some(model), Vec::new())
        }
        Drive::Stream => {
            let mut measured = Measured::default();
            let waves = stream_episodes(w, args.seed, budget, &mut measured, Some(&mut tracer));
            (measured, Vec::new(), None, waves)
        }
    };
    if let Some(first) = attaches.first() {
        if attaches.iter().any(|a| a.counters != first.counters) {
            measured
                .failures
                .push("traced counters differ between attaches on one seed".into());
        }
    }
    let untraced_p50 = median(&measured.diagnosis_ms);
    let metrics = per_layer(&attaches, model, &waves, &tracer, untraced_p50);
    print_metrics(&metrics);
    print_self_times(&attaches, &tracer, untraced_p50);
    write_trace(w.name, args.seed, &tracer);
    (measured.attempted, measured.failures, metrics)
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        let value = if m.value != 0.0 && m.value.abs() < 1e-3 {
            format!("{:.4e}", m.value)
        } else {
            format!("{:.4}", m.value)
        };
        println!("  {:<36} {value:>16} {}", m.name, m.unit);
    }
}

/// Each layer's self time (median over traced attaches), and how much of the
/// traced total the layers leave to the session's own glue, beside the
/// tracing overhead.
fn print_self_times(attaches: &[TracedAttach], tracer: &Tracer, untraced: f64) {
    let per_attach: Vec<BTreeMap<&str, f64>> = attaches
        .iter()
        .map(|a| {
            tracer
                .self_times(a.diagnosis_id)
                .into_iter()
                .map(|(layer, d)| (layer, d.as_secs_f64() * 1e3))
                .collect()
        })
        .collect();
    let Some(first) = per_attach.first() else {
        return;
    };
    println!(
        "  self time per layer (median of {} traced attaches):",
        attaches.len()
    );
    for &layer in first.keys() {
        let values: Vec<f64> = per_attach
            .iter()
            .map(|m| m.get(layer).copied().unwrap_or(0.0))
            .collect();
        println!("    {layer:<14} {:>12.3} ms", median(&values));
    }
    let root_layer = DIAGNOSIS_SPAN.split('.').next().unwrap_or(DIAGNOSIS_SPAN);
    let glue: Vec<f64> = per_attach
        .iter()
        .map(|m| m.get(root_layer).copied().unwrap_or(0.0))
        .collect();
    let totals: Vec<f64> = per_attach.iter().map(|m| m.values().sum()).collect();
    let (glue, total) = (median(&glue), median(&totals));
    let overhead = total - untraced;
    println!(
        "  traced total {total:.3} ms: the layers' self times leave {glue:.3} ms to the session \
         glue ({}within the tracing overhead of {overhead:.3} ms = traced total - untraced p50 \
         {untraced:.3} ms)",
        if glue <= overhead.abs() { "" } else { "not " }
    );
}

/// Write the spans as Chrome trace-event JSON beside the benchmark.
fn write_trace(workload: &str, seed: u64, tracer: &Tracer) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{workload}-seed{seed}.json"));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.chrome_json())) {
        Ok(()) => println!(
            "  trace: {} ({} spans)",
            path.display(),
            tracer.spans().len()
        ),
        Err(err) => eprintln!("perfbench: could not write {}: {err}", path.display()),
    }
}
