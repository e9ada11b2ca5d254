//! Metric names, units and the one-line JSON result.

use std::fmt::Write as _;
use std::time::Duration;

use crate::layers::{CostModel, TracedAttach};
use crate::run::{Measured, TracedWave, ADVANCE_SPAN};
use crate::stats::{median, tail, Tail};
use crate::trace::Tracer;
use crate::workload::WaveClass;

/// Samples the tail percentile must leave beyond it.
const TAIL_BEYOND: usize = 10;

/// The end-to-end metrics, printed with `--trace 0`, as (name, unit).
pub const END_TO_END: [(&str, &str); 7] = [
    ("diagnosis_ms_p50", "ms"),
    ("diagnosis_ms_tail", "ms"),
    ("traces_per_s", "traces/s"),
    ("failed_ratio", "ratio"),
    ("leaf_bytes", "bytes"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// End-to-end metrics that are printed but left out of the JSON result,
/// because they are 0 on a correct run and the result carries them anyway as
/// `failed / attempted`.
pub const PRINTED_ONLY: [&str; 1] = ["failed_ratio"];

/// Per-layer metrics of the traced attach, as (name, unit).
const ATTACH_LAYERS: [(&str, &str); 26] = [
    ("stackwalk.negotiate_ms", "ms"),
    ("stackwalk.frames", "count"),
    ("daemon.sample_ms", "ms"),
    ("daemon.traces", "count"),
    ("daemon.count", "count"),
    ("graph.local_merge_ms", "ms"),
    ("graph.local_nodes", "count"),
    ("serialize.encode_ms", "ms"),
    ("serialize.encoded_bytes", "bytes"),
    ("tbon.reduce_ms", "ms"),
    ("tbon.filter_cpu_ms", "ms"),
    ("tbon.filter_invocations", "count"),
    ("tbon.frontend_bytes_in", "bytes"),
    ("tbon.max_node_bytes_in", "bytes"),
    ("tbon.link_bytes", "bytes"),
    ("strategy.finish_ms", "ms"),
    ("strategy.remap_ms", "ms"),
    ("equivalence.classify_ms", "ms"),
    ("equivalence.classes", "count"),
    ("equivalence.tree_nodes", "count"),
    ("scenario.judge_ms", "ms"),
    ("cost_model.frontend_bytes", "bytes"),
    ("cost_model.link_bytes", "bytes"),
    ("cost_model.residual", "ratio"),
    ("trace.total_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

/// Per-layer metrics of a stream wave, each reported once per
/// [`WaveClass`] as `<name>.<class>`.
const WAVE_LAYERS: [(&str, &str); 11] = [
    ("streaming.advance_ms", "ms"),
    ("streaming.sample_ms", "ms"),
    ("streaming.local_merge_ms", "ms"),
    ("streaming.reduce_ms", "ms"),
    ("streaming.remap_ms", "ms"),
    ("streaming.classify_ms", "ms"),
    ("streaming.view_bytes", "bytes"),
    ("delta.fold_ms", "ms"),
    ("delta.delta_bytes", "bytes"),
    ("delta.full_packet_bytes", "bytes"),
    ("delta.resident_bytes", "bytes"),
];

/// One named, measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Every per-layer metric name with its unit, in output order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = ATTACH_LAYERS
        .iter()
        .map(|&(name, unit)| (name.to_string(), unit))
        .collect();
    for class in WaveClass::ALL {
        for (name, unit) in WAVE_LAYERS {
            names.push((format!("{name}.{}", class.label()), unit));
        }
    }
    names
}

/// The end-to-end metrics of an untraced run, plus the tail's rank detail.
/// Times are corrected for the host's speed (see `speed`).
pub fn end_to_end(measured: &Measured, peak_rss_mb: f64) -> (Vec<Metric>, Tail) {
    let diagnosis_ms = measured.corrected_diagnosis_ms();
    let tail = tail(&diagnosis_ms, TAIL_BEYOND);
    let busy_s: f64 = diagnosis_ms.iter().sum::<f64>() / 1e3;
    let values = [
        median(&diagnosis_ms),
        tail.value,
        measured.traces as f64 / busy_s.max(f64::MIN_POSITIVE),
        measured.failures.len() as f64 / measured.attempted.max(1) as f64,
        median(&measured.leaf_bytes),
        median(&measured.corrected_setup_s()),
        peak_rss_mb,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric {
            name: name.to_string(),
            value,
            unit,
        })
        .collect();
    (metrics, tail)
}

/// Every per-layer metric, zero where the workload does not run the layer.
pub fn per_layer(
    attaches: &[TracedAttach],
    model: Option<CostModel>,
    waves: &[TracedWave],
    tracer: &Tracer,
    untraced_p50_ms: f64,
) -> Vec<Metric> {
    let mut metrics: Vec<Metric> = per_layer_names()
        .into_iter()
        .map(|(name, unit)| Metric {
            name,
            value: 0.0,
            unit,
        })
        .collect();
    let mut set = |name: &str, value: f64| {
        if let Some(metric) = metrics.iter_mut().find(|m| m.name == name) {
            metric.value = value;
        }
    };

    if let (Some(first), Some(model)) = (attaches.first(), model) {
        let c = &first.counters;
        let span_ms =
            |name: &'static str| median_ms(attaches, |r| tracer.total(r.diagnosis_id, name));
        let total_ms = span_ms(crate::layers::DIAGNOSIS_SPAN);
        for (name, value) in [
            ("stackwalk.negotiate_ms", span_ms("stackwalk.negotiate")),
            ("stackwalk.frames", c.frames as f64),
            ("daemon.sample_ms", span_ms("daemon.gather")),
            ("daemon.traces", c.traces as f64),
            ("daemon.count", f64::from(c.daemons)),
            ("graph.local_merge_ms", span_ms("graph.build_trees")),
            ("graph.local_nodes", c.local_nodes as f64),
            ("serialize.encode_ms", span_ms("serialize.encode")),
            ("serialize.encoded_bytes", c.encoded_bytes as f64),
            ("tbon.reduce_ms", span_ms("tbon.reduce_channels")),
            ("tbon.filter_cpu_ms", median_ms(attaches, |r| r.filter_cpu)),
            ("tbon.filter_invocations", c.filter_invocations as f64),
            ("tbon.frontend_bytes_in", c.frontend_bytes_in as f64),
            ("tbon.max_node_bytes_in", c.max_node_bytes_in as f64),
            ("tbon.link_bytes", c.link_bytes as f64),
            ("strategy.finish_ms", span_ms("strategy.finish")),
            ("strategy.remap_ms", median_ms(attaches, |r| r.remap)),
            ("equivalence.classify_ms", span_ms("equivalence.classify")),
            ("equivalence.classes", c.classes as f64),
            ("equivalence.tree_nodes", c.tree_nodes as f64),
            ("scenario.judge_ms", span_ms("scenario.judge")),
            ("cost_model.frontend_bytes", model.frontend_bytes as f64),
            ("cost_model.link_bytes", model.link_bytes as f64),
            ("cost_model.residual", model.residual(c)),
            ("trace.total_ms", total_ms),
            ("trace.overhead_ms", total_ms - untraced_p50_ms),
        ] {
            set(name, value);
        }
    }

    if !waves.is_empty() {
        let advance: Vec<f64> = waves
            .iter()
            .map(|w| ms(tracer.total(w.diagnosis_id, ADVANCE_SPAN)))
            .collect();
        let total_ms = median(&advance);
        set("trace.total_ms", total_ms);
        set("trace.overhead_ms", total_ms - untraced_p50_ms);
    }
    for class in WaveClass::ALL {
        let of_class: Vec<&TracedWave> = waves.iter().filter(|w| w.class == class).collect();
        if of_class.is_empty() {
            continue;
        }
        let med = |f: &dyn Fn(&TracedWave) -> f64| {
            median(&of_class.iter().map(|w| f(w)).collect::<Vec<_>>())
        };
        for (name, value) in [
            (
                "streaming.advance_ms",
                med(&|w| ms(tracer.total(w.diagnosis_id, ADVANCE_SPAN))),
            ),
            ("streaming.sample_ms", med(&|w| ms(w.report.phases.sample))),
            (
                "streaming.local_merge_ms",
                med(&|w| ms(w.report.phases.local_merge)),
            ),
            ("streaming.reduce_ms", med(&|w| ms(w.report.phases.reduce))),
            ("streaming.remap_ms", med(&|w| ms(w.report.phases.remap))),
            (
                "streaming.classify_ms",
                med(&|w| ms(w.report.phases.classify)),
            ),
            (
                "streaming.view_bytes",
                med(&|w| w.report.packet_bytes as f64),
            ),
            ("delta.fold_ms", med(&|w| ms(w.report.fold_wall))),
            ("delta.delta_bytes", med(&|w| w.report.delta_bytes as f64)),
            (
                "delta.full_packet_bytes",
                med(&|w| w.report.full_packet_bytes as f64),
            ),
            ("delta.resident_bytes", med(&|w| w.resident_bytes as f64)),
        ] {
            set(&format!("{name}.{}", class.label()), value);
        }
    }
    metrics
}

/// Median of `f` over the traced attaches, in milliseconds.
fn median_ms(runs: &[TracedAttach], f: impl Fn(&TracedAttach) -> Duration) -> f64 {
    median(
        &runs
            .iter()
            .map(|r| f(r).as_secs_f64() * 1e3)
            .collect::<Vec<_>>(),
    )
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
pub fn json_line(attempted: u64, failed: usize, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    let shown = metrics
        .iter()
        .filter(|m| !PRINTED_ONLY.contains(&m.name.as_str()));
    for (index, metric) in shown.enumerate() {
        let value = if metric.value.is_finite() {
            metric.value
        } else {
            0.0
        };
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            if index == 0 { "" } else { ", " },
            metric.name,
            metric.unit,
        );
    }
    out.push_str("}}");
    out
}

/// Peak resident set of this process in MiB (`VmHWM`), or 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_leaves_out_printed_only_metrics() {
        let metrics = [
            Metric {
                name: "failed_ratio".into(),
                value: 0.0,
                unit: "ratio",
            },
            Metric {
                name: "setup_s".into(),
                value: 0.25,
                unit: "s",
            },
        ];
        assert_eq!(
            json_line(4, 0, &metrics),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn per_layer_names_are_unique() {
        let names = per_layer_names();
        let mut unique: Vec<&String> = names.iter().map(|(n, _)| n).collect();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
        assert_eq!(names.len(), ATTACH_LAYERS.len() + 3 * WAVE_LAYERS.len());
    }
}
