//! Metric names and units, their computation from raw measurements, and
//! the result line.

use std::fmt::Write as _;

use crate::run::E2e;
use crate::stats::{median, percentile, tail_quantile};
use crate::trace::Tracer;

/// End-to-end metrics, `(name, unit)`, as declared in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("evals_per_s", "1/s"),
    ("sweep_p50_ms", "ms"),
    ("queries_per_s", "1/s"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("mc_samples_per_s", "1/s"),
    ("corpus_pass_ms", "ms"),
    ("des_requests_per_s", "1/s"),
];

/// Per-layer metrics: `(name, unit, source)`. The source names the span
/// whose median self time is reported, or the derived sample whose median
/// is reported; `scale` divides nanoseconds into the unit.
pub const PER_LAYER: [(&str, &str, Source); 27] = [
    ("parser.lex_us", "us", Source::Span("lexer.lex", 1e3)),
    (
        "parser.parse_us",
        "us",
        Source::Sample("parser.parse_only", 1e3),
    ),
    ("sema.check_ms", "ms", Source::Span("sema.check", 1e6)),
    ("compose.link_us", "us", Source::Span("compose.link", 1e3)),
    ("vm.compile_us", "us", Source::Span("vm.compile", 1e3)),
    ("vm.instrs", "count", Source::Sample("vm.instrs", 1.0)),
    ("vm.verify_ms", "ms", Source::Span("vm.verify", 1e6)),
    ("vm.optimize_us", "us", Source::Span("vm.optimize", 1e3)),
    ("vm.nops", "count", Source::Sample("vm.nops", 1.0)),
    ("vm.run_us", "us", Source::Span("vm.run", 1e3)),
    ("vm.run_us.unopt", "us", Source::Span("vm.run.unopt", 1e3)),
    (
        "interp.treewalk_us",
        "us",
        Source::Span("interp.treewalk", 1e3),
    ),
    ("interp.batch_ms", "ms", Source::Span("interp.batch", 1e6)),
    (
        "interp.mc_ns_per_sample",
        "ns",
        Source::Sample("interp.mc_ns_per_sample", 1.0),
    ),
    (
        "interp.mc_ns_per_sample.treewalk",
        "ns",
        Source::Sample("interp.mc_ns_per_sample.treewalk", 1.0),
    ),
    (
        "interp.enumerate_us",
        "us",
        Source::Span("interp.enumerate", 1e3),
    ),
    (
        "cache.fingerprint_us",
        "us",
        Source::Span("cache.fingerprint", 1e3),
    ),
    ("cache.hit_us", "us", Source::Sample("cache.hit_ns", 1e3)),
    ("cache.miss_us", "us", Source::Sample("cache.miss_ns", 1e3)),
    ("cache.hits", "count", Source::Sample("cache.hits", 1.0)),
    ("cache.misses", "count", Source::Sample("cache.misses", 1.0)),
    ("cert.certify_ms", "ms", Source::Span("cert.certify", 1e6)),
    ("extract.fit_ms", "ms", Source::Span("extract.fit", 1e6)),
    ("des.lb_setup_ms", "ms", Source::Span("des.lb_setup", 1e6)),
    (
        "des.run_ms.utilization",
        "ms",
        Source::Span("des.run.utilization", 1e6),
    ),
    (
        "des.run_ms.energy",
        "ms",
        Source::Span("des.run.energy", 1e6),
    ),
    (
        "telemetry.session_ratio",
        "ratio",
        Source::Sample("telemetry.session_ratio", 1.0),
    ),
];

/// Where a per-layer value comes from.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// Median self time of the named span, ns divided by the scale.
    Span(&'static str, f64),
    /// Median of the named derived samples, divided by the scale.
    Sample(&'static str, f64),
}

/// Prefix of the tracing-overhead metric of each end-to-end metric.
pub const OVERHEAD_PREFIX: &str = "overhead.";

/// One reported metric.
pub struct Metric {
    /// Name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// A round-level metric's run value: its fastest round.
///
/// On a shared machine, neighbours contending for the core's caches slow
/// whole stretches of rounds, by up to 2x for the simulator and 25-40%
/// elsewhere, for seconds at a time. A median over rounds then flips
/// between the quiet and the contended state from run to run; the fastest
/// round reads the program's own speed. See the README's steadiness
/// section.
pub fn best_time(per_round: &[f64]) -> f64 {
    per_round.iter().copied().fold(f64::NAN, f64::min)
}

/// The highest per-round rate (see [`best_time`]).
pub fn best_rate(per_round: &[f64]) -> f64 {
    per_round.iter().copied().fold(f64::NAN, f64::max)
}

/// The end-to-end metrics of a set of rounds.
///
/// The query latency percentiles pool every query of the run. In every
/// workload's mix 47% of queries miss the cache, so a round's own median
/// is one of its slowest hits; on a round of few queries (45 on
/// `table1-sweep`) that is an extreme value, and the fastest round's one
/// spread 0.25-0.33 over ten seeds, where the pooled 99th percentile
/// spread below 0.1.
pub fn end_to_end(r: &E2e, rss_mb: f64) -> Vec<Metric> {
    let values = [
        best_time(&r.setup_s),
        rss_mb,
        best_rate(&r.eval_rate),
        best_time(&r.sweep_p50_ms),
        best_rate(&r.query_rate),
        median(&r.query_us),
        percentile(&r.query_us, tail_quantile(r.query_us.len())),
        best_rate(&r.mc_rate),
        best_time(&r.corpus_ms),
        best_rate(&r.des_rate),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|((name, unit), value)| Metric {
            name: name.to_string(),
            unit,
            value,
        })
        .collect()
}

/// The per-layer metrics of a traced run, and each end-to-end metric's
/// tracing overhead: its traced rounds minus its untraced rounds. Peak
/// memory has no untraced twin inside one process; its overhead is the
/// size of the span buffer.
pub fn per_layer(tr: &Tracer, plain: &E2e, traced: &E2e, rss_mb: f64) -> Vec<Metric> {
    let self_times = tr.self_times();
    let empty = Vec::new();
    let mut out: Vec<Metric> = PER_LAYER
        .iter()
        .map(|(name, unit, src)| {
            let value = match src {
                Source::Span(span, scale) => median(self_times.get(span).unwrap_or(&empty)) / scale,
                Source::Sample(key, scale) => {
                    median(tr.samples().get(key).unwrap_or(&empty)) / scale
                }
            };
            Metric {
                name: name.to_string(),
                unit,
                value,
            }
        })
        .collect();
    let a = end_to_end(plain, rss_mb);
    let b = end_to_end(traced, rss_mb);
    for (p, t) in a.iter().zip(&b) {
        let value = if p.name == "peak_rss_mb" {
            tr.buffer_bytes() as f64 / (1024.0 * 1024.0)
        } else {
            t.value - p.value
        };
        out.push(Metric {
            name: format!("{OVERHEAD_PREFIX}{}", p.name),
            unit: p.unit,
            value,
        });
    }
    out
}

/// Peak resident memory of this process image, MB: `VmHWM` of
/// `/proc/self/status`. (`getrusage`'s `ru_maxrss` would also count the
/// launcher, since it survives `exec`.) `NaN` where it cannot be read.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Renders the result line. Non-finite values cannot be written as JSON
/// numbers; they make the run incorrect instead.
pub fn render(metrics: &[Metric], mut correct: bool, attempted: u64, failed: u64) -> String {
    let mut m = String::new();
    for (i, x) in metrics.iter().enumerate() {
        let value = if x.value.is_finite() {
            x.value
        } else {
            eprintln!("metric {} is not finite ({})", x.name, x.value);
            correct = false;
            0.0
        };
        println!("{:<40} {:>18} {}", x.name, value, x.unit);
        let _ = write!(
            m,
            r#"{}"{}":{{"value":{value:?},"unit":"{}"}}"#,
            if i == 0 { "" } else { "," },
            x.name,
            x.unit
        );
    }
    format!(
        r#"{{"correct":{correct},"attempted":{attempted},"failed":{failed},"metrics":{{{m}}}}}"#
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric of `kind` in `BENCHMARK.json`.
    fn declared(kind: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let v = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
        let serde::Value::Array(items) = v.field(kind) else {
            panic!("{kind} is not a list");
        };
        items
            .iter()
            .map(|m| match (m.field("name"), m.field("unit")) {
                (serde::Value::Str(n), serde::Value::Str(u)) => (n.clone(), u.clone()),
                _ => panic!("metric without a name and unit: {m:?}"),
            })
            .collect()
    }

    fn names(ms: &[Metric]) -> Vec<(String, String)> {
        ms.iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect()
    }

    fn some_rounds() -> E2e {
        E2e {
            setup_s: vec![0.5],
            corpus_ms: vec![3.0],
            sweep_p50_ms: vec![2.0],
            query_us: vec![5.0; 100],
            eval_rate: vec![10.0],
            query_rate: vec![20.0],
            mc_rate: vec![30.0],
            des_rate: vec![40.0],
        }
    }

    #[test]
    fn printed_metrics_equal_the_declared_ones() {
        let e2e = end_to_end(&some_rounds(), 5.0);
        assert_eq!(names(&e2e), declared("end_to_end"));
        let layers = per_layer(&Tracer::new(false), &some_rounds(), &some_rounds(), 5.0);
        assert_eq!(names(&layers), declared("per_layer"));
        let line = render(&e2e, true, 1, 0);
        let v = serde_json::parse_value(&line).expect("result line is JSON");
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let printed: Vec<String> = v
            .field("metrics")
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.clone())
            .collect();
        let want: Vec<String> = declared("end_to_end").into_iter().map(|(n, _)| n).collect();
        assert_eq!(printed, want);
    }

    #[test]
    fn workloads_equal_the_declared_ones() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let v = serde_json::parse_value(&std::fs::read_to_string(path).unwrap()).unwrap();
        let serde::Value::Array(ws) = v.field("workloads") else {
            panic!("workloads is not a list");
        };
        let got: Vec<&serde::Value> = ws.iter().map(|w| w.field("name")).collect();
        let want: Vec<serde::Value> = crate::workloads::WORKLOADS
            .iter()
            .map(|w| serde::Value::Str(w.to_string()))
            .collect();
        assert_eq!(got, want.iter().collect::<Vec<_>>());
    }

    #[test]
    fn non_finite_values_make_the_run_incorrect() {
        let m = [Metric {
            name: "x".into(),
            unit: "s",
            value: f64::NAN,
        }];
        assert!(render(&m, true, 1, 0).starts_with(r#"{"correct":false"#));
    }
}
