//! `xnf` benchmark: time to verdict for the spec and document operations
//! of `xnf-tool`, open-loop `xnf-serve` latency, and a traced per-layer
//! breakdown.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-ops|spec-scaling|documents|serve-mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root: the inputs are generated from the
//! repository's example specs. The last line of standard output is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`; with
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones. The line before it lists the input properties. Span
//! traces of a traced run go to `.bench_out/`. See `perfbench/README.md`.

mod docs;
mod harness;
mod inputs;
mod serve;
mod spec;
mod trace;
mod util;

use std::process::ExitCode;

use harness::{Outcome, RunConfig};
use util::{json_num, json_str};

/// End-to-end metrics: every workload reports all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("verdict_ms.p50", "ms"),
    ("verdict_ms.p90", "ms"),
    ("ops_per_s", "1/s"),
    ("decided_share", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run. A workload that does not reach
/// a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lint.preflight_us", "us"),
    ("lint.share", "ratio"),
    ("dtd.parse_us", "us"),
    ("dtd.paths_us", "us"),
    ("core.search_us", "us"),
    ("core.normalize_us", "us"),
    ("core.analyze_us", "us"),
    ("core.key_us", "us"),
    ("ops.self_us", "us"),
    ("ops.unattributed_share", "ratio"),
    ("fuel.ticks", "count"),
    ("chase.runs", "count"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("normalize.iterations", "count"),
    ("analyze_normalize.fuel_ratio", "ratio"),
    ("doc_mb_per_s", "MB/s"),
    ("xml.parse_mb_per_s", "MB/s"),
    ("xml.conform_mb_per_s", "MB/s"),
    ("fd.check_us", "us"),
    ("shred.rows_per_s", "1/s"),
    ("lossless.transform_ms.small", "ms"),
    ("lossless.transform_ms.large", "ms"),
    ("lossless.restore_ms.small", "ms"),
    ("lossless.restore_ms.large", "ms"),
    ("lossless.verify_ms.small", "ms"),
    ("lossless.verify_ms.large", "ms"),
    ("lossless.restore_growth", "ratio"),
    ("hit_us.p50", "us"),
    ("hit_us.p99", "us"),
    ("miss_ms.p50", "ms"),
    ("miss_ms.p99", "ms"),
    ("max_rate_rps", "req/s"),
    ("serve.connect_us", "us"),
    ("serve.ttfb_us", "us"),
    ("serve.server_wall_us", "us"),
    ("serve.outside_us", "us"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.evictions", "count"),
    ("serve.shed_429", "count"),
    ("serve.exhausted_503", "count"),
    ("serve.spans_dropped", "count"),
    ("loadgen.lag_ms.p99", "ms"),
    ("trace.overhead_pct", "%"),
];

pub const WORKLOADS: &[&str] = &["paper-ops", "spec-scaling", "documents", "serve-mixed"];

fn usage() -> String {
    format!(
        "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<RunConfig, String> {
    let mut cfg = RunConfig {
        workload: "",
        seed: 1,
        seconds: 10.0,
        trace: false,
        plant_wrong: false,
    };
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| args.get(i + 1).ok_or_else(usage);
        match args[i].as_str() {
            "--workload" => {
                let w = value(i)?;
                cfg.workload = WORKLOADS
                    .iter()
                    .find(|n| *n == w)
                    .ok_or_else(|| format!("unknown workload `{w}`; {}", usage()))?;
            }
            "--seed" => cfg.seed = value(i)?.parse().map_err(|_| usage())?,
            "--seconds" => {
                cfg.seconds = value(i)?.parse().map_err(|_| usage())?;
                if !(cfg.seconds.is_finite() && cfg.seconds > 0.0) {
                    return Err(usage());
                }
            }
            "--trace" => {
                cfg.trace = match value(i)?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(usage()),
                }
            }
            _ => return Err(usage()),
        }
        i += 2;
    }
    if cfg.workload.is_empty() {
        return Err(usage());
    }
    Ok(cfg)
}

pub fn run_workload(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = match cfg.workload {
        "paper-ops" => spec::paper_ops(cfg)?,
        "spec-scaling" => spec::spec_scaling(cfg)?,
        "documents" => docs::documents(cfg)?,
        "serve-mixed" => serve::serve_mixed(cfg)?,
        other => return Err(format!("unknown workload `{other}`")),
    };
    out.input("nproc", util::nproc());
    Ok(out)
}

/// The metric names and units a run prints, in order.
pub fn metric_list(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// The result line. End-to-end metrics must all be measured; a per-layer
/// metric of a layer the workload does not reach reads 0.
pub fn result_line(cfg: &RunConfig, out: &mut Outcome) -> String {
    let mut metrics = String::new();
    for (i, (name, unit)) in metric_list(cfg.trace).iter().enumerate() {
        let value = match out.metrics.get(name) {
            Some(v) => *v,
            None if cfg.trace => 0.0,
            None => {
                out.problem(format!("end-to-end metric `{name}` was not measured"));
                0.0
            }
        };
        if i > 0 {
            metrics.push(',');
        }
        json_str(&mut metrics, name);
        metrics.push_str(":{\"value\":");
        metrics.push_str(&json_num(value));
        metrics.push_str(",\"unit\":");
        json_str(&mut metrics, unit);
        metrics.push('}');
    }
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        out.problems.is_empty(),
        out.attempted.max(1),
        out.failed
    )
}

fn inputs_line(cfg: &RunConfig, out: &Outcome) -> String {
    let mut line = String::from("{\"inputs\":{\"workload\":");
    json_str(&mut line, cfg.workload);
    line.push_str(&format!(
        ",\"seed\":{},\"seconds\":{}",
        cfg.seed, cfg.seconds
    ));
    for (name, value) in &out.inputs {
        line.push(',');
        json_str(&mut line, name);
        line.push(':');
        line.push_str(value);
    }
    line.push_str("}}");
    line
}

/// Writes a traced run's spans to `.bench_out/` and its span report to
/// standard error.
pub fn write_trace(cfg: &RunConfig, tracer: &trace::Tracer) {
    eprint!("{}", tracer.report());
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("trace-{}-seed{}.jsonl", cfg.workload, cfg.seed));
    if let Err(e) =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.jsonl()))
    {
        eprintln!("cannot write {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let mut out = match run_workload(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark set-up failed: {e}");
            return ExitCode::from(1);
        }
    };
    let line = result_line(&cfg, &mut out);
    for p in &out.problems {
        eprintln!("CHECK FAILED: {p}");
    }
    println!("{}", inputs_line(&cfg, &out));
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    //! The benchmark's self-test: `cargo test --release --manifest-path
    //! perfbench/Cargo.toml`. Smoke-sized runs of every workload must
    //! emit every metric with its unit and pass their checks, and a
    //! planted wrong expected answer must be reported as a failed check.

    use super::*;

    fn at_repo_root() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        std::env::set_current_dir(root).expect("the repository root exists");
    }

    fn smoke(workload: &'static str, trace: bool, plant_wrong: bool) -> (Outcome, String) {
        at_repo_root();
        let cfg = RunConfig {
            workload,
            seed: 7,
            seconds: 0.01,
            trace,
            plant_wrong,
        };
        let mut out = run_workload(&cfg).expect("set-up succeeds");
        let line = result_line(&cfg, &mut out);
        (out, line)
    }

    /// `"name": [value, unit]` pairs of a `BENCHMARK.json` metric list.
    fn declared(json: &str, list: &str) -> Vec<(String, String)> {
        let section = json
            .split(&format!("\"{list}\""))
            .nth(1)
            .expect("list present");
        let section = section.split(']').next().expect("list closes");
        section
            .split('{')
            .skip(1)
            .map(|item| {
                let field = |key: &str| {
                    let rest = item
                        .split(&format!("\"{key}\""))
                        .nth(1)
                        .expect("field present");
                    rest.split('"').nth(1).expect("string value").to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json exists");
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared(&json, "end_to_end"), own(END_TO_END));
        assert_eq!(declared(&json, "per_layer"), own(PER_LAYER));
        let declared_workloads: Vec<&str> = json
            .split("\"workloads\"")
            .nth(1)
            .and_then(|s| s.split(']').next())
            .expect("workloads listed")
            .split("\"name\": \"")
            .skip(1)
            .filter_map(|s| s.split('"').next())
            .collect();
        assert!(declared_workloads.len() >= 2);
        for w in declared_workloads {
            assert!(WORKLOADS.contains(&w), "declared workload {w} is runnable");
        }
    }

    #[test]
    fn smoke_runs_emit_every_metric_and_pass_their_checks() {
        for workload in WORKLOADS {
            for trace in [false, true] {
                let (out, line) = smoke(workload, trace, false);
                assert!(
                    out.problems.is_empty(),
                    "{workload} trace={trace}: {:?}",
                    out.problems
                );
                assert!(line.starts_with("{\"correct\":true,"), "{line}");
                for (name, unit) in metric_list(trace) {
                    let needle = format!("\"{name}\":{{\"value\":");
                    let at = line
                        .find(&needle)
                        .unwrap_or_else(|| panic!("{workload}: no {name}"));
                    let unit_field = format!("\"unit\":\"{unit}\"}}");
                    assert!(line[at..].starts_with(&needle) && line[at..].contains(&unit_field));
                }
            }
        }
    }

    #[test]
    fn a_planted_wrong_answer_fails_the_run() {
        for workload in WORKLOADS {
            let (out, line) = smoke(workload, false, true);
            assert!(
                !out.problems.is_empty(),
                "{workload}: planted answer went unnoticed"
            );
            assert!(line.starts_with("{\"correct\":false,"), "{line}");
        }
    }

    #[test]
    fn counters_repeat_exactly() {
        let counters = [
            "fuel.ticks",
            "chase.runs",
            "cache.hits",
            "cache.misses",
            "normalize.iterations",
        ];
        let (a, _) = smoke("paper-ops", true, false);
        let (b, _) = smoke("paper-ops", true, false);
        for c in counters {
            assert_eq!(a.metrics.get(c), b.metrics.get(c), "{c}");
            assert!(a.metrics.get(c).is_some_and(|v| *v > 0.0), "{c} counted");
        }
    }
}
