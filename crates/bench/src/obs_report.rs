//! The machine-readable perf artifact `reproduce` writes next to its
//! human output: `BENCH_obs.json`, one record per experiment run, so
//! every future change has a trajectory to diff against.
//!
//! Schema (stable; checked by [`check_schema`]):
//!
//! ```json
//! {
//!   "git_sha": "abc1234",
//!   "experiments": [
//!     {"id": "fig4", "wall_micros": 1234, "spans_dropped": 0,
//!      "counters": {"chase.runs": 17}}
//!   ]
//! }
//! ```

use std::fmt::Write as _;
use xnf_obs::{escape_json, CounterSnapshot};

/// One experiment run: its id, wall time, and the counter totals the
/// run's recorder accumulated (empty for experiments that do not drive
/// the governed engine).
#[derive(Debug, Clone)]
pub struct ExperimentRecord {
    /// The dispatcher name of the experiment (`fig1` … `e19`).
    pub id: String,
    /// Wall-clock duration of the whole experiment, in microseconds.
    pub wall_micros: u64,
    /// Span events the run's recorder discarded at its cap — nonzero
    /// means the trace is incomplete and the record should be re-run
    /// with a larger span cap before being trusted for span-level diffs.
    pub spans_dropped: u64,
    /// Counter totals observed by the experiment's recorder.
    pub counters: CounterSnapshot,
}

/// The current commit's short SHA, or `"unknown"` outside a git checkout.
pub fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Renders the `BENCH_obs.json` document for one `reproduce` run.
pub fn render(git_sha: &str, records: &[ExperimentRecord]) -> String {
    let mut out = String::from("{\"git_sha\":\"");
    escape_json(&mut out, git_sha);
    out.push_str("\",\"experiments\":[");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n{\"id\":\"");
        escape_json(&mut out, &r.id);
        let _ = write!(
            out,
            "\",\"wall_micros\":{},\"spans_dropped\":{},\"counters\":{{",
            r.wall_micros, r.spans_dropped
        );
        for (j, (name, value)) in r.counters.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push('"');
            escape_json(&mut out, name);
            let _ = write!(out, "\":{value}");
        }
        out.push_str("}}");
    }
    out.push_str("\n]}\n");
    out
}

/// A tiny schema check over a `BENCH_obs.json` document: well-formed
/// JSON quoting/nesting, the two top-level keys, and the three required
/// keys on every experiment record. Returns the first problem found.
pub fn check_schema(json: &str) -> Result<(), String> {
    // Structural well-formedness: balanced braces/brackets outside
    // strings, and strings themselves terminated.
    let mut depth: i64 = 0;
    let mut in_string = false;
    let mut escaped = false;
    for c in json.chars() {
        if in_string {
            match (escaped, c) {
                (true, _) => escaped = false,
                (false, '\\') => escaped = true,
                (false, '"') => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' | '[' => depth += 1,
            '}' | ']' => {
                depth -= 1;
                if depth < 0 {
                    return Err("unbalanced closing brace/bracket".into());
                }
            }
            _ => {}
        }
    }
    if in_string {
        return Err("unterminated string".into());
    }
    if depth != 0 {
        return Err(format!("unbalanced nesting (depth {depth} at end)"));
    }
    for key in ["\"git_sha\":", "\"experiments\":["] {
        if !json.contains(key) {
            return Err(format!("missing top-level key {key}"));
        }
    }
    // Every experiment record carries all four keys: equal counts.
    let count = |needle: &str| json.matches(needle).count();
    let ids = count("\"id\":");
    if ids != count("\"wall_micros\":")
        || ids != count("\"spans_dropped\":")
        || ids != count("\"counters\":{")
    {
        return Err("an experiment record is missing id/wall_micros/spans_dropped/counters".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> String {
        let mut counters = CounterSnapshot::default();
        counters.record("chase.runs", 17);
        counters.record("cache.hits", 4);
        render(
            "abc1234",
            &[
                ExperimentRecord {
                    id: "fig4".into(),
                    wall_micros: 1234,
                    spans_dropped: 3,
                    counters,
                },
                ExperimentRecord {
                    id: "e19".into(),
                    wall_micros: 99,
                    spans_dropped: 0,
                    counters: CounterSnapshot::default(),
                },
            ],
        )
    }

    #[test]
    fn rendered_report_passes_the_schema_check() {
        let json = sample();
        check_schema(&json).unwrap();
        assert!(json.contains("\"git_sha\":\"abc1234\""));
        assert!(json.contains("\"id\":\"fig4\""));
        assert!(json.contains("\"spans_dropped\":3"));
        assert!(json.contains("\"chase.runs\":17"));
    }

    #[test]
    fn schema_check_rejects_malformed_documents() {
        assert!(check_schema("{\"git_sha\":\"x\"").is_err());
        assert!(check_schema("{\"experiments\":[]}").is_err());
        assert!(
            check_schema("{\"git_sha\":\"x\",\"experiments\":[{\"id\":\"a\"}]}").is_err(),
            "record missing wall_micros/counters must fail"
        );
        assert!(
            check_schema(
                "{\"git_sha\":\"x\",\"experiments\":[\
                 {\"id\":\"a\",\"wall_micros\":1,\"counters\":{}}]}"
            )
            .is_err(),
            "record missing spans_dropped must fail"
        );
    }

    #[test]
    fn git_sha_is_never_empty() {
        assert!(!git_sha().is_empty());
    }
}
