//! The `documents` workload: the `xnf-tool check` and `shred` paths on
//! ~1 MB generated documents, and `normalize --doc` (transform plus
//! lossless verification) on two smaller sizes.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use xnf_core::XmlFdSet;
use xnf_govern::Budget;
use xnf_xml::XmlTree;

use crate::harness::{self, closed_loop, closed_loop_metrics, Answer, Outcome, RunConfig};
use crate::inputs::{self, Spec, SpecKind};
use crate::spec::{self, Call, Op};
use crate::trace::Tracer;
use crate::util::{median, ratio, Rng};

/// Courses (10 students each, all distinct) of the university documents,
/// and conferences (4 issues of 5 papers) of the DBLP documents.
const UNIVERSITY_LARGE: usize = 700;
const DBLP_LARGE: usize = 200;
/// The two `normalize --doc` sizes: about 22 KB and 44 KB.
const UNIVERSITY_VERIFY: [usize; 2] = [16, 32];
const DBLP_VERIFY: [usize; 2] = [4, 8];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DocOp {
    Check,
    Shred,
    /// `normalize --doc`, at size class 0 (small) or 1 (large).
    Verify(usize),
}

struct DocCall {
    spec: Spec,
    op: DocOp,
    xml: String,
    tree: XmlTree,
    /// One of the ~1 MB documents.
    large: bool,
    /// Source files, for the `check` and `shred` command paths.
    files: [PathBuf; 3],
}

impl DocCall {
    fn label(&self) -> String {
        format!(
            "{:?} {} ({} bytes)",
            self.op,
            self.spec.name,
            self.xml.len()
        )
    }

    fn args(&self) -> Vec<String> {
        let [dtd, fds, xml] = self.files.each_ref().map(|p| p.display().to_string());
        match self.op {
            DocOp::Check => vec!["check".into(), dtd, xml, fds],
            _ => vec![
                "shred".into(),
                dtd,
                fds,
                xml,
                "--force".into(),
                "--timeout".into(),
                format!("{}", harness::LIMIT_MS / 1e3),
            ],
        }
    }

    fn spec_call(&self) -> Call {
        Call {
            spec: self.spec.clone(),
            op: Op::NormalizeDoc,
            doc: Some(self.xml.clone()),
        }
    }
}

/// Removes the run's source files when the workload ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn cli_answer(result: Result<String, xnf_cli::CliError>) -> Answer {
    match result {
        Ok(out) => Answer::Output(out),
        Err(xnf_cli::CliError::Exhausted(_)) => Answer::Undecided,
        Err(e) => Answer::Failed(e.to_string()),
    }
}

fn timed(call: &DocCall) -> (Duration, Answer) {
    match call.op {
        DocOp::Verify(_) => spec::timed_call(&call.spec_call()),
        _ => {
            let args = call.args();
            let t = Instant::now();
            let result = xnf_cli::run(&args);
            (t.elapsed(), cli_answer(result))
        }
    }
}

/// Times the call as a root span and replays its public calls.
fn traced(tr: &mut Tracer, call: &DocCall) -> (Duration, Answer) {
    if let DocOp::Verify(_) = call.op {
        return spec::traced_call(tr, &call.spec_call());
    }
    let op = tr.new_op();
    let args = call.args();
    let root = tr.begin(
        if call.op == DocOp::Check {
            "op.check"
        } else {
            "op.shred"
        },
        None,
        op,
    );
    let t = Instant::now();
    let result = xnf_cli::run(&args);
    let elapsed = t.elapsed();
    tr.end(root);
    let unlimited = Budget::unlimited();
    let (dtd_src, fds_src) = (call.spec.dtd.as_str(), call.spec.fds.as_str());
    if call.op == DocOp::Shred {
        tr.time("lint", Some(root), op, || {
            std::hint::black_box(xnf_lint::lint_spec_shred(dtd_src, Some(fds_src), &unlimited).ok())
        });
    }
    let parsed = tr.time("parse", Some(root), op, || {
        Some((
            xnf_dtd::parse_dtd(dtd_src).ok()?,
            XmlFdSet::parse(fds_src).ok()?,
        ))
    });
    let tree = tr.time("xml.parse", Some(root), op, || {
        xnf_xml::parse(&call.xml).ok()
    });
    let (Some((dtd, sigma)), Some(tree)) = (parsed, tree) else {
        return (elapsed, cli_answer(result));
    };
    if call.op == DocOp::Check {
        tr.time("xml.conform", Some(root), op, || {
            std::hint::black_box(xnf_xml::conforms(&tree, &dtd).is_ok())
        });
        let Some(paths) = tr.time("paths", Some(root), op, || dtd.paths().ok()) else {
            return (elapsed, cli_answer(result));
        };
        for fd in sigma.iter() {
            tr.time("fd.check", Some(root), op, || {
                std::hint::black_box(fd.satisfied_by(&tree, &dtd, &paths).ok())
            });
        }
    } else {
        let schema = tr.time("shred.compile", Some(root), op, || {
            xnf_core::compile_schema(&dtd, &sigma, &unlimited).ok()
        });
        let Some(schema) = schema else {
            return (elapsed, cli_answer(result));
        };
        let rows = tr.time("shred.rows", Some(root), op, || {
            xnf_core::shred_document(&schema, &tree, &unlimited).ok()
        });
        if let Some(rows) = rows {
            let rebuilt = tr.time("shred.unshred", Some(root), op, || {
                xnf_core::unshred_document(&schema, &rows, &unlimited).ok()
            });
            if let Some(rebuilt) = rebuilt {
                tr.time("xml.eq", Some(root), op, || {
                    std::hint::black_box(xnf_xml::ordered_eq(&tree, &rebuilt))
                });
            }
        }
    }
    (elapsed, cli_answer(result))
}

fn make_calls(seed: u64, dir: &std::path::Path) -> Result<Vec<DocCall>, String> {
    let mut rng = Rng::new(seed);
    let mut calls = Vec::new();
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    for kind in [SpecKind::University, SpecKind::Dblp] {
        let (dtd, fds) = inputs::base_sources(kind)?;
        let prefix = inputs::prefix(&mut rng);
        let (dtd, fds) = inputs::rename_spec(&dtd, &fds, &prefix)?;
        let name = inputs::kind_name(kind);
        let spec = Spec {
            name: name.clone(),
            kind,
            dtd,
            fds,
        };
        let generate = |n: usize| match kind {
            SpecKind::University => xnf_gen::doc::university_document(n, 10, n * 10, n * 10),
            _ => xnf_gen::doc::dblp_document(n, 4, 5),
        };
        let (large, verify) = match kind {
            SpecKind::University => (UNIVERSITY_LARGE, UNIVERSITY_VERIFY),
            _ => (DBLP_LARGE, DBLP_VERIFY),
        };
        let mut docs = vec![(DocOp::Check, large), (DocOp::Shred, large)];
        docs.extend([(DocOp::Verify(0), verify[0]), (DocOp::Verify(1), verify[1])]);
        if kind == SpecKind::University {
            // An odd number of calls keeps the median inside one call's
            // samples rather than on the edge between two.
            docs.push((DocOp::Check, verify[0]));
        }
        for (op, n) in docs {
            let tree = inputs::rename_tree(&generate(n), &prefix);
            let xml = xnf_xml::to_string_pretty(&tree);
            let stem = dir.join(format!("{name}-{n}"));
            let files = [
                stem.with_extension("dtd"),
                stem.with_extension("fds"),
                stem.with_extension("xml"),
            ];
            for (path, text) in files.iter().zip([&spec.dtd, &spec.fds, &xml]) {
                std::fs::write(path, text)
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            }
            calls.push(DocCall {
                spec: spec.clone(),
                op,
                xml,
                tree,
                large: n == large,
                files,
            });
        }
    }
    Ok(calls)
}

/// Known answers: every document conforms and satisfies Σ, `check`
/// says so, `shred` emits one INSERT per row of an exact round trip, and
/// `normalize --doc` passes the spec checks and verifies losslessly.
fn verify(out: &mut Outcome, calls: &[DocCall], first: &[Option<String>], plant: bool) {
    let unlimited = Budget::unlimited();
    for (call, first) in calls.iter().zip(first) {
        let label = call.label();
        let Ok(dtd) = xnf_dtd::parse_dtd(&call.spec.dtd) else {
            out.problem(format!("{label}: DTD does not parse"));
            continue;
        };
        let sigma = XmlFdSet::parse(&call.spec.fds).unwrap_or_default();
        let paths = dtd.paths();
        let satisfies = paths
            .as_ref()
            .ok()
            .and_then(|p| sigma.satisfied_by(&call.tree, &dtd, p).ok());
        if xnf_xml::conforms(&call.tree, &dtd).is_err() || satisfies != Some(true) {
            out.problem(format!(
                "{label}: generated document does not conform or satisfy Σ"
            ));
        }
        match call.op {
            DocOp::Check => {
                let expected = 1 + sigma.len();
                let ok = first.as_ref().is_some_and(|o| {
                    o.starts_with("conforms: yes\n")
                        && o.lines().skip(1).all(|l| l.starts_with("holds"))
                        && o.lines().count() == expected + usize::from(plant)
                });
                if !ok {
                    out.problem(format!(
                        "{label}: check does not report conforms + every FD holds"
                    ));
                }
            }
            DocOp::Shred => {
                let rows = xnf_core::compile_schema(&dtd, &sigma, &unlimited)
                    .ok()
                    .and_then(|schema| {
                        let rows =
                            xnf_core::shred_document(&schema, &call.tree, &unlimited).ok()?;
                        let rebuilt =
                            xnf_core::unshred_document(&schema, &rows, &unlimited).ok()?;
                        xnf_xml::ordered_eq(&call.tree, &rebuilt).then(|| rows.row_count())
                    });
                let inserts = first
                    .as_ref()
                    .map(|o| o.lines().filter(|l| l.starts_with("INSERT INTO")).count());
                match (rows, inserts) {
                    (Some(r), Some(i)) if r == i => {}
                    (None, _) => out.problem(format!("{label}: unshred is not exact")),
                    _ => out.problem(format!(
                        "{label}: INSERT count differs from the shredded rows"
                    )),
                }
            }
            DocOp::Verify(_) => {
                let call = call.spec_call();
                match spec::reference(&call) {
                    Ok(reference) => {
                        if first.as_ref().is_some_and(|f| f != &reference) {
                            out.problem(format!("{label}: output differs from the reference"));
                        }
                        out.problems
                            .extend(spec::check_known_answers(&call, &reference, None, false));
                    }
                    Err(e) => out.problem(format!("{label}: reference run failed: {e}")),
                }
            }
        }
    }
}

/// Per-layer metrics of the document layers, from each call's spans.
fn doc_layer_metrics(
    out: &mut Outcome,
    tr: &Tracer,
    per_call: &[Vec<(usize, usize)>],
    calls: &[DocCall],
) {
    let mut by: BTreeMap<(&str, usize), Vec<f64>> = BTreeMap::new();
    let (mut large_bytes, mut large_root_us) = (0.0, 0.0);
    let (mut parse_bytes, mut parse_us, mut conform_bytes, mut conform_us) = (0.0, 0.0, 0.0, 0.0);
    let (mut rows, mut rows_us) = (0.0, 0.0);
    let unlimited = Budget::unlimited();
    let row_counts: Vec<f64> = calls
        .iter()
        .map(|c| {
            let count = || {
                let dtd = xnf_dtd::parse_dtd(&c.spec.dtd).ok()?;
                let sigma = XmlFdSet::parse(&c.spec.fds).ok()?;
                let schema = xnf_core::compile_schema(&dtd, &sigma, &unlimited).ok()?;
                Some(
                    xnf_core::shred_document(&schema, &c.tree, &unlimited)
                        .ok()?
                        .row_count() as f64,
                )
            };
            if c.op == DocOp::Shred {
                count().unwrap_or(0.0)
            } else {
                0.0
            }
        })
        .collect();
    for ((call, ranges), call_rows) in calls.iter().zip(per_call).zip(&row_counts) {
        let bytes = call.xml.len() as f64;
        for &(from, to) in ranges {
            for s in &tr.spans[from..to] {
                let us = s.us();
                match (call.op, s.name) {
                    (DocOp::Check | DocOp::Shred, "op.check" | "op.shred") if call.large => {
                        large_bytes += bytes;
                        large_root_us += us;
                    }
                    (DocOp::Check | DocOp::Shred, "xml.parse") if call.large => {
                        parse_bytes += bytes;
                        parse_us += us;
                    }
                    (_, "xml.conform") if call.large => {
                        conform_bytes += bytes;
                        conform_us += us;
                    }
                    (_, "shred.rows") => {
                        rows += call_rows;
                        rows_us += us;
                    }
                    (DocOp::Verify(class), name) if call.spec.kind == SpecKind::University => {
                        by.entry((name, class)).or_default().push(us / 1e3);
                    }
                    _ => {}
                }
            }
        }
    }
    let med = |name: &str, class: usize| by.get(&(name, class)).map_or(0.0, |v| median(v));
    out.set("doc_mb_per_s", ratio(large_bytes, large_root_us));
    out.set("xml.parse_mb_per_s", ratio(parse_bytes, parse_us));
    out.set("xml.conform_mb_per_s", ratio(conform_bytes, conform_us));
    out.set("fd.check_us", tr.median_us("fd.check"));
    out.set("shred.rows_per_s", ratio(rows, rows_us / 1e6));
    out.set("lossless.transform_ms.small", med("lossless.transform", 0));
    out.set("lossless.transform_ms.large", med("lossless.transform", 1));
    out.set("lossless.restore_ms.small", med("lossless.restore", 0));
    out.set("lossless.restore_ms.large", med("lossless.restore", 1));
    out.set("lossless.verify_ms.small", med("lossless.verify", 0));
    out.set("lossless.verify_ms.large", med("lossless.verify", 1));
    let size = |class: usize| {
        calls
            .iter()
            .find(|c| c.op == DocOp::Verify(class) && c.spec.kind == SpecKind::University)
            .map_or(0.0, |c| c.xml.len() as f64)
    };
    out.set(
        "lossless.restore_growth",
        ratio(
            ratio(med("lossless.restore", 1), med("lossless.restore", 0)),
            ratio(size(1), size(0)),
        ),
    );
}

pub fn documents(cfg: &RunConfig) -> Result<Outcome, String> {
    let dir = PathBuf::from(".bench_out").join(format!("docs-{}", std::process::id()));
    let _scratch = Scratch(dir.clone());
    let (calls, setup_s) = harness::repeat_setup(|| make_calls(cfg.seed, &dir))?;
    let mut out = Outcome::default();
    out.set("setup_s", setup_s);
    for (i, call) in calls.iter().enumerate() {
        out.input(
            &format!("call{i}.{:?}.{}", call.op, call.spec.name)
                .to_lowercase()
                .replace(['(', ')'], ""),
            format!(
                "{{\"bytes\":{},\"nodes\":{},\"dtd_bytes\":{},\"sigma\":{}}}",
                call.xml.len(),
                call.tree.num_nodes(),
                call.spec.dtd.len(),
                XmlFdSet::parse(&call.spec.fds).map_or(0, |s| s.len())
            ),
        );
    }
    let mut tracer = Tracer::new();
    let mut per_call: Vec<Vec<(usize, usize)>> = vec![Vec::new(); calls.len()];
    let (mut untraced_ms, mut traced_ms) = (0.0, 0.0);
    let res = if cfg.trace {
        closed_loop(calls.len(), cfg.seconds, |i| {
            let (plain, _) = timed(&calls[i]);
            let from = tracer.spans.len();
            let (root, answer) = traced(&mut tracer, &calls[i]);
            per_call[i].push((from, tracer.spans.len()));
            untraced_ms += plain.as_secs_f64() * 1e3;
            traced_ms += root.as_secs_f64() * 1e3;
            (root, answer)
        })
    } else {
        closed_loop(calls.len(), cfg.seconds, |i| timed(&calls[i]))
    };
    closed_loop_metrics(&mut out, &res);
    out.problems.extend(res.problems.iter().cloned());
    verify(&mut out, &calls, &res.first, cfg.plant_wrong);
    if cfg.trace {
        let roots = ["op.check", "op.shred", "op.normalize-doc"];
        spec::spec_layer_metrics(&mut out, &tracer, &roots);
        doc_layer_metrics(&mut out, &tracer, &per_call, &calls);
        let spec_calls: Vec<Call> = calls
            .iter()
            .filter(|c| matches!(c.op, DocOp::Verify(_)))
            .map(DocCall::spec_call)
            .collect();
        spec::counter_pass(&mut out, &spec_calls);
        out.set(
            "trace.overhead_pct",
            100.0 * (ratio(traced_ms, untraced_ms) - 1.0),
        );
        crate::write_trace(cfg, &tracer);
    }
    Ok(out)
}
