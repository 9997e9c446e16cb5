//! The spec-level `xnf-tool` operations (`xnf_cli::ops`), their
//! known-answer checks, their traced replays, and the two closed-loop
//! workloads built on them: `paper-ops` and `spec-scaling`.

use std::time::{Duration, Instant};

use xnf_cli::ops::{
    self, AnalyzeSpecOptions, IsXnfOptions, LintSpecOptions, NormalizeSpecOptions, Trust,
};
use xnf_cli::CliError;
use xnf_core::XmlFdSet;
use xnf_govern::{Budget, Recorder};

use crate::harness::{self, closed_loop, closed_loop_metrics, limit, Answer, Outcome, RunConfig};
use crate::inputs::{self, Spec, SpecKind};
use crate::trace::Tracer;
use crate::util::{median, ratio, Rng};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Lint,
    IsXnf,
    Analyze,
    /// `normalize --stats`.
    Normalize,
    /// `normalize --doc <xml>`.
    NormalizeDoc,
}

impl Op {
    pub fn name(self) -> &'static str {
        match self {
            Op::Lint => "lint",
            Op::IsXnf => "is-xnf",
            Op::Analyze => "analyze",
            Op::Normalize => "normalize",
            Op::NormalizeDoc => "normalize-doc",
        }
    }

    fn root_span(self) -> &'static str {
        match self {
            Op::Lint => "op.lint",
            Op::IsXnf => "op.is-xnf",
            Op::Analyze => "op.analyze",
            Op::Normalize => "op.normalize",
            Op::NormalizeDoc => "op.normalize-doc",
        }
    }
}

pub const ROOTS: [&str; 5] = [
    "op.lint",
    "op.is-xnf",
    "op.analyze",
    "op.normalize",
    "op.normalize-doc",
];

/// One op call of a cycle: an op on a spec, with a document for
/// [`Op::NormalizeDoc`].
#[derive(Debug, Clone)]
pub struct Call {
    pub spec: Spec,
    pub op: Op,
    pub doc: Option<String>,
}

impl Call {
    pub fn label(&self) -> String {
        format!("{} {}", self.op.name(), self.spec.name)
    }
}

/// A per-op budget with the deadline every timed call runs under.
pub fn deadline_budget() -> Budget {
    Budget::builder().deadline(limit()).build()
}

/// Calls the op as `xnf-tool` does, with the local trust profile
/// (`normalize` with `--threads 1`).
pub fn run_call(
    call: &Call,
    budget: &Budget,
    recorder: &Recorder,
    no_lint: bool,
) -> Result<String, CliError> {
    let (dtd, fds) = (call.spec.dtd.as_str(), call.spec.fds.as_str());
    match call.op {
        Op::Lint => ops::lint_sources(dtd, Some(fds), &LintSpecOptions::default(), budget),
        Op::IsXnf => ops::is_xnf(
            dtd,
            fds,
            &IsXnfOptions {
                no_lint,
                trust: None,
            },
            budget,
        ),
        Op::Analyze => {
            ops::analyze_spec(dtd, fds, &AnalyzeSpecOptions::default(), budget).map(|o| o.rendered)
        }
        Op::Normalize | Op::NormalizeDoc => {
            // `--threads 1`: on a shared 2-vCPU host the default fan-out
            // waits on a stolen second CPU and tripled the p90 of whole
            // runs; one thread measures the work, not the neighbours.
            let options = NormalizeSpecOptions {
                stats: call.op == Op::Normalize,
                threads: 1,
                no_lint,
                doc_src: call.doc.as_deref(),
                ..NormalizeSpecOptions::default()
            };
            ops::normalize_spec(dtd, fds, &options, budget, recorder)
        }
    }
}

/// Classifies an op result; the `--stats` wall-time line is dropped so
/// that equal work compares equal.
pub fn classify(result: Result<String, CliError>) -> Answer {
    match result {
        Ok(out) => Answer::Output(
            out.lines()
                .filter(|l| !l.starts_with("wall time:"))
                .map(|l| format!("{l}\n"))
                .collect(),
        ),
        Err(CliError::Exhausted(_)) => Answer::Undecided,
        Err(e) => Answer::Failed(e.to_string()),
    }
}

/// Times one deadline-governed call.
pub fn timed_call(call: &Call) -> (Duration, Answer) {
    let budget = deadline_budget();
    let recorder = Recorder::disabled();
    let t = Instant::now();
    let result = run_call(call, &budget, &recorder, false);
    (t.elapsed(), classify(result))
}

/// Times the call as a traced root span, then replays its public calls
/// as child spans. Returns the root's time.
pub fn traced_call(tr: &mut Tracer, call: &Call) -> (Duration, Answer) {
    let op_id = tr.new_op();
    let budget = Budget::builder()
        .deadline(limit())
        .recorder(Recorder::enabled())
        .build();
    let recorder = Recorder::enabled();
    let root = tr.begin(call.op.root_span(), None, op_id);
    let t = Instant::now();
    let result = run_call(call, &budget, &recorder, false);
    let elapsed = t.elapsed();
    tr.end(root);
    replay(tr, root, op_id, call);
    (elapsed, classify(result))
}

/// Replays the public calls an op is made of, under `root`.
pub fn replay(tr: &mut Tracer, root: usize, op: u64, call: &Call) {
    let (dtd_src, fds_src) = (call.spec.dtd.as_str(), call.spec.fds.as_str());
    let unlimited = Budget::unlimited();
    if call.op == Op::Lint {
        tr.time("lint", Some(root), op, || {
            std::hint::black_box(
                xnf_lint::lint_spec_governed(dtd_src, Some(fds_src), &unlimited).ok(),
            )
        });
        return;
    }
    if call.op != Op::Analyze {
        tr.time("lint", Some(root), op, || {
            std::hint::black_box(xnf_lint::lint_spec(dtd_src, Some(fds_src)))
        });
    }
    let parsed = tr.time("parse", Some(root), op, || {
        let dtd = ops::parse_dtd(dtd_src, Trust::Local, &unlimited).ok()?;
        let sigma = XmlFdSet::parse(fds_src).ok()?;
        Some((dtd, sigma))
    });
    let Some((dtd, sigma)) = parsed else { return };
    let engine_name = match call.op {
        Op::IsXnf => "search",
        Op::Analyze => "analyze",
        _ => "normalize",
    };
    let engine = tr.begin(engine_name, Some(root), op);
    let result = match call.op {
        Op::IsXnf => {
            std::hint::black_box(xnf_core::anomalous_fds_governed(&dtd, &sigma, &unlimited).ok());
            None
        }
        Op::Analyze => {
            std::hint::black_box(
                xnf_core::analyze(&dtd, &sigma, &xnf_core::AnalyzeOptions::default()).ok(),
            );
            None
        }
        _ => {
            let options = xnf_core::NormalizeOptions {
                threads: 1,
                ..xnf_core::NormalizeOptions::default()
            };
            xnf_core::normalize(&dtd, &sigma, &options).ok()
        }
    };
    tr.end(engine);
    // `paths(D)` runs inside the engine; replayed after it, it is
    // reported as the engine's child.
    tr.time("paths", Some(engine), op, || {
        std::hint::black_box(dtd.paths().ok())
    });
    if let (Some(result), Some(doc_src)) = (result, call.doc.as_deref()) {
        let tree = tr.time("xml.parse", Some(root), op, || {
            xnf_xml::parse_governed(doc_src, xnf_xml::ParseLimits::default(), &unlimited).ok()
        });
        let Some(tree) = tree else { return };
        let transformed = tr.time("lossless.transform", Some(root), op, || {
            xnf_core::lossless::transform_document(&dtd, &result, &tree).ok()
        });
        let verify = tr.begin("lossless.verify", Some(root), op);
        std::hint::black_box(xnf_core::lossless::verify_lossless(&dtd, &result, &tree).ok());
        tr.end(verify);
        if let Some(transformed) = transformed {
            tr.time("lossless.restore", Some(verify), op, || {
                std::hint::black_box(
                    xnf_core::lossless::restore_document(&result, &transformed).ok(),
                )
            });
        }
    }
}

/// Sections of a rendered `normalize` output.
pub struct NormalizeOutput<'a> {
    pub steps: Vec<&'a str>,
    pub dtd: &'a str,
    pub fds: &'a str,
}

pub fn parse_normalize(out: &str) -> Option<NormalizeOutput<'_>> {
    let (_, rest) = out.split_once("=== steps (")?;
    let (count, rest) = rest.split_once(") ===\n")?;
    let count: usize = count.parse().ok()?;
    let steps: Vec<&str> = rest.lines().take(count).collect();
    let (_, rest) = rest.split_once("=== revised DTD ===\n")?;
    let (dtd, rest) = rest.split_once("=== revised FDs ===\n")?;
    let fds = rest.split("=== ").next()?;
    Some(NormalizeOutput { steps, dtd, fds })
}

/// The `predicted plan` lines of a rendered `analyze` output.
fn parse_plan(out: &str) -> Option<Vec<&str>> {
    let (_, rest) = out.split_once("=== predicted plan (")?;
    let (count, rest) = rest.split_once(" step(s)) ===\n")?;
    let count: usize = count.parse().ok()?;
    Some(rest.lines().take(count).collect())
}

/// The reference output of a call: no deadline, full lint.
pub fn reference(call: &Call) -> Result<String, String> {
    match classify(run_call(
        call,
        &Budget::unlimited(),
        &Recorder::disabled(),
        false,
    )) {
        Answer::Output(out) => Ok(out),
        Answer::Undecided => Err("exhausted without a budget".into()),
        Answer::Failed(e) => Err(e),
    }
}

/// Known-answer checks on a reference output. `plant` expects one
/// anomalous FD too many (self-test).
pub fn check_known_answers(
    call: &Call,
    out: &str,
    sibling: Option<&str>,
    plant: bool,
) -> Vec<String> {
    let mut problems = Vec::new();
    let label = call.label();
    let mut expect = |ok: bool, what: &str| {
        if !ok {
            problems.push(format!("{label}: {what}"));
        }
    };
    let anomalies = match call.spec.kind {
        SpecKind::University => Some(1),
        SpecKind::Dblp => Some(1),
        SpecKind::Ebxml => Some(0),
        SpecKind::E22(k) => Some(k),
        SpecKind::Pathological => None,
    }
    .map(|n| n + usize::from(plant));
    match call.op {
        Op::Lint => {}
        Op::IsXnf => {
            if let Some(n) = anomalies {
                let want = if n == 0 {
                    "in XNF: yes\n".to_string()
                } else {
                    format!("in XNF: NO — {n} anomalous FD(s):\n")
                };
                expect(
                    out.starts_with(&want),
                    &format!("verdict is not `{}`", want.trim_end()),
                );
            }
        }
        Op::Analyze => {
            if let (SpecKind::E22(k), Some(norm)) = (call.spec.kind, sibling) {
                let plan = parse_plan(out);
                expect(
                    plan.as_ref().is_some_and(|p| p.len() == k),
                    "plan does not have k steps",
                );
                let steps = parse_normalize(norm).map(|n| n.steps);
                expect(
                    plan.is_some() && plan == steps,
                    "analyze plan differs from normalize steps",
                );
            }
        }
        Op::Normalize | Op::NormalizeDoc => {
            let Some(parsed) = parse_normalize(out) else {
                expect(false, "unparseable normalize output");
                return problems;
            };
            let kinds: Vec<&str> = parsed
                .steps
                .iter()
                .map(|s| s.split([' ', '{', '(']).next().unwrap_or(""))
                .collect();
            match call.spec.kind {
                SpecKind::University => expect(
                    kinds == ["FoldText", "CreateElement"],
                    "steps are not FoldText, CreateElement",
                ),
                SpecKind::Dblp => expect(
                    kinds == ["MoveAttribute"],
                    "steps are not one MoveAttribute",
                ),
                SpecKind::Ebxml => expect(kinds.is_empty(), "an XNF spec got steps"),
                SpecKind::E22(k) => {
                    expect(kinds.len() == k, "normalize does not take exactly k steps")
                }
                SpecKind::Pathological => {}
            }
            let recheck = ops::is_xnf(
                parsed.dtd,
                parsed.fds,
                &IsXnfOptions::default(),
                &Budget::unlimited(),
            );
            expect(
                matches!(&recheck, Ok(v) if v == "in XNF: yes\n"),
                "revised (D, Σ) does not re-check `in XNF: yes`",
            );
            if call.op == Op::NormalizeDoc {
                expect(
                    out.ends_with("lossless round-trip: verified\n"),
                    "lossless round trip not verified",
                );
            }
        }
    }
    problems
}

/// Deterministic counters over one pass of the distinct calls: no lint
/// (the preflight is ungoverned and adds nothing to them), a fuel-metered
/// budget per op.
pub fn counter_pass(out: &mut Outcome, calls: &[Call]) {
    let recorder = Recorder::enabled();
    let (mut ticks, mut analyze_ticks, mut normalize_ticks) = (0u64, 0u64, 0u64);
    let mut seen = std::collections::BTreeSet::new();
    for call in calls {
        // The document part of `normalize --doc` adds nothing to these.
        let call = match call.op {
            Op::NormalizeDoc => Call {
                op: Op::Normalize,
                doc: None,
                spec: call.spec.clone(),
            },
            _ => call.clone(),
        };
        let call = &call;
        if call.op == Op::Lint || !seen.insert((call.spec.dtd.clone(), call.op.name())) {
            continue;
        }
        let budget = Budget::builder().fuel(u64::MAX / 4).build();
        let _ = run_call(call, &budget, &recorder, true);
        ticks += budget.ticks();
        match call.op {
            Op::Analyze => analyze_ticks += budget.ticks(),
            Op::Normalize => normalize_ticks += budget.ticks(),
            _ => {}
        }
    }
    let hits = recorder.counter("cache.hits") as f64;
    let misses = recorder.counter("cache.misses") as f64;
    out.set("fuel.ticks", ticks as f64);
    out.set("chase.runs", recorder.counter("chase.runs") as f64);
    out.set("cache.hits", hits);
    out.set("cache.misses", misses);
    out.set("cache.hit_ratio", ratio(hits, hits + misses));
    out.set(
        "normalize.iterations",
        recorder.counter("normalize.iterations") as f64,
    );
    out.set(
        "analyze_normalize.fuel_ratio",
        ratio(analyze_ticks as f64, normalize_ticks as f64),
    );
}

/// Per-layer metrics of the spec ops from the trace.
pub fn spec_layer_metrics(out: &mut Outcome, tr: &Tracer, roots: &[&str]) {
    let lint_total = tr.total_us("lint");
    let (selves, self_sum, root_sum) = tr.root_self_us(roots);
    out.set(
        "lint.preflight_us",
        median(&tr.durations_under("lint", &["op.is-xnf", "op.normalize", "op.normalize-doc"])),
    );
    out.set("lint.share", ratio(lint_total, root_sum));
    out.set("dtd.parse_us", tr.median_us("parse"));
    out.set("dtd.paths_us", tr.median_us("paths"));
    out.set("core.search_us", tr.median_us("search"));
    out.set("core.normalize_us", tr.median_us("normalize"));
    out.set("core.analyze_us", tr.median_us("analyze"));
    out.set("ops.self_us", median(&selves));
    out.set("ops.unattributed_share", ratio(self_sum, root_sum));
}

/// Runs a cycle of spec-op calls: timed, checked, optionally traced.
fn run_spec_workload(cfg: &RunConfig, mut out: Outcome, calls: Vec<Call>, setup_s: f64) -> Outcome {
    out.set("setup_s", setup_s);
    let mut tracer = Tracer::new();
    let mut untraced_ms = 0.0;
    let mut traced_ms = 0.0;
    let res = if cfg.trace {
        closed_loop(calls.len(), cfg.seconds, |i| {
            let (plain, _) = timed_call(&calls[i]);
            let (root, answer) = traced_call(&mut tracer, &calls[i]);
            untraced_ms += plain.as_secs_f64() * 1e3;
            traced_ms += root.as_secs_f64() * 1e3;
            (root, answer)
        })
    } else {
        closed_loop(calls.len(), cfg.seconds, |i| timed_call(&calls[i]))
    };
    closed_loop_metrics(&mut out, &res);
    out.problems.extend(res.problems.iter().cloned());
    verify_calls(&mut out, &calls, &res.first, cfg.plant_wrong);
    if cfg.trace {
        spec_layer_metrics(&mut out, &tracer, &ROOTS);
        counter_pass(&mut out, &calls);
        out.set(
            "trace.overhead_pct",
            100.0 * (ratio(traced_ms, untraced_ms) - 1.0),
        );
        crate::write_trace(cfg, &tracer);
    }
    out
}

/// Checks each call's first output against its reference, and each
/// reference against the known answers.
pub fn verify_calls(out: &mut Outcome, calls: &[Call], first: &[Option<String>], plant: bool) {
    let references: Vec<Result<String, String>> = calls.iter().map(reference).collect();
    for (i, call) in calls.iter().enumerate() {
        let reference = match &references[i] {
            Ok(r) => r,
            Err(e) => {
                out.problem(format!("{}: reference run failed: {e}", call.label()));
                continue;
            }
        };
        if let Some(first) = &first[i] {
            if first != reference {
                out.problem(format!(
                    "{}: output differs from the reference",
                    call.label()
                ));
            }
        }
        let sibling = calls.iter().zip(&references).find_map(|(c, r)| {
            (c.op == Op::Normalize && c.spec.dtd == call.spec.dtd)
                .then(|| r.as_ref().ok().map(String::as_str))
                .flatten()
        });
        out.problems
            .extend(check_known_answers(call, reference, sibling, plant));
    }
}

fn spec_inputs(out: &mut Outcome, calls: &[Call]) {
    let mut seen = std::collections::BTreeSet::new();
    for call in calls {
        if seen.insert(call.spec.name.clone()) {
            let paths = xnf_dtd::parse_dtd(&call.spec.dtd)
                .ok()
                .and_then(|d| d.paths().ok())
                .map_or(0, |p| p.len());
            let sigma = XmlFdSet::parse(&call.spec.fds).map_or(0, |s| s.len());
            out.input(
                &format!("spec.{}", call.spec.name),
                format!(
                    "{{\"dtd_bytes\":{},\"fds_bytes\":{},\"paths\":{paths},\"sigma\":{sigma}}}",
                    call.spec.dtd.len(),
                    call.spec.fds.len()
                ),
            );
        }
    }
    let calls_per_op = |op: Op| calls.iter().filter(|c| c.op == op).count();
    for op in [
        Op::Lint,
        Op::IsXnf,
        Op::Analyze,
        Op::Normalize,
        Op::NormalizeDoc,
    ] {
        out.input(&format!("calls_per_cycle.{}", op.name()), calls_per_op(op));
    }
}

const PAPER: [SpecKind; 3] = [SpecKind::University, SpecKind::Dblp, SpecKind::Ebxml];

/// `paper-ops`: the three paper specs and their example documents, every
/// spec-level op, in a seeded order.
pub fn paper_ops(cfg: &RunConfig) -> Result<Outcome, String> {
    let (calls, setup_s) = harness::repeat_setup(|| {
        let mut rng = Rng::new(cfg.seed);
        let mut calls = Vec::new();
        for kind in PAPER {
            let (dtd, fds) = inputs::base_sources(kind)?;
            let prefix = inputs::prefix(&mut rng);
            let (dtd, fds) = inputs::rename_spec(&dtd, &fds, &prefix)?;
            let name = inputs::kind_name(kind);
            let doc_src = inputs::read(&format!("examples/docs/{name}.xml"))?;
            let tree = xnf_xml::parse(&doc_src).map_err(|e| e.to_string())?;
            let doc = xnf_xml::to_string_pretty(&inputs::rename_tree(&tree, &prefix));
            let spec = Spec {
                name,
                kind,
                dtd,
                fds,
            };
            for op in [
                Op::Lint,
                Op::IsXnf,
                Op::Analyze,
                Op::Normalize,
                Op::NormalizeDoc,
            ] {
                let doc = (op == Op::NormalizeDoc).then(|| doc.clone());
                calls.push(Call {
                    spec: spec.clone(),
                    op,
                    doc,
                });
            }
        }
        // Warm-up: one untimed pass, so lazy set-up is paid here.
        for call in &calls {
            let _ = timed_call(call);
        }
        Ok(calls)
    })?;
    let mut out = Outcome::default();
    spec_inputs(&mut out, &calls);
    let mut out = run_spec_workload(cfg, out, calls, setup_s);
    if cfg.trace {
        // The service layers are measured here, in the traced run only:
        // `serve-mixed` latency on a shared 2-vCPU host swings too far to
        // gate on, so it is not a declared workload of its own.
        let served = crate::serve::serve_mixed(&RunConfig {
            workload: "serve-mixed",
            ..*cfg
        })?;
        for name in crate::serve::SERVE_LAYER {
            out.set(name, served.metrics.get(name).copied().unwrap_or(0.0));
        }
        out.set(
            "loadgen.lag_ms.p99",
            served
                .metrics
                .get("loadgen.lag_ms.p99")
                .copied()
                .unwrap_or(0.0),
        );
        out.attempted += served.attempted;
        out.failed += served.failed;
        out.problems.extend(served.problems);
        for (name, value) in served.inputs {
            out.input(&format!("serve.{name}"), value);
        }
    }
    Ok(out)
}

/// The `e22_family` sweep: every other k from 5 to 25, which keeps a
/// cycle near two seconds so a run holds enough cycles to average over.
pub fn e22_ks() -> impl Iterator<Item = usize> {
    (5..=25).step_by(2)
}

/// `spec-scaling`: `e22_family(k)` for the k of [`e22_ks`] and the
/// pathological spec (1 call in 12), each renamed by the seed.
pub fn spec_scaling(cfg: &RunConfig) -> Result<Outcome, String> {
    let (calls, setup_s) = harness::repeat_setup(|| {
        let mut rng = Rng::new(cfg.seed);
        let mut kinds: Vec<SpecKind> = e22_ks().map(SpecKind::E22).collect();
        kinds.push(SpecKind::Pathological);
        let specs = inputs::renamed_specs(&kinds, &mut rng)?;
        let mut calls = Vec::new();
        for spec in specs {
            for op in [Op::IsXnf, Op::Analyze, Op::Normalize] {
                calls.push(Call {
                    spec: spec.clone(),
                    op,
                    doc: None,
                });
            }
        }
        // Warm-up on the smallest spec only: a pass over the cycle costs
        // seconds.
        if let Some(small) = calls.iter().find(|c| c.spec.kind == SpecKind::E22(5)) {
            let _ = timed_call(small);
        }
        Ok(calls)
    })?;
    let mut out = Outcome::default();
    spec_inputs(&mut out, &calls);
    out.input(
        "k_values",
        format!(
            "[{}]",
            e22_ks()
                .map(|k| k.to_string())
                .collect::<Vec<_>>()
                .join(",")
        ),
    );
    Ok(run_spec_workload(cfg, out, calls, setup_s))
}
