//! The closed-loop runner shared by the in-process workloads, and the
//! outcome every workload returns.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::util::{median, peak_rss_mb, ratio, windowed_quantile};

/// The latency limit an op must answer within to count as decided; every
/// op runs under a `Budget` deadline of this length.
pub const LIMIT_MS: f64 = 250.0;

pub fn limit() -> Duration {
    Duration::from_secs_f64(LIMIT_MS / 1e3)
}

/// How many times set-up runs; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// Knobs every workload receives.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Replace one expected answer with a wrong one (self-test).
    pub plant_wrong: bool,
}

/// What a workload reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Input properties, as `(name, JSON value)`.
    pub inputs: Vec<(String, String)>,
    /// Failed checks; any entry makes the run incorrect.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn input(&mut self, name: &str, value: impl ToString) {
        self.inputs.push((name.to_string(), value.to_string()));
    }

    pub fn problem(&mut self, p: impl Into<String>) {
        self.problems.push(p.into());
    }
}

/// Result of one op call, as the loop classifies it.
pub enum Answer {
    /// A verdict or rendered output (normalized for comparison).
    Output(String),
    /// The budget ran out: no verdict within the limit. Counts against
    /// `decided_share`, not as a failure.
    Undecided,
    /// An error no correct run produces.
    Failed(String),
}

#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub cycle: u64,
    pub ms: f64,
    pub decided: bool,
}

/// Samples of a closed loop plus, per call index, the first output seen.
/// Every later output of the same call must equal the first.
pub struct LoopResult {
    pub samples: Vec<Sample>,
    /// Calls per second of each cycle.
    pub cycle_rates: Vec<f64>,
    /// `VmHWM` when the loop ended, before any checking.
    pub peak_rss_mb: f64,
    pub first: Vec<Option<String>>,
    pub failed: u64,
    pub problems: Vec<String>,
    pub cycles: u64,
}

/// Runs whole cycles over `calls` call indices on this thread until
/// `seconds` have passed (at least one cycle). `run` performs call `i`
/// and returns its time and answer; anything else it does (tracing,
/// replays) is outside the returned time.
pub fn closed_loop(
    calls: usize,
    seconds: f64,
    mut run: impl FnMut(usize) -> (Duration, Answer),
) -> LoopResult {
    let mut res = LoopResult {
        samples: Vec::new(),
        cycle_rates: Vec::new(),
        peak_rss_mb: 0.0,
        first: Vec::new(),
        failed: 0,
        problems: Vec::new(),
        cycles: 0,
    };
    let mut first: Vec<Option<String>> = vec![None; calls];
    let start = Instant::now();
    loop {
        let mut cycle_s = 0.0;
        for (call, first) in first.iter_mut().enumerate() {
            let (elapsed, answer) = run(call);
            cycle_s += elapsed.as_secs_f64();
            let ms = elapsed.as_secs_f64() * 1e3;
            let decided = match answer {
                Answer::Output(out) => {
                    match first {
                        None => *first = Some(out),
                        Some(prev) if *prev != out => {
                            res.problems
                                .push(format!("call {call}: output differs between repeats"));
                        }
                        Some(_) => {}
                    }
                    ms <= LIMIT_MS
                }
                Answer::Undecided => false,
                Answer::Failed(e) => {
                    res.failed += 1;
                    if res.problems.len() < 20 {
                        res.problems.push(format!("call {call} failed: {e}"));
                    }
                    false
                }
            };
            res.samples.push(Sample {
                cycle: res.cycles,
                ms,
                decided,
            });
        }
        res.cycles += 1;
        res.cycle_rates.push(ratio(calls as f64, cycle_s));
        if start.elapsed().as_secs_f64() >= seconds {
            res.peak_rss_mb = peak_rss_mb();
            res.first = first;
            return res;
        }
    }
}

/// Sets the end-to-end metrics of a closed loop. Every cycle runs the
/// same calls, so each cycle is a window: latency quantiles are taken per
/// cycle and throughput is each cycle's calls per second, and the metric
/// is the median over cycles.
pub fn closed_loop_metrics(out: &mut Outcome, res: &LoopResult) {
    let ms: Vec<f64> = res.samples.iter().map(|s| s.ms).collect();
    let mut windows = vec![Vec::new(); usize::try_from(res.cycles).unwrap_or(0)];
    for s in &res.samples {
        windows[usize::try_from(s.cycle).unwrap_or(0)].push(s.ms);
    }
    let decided = res.samples.iter().filter(|s| s.decided).count();
    out.set("verdict_ms.p50", windowed_quantile(&windows, 0.5));
    out.set("verdict_ms.p90", windowed_quantile(&windows, 0.9));
    out.set("ops_per_s", median(&res.cycle_rates));
    out.set("peak_rss_mb", res.peak_rss_mb);
    out.set("decided_share", ratio(decided as f64, ms.len() as f64));
    out.attempted += ms.len() as u64;
    out.failed += res.failed;
    out.input("samples", ms.len());
    out.input("cycles", res.cycles);
}

/// Runs `setup` [`SETUP_REPEATS`] times, keeping the last result, and
/// returns it with the median set-up time in seconds.
pub fn repeat_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous result first, so a server from the last
        // round is gone before the next one starts.
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up round"), median(&times)))
}
