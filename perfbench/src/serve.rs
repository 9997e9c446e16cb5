//! The `serve-mixed` workload: an open-loop load generator against an
//! `xnf-serve` instance over loopback sockets.
//!
//! The server runs the default configuration with `nproc` workers. The
//! generator sends on a fixed schedule from at most `nproc` threads, one
//! connection per thread at a time, and times each request from when it
//! was due, so a stall also delays the requests queued behind it. A run
//! is a nominal phase at [`NOMINAL_RPS`] followed by a rate ladder.

use std::collections::BTreeMap;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use xnf_cli::ops::{
    self, AnalyzeSpecOptions, IsXnfOptions, LintSpecOptions, NormalizeSpecOptions, Trust,
};
use xnf_cli::CliError;
use xnf_govern::{Budget, Recorder};
use xnf_serve::{ServeConfig, Server};

use crate::harness::{self, Outcome, RunConfig};
use crate::inputs::{self, SpecKind};
use crate::spec::{self, Call, Op};
use crate::trace::Tracer;
use crate::util::{fnv, json_str, median, nproc, quantile, ratio, us, windowed_quantile, Rng};

/// The per-layer metrics only this workload measures. `paper-ops`
/// reports them from a traced run of this workload.
pub const SERVE_LAYER: [&str; 15] = [
    "core.key_us",
    "hit_us.p50",
    "hit_us.p99",
    "miss_ms.p50",
    "miss_ms.p99",
    "max_rate_rps",
    "serve.connect_us",
    "serve.ttfb_us",
    "serve.server_wall_us",
    "serve.outside_us",
    "serve.cache.hit_ratio",
    "serve.cache.evictions",
    "serve.shed_429",
    "serve.exhausted_503",
    "serve.spans_dropped",
];

/// Offered rate of the nominal phase.
pub const NOMINAL_RPS: f64 = 500.0;
/// The rate ladder for `max_rate_rps`.
pub const LADDER_RPS: [f64; 5] = [250.0, 500.0, 1000.0, 2000.0, 4000.0];
/// Rungs sharing one server.
const LADDER_GROUPS: [std::ops::Range<usize>; 2] = [0..4, 4..5];
/// Window of the closed-loop phase's quantiles and throughput.
const WINDOW_S: f64 = 0.1;
/// A rung passes with p99 at most this, at most 0.1% failed, and a
/// generator lag that does not grow.
pub const LATENCY_LIMIT_MS: f64 = 10.0;
/// Share of a run's seconds spent in the nominal phase, and in the
/// ladder, whose rungs share it equally.
const NOMINAL_SHARE: f64 = 0.35;
const LADDER_SHARE: f64 = 0.2;
/// Requests of the closed-loop phase, and at most per ladder rung.
const CLOSED_REQUESTS: usize = 6000;
const RUNG_CAP: usize = 3000;
/// Deadline each request asks for (`x-deadline-ms`), the ops limit.
const DEADLINE_MS: u64 = harness::LIMIT_MS as u64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Hit,
    Miss,
    /// Second request of a simultaneous pair on a fresh spec.
    Pair,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Endpoint {
    IsXnf,
    Normalize,
    Analyze,
    Lint,
}

impl Endpoint {
    fn path(self) -> &'static str {
        match self {
            Endpoint::IsXnf => "/v1/is-xnf",
            Endpoint::Normalize => "/v1/normalize",
            Endpoint::Analyze => "/v1/analyze",
            Endpoint::Lint => "/v1/lint",
        }
    }

    fn op(self) -> Op {
        match self {
            Endpoint::IsXnf => Op::IsXnf,
            Endpoint::Normalize => Op::Normalize,
            Endpoint::Analyze => Op::Analyze,
            Endpoint::Lint => Op::Lint,
        }
    }
}

/// One distinct request: endpoint and sources.
#[derive(Debug)]
struct Target {
    endpoint: Endpoint,
    name: String,
    kind: SpecKind,
    dtd: String,
    fds: String,
    body: String,
}

impl Target {
    fn new(endpoint: Endpoint, name: String, kind: SpecKind, dtd: String, fds: String) -> Target {
        let mut body = String::from("{\"dtd\":");
        json_str(&mut body, &dtd);
        body.push_str(",\"fds\":");
        json_str(&mut body, &fds);
        body.push('}');
        Target {
            endpoint,
            name,
            kind,
            dtd,
            fds,
            body,
        }
    }

    fn call(&self) -> Call {
        Call {
            spec: inputs::Spec {
                name: self.name.clone(),
                kind: self.kind,
                dtd: self.dtd.clone(),
                fds: self.fds.clone(),
            },
            op: self.endpoint.op(),
            doc: None,
        }
    }

    /// The body the server must answer with: the in-process op output
    /// for the same sources, in the service's JSON envelope.
    fn expected_body(&self) -> String {
        let budget = Budget::unlimited();
        let trust = Some(Trust::Network);
        let (dtd, fds) = (self.dtd.as_str(), self.fds.as_str());
        let result = match self.endpoint {
            Endpoint::IsXnf => ops::is_xnf(
                dtd,
                fds,
                &IsXnfOptions {
                    no_lint: false,
                    trust,
                },
                &budget,
            ),
            Endpoint::Normalize => {
                let options = NormalizeSpecOptions {
                    trust,
                    ..NormalizeSpecOptions::default()
                };
                ops::normalize_spec(dtd, fds, &options, &budget, &Recorder::disabled())
            }
            Endpoint::Analyze => ops::analyze_spec(
                dtd,
                fds,
                &AnalyzeSpecOptions {
                    trust,
                    ..AnalyzeSpecOptions::default()
                },
                &budget,
            )
            .map(|o| o.rendered),
            Endpoint::Lint => {
                ops::lint_sources(dtd, Some(fds), &LintSpecOptions::default(), &budget)
            }
        };
        let (status, output) = match result {
            Ok(out) => ("ok", out),
            Err(CliError::Lint(report)) if self.endpoint == Endpoint::Lint => {
                ("diagnostics", report)
            }
            Err(e) => ("error", e.to_string()),
        };
        let mut body = String::from("{\"status\":");
        xnf_serve::json::write_str(&mut body, status);
        body.push_str(",\"output\":");
        xnf_serve::json::write_str(&mut body, &output);
        body.push_str("}\n");
        body
    }
}

/// One scheduled send.
#[derive(Debug, Clone, Copy)]
struct Send {
    /// Offset of the due time from the phase start, seconds.
    at: f64,
    target: usize,
    class: Class,
}

#[derive(Debug, Clone, Default)]
struct Reply {
    status: u16,
    cache: Option<String>,
    body_hash: u64,
    body_len: usize,
    error: Option<String>,
    due: Option<Instant>,
    start: Option<Instant>,
    connected: Option<Instant>,
    written: Option<Instant>,
    first_byte: Option<Instant>,
    done: Option<Instant>,
    id: String,
}

impl Reply {
    fn ok(&self) -> bool {
        self.error.is_none() && self.status == 200
    }

    fn latency_ms(&self) -> f64 {
        match (self.due, self.done) {
            (Some(d), Some(e)) => e.saturating_duration_since(d).as_secs_f64() * 1e3,
            _ => f64::INFINITY,
        }
    }

    fn lag_ms(&self) -> f64 {
        match (self.due, self.start) {
            (Some(d), Some(s)) => s.saturating_duration_since(d).as_secs_f64() * 1e3,
            _ => 0.0,
        }
    }
}

/// Sends one request on a fresh connection and reads the response to EOF.
fn send_one(addr: SocketAddr, target: &Target, id: &str) -> Reply {
    let mut r = Reply {
        id: id.to_string(),
        start: Some(Instant::now()),
        ..Reply::default()
    };
    let mut attempt = || -> std::io::Result<Vec<u8>> {
        let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        r.connected = Some(Instant::now());
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        stream.set_write_timeout(Some(Duration::from_secs(10)))?;
        let head = format!(
            "POST {} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\
             x-request-id: {id}\r\nx-deadline-ms: {DEADLINE_MS}\r\n\r\n",
            target.endpoint.path(),
            target.body.len()
        );
        stream.write_all(head.as_bytes())?;
        stream.write_all(target.body.as_bytes())?;
        r.written = Some(Instant::now());
        let mut buf = Vec::with_capacity(16 << 10);
        let mut chunk = [0u8; 16 << 10];
        loop {
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                break;
            }
            if buf.is_empty() {
                r.first_byte = Some(Instant::now());
            }
            buf.extend_from_slice(&chunk[..n]);
        }
        Ok(buf)
    };
    let result = attempt();
    r.done = Some(Instant::now());
    match result {
        Ok(raw) => parse_response(&mut r, &raw),
        Err(e) => r.error = Some(e.to_string()),
    }
    r
}

fn parse_response(r: &mut Reply, raw: &[u8]) {
    let text = String::from_utf8_lossy(raw);
    let Some((head, body)) = text.split_once("\r\n\r\n") else {
        r.error = Some("truncated response".into());
        return;
    };
    r.status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    r.cache = head
        .lines()
        .find_map(|l| l.strip_prefix("X-Cache: "))
        .map(str::to_string);
    r.body_hash = fnv(body.as_bytes());
    r.body_len = body.len();
}

/// Runs `sends` against `addr` from `threads` threads, each request due
/// at `start + at`. A request whose thread is still busy when it falls
/// due is sent late, and its latency counts from the due time.
fn run_schedule(
    addr: SocketAddr,
    targets: &[Target],
    sends: &[Send],
    threads: usize,
    tag: &str,
) -> Vec<Reply> {
    run_sends(addr, targets, sends, threads, tag, false)
}

/// Runs `sends` back to back from `threads` connections, ignoring their
/// due times: a closed loop, each request timed from when it was sent.
fn run_closed(addr: SocketAddr, targets: &[Target], sends: &[Send], threads: usize) -> Vec<Reply> {
    run_sends(addr, targets, sends, threads, "closed", true)
}

fn run_sends(
    addr: SocketAddr,
    targets: &[Target],
    sends: &[Send],
    threads: usize,
    tag: &str,
    closed: bool,
) -> Vec<Reply> {
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(20);
    let mut replies: Vec<Reply> = vec![Reply::default(); sends.len()];
    let per_thread: Vec<Vec<(usize, Reply)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(send) = sends.get(i) else { break };
                        let now = Instant::now();
                        let due = if closed {
                            now
                        } else {
                            start + Duration::from_secs_f64(send.at)
                        };
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let mut reply =
                            send_one(addr, &targets[send.target], &format!("{tag}-{i}"));
                        reply.due = Some(due);
                        mine.push((i, reply));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread panicked"))
            .collect()
    });
    for (i, reply) in per_thread.into_iter().flatten() {
        replies[i] = reply;
    }
    replies
}

/// The hot set, its servable requests, and the base specs misses rename.
struct Inputs {
    targets: Vec<Target>,
    /// Indices of `targets` that are hits.
    hot: Vec<usize>,
    miss_bases: Vec<(SpecKind, String, String)>,
    miss_tag: String,
}

/// A formatting-different but semantically identical twin of a spec.
fn twin(dtd: &str, fds: &str) -> (String, String) {
    (
        format!(
            "\n{}",
            dtd.replace("<!ELEMENT ", "<!ELEMENT  ")
                .replace('\n', "\n\n")
        ),
        format!("# formatting twin\n\n{}", fds.replace(" -> ", "  ->  ")),
    )
}

fn make_inputs(seed: u64) -> Result<Inputs, String> {
    let mut rng = Rng::new(seed);
    let mut targets = Vec::new();
    let hot_kinds = [
        SpecKind::University,
        SpecKind::Dblp,
        SpecKind::Ebxml,
        SpecKind::E22(5),
        SpecKind::E22(10),
        SpecKind::E22(15),
        SpecKind::E22(20),
        SpecKind::E22(25),
        SpecKind::Pathological,
    ];
    let twinned = [
        SpecKind::University,
        SpecKind::Dblp,
        SpecKind::Ebxml,
        SpecKind::E22(5),
        SpecKind::E22(10),
        SpecKind::E22(25),
        SpecKind::Pathological,
    ];
    for kind in hot_kinds {
        let (dtd, fds) = inputs::base_sources(kind)?;
        let (dtd, fds) = inputs::rename_spec(&dtd, &fds, &inputs::prefix(&mut rng))?;
        let mut variants = vec![(inputs::kind_name(kind), dtd.clone(), fds.clone())];
        if twinned.contains(&kind) {
            let (d, f) = twin(&dtd, &fds);
            variants.push((format!("{}-twin", inputs::kind_name(kind)), d, f));
        }
        // The pathological spec's lint preflight takes about half a
        // second; it is hot on `analyze` only (no preflight), which is
        // enough to show how hit cost grows with spec size.
        let endpoints: &[Endpoint] = if kind == SpecKind::Pathological {
            &[Endpoint::Analyze]
        } else {
            &[Endpoint::IsXnf, Endpoint::Normalize, Endpoint::Analyze]
        };
        for (name, dtd, fds) in variants {
            for &e in endpoints {
                targets.push(Target::new(e, name.clone(), kind, dtd.clone(), fds.clone()));
            }
        }
    }
    let hot = (0..targets.len()).collect();
    let miss_bases = [
        SpecKind::University,
        SpecKind::Dblp,
        SpecKind::Ebxml,
        SpecKind::E22(5),
    ]
    .into_iter()
    .map(|k| inputs::base_sources(k).map(|(d, f)| (k, d, f)))
    .collect::<Result<_, _>>()?;
    Ok(Inputs {
        targets,
        hot,
        miss_bases,
        miss_tag: rng.letters(2),
    })
}

/// Builds a phase's schedule at `rate` for `seconds`. One slot in five is
/// a never-seen renaming of a base spec (one miss in ten also sent as a
/// simultaneous pair); the rest are hits. Hits walk a seeded order of the
/// hot set and misses a seeded order of base spec × endpoint, so every
/// seed sends the same mix. Miss targets are appended to `inputs.targets`.
fn schedule(
    inputs: &mut Inputs,
    rng: &mut Rng,
    rate: f64,
    seconds: f64,
    seq: &mut u64,
) -> Result<Vec<Send>, String> {
    let n = ((rate * seconds).round() as usize).max(1);
    let mut hot_order = inputs.hot.clone();
    rng.shuffle(&mut hot_order);
    let endpoints = [
        Endpoint::IsXnf,
        Endpoint::Normalize,
        Endpoint::Analyze,
        Endpoint::Lint,
    ];
    let mut miss_order: Vec<(usize, Endpoint)> = (0..inputs.miss_bases.len())
        .flat_map(|b| endpoints.map(|e| (b, e)))
        .collect();
    rng.shuffle(&mut miss_order);
    let (mut hits, mut misses) = (0, 0);
    let mut sends = Vec::with_capacity(n + n / 40);
    for i in 0..n {
        let at = i as f64 / rate;
        if i % 5 != 2 {
            let target = hot_order[hits % hot_order.len()];
            hits += 1;
            sends.push(Send {
                at,
                target,
                class: Class::Hit,
            });
            continue;
        }
        let (base, endpoint) = miss_order[misses % miss_order.len()];
        misses += 1;
        let (kind, dtd, fds) = &inputs.miss_bases[base];
        *seq += 1;
        let prefix = inputs::unique_prefix(&format!("m{}", inputs.miss_tag), *seq);
        let (dtd, fds) = inputs::rename_spec(dtd, fds, &prefix)?;
        let name = format!("{}-miss{}", inputs::kind_name(*kind), *seq);
        inputs
            .targets
            .push(Target::new(endpoint, name, *kind, dtd, fds));
        let target = inputs.targets.len() - 1;
        sends.push(Send {
            at,
            target,
            class: Class::Miss,
        });
        if endpoint != Endpoint::Lint && misses % 10 == 0 {
            sends.push(Send {
                at,
                target,
                class: Class::Pair,
            });
        }
    }
    Ok(sends)
}

/// A running server, drained and joined on drop.
struct Running {
    server: Option<Server>,
    access_log: Option<std::path::PathBuf>,
}

impl Running {
    fn server(&self) -> &Server {
        self.server.as_ref().expect("server runs until drop")
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        if let Some(log) = &self.access_log {
            let _ = std::fs::remove_file(log);
        }
    }
}

fn spawn(access_log: Option<std::path::PathBuf>) -> Result<Running, String> {
    if let Some(log) = &access_log {
        if let Some(dir) = log.parent() {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        }
        let _ = std::fs::remove_file(log);
    }
    let config = ServeConfig {
        threads: nproc(),
        access_log: access_log.as_ref().map(|p| p.display().to_string()),
        ..ServeConfig::default()
    };
    let server = Server::spawn(config).map_err(|e| format!("cannot start xnf-serve: {e}"))?;
    Ok(Running {
        server: Some(server),
        access_log,
    })
}

/// Sends every hot request once, so the timed phases see a warm cache.
fn warm(running: &Running, inputs: &Inputs) -> Result<usize, String> {
    let mut hot_bytes = 0;
    for &t in &inputs.hot {
        let reply = send_one(running.server().addr(), &inputs.targets[t], "warm");
        if !reply.ok() {
            return Err(format!(
                "warming `{}` failed: {:?} {:?}",
                inputs.targets[t].name, reply.status, reply.error
            ));
        }
        hot_bytes += reply.body_len;
    }
    Ok(hot_bytes)
}

struct Phase {
    sends: Vec<Send>,
    replies: Vec<Reply>,
    rate: f64,
}

impl Phase {
    fn latencies(&self, class: Option<&[Class]>) -> Vec<f64> {
        self.sends
            .iter()
            .zip(&self.replies)
            .filter(|(s, _)| class.is_none_or(|c| c.contains(&s.class)))
            .map(|(_, r)| r.latency_ms())
            .collect()
    }

    fn failed(&self) -> usize {
        self.replies.iter().filter(|r| !r.ok()).count()
    }

    /// p99 ≤ limit, ≤ 0.1% failed, and the lag of the last quarter of
    /// sends no more than the limit above the first quarter's.
    fn passes(&self) -> bool {
        let n = self.replies.len();
        let lags: Vec<f64> = self.replies.iter().map(Reply::lag_ms).collect();
        let quarter = (n / 4).max(1);
        let growth = median(&lags[n.saturating_sub(quarter)..]) - median(&lags[..quarter.min(n)]);
        quantile(&self.latencies(None), 0.99) <= LATENCY_LIMIT_MS
            && self.failed() as f64 <= 0.001 * n as f64
            && growth <= LATENCY_LIMIT_MS
    }

    /// Per window of [`WINDOW_S`] by send time: the latencies of the
    /// requests sent in it, and how many of them were answered 200. The
    /// last, partial window is left out.
    fn windows(&self) -> (Vec<Vec<f64>>, Vec<f64>) {
        let Some(first) = self.replies.iter().filter_map(|r| r.start).min() else {
            return (Vec::new(), Vec::new());
        };
        let offset = |r: &Reply| {
            r.start
                .map(|s| s.saturating_duration_since(first).as_secs_f64())
        };
        let span = self.replies.iter().filter_map(offset).fold(0.0, f64::max);
        let full = ((span / WINDOW_S) as usize).max(1);
        let mut latencies = vec![Vec::new(); full];
        let mut ok = vec![0.0; full];
        for r in &self.replies {
            let Some(w) = offset(r).map(|t| (t / WINDOW_S) as usize) else {
                continue;
            };
            if w < full {
                latencies[w].push(r.latency_ms());
                if r.ok() {
                    ok[w] += 1.0;
                }
            }
        }
        (latencies, ok)
    }
}

/// Joins the access log's `wall_micros` to the requests by id.
fn server_walls(path: &std::path::Path) -> BTreeMap<String, f64> {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let field = |line: &str, key: &str| -> Option<String> {
        let rest = line.split_once(&format!("\"{key}\":"))?.1;
        let rest = rest.trim_start_matches('"');
        Some(rest.split(['"', ',', '}']).next()?.to_string())
    };
    text.lines()
        .filter_map(|l| Some((field(l, "id")?, field(l, "wall_micros")?.parse().ok()?)))
        .collect()
}

pub fn serve_mixed(cfg: &RunConfig) -> Result<Outcome, String> {
    let threads = nproc();
    let log_path = cfg.trace.then(|| {
        std::path::PathBuf::from(".bench_out").join(format!("access-{}.jsonl", std::process::id()))
    });
    let ((running, mut inputs, hot_bytes), setup_s) = harness::repeat_setup(|| {
        let inputs = make_inputs(cfg.seed)?;
        let running = spawn(log_path.clone())?;
        let hot_bytes = warm(&running, &inputs)?;
        Ok((running, inputs, hot_bytes))
    })?;
    let addr = running.server().addr();
    let epoch = Instant::now();
    let mut out = Outcome::default();
    out.set("setup_s", setup_s);
    let mut rng = Rng::new(cfg.seed ^ 0x5e7e);
    let mut seq = 0;
    let nominal_s = cfg.seconds * NOMINAL_SHARE;
    let rung_s = cfg.seconds * LADDER_SHARE / LADDER_RPS.len() as f64;

    // Tracing overhead: the same traffic against a server without an
    // access log, for a quarter of the nominal phase.
    let mut plain_p50 = 0.0;
    if cfg.trace {
        let plain = spawn(None)?;
        warm(&plain, &inputs)?;
        let sends = schedule(
            &mut inputs,
            &mut rng,
            NOMINAL_RPS,
            nominal_s / 4.0,
            &mut seq,
        )?;
        let replies = run_schedule(
            plain.server().addr(),
            &inputs.targets,
            &sends,
            threads,
            "plain",
        );
        let phase = Phase {
            sends,
            replies,
            rate: NOMINAL_RPS,
        };
        plain_p50 = median(&phase.latencies(None));
    }

    let sends = schedule(&mut inputs, &mut rng, NOMINAL_RPS, nominal_s, &mut seq)?;
    let replies = run_schedule(addr, &inputs.targets, &sends, threads, "nominal");
    let nominal = Phase {
        sends,
        replies,
        rate: NOMINAL_RPS,
    };
    out.set("peak_rss_mb", crate::util::peak_rss_mb());
    let stats = running.server().cache_stats();
    let spans_dropped = running.server().recorder().spans_dropped();
    let walls = log_path.as_deref().map(server_walls).unwrap_or_default();

    drop(running);

    // Closed loop: `nproc` clients that each wait for their reply, on a
    // fresh warm server. Saturated, the machine is never idle between
    // requests, so this latency and throughput move with the program
    // rather than with wake-up delays.
    let closed_server = spawn(None)?;
    warm(&closed_server, &inputs)?;
    let closed_s = CLOSED_REQUESTS as f64 / NOMINAL_RPS;
    let mut sends = schedule(&mut inputs, &mut rng, NOMINAL_RPS, closed_s, &mut seq)?;
    sends.truncate(CLOSED_REQUESTS);
    let replies = run_closed(
        closed_server.server().addr(),
        &inputs.targets,
        &sends,
        threads,
    );
    drop(closed_server);
    let closed = Phase {
        sends,
        replies,
        rate: 0.0,
    };
    // Connections close server-first, so each leaves a TIME_WAIT entry
    // on the server's port for a minute. The ladder runs on fresh,
    // warmed servers in groups of rungs, so no server port sees more
    // than about 5000 connections and client ports never wrap onto one.
    let mut ladder = Vec::new();
    for group in LADDER_GROUPS {
        let server = spawn(None)?;
        warm(&server, &inputs)?;
        for i in group {
            let rate = LADDER_RPS[i];
            let secs = rung_s.min(RUNG_CAP as f64 / rate);
            let sends = schedule(&mut inputs, &mut rng, rate, secs, &mut seq)?;
            let replies = run_schedule(
                server.server().addr(),
                &inputs.targets,
                &sends,
                threads,
                &format!("rung{i}"),
            );
            ladder.push(Phase {
                sends,
                replies,
                rate,
            });
        }
    }

    // End-to-end metrics: latency and throughput of the closed loop per
    // window; the decided share of the nominal phase.
    let (windows, counts) = closed.windows();
    let all = nominal.latencies(None);
    let decided = nominal
        .replies
        .iter()
        .filter(|r| r.ok() && r.latency_ms() <= LATENCY_LIMIT_MS)
        .count();
    out.set("verdict_ms.p50", windowed_quantile(&windows, 0.5));
    out.set("verdict_ms.p90", windowed_quantile(&windows, 0.9));
    out.set("ops_per_s", median(&counts) / WINDOW_S);
    out.set("decided_share", ratio(decided as f64, all.len() as f64));
    let max_rate = ladder
        .iter()
        .filter(|p| p.passes())
        .map(|p| p.rate)
        .fold(0.0, f64::max);

    let phases: Vec<&Phase> = [&nominal, &closed].into_iter().chain(&ladder).collect();
    out.attempted = phases.iter().map(|p| p.replies.len() as u64).sum();
    out.failed = phases.iter().map(|p| p.failed() as u64).sum();
    verify(&mut out, &inputs, &phases, cfg.plant_wrong);

    // Input properties.
    let count = |c: Class| nominal.sends.iter().filter(|s| s.class == c).count() as f64;
    let n = nominal.sends.len() as f64;
    out.input("nominal_rps", NOMINAL_RPS);
    out.input("nominal_requests", n);
    out.input("hit_share_sent", ratio(count(Class::Hit), n));
    out.input("miss_share_sent", ratio(count(Class::Miss), n));
    out.input("pair_share_sent", ratio(count(Class::Pair), n));
    out.input("hot_requests", inputs.hot.len());
    out.input("hot_set_bytes", hot_bytes);
    out.input("cache_bytes", ServeConfig::default().cache_bytes);
    out.input("generator_threads", threads);
    out.input("server_workers", threads);
    let rungs: Vec<String> = ladder
        .iter()
        .map(|p| {
            format!(
                "{{\"rps\":{},\"sent\":{},\"failed\":{},\"p99_ms\":{:.3},\"lag_p99_ms\":{:.3},\"passes\":{}}}",
                p.rate,
                p.replies.len(),
                p.failed(),
                quantile(&p.latencies(None), 0.99),
                quantile(&p.replies.iter().map(Reply::lag_ms).collect::<Vec<_>>(), 0.99),
                p.passes()
            )
        })
        .collect();
    out.input("ladder", format!("[{}]", rungs.join(",")));
    out.input("max_rate_rps", max_rate);
    out.input("closed_loop_requests", closed.replies.len());
    out.input("closed_loop_windows", windows.len());

    if cfg.trace {
        let hits = nominal.latencies(Some(&[Class::Hit]));
        let misses = nominal.latencies(Some(&[Class::Miss, Class::Pair]));
        out.set("hit_us.p50", quantile(&hits, 0.5) * 1e3);
        out.set("hit_us.p99", quantile(&hits, 0.99) * 1e3);
        out.set("miss_ms.p50", quantile(&misses, 0.5));
        out.set("miss_ms.p99", quantile(&misses, 0.99));
        out.set("max_rate_rps", max_rate);
        let lags: Vec<f64> = nominal.replies.iter().map(Reply::lag_ms).collect();
        out.set("loadgen.lag_ms.p99", quantile(&lags, 0.99));
        let mut tracer = Tracer::starting_at(epoch);
        client_spans(&mut tracer, &nominal, &walls);
        let gap = |a: Option<Instant>, b: Option<Instant>| match (a, b) {
            (Some(a), Some(b)) => Some(us(b.saturating_duration_since(a))),
            _ => None,
        };
        let ok: Vec<&Reply> = nominal.replies.iter().filter(|r| r.ok()).collect();
        out.set(
            "serve.connect_us",
            median(
                &ok.iter()
                    .filter_map(|r| gap(r.start, r.connected))
                    .collect::<Vec<_>>(),
            ),
        );
        out.set(
            "serve.ttfb_us",
            median(
                &ok.iter()
                    .filter_map(|r| gap(r.written, r.first_byte))
                    .collect::<Vec<_>>(),
            ),
        );
        let joined: Vec<(f64, f64)> = ok
            .iter()
            .filter_map(|r| Some((walls.get(&r.id).copied()?, gap(r.start, r.done)?)))
            .collect();
        out.set(
            "serve.server_wall_us",
            median(&joined.iter().map(|j| j.0).collect::<Vec<_>>()),
        );
        out.set(
            "serve.outside_us",
            median(&joined.iter().map(|j| j.1 - j.0).collect::<Vec<_>>()),
        );
        let lookups = stats.hits + stats.misses + stats.joined;
        out.set(
            "serve.cache.hit_ratio",
            ratio((stats.hits + stats.joined) as f64, lookups as f64),
        );
        out.set("serve.cache.evictions", stats.evictions as f64);
        let status_count = |code: u16| {
            phases
                .iter()
                .flat_map(|p| &p.replies)
                .filter(|r| r.status == code)
                .count() as f64
        };
        out.set("serve.shed_429", status_count(429));
        out.set("serve.exhausted_503", status_count(503));
        out.set("serve.spans_dropped", spans_dropped as f64);
        out.input("access_log_joined", joined.len());
        // The server-side layers, replayed in-process: the key path every
        // hit runs (parse, then the cache key), and whole ops on a sample
        // of the misses.
        key_path_replay(&mut tracer, &inputs);
        let misses: Vec<Call> = inputs.targets[inputs.hot.len()..]
            .iter()
            .take(40)
            .map(Target::call)
            .collect();
        for call in &misses {
            spec::traced_call(&mut tracer, call);
        }
        spec::spec_layer_metrics(&mut out, &tracer, &spec::ROOTS);
        out.set("core.key_us", tracer.median_us("key"));
        let hot_calls: Vec<Call> = inputs
            .hot
            .iter()
            .map(|&t| inputs.targets[t].call())
            .collect();
        spec::counter_pass(&mut out, &hot_calls);
        let traced_p50 = median(&all);
        out.set(
            "trace.overhead_pct",
            100.0 * (ratio(traced_p50, plain_p50) - 1.0),
        );
        crate::write_trace(cfg, &tracer);
    }
    Ok(out)
}

/// Client-side spans of the nominal phase: the request from its due
/// time, split into generator lag, connect, send, wait and read.
fn client_spans(tr: &mut Tracer, phase: &Phase, walls: &BTreeMap<String, f64>) {
    for r in &phase.replies {
        let (Some(due), Some(start), Some(done)) = (r.due, r.start, r.done) else {
            continue;
        };
        let op = tr.new_op();
        let root = tr.record("request", None, op, due, done);
        tr.record("loadgen.lag", Some(root), op, due, start);
        if let (Some(c), Some(w), Some(f)) = (r.connected, r.written, r.first_byte) {
            tr.record("connect", Some(root), op, start, c);
            tr.record("send", Some(root), op, c, w);
            let wait = tr.record("wait", Some(root), op, w, f);
            if let Some(wall) = walls.get(&r.id) {
                // The server's own wall time, ending at its first byte.
                let end = f;
                let begin = end
                    .checked_sub(Duration::from_secs_f64(wall / 1e6))
                    .unwrap_or(w)
                    .max(w);
                tr.record("server", Some(wait), op, begin, end);
            }
            tr.record("read", Some(root), op, f, done);
        }
    }
}

/// Replays what a cache hit costs the server before the lookup: the
/// governed spec parse and the two cache keys.
fn key_path_replay(tr: &mut Tracer, inputs: &Inputs) {
    let budget = Budget::unlimited();
    for &t in &inputs.hot {
        let target = &inputs.targets[t];
        let op = tr.new_op();
        let root = tr.begin("serve.hit-path", None, op);
        let parsed = tr.time("parse", Some(root), op, || {
            let dtd = ops::parse_dtd(&target.dtd, Trust::Network, &budget).ok()?;
            Some((dtd, xnf_core::XmlFdSet::parse(&target.fds).ok()?))
        });
        if let Some((dtd, sigma)) = parsed {
            tr.time("key", Some(root), op, || {
                std::hint::black_box(xnf_core::spec_cache_key(
                    target.endpoint.op().name(),
                    &dtd,
                    &sigma,
                    "",
                ));
                std::hint::black_box(xnf_core::spec_cache_key("spec", &dtd, &sigma, ""))
            });
        }
        tr.end(root);
    }
}

/// Every 200 body equals the in-process output for the same request,
/// hits report a cache hit, single misses a miss, and each pair one of
/// each (a join reports a hit).
fn verify(out: &mut Outcome, inputs: &Inputs, phases: &[&Phase], mut plant: bool) {
    let mut expected: Vec<Option<u64>> = vec![None; inputs.targets.len()];
    let mut bad = 0usize;
    for phase in phases {
        for (send, reply) in phase.sends.iter().zip(&phase.replies) {
            if !reply.ok() {
                continue;
            }
            let want = *expected[send.target]
                .get_or_insert_with(|| fnv(inputs.targets[send.target].expected_body().as_bytes()));
            // The self-test expects a different body for the first reply.
            let want = if std::mem::take(&mut plant) {
                want ^ 1
            } else {
                want
            };
            let cache_ok = match (inputs.targets[send.target].endpoint, send.class) {
                (Endpoint::Lint, _) => reply.cache.is_none(),
                (_, Class::Hit) => reply.cache.as_deref() == Some("hit"),
                (_, Class::Miss | Class::Pair) => reply.cache.is_some(),
            };
            if reply.body_hash != want || !cache_ok {
                bad += 1;
                if bad <= 10 {
                    out.problem(format!(
                        "{} {} ({:?}): body or X-Cache differs from the in-process output (x-cache {:?})",
                        inputs.targets[send.target].endpoint.path(),
                        inputs.targets[send.target].name,
                        send.class,
                        reply.cache
                    ));
                }
            }
        }
        // A never-seen spec is computed once: the single miss and the
        // first of a pair report `miss`, the other of a pair `hit`.
        let mut verdicts: BTreeMap<usize, Vec<&str>> = BTreeMap::new();
        for (send, reply) in phase.sends.iter().zip(&phase.replies) {
            if send.class != Class::Hit && reply.ok() {
                if let Some(c) = reply.cache.as_deref() {
                    verdicts.entry(send.target).or_default().push(c);
                }
            }
        }
        for (target, mut v) in verdicts {
            v.sort_unstable();
            if !(v == ["miss"] || v == ["hit", "miss"]) {
                out.problem(format!(
                    "{}: cache verdicts {v:?} for a never-seen spec",
                    inputs.targets[target].name
                ));
            }
        }
    }
    if bad > 10 {
        out.problem(format!("… {bad} mismatched responses in all"));
    }
}
