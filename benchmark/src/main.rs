//! The LANTERN benchmark: boots the release `lantern-serve` binary as a
//! child process, drives it from one client process with seeded
//! `lantern-gen` traffic, checks every answer against an in-process
//! reference, and prints one JSON result line.
//!
//! ```text
//! lantern-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                   --serve-bin <path> --root <checkout>
//! ```
//!
//! `benchmark/run.py` builds both binaries and passes the last two
//! flags. Each run:
//!
//! 1. generates its inputs from the seed (`workload.rs`);
//! 2. boots the server and warms it up [`SETUPS`] times, timing each
//!    boot (`setup_s` is the median), and keeps the last one;
//! 3. runs rounds until [`ROUNDS`] of them are valid, each an open-loop
//!    segment at the workload's frozen rate (60% of `--seconds` over
//!    [`ROUNDS`] rounds; `p50_us` and `p99_us`, timed from when each
//!    request was due) followed by a closed-loop segment with `nproc`
//!    connections (the other 40%; `sat_docs_per_s`), so slow drifts of
//!    the host reach both alike. Requests in flight while the host
//!    stalled a CPU are left out of the latencies (`host.rs`). A round
//!    is valid when the host let the generator keep its schedule and
//!    stalled few of its requests; a run that gets no [`ROUNDS`] valid
//!    rounds in [`MAX_ROUNDS`] is invalid and reports nothing;
//! 4. reads the server's peak resident memory (`rss_mb`), stops it,
//!    and checks every body (`reference.rs`).
//!
//! With `--trace 1` it then replays the same inputs in-process with a
//! span around every layer call (`trace.rs`) and prints the per-layer
//! metrics instead of the end-to-end ones. The full record of a run
//! (host, seed, rate, sample counts, every metric) is written to
//! `benchmark/results/`, spans included.

mod client;
mod host;
mod procs;
mod reference;
mod stats;
mod trace;
mod workload;

use client::Outcome;
use lantern_obs::{
    parse_exposition, snapshot_from_samples, HistogramSnapshot, METRIC_REQUEST_SECONDS,
};
use lantern_text::json::JsonValue;
use procs::Server;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};
use workload::{Inputs, Op, Route, Workload};

/// Boots per run; `setup_s` reports their median.
const SETUPS: usize = 11;
/// Share of `--seconds` spent open loop; the rest is closed loop.
const OPEN_SHARE: f64 = 0.6;
/// Valid measurement rounds a run reports: each is an open-loop segment
/// followed by a closed-loop one. `sat_docs_per_s` is the median over
/// the rounds, so a short disturbance of the host moves one round, not
/// the result.
const ROUNDS: usize = 10;
/// Rounds a run may take to get [`ROUNDS`] valid ones. A run that does
/// not get them is invalid: it prints no result and exits with
/// [`INVALID_RUN`].
const MAX_ROUNDS: usize = 15;
/// Exit code of an invalid run.
const INVALID_RUN: i32 = 3;
/// A round in which more than this share of the open-loop requests was
/// in flight during a host stall (`host.rs`) is not valid: the host, not
/// the server, set its figures.
const MAX_DISTURBED: f64 = 0.2;
/// Nor is one in which the real-time generator sent half its requests
/// later than this: it could not run when it asked to. It normally sits
/// at 10–30 µs.
const MAX_LATENESS_P50_US: f64 = 250.0;
/// Allowed distance between the measured and the scheduled cache hit
/// ratio.
const HIT_RATIO_TOLERANCE: f64 = 0.05;
/// The workload whose requests are all single-document cache misses,
/// the case the layer-sum check below is defined for.
const LAYER_SUM_WORKLOAD: &str = "fresh_large";
/// On that workload, the per-request sum of the core, plan, text and
/// cache self times must come within this range of the server's own
/// p50: below it a layer is missing from the trace, above it the trace
/// counts something twice.
const LAYER_SUM_RANGE: (f64, f64) = (0.4, 1.5);
/// Documents the traced replay covers.
const TRACE_DOCS: usize = 3000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    serve_bin: PathBuf,
    root: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 20u64;
    let mut trace = false;
    let mut serve_bin = None;
    let mut root = PathBuf::from(".");
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::find(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value == "1",
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            "--root" => root = PathBuf::from(value),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.max(1),
        trace,
        serve_bin: serve_bin.ok_or("--serve-bin is required")?,
        root,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn us(ns: f64) -> f64 {
    ns / 1000.0
}

/// The host, toolchain and code a result was measured on.
fn host_record(root: &Path) -> BTreeMap<String, JsonValue> {
    let run = |cmd: &str, args: &[&str]| {
        Command::new(cmd)
            .args(args)
            .current_dir(root)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let commit = if root.join(".git").exists() {
        run("git", &["rev-parse", "HEAD"])
    } else {
        None
    };
    let mut host = BTreeMap::new();
    host.insert("nproc".to_string(), JsonValue::Number(nproc() as f64));
    host.insert(
        "rustc".to_string(),
        JsonValue::String(run("rustc", &["-V"]).unwrap_or_else(|| "unknown".into())),
    );
    host.insert(
        "commit".to_string(),
        JsonValue::String(commit.unwrap_or_else(|| "unknown (not a git checkout)".into())),
    );
    host.insert(
        "source_digest".to_string(),
        JsonValue::String(source_digest(root)),
    );
    host
}

/// A digest of every Rust source and manifest of the program, so a
/// result names the code it measured even outside a git checkout.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if matches!(
                path.extension().and_then(|e| e.to_str()),
                Some("rs" | "toml")
            ) {
                files.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("src"), &mut files);
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h = lantern_cache::Hasher128::new("lantern-benchmark/source/v1");
    for file in &files {
        if let Ok(bytes) = std::fs::read(file) {
            h.write_str(&file.strip_prefix(root).unwrap_or(file).to_string_lossy());
            h.write(&bytes);
        }
    }
    format!("{}", h.finish())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn get_json(addr: SocketAddr, path: &str) -> Result<JsonValue, String> {
    let (status, body) =
        client::fetch(addr, "GET", path, None).map_err(|e| format!("GET {path}: {e}"))?;
    if status != 200 {
        return Err(format!("GET {path} answered {status}"));
    }
    JsonValue::parse(&body).map_err(|e| format!("GET {path}: {e}"))
}

fn wait_healthy(addr: SocketAddr) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok((200, _)) = client::fetch(addr, "GET", "/healthz", None) {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err(format!("{addr} never became healthy"));
        }
        std::thread::sleep(Duration::from_micros(100));
    }
}

/// Counters and the request histogram of the server, read between
/// phases on a fresh connection.
struct Scrape {
    stats: JsonValue,
    hist: HistogramSnapshot,
}

fn scrape(addr: SocketAddr) -> Result<Scrape, String> {
    let stats = get_json(addr, "/stats")?;
    let (status, page) =
        client::fetch(addr, "GET", "/metrics", None).map_err(|e| format!("GET /metrics: {e}"))?;
    if status != 200 {
        return Err(format!("GET /metrics answered {status}"));
    }
    let exposition = parse_exposition(&page);
    let hist = snapshot_from_samples(&exposition.samples, METRIC_REQUEST_SECONDS, &[])
        .ok_or("no request histogram on /metrics")?;
    Ok(Scrape { stats, hist })
}

fn counter(stats: &JsonValue, path: &[&str]) -> f64 {
    let mut v = stats;
    for key in path {
        match v.get(key) {
            Some(next) => v = next,
            None => return 0.0,
        }
    }
    v.as_f64().unwrap_or(0.0)
}

/// The `/stats` counters the per-layer metrics and the cache check use.
const COUNTERS: [&[&str]; 5] = [
    &["cache", "hits"],
    &["cache", "misses"],
    &["cache", "doc_hits"],
    &["cache", "evictions"],
    &["shed_requests"],
];

/// What the server counted during the open-loop segments only.
#[derive(Default)]
struct OpenDeltas {
    counters: BTreeMap<String, f64>,
    hist: HistogramSnapshot,
}

impl OpenDeltas {
    fn add(&mut self, before: &Scrape, after: &Scrape) {
        for path in COUNTERS {
            *self.counters.entry(path.join(".")).or_default() +=
                counter(&after.stats, path) - counter(&before.stats, path);
        }
        self.hist.merge(&after.hist.delta_since(&before.hist));
    }

    fn get(&self, path: &str) -> f64 {
        self.counters.get(path).copied().unwrap_or(0.0)
    }
}

/// One open-loop segment followed by one closed-loop segment.
struct Round {
    /// The slice of `Inputs::open` sent.
    open: Range<usize>,
    open_out: Vec<Outcome>,
    /// Per open-loop request: in flight during a host stall.
    disturbed: Vec<bool>,
    /// Position in the cyclic saturation pool the segment started at.
    sat_start: usize,
    sat_run: client::ClosedRun,
}

impl Round {
    /// The closed-loop requests this round sent, in order.
    fn sat_ops(&self, pool: &[Op]) -> Vec<Op> {
        (self.sat_start..self.sat_start + self.sat_run.outcomes.len())
            .map(|i| pool[i % pool.len()].clone())
            .collect()
    }
}

/// Everything the network phases measured.
struct Network {
    setup_s: Vec<f64>,
    warmup: Vec<Outcome>,
    /// Every round run, valid or not, in order.
    rounds: Vec<Round>,
    figures: Vec<RoundFigures>,
    deltas: OpenDeltas,
    rss_mb: f64,
}

fn run_network(args: &Args, inputs: &Inputs, per_round: usize) -> Result<Network, String> {
    let w = args.workload;
    let conns = nproc();
    let watch = host::Watch::start().map_err(|e| format!("host watch: {e}"))?;
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for boot in 0..SETUPS {
        let started = Instant::now();
        let server = Server::start(&args.serve_bin).map_err(|e| format!("boot: {e}"))?;
        wait_healthy(server.addr)?;
        let warm = client::closed_loop(
            server.addr,
            &inputs.warmup,
            0,
            inputs.warmup.len(),
            conns,
            Duration::from_secs(60),
        )
        .map_err(|e| format!("warm-up: {e}"))?;
        setup_s.push(started.elapsed().as_secs_f64());
        if boot + 1 == SETUPS {
            kept = Some((server, warm.outcomes));
        }
    }
    let (server, warmup) = kept.expect("SETUPS > 0");
    let addr = server.addr;
    let sat_window =
        Duration::from_secs_f64(args.seconds as f64 * (1.0 - OPEN_SHARE) / ROUNDS as f64);
    let mut rounds = Vec::with_capacity(MAX_ROUNDS);
    let mut figures: Vec<RoundFigures> = Vec::with_capacity(MAX_ROUNDS);
    let mut deltas = OpenDeltas::default();
    let mut sat_next = 0;
    while figures.iter().filter(|f| f.valid()).count() < ROUNDS && rounds.len() < MAX_ROUNDS {
        let k = rounds.len();
        let open = k * per_round..(k + 1) * per_round;
        let before = scrape(addr)?;
        let t0 = Instant::now();
        let open_out = client::open_loop(addr, &inputs.open[open.clone()], w.rate, conns, t0)
            .map_err(|e| format!("open loop: {e}"))?;
        deltas.add(&before, &scrape(addr)?);
        // After the scrape, so a stall still under way when the last
        // answer arrived has ended and been seen.
        let stalls = watch.stalls_since(t0);
        let in_flight: Vec<(u64, u64)> = open_out.iter().map(|o| (o.due_ns, o.done_ns)).collect();
        let disturbed = stats::disturbed(&in_flight, &stalls);
        let sat_run = client::closed_loop(
            addr,
            &inputs.saturation,
            sat_next,
            usize::MAX,
            conns,
            sat_window,
        )
        .map_err(|e| format!("closed loop: {e}"))?;
        sat_next += sat_run.outcomes.len();
        let round = Round {
            open,
            open_out,
            disturbed,
            sat_start: sat_next - sat_run.outcomes.len(),
            sat_run,
        };
        figures.push(RoundFigures::of(inputs, &round));
        rounds.push(round);
    }
    let rss_mb = server
        .peak_rss_mb()
        .map_err(|e| format!("reading VmHWM: {e}"))?;
    drop(server);
    drop(watch);
    Ok(Network {
        setup_s,
        warmup,
        rounds,
        figures,
        deltas,
        rss_mb,
    })
}

/// Open-loop latency of the document requests the host did not
/// disturb, µs. A failed request counts, disturbed or not, as slower
/// than anything answered: it takes the whole segment.
fn open_latencies(ops: &[Op], round: &Round) -> Vec<f64> {
    let phase_ns = round.open_out.iter().map(|o| o.done_ns).max().unwrap_or(0);
    ops.iter()
        .zip(&round.open_out)
        .zip(&round.disturbed)
        .filter(|((op, _), _)| op.route != Route::CatalogApply)
        .filter_map(|((_, o), &disturbed)| {
            if !(200..300).contains(&o.status) {
                Some(us(phase_ns.max(o.latency_ns()) as f64))
            } else if disturbed {
                None
            } else {
                Some(us(o.latency_ns() as f64))
            }
        })
        .collect()
}

/// One round's figures.
struct RoundFigures {
    /// The latencies `p50_us` and `p99_us` pool over the valid rounds.
    latencies: Vec<f64>,
    /// Share of the document requests left out as disturbed.
    disturbed: f64,
    late_p50: f64,
    late_p99: f64,
    sat_docs_per_s: f64,
}

impl RoundFigures {
    fn of(inputs: &Inputs, round: &Round) -> RoundFigures {
        let ops = &inputs.open[round.open.clone()];
        let latencies = open_latencies(ops, round);
        let doc_requests = ops
            .iter()
            .filter(|op| op.route != Route::CatalogApply)
            .count();
        let lateness: Vec<f64> = round
            .open_out
            .iter()
            .map(|o| us(o.lateness_ns() as f64))
            .collect();
        let window = round.sat_run.window;
        let window_ns = window.as_nanos() as u64;
        let docs: usize = round
            .sat_ops(&inputs.saturation)
            .iter()
            .zip(&round.sat_run.outcomes)
            .filter(|(_, o)| (200..300).contains(&o.status) && o.done_ns <= window_ns)
            .map(|(op, _)| op.docs.len())
            .sum();
        RoundFigures {
            disturbed: 1.0 - latencies.len() as f64 / doc_requests.max(1) as f64,
            latencies,
            late_p50: stats::percentile(&lateness, 0.50),
            late_p99: stats::percentile(&lateness, 0.99),
            sat_docs_per_s: docs as f64 / window.as_secs_f64(),
        }
    }

    /// The host let the generator keep its schedule, and stalled a CPU
    /// during few of the round's requests. Both are judged by threads
    /// at real-time priority, which the server's load cannot delay, so
    /// a slower server never makes a round invalid.
    fn valid(&self) -> bool {
        self.late_p50 <= MAX_LATENESS_P50_US && self.disturbed <= MAX_DISTURBED
    }
}

fn run() -> Result<i32, String> {
    let args = parse_args()?;
    let w = args.workload;
    let started = Instant::now();
    let phase = |what: &str| eprintln!("[{:6.2} s] {what}", started.elapsed().as_secs_f64());
    if !client::prioritize_client() {
        return Err(
            "the load generator was refused SCHED_FIFO priority; without it the \
                    schedule, not the server, would set the latency"
                .into(),
        );
    }
    let per_round = (w.rate * args.seconds as f64 * OPEN_SHARE / ROUNDS as f64).ceil() as usize;
    let inputs = w.inputs(args.seed, per_round * MAX_ROUNDS, w.saturation_pool);
    eprintln!(
        "{}: seed {} — {} warm-up, {} open-loop per round at {}/s, a pool of {} closed-loop requests, {} distinct documents",
        w.name,
        args.seed,
        inputs.warmup.len(),
        per_round,
        w.rate,
        inputs.saturation.len(),
        inputs.docs.len()
    );

    phase("inputs generated");
    let net = run_network(&args, &inputs, per_round)?;
    phase("network phases done");
    for (k, f) in net.figures.iter().enumerate() {
        eprintln!(
            "  round {k}: p50 {:.1} us, p99 {:.1} us, {:.0} docs/s, lateness p50 {:.1} us p99 {:.1} us, {:.1}% disturbed{}",
            stats::percentile(&f.latencies, 0.50),
            stats::percentile(&f.latencies, 0.99),
            f.sat_docs_per_s,
            f.late_p50,
            f.late_p99,
            100.0 * f.disturbed,
            if f.valid() { "" } else { " (not valid)" }
        );
    }
    let valid: Vec<&RoundFigures> = net.figures.iter().filter(|f| f.valid()).collect();
    if valid.len() < ROUNDS {
        eprintln!(
            "invalid run: only {} of {} rounds were valid (the host stalled the CPUs or the \
             generator); the host, not the server, set the latency",
            valid.len(),
            net.figures.len()
        );
        return Ok(INVALID_RUN);
    }
    // Check every body, phases in the order they ran.
    let sat_ops: Vec<Vec<Op>> = net
        .rounds
        .iter()
        .map(|r| r.sat_ops(&inputs.saturation))
        .collect();
    let mut phases: Vec<(&[Op], &[Outcome])> = vec![(&inputs.warmup, &net.warmup)];
    for (round, sat) in net.rounds.iter().zip(&sat_ops) {
        phases.push((&inputs.open[round.open.clone()], &round.open_out));
        phases.push((sat, &round.sat_run.outcomes));
    }
    let verdict = reference::verify(&inputs, &phases);
    phase("bodies checked");

    // End-to-end figures over the valid rounds.
    let median_of = |f: fn(&RoundFigures) -> f64| {
        stats::median(&valid.iter().map(|r| f(r)).collect::<Vec<_>>())
    };
    let latencies: Vec<f64> = valid
        .iter()
        .flat_map(|f| f.latencies.iter().copied())
        .collect();
    let p50 = stats::percentile(&latencies, 0.50);
    let p99 = stats::percentile(&latencies, 0.99);
    let sat_docs_per_s = median_of(|r| r.sat_docs_per_s);
    let late_p50 = median_of(|r| r.late_p50);
    let late_p99 = median_of(|r| r.late_p99);
    let samples = latencies.len();
    let rounds_dropped = net.figures.len() - valid.len();
    let disturbed_ratio = median_of(|r| r.disturbed);
    let setup_s = stats::median(&net.setup_s);
    let fail_ratio = stats::fail_ratio(verdict.failures(), verdict.attempted);

    // The cache against its schedule, over the open-loop segments.
    let deltas = &net.deltas;
    let lookups = (deltas.get("cache.hits") + deltas.get("cache.misses")).max(1.0);
    let hit_ratio = deltas.get("cache.hits") / lookups;
    let mut schedule: Vec<(&[Op], bool)> = vec![(&inputs.warmup, false)];
    for (round, sat) in net.rounds.iter().zip(&sat_ops) {
        schedule.push((&inputs.open[round.open.clone()], true));
        schedule.push((sat, false));
    }
    let expected_hit_ratio = workload::expected_hit_ratio(&schedule);

    let mut problems = Vec::new();
    if verdict.failures() > 0 {
        problems.push(format!(
            "{} of {} requests failed ({} non-2xx or transport, {} wrong bodies)",
            verdict.failures(),
            verdict.attempted,
            verdict.failed,
            verdict.mismatched
        ));
    }
    if (hit_ratio - expected_hit_ratio).abs() > HIT_RATIO_TOLERANCE {
        problems.push(format!(
            "cache hit ratio {hit_ratio:.4} is not within {HIT_RATIO_TOLERANCE} of the scheduled {expected_hit_ratio:.4}"
        ));
    }

    let mut record = host_record(&args.root);
    let mut metrics = if args.trace {
        per_layer(&args, &inputs, &net, p50, &mut problems, &mut record)
    } else {
        vec![
            metric("p50_us", p50, "us"),
            metric("p99_us", p99, "us"),
            metric("sat_docs_per_s", sat_docs_per_s, "docs/s"),
            metric("setup_s", setup_s, "s"),
            metric("rss_mb", net.rss_mb, "MiB"),
        ]
    };
    if args.trace {
        metrics.extend([
            metric("fail_ratio", fail_ratio, "ratio"),
            metric("cache.hit_ratio", hit_ratio, "ratio"),
            metric("check.expected_hit_ratio", expected_hit_ratio, "ratio"),
            metric("gen.lateness_p50_us", late_p50, "us"),
            metric("gen.lateness_p99_us", late_p99, "us"),
            metric("gen.rounds_dropped", rounds_dropped as f64, "count"),
            metric("gen.disturbed_ratio", disturbed_ratio, "ratio"),
            metric("open_loop.samples", samples as f64, "count"),
        ]);
    }
    for m in &mut metrics {
        if !m.value.is_finite() {
            problems.push(format!("{} is not a finite number", m.name));
            m.value = 0.0;
        }
    }
    let correct = problems.is_empty();
    phase("done");

    // The full record, then a summary on stderr, then the result line.
    let mut run_info = BTreeMap::new();
    let mut put = |k: &str, v: JsonValue| {
        run_info.insert(k.to_string(), v);
    };
    put("workload", JsonValue::String(w.name.into()));
    put("seed", JsonValue::Number(args.seed as f64));
    put("seconds", JsonValue::Number(args.seconds as f64));
    put("trace", JsonValue::Bool(args.trace));
    put("offered_rate_per_s", JsonValue::Number(w.rate));
    put("open_loop_samples", JsonValue::Number(samples as f64));
    put("rounds", JsonValue::Number(net.figures.len() as f64));
    put("rounds_kept", JsonValue::Number(valid.len() as f64));
    put("disturbed_ratio", JsonValue::Number(disturbed_ratio));
    put(
        "saturation_samples",
        JsonValue::Number(
            net.rounds
                .iter()
                .map(|r| r.sat_run.outcomes.len())
                .sum::<usize>() as f64,
        ),
    );
    put("setup_samples", JsonValue::Number(net.setup_s.len() as f64));
    put("generator_lateness_p50_us", JsonValue::Number(late_p50));
    put("generator_lateness_p99_us", JsonValue::Number(late_p99));
    put("attempted", JsonValue::Number(verdict.attempted as f64));
    put("failed", JsonValue::Number(verdict.failed as f64));
    put("mismatched", JsonValue::Number(verdict.mismatched as f64));
    put(
        "problems",
        JsonValue::Array(
            problems
                .iter()
                .map(|p| JsonValue::String(p.clone()))
                .collect(),
        ),
    );
    put(
        "metrics",
        JsonValue::Object(
            metrics
                .iter()
                .map(|m| {
                    let mut v = BTreeMap::new();
                    v.insert("value".to_string(), JsonValue::Number(m.value));
                    v.insert("unit".to_string(), JsonValue::String(m.unit.into()));
                    (m.name.to_string(), JsonValue::Object(v))
                })
                .collect(),
        ),
    );
    record.extend(run_info);
    let results = args.root.join("benchmark").join("results");
    let stem = format!("{}-seed{}-trace{}", w.name, args.seed, u8::from(args.trace));
    std::fs::create_dir_all(&results)
        .map_err(|e| format!("creating {}: {e}", results.display()))?;
    std::fs::write(
        results.join(format!("{stem}.json")),
        JsonValue::Object(record).to_string_pretty(),
    )
    .map_err(|e| format!("writing the run record: {e}"))?;

    let mut summary = String::new();
    for m in &metrics {
        let _ = writeln!(summary, "  {:<28} {:>14.3} {}", m.name, m.value, m.unit);
    }
    eprint!(
        "{}: {} open-loop samples from {} of {} rounds ({:.1}% disturbed; generator lateness p50 {:.1} us, p99 {:.1} us), {} closed-loop\n{}",
        w.name,
        samples,
        valid.len(),
        net.figures.len(),
        100.0 * disturbed_ratio,
        late_p50,
        late_p99,
        net.rounds.iter().map(|r| r.sat_run.outcomes.len()).sum::<usize>(),
        summary
    );
    for p in &problems {
        eprintln!("CHECK FAILED: {p}");
    }

    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        verdict.attempted.max(1),
        verdict.failures()
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    line.push_str("}}");
    println!("{line}");
    Ok(0)
}

/// The traced run's figures: server-side numbers from the scrapes
/// around the open-loop segments, then the in-process replay.
///
/// A `_us` figure named after a span is that span's time summed over the
/// replay and divided by the requests replayed, so a layer a workload rarely reaches reads near zero;
/// `plan.parse_us` and `serve.handle_self_us` are self times. Figures
/// from the microbenchmarks (`cache.hit/miss`, `pool.*`, `core.*16`,
/// `cluster.shard_key/split`) are medians per call.
fn per_layer(
    args: &Args,
    inputs: &Inputs,
    net: &Network,
    client_p50_us: f64,
    problems: &mut Vec<String>,
    record: &mut BTreeMap<String, JsonValue>,
) -> Vec<Metric> {
    let w = args.workload;
    let deltas = &net.deltas;
    let server_p50 = us(stats::hist_percentile(&deltas.hist, 0.50));
    let server_p99 = us(stats::hist_percentile(&deltas.hist, 0.99));
    let lookups = (deltas.get("cache.hits") + deltas.get("cache.misses")).max(1.0);
    let doc_hit_ratio = deltas.get("cache.doc_hits") / lookups;
    let evictions = deltas.get("cache.evictions");
    let sent: usize = net.rounds.iter().map(|r| r.open.len()).sum();
    let shed_ratio = deltas.get("shed_requests") / sent.max(1) as f64;

    // The ops the replay covers: warm-up first, as the server saw them.
    let mut replayed: Vec<Op> = Vec::new();
    let mut docs = 0;
    for op in inputs.warmup.iter().chain(&inputs.open) {
        if docs >= TRACE_DOCS {
            break;
        }
        docs += op.docs.len();
        replayed.push(op.clone());
    }
    // One discarded pass first, so neither timed pass pays for warming
    // the allocator and the code paths.
    trace::replay_ops(inputs, &replayed, false);
    let untraced = trace::replay_ops(inputs, &replayed, false);
    let traced = trace::replay_ops(inputs, &replayed, true);
    let spans = trace::take();
    // The replay must answer what the reference says, like the server.
    let synthetic: Vec<Outcome> = traced
        .bodies
        .iter()
        .enumerate()
        .map(|(i, body)| Outcome {
            due_ns: 2 * i as u64,
            sent_ns: 2 * i as u64,
            done_ns: 2 * i as u64 + 1,
            ..Outcome::answer(200, body, true)
        })
        .collect();
    let replay_verdict = reference::verify(inputs, &[(&replayed, &synthetic)]);
    if replay_verdict.failures() > 0 {
        problems.push(format!(
            "the traced replay answered {} of {} requests differently from the reference",
            replay_verdict.failures(),
            replay_verdict.attempted
        ));
    }
    trace::reset(true);
    trace::microbench(inputs);
    let micro = trace::take();
    trace::reset(false);

    let results = args.root.join("benchmark").join("results");
    let stem = format!("{}-seed{}", w.name, args.seed);
    for (suffix, log) in [("replay", &spans), ("micro", &micro)] {
        let path = results.join(format!("{stem}.{suffix}.jsonl"));
        let _ = std::fs::create_dir_all(&results);
        if let Err(e) = trace::write_spans(&path, log) {
            problems.push(format!("writing {}: {e}", path.display()));
        }
    }

    let replay = trace::summarize(&spans);
    let micro = trace::summarize(&micro);
    let requests = traced.request_ns.len().max(1) as f64;
    let per_request =
        |name: &str| us(replay.durations.get(name).map_or(0.0, |v| v.iter().sum()) / requests);
    let self_per_request =
        |name: &str| us(replay.self_times.get(name).map_or(0.0, |v| v.iter().sum()) / requests);
    let micro_median = |name: &str| us(micro.durations.get(name).map_or(0.0, |v| stats::median(v)));

    // Sum of the core/plan/text/cache self times of each request.
    let layer_sums: Vec<f64> = replay
        .per_request_self
        .values()
        .map(|names| {
            names
                .iter()
                .filter(|(name, _)| {
                    ["core.", "plan.", "text.", "cache."]
                        .iter()
                        .any(|p| name.starts_with(p))
                })
                .map(|(_, ns)| *ns as f64)
                .sum::<f64>()
        })
        .filter(|ns| *ns > 0.0)
        .map(us)
        .collect();
    let layer_sum = stats::median(&layer_sums);
    let layer_ratio = if server_p50 > 0.0 {
        layer_sum / server_p50
    } else {
        0.0
    };
    if w.name == LAYER_SUM_WORKLOAD
        && !(LAYER_SUM_RANGE.0..=LAYER_SUM_RANGE.1).contains(&layer_ratio)
    {
        problems.push(format!(
            "core+plan+text+cache self time per request ({layer_sum:.1} us) is {layer_ratio:.2}x the server p50 \
             ({server_p50:.1} us), outside {LAYER_SUM_RANGE:?}: a layer is missing from the trace or counted twice"
        ));
    }
    let untraced_us = us(stats::median(
        &untraced
            .request_ns
            .iter()
            .map(|&n| n as f64)
            .collect::<Vec<_>>(),
    ));
    let traced_us = us(stats::median(
        &traced
            .request_ns
            .iter()
            .map(|&n| n as f64)
            .collect::<Vec<_>>(),
    ));
    let batch16 = micro_median("core.batch16");
    let seq16 = micro_median("core.seq16");

    record.insert("traced_requests".to_string(), JsonValue::Number(requests));
    vec![
        metric("text.json_parse_us", per_request("text.json_parse"), "us"),
        metric("text.xml_parse_us", per_request("text.xml_parse"), "us"),
        metric("plan.parse_us", self_per_request("plan.parse"), "us"),
        metric("core.narrate_us", per_request("core.narrate"), "us"),
        metric("core.lot_us", per_request("core.lot"), "us"),
        metric("core.render_us", per_request("core.render"), "us"),
        metric("core.wire_us", per_request("core.wire"), "us"),
        metric("cache.doc_digest_us", per_request("cache.doc_digest"), "us"),
        metric(
            "cache.fingerprint_us",
            per_request("cache.fingerprint"),
            "us",
        ),
        metric("cache.hit_us", micro_median("cache.hit"), "us"),
        metric("cache.miss_us", micro_median("cache.miss"), "us"),
        metric("cache.doc_hit_ratio", doc_hit_ratio, "ratio"),
        metric("cache.evictions", evictions, "count"),
        metric("serve.frame_us", per_request("serve.frame"), "us"),
        metric("serve.encode_us", per_request("serve.encode"), "us"),
        metric(
            "serve.handle_self_us",
            self_per_request("serve.handle"),
            "us",
        ),
        metric("obs.trace_us", per_request("obs.trace"), "us"),
        metric("serve.server_p50_us", server_p50, "us"),
        metric("serve.server_p99_us", server_p99, "us"),
        metric("serve.gap_p50_us", client_p50_us - server_p50, "us"),
        metric("serve.shed_ratio", shed_ratio, "ratio"),
        metric("pool.apply_us", micro_median("pool.apply"), "us"),
        metric("pool.snapshot_us", micro_median("pool.snapshot"), "us"),
        metric("core.batch16_us", batch16, "us"),
        metric("core.seq16_us", seq16, "us"),
        metric(
            "core.batch_speedup",
            if batch16 > 0.0 { seq16 / batch16 } else { 0.0 },
            "x",
        ),
        metric(
            "cluster.shard_key_us",
            micro_median("cluster.shard_key"),
            "us",
        ),
        metric("cluster.split_us", micro_median("cluster.split"), "us"),
        metric("trace.untraced_us", untraced_us, "us"),
        metric("trace.traced_us", traced_us, "us"),
        metric(
            "trace.overhead_ratio",
            if untraced_us > 0.0 {
                traced_us / untraced_us
            } else {
                0.0
            },
            "ratio",
        ),
        metric("check.layer_sum_us", layer_sum, "us"),
        metric("check.layer_sum_ratio", layer_ratio, "ratio"),
    ]
}

fn main() {
    match run() {
        Ok(code) => std::process::exit(code),
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(1);
        }
    }
}
