//! `svcbench` — the BQS service benchmark.
//!
//! ```text
//! svcbench --workload NAME --seed N --seconds S --trace 0|1
//!          --workers N --io-threads N --tolerance M --append-rate PTS_PER_S
//! ```
//!
//! Untraced (`--trace 0`), it starts the server as a child process,
//! drives the workload through real sockets, shuts the server down,
//! checks the spill tree against an in-process reference and prints
//! the end-to-end metrics. Traced (`--trace 1`), it runs the service
//! twice (metrics registry off, then on), replays the same frames
//! through every layer with spans, and prints the per-layer metrics.
//! The last stdout line is always one JSON result object. See
//! `README.md` beside this file for the workloads and metrics.

mod check;
mod drive;
mod inputs;
mod layers;
mod report;
mod serve;

use bqs_net::wire::{Reply, Request};
use bqs_net::BqsClient;
use check::{check_queries, check_tree, Reference, TreeCheck};
use drive::{closed_loop, open_loop, query_loop, read_back, Conn, IngestStats, QueryStats};
use inputs::{Plan, QueryMix, Workload, HOT_TRACK0};
use layers::Tracer;
use report::Exposition;
use report::{host_fingerprint, median, result_line, Metrics, Samples, Steal};
use serve::{parse, ServerProc, Sizing};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Client connections (and load threads) per run.
const CONNECTIONS: usize = 2;
/// Frames each closed-loop connection keeps in flight.
const WINDOW: usize = 4;
/// Rounds of an untraced run. Each round starts a fresh server, sends
/// the whole plan (a `ROUNDS`-th of `--seconds` of work), shuts the
/// server down and checks its tree; every metric is the median over
/// the rounds, so one slow server instance or host stall does not move
/// it. The traced run makes one round with the registry off and one
/// with it on.
const ROUNDS: usize = 12;
/// Read-back queries per round that open the engine's shard logs
/// before timing starts, as a share of the timed ones.
const READBACK_WARM_UP: f64 = 0.2;
/// Longest one round's read-back of an ingest workload's finished tree
/// may take before it stops short, so a run ends in time even on a
/// stalled host (it takes about a second on the tuning host).
const READBACK_LIMIT: Duration = Duration::from_secs(6);
/// Longest the query workload's set-up waits for the preload to spill.
const SPILL_WAIT: Duration = Duration::from_secs(30);

struct Opts {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    sizing: Sizing,
    append_rate: f64,
    /// Input size multiplier (self-tests run tiny inputs).
    scale: f64,
    /// Negative control: nudge one stored point before the check.
    corrupt_kept: bool,
    work_dir: PathBuf,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut workers, mut io_threads, mut tolerance, mut append_rate) = (None, None, None, None);
    let mut scale = 1.0;
    let mut corrupt_kept = false;
    let mut work_dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/work"));
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = Some(parse(flag, value()?)?),
            "--seconds" => seconds = Some(parse(flag, value()?)?),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--workers" => workers = Some(parse(flag, value()?)?),
            "--io-threads" => io_threads = Some(parse(flag, value()?)?),
            "--tolerance" => tolerance = Some(parse(flag, value()?)?),
            "--append-rate" => append_rate = Some(parse(flag, value()?)?),
            "--scale" => scale = parse(flag, value()?)?,
            "--corrupt-kept" => corrupt_kept = true,
            "--work-dir" => work_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let required = |flag: &str| format!("{flag} is required");
    let seconds: f64 = seconds.ok_or_else(|| required("--seconds"))?;
    let append_rate: f64 = append_rate.ok_or_else(|| required("--append-rate"))?;
    let positive = |v: f64| v.is_finite() && v > 0.0;
    if !(positive(seconds) && positive(append_rate) && positive(scale)) {
        return Err("--seconds, --append-rate and --scale must be positive".to_string());
    }
    Ok(Opts {
        workload: workload.ok_or_else(|| required("--workload"))?,
        seed: seed.ok_or_else(|| required("--seed"))?,
        seconds,
        trace: trace.ok_or_else(|| required("--trace"))?,
        sizing: Sizing {
            workers: workers.ok_or_else(|| required("--workers"))?,
            io_threads: io_threads.ok_or_else(|| required("--io-threads"))?,
            tolerance: tolerance.ok_or_else(|| required("--tolerance"))?,
        },
        append_rate,
        scale,
        corrupt_kept,
        work_dir,
    })
}

/// Everything one service run measured.
struct ServiceRun {
    setup_s: f64,
    /// Preload appends (query workload set-up), counted but not timed.
    preload: IngestStats,
    /// The timed appends.
    ingest: IngestStats,
    /// Timed queries (query workload) or the finished tree's read-back.
    queries: QueryStats,
    rss_growth_bytes: f64,
    /// The server's registry in the Prometheus text format (it carries
    /// histogram bucket counts), read once after the timed phase.
    exposition: Option<String>,
    check: TreeCheck,
    query_mismatches: u64,
}

impl ServiceRun {
    fn attempted(&self) -> u64 {
        self.preload.attempted
            + self.ingest.attempted
            + self.queries.records.len() as u64
            + self.queries.failed
            + self.check.tracks
    }

    fn failed(&self) -> u64 {
        self.preload.failed
            + self.ingest.failed
            + self.queries.failed
            + self.query_mismatches
            + self.check.failed
    }

    fn problems(&self) -> Vec<String> {
        let mut out = self.check.problems.clone();
        if self.query_mismatches > 0 {
            out.push(format!(
                "{} query answers differ from the verified tree",
                self.query_mismatches
            ));
        }
        out
    }

    /// The workload's headline rate: queries per second where queries
    /// are the timed load, appended points per second otherwise.
    fn primary_rate(&self, workload: Workload) -> f64 {
        match workload {
            Workload::QueryUnderIngest => self.queries.per_s(),
            _ => self.ingest.pts_per_s(),
        }
    }
}

/// What a set-up leaves: the server, its connections, the preload's
/// appends and the server's RSS when it had just started.
type Started = (ServerProc, Vec<Conn>, IngestStats, u64);

/// Starts a server, connects the load generator and (query workload)
/// sends the preload and the clock frame that ends it: the set-up
/// `setup_s` times.
fn set_up(plan: &Plan, opts: &Opts, tree: &Path, metrics: bool) -> Result<Started, String> {
    let server = ServerProc::spawn(opts.sizing, plan.evict_idle, tree, metrics)?;
    let rss_started = server.rss_bytes();
    let mut conns = (0..CONNECTIONS)
        .map(|_| Conn::connect(server.addr))
        .collect::<Result<Vec<_>, _>>()?;
    let mut preload = IngestStats::default();
    if plan.workload == Workload::QueryUnderIngest {
        preload = closed_loop(&mut conns, &plan.ingest, WINDOW, false)?;
        for frame in &plan.clock.frames {
            conns[0].send(frame)?;
            conns[0].recv()?;
        }
    }
    Ok((server, conns, preload, rss_started))
}

/// Waits until the server's idle-eviction tick has spilled every
/// preloaded track. The tick runs once a second from server start, so
/// this wait measures the tick's phase more than the program and is
/// left out of `setup_s`.
fn await_spill(conn: &mut Conn, plan: &Plan) -> Result<(), String> {
    let start = Instant::now();
    let probe = Request::Query(bqs_net::QuerySpec {
        track: None,
        from: plan.universe.t_min,
        to: plan.universe.t_max,
        bbox: None,
    });
    loop {
        match conn.call(&probe)? {
            Reply::QueryResult(r) if r.hot_points == 0 && !r.slices.is_empty() => break,
            Reply::QueryResult(_) if start.elapsed() < SPILL_WAIT => {
                std::thread::sleep(Duration::from_millis(10));
            }
            other => return Err(format!("preload did not spill: {other:?}")),
        }
    }
    println!(
        "spill_wait: {:.3} s after set-up (untimed)",
        start.elapsed().as_secs_f64()
    );
    Ok(())
}

/// What every round shares: the inputs, the options and the reference
/// output the rounds' trees are checked against.
struct Bench<'a> {
    plan: &'a Plan,
    opts: &'a Opts,
    reference: &'a Reference,
}

/// One round: a fresh server is set up, loaded, shut down and its
/// spill tree checked (and, for the ingest workloads, read back).
fn run_round(bench: &Bench, metrics: bool, tree: &Path) -> Result<ServiceRun, String> {
    let (plan, opts) = (bench.plan, bench.opts);
    let start = Instant::now();
    let (server, mut conns, preload, rss_started) = set_up(plan, opts, tree, metrics)?;
    let setup_s = start.elapsed().as_secs_f64();
    if plan.workload == Workload::QueryUnderIngest {
        await_spill(&mut conns[0], plan)?;
    }
    let steal_before = Steal::now();
    let (ingest, rss_after);
    let mut queries = None;
    if plan.workload == Workload::QueryUnderIngest {
        let stop = AtomicBool::new(false);
        let done = &stop;
        let querier = conns.pop().expect("two connections");
        let appender = conns.pop().expect("two connections");
        let (a, q) = std::thread::scope(|s| {
            let a = s.spawn(move || {
                let out = open_loop(appender, &plan.hot, plan.append_rate);
                done.store(true, Ordering::SeqCst); // ordering: seqcst stop flag
                out
            });
            let mut mix = QueryMix::new(opts.seed, &plan.universe);
            let q = s.spawn(move || query_loop(querier, &mut mix, done, HOT_TRACK0));
            (
                a.join().expect("appender panicked"),
                q.join().expect("querier panicked"),
            )
        });
        ingest = a?;
        queries = Some(q?);
        rss_after = server.rss_bytes();
    } else {
        ingest = closed_loop(&mut conns, &plan.ingest, WINDOW, plan.waves > 0)?;
        rss_after = server.rss_bytes();
    }
    let timed_steal = Steal::now().share_since(&steal_before);
    let exposition = if metrics {
        let mut client = BqsClient::connect(server.addr).map_err(|e| format!("metrics: {e}"))?;
        Some(client.metrics_prom().map_err(|e| format!("metrics: {e}"))?)
    } else {
        None
    };
    drop(conns);
    server.shutdown()?;
    let check = check_tree(tree, plan, bench.reference, opts.corrupt_kept)?;
    let mut read_back_steal = None;
    let (queries, static_below) = match queries {
        Some(q) => (q, HOT_TRACK0),
        None => {
            let mut mix = QueryMix::read_back(opts.seed, &plan.universe);
            let before = Steal::now();
            let count = plan.read_back_queries;
            let warm_up = (READBACK_WARM_UP * count as f64).ceil() as usize;
            let q = read_back(tree, &mut mix, warm_up, count, READBACK_LIMIT)?;
            read_back_steal = Some(Steal::now().share_since(&before));
            (q, u64::MAX)
        }
    };
    println!(
        "round: set-up {:.4} s, {:.0} pts/s, {:.1} queries/s, RSS +{:.1} MB, steal {:.1}% timed{}",
        setup_s,
        ingest.pts_per_s(),
        queries.per_s(),
        (rss_after as f64 - rss_started as f64) / 1e6,
        100.0 * timed_steal,
        read_back_steal.map_or(String::new(), |s| format!(", {:.1}% read-back", 100.0 * s))
    );
    let query_mismatches = check_queries(&queries.records, &check.kept, static_below);
    Ok(ServiceRun {
        setup_s,
        preload,
        ingest,
        queries,
        rss_growth_bytes: rss_after as f64 - rss_started as f64,
        exposition,
        check,
        query_mismatches,
    })
}

/// One round in a fresh `tree` directory, removed again afterwards.
fn round_in(bench: &Bench, metrics: bool, tree: &Path) -> Result<ServiceRun, String> {
    let run = run_round(bench, metrics, tree)?;
    std::fs::remove_dir_all(tree).map_err(|e| format!("remove {}: {e}", tree.display()))?;
    Ok(run)
}

/// Median over the rounds of one figure of each round.
fn round_median(runs: &[ServiceRun], figure: impl Fn(&ServiceRun) -> f64) -> f64 {
    median(&runs.iter().map(figure).collect::<Vec<_>>())
}

/// The end-to-end metrics: each the median of its value in every round.
/// A round's rate is over the whole of its timed phase and its
/// percentiles over every sample, so the server's eviction tick, its
/// spills and the churn wave barriers all count.
fn end_to_end(runs: &[ServiceRun], out: &mut Metrics) {
    let pct = |s: &Samples, q: f64| s.percentile_us(q).0;
    let ratio = |n: u64, d: u64| n as f64 / d.max(1) as f64;
    let m = |f: &dyn Fn(&ServiceRun) -> f64| round_median(runs, f);
    out.put("ingest_pts_per_s", m(&|r| r.ingest.pts_per_s()), "pts/s");
    out.put("append_p50_us", m(&|r| pct(&r.ingest.rtt, 0.5)), "us");
    out.put("append_p99_us", m(&|r| pct(&r.ingest.rtt, 0.99)), "us");
    out.put("query_per_s", m(&|r| r.queries.per_s()), "1/s");
    out.put("query_p50_us", m(&|r| pct(&r.queries.latency, 0.5)), "us");
    out.put("query_p99_us", m(&|r| pct(&r.queries.latency, 0.99)), "us");
    out.put(
        "kept_ratio",
        m(&|r| ratio(r.check.kept_points, r.check.input_points)),
        "ratio",
    );
    out.put(
        "disk_bytes_per_input_pt",
        m(&|r| ratio(r.check.tree_bytes, r.check.input_points)),
        "B",
    );
    out.put("rss_growth_mb", m(&|r| r.rss_growth_bytes / 1e6), "MB");
    out.put("setup_s", m(&|r| r.setup_s), "s");
}

/// Each round's value of a percentile, with its samples and the
/// samples beyond it.
fn percentile_line(
    name: &str,
    runs: &[ServiceRun],
    samples: fn(&ServiceRun) -> &Samples,
    q: f64,
) -> String {
    let rounds: Vec<String> = runs
        .iter()
        .map(|r| {
            let s = samples(r);
            let (v, beyond) = s.percentile_us(q);
            format!("{v:.1} us over {} ({beyond} beyond)", s.len())
        })
        .collect();
    format!("{name} per round: {}", rounds.join(", "))
}

/// The per-layer metrics read from the service run itself: the server's
/// registry, the load generator's own timings and the query reports.
fn service_layers(
    traced: &ServiceRun,
    plain: &ServiceRun,
    workload: Workload,
    workers: usize,
    out: &mut Metrics,
) {
    let m = Exposition::parse(traced.exposition.as_deref().unwrap_or(""));
    out.put(
        "server.append_us_p50",
        m.quantile("net_request_us_append", 0.5),
        "us",
    );
    out.put(
        "server.io_tick_us_p50",
        m.quantile("net_io_tick_us", 0.5),
        "us",
    );
    out.put(
        "server.ready_events_mean",
        m.mean("net_io_ready_events"),
        "count",
    );
    out.put(
        "server.outside_us",
        traced.ingest.rtt.mean_us() - m.mean("net_request_us_append"),
        "us",
    );
    let r = &traced.queries.records;
    let sum = |f: fn(&drive::QueryRecord) -> u64| r.iter().map(f).sum::<u64>() as f64;
    out.put(
        "engine.decoded_per_candidate",
        sum(|q| q.decoded_records) / sum(|q| q.candidate_records).max(1.0),
        "ratio",
    );
    out.put(
        "engine.shards_pruned_frac",
        sum(|q| q.shards_pruned) / (r.len() * workers).max(1) as f64,
        "ratio",
    );
    out.put(
        "engine.hot_frac",
        sum(|q| q.hot_points) / sum(|q| q.returned_points).max(1.0),
        "ratio",
    );
    out.put(
        "obs.trace_overhead",
        1.0 - traced.primary_rate(workload) / plain.primary_rate(workload).max(1e-9),
        "ratio",
    );
    out.put(
        "driver.lag_p99_us",
        traced.ingest.lag.percentile_us(0.99).0,
        "us",
    );
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
}

fn run_main(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(args)?;
    let name = opts.workload.name();
    println!("host: {}", host_fingerprint());
    println!(
        "sizing: {} connections={CONNECTIONS} window={WINDOW} append_rate={}",
        opts.sizing.describe(),
        opts.append_rate
    );
    let started = Instant::now();
    let plan = Plan::build(
        opts.workload,
        opts.seed,
        opts.seconds / ROUNDS as f64,
        opts.scale,
        CONNECTIONS,
        opts.append_rate,
    );
    println!(
        "inputs: {name} seed={} {} points in {} frames per round, encoded in {:.2} s",
        opts.seed,
        plan.input_points(),
        plan.all_frames().count(),
        started.elapsed().as_secs_f64()
    );
    let started = Instant::now();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let reference = Reference::build(&plan, opts.sizing.tolerance, threads)?;
    println!(
        "reference: {} tracks compressed in process in {:.2} s, worst deviation {:.3} m",
        reference.tracks(),
        started.elapsed().as_secs_f64(),
        reference.worst_deviation
    );
    let bench = Bench {
        plan: &plan,
        opts: &opts,
        reference: &reference,
    };
    let work = opts
        .work_dir
        .join(format!("{name}-s{}-t{}", opts.seed, u8::from(opts.trace)));
    fresh_dir(&work)?;
    let mut metrics = Metrics::default();
    let mut problems = Vec::new();
    let (attempted, mut failed);
    if opts.trace {
        let plain = round_in(&bench, false, &work.join("tree-plain"))?;
        // The replay below reads this round's tree.
        let traced = run_round(&bench, true, &work.join("tree"))?;
        let mut tracer = Tracer::new();
        layers::replay(
            &plan,
            &work,
            opts.seed,
            opts.sizing,
            &mut tracer,
            &mut metrics,
        )?;
        service_layers(
            &traced,
            &plain,
            opts.workload,
            opts.sizing.workers,
            &mut metrics,
        );
        let spans = work.join("spans.tsv");
        tracer
            .write(&spans)
            .map_err(|e| format!("write spans: {e}"))?;
        println!(
            "spans: {} written to {}",
            tracer.spans.len(),
            spans.display()
        );
        attempted = plain.attempted() + traced.attempted();
        failed = plain.failed() + traced.failed();
        if plain.check.digest != traced.check.digest {
            failed += 1;
            problems.push("traced and untraced runs kept different points".to_string());
        }
        println!("kept_digest: {:016x}", traced.check.digest);
        problems.extend(plain.problems());
        problems.extend(traced.problems());
    } else {
        let runs = (0..ROUNDS)
            .map(|_| round_in(&bench, false, &work.join("tree")))
            .collect::<Result<Vec<_>, _>>()?;
        end_to_end(&runs, &mut metrics);
        let append: fn(&ServiceRun) -> &Samples = |r| &r.ingest.rtt;
        let query: fn(&ServiceRun) -> &Samples = |r| &r.queries.latency;
        println!("{}", percentile_line("append_p50", &runs, append, 0.5));
        println!("{}", percentile_line("append_p99", &runs, append, 0.99));
        println!("{}", percentile_line("query_p50", &runs, query, 0.5));
        println!("{}", percentile_line("query_p99", &runs, query, 0.99));
        let first = &runs[0];
        println!(
            "check: {} tracks, {} of {} points kept, {} query answers re-derived per round",
            first.check.tracks,
            first.check.kept_points,
            first.check.input_points,
            first.queries.records.len()
        );
        println!("kept_digest: {:016x}", first.check.digest);
        attempted = runs.iter().map(ServiceRun::attempted).sum();
        failed = runs.iter().map(ServiceRun::failed).sum::<u64>();
        for (i, run) in runs.iter().enumerate() {
            problems.extend(run.problems());
            if run.check.digest != first.check.digest {
                failed += 1;
                problems.push(format!("round {i} kept different points than round 0"));
            }
        }
    }
    failed += reference.failed;
    problems.extend(reference.problems.iter().cloned());
    for p in problems.iter().take(10) {
        println!("problem: {p}");
    }
    for tree in ["tree", "tree-plain", "replay-log"] {
        let _ = std::fs::remove_dir_all(work.join(tree));
    }
    println!("{}", result_line(failed == 0, attempted, failed, &metrics));
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("serve") => serve::serve_main(&args[1..]),
        _ => run_main(&args),
    };
    if let Err(e) = result {
        eprintln!("svcbench: {e}");
        std::process::exit(1);
    }
}
