//! The traced run's layer ladder: the same seeded frames replayed
//! through each layer's public functions, every call timed as a span.
//!
//! Spans (id, parent, name, start, end) are kept in memory and written
//! out when the run ends; nothing inside the program is instrumented.

use crate::inputs::{decode_append, round_robin, FrameMeta, Plan, QueryKind, QueryMix};
use crate::report::{median, Exposition, Metrics};
use crate::serve::Sizing;
use bqs_core::stream::HasDecisionStats;
use bqs_core::{
    BqsConfig, DecisionStats, FastBqsCompressor, FleetConfig, FleetEngine, FleetMetrics,
    ParallelConfig, ParallelFleet, StreamCompressor,
};
use bqs_geo::{ColumnarBatch, Point2, Rect, TimedPoint};
use bqs_net::wire::{encode_append_columns, frame_to_vec};
use bqs_obs::MetricsRegistry;
use bqs_tlog::codec::{decode_to_vec, encode_to_vec};
use bqs_tlog::{LogConfig, QueryEngine, TimeRange, TrajectoryLog};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Most input points the replays use (a prefix of the run's frames).
const REPLAY_POINTS: u64 = 1_000_000;
/// The replayed fleets run an idle-eviction pass every this many
/// points, standing in for the server's once-a-second tick. A churn
/// wave is about 400 k points, so passes this close evict wave `w`
/// soon after wave `w + 2` starts, well inside the replayed prefix.
const EVICT_EVERY_POINTS: u64 = 100_000;
/// Queries the engine replay runs against the verified tree.
const ENGINE_QUERIES: usize = 300;

/// One timed call.
pub struct Span {
    pub parent: usize,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder. Span ids are indices; id 0 is the run.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        let mut t = Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 18),
        };
        t.begin("run", 0);
        t
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, parent: usize) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    fn durations_ns(&self, name: &str) -> impl Iterator<Item = u64> + '_ {
        let name = name.to_string();
        self.spans
            .iter()
            .filter(move |s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
    }

    pub fn total_ns(&self, name: &str) -> u64 {
        self.durations_ns(name).sum()
    }

    pub fn count(&self, name: &str) -> usize {
        self.durations_ns(name).count()
    }

    pub fn median_ns(&self, name: &str) -> f64 {
        let v: Vec<f64> = self.durations_ns(name).map(|d| d as f64).collect();
        median(&v)
    }

    /// Writes `id parent name start_ns end_ns` lines.
    pub fn write(&mut self, path: &Path) -> std::io::Result<()> {
        self.end(0);
        let mut out = String::with_capacity(self.spans.len() * 40);
        out.push_str("id\tparent\tname\tstart_ns\tend_ns\n");
        for (id, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{}",
                s.parent, s.name, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

/// One replayed frame, decoded.
struct Frame<'a> {
    meta: &'a FrameMeta,
    points: Vec<TimedPoint>,
}

/// The replay input: the run's frames in one arrival order (the
/// closed-loop connections interleaved, then the setup clock frame,
/// then the open-loop frames), cut at `REPLAY_POINTS`.
fn replay_frames(plan: &Plan) -> Vec<(&[u8], &FrameMeta)> {
    let mut out = round_robin(plan.ingest.iter().map(|s| s.pairs().collect()).collect());
    for seq in [&plan.clock, &plan.hot] {
        out.extend(seq.pairs());
    }
    let mut points = 0u64;
    out.into_iter()
        .take_while(|(_, m)| {
            points += u64::from(m.points);
            points <= REPLAY_POINTS.max(u64::from(m.points))
        })
        .collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Replays every layer and appends its metrics to `out`. `work` holds
/// the verified spill tree (`tree`) and receives the replayed log.
pub fn replay(
    plan: &Plan,
    work: &Path,
    seed: u64,
    sizing: Sizing,
    tracer: &mut Tracer,
    out: &mut Metrics,
) -> Result<(), String> {
    let config = BqsConfig::new(sizing.tolerance).map_err(|e| format!("tolerance: {e}"))?;
    let frames = wire_layer(plan, tracer, out)?;
    let kept = fbqs_layer(&frames, config, tracer, out);
    let fleet_config = FleetConfig {
        idle_timeout: if plan.evict_idle > 0.0 {
            plan.evict_idle
        } else {
            FleetConfig::default().idle_timeout
        },
        ..FleetConfig::default()
    };
    let evict = plan.evict_idle > 0.0;
    fleet_layer(&frames, config, fleet_config, evict, tracer, out);
    parallel_layer(
        &frames,
        config,
        fleet_config,
        evict,
        sizing.workers,
        tracer,
        out,
    )?;
    codec_layer(&kept, tracer, out)?;
    log_layer(&kept, &work.join("replay-log"), tracer, out)?;
    engine_layer(plan, &work.join("tree"), seed, tracer, out)
}

fn wire_layer<'a>(
    plan: &'a Plan,
    tracer: &mut Tracer,
    out: &mut Metrics,
) -> Result<Vec<Frame<'a>>, String> {
    let root = tracer.begin("wire", 0);
    let mut batch = ColumnarBatch::new();
    let mut frames = Vec::new();
    let mut bytes = 0u64;
    for (frame, meta) in replay_frames(plan) {
        let span = tracer.begin("wire.decode", root);
        decode_append(frame, &mut batch);
        tracer.end(span);
        let span = tracer.begin("wire.encode", root);
        let payload = encode_append_columns(meta.track, &batch).map_err(|e| e.to_string())?;
        let encoded = frame_to_vec(&payload);
        tracer.end(span);
        if encoded != frame {
            return Err(format!(
                "wire: re-encoding track {} changed its frame",
                meta.track
            ));
        }
        bytes += frame.len() as u64;
        frames.push(Frame {
            meta,
            points: batch.iter().collect(),
        });
    }
    tracer.end(root);
    let points: u64 = frames.iter().map(|f| f.points.len() as u64).sum();
    let n = frames.len() as f64;
    out.put(
        "wire.encode_ns_per_frame",
        ratio(tracer.total_ns("wire.encode") as f64, n),
        "ns",
    );
    out.put(
        "wire.decode_ns_per_frame",
        ratio(tracer.total_ns("wire.decode") as f64, n),
        "ns",
    );
    out.put("wire.bytes_per_pt", ratio(bytes as f64, points as f64), "B");
    Ok(frames)
}

/// The kernel alone: one compressor per track, looked up outside the
/// timed calls. Returns every track's kept points.
fn fbqs_layer(
    frames: &[Frame<'_>],
    config: BqsConfig,
    tracer: &mut Tracer,
    out: &mut Metrics,
) -> BTreeMap<u64, Vec<TimedPoint>> {
    let root = tracer.begin("fbqs", 0);
    let mut sessions: BTreeMap<u64, (FastBqsCompressor, Vec<TimedPoint>)> = BTreeMap::new();
    let mut points = 0u64;
    for f in frames {
        let (c, kept) = sessions
            .entry(f.meta.track)
            .or_insert_with(|| (FastBqsCompressor::new(config), Vec::new()));
        let span = tracer.begin("fbqs.push", root);
        for p in &f.points {
            c.push(*p, kept);
        }
        tracer.end(span);
        points += f.points.len() as u64;
    }
    let mut stats = DecisionStats::default();
    let mut kept_all = BTreeMap::new();
    for (track, (mut c, mut kept)) in sessions {
        let span = tracer.begin("fbqs.finish", root);
        c.finish(&mut kept);
        tracer.end(span);
        stats.merge(&c.decision_stats());
        kept_all.insert(track, kept);
    }
    tracer.end(root);
    let busy = tracer.total_ns("fbqs.push") + tracer.total_ns("fbqs.finish");
    let n = stats.points as f64;
    out.put("fbqs.ns_per_pt", ratio(busy as f64, points as f64), "ns");
    out.put(
        "fbqs.frac_by_bounds",
        ratio(stats.by_bounds as f64, n),
        "ratio",
    );
    out.put(
        "fbqs.frac_warmup_scan",
        ratio(stats.warmup_scans as f64, n),
        "ratio",
    );
    out.put(
        "fbqs.frac_aggressive_cut",
        ratio(stats.aggressive_cuts as f64, n),
        "ratio",
    );
    out.put("fbqs.frac_trivial", ratio(stats.trivial as f64, n), "ratio");
    out.put(
        "fbqs.pts_per_segment",
        ratio(n, stats.segments as f64),
        "pts",
    );
    kept_all
}

/// The serial `FleetEngine` over the same arrival order; its cost minus
/// the kernel's is the session bookkeeping.
fn fleet_layer(
    frames: &[Frame<'_>],
    config: BqsConfig,
    fleet_config: FleetConfig,
    evict: bool,
    tracer: &mut Tracer,
    out: &mut Metrics,
) {
    let root = tracer.begin("fleet", 0);
    let mut fleet = FleetEngine::new(fleet_config, move || FastBqsCompressor::new(config));
    // Buffer kept points per track, as the kernel replay and the
    // server's spill sink do, so the two costs compare.
    let mut sink: HashMap<u64, Vec<TimedPoint>> = HashMap::new();
    let (mut points, mut since_evict, mut peak) = (0u64, 0u64, 0usize);
    let mut latest = f64::NEG_INFINITY;
    for f in frames {
        let span = tracer.begin("fleet.push", root);
        for p in &f.points {
            fleet.push_tagged(f.meta.track, *p, &mut sink);
        }
        tracer.end(span);
        points += f.points.len() as u64;
        since_evict += f.points.len() as u64;
        latest = f.points.iter().fold(latest, |m, p| m.max(p.t));
        peak = peak.max(fleet.active_sessions());
        if evict && since_evict >= EVICT_EVERY_POINTS {
            since_evict = 0;
            let span = tracer.begin("fleet.evict", root);
            fleet.evict_idle(latest, &mut sink);
            tracer.end(span);
        }
    }
    let span = tracer.begin("fleet.finish_all", root);
    fleet.finish_all(&mut sink);
    tracer.end(span);
    tracer.end(root);
    let busy = tracer.total_ns("fleet.push")
        + tracer.total_ns("fleet.evict")
        + tracer.total_ns("fleet.finish_all");
    out.put("fleet.ns_per_pt", ratio(busy as f64, points as f64), "ns");
    out.put("fleet.sessions_peak", peak as f64, "count");
    out.put(
        "fleet.evicted_sessions",
        fleet.evicted_sessions() as f64,
        "count",
    );
}

/// The `ParallelFleet` fed one `submit_run` per frame, with the fleet's
/// own metrics registered so worker busy time and queue depth are read
/// from its `fleet_shard<k>_*` counters.
fn parallel_layer(
    frames: &[Frame<'_>],
    config: BqsConfig,
    fleet_config: FleetConfig,
    evict: bool,
    workers: usize,
    tracer: &mut Tracer,
    out: &mut Metrics,
) -> Result<(), String> {
    let registry = MetricsRegistry::new();
    let root = tracer.begin("parallel", 0);
    let mut fleet = ParallelFleet::with_metrics(
        ParallelConfig {
            workers,
            fleet: fleet_config,
            ..ParallelConfig::default()
        },
        move || FastBqsCompressor::new(config),
        |_| HashMap::<u64, Vec<TimedPoint>>::new(),
        Some(FleetMetrics::new(&registry, workers)),
    );
    let (mut points, mut since_evict) = (0u64, 0u64);
    let mut latest = f64::NEG_INFINITY;
    for f in frames {
        let run = f.points.clone();
        latest = run.iter().fold(latest, |m, p| m.max(p.t));
        let span = tracer.begin("parallel.submit_run", root);
        fleet.submit_run(f.meta.track, run);
        tracer.end(span);
        points += f.points.len() as u64;
        since_evict += f.points.len() as u64;
        if evict && since_evict >= EVICT_EVERY_POINTS {
            since_evict = 0;
            let span = tracer.begin("parallel.evict_idle", root);
            fleet.evict_idle(latest);
            tracer.end(span);
        }
    }
    let span = tracer.begin("parallel.join", root);
    let joined = fleet.join();
    tracer.end(span);
    tracer.end(root);
    let wall = (tracer.spans[root].end_ns - tracer.spans[root].start_ns) as f64;
    let m = Exposition::parse(&registry.render_prometheus());
    let get = |k: usize, what: &str| m.get(&format!("fleet_shard{k}_{what}"));
    let busy: Vec<f64> = (0..workers)
        .map(|k| {
            ratio(
                get(k, "busy_us_total"),
                get(k, "busy_us_total") + get(k, "idle_us_total"),
            )
        })
        .collect();
    let submitted: Vec<f64> = (0..workers)
        .map(|k| get(k, "submitted_points_total"))
        .collect();
    let mean_submitted = submitted.iter().sum::<f64>() / workers.max(1) as f64;
    out.put(
        "parallel.pts_per_s",
        ratio(points as f64, wall / 1e9),
        "pts/s",
    );
    out.put(
        "parallel.submit_blocked_frac",
        ratio(tracer.total_ns("parallel.submit_run") as f64, wall),
        "ratio",
    );
    out.put(
        "parallel.worker_busy_frac",
        busy.iter().sum::<f64>() / workers.max(1) as f64,
        "ratio",
    );
    out.put(
        "parallel.queue_depth_peak",
        (0..workers)
            .map(|k| get(k, "channel_depth_peak"))
            .fold(0.0, f64::max),
        "count",
    );
    out.put(
        "parallel.shard_skew",
        ratio(
            submitted.iter().copied().fold(0.0, f64::max),
            mean_submitted,
        ),
        "ratio",
    );
    if joined.is_ok() {
        Ok(())
    } else {
        Err("parallel: a worker shard failed".to_string())
    }
}

/// The storage codec over every track's kept points.
fn codec_layer(
    kept: &BTreeMap<u64, Vec<TimedPoint>>,
    tracer: &mut Tracer,
    out: &mut Metrics,
) -> Result<(), String> {
    let root = tracer.begin("codec", 0);
    let (mut points, mut bytes) = (0u64, 0u64);
    for track_points in kept.values() {
        let span = tracer.begin("codec.encode", root);
        let encoded = encode_to_vec(track_points).map_err(|e| format!("codec: {e}"))?;
        tracer.end(span);
        let span = tracer.begin("codec.decode", root);
        let decoded = decode_to_vec(&encoded).map_err(|e| format!("codec: {e}"))?;
        tracer.end(span);
        if decoded.len() != track_points.len() {
            return Err("codec: round trip changed the point count".to_string());
        }
        points += track_points.len() as u64;
        bytes += encoded.len() as u64;
    }
    tracer.end(root);
    let n = points as f64;
    out.put(
        "codec.encode_ns_per_pt",
        ratio(tracer.total_ns("codec.encode") as f64, n),
        "ns",
    );
    out.put(
        "codec.decode_ns_per_pt",
        ratio(tracer.total_ns("codec.decode") as f64, n),
        "ns",
    );
    out.put("codec.bytes_per_pt", ratio(bytes as f64, n), "B");
    Ok(())
}

/// One `TrajectoryLog::append` per closed session, as the spill does.
fn log_layer(
    kept: &BTreeMap<u64, Vec<TimedPoint>>,
    dir: &Path,
    tracer: &mut Tracer,
    out: &mut Metrics,
) -> Result<(), String> {
    let (mut log, _) =
        TrajectoryLog::open(dir, LogConfig::default()).map_err(|e| format!("log: {e}"))?;
    let root = tracer.begin("log", 0);
    let mut points = 0u64;
    for (track, track_points) in kept {
        let span = tracer.begin("log.append", root);
        log.append(*track, track_points)
            .map_err(|e| format!("log append: {e}"))?;
        tracer.end(span);
        points += track_points.len() as u64;
    }
    tracer.end(root);
    let fp = log.footprint();
    out.put(
        "log.append_us_per_session",
        ratio(
            tracer.total_ns("log.append") as f64 / 1e3,
            tracer.count("log.append") as f64,
        ),
        "us",
    );
    out.put(
        "log.bytes_per_kept_pt",
        ratio(fp.bytes as f64, points as f64),
        "B",
    );
    out.put(
        "log.segment_rotations",
        fp.segments.saturating_sub(1) as f64,
        "count",
    );
    Ok(())
}

/// The query engine alone over the verified spill tree, per query kind.
fn engine_layer(
    plan: &Plan,
    tree: &Path,
    seed: u64,
    tracer: &mut Tracer,
    out: &mut Metrics,
) -> Result<(), String> {
    let mut engine = QueryEngine::open(tree).map_err(|e| format!("engine: {e}"))?;
    let mut mix = QueryMix::new(seed, &plan.universe);
    let root = tracer.begin("engine", 0);
    for _ in 0..ENGINE_QUERIES {
        let (kind, spec) = mix.next_query();
        let name = match kind {
            QueryKind::Full => "engine.query.full",
            QueryKind::Narrow => "engine.query.narrow",
            QueryKind::Bbox => "engine.query.bbox",
        };
        let range = TimeRange::new(spec.from, spec.to);
        let span = tracer.begin(name, root);
        let result = match spec.bbox {
            Some([x0, y0, x1, y1]) => engine.query_bbox(
                spec.track,
                Rect::from_corners(Point2::new(x0, y0), Point2::new(x1, y1)),
                Some(range),
            ),
            None => engine.query_time_range(spec.track, range),
        };
        tracer.end(span);
        result.map_err(|e| format!("engine query: {e}"))?;
    }
    tracer.end(root);
    for kind in QueryKind::ALL {
        let name = format!("engine.query.{}", kind.name());
        out.put(
            format!("engine.query_us_p50.{}", kind.name()),
            tracer.median_ns(&name) / 1e3,
            "us",
        );
    }
    Ok(())
}
