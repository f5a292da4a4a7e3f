//! Seeded workload inputs, encoded into wire frames before any timing.
//!
//! Every run of a workload with the same seed, seconds and scale sends
//! exactly the same frames in the same per-connection order, so the
//! server's kept output is a pure function of those arguments.

use bqs_geo::{ColumnarBatch, Point2, Rect, TimedPoint};
use bqs_net::session_trace;
use bqs_net::wire::{
    decode_append_columns, decode_frame, encode_append_columns, frame_to_vec, QuerySpec,
};
use bqs_sim::{bat_dataset, vehicle_dataset};

/// Points per `Append` frame.
pub const FRAME_POINTS: usize = 64;

/// Sessions of the synthetic ingest workload.
const SYNTHETIC_SESSIONS: u64 = 64;

/// Work per second of run length each ingest workload is sized for: a
/// run lasts about `--seconds` on the host the benchmark was tuned on.
/// Churn is sized in sessions, so every seed creates as many per-track
/// entries (and grows the server's maps and vectors by the same steps).
const SYNTHETIC_PTS_PER_S: f64 = 1.25e6;
const CHURN_SESSIONS_PER_S: f64 = 14_000.0;
/// Whole-track queries per second of run length in the read-back of an
/// ingest workload's finished tree. A fixed count, not a time limit,
/// so a slow run and a fast run time the same reads in the same order.
const SYNTHETIC_READ_BACK_PER_S: f64 = 1_000.0;
const CHURN_READ_BACK_PER_S: f64 = 2_000.0;

/// Churn waves: each session lasts at most `CHURN_MAX_SPAN` stream
/// seconds and wave `w` starts at `w * CHURN_PERIOD`. With the idle
/// timeout `CHURN_EVICT_IDLE`, sending wave `w` cannot evict a session
/// of wave `w - 1` (`PERIOD + MAX_SPAN <= EVICT_IDLE`) but sending wave
/// `w + 1` evicts every session of wave `w - 1`
/// (`2 * PERIOD - MAX_SPAN > EVICT_IDLE`).
const CHURN_MAX_SPAN: f64 = 1_500.0;
const CHURN_PERIOD: f64 = 4_000.0;
/// Sessions per churn wave: half a second of work on the tuning host,
/// so every eviction tick spills about as many sessions as the last.
const CHURN_WAVE_SESSIONS: usize = 7_000;
const CHURN_EVICT_IDLE: f64 = 6_000.0;
const _: () = assert!(CHURN_PERIOD + CHURN_MAX_SPAN <= CHURN_EVICT_IDLE);
const _: () = assert!(2.0 * CHURN_PERIOD - CHURN_MAX_SPAN > CHURN_EVICT_IDLE);
/// Sampling gaps longer than this end a churn session.
const CHURN_MAX_GAP: f64 = 600.0;

/// Query workload: preloaded tracks `0..PRELOAD_TRACKS` of
/// `PRELOAD_POINTS` points span `[0, 3990]` s; the idle timeout keeps
/// them all live while the preload streams and the clock point at
/// `CLOCK_T` evicts them all. Hot tracks start at `HOT_T0`.
///
/// Each of the `HOT_TRACKS` hot streams starts a new session (a fresh
/// track id) every `HOT_SESSION_FRAMES` frames, so the live set — and
/// with it every query's fleet snapshot — stays small while ended
/// sessions are evicted and spilled, and the server's retained state
/// grows by the same number of sessions on every seed.
const PRELOAD_TRACKS: u64 = 1024;
const PRELOAD_POINTS: usize = 400;
const QUERY_EVICT_IDLE: f64 = 4_000.0;
const CLOCK_TRACK: u64 = 2_000_000;
const CLOCK_T: f64 = 9_000.0;
pub const HOT_TRACK0: u64 = 1_000_000;
const HOT_TRACKS: u64 = 16;
const HOT_T0: f64 = 10_000.0;
const HOT_SESSION_FRAMES: usize = 10;

/// Length of a narrow-window query, stream seconds.
const NARROW_WINDOW: f64 = 600.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    IngestSynthetic,
    IngestChurnField,
    QueryUnderIngest,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "ingest_synthetic" => Some(Workload::IngestSynthetic),
            "ingest_churn_field" => Some(Workload::IngestChurnField),
            "query_under_ingest" => Some(Workload::QueryUnderIngest),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::IngestSynthetic => "ingest_synthetic",
            Workload::IngestChurnField => "ingest_churn_field",
            Workload::QueryUnderIngest => "query_under_ingest",
        }
    }
}

/// A splitmix64 stream: the benchmark's own seeded choices.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// What one frame carries.
#[derive(Debug, Clone, Copy)]
pub struct FrameMeta {
    pub track: u64,
    pub points: u32,
    /// Churn wave of the frame's session (0 elsewhere).
    pub wave: u32,
}

/// One connection's frames in send order.
#[derive(Default)]
pub struct FrameSeq {
    pub frames: Vec<Vec<u8>>,
    pub meta: Vec<FrameMeta>,
}

impl FrameSeq {
    pub fn push(&mut self, track: u64, points: &[TimedPoint], wave: u32) {
        let payload = encode_append_columns(track, &ColumnarBatch::from_points(points))
            .expect("generated traces are time-ordered");
        self.frames.push(frame_to_vec(&payload));
        self.meta.push(FrameMeta {
            track,
            points: points.len() as u32,
            wave,
        });
    }

    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// The frames with their metadata, in send order.
    pub fn pairs(&self) -> impl Iterator<Item = (&[u8], &FrameMeta)> {
        self.frames.iter().map(Vec::as_slice).zip(&self.meta)
    }
}

/// Decodes a whole `Append` frame into `batch` (cleared first) and
/// returns its track.
pub fn decode_append(frame: &[u8], batch: &mut ColumnarBatch) -> u64 {
    let (payload, _) = decode_frame(frame).expect("frames are encoded by this benchmark");
    batch.clear();
    decode_append_columns(&payload, batch)
        .expect("frames are encoded by this benchmark")
        .expect("every generated frame is an Append")
}

/// The tracks, time span and area that queries draw from.
#[derive(Debug, Clone)]
pub struct Universe {
    pub tracks: Vec<u64>,
    pub t_min: f64,
    pub t_max: f64,
    pub area: Rect,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    Full,
    Narrow,
    Bbox,
}

impl QueryKind {
    pub const ALL: [QueryKind; 3] = [QueryKind::Full, QueryKind::Narrow, QueryKind::Bbox];

    pub fn name(self) -> &'static str {
        match self {
            QueryKind::Full => "full",
            QueryKind::Narrow => "narrow",
            QueryKind::Bbox => "bbox",
        }
    }
}

/// The seeded query mix: single-track full range, single-track narrow
/// window and all-track bounding box, in equal shares — or, for a
/// read-back, single-track full range only.
pub struct QueryMix {
    rng: Rng,
    universe: Universe,
    read_back: bool,
}

impl QueryMix {
    pub fn new(seed: u64, universe: &Universe) -> QueryMix {
        QueryMix {
            rng: Rng::new(seed ^ 0x0123_4567),
            universe: universe.clone(),
            read_back: false,
        }
    }

    /// Reads back whole tracks, one per query.
    pub fn read_back(seed: u64, universe: &Universe) -> QueryMix {
        QueryMix {
            read_back: true,
            ..QueryMix::new(seed, universe)
        }
    }

    pub fn next_query(&mut self) -> (QueryKind, QuerySpec) {
        let u = &self.universe;
        let track = u.tracks[self.rng.below(u.tracks.len() as u64) as usize];
        let kind = if self.read_back { 0 } else { self.rng.below(3) };
        match kind {
            0 => (
                QueryKind::Full,
                QuerySpec {
                    track: Some(track),
                    from: f64::NEG_INFINITY,
                    to: f64::INFINITY,
                    bbox: None,
                },
            ),
            1 => {
                let room = (u.t_max - u.t_min - NARROW_WINDOW).max(0.0);
                let from = u.t_min + self.rng.unit() * room;
                (
                    QueryKind::Narrow,
                    QuerySpec {
                        track: Some(track),
                        from,
                        to: from + NARROW_WINDOW,
                        bbox: None,
                    },
                )
            }
            _ => {
                let (w, h) = (u.area.max.x - u.area.min.x, u.area.max.y - u.area.min.y);
                let side = 0.1 * w.max(h);
                let x0 = u.area.min.x + self.rng.unit() * (w - side).max(0.0);
                let y0 = u.area.min.y + self.rng.unit() * (h - side).max(0.0);
                (
                    QueryKind::Bbox,
                    QuerySpec {
                        track: None,
                        from: f64::NEG_INFINITY,
                        to: f64::INFINITY,
                        bbox: Some([x0, y0, x0 + side, y0 + side]),
                    },
                )
            }
        }
    }
}

/// Everything one workload run sends, encoded.
pub struct Plan {
    pub workload: Workload,
    /// Closed-loop connections: the timed load of the ingest workloads,
    /// the setup preload of `query_under_ingest`.
    pub ingest: Vec<FrameSeq>,
    /// Setup frame that advances the stream clock past the preload.
    pub clock: FrameSeq,
    /// Open-loop frames of `query_under_ingest`'s timed phase.
    pub hot: FrameSeq,
    /// Open-loop `Append` rate, points per second.
    pub append_rate: f64,
    /// Server idle timeout in stream seconds (0 = never evict).
    pub evict_idle: f64,
    /// Churn waves in the closed loop (0 = no wave barrier).
    pub waves: u32,
    /// Whole-track queries the read-back runs.
    pub read_back_queries: usize,
    /// What queries are drawn from; every listed track is immutable
    /// while the queries run.
    pub universe: Universe,
}

impl Plan {
    pub fn build(
        workload: Workload,
        seed: u64,
        seconds: f64,
        scale: f64,
        connections: usize,
        append_rate: f64,
    ) -> Plan {
        match workload {
            Workload::IngestSynthetic => synthetic(seed, seconds * scale, connections),
            Workload::IngestChurnField => churn(seed, seconds * scale, connections),
            Workload::QueryUnderIngest => query(seed, seconds * scale, connections, append_rate),
        }
    }

    /// Every frame the server receives, in no particular order.
    pub fn all_frames(&self) -> impl Iterator<Item = (&[u8], &FrameMeta)> {
        self.ingest
            .iter()
            .chain([&self.clock, &self.hot])
            .flat_map(FrameSeq::pairs)
    }

    pub fn input_points(&self) -> u64 {
        self.all_frames().map(|(_, m)| u64::from(m.points)).sum()
    }
}

/// `n` rounded up to a whole number of frames (at least one).
fn whole_frames(n: f64) -> usize {
    let frames = (n / FRAME_POINTS as f64).ceil().max(1.0) as usize;
    frames * FRAME_POINTS
}

/// Round-robin over `lists`: item 0 of every list, then item 1 of
/// every list, and so on.
pub fn round_robin<T>(lists: Vec<Vec<T>>) -> Vec<T> {
    let total = lists.iter().map(Vec::len).sum();
    let mut iters: Vec<_> = lists.into_iter().map(Vec::into_iter).collect();
    let mut out = Vec::with_capacity(total);
    while out.len() < total {
        out.extend(iters.iter_mut().filter_map(Iterator::next));
    }
    out
}

/// One track's points as `(frame, meta)` pairs of `FRAME_POINTS` points.
fn track_frames(track: u64, points: &[TimedPoint]) -> Vec<(Vec<u8>, FrameMeta)> {
    let mut one = FrameSeq::default();
    for chunk in points.chunks(FRAME_POINTS) {
        one.push(track, chunk, 0);
    }
    one.frames.into_iter().zip(one.meta).collect()
}

/// The tracks' frames interleaved round-robin, track `t` on connection
/// `t % connections`.
fn by_connection(tracks: Vec<Vec<(Vec<u8>, FrameMeta)>>, connections: usize) -> Vec<FrameSeq> {
    let mut seqs: Vec<FrameSeq> = (0..connections).map(|_| FrameSeq::default()).collect();
    for (frame, meta) in round_robin(tracks) {
        let seq = &mut seqs[(meta.track % connections as u64) as usize];
        seq.frames.push(frame);
        seq.meta.push(meta);
    }
    seqs
}

fn read_back_queries(per_s: f64, seconds: f64) -> usize {
    (per_s * seconds).ceil().max(1.0) as usize
}

fn bounding(points: impl Iterator<Item = Point2>) -> Rect {
    Rect::bounding(points).unwrap_or_else(|| Rect::from_corners(Point2::ORIGIN, Point2::ORIGIN))
}

fn synthetic(seed: u64, seconds: f64, connections: usize) -> Plan {
    let per_track = whole_frames(SYNTHETIC_PTS_PER_S * seconds / SYNTHETIC_SESSIONS as f64);
    let mut area: Option<Rect> = None;
    // Encode track by track, holding one trace at a time.
    let encoded = (0..SYNTHETIC_SESSIONS)
        .map(|track| {
            let points = session_trace(seed, track, per_track);
            let b = bounding(points.iter().map(|p| p.pos));
            area = Some(area.map_or(b, |a| a.union(&b)));
            track_frames(track, &points)
        })
        .collect();
    Plan {
        workload: Workload::IngestSynthetic,
        ingest: by_connection(encoded, connections),
        clock: FrameSeq::default(),
        hot: FrameSeq::default(),
        append_rate: 0.0,
        evict_idle: 0.0,
        waves: 0,
        read_back_queries: read_back_queries(SYNTHETIC_READ_BACK_PER_S, seconds),
        universe: Universe {
            tracks: (0..SYNTHETIC_SESSIONS).collect(),
            t_min: 0.0,
            t_max: (per_track - 1) as f64 * 10.0,
            area: area.expect("at least one track"),
        },
    }
}

/// Short sessions cut from the bat and vehicle field traces, each
/// rebased to start at t = 0: seeded lengths of 8–128 points, cut early
/// at sampling gaps over `CHURN_MAX_GAP` and at `CHURN_MAX_SPAN`.
pub fn churn_sessions(seed: u64) -> Vec<Vec<TimedPoint>> {
    let mut rng = Rng::new(seed ^ 0xc4e4);
    let mut sessions = Vec::new();
    for trace in [bat_dataset(seed), vehicle_dataset(seed)] {
        let p = &trace.points;
        let mut i = 0;
        while i < p.len() {
            let want = 8 + rng.below(121) as usize;
            let end = (i + want).min(p.len());
            let mut j = i + 1;
            while j < end
                && p[j].t - p[j - 1].t <= CHURN_MAX_GAP
                && p[j].t - p[i].t <= CHURN_MAX_SPAN
            {
                j += 1;
            }
            let t0 = p[i].t;
            sessions.push(
                p[i..j]
                    .iter()
                    .map(|q| TimedPoint::at(q.pos, q.t - t0))
                    .collect(),
            );
            i = j;
        }
    }
    sessions
}

fn churn(seed: u64, seconds: f64, connections: usize) -> Plan {
    let sessions = churn_sessions(seed);
    let budget = (CHURN_SESSIONS_PER_S * seconds).max(1.0) as usize;
    let mut seqs: Vec<FrameSeq> = (0..connections).map(|_| FrameSeq::default()).collect();
    let tracks: Vec<u64> = (0..budget as u64).collect();
    // Session `track` of the run is field session `track % len`, in
    // wave `track / CHURN_WAVE_SESSIONS`.
    for &track in &tracks {
        let wave = (track / CHURN_WAVE_SESSIONS as u64) as u32;
        let shift = f64::from(wave) * CHURN_PERIOD;
        let shifted: Vec<TimedPoint> = sessions[(track % sessions.len() as u64) as usize]
            .iter()
            .map(|p| TimedPoint::at(p.pos, p.t + shift))
            .collect();
        let seq = &mut seqs[(track % connections as u64) as usize];
        for chunk in shifted.chunks(FRAME_POINTS) {
            seq.push(track, chunk, wave);
        }
    }
    let waves = (budget.div_ceil(CHURN_WAVE_SESSIONS)) as u32;
    let area = bounding(sessions.iter().flatten().map(|p| p.pos));
    Plan {
        workload: Workload::IngestChurnField,
        ingest: seqs,
        clock: FrameSeq::default(),
        hot: FrameSeq::default(),
        append_rate: 0.0,
        evict_idle: CHURN_EVICT_IDLE,
        waves,
        read_back_queries: read_back_queries(CHURN_READ_BACK_PER_S, seconds),
        universe: Universe {
            tracks,
            t_min: 0.0,
            t_max: f64::from(waves) * CHURN_PERIOD + CHURN_MAX_SPAN,
            area,
        },
    }
}

fn query(seed: u64, seconds: f64, connections: usize, append_rate: f64) -> Plan {
    let preload_seed = seed.wrapping_add(0x5eed_0000);
    let preload: Vec<(u64, Vec<TimedPoint>)> = (0..PRELOAD_TRACKS)
        .map(|t| (t, session_trace(preload_seed, t, PRELOAD_POINTS)))
        .collect();
    let area = bounding(preload.iter().flat_map(|(_, p)| p.iter().map(|q| q.pos)));
    let mut clock = FrameSeq::default();
    clock.push(
        CLOCK_TRACK,
        &[TimedPoint::at(preload[0].1[0].pos, CLOCK_T)],
        0,
    );
    let per_hot = whole_frames(append_rate * seconds / HOT_TRACKS as f64);
    let streams: Vec<Vec<TimedPoint>> = (0..HOT_TRACKS)
        .map(|h| {
            session_trace(seed, HOT_TRACK0 + h, per_hot)
                .into_iter()
                .map(|p| TimedPoint::at(p.pos, p.t + HOT_T0))
                .collect()
        })
        .collect();
    let mut hot = FrameSeq::default();
    for frame in 0..per_hot / FRAME_POINTS {
        let session = (frame / HOT_SESSION_FRAMES) as u64;
        for (h, points) in streams.iter().enumerate() {
            let track = HOT_TRACK0 + h as u64 + HOT_TRACKS * session;
            let chunk = &points[frame * FRAME_POINTS..(frame + 1) * FRAME_POINTS];
            hot.push(track, chunk, 0);
        }
    }
    Plan {
        workload: Workload::QueryUnderIngest,
        ingest: by_connection(
            preload.iter().map(|(t, p)| track_frames(*t, p)).collect(),
            connections,
        ),
        clock,
        hot,
        append_rate,
        evict_idle: QUERY_EVICT_IDLE,
        waves: 0,
        // This workload's queries are timed live, not read back.
        read_back_queries: 0,
        universe: Universe {
            tracks: (0..PRELOAD_TRACKS).collect(),
            t_min: 0.0,
            t_max: (PRELOAD_POINTS - 1) as f64 * 10.0,
            area,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_repeat_for_a_seed() {
        let a = Plan::build(Workload::QueryUnderIngest, 5, 0.02, 1.0, 2, 50_000.0);
        let b = Plan::build(Workload::QueryUnderIngest, 5, 0.02, 1.0, 2, 50_000.0);
        assert_eq!(a.ingest[0].frames, b.ingest[0].frames);
        assert_eq!(a.hot.frames, b.hot.frames);
        let hot: u64 = a.hot.meta.iter().map(|m| u64::from(m.points)).sum();
        assert_eq!(
            a.input_points(),
            1 + PRELOAD_TRACKS * PRELOAD_POINTS as u64 + hot
        );
    }

    #[test]
    fn round_robin_takes_one_item_per_list_in_turn() {
        let lists = vec![vec![1, 4, 6], vec![2], vec![3, 5]];
        assert_eq!(round_robin(lists), vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn churn_sessions_are_short_and_rebased() {
        let sessions = churn_sessions(3);
        assert!(sessions.len() > 1_000);
        for s in &sessions {
            assert_eq!(s[0].t, 0.0);
            assert!(s.last().expect("non-empty").t <= CHURN_MAX_SPAN);
            assert!(s.windows(2).all(|w| w[0].t < w[1].t));
        }
    }

    #[test]
    fn frames_decode_to_their_points() {
        let plan = Plan::build(Workload::IngestSynthetic, 1, 0.01, 1.0, 2, 0.0);
        let mut batch = ColumnarBatch::new();
        for (frame, meta) in plan.all_frames() {
            assert_eq!(decode_append(frame, &mut batch), meta.track);
            assert_eq!(batch.len(), meta.points as usize);
        }
    }
}
