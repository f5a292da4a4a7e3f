//! The load generator: raw-socket connections that send pre-encoded
//! frames, keep several in flight, and time every request themselves.

use crate::check::{digest_slice, Digest};
use crate::inputs::{FrameSeq, QueryMix};
use crate::report::Samples;
use bqs_net::wire::{decode_frame, frame_to_vec, QuerySpec, Reply, Request, WireError};
use bqs_net::PROTOCOL_VERSION;
use bqs_tlog::{QueryEngine, TimeRange, TrackSlice};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// One client connection that can pipeline requests: replies are parsed
/// incrementally from a byte buffer, so a read that times out mid-frame
/// loses nothing.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
}

impl Conn {
    /// Connects and completes the `Hello` handshake.
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("set_nodelay: {e}"))?;
        let mut conn = Conn {
            stream,
            buf: Vec::with_capacity(1 << 16),
            start: 0,
        };
        match conn.call(&Request::Hello {
            protocol: PROTOCOL_VERSION,
        })? {
            Reply::HelloOk { .. } => Ok(conn),
            other => Err(format!("handshake answered {other:?}")),
        }
    }

    pub fn send(&mut self, frame: &[u8]) -> Result<(), String> {
        self.stream
            .write_all(frame)
            .map_err(|e| format!("send: {e}"))
    }

    /// One request, one reply.
    pub fn call(&mut self, request: &Request) -> Result<Reply, String> {
        let payload = request.encode().map_err(|e| format!("encode: {e}"))?;
        self.send(&frame_to_vec(&payload))?;
        self.recv()
    }

    /// The next reply, blocking.
    pub fn recv(&mut self) -> Result<Reply, String> {
        self.stream
            .set_read_timeout(None)
            .map_err(|e| format!("set_read_timeout: {e}"))?;
        loop {
            if let Some(reply) = self.parse()? {
                return Ok(reply);
            }
            self.fill()?;
        }
    }

    /// The next reply if one arrives before `deadline`.
    pub fn recv_until(&mut self, deadline: Instant) -> Result<Option<Reply>, String> {
        loop {
            if let Some(reply) = self.parse()? {
                return Ok(Some(reply));
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Ok(None);
            }
            self.stream
                .set_read_timeout(Some(left.max(Duration::from_micros(20))))
                .map_err(|e| format!("set_read_timeout: {e}"))?;
            match self.fill() {
                Ok(()) => {}
                Err(e) if e == TIMED_OUT => return Ok(None),
                Err(e) => return Err(e),
            }
        }
    }

    fn parse(&mut self) -> Result<Option<Reply>, String> {
        match decode_frame(&self.buf[self.start..]) {
            Ok((payload, used)) => {
                self.start += used;
                if self.start == self.buf.len() {
                    self.buf.clear();
                    self.start = 0;
                }
                Reply::decode(&payload)
                    .map(Some)
                    .map_err(|e| format!("reply: {e}"))
            }
            Err(WireError::Torn { .. }) => Ok(None),
            Err(e) => Err(format!("reply frame: {e}")),
        }
    }

    fn fill(&mut self) -> Result<(), String> {
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        let len = self.buf.len();
        self.buf.resize(len + (1 << 16), 0);
        let read = self.stream.read(&mut self.buf[len..]);
        match read {
            Ok(0) => {
                self.buf.truncate(len);
                Err("server closed the connection".to_string())
            }
            Ok(n) => {
                self.buf.truncate(len + n);
                Ok(())
            }
            Err(e) => {
                self.buf.truncate(len);
                if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
                    Err(TIMED_OUT.to_string())
                } else {
                    Err(format!("recv: {e}"))
                }
            }
        }
    }
}

const TIMED_OUT: &str = "timed out";

/// What one ingest loop saw.
#[derive(Debug, Default)]
pub struct IngestStats {
    pub acked_points: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Append round trips (closed loop: from the send; open loop: from
    /// when the frame was due).
    pub rtt: Samples,
    /// How late each send was: open loop, send completion minus due
    /// time; closed loop, the send's own duration once a window slot
    /// was free.
    pub lag: Samples,
    /// Wall time of the whole loop, seconds.
    pub wall_s: f64,
}

impl IngestStats {
    fn merge(&mut self, other: IngestStats) {
        self.acked_points += other.acked_points;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.rtt.extend(&other.rtt);
        self.lag.extend(&other.lag);
    }

    /// Acknowledged points per second of the loop's wall time.
    pub fn pts_per_s(&self) -> f64 {
        self.acked_points as f64 / self.wall_s.max(1e-9)
    }

    /// Consumes one `Appended` reply for a frame of `points` points.
    fn ack(&mut self, reply: &Reply, points: u32, since: Instant) {
        match reply {
            Reply::Appended { points: n, .. } if *n == u64::from(points) => {
                self.rtt.record(since);
                self.acked_points += n;
            }
            _ => self.failed += 1,
        }
    }
}

/// Closed loop: every connection keeps `window` frames in flight and
/// sends its next frame only when a reply frees a slot. With `waves`,
/// a connection starts wave `w` only after every connection has had
/// all of wave `w - 2` acknowledged (see `inputs` for why).
pub fn closed_loop(
    conns: &mut [Conn],
    seqs: &[FrameSeq],
    window: usize,
    waves: bool,
) -> Result<IngestStats, String> {
    let done: Vec<AtomicU32> = seqs.iter().map(|_| AtomicU32::new(0)).collect();
    let barrier = Barrier::new(conns.len());
    let start = Instant::now();
    let results: Vec<Result<IngestStats, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(seqs)
            .enumerate()
            .map(|(c, (conn, seq))| {
                let (done, barrier) = (&done, &barrier);
                s.spawn(move || {
                    let out = drive_closed(conn, seq, window, waves.then_some((c, done)), barrier);
                    // Release any peer waiting on this connection.
                    done[c].store(u32::MAX, Ordering::SeqCst); // ordering: seqcst, a rarely written gate
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let mut total = IngestStats::default();
    for r in results {
        total.merge(r?);
    }
    total.wall_s = start.elapsed().as_secs_f64();
    Ok(total)
}

fn drive_closed(
    conn: &mut Conn,
    seq: &FrameSeq,
    window: usize,
    gate: Option<(usize, &[AtomicU32])>,
    barrier: &Barrier,
) -> Result<IngestStats, String> {
    let mut stats = IngestStats {
        rtt: Samples::with_capacity(seq.len()),
        lag: Samples::with_capacity(seq.len()),
        ..IngestStats::default()
    };
    let mut inflight: VecDeque<(Instant, u32)> = VecDeque::with_capacity(window);
    let mut wave = 0u32;
    barrier.wait();
    for (frame, meta) in seq.frames.iter().zip(&seq.meta) {
        if let Some((me, done)) = gate {
            if meta.wave != wave {
                while let Some((since, points)) = inflight.pop_front() {
                    let reply = conn.recv()?;
                    stats.ack(&reply, points, since);
                }
                wave = meta.wave;
                done[me].store(wave, Ordering::SeqCst); // ordering: seqcst, a rarely written gate
                while done
                    .iter()
                    .any(|d| d.load(Ordering::SeqCst).saturating_add(1) < wave)
                // ordering: seqcst, pairs with the stores above
                {
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
        }
        while inflight.len() >= window.max(1) {
            let (since, points) = inflight.pop_front().expect("non-empty window");
            let reply = conn.recv()?;
            stats.ack(&reply, points, since);
        }
        let ready = Instant::now();
        conn.send(frame)?;
        stats.lag.record(ready);
        stats.attempted += 1;
        inflight.push_back((ready, meta.points));
    }
    while let Some((since, points)) = inflight.pop_front() {
        let reply = conn.recv()?;
        stats.ack(&reply, points, since);
    }
    Ok(stats)
}

/// Open loop: frames are due at a fixed rate and are sent when due,
/// whatever is still unanswered; each round trip is timed from the
/// frame's due time.
pub fn open_loop(mut conn: Conn, seq: &FrameSeq, rate: f64) -> Result<IngestStats, String> {
    let mut stats = IngestStats {
        rtt: Samples::with_capacity(seq.len()),
        lag: Samples::with_capacity(seq.len()),
        ..IngestStats::default()
    };
    let mut inflight: VecDeque<(Instant, u32)> = VecDeque::new();
    let start = Instant::now();
    let mut due_points = 0u64;
    let mut next = 0usize;
    while next < seq.len() || !inflight.is_empty() {
        let due = start + Duration::from_secs_f64(due_points as f64 / rate);
        if next < seq.len() && Instant::now() >= due {
            conn.send(&seq.frames[next])?;
            stats.lag.record(due);
            stats.attempted += 1;
            inflight.push_back((due, seq.meta[next].points));
            due_points += u64::from(seq.meta[next].points);
            next += 1;
            continue;
        }
        let deadline = if next < seq.len() {
            due
        } else {
            Instant::now() + Duration::from_secs(10)
        };
        if inflight.is_empty() {
            std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
            continue;
        }
        match conn.recv_until(deadline)? {
            Some(reply) => {
                let (since, points) = inflight.pop_front().expect("a request in flight");
                stats.ack(&reply, points, since);
            }
            None if next >= seq.len() => return Err("append reply timed out".to_string()),
            None => {}
        }
    }
    stats.wall_s = start.elapsed().as_secs_f64();
    Ok(stats)
}

/// One answered query, reduced to what the output check needs.
#[derive(Debug, Clone)]
pub struct QueryRecord {
    pub spec: QuerySpec,
    /// Digest of the answer restricted to tracks below the static
    /// limit (tracks that cannot change while queries run).
    pub digest: u64,
    pub returned_points: u64,
    pub hot_points: u64,
    pub shards_pruned: u64,
    pub candidate_records: u64,
    pub decoded_records: u64,
}

/// What one query loop saw.
#[derive(Debug, Default)]
pub struct QueryStats {
    /// Per-query latencies.
    pub latency: Samples,
    pub records: Vec<QueryRecord>,
    pub failed: u64,
    /// Wall time of the whole loop, seconds.
    pub wall_s: f64,
}

impl QueryStats {
    /// Answered queries per second of the loop's wall time.
    pub fn per_s(&self) -> f64 {
        self.records.len() as f64 / self.wall_s.max(1e-9)
    }
}

/// Closed loop of seeded queries over one connection, until `stop` is
/// raised (at least one query runs).
pub fn query_loop(
    mut conn: Conn,
    mix: &mut QueryMix,
    stop: &AtomicBool,
    static_below: u64,
) -> Result<QueryStats, String> {
    let mut stats = QueryStats::default();
    let start = Instant::now();
    loop {
        let (_, spec) = mix.next_query();
        let sent = Instant::now();
        let reply = conn.call(&Request::Query(spec.clone()))?;
        stats.latency.record(sent);
        match reply {
            Reply::QueryResult(report) => stats.records.push(QueryRecord {
                digest: answer_digest(&report.slices, static_below),
                spec,
                returned_points: report.slices.iter().map(|s| s.points.len() as u64).sum(),
                hot_points: report.hot_points,
                shards_pruned: report.shards_pruned,
                candidate_records: report.candidate_records,
                decoded_records: report.decoded_records,
            }),
            _ => stats.failed += 1,
        }
        if stop.load(Ordering::SeqCst) {
            // ordering: seqcst stop flag
            break;
        }
    }
    stats.wall_s = start.elapsed().as_secs_f64();
    Ok(stats)
}

/// Digest of an answer's slices on tracks below `static_below`.
fn answer_digest(slices: &[TrackSlice], static_below: u64) -> u64 {
    let mut digest = Digest::new();
    for slice in slices.iter().filter(|s| s.track < static_below) {
        digest_slice(&mut digest, slice.track, &slice.points);
    }
    digest.finish()
}

/// The read-back of a finished spill tree: one whole-track query per
/// request, through one cached [`QueryEngine`], until `count` queries
/// have run or, short of that, `time` has passed. The first `warm_up`
/// queries open the engine's shard logs and are not timed.
pub fn read_back(
    tree: &Path,
    mix: &mut QueryMix,
    warm_up: usize,
    count: usize,
    time: Duration,
) -> Result<QueryStats, String> {
    // Background writeback of the freshly spilled tree would overlap
    // the timed queries; flush it first.
    sync_dir(tree).map_err(|e| format!("sync {}: {e}", tree.display()))?;
    let mut engine = QueryEngine::open(tree).map_err(|e| format!("read-back: {e}"))?;
    for _ in 0..warm_up {
        let (_, spec) = mix.next_query();
        engine
            .query_time_range(spec.track, TimeRange::new(spec.from, spec.to))
            .map_err(|e| format!("read-back: {e}"))?;
    }
    let mut stats = QueryStats::default();
    let start = Instant::now();
    while stats.records.len() < count && start.elapsed() < time {
        let (_, spec) = mix.next_query();
        let sent = Instant::now();
        let range = TimeRange::new(spec.from, spec.to);
        let out = engine
            .query_time_range(spec.track, range)
            .map_err(|e| format!("read-back: {e}"))?;
        stats.latency.record(sent);
        stats.records.push(QueryRecord {
            digest: answer_digest(&out.slices, u64::MAX),
            spec,
            returned_points: out.total_points() as u64,
            hot_points: out.hot_points as u64,
            shards_pruned: out.shards_pruned as u64,
            candidate_records: out.stats.candidate_records as u64,
            decoded_records: out.stats.decoded_records as u64,
        });
    }
    stats.wall_s = start.elapsed().as_secs_f64();
    Ok(stats)
}

fn sync_dir(dir: &Path) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            sync_dir(&path)?;
        } else {
            std::fs::File::open(&path)?.sync_all()?;
        }
    }
    Ok(())
}
