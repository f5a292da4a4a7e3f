//! The output check: the spill tree the server leaves behind must hold,
//! for every track, exactly what an in-process Fast BQS run over the
//! same inputs keeps, and every input point must lie within tolerance
//! of the kept polyline. The reference run and its tolerance check are
//! made once per benchmark run ([`Reference`]); every round's tree is
//! then compared with it track by track.

use crate::drive::QueryRecord;
use crate::inputs::{decode_append, Plan};
use bqs_core::{compress_all, BqsConfig, DeviationMetric, FastBqsCompressor};
use bqs_geo::{ColumnarBatch, Point2, Rect, TimedPoint};
use bqs_tlog::{QueryEngine, TimeRange};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;

/// 64-bit FNV-1a over 64-bit words.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Folds one track's points (exact bit patterns) into `d`.
pub fn digest_slice(d: &mut Digest, track: u64, points: &[TimedPoint]) {
    d.word(track);
    d.word(points.len() as u64);
    for p in points {
        d.word(p.t.to_bits());
        d.word(p.pos.x.to_bits());
        d.word(p.pos.y.to_bits());
    }
}

fn track_digest(track: u64, points: &[TimedPoint]) -> u64 {
    let mut d = Digest::new();
    digest_slice(&mut d, track, points);
    d.finish()
}

/// The verified tree.
pub struct TreeCheck {
    /// Tracks compared (the union of sent and stored tracks).
    pub tracks: u64,
    /// Tracks whose stored output differs from the reference.
    pub failed: u64,
    pub input_points: u64,
    pub kept_points: u64,
    /// Bytes of every file under the spill tree.
    pub tree_bytes: u64,
    /// Digest of every stored track, ascending by track.
    pub digest: u64,
    /// The stored output, by track.
    pub kept: BTreeMap<u64, Vec<TimedPoint>>,
    pub problems: Vec<String>,
}

/// What an in-process [`FastBqsCompressor`] keeps from every track of a
/// plan, by digest, and whether each input point lies within tolerance
/// of that kept polyline.
pub struct Reference {
    digests: HashMap<u64, u64>,
    /// Tracks whose reference output breaks the tolerance.
    pub failed: u64,
    pub worst_deviation: f64,
    pub problems: Vec<String>,
}

impl Reference {
    /// Compresses every track of `plan` on `threads` threads.
    pub fn build(plan: &Plan, tolerance: f64, threads: usize) -> Result<Reference, String> {
        let mut frames: HashMap<u64, Vec<&[u8]>> = HashMap::new();
        for (frame, meta) in plan.all_frames() {
            frames.entry(meta.track).or_default().push(frame);
        }
        let tracks: Vec<u64> = frames.keys().copied().collect();
        let config = BqsConfig::new(tolerance).map_err(|e| format!("tolerance: {e}"))?;
        let chunk = tracks.len().div_ceil(threads.max(1)).max(1);
        let parts: Vec<Reference> = std::thread::scope(|s| {
            let handles: Vec<_> = tracks
                .chunks(chunk)
                .map(|part| {
                    let frames = &frames;
                    s.spawn(move || reference_tracks(part, frames, config))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reference thread panicked"))
                .collect()
        });
        let mut all = Reference {
            digests: HashMap::with_capacity(tracks.len()),
            failed: 0,
            worst_deviation: 0.0,
            problems: Vec::new(),
        };
        for part in parts {
            all.digests.extend(part.digests);
            all.failed += part.failed;
            all.worst_deviation = all.worst_deviation.max(part.worst_deviation);
            all.problems.extend(part.problems);
        }
        Ok(all)
    }

    pub fn tracks(&self) -> usize {
        self.digests.len()
    }
}

fn reference_tracks(
    tracks: &[u64],
    frames: &HashMap<u64, Vec<&[u8]>>,
    config: BqsConfig,
) -> Reference {
    let mut out = Reference {
        digests: HashMap::with_capacity(tracks.len()),
        failed: 0,
        worst_deviation: 0.0,
        problems: Vec::new(),
    };
    let mut batch = ColumnarBatch::new();
    for &track in tracks {
        let mut input = Vec::new();
        for frame in &frames[&track] {
            decode_append(frame, &mut batch);
            input.extend(batch.iter());
        }
        let kept = compress_all(&mut FastBqsCompressor::new(config), input.iter().copied());
        out.digests.insert(track, track_digest(track, &kept));
        match max_deviation(&input, &kept, config.metric) {
            Some(dev) if dev <= config.tolerance * (1.0 + 1e-9) => {
                out.worst_deviation = out.worst_deviation.max(dev);
            }
            Some(dev) => {
                out.failed += 1;
                out.problems
                    .push(format!("track {track}: deviation {dev} m over tolerance"));
            }
            None => {
                out.failed += 1;
                out.problems.push(format!(
                    "track {track}: kept points are not an input subsequence"
                ));
            }
        }
    }
    out
}

/// Largest distance of an input point from the chord of the kept pair
/// bracketing it; `None` unless `kept` is an in-order subsequence of
/// `input` that starts and ends where it does.
pub fn max_deviation(
    input: &[TimedPoint],
    kept: &[TimedPoint],
    metric: DeviationMetric,
) -> Option<f64> {
    let mut idx = Vec::with_capacity(kept.len());
    let mut cursor = 0usize;
    for k in kept {
        let i = input[cursor..]
            .iter()
            .position(|p| p.t == k.t && p.pos == k.pos)?
            + cursor;
        idx.push(i);
        cursor = i + 1;
    }
    if idx.first() != Some(&0) || idx.last() != Some(&(input.len().checked_sub(1)?)) {
        return None;
    }
    let mut worst = 0.0f64;
    for w in idx.windows(2) {
        let (a, b) = (input[w[0]].pos, input[w[1]].pos);
        for p in &input[w[0] + 1..w[1]] {
            worst = worst.max(metric.distance(p.pos, a, b));
        }
    }
    Some(worst)
}

/// Opens `tree` with [`QueryEngine`] and compares every track with the
/// reference. With `corrupt`, one stored point is nudged by a
/// millimetre first — the negative control that must fail.
pub fn check_tree(
    tree: &Path,
    plan: &Plan,
    reference: &Reference,
    corrupt: bool,
) -> Result<TreeCheck, String> {
    let mut engine = QueryEngine::open(tree).map_err(|e| format!("open spill tree: {e}"))?;
    let mut stored: BTreeMap<u64, Vec<TimedPoint>> = engine
        .query_time_range(None, TimeRange::all())
        .map_err(|e| format!("read spill tree: {e}"))?
        .slices
        .into_iter()
        .map(|s| (s.track, s.points))
        .collect();
    if corrupt {
        let points = stored
            .values_mut()
            .next()
            .ok_or("the spill tree is empty")?;
        let mid = points.len() / 2;
        points[mid].pos = Point2::new(points[mid].pos.x + 1e-3, points[mid].pos.y);
    }
    let mut tracks: Vec<u64> = reference
        .digests
        .keys()
        .chain(stored.keys())
        .copied()
        .collect();
    tracks.sort_unstable();
    tracks.dedup();
    let mut failed = 0;
    let mut problems = Vec::new();
    for &track in &tracks {
        let got = stored.get(&track).map_or(&[][..], Vec::as_slice);
        let want = reference.digests.get(&track).copied();
        if want != Some(track_digest(track, got)) {
            failed += 1;
            problems.push(format!(
                "track {track}: the {} stored kept points differ from the reference's",
                got.len()
            ));
        }
    }
    let mut d = Digest::new();
    for (track, points) in &stored {
        digest_slice(&mut d, *track, points);
    }
    Ok(TreeCheck {
        tracks: tracks.len() as u64,
        failed,
        input_points: plan.input_points(),
        kept_points: stored.values().map(|p| p.len() as u64).sum(),
        tree_bytes: dir_bytes(tree).map_err(|e| format!("size spill tree: {e}"))?,
        digest: d.finish(),
        kept: stored,
        problems,
    })
}

fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// Recomputes every recorded answer from the verified tree; returns how
/// many differ. Only tracks below `static_below` are compared, as the
/// load generator digested only those.
pub fn check_queries(
    records: &[QueryRecord],
    kept: &BTreeMap<u64, Vec<TimedPoint>>,
    static_below: u64,
) -> u64 {
    let empty = Vec::new();
    records
        .iter()
        .filter(|r| {
            let spec = &r.spec;
            let range = TimeRange::new(spec.from, spec.to);
            let area = spec.bbox.map(|[x0, y0, x1, y1]| {
                Rect::from_corners(Point2::new(x0, y0), Point2::new(x1, y1))
            });
            let mut d = Digest::new();
            let mut fold = |track: u64, points: &[TimedPoint]| {
                let hits: Vec<TimedPoint> = points
                    .iter()
                    .filter(|p| range.contains(p.t) && area.is_none_or(|a| a.contains(p.pos)))
                    .copied()
                    .collect();
                if !hits.is_empty() {
                    digest_slice(&mut d, track, &hits);
                }
            };
            match spec.track {
                Some(t) if t < static_below => fold(t, kept.get(&t).unwrap_or(&empty)),
                Some(_) => {}
                None => {
                    for (t, points) in kept.range(..static_below) {
                        fold(*t, points);
                    }
                }
            }
            d.finish() != r.digest
        })
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deviation_needs_an_anchored_subsequence() {
        let input: Vec<TimedPoint> = (0..5)
            .map(|i| TimedPoint::new(f64::from(i), if i == 2 { 3.0 } else { 0.0 }, f64::from(i)))
            .collect();
        let metric = DeviationMetric::default();
        let kept = vec![input[0], input[4]];
        assert_eq!(max_deviation(&input, &kept, metric), Some(3.0));
        assert_eq!(max_deviation(&input, &[input[0], input[3]], metric), None);
        let mut moved = kept.clone();
        moved[1].pos.x += 1e-3;
        assert_eq!(max_deviation(&input, &moved, metric), None);
    }

    #[test]
    fn digests_see_a_millimetre() {
        let a = vec![TimedPoint::new(1.0, 2.0, 3.0)];
        let mut b = a.clone();
        b[0].pos.x += 1e-3;
        assert_ne!(track_digest(7, &a), track_digest(7, &b));
        assert_ne!(track_digest(7, &a), track_digest(8, &a));
    }
}
