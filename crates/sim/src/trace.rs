//! Activity tracing, used to regenerate the paper's Figure 12 machine
//! activity plots.
//!
//! Components register *lanes* (one per plotted column — a channel, a GC
//! column, a PPIM row) and record busy spans tagged with an activity kind
//! (position traffic, force traffic, integration, ...). The trace can then
//! be bucketed into a time × lane occupancy matrix for rendering.

use anton_model::units::Ps;

/// Identifies one traced lane (a column in the activity plot).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LaneId(pub u32);

/// A tag describing what kind of work occupied a span (e.g. "position
/// packets" vs "force packets" — the red/green split in Figure 12).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ActivityKind(pub u8);

/// One recorded busy interval.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span {
    /// Lane the work occurred on.
    pub lane: LaneId,
    /// What kind of work it was.
    pub kind: ActivityKind,
    /// Start time (inclusive).
    pub start: Ps,
    /// End time (exclusive).
    pub end: Ps,
}

/// A recording of component activity over simulated time.
///
/// Tracing can be disabled (the default for large runs); recording into a
/// disabled trace is a no-op so call sites stay unconditional.
#[derive(Clone, Debug, Default)]
pub struct ActivityTrace {
    enabled: bool,
    lanes: Vec<String>,
    spans: Vec<Span>,
}

impl ActivityTrace {
    /// Creates a disabled (no-op) trace.
    pub fn disabled() -> Self {
        ActivityTrace::default()
    }

    /// Creates an enabled trace.
    pub fn enabled() -> Self {
        ActivityTrace {
            enabled: true,
            lanes: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Registers a named lane and returns its ID. Lanes may be registered
    /// even while disabled so IDs stay stable across configurations.
    pub fn register_lane(&mut self, name: impl Into<String>) -> LaneId {
        let id = LaneId(self.lanes.len() as u32);
        self.lanes.push(name.into());
        id
    }

    /// The name a lane was registered with.
    pub fn lane_name(&self, lane: LaneId) -> &str {
        &self.lanes[lane.0 as usize]
    }

    /// Number of registered lanes.
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// Records a busy span; no-op when disabled or when the span is empty.
    pub fn record(&mut self, lane: LaneId, kind: ActivityKind, start: Ps, end: Ps) {
        debug_assert!(end >= start, "span ends before it starts");
        if self.enabled && end > start {
            self.spans.push(Span {
                lane,
                kind,
                start,
                end,
            });
        }
    }

    /// All recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Bucketizes one lane into occupancy fractions over `[t0, t1)` using
    /// `buckets` equal time bins; each cell is the fraction of that bin the
    /// lane spent busy with `kind` (or any kind when `None`).
    ///
    /// # Panics
    /// Panics if `t1 <= t0` or `buckets == 0`.
    pub fn occupancy(
        &self,
        lane: LaneId,
        kind: Option<ActivityKind>,
        t0: Ps,
        t1: Ps,
        buckets: usize,
    ) -> Vec<f64> {
        assert!(t1 > t0 && buckets > 0, "invalid occupancy window");
        let window = (t1 - t0).as_ps();
        let bucket_ps = (window / buckets as u64).max(1);
        let mut out = vec![0.0f64; buckets];
        for s in self
            .spans
            .iter()
            .filter(|s| s.lane == lane && kind.is_none_or(|k| s.kind == k))
        {
            let (bs, be) = (s.start.max(t0), s.end.min(t1));
            if be <= bs {
                continue;
            }
            let first = ((bs - t0).as_ps() / bucket_ps) as usize;
            let last = (((be - t0).as_ps().saturating_sub(1)) / bucket_ps) as usize;
            for (b, slot) in out
                .iter_mut()
                .enumerate()
                .take((last + 1).min(buckets))
                .skip(first)
            {
                let cell_start = t0 + Ps::new(b as u64 * bucket_ps);
                let cell_end = cell_start + Ps::new(bucket_ps);
                let overlap = be.min(cell_end).saturating_sub(bs.max(cell_start));
                *slot += overlap.as_ps() as f64 / bucket_ps as f64;
            }
        }
        for v in &mut out {
            *v = v.min(1.0);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const K: ActivityKind = ActivityKind(0);

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = ActivityTrace::disabled();
        let lane = t.register_lane("ch0");
        t.record(lane, K, Ps::new(0), Ps::new(10));
        assert!(t.spans().is_empty());
    }

    #[test]
    fn occupancy_fractions() {
        let mut t = ActivityTrace::enabled();
        let lane = t.register_lane("gc");
        // Busy for the entire first half of a 100ps window.
        t.record(lane, K, Ps::new(0), Ps::new(50));
        let occ = t.occupancy(lane, None, Ps::new(0), Ps::new(100), 4);
        assert_eq!(occ.len(), 4);
        assert!((occ[0] - 1.0).abs() < 1e-9);
        assert!((occ[1] - 1.0).abs() < 1e-9);
        assert!(occ[2].abs() < 1e-9);
        assert!(occ[3].abs() < 1e-9);
    }

    #[test]
    fn occupancy_partial_bucket() {
        let mut t = ActivityTrace::enabled();
        let lane = t.register_lane("x");
        t.record(lane, K, Ps::new(10), Ps::new(15));
        let occ = t.occupancy(lane, None, Ps::new(0), Ps::new(40), 4);
        assert!((occ[1] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn lane_names_roundtrip() {
        let mut t = ActivityTrace::enabled();
        let a = t.register_lane("alpha");
        let b = t.register_lane("beta");
        assert_eq!(t.lane_name(a), "alpha");
        assert_eq!(t.lane_name(b), "beta");
        assert_eq!(t.lane_count(), 2);
    }

    #[test]
    fn zero_length_spans_dropped() {
        let mut t = ActivityTrace::enabled();
        let lane = t.register_lane("z");
        t.record(lane, K, Ps::new(5), Ps::new(5));
        assert!(t.spans().is_empty());
    }
}
