//! The particle cache — paper §IV-B.
//!
//! Two synchronized caches sit at either end of an I/O channel. Because
//! both ends observe the same access stream in the same order and run the
//! same allocation, eviction and update logic, their contents are always
//! identical; the sender can therefore transmit only the difference
//! between a particle's actual position and the position both ends
//! *predict* from the cached history — a small value that INZ compresses
//! well. Static fields are replaced by the cache index on hits.
//!
//! Prediction is quadratic extrapolation stored as finite differences
//! (§IV-B2): `x̂[t] = D0[t−1] + D1[t−1] + D2[t−1]` where `D0` is the full
//! 32-bit coordinate and `D1`, `D2` are stored saturated to 12 bits.
//! Losslessness never depends on prediction accuracy: only `x − x̂` is
//! transmitted and both sides compute the same `x̂` from the same
//! (truncated) state, so reconstruction `x̂ + delta` is exact.

use core::fmt;

/// Sets in the particle cache (4-way × 256 sets = 1024 entries, §IV-B1).
pub const SETS: usize = 256;
/// Associativity of the particle cache.
pub const WAYS: usize = 4;
/// Total entries per cache.
pub const ENTRIES: usize = SETS * WAYS;
/// Saturation bound for the stored D1/D2 differences (12-bit signed).
pub const DIFF_MAX: i32 = 2047;
/// Negative saturation bound for the stored D1/D2 differences.
pub const DIFF_MIN: i32 = -2048;

/// Default eviction staleness threshold, in time steps (§IV-B1: entries
/// conflict-evict only once they are older than a configurable threshold).
pub const DEFAULT_EVICT_THRESHOLD: u8 = 4;

#[inline]
fn sat12(v: i32) -> i16 {
    v.clamp(DIFF_MIN, DIFF_MAX) as i16
}

/// A particle's identifying static field (atom ID, type, charge class...).
/// The low bits of the ID select the cache set.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct ParticleKey(pub u64);

impl ParticleKey {
    /// The cache set for this particle in a cache with `sets` sets. The
    /// index folds several bit ranges of the static field together so that
    /// keys striped across Channel Adapters (the low id bits select the
    /// CA) still spread over all sets — plain `id % sets` would alias the
    /// CA-interleave bits and waste associativity.
    pub fn set_index(self, sets: usize) -> usize {
        let k = self.0 ^ (self.0 >> 10) ^ (self.0 >> 34);
        ((k >> 2) as usize) % sets
    }
}

impl fmt::Display for ParticleKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A fixed-point position (three signed 32-bit coordinates).
pub type FixedPos = [i32; 3];

#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
struct Entry {
    valid: bool,
    key: ParticleKey,
    d0: [i32; 3],
    d1: [i16; 3],
    d2: [i16; 3],
    epoch: u8,
}

impl Entry {
    fn predict(&self) -> FixedPos {
        let mut p = [0i32; 3];
        for (i, pi) in p.iter_mut().enumerate() {
            *pi = self.d0[i]
                .wrapping_add(self.d1[i] as i32)
                .wrapping_add(self.d2[i] as i32);
        }
        p
    }

    fn update(&mut self, x: FixedPos, epoch: u8) {
        for (i, &xi) in x.iter().enumerate() {
            let old_d0 = self.d0[i];
            let old_d1 = self.d1[i] as i32;
            self.d1[i] = sat12(xi.wrapping_sub(old_d0));
            self.d2[i] = sat12(xi.wrapping_sub(old_d0).wrapping_sub(old_d1));
            self.d0[i] = xi;
        }
        self.epoch = epoch;
    }

    fn initialize(&mut self, key: ParticleKey, x: FixedPos, epoch: u8) {
        // New entries start as a constant predictor (D1 = D2 = 0) and
        // automatically become linear, then quadratic, as history accrues.
        *self = Entry {
            valid: true,
            key,
            d0: x,
            d1: [0; 3],
            d2: [0; 3],
            epoch,
        };
    }
}

/// The outcome of presenting one position to the cache.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Outcome {
    /// The particle was cached: transmit only the cache index and the
    /// prediction delta.
    Hit {
        /// Dense entry index (set × ways + way), 10 bits on the wire.
        index: u16,
        /// `x − x̂` per coordinate (wrapping arithmetic; exact on receive).
        delta: [i32; 3],
    },
    /// Miss; a (possibly evicting) allocation was made. The full packet
    /// must be transmitted so the far side can mirror the allocation.
    Allocated,
    /// Miss and the set is full of fresh entries; no state was changed and
    /// the full packet is transmitted.
    Bypassed,
}

/// Running statistics for one cache.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed and allocated a free way.
    pub allocs: u64,
    /// Lookups that missed and evicted a stale entry.
    pub evictions: u64,
    /// Lookups that missed and could not allocate.
    pub bypasses: u64,
}

impl CacheStats {
    /// Total lookups observed.
    pub fn lookups(&self) -> u64 {
        self.hits + self.allocs + self.evictions + self.bypasses
    }

    /// Hit rate in `[0, 1]`; zero when no lookups occurred.
    pub fn hit_rate(&self) -> f64 {
        let n = self.lookups();
        if n == 0 {
            0.0
        } else {
            self.hits as f64 / n as f64
        }
    }
}

/// One side of a particle cache (the same structure serves as send-side
/// and receive-side; synchrony is a protocol property, checked by
/// [`ChannelPcache`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParticleCache {
    sets: Vec<[Entry; WAYS]>,
    epoch: u8,
    evict_threshold: u8,
    stats: CacheStats,
}

impl ParticleCache {
    /// Creates a cache with a non-default number of sets (associativity
    /// stays 4-way). Used by capacity-sensitivity ablations; the hardware
    /// geometry is [`SETS`] × [`WAYS`].
    ///
    /// # Panics
    /// Panics if `sets == 0`.
    pub fn with_geometry(sets: usize, evict_threshold: u8) -> Self {
        assert!(sets > 0, "cache needs at least one set");
        ParticleCache {
            sets: vec![[Entry::default(); WAYS]; sets],
            epoch: 0,
            evict_threshold,
            stats: CacheStats::default(),
        }
    }
}

impl Default for ParticleCache {
    fn default() -> Self {
        Self::new(DEFAULT_EVICT_THRESHOLD)
    }
}

impl ParticleCache {
    /// Creates an empty cache with the given conflict-eviction staleness
    /// threshold (in time steps).
    pub fn new(evict_threshold: u8) -> Self {
        Self::with_geometry(SETS, evict_threshold)
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Advances the time-step counter. The hardware does this upon receipt
    /// of a special end-of-step packet sent by software (§IV-B1).
    pub fn end_of_step(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
    }

    /// Presents one position to the cache and advances its state. Both
    /// the send side (deciding what to transmit) and the receive side
    /// (mirroring a full-packet arrival) use this same transition.
    pub fn advance(&mut self, key: ParticleKey, pos: FixedPos) -> Outcome {
        let set_idx = key.set_index(self.sets.len());
        let set = &mut self.sets[set_idx];
        // Hit path.
        if let Some(way) = set.iter().position(|e| e.valid && e.key == key) {
            let entry = &mut set[way];
            let predicted = entry.predict();
            let mut delta = [0i32; 3];
            for i in 0..3 {
                delta[i] = pos[i].wrapping_sub(predicted[i]);
            }
            entry.update(pos, self.epoch);
            self.stats.hits += 1;
            return Outcome::Hit {
                index: (set_idx * WAYS + way) as u16,
                delta,
            };
        }
        // Miss: free way?
        if let Some(way) = set.iter().position(|e| !e.valid) {
            set[way].initialize(key, pos, self.epoch);
            self.stats.allocs += 1;
            return Outcome::Allocated;
        }
        // Miss: evict the stalest way older than the threshold, if any.
        let (way, staleness) = set
            .iter()
            .enumerate()
            .map(|(w, e)| (w, self.epoch.wrapping_sub(e.epoch)))
            .max_by_key(|&(w, s)| (s, usize::MAX - w)) // stalest; ties -> lowest way
            .expect("set is non-empty");
        if staleness > self.evict_threshold {
            set[way].initialize(key, pos, self.epoch);
            self.stats.evictions += 1;
            Outcome::Allocated
        } else {
            self.stats.bypasses += 1;
            Outcome::Bypassed
        }
    }

    /// Receive-side transition for a compressed packet: reconstructs the
    /// particle's key and exact position from the cache index and delta.
    ///
    /// # Panics
    /// Panics if `index` does not name a valid entry — that would mean the
    /// two cache ends have desynchronized, which the design guarantees
    /// cannot happen.
    pub fn receive_compressed(&mut self, index: u16, delta: [i32; 3]) -> (ParticleKey, FixedPos) {
        let (set_idx, way) = (index as usize / WAYS, index as usize % WAYS);
        let entry = &mut self.sets[set_idx][way];
        assert!(
            entry.valid,
            "compressed packet references invalid entry {index}"
        );
        let predicted = entry.predict();
        let mut pos = [0i32; 3];
        for i in 0..3 {
            pos[i] = predicted[i].wrapping_add(delta[i]);
        }
        let key = entry.key;
        entry.update(pos, self.epoch);
        self.stats.hits += 1;
        (key, pos)
    }
}

/// What actually crosses the wire for one position export.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PositionWire {
    /// Full packet: static field plus complete coordinates.
    Full {
        /// The particle's static field.
        key: ParticleKey,
        /// Complete fixed-point position.
        pos: FixedPos,
    },
    /// Compressed packet: a 10-bit cache index plus the prediction delta.
    Compressed {
        /// Dense cache entry index.
        index: u16,
        /// Per-coordinate prediction delta (small; INZ-friendly).
        delta: [i32; 3],
    },
}

/// A send-side and receive-side cache pair modeling one I/O channel.
///
/// ```
/// use anton_compress::pcache::{ChannelPcache, ParticleKey, PositionWire};
/// let mut ch = ChannelPcache::default();
/// // First export misses and ships the full position...
/// let w0 = ch.transmit(ParticleKey(7), [100, 200, 300]);
/// assert!(matches!(w0, PositionWire::Full { .. }));
/// assert_eq!(ch.receive(w0), (ParticleKey(7), [100, 200, 300]));
/// ch.end_of_step();
/// // ...the next one hits and ships only a delta.
/// let w1 = ch.transmit(ParticleKey(7), [101, 199, 300]);
/// assert!(matches!(w1, PositionWire::Compressed { .. }));
/// assert_eq!(ch.receive(w1), (ParticleKey(7), [101, 199, 300]));
/// ```
#[derive(Clone, Debug, Default)]
pub struct ChannelPcache {
    send: ParticleCache,
    recv: ParticleCache,
}

impl ChannelPcache {
    /// Creates a synchronized pair with the given eviction threshold.
    pub fn new(evict_threshold: u8) -> Self {
        ChannelPcache {
            send: ParticleCache::new(evict_threshold),
            recv: ParticleCache::new(evict_threshold),
        }
    }

    /// Creates a synchronized pair with a non-default set count (capacity
    /// ablations).
    pub fn with_geometry(sets: usize, evict_threshold: u8) -> Self {
        ChannelPcache {
            send: ParticleCache::with_geometry(sets, evict_threshold),
            recv: ParticleCache::with_geometry(sets, evict_threshold),
        }
    }

    /// Send-side: decides the wire representation for one export and
    /// advances the send cache.
    pub fn transmit(&mut self, key: ParticleKey, pos: FixedPos) -> PositionWire {
        match self.send.advance(key, pos) {
            Outcome::Hit { index, delta } => PositionWire::Compressed { index, delta },
            Outcome::Allocated | Outcome::Bypassed => PositionWire::Full { key, pos },
        }
    }

    /// Receive-side: reconstructs the exact position and advances the
    /// receive cache.
    pub fn receive(&mut self, wire: PositionWire) -> (ParticleKey, FixedPos) {
        match wire {
            PositionWire::Full { key, pos } => {
                let outcome = self.recv.advance(key, pos);
                debug_assert!(
                    !matches!(outcome, Outcome::Hit { .. }),
                    "receive side hit where send side missed: caches desynchronized"
                );
                (key, pos)
            }
            PositionWire::Compressed { index, delta } => self.recv.receive_compressed(index, delta),
        }
    }

    /// Marks the end of a time step on both sides (the special packet the
    /// software sends crosses the same channel, so both ends see it).
    pub fn end_of_step(&mut self) {
        self.send.end_of_step();
        self.recv.end_of_step();
    }

    /// Send-side statistics.
    pub fn send_stats(&self) -> CacheStats {
        self.send.stats()
    }

    /// Verifies the core invariant: both ends hold identical entries.
    ///
    /// # Panics
    /// Panics if any entry differs.
    pub fn assert_synchronized(&self) {
        assert_eq!(
            self.send.sets, self.recv.sets,
            "particle caches desynchronized"
        );
        assert_eq!(
            self.send.epoch, self.recv.epoch,
            "epoch counters desynchronized"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first `n` keys (>= 1) that map to the same set as key 1.
    fn colliding_keys(n: usize) -> Vec<u64> {
        let target = ParticleKey(1).set_index(SETS);
        (1u64..)
            .filter(|&k| ParticleKey(k).set_index(SETS) == target)
            .take(n)
            .collect()
    }

    fn roundtrip(ch: &mut ChannelPcache, key: u64, pos: FixedPos) -> PositionWire {
        let wire = ch.transmit(ParticleKey(key), pos);
        let (k, p) = ch.receive(wire);
        assert_eq!(k, ParticleKey(key));
        assert_eq!(p, pos);
        wire
    }

    #[test]
    fn first_touch_misses_then_hits() {
        let mut ch = ChannelPcache::default();
        assert!(matches!(
            roundtrip(&mut ch, 1, [10, 20, 30]),
            PositionWire::Full { .. }
        ));
        ch.end_of_step();
        assert!(matches!(
            roundtrip(&mut ch, 1, [11, 21, 31]),
            PositionWire::Compressed { .. }
        ));
        ch.assert_synchronized();
    }

    #[test]
    fn quadratic_predictor_converges_on_parabola() {
        // x[t] = 5t^2 + 3t + 100: after three samples the quadratic
        // predictor is exact and deltas collapse to zero.
        let mut ch = ChannelPcache::default();
        let x = |t: i32| 5 * t * t + 3 * t + 100;
        for t in 0..6 {
            let wire = roundtrip(&mut ch, 9, [x(t), -x(t), 2 * x(t)]);
            if t >= 3 {
                match wire {
                    PositionWire::Compressed { delta, .. } => {
                        assert_eq!(delta, [0, 0, 0], "t={t}: quadratic must predict exactly")
                    }
                    PositionWire::Full { .. } => panic!("t={t}: should hit"),
                }
            }
            ch.end_of_step();
        }
    }

    #[test]
    fn linear_motion_predicts_after_warmup() {
        // Per the update equations, D2 transiently absorbs the first
        // velocity step, so prediction becomes exact from the third update
        // on (the paper's constant -> linear -> quadratic transition).
        let mut ch = ChannelPcache::default();
        for t in 0..6 {
            let wire = roundtrip(&mut ch, 4, [t * 7, t * -3, 1000 + t]);
            match wire {
                PositionWire::Compressed { delta, .. } if t >= 3 => {
                    assert_eq!(delta, [0, 0, 0], "t={t}");
                }
                PositionWire::Compressed { delta, .. } if t == 2 => {
                    // Quadratic overshoot by exactly one velocity step.
                    assert_eq!(delta, [-7, 3, -1], "t={t}");
                }
                _ => {}
            }
            ch.end_of_step();
        }
    }

    #[test]
    fn saturation_keeps_losslessness() {
        // Jumps far beyond the 12-bit difference range: prediction gets
        // worse but reconstruction stays exact.
        let mut ch = ChannelPcache::default();
        let positions = [
            [0, 0, 0],
            [1_000_000, -1_000_000, 5],
            [-2_000_000, 2_000_000, 500_000],
            [i32::MAX, i32::MIN, 0],
            [42, -42, 7],
        ];
        for pos in positions {
            roundtrip(&mut ch, 11, pos);
            ch.end_of_step();
        }
        ch.assert_synchronized();
    }

    #[test]
    fn conflict_without_staleness_bypasses() {
        let mut ch = ChannelPcache::new(4);
        // Five particles mapping to the same set.
        for (i, k) in colliding_keys(5).into_iter().enumerate() {
            let wire = ch.transmit(ParticleKey(k), [i as i32, 0, 0]);
            let _ = ch.receive(wire);
        }
        // Set holds 4 ways; the 5th is a bypass (all entries are fresh).
        assert_eq!(ch.send_stats().allocs, 4);
        assert_eq!(ch.send_stats().bypasses, 1);
        assert_eq!(ch.send_stats().evictions, 0);
        ch.assert_synchronized();
    }

    #[test]
    fn stale_entries_evict_after_threshold() {
        let mut ch = ChannelPcache::new(2);
        let keys = colliding_keys(5);
        // Fill one set.
        for &k in &keys[..4] {
            roundtrip(&mut ch, k, [0, 0, 0]);
        }
        // Three steps pass without touching them (staleness 3 > 2).
        for _ in 0..3 {
            ch.end_of_step();
        }
        let w = roundtrip(&mut ch, keys[4], [9, 9, 9]);
        assert!(matches!(w, PositionWire::Full { .. }));
        assert_eq!(ch.send_stats().evictions, 1);
        ch.assert_synchronized();
    }

    #[test]
    fn refreshed_entries_resist_eviction() {
        let mut ch = ChannelPcache::new(2);
        let keys = colliding_keys(5);
        for &k in &keys[..4] {
            roundtrip(&mut ch, k, [0, 0, 0]);
        }
        for step in 0..5 {
            ch.end_of_step();
            // Keep all four entries warm every step.
            for &k in &keys[..4] {
                let w = roundtrip(&mut ch, k, [step, step, step]);
                assert!(matches!(w, PositionWire::Compressed { .. }));
            }
            // The conflicting 5th particle keeps bypassing.
            let w = roundtrip(&mut ch, keys[4], [7, 7, 7]);
            assert!(matches!(w, PositionWire::Full { .. }), "step {step}");
        }
        assert_eq!(ch.send_stats().evictions, 0);
    }

    #[test]
    fn hit_rate_statistics() {
        let mut ch = ChannelPcache::default();
        roundtrip(&mut ch, 3, [0, 0, 0]);
        ch.end_of_step();
        roundtrip(&mut ch, 3, [1, 1, 1]);
        let s = ch.send_stats();
        assert_eq!(s.lookups(), 2);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn epoch_counter_wraps_safely() {
        let mut ch = ChannelPcache::new(2);
        roundtrip(&mut ch, 5, [0, 0, 0]);
        for _ in 0..260 {
            ch.end_of_step();
            roundtrip(&mut ch, 5, [1, 1, 1]); // keep warm across the wrap
        }
        ch.assert_synchronized();
        assert!(ch.send_stats().hits >= 259);
    }

    #[test]
    fn deltas_are_small_for_smooth_motion() {
        // A particle drifting ~40 fixed-point counts per step with slowly
        // varying velocity: after warmup, |delta| must be tiny.
        let mut ch = ChannelPcache::default();
        let mut pos = 1_000_000i32;
        let mut vel = 40i32;
        for t in 0..20 {
            let wire = roundtrip(&mut ch, 8, [pos, -pos, pos / 2]);
            if t >= 3 {
                if let PositionWire::Compressed { delta, .. } = wire {
                    for d in delta {
                        assert!(d.abs() <= 4, "t={t}: delta {d} too large for smooth motion");
                    }
                }
            }
            vel += if t % 2 == 0 { 1 } else { -1 };
            pos += vel;
            ch.end_of_step();
        }
    }

    #[test]
    #[should_panic(expected = "invalid entry")]
    fn compressed_to_invalid_entry_panics() {
        let mut c = ParticleCache::default();
        let _ = c.receive_compressed(0, [0, 0, 0]);
    }
}
