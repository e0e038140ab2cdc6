//! Incremental evaluation cache for refinement iterations.
//!
//! Every refinement iteration of [`RefinementFlow`](crate::RefinementFlow)
//! re-simulates the whole design, yet some iterations change no
//! annotation at all (the first LSB iteration runs under exactly the
//! annotations the converged MSB phase left). The cache exploits that: the
//! [`Design`] tracks which signals' behavior an annotation change may
//! have altered (its *dirty set*), and before each simulation the driver
//! builds a [`CachePlan`]:
//!
//! * **Replay** — nothing is dirty: the previous run would repeat
//!   bit-identically (all stimuli are functions of the iteration-stable
//!   scenario, and the error-injection RNG restarts from the design seed
//!   on every `reset_state`), so the cached monitors are merged back into
//!   the reset design and the stimulus is skipped entirely. This is always sound.
//! * **Cold** — everything else: a graph recording was requested, the
//!   cache is empty, or some annotation changed.
//!
//! Invalidation granularity: `range()`/`dtype` changes dirty one signal;
//! `error()` sigma changes dirty *all* signals, because error injection
//! consumes a design-wide shared RNG stream — inserting draws shifts
//! every subsequent draw. Either way a dirty set forces a cold run; its
//! size is journaled as [`Event::CacheInvalidated`].

use fixref_obs::{Event, Recorder};
use fixref_sim::{Design, OverflowEvent, SignalStats};

/// How the next simulation may reuse cached monitors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachePlan {
    /// Run everything live.
    Cold,
    /// Nothing is dirty: put every cached monitor back and skip the
    /// stimulus.
    Replay,
}

/// Decides how a simulation over `design` may reuse a warm cache, and
/// drains the design's dirty set (the decision consumes it).
///
/// Emits [`Event::CacheInvalidated`] when annotation changes dirtied a
/// warm cache.
pub(crate) fn plan_for(
    design: &Design,
    record_graph: bool,
    warm: bool,
    recorder: &dyn Recorder,
) -> CachePlan {
    let dirty = design.take_dirty();
    if warm && !dirty.is_empty() {
        recorder.record_event(Event::CacheInvalidated {
            reason: "annotations".into(),
            dirty: dirty.len(),
        });
    }
    if warm && !record_graph && dirty.is_empty() {
        CachePlan::Replay
    } else {
        CachePlan::Cold
    }
}

/// The sequential driver's monitor cache: the previous run's exported
/// statistics, overflow events and cycle count, plus hit/miss accounting
/// (one hit per signal restored from cache, one miss per signal simulated
/// live).
#[derive(Debug, Default)]
pub struct EvalCache {
    stats: Option<Vec<SignalStats>>,
    overflow_events: Vec<OverflowEvent>,
    cycles: u64,
    hits: u64,
    misses: u64,
}

impl EvalCache {
    /// Creates an empty (cold) cache.
    pub fn new() -> Self {
        EvalCache::default()
    }

    /// Whether the cache holds a previous run's monitors.
    pub fn is_warm(&self) -> bool {
        self.stats.is_some()
    }

    /// Signals answered from the cache so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Signals simulated live so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Decides how the next simulation may reuse this cache; drains the
    /// design's dirty set.
    pub fn plan(&self, design: &Design, record_graph: bool, recorder: &dyn Recorder) -> CachePlan {
        plan_for(design, record_graph, self.is_warm(), recorder)
    }

    /// Snapshots the design's monitors after a live run.
    pub fn store(&mut self, design: &Design) {
        self.stats = Some(design.export_stats());
        self.overflow_events = design.peek_overflow_events();
        self.cycles = design.cycle();
    }

    /// Merges every cached monitor into the freshly reset design and
    /// returns the cached cycle count — the Replay path. A merge into
    /// reset monitors is exact, as in the sweep's single-scenario fold,
    /// so the design ends up with exactly the cached monitors.
    ///
    /// # Panics
    ///
    /// Panics if the cache is cold or was stored from a different design.
    pub fn replay(&self, design: &Design) -> u64 {
        let stats = self.stats.as_ref().expect("replay requires a warm cache");
        design
            .absorb_stats(stats)
            .expect("cached stats were exported from this design");
        design.absorb_overflow_events(self.overflow_events.clone());
        self.cycles
    }

    /// Exports the cached monitors for checkpointing:
    /// `(stats, overflow_events, cycles)`, or `None` when the cache is
    /// cold. Pair with [`EvalCache::restore`].
    pub fn snapshot(&self) -> Option<(Vec<SignalStats>, Vec<OverflowEvent>, u64)> {
        self.stats
            .as_ref()
            .map(|stats| (stats.clone(), self.overflow_events.clone(), self.cycles))
    }

    /// Rebuilds a warm cache from checkpointed parts, so a resumed flow
    /// replays and invalidates exactly like the uninterrupted run.
    /// Hit/miss accounting restarts at zero.
    pub fn restore(
        stats: Vec<SignalStats>,
        overflow_events: Vec<OverflowEvent>,
        cycles: u64,
    ) -> Self {
        EvalCache {
            stats: Some(stats),
            overflow_events,
            cycles,
            hits: 0,
            misses: 0,
        }
    }

    /// Accounts `restored` cache hits and `live` misses, mirroring them
    /// onto the recorder's `cache.hits` / `cache.misses` counters.
    pub fn note(&mut self, recorder: &dyn Recorder, restored: u64, live: u64) {
        self.hits += restored;
        self.misses += live;
        if restored > 0 {
            recorder.inc("cache.hits", restored);
        }
        if live > 0 {
            recorder.inc("cache.misses", live);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixref_obs::DefaultRecorder;

    fn tiny_design() -> Design {
        let d = Design::with_seed(7);
        d.sig("x");
        d.sig("y");
        d.declare_static_schedule();
        d
    }

    fn drive(d: &Design) {
        let x = d.sig_handle(d.find("x").unwrap());
        let y = d.sig_handle(d.find("y").unwrap());
        d.clear_graph();
        d.record_graph(true);
        for i in 0..32 {
            x.set((i as f64 * 0.3).sin());
            y.set(x.get() * 0.5);
            d.tick();
        }
        d.record_graph(false);
    }

    #[test]
    fn cold_cache_plans_cold_then_replays_when_nothing_is_dirty() {
        let d = tiny_design();
        let rec = DefaultRecorder::new();
        let mut cache = EvalCache::new();
        assert_eq!(cache.plan(&d, false, &rec), CachePlan::Cold);
        drive(&d);
        cache.store(&d);
        // Nothing changed since (plan drained the declaration dirt).
        assert_eq!(cache.plan(&d, false, &rec), CachePlan::Replay);
        // A graph-recording request always forces a live run.
        assert_eq!(cache.plan(&d, true, &rec), CachePlan::Cold);
    }

    #[test]
    fn annotation_dirt_plans_cold_even_under_a_static_schedule() {
        let d = tiny_design();
        let rec = DefaultRecorder::new();
        let mut cache = EvalCache::new();
        let _ = cache.plan(&d, false, &rec); // drain declaration dirt
        drive(&d);
        cache.store(&d);

        // A warm cache with one dirty signal re-runs live: a stale
        // monitor is never restored, whatever the design declares.
        d.set_range(d.find("y").unwrap(), -1.0, 1.0);
        assert_eq!(cache.plan(&d, false, &rec), CachePlan::Cold);
        // The invalidation was journaled.
        assert!(rec
            .events()
            .iter()
            .any(|e| matches!(e, Event::CacheInvalidated { dirty: 1, .. })));
    }

    #[test]
    fn replay_restores_monitors_bit_identically() {
        let d = tiny_design();
        let rec = DefaultRecorder::new();
        let mut cache = EvalCache::new();
        let _ = cache.plan(&d, false, &rec);
        drive(&d);
        cache.store(&d);
        let reference = d.export_stats();
        let cycles = d.cycle();

        d.reset_stats();
        d.reset_state();
        assert_eq!(cache.replay(&d), cycles);
        assert_eq!(d.export_stats(), reference);

        cache.note(&rec, d.num_signals() as u64, 0);
        assert_eq!(cache.hits(), 2);
        assert_eq!(rec.counter("cache.hits"), 2);
    }
}
