//! Pass statistics, including the node-kind breakdown of profitable
//! alignment graphs (Figs. 16 and 19 in the paper).

use std::fmt;
use std::ops::AddAssign;

/// Counters for the kinds of alignment-graph nodes (profitable graphs only).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeKindCounts {
    /// Exactly matching instruction groups.
    pub matching: u64,
    /// Identical-value groups (loop invariants).
    pub identical: u64,
    /// Mismatching groups handled through arrays.
    pub mismatching: u64,
    /// Monotonic integer sequences (§IV-C1).
    pub sequence: u64,
    /// Neutral pointer operations (§IV-C2).
    pub gep_neutral: u64,
    /// Binary operations padded with neutral elements (§IV-C3).
    pub binop_neutral: u64,
    /// Recurrences from chained dependences (§IV-C4).
    pub recurrence: u64,
    /// Reduction trees (§IV-C5).
    pub reduction: u64,
}

impl NodeKindCounts {
    /// Total nodes counted.
    pub fn total(&self) -> u64 {
        self.matching
            + self.identical
            + self.mismatching
            + self.sequence
            + self.gep_neutral
            + self.binop_neutral
            + self.recurrence
            + self.reduction
    }

    /// `(label, count)` rows in the order the paper's figures use.
    pub fn rows(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("matching", self.matching),
            ("identical", self.identical),
            ("mismatching", self.mismatching),
            ("sequence", self.sequence),
            ("gep-neutral", self.gep_neutral),
            ("binop-neutral", self.binop_neutral),
            ("recurrence", self.recurrence),
            ("reduction", self.reduction),
        ]
    }
}

impl AddAssign for NodeKindCounts {
    fn add_assign(&mut self, rhs: Self) {
        self.matching += rhs.matching;
        self.identical += rhs.identical;
        self.mismatching += rhs.mismatching;
        self.sequence += rhs.sequence;
        self.gep_neutral += rhs.gep_neutral;
        self.binop_neutral += rhs.binop_neutral;
        self.recurrence += rhs.recurrence;
        self.reduction += rhs.reduction;
    }
}

/// Wall-clock nanoseconds spent in each stage of the pass (Fig. 5's
/// pipeline), accumulated across every candidate attempt.
///
/// Timings are observability data, not results: they are carried inside
/// [`RolagStats`] but deliberately excluded from its [`PartialEq`], so a
/// parallel run with identical outcomes compares equal to a serial one.
///
/// Each stage is wall time measured on the worker that ran it, and the
/// parallel driver sums them over workers. On an oversubscribed CPU (more
/// driver workers than free cores) a stage therefore also counts the time
/// its worker spent descheduled, and the summed stages of a parallel run
/// can exceed both a serial run's stages for the same work and the
/// driver's own wall time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Seed collection (candidate discovery per block).
    pub seeds_ns: u64,
    /// Alignment-graph construction.
    pub align_ns: u64,
    /// Scheduling analysis.
    pub schedule_ns: u64,
    /// Speculative loop code generation.
    pub codegen_ns: u64,
    /// Per-rewrite translation validation (`rolag-tv`), when enabled.
    pub tv_ns: u64,
    /// Cost-model size lookups and delta sums (profitability decisions).
    /// Every `BlockSizeCache` / size-sketch query the engine issues is
    /// inside this window — sweep-baseline walks included — so the stage
    /// breakdown attributes *all* size-model time here.
    pub cost_ns: u64,
    /// Post-roll simplify + DCE cleanup.
    pub cleanup_ns: u64,
    /// Incremental change tracking: structural block diffs, affected-set
    /// and dirty-closure computation, and cache invalidation after a
    /// commit. Zero on the full-rescan reference engine.
    pub track_ns: u64,
}

impl StageTimings {
    /// Total nanoseconds across all stages.
    pub fn total_ns(&self) -> u64 {
        self.seeds_ns
            + self.align_ns
            + self.schedule_ns
            + self.codegen_ns
            + self.tv_ns
            + self.cost_ns
            + self.cleanup_ns
            + self.track_ns
    }

    /// `(stage, nanoseconds)` rows in pipeline order, for CSV dumps.
    pub fn rows(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("seeds", self.seeds_ns),
            ("align", self.align_ns),
            ("schedule", self.schedule_ns),
            ("codegen", self.codegen_ns),
            ("tv", self.tv_ns),
            ("cost", self.cost_ns),
            ("cleanup", self.cleanup_ns),
            ("track", self.track_ns),
        ]
    }
}

impl AddAssign for StageTimings {
    fn add_assign(&mut self, rhs: Self) {
        self.seeds_ns += rhs.seeds_ns;
        self.align_ns += rhs.align_ns;
        self.schedule_ns += rhs.schedule_ns;
        self.codegen_ns += rhs.codegen_ns;
        self.tv_ns += rhs.tv_ns;
        self.cost_ns += rhs.cost_ns;
        self.cleanup_ns += rhs.cleanup_ns;
        self.track_ns += rhs.track_ns;
    }
}

/// Cache-effectiveness counters of the incremental fixpoint engine.
///
/// Like [`StageTimings`], these are observability data, not results: the
/// full-rescan reference engine never touches the caches, so the counters
/// are carried inside [`RolagStats`] but excluded from its [`PartialEq`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FixpointCacheStats {
    /// Blocks whose candidate list was served from the per-block cache.
    pub cand_blocks_reused: u64,
    /// Blocks whose candidate list was (re)collected with `collect_in_block`.
    pub cand_blocks_scanned: u64,
    /// Block size estimates served from the per-block size cache.
    pub size_blocks_reused: u64,
    /// Block size estimates computed fresh.
    pub size_blocks_computed: u64,
    /// Candidate attempts skipped by replaying a memoized reject verdict.
    pub memo_hits: u64,
    /// Candidate attempts actually executed (memo misses, including the
    /// attempts that end up committing).
    pub memo_misses: u64,
}

impl FixpointCacheStats {
    /// Fraction of per-block candidate lookups served from cache.
    pub fn candidate_hit_rate(&self) -> f64 {
        ratio(self.cand_blocks_reused, self.cand_blocks_scanned)
    }

    /// Fraction of block-size lookups served from cache.
    pub fn size_hit_rate(&self) -> f64 {
        ratio(self.size_blocks_reused, self.size_blocks_computed)
    }

    /// Fraction of candidate attempts skipped via verdict memoization.
    pub fn memo_hit_rate(&self) -> f64 {
        ratio(self.memo_hits, self.memo_misses)
    }

    /// `(counter, value)` rows for CSV dumps.
    pub fn rows(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("cand_blocks_reused", self.cand_blocks_reused),
            ("cand_blocks_scanned", self.cand_blocks_scanned),
            ("size_blocks_reused", self.size_blocks_reused),
            ("size_blocks_computed", self.size_blocks_computed),
            ("memo_hits", self.memo_hits),
            ("memo_misses", self.memo_misses),
        ]
    }
}

fn ratio(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        return 0.0;
    }
    hits as f64 / total as f64
}

impl AddAssign for FixpointCacheStats {
    fn add_assign(&mut self, rhs: Self) {
        self.cand_blocks_reused += rhs.cand_blocks_reused;
        self.cand_blocks_scanned += rhs.cand_blocks_scanned;
        self.size_blocks_reused += rhs.size_blocks_reused;
        self.size_blocks_computed += rhs.size_blocks_computed;
        self.memo_hits += rhs.memo_hits;
        self.memo_misses += rhs.memo_misses;
    }
}

/// Counters of the beam-search engine (`rolag::search`).
///
/// Like [`StageTimings`] and [`FixpointCacheStats`], these are
/// observability data, not results: the greedy engine never explores
/// alternatives, and a width-1 beam delegates to greedy wholesale, so the
/// counters are carried inside [`RolagStats`] but excluded from its
/// [`PartialEq`] (beam:1 must be stats-identical to greedy).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Candidates (base groupings plus variants) speculated on the journal.
    pub explored: u64,
    /// Profitable speculations dropped because the beam shortlist was full.
    pub pruned: u64,
    /// Speculations the translation validator refused during search; each
    /// is rolled back and, in the audit configuration, cross-checked
    /// dynamically (`tests/tv_false_rejects.rs`).
    pub tv_rejected: u64,
    /// Functions where the beam's end state measured strictly smaller than
    /// the greedy trial's and was adopted in its place.
    pub adopted: u64,
}

impl SearchStats {
    /// `(counter, value)` rows for CSV/JSON dumps.
    pub fn rows(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("explored", self.explored),
            ("pruned", self.pruned),
            ("tv_rejected", self.tv_rejected),
            ("adopted", self.adopted),
        ]
    }
}

impl AddAssign for SearchStats {
    fn add_assign(&mut self, rhs: Self) {
        self.explored += rhs.explored;
        self.pruned += rhs.pruned;
        self.tv_rejected += rhs.tv_rejected;
        self.adopted += rhs.adopted;
    }
}

/// Aggregate statistics of one pass run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RolagStats {
    /// Alignment graphs attempted.
    pub attempted: u64,
    /// Candidates rejected by the lane-count gate before any graph was
    /// built (fewer lanes than `RolagOptions::min_lanes`).
    pub rejected_lanes: u64,
    /// Graphs rejected by the scheduling analysis.
    pub rejected_schedule: u64,
    /// Graphs generated but rejected by the profitability analysis.
    pub rejected_profit: u64,
    /// Generated rewrites proven correct by the translation validator
    /// (only counted when `RolagOptions::validate` is on).
    pub tv_validated: u64,
    /// Generated rewrites the translation validator refused to prove;
    /// these are rejected before the cost model sees them.
    pub tv_rejected: u64,
    /// Loops committed (successful rolls).
    pub rolled: u64,
    /// Node-kind breakdown over committed (profitable) graphs.
    pub nodes: NodeKindCounts,
    /// Estimated text size before the pass.
    pub size_before: u64,
    /// Estimated text size after the pass.
    pub size_after: u64,
    /// Functions skipped because the engine panicked on them; the original
    /// function was kept verbatim (see `roll_function_rescued`).
    pub rescued: u64,
    /// Per-stage wall-clock breakdown (excluded from equality).
    pub timings: StageTimings,
    /// Incremental-engine cache counters (excluded from equality).
    pub cache: FixpointCacheStats,
    /// Beam-search counters (excluded from equality; all-zero under the
    /// greedy engine and under width-1 beams, which delegate to greedy).
    pub search: SearchStats,
}

impl PartialEq for RolagStats {
    /// Compares pass *outcomes* only; wall-clock [`StageTimings`] are
    /// nondeterministic and intentionally ignored.
    fn eq(&self, other: &Self) -> bool {
        self.attempted == other.attempted
            && self.rejected_lanes == other.rejected_lanes
            && self.rejected_schedule == other.rejected_schedule
            && self.rejected_profit == other.rejected_profit
            && self.tv_validated == other.tv_validated
            && self.tv_rejected == other.tv_rejected
            && self.rolled == other.rolled
            && self.nodes == other.nodes
            && self.size_before == other.size_before
            && self.size_after == other.size_after
            && self.rescued == other.rescued
    }
}

impl Eq for RolagStats {}

impl RolagStats {
    /// Percentage reduction of the estimated text size.
    pub fn reduction_percent(&self) -> f64 {
        if self.size_before == 0 {
            return 0.0;
        }
        100.0 * (self.size_before as f64 - self.size_after as f64) / self.size_before as f64
    }
}

impl AddAssign for RolagStats {
    fn add_assign(&mut self, rhs: Self) {
        self.attempted += rhs.attempted;
        self.rejected_lanes += rhs.rejected_lanes;
        self.rejected_schedule += rhs.rejected_schedule;
        self.rejected_profit += rhs.rejected_profit;
        self.tv_validated += rhs.tv_validated;
        self.tv_rejected += rhs.tv_rejected;
        self.rolled += rhs.rolled;
        self.nodes += rhs.nodes;
        self.size_before += rhs.size_before;
        self.size_after += rhs.size_after;
        self.rescued += rhs.rescued;
        self.timings += rhs.timings;
        self.cache += rhs.cache;
        self.search += rhs.search;
    }
}

impl fmt::Display for RolagStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rolled {} / {} attempts ({} lane-rejected, {} schedule-rejected, {} unprofitable), size {} -> {} ({:+.2}%)",
            self.rolled,
            self.attempted,
            self.rejected_lanes,
            self.rejected_schedule,
            self.rejected_profit,
            self.size_before,
            self.size_after,
            -self.reduction_percent()
        )?;
        if self.tv_validated > 0 || self.tv_rejected > 0 {
            write!(
                f,
                ", tv {} validated / {} rejected",
                self.tv_validated, self.tv_rejected
            )?;
        }
        if self.rescued > 0 {
            write!(f, ", {} function(s) rescued after a panic", self.rescued)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_rows() {
        let c = NodeKindCounts {
            matching: 3,
            sequence: 2,
            ..Default::default()
        };
        assert_eq!(c.total(), 5);
        assert_eq!(c.rows()[0], ("matching", 3));
    }

    #[test]
    fn add_assign_accumulates() {
        let mut a = RolagStats {
            rolled: 1,
            size_before: 100,
            size_after: 80,
            ..Default::default()
        };
        let b = RolagStats {
            rolled: 2,
            size_before: 50,
            size_after: 50,
            ..Default::default()
        };
        a += b;
        assert_eq!(a.rolled, 3);
        assert_eq!(a.size_before, 150);
    }

    #[test]
    fn equality_ignores_timings() {
        let mut a = RolagStats {
            rolled: 2,
            size_before: 10,
            size_after: 8,
            ..Default::default()
        };
        let mut b = a;
        a.timings.seeds_ns = 1_000;
        b.timings.codegen_ns = 999_999;
        assert_eq!(a, b, "wall-clock differences must not break equality");
        b.rolled = 3;
        assert_ne!(a, b, "outcome differences must break equality");
    }

    #[test]
    fn timing_rows_cover_all_stages() {
        let t = StageTimings {
            seeds_ns: 1,
            align_ns: 2,
            schedule_ns: 3,
            codegen_ns: 4,
            tv_ns: 7,
            cost_ns: 5,
            cleanup_ns: 6,
            track_ns: 8,
        };
        assert_eq!(t.total_ns(), 36);
        let rows = t.rows();
        assert_eq!(rows.len(), 8);
        assert_eq!(rows.iter().map(|&(_, v)| v).sum::<u64>(), t.total_ns());
    }

    #[test]
    fn equality_ignores_cache_counters() {
        let a = RolagStats {
            rolled: 2,
            ..Default::default()
        };
        let mut b = a;
        b.cache.memo_hits = 41;
        b.cache.cand_blocks_reused = 7;
        assert_eq!(a, b, "cache counters must not break equality");
    }

    #[test]
    fn equality_ignores_search_counters() {
        // beam:1 delegates to the greedy engine and must compare
        // stats-equal to it, so search counters are observability only.
        let a = RolagStats {
            rolled: 2,
            ..Default::default()
        };
        let mut b = a;
        b.search.explored = 12;
        b.search.tv_rejected = 3;
        b.search.adopted = 1;
        assert_eq!(a, b, "search counters must not break equality");
    }

    #[test]
    fn search_counters_accumulate_and_row() {
        let mut a = SearchStats {
            explored: 2,
            pruned: 1,
            ..Default::default()
        };
        a += SearchStats {
            explored: 3,
            tv_rejected: 4,
            adopted: 1,
            ..Default::default()
        };
        assert_eq!(a.explored, 5);
        assert_eq!(a.tv_rejected, 4);
        assert_eq!(a.rows().len(), 4);
        assert_eq!(a.rows()[0], ("explored", 5));
    }

    #[test]
    fn cache_rates_and_rows() {
        let c = FixpointCacheStats {
            memo_hits: 3,
            memo_misses: 1,
            ..Default::default()
        };
        assert!((c.memo_hit_rate() - 0.75).abs() < 1e-9);
        assert_eq!(c.candidate_hit_rate(), 0.0);
        assert_eq!(c.rows().len(), 6);
    }

    #[test]
    fn reduction_percent() {
        let s = RolagStats {
            size_before: 200,
            size_after: 150,
            ..Default::default()
        };
        assert!((s.reduction_percent() - 25.0).abs() < 1e-9);
        let z = RolagStats::default();
        assert_eq!(z.reduction_percent(), 0.0);
    }
}
