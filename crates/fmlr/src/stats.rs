//! Parser instrumentation: the subparser counts behind the paper's
//! Figure 8 and the activity counters behind Table 3's parser rows.

use std::fmt;

/// Counters for one parse. Each field's class and merge rule are
/// declared once, after the struct.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ParseStats {
    /// Iterations of the main FMLR loop (one subparser step each).
    pub iterations: u64,
    /// Maximum live subparsers observed at any iteration (Fig. 8a).
    pub max_subparsers: usize,
    /// Histogram: `subparser_hist[n]` = iterations that ran with exactly
    /// `n` live subparsers (Fig. 8b's distribution; saturates at the last
    /// bucket).
    pub subparser_hist: Vec<u64>,
    /// Subparsers created by forking.
    pub forks: u64,
    /// Merges performed.
    pub merges: u64,
    /// Merge-index candidates probed while looking for a merge partner
    /// (each probe walks two stack spines in the worst case).
    pub merge_probes: u64,
    /// Shift actions.
    pub shifts: u64,
    /// Reduce actions.
    pub reduces: u64,
    /// Reduces shared across multiple heads (shared-reduce savings).
    pub shared_reduces: u64,
    /// Shifts delayed by multi-headed subparsers (lazy-shift savings).
    pub lazy_shifts: u64,
    /// Extra subparsers forked on ambiguously-defined names (typedefs).
    pub reclassify_forks: u64,
    /// Static choice nodes created while merging semantic values.
    pub choice_nodes: u64,
    /// Budget-governance events (each shed/kill-all/fork-trim is one).
    pub budget_trips: u64,
    /// Subparsers (or fork groups) killed by budget governance.
    pub budget_killed: u64,
    /// Tokens shifted inside the deterministic fast path. A gauge of how
    /// much of the input ran on the scratch-stack loop; zero with
    /// `--no-fastpath`. The fast path changes *how* work is scheduled,
    /// never what it produces.
    pub fastpath_tokens: u64,
    /// Times the engine entered the deterministic fast path (committed at
    /// least one step there). Entry needs only a single-headed subparser
    /// at the front of the queue; others may be queued behind it.
    pub fastpath_entries: u64,
    /// Times the fast path persisted its scratch stack and re-entered the
    /// general FMLR queue: a conditional or typedef split ended the
    /// stretch, or its head reached the position of the queue minimum.
    /// Two subparsers sharing a head exit after every step until they
    /// merge. Entries that terminate inside the fast path — accept,
    /// error, budget kill — do not count an exit.
    pub fastpath_exits: u64,
}

superc_util::counters!(ParseStats in "fmlr" {
    iterations: Behavior Sum,
    max_subparsers: Behavior Max,
    forks: Behavior Sum,
    merges: Behavior Sum,
    merge_probes: Mode Sum,
    shifts: Behavior Sum,
    reduces: Behavior Sum,
    shared_reduces: Behavior Sum,
    lazy_shifts: Behavior Sum,
    reclassify_forks: Behavior Sum,
    choice_nodes: Behavior Sum,
    budget_trips: Behavior Sum,
    budget_killed: Behavior Sum,
    fastpath_tokens: Mode Sum,
    fastpath_entries: Mode Sum,
    fastpath_exits: Mode Sum,
} histograms [subparser_hist]);

impl ParseStats {
    pub(crate) fn observe_live(&mut self, live: usize) {
        self.iterations += 1;
        self.max_subparsers = self.max_subparsers.max(live);
        let bucket = live.min(4095);
        if self.subparser_hist.len() <= bucket {
            self.subparser_hist.resize(bucket + 1, 0);
        }
        self.subparser_hist[bucket] += 1;
    }

    /// The `q`-quantile (e.g. 0.99) of live-subparser counts across
    /// iterations, from the histogram.
    pub fn subparser_quantile(&self, q: f64) -> usize {
        let total: u64 = self.subparser_hist.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = (total as f64 * q).ceil() as u64;
        let mut seen = 0;
        for (n, &count) in self.subparser_hist.iter().enumerate() {
            seen += count;
            if seen >= target {
                return n;
            }
        }
        self.subparser_hist.len() - 1
    }

    /// Accumulates another parse's counters (for corpus-level reporting).
    pub fn merge(&mut self, other: &ParseStats) {
        superc_util::counters::merge(self, other);
        if self.subparser_hist.len() < other.subparser_hist.len() {
            self.subparser_hist.resize(other.subparser_hist.len(), 0);
        }
        for (i, &c) in other.subparser_hist.iter().enumerate() {
            self.subparser_hist[i] += c;
        }
    }
}

impl fmt::Display for ParseStats {
    /// One-line activity summary for logs and `--stats` output.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} shifts, {} reduces, {} forks, {} merges ({} probes), \
             {} choice nodes, max {} subparsers",
            self.shifts,
            self.reduces,
            self.forks,
            self.merges,
            self.merge_probes,
            self.choice_nodes,
            self.max_subparsers,
        )
    }
}
