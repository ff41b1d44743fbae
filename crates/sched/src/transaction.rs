//! Transaction model and the scheduler interface.

/// Specification of a multipath transaction: `M` item sizes over `N`
/// paths.
#[derive(Debug, Clone, PartialEq)]
pub struct TransactionSpec {
    /// Item sizes in bytes, in download/playout order.
    pub item_sizes: Vec<f64>,
    /// Number of available paths (`N`); path 0 is conventionally the
    /// ADSL/gateway path, paths `1..N` the 3G devices.
    pub n_paths: usize,
}

impl TransactionSpec {
    /// A transaction of `m` equally sized items over `n` paths.
    pub fn uniform(m: usize, n: usize, size_bytes: f64) -> TransactionSpec {
        TransactionSpec { item_sizes: vec![size_bytes; m], n_paths: n }
    }

    /// A transaction from explicit item sizes.
    pub fn new(item_sizes: Vec<f64>, n_paths: usize) -> TransactionSpec {
        assert!(n_paths >= 1, "a transaction needs at least one path");
        assert!(!item_sizes.is_empty(), "a transaction needs at least one item");
        assert!(item_sizes.iter().all(|s| s.is_finite() && *s >= 0.0));
        TransactionSpec { item_sizes, n_paths }
    }

    /// Number of items (`M`).
    pub fn n_items(&self) -> usize {
        self.item_sizes.len()
    }

    /// Total payload bytes.
    pub fn total_bytes(&self) -> f64 {
        self.item_sizes.iter().sum()
    }

    /// Largest item size (`S_max` in the waste bound `(N−1)·S_max`).
    pub fn max_item_bytes(&self) -> f64 {
        self.item_sizes.iter().cloned().fold(0.0, f64::max)
    }
}

/// A scheduling policy selector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Policy {
    /// The paper's greedy scheduler (GRD).
    Greedy,
    /// Static round-robin (RR).
    RoundRobin,
    /// Minimum-estimated-time with exponential smoothing (MIN).
    MinTime {
        /// Smoothing weight on the newest sample; the paper uses 0.75.
        alpha: f64,
    },
}

impl Policy {
    /// The MIN policy with the paper's α = 0.75.
    pub fn min_time_paper() -> Policy {
        Policy::MinTime { alpha: 0.75 }
    }

    /// Short display name matching the paper's figure legends.
    pub fn label(&self) -> &'static str {
        match self {
            Policy::Greedy => "GRD",
            Policy::RoundRobin => "RR",
            Policy::MinTime { .. } => "MIN",
        }
    }
}

/// An instruction from the scheduler to the transport driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Begin transferring `item` on `path`.
    Start {
        /// Path index in `0..N`.
        path: usize,
        /// Item index in `0..M`.
        item: usize,
    },
    /// Abort the ongoing transfer of `item` on `path` (a duplicate of an
    /// item that has completed elsewhere).
    Abort {
        /// Path index in `0..N`.
        path: usize,
        /// Item index in `0..M`.
        item: usize,
    },
}

/// A multipath transaction scheduler.
///
/// Drivers call [`MultipathScheduler::start`] once, then feed every
/// completion through [`MultipathScheduler::on_complete`], executing the
/// returned commands (aborts before starts). The transaction ends when
/// [`MultipathScheduler::is_done`] is true.
pub trait MultipathScheduler: Send {
    /// Begin the transaction (all paths idle). Returns initial commands.
    fn start(&mut self) -> Vec<Command>;

    /// `item` finished on `path` at time `now`, having transferred
    /// `bytes` over `elapsed_secs` (wall/virtual time the transfer took;
    /// drivers should measure from transfer start to completion). The
    /// returned commands may abort duplicates on other paths and start
    /// new transfers on any path that became idle.
    fn on_complete(
        &mut self,
        path: usize,
        item: usize,
        now: f64,
        bytes: f64,
        elapsed_secs: f64,
    ) -> Vec<Command>;

    /// Notification that a transfer failed (path error). Default: treat
    /// the path as idle again and let the scheduler reassign.
    fn on_failed(&mut self, path: usize, item: usize, now: f64) -> Vec<Command>;

    /// True once every item has completed on some path.
    fn is_done(&self) -> bool;

    /// The next absolute time (same clock as `now`) at which the
    /// scheduler wants a timer tick, if any. Drivers that support
    /// timers call [`MultipathScheduler::on_tick`] at (or after) this
    /// time. Purely time-driven work — e.g. deadline-gated dispatch in
    /// the playout-aware scheduler — relies on this; the paper's three
    /// schedulers never need it.
    fn next_wakeup(&self) -> Option<f64> {
        None
    }

    /// Timer tick at `now`; may emit new commands. Default: no-op.
    fn on_tick(&mut self, _now: f64) -> Vec<Command> {
        Vec::new()
    }

    /// Short display name ("GRD", "RR", "MIN").
    fn name(&self) -> &'static str;
}

/// Book-keeping shared by all scheduler implementations.
#[derive(Debug, Clone)]
pub(crate) struct SharedState {
    pub spec: TransactionSpec,
    /// completed[i]: item i has finished on some path.
    pub completed: Vec<bool>,
    pub n_completed: usize,
    /// inflight[p]: the item path p is currently transferring.
    pub inflight: Vec<Option<usize>>,
}

impl SharedState {
    pub fn new(spec: TransactionSpec) -> SharedState {
        let m = spec.n_items();
        let n = spec.n_paths;
        SharedState { spec, completed: vec![false; m], n_completed: 0, inflight: vec![None; n] }
    }

    /// Record a completion; returns false if the item was already done
    /// (a duplicate copy raced the abort — possible on live transports).
    pub fn complete(&mut self, item: usize) -> bool {
        if self.completed[item] {
            return false;
        }
        self.completed[item] = true;
        self.n_completed += 1;
        true
    }

    pub fn is_done(&self) -> bool {
        self.n_completed == self.spec.n_items()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_accessors() {
        let s = TransactionSpec::new(vec![10.0, 30.0, 20.0], 2);
        assert_eq!(s.n_items(), 3);
        assert_eq!(s.total_bytes(), 60.0);
        assert_eq!(s.max_item_bytes(), 30.0);
        let u = TransactionSpec::uniform(5, 3, 7.0);
        assert_eq!(u.n_items(), 5);
        assert_eq!(u.total_bytes(), 35.0);
    }

    #[test]
    #[should_panic]
    fn zero_paths_rejected() {
        TransactionSpec::new(vec![1.0], 0);
    }

    #[test]
    #[should_panic]
    fn empty_items_rejected() {
        TransactionSpec::new(vec![], 1);
    }

    #[test]
    fn policy_labels() {
        assert_eq!(Policy::Greedy.label(), "GRD");
        assert_eq!(Policy::RoundRobin.label(), "RR");
        assert_eq!(Policy::min_time_paper().label(), "MIN");
        match Policy::min_time_paper() {
            Policy::MinTime { alpha } => assert_eq!(alpha, 0.75),
            _ => panic!(),
        }
    }

    #[test]
    fn shared_state_counts_unique_completions() {
        let mut s = SharedState::new(TransactionSpec::uniform(2, 1, 1.0));
        assert!(s.complete(0));
        assert!(!s.complete(0)); // duplicate
        assert!(!s.is_done());
        assert!(s.complete(1));
        assert!(s.is_done());
    }
}
