//! Names of the host functions the rewriter inserts, and the per-hook
//! call tally.
//!
//! The names are defined once, in [`ceres_interp::hooks`], because the
//! bytecode compiler (which lowers each rewriter call site to a typed hook
//! instruction) cannot see this crate; they are re-exported here, where
//! the rewriter and `ceres-core`'s registration loop use them.

pub use ceres_interp::hooks::{
    hook_index, ALL_HOOKS, DECLVARS, GETPROP, HOOK_COUNT, ITER, LOOP_ENTER, LOOP_EXIT, LW_ENTER,
    LW_EXIT, MCALL, SETPROP, SETPROP2, UPDATE_PROP, WRAP, WRVAR,
};

/// Per-hook invocation counts for one run: a fixed array indexed by
/// [`hook_index`], so bumping a counter inside the hot dependence hooks is
/// one add. Read out by name (or iterated) when the run is reduced to
/// metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HookTally {
    counts: [u64; HOOK_COUNT],
}

impl Default for HookTally {
    fn default() -> Self {
        HookTally::new()
    }
}

impl HookTally {
    /// A tally with every count at zero.
    pub fn new() -> HookTally {
        HookTally {
            counts: [0; HOOK_COUNT],
        }
    }

    /// Record one invocation of the hook at `index` (from [`hook_index`]).
    #[inline]
    pub fn bump(&mut self, index: usize) {
        self.counts[index] += 1;
    }

    /// Invocations of `name` so far.
    pub fn get(&self, name: &str) -> u64 {
        self.counts[hook_index(name)]
    }

    /// Total invocations across every hook.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// `(hook name, count)` pairs in [`ALL_HOOKS`] order — a deterministic
    /// iteration order, so merged metrics never depend on hash seeds.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        ALL_HOOKS.iter().zip(self.counts).map(|(h, n)| (*h, n))
    }

    /// Only the hooks that fired, in [`ALL_HOOKS`] order.
    pub fn nonzero(&self) -> Vec<(&'static str, u64)> {
        self.iter().filter(|(_, n)| *n > 0).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hook_count_matches_the_registry() {
        assert_eq!(ALL_HOOKS.len(), HOOK_COUNT);
    }

    #[test]
    fn hook_index_round_trips_every_name() {
        for (i, h) in ALL_HOOKS.iter().enumerate() {
            assert_eq!(hook_index(h), i);
        }
    }

    #[test]
    #[should_panic(expected = "unknown hook")]
    fn hook_index_rejects_unknown_names() {
        hook_index("__ceres_bogus");
    }

    #[test]
    fn tally_counts_by_index_and_reads_by_name() {
        let mut t = HookTally::new();
        let wrvar = hook_index(WRVAR);
        t.bump(wrvar);
        t.bump(wrvar);
        t.bump(hook_index(MCALL));
        assert_eq!(t.get(WRVAR), 2);
        assert_eq!(t.get(MCALL), 1);
        assert_eq!(t.get(LW_ENTER), 0);
        assert_eq!(t.total(), 3);
        assert_eq!(t.nonzero(), vec![(WRVAR, 2), (MCALL, 1)]);
    }

    #[test]
    fn hook_names_are_unique_and_prefixed() {
        let mut seen = std::collections::HashSet::new();
        for h in ALL_HOOKS {
            assert!(h.starts_with("__ceres_"), "{h} must be namespaced");
            assert!(seen.insert(h), "{h} duplicated");
        }
    }
}
