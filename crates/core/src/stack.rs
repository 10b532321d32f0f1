//! The characterization-stack machine (paper Sec. 3.3).
//!
//! While dependence instrumentation is active, the engine maintains a stack
//! of the currently open loops; each entry is the paper's triple:
//!
//! > "a loop unique identifier, the current value of a counter of how many
//! > times the entire loop has been seen so far, and the current iteration
//! > of the loop."
//!
//! Bindings and objects are stamped with a copy of this stack at creation;
//! property writes additionally snapshot it per `(object, property)`.
//! Diffing a stamp/snapshot against the current stack yields the `ok` /
//! `dependence` triple lists of the paper's warnings, e.g.
//! `while(line 24) ok ok → for(line 6) ok dependence`. Such a list is one
//! level and one bit: every level above the first where the stamp leaves
//! the current stack is `ok ok`, that level is `ok dependence` when it kept
//! the loop instance and `dependence dependence` otherwise, and every
//! deeper level is `dependence dependence` ([`Split`]).

use ceres_ast::{LoopId, LoopInfo};
use std::collections::HashMap;

/// One open loop: `(loop, instance, iteration)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StackEntry {
    pub loop_id: LoopId,
    /// How many times this syntactic loop has been *encountered* so far.
    pub instance: u64,
    /// Current iteration within this instance (0 before the first
    /// `__ceres_iter`).
    pub iteration: u64,
}

/// `ok` / `dependence`, the two values in a warning triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flag {
    Ok,
    Dependence,
}

impl Flag {
    pub fn as_str(&self) -> &'static str {
        match self {
            Flag::Ok => "ok",
            Flag::Dependence => "dependence",
        }
    }
}

/// The level where a stamp leaves the current stack, and whether that
/// level kept the loop instance. `dependence ok` is unrepresentable,
/// matching the paper ("if all instances share the variable, all
/// iterations also share it").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Split {
    /// Same loop instance, another iteration: `ok dependence`.
    Iteration(usize),
    /// Another loop instance: `dependence dependence`.
    Instance(usize),
}

impl Split {
    pub fn level(self) -> usize {
        match self {
            Split::Iteration(level) | Split::Instance(level) => level,
        }
    }
}

/// The `→`-separated list of triples in a warning: one level per loop open
/// at the access, outermost first, split at `split` (every level `ok ok`
/// when there is none).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Characterization {
    pub loops: Vec<LoopId>,
    pub split: Option<Split>,
}

impl Characterization {
    /// The characterization of an access split at `split` from `current`.
    pub fn at(current: &[StackEntry], split: Option<Split>) -> Characterization {
        Characterization {
            loops: current.iter().map(|e| e.loop_id).collect(),
            split,
        }
    }

    /// Each level's `(loop, instance, iteration)` triple, outermost first.
    pub fn levels(&self) -> impl Iterator<Item = (LoopId, Flag, Flag)> + '_ {
        self.loops
            .iter()
            .enumerate()
            .map(|(i, &id)| match self.split {
                Some(Split::Iteration(level)) if i == level => (id, Flag::Ok, Flag::Dependence),
                Some(split) if i >= split.level() => (id, Flag::Dependence, Flag::Dependence),
                _ => (id, Flag::Ok, Flag::Ok),
            })
    }
}

/// Render a characterization the way the paper prints them:
/// `while(line 24) ok ok -> for(line 6) ok dependence`.
pub fn render(c: &Characterization, loops: &HashMap<LoopId, LoopInfo>) -> String {
    c.levels()
        .map(|(id, instance, iteration)| {
            let name = loops
                .get(&id)
                .map(|i| i.display_name())
                .unwrap_or_else(|| format!("{id}"));
            format!("{name} {} {}", instance.as_str(), iteration.as_str())
        })
        .collect::<Vec<_>>()
        .join(" -> ")
}

/// How many leading levels of `stamp` match `current` exactly (same loop,
/// instance and iteration).
pub fn matched(stamp: &[StackEntry], current: &[StackEntry]) -> usize {
    stamp
        .iter()
        .zip(current)
        .take_while(|(s, c)| s == c)
        .count()
}

/// Characterize a **write** against a creation stamp (warning types (a) and
/// (b)): `None` when every open level matches, else the split at level
/// `m = matched(stamp, current)`:
///
/// * stamp has the same loop and instance there, an older iteration →
///   [`Split::Iteration`];
/// * stamp has another loop or instance there → [`Split::Instance`];
/// * stamp exhausted at level 0 → the location predates every open loop:
///   [`Split::Instance`];
/// * stamp exhausted deeper → created inside the current iteration of the
///   parent, before this loop opened: [`Split::Iteration`] (the Fig. 6 `p`
///   case).
pub fn characterize(stamp: &[StackEntry], current: &[StackEntry]) -> Option<Split> {
    let m = matched(stamp, current);
    let cur = current.get(m)?;
    Some(match stamp.get(m) {
        Some(st) if st.loop_id == cur.loop_id && st.instance == cur.instance => Split::Iteration(m),
        None if m > 0 => Split::Iteration(m),
        _ => Split::Instance(m),
    })
}

/// Check a **read** against the last-write snapshot (warning type (c)).
///
/// A flow (read-after-write) dependence exists iff the snapshot leaves the
/// current stack at a level with the *same loop and instance* but a
/// *different iteration* — i.e. the value was written by another iteration
/// of a loop instance we are still inside. Writes from before the loop
/// instance (or from a different instance) are loop inputs, and a write
/// from this very iteration is private: both return `None`.
pub fn flow(snapshot: &[StackEntry], current: &[StackEntry]) -> Option<Split> {
    let m = matched(snapshot, current);
    match (snapshot.get(m), current.get(m)) {
        (Some(st), Some(cur)) if st.loop_id == cur.loop_id && st.instance == cur.instance => {
            Some(Split::Iteration(m))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceres_ast::Span;

    fn entry(id: u32, inst: u64, iter: u64) -> StackEntry {
        StackEntry {
            loop_id: LoopId(id),
            instance: inst,
            iteration: iter,
        }
    }

    /// Each level's `(instance, iteration)` flags.
    fn flags(c: &Characterization) -> Vec<(Flag, Flag)> {
        c.levels().map(|(_, inst, iter)| (inst, iter)).collect()
    }

    fn loop_table() -> HashMap<LoopId, LoopInfo> {
        let mut m = HashMap::new();
        m.insert(
            LoopId(1),
            LoopInfo {
                id: LoopId(1),
                kind: "while",
                span: Span::new(0, 0, 24),
            },
        );
        m.insert(
            LoopId(2),
            LoopInfo {
                id: LoopId(2),
                kind: "for",
                span: Span::new(0, 0, 6),
            },
        );
        m
    }

    use Flag::{Dependence as D, Ok as O};

    #[test]
    fn fig6_variable_p_characterization() {
        // p declared at step() entry: stamp = [while(i1, j)];
        // write inside the for: current = [while(i1, j), for(i2, k)].
        let stamp = [entry(1, 1, 3)];
        let current = [entry(1, 1, 3), entry(2, 4, 7)];
        let split = characterize(&stamp, &current);
        assert_eq!(split, Some(Split::Iteration(1)));
        let c = Characterization::at(&current, split);
        assert_eq!(flags(&c), [(O, O), (O, D)]);
        assert_eq!(
            render(&c, &loop_table()),
            "while(line 24) ok ok -> for(line 6) ok dependence"
        );
    }

    #[test]
    fn private_access_is_clean() {
        // Created and written in the same iteration of every open loop.
        let stamp = [entry(1, 1, 3), entry(2, 4, 7)];
        let current = [entry(1, 1, 3), entry(2, 4, 7)];
        assert_eq!(characterize(&stamp, &current), None);
        assert_eq!(
            flags(&Characterization::at(&current, None)),
            [(O, O), (O, O)]
        );
    }

    #[test]
    fn global_variable_is_fully_shared() {
        // Created before any loop: stamp empty.
        let current = [entry(1, 1, 3), entry(2, 4, 7)];
        let split = characterize(&[], &current);
        assert_eq!(split, Some(Split::Instance(0)));
        assert_eq!(
            flags(&Characterization::at(&current, split)),
            [(D, D), (D, D)]
        );
    }

    #[test]
    fn older_iteration_of_outer_loop() {
        // Created in an earlier iteration of the while.
        let stamp = [entry(1, 1, 2)];
        let current = [entry(1, 1, 5), entry(2, 4, 0)];
        let split = characterize(&stamp, &current);
        assert_eq!(split, Some(Split::Iteration(0)));
        assert_eq!(
            flags(&Characterization::at(&current, split)),
            [(O, D), (D, D)]
        );
    }

    #[test]
    fn different_instance_breaks_everything() {
        let stamp = [entry(1, 1, 2)];
        let current = [entry(1, 2, 0)];
        let split = characterize(&stamp, &current);
        assert_eq!(split, Some(Split::Instance(0)));
        assert_eq!(flags(&Characterization::at(&current, split)), [(D, D)]);
    }

    #[test]
    fn fig6_flow_read_on_com() {
        // com.x written in iteration k-1, read in iteration k, same
        // instances throughout.
        let snapshot = [entry(1, 1, 3), entry(2, 4, 6)];
        let current = [entry(1, 1, 3), entry(2, 4, 7)];
        let split = flow(&snapshot, &current).expect("flow dep");
        assert_eq!(
            render(&Characterization::at(&current, Some(split)), &loop_table()),
            "while(line 24) ok ok -> for(line 6) ok dependence"
        );
    }

    #[test]
    fn reads_of_loop_inputs_are_not_flow_deps() {
        // Written before the while started.
        assert!(flow(&[], &[entry(1, 1, 3), entry(2, 4, 7)]).is_none());
        // Written in a previous instance of the for (different instance).
        let snapshot = [entry(1, 1, 2), entry(2, 3, 9)];
        let current = [entry(1, 1, 3), entry(2, 4, 0)];
        // while iteration differs → flow dep at the while level (a true
        // cross-step dependence).
        let split = flow(&snapshot, &current).expect("cross-while flow dep");
        assert_eq!(
            flags(&Characterization::at(&current, Some(split))),
            [(O, D), (D, D)]
        );
    }

    #[test]
    fn same_iteration_write_then_read_is_clean() {
        let s = [entry(1, 1, 3), entry(2, 4, 7)];
        assert!(flow(&s, &s).is_none());
    }

    #[test]
    fn write_from_inner_loop_read_outside_is_clean() {
        // Written deeper (inner loop), read after the inner loop closed but
        // in the same outer iteration.
        let snapshot = [entry(1, 1, 3), entry(2, 4, 7)];
        let current = [entry(1, 1, 3)];
        assert!(flow(&snapshot, &current).is_none());
    }
}
