//! Property tests for the characterization-stack algebra (paper Sec. 3.3).

use ceres_ast::LoopId;
use ceres_core::stack::{characterize, flow, matched, Characterization, Flag, Split, StackEntry};
use proptest::prelude::*;

fn entry_strategy() -> impl Strategy<Value = StackEntry> {
    (1u32..6, 1u64..8, 0u64..8).prop_map(|(l, inst, iter)| StackEntry {
        loop_id: LoopId(l),
        instance: inst,
        iteration: iter,
    })
}

/// A plausible open-loop stack: distinct loop ids along the nest (a loop
/// can only be open once unless recursion tainted the run).
fn stack_strategy() -> impl Strategy<Value = Vec<StackEntry>> {
    prop::collection::vec(entry_strategy(), 0..5).prop_map(|mut v| {
        let mut seen = std::collections::HashSet::new();
        v.retain(|e| seen.insert(e.loop_id));
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn dependence_ok_is_never_produced(stamp in stack_strategy(), current in stack_strategy()) {
        let c = Characterization::at(&current, characterize(&stamp, &current));
        for (_, instance, iteration) in c.levels() {
            prop_assert!(
                !(instance == Flag::Dependence && iteration == Flag::Ok),
                "invalid `dependence ok` from stamp {stamp:?} vs {current:?}"
            );
        }
    }

    #[test]
    fn characterization_has_one_level_per_open_loop(
        stamp in stack_strategy(),
        current in stack_strategy(),
    ) {
        let c = Characterization::at(&current, characterize(&stamp, &current));
        prop_assert_eq!(c.levels().count(), current.len());
        for ((id, _, _), cur) in c.levels().zip(&current) {
            prop_assert_eq!(id, cur.loop_id);
        }
    }

    #[test]
    fn dependence_is_suffix_closed(stamp in stack_strategy(), current in stack_strategy()) {
        // Once a level shows any dependence, every deeper level must show
        // iteration-dependence too (a location shared across iterations of
        // an outer loop is shared across everything inside it).
        let c = Characterization::at(&current, characterize(&stamp, &current));
        let mut broken = false;
        for (_, _, iteration) in c.levels() {
            if broken {
                prop_assert_eq!(iteration, Flag::Dependence);
            }
            if iteration == Flag::Dependence {
                broken = true;
            }
        }
    }

    #[test]
    fn identical_stamp_and_stack_is_clean(stack in stack_strategy()) {
        prop_assert_eq!(characterize(&stack, &stack), None);
        // And a read of a value written this very iteration is no flow dep.
        prop_assert!(flow(&stack, &stack).is_none());
    }

    #[test]
    fn flow_dependence_requires_matching_instance_prefix(
        snapshot in stack_strategy(),
        current in stack_strategy(),
    ) {
        if let Some(split) = flow(&snapshot, &current) {
            // The found level: all levels above it matched exactly, and the
            // level itself matched loop+instance but not iteration.
            prop_assert!(matches!(split, Split::Iteration(_)));
            let found = split.level();
            prop_assert_eq!(&snapshot[..found], &current[..found]);
            prop_assert_eq!(snapshot[found].loop_id, current[found].loop_id);
            prop_assert_eq!(snapshot[found].instance, current[found].instance);
            prop_assert_ne!(snapshot[found].iteration, current[found].iteration);
        }
    }

    #[test]
    fn flow_dependence_is_a_write_characterization(
        snapshot in stack_strategy(),
        current in stack_strategy(),
    ) {
        // A read that depends on another iteration's write sees the same
        // split the write itself would have been characterized with.
        if let Some(split) = flow(&snapshot, &current) {
            prop_assert_eq!(characterize(&snapshot, &current), Some(split));
        }
    }

    #[test]
    fn split_level_is_the_matched_prefix(
        stamp in stack_strategy(),
        current in stack_strategy(),
    ) {
        let m = matched(&stamp, &current);
        for split in [characterize(&stamp, &current), flow(&stamp, &current)]
            .into_iter()
            .flatten()
        {
            prop_assert_eq!(split.level(), m);
        }
        prop_assert_eq!(characterize(&stamp, &current).is_none(), m == current.len());
    }

    #[test]
    fn deeper_iteration_makes_write_problematic(
        stack in stack_strategy().prop_filter("non-empty", |s| !s.is_empty()),
        bump in 1u64..5,
    ) {
        // Advance the innermost iteration: the old stamp must now show a
        // dependence at exactly that level.
        let mut current = stack.clone();
        let last = current.len() - 1;
        current[last].iteration += bump;
        prop_assert_eq!(characterize(&stack, &current), Some(Split::Iteration(last)));
        let c = Characterization::at(&current, characterize(&stack, &current));
        for (i, (_, instance, iteration)) in c.levels().enumerate() {
            prop_assert_eq!(instance, Flag::Ok);
            prop_assert_eq!(iteration == Flag::Dependence, i == last);
        }
        // And the read side agrees it is a flow dependence at that level.
        prop_assert_eq!(flow(&stack, &current), Some(Split::Iteration(last)));
    }
}
