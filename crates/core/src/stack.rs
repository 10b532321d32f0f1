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
//! `while(line 24) ok ok → for(line 6) ok dependence`.

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

/// Per-level characterization of one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelChar {
    pub loop_id: LoopId,
    /// Do different runtime *instances* of this loop share the location?
    pub instance: Flag,
    /// Do different *iterations* share it?
    pub iteration: Flag,
}

/// The `→`-separated list of triples in a warning.
pub type Characterization = Vec<LevelChar>;

/// True when any level carries a dependence (the access is problematic).
pub fn is_problematic(c: &Characterization) -> bool {
    c.iter()
        .any(|l| l.instance == Flag::Dependence || l.iteration == Flag::Dependence)
}

/// Render a characterization the way the paper prints them:
/// `while(line 24) ok ok -> for(line 6) ok dependence`.
pub fn render(c: &Characterization, loops: &HashMap<LoopId, LoopInfo>) -> String {
    c.iter()
        .map(|l| {
            let name = loops
                .get(&l.loop_id)
                .map(|i| i.display_name())
                .unwrap_or_else(|| format!("{}", l.loop_id));
            format!("{} {} {}", name, l.instance.as_str(), l.iteration.as_str())
        })
        .collect::<Vec<_>>()
        .join(" -> ")
}

/// Characterize a **write** against a creation stamp (warning types (a) and
/// (b)). Walks the current stack outermost-first:
///
/// * level matches stamp (same loop, instance, iteration) → `ok ok`;
/// * same loop+instance, older iteration → `ok dependence`, deeper levels
///   all `dependence dependence`;
/// * different loop/instance → `dependence dependence` from here down;
/// * stamp exhausted at level 0 → the location predates every open loop:
///   `dependence dependence` everywhere;
/// * stamp exhausted deeper → created inside the current iteration of the
///   parent, before this loop opened: `ok dependence`, deeper levels
///   `dependence dependence` (the Fig. 6 `p` case).
///
/// `dependence ok` is unrepresentable, matching the paper ("if all
/// instances share the variable, all iterations also share it").
pub fn characterize_write(stamp: &[StackEntry], current: &[StackEntry]) -> Characterization {
    let mut out = Vec::with_capacity(current.len());
    let mut broken = false;
    for (i, cur) in current.iter().enumerate() {
        if broken {
            out.push(LevelChar {
                loop_id: cur.loop_id,
                instance: Flag::Dependence,
                iteration: Flag::Dependence,
            });
            continue;
        }
        match stamp.get(i) {
            Some(st) if st.loop_id == cur.loop_id && st.instance == cur.instance => {
                if st.iteration == cur.iteration {
                    out.push(LevelChar {
                        loop_id: cur.loop_id,
                        instance: Flag::Ok,
                        iteration: Flag::Ok,
                    });
                } else {
                    out.push(LevelChar {
                        loop_id: cur.loop_id,
                        instance: Flag::Ok,
                        iteration: Flag::Dependence,
                    });
                    broken = true;
                }
            }
            Some(_) => {
                out.push(LevelChar {
                    loop_id: cur.loop_id,
                    instance: Flag::Dependence,
                    iteration: Flag::Dependence,
                });
                broken = true;
            }
            None => {
                if i == 0 {
                    out.push(LevelChar {
                        loop_id: cur.loop_id,
                        instance: Flag::Dependence,
                        iteration: Flag::Dependence,
                    });
                } else {
                    out.push(LevelChar {
                        loop_id: cur.loop_id,
                        instance: Flag::Ok,
                        iteration: Flag::Dependence,
                    });
                }
                broken = true;
            }
        }
    }
    out
}

/// Check a **read** against the last-write snapshot (warning type (c)).
///
/// A flow (read-after-write) dependence exists iff, walking levels matched
/// so far, some level has the *same loop and instance* but a *different
/// iteration* — i.e. the value was written by another iteration of a loop
/// instance we are still inside. Writes from before the loop instance (or
/// from a different instance) are loop inputs, not flow dependencies, and
/// return `None`.
pub fn flow_dependence(
    snapshot: &[StackEntry],
    current: &[StackEntry],
) -> Option<Characterization> {
    let mut out = Vec::with_capacity(current.len());
    for (i, cur) in current.iter().enumerate() {
        match snapshot.get(i) {
            Some(st) if st.loop_id == cur.loop_id && st.instance == cur.instance => {
                if st.iteration == cur.iteration {
                    out.push(LevelChar {
                        loop_id: cur.loop_id,
                        instance: Flag::Ok,
                        iteration: Flag::Ok,
                    });
                } else {
                    // Found the flow dependence level.
                    out.push(LevelChar {
                        loop_id: cur.loop_id,
                        instance: Flag::Ok,
                        iteration: Flag::Dependence,
                    });
                    for deeper in &current[i + 1..] {
                        out.push(LevelChar {
                            loop_id: deeper.loop_id,
                            instance: Flag::Dependence,
                            iteration: Flag::Dependence,
                        });
                    }
                    return Some(out);
                }
            }
            // Written outside this loop instance: an input, not a flow dep.
            _ => return None,
        }
    }
    // All levels matched: the write happened in this very iteration.
    None
}

// ----------------------------------------------------------------------
// Compact characterizations (per-loop bitsets)
// ----------------------------------------------------------------------

/// Deepest loop stack the bitset representation covers. [`characterize`]
/// and [`flow`] fall back to the `Vec`-based functions beyond this
/// (recursion can re-enter the same loop and grow the stack arbitrarily);
/// in practice every workload stays far below it.
pub const CHAR_BITS_MAX_DEPTH: usize = 64;

/// A characterization packed into per-loop bitsets: bit `i` of
/// `inst`/`iter` is set when level `i` (outermost-first) carries an
/// instance/iteration dependence. The loop ids are implicit — always the
/// ids of the current stack the access was characterized against — so a
/// whole characterization is 20 `Copy` bytes and "is this problematic?"
/// is one OR. Only when a *new* warning is materialized is it
/// [`expand`](CharBits::expand)ed back into the rendered [`Characterization`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CharBits {
    /// Number of levels (= depth of the current stack at the access).
    pub depth: u32,
    /// Instance-dependence bits, bit `i` = level `i`.
    pub inst: u64,
    /// Iteration-dependence bits, bit `i` = level `i`.
    pub iter: u64,
}

impl CharBits {
    /// True when any level carries a dependence (cf. [`is_problematic`]).
    #[inline]
    pub fn problematic(self) -> bool {
        (self.inst | self.iter) != 0
    }

    /// Materialize the full characterization, taking loop ids from the
    /// stack the access was characterized against.
    pub fn expand(self, current: &[StackEntry]) -> Characterization {
        current
            .iter()
            .take(self.depth as usize)
            .enumerate()
            .map(|(i, e)| LevelChar {
                loop_id: e.loop_id,
                instance: if self.inst >> i & 1 == 1 {
                    Flag::Dependence
                } else {
                    Flag::Ok
                },
                iteration: if self.iter >> i & 1 == 1 {
                    Flag::Dependence
                } else {
                    Flag::Ok
                },
            })
            .collect()
    }

    /// Does an already-materialized characterization equal this one (same
    /// loop ids, same flags)? Used for warning dedup without allocating.
    pub fn matches(self, c: &Characterization, current: &[StackEntry]) -> bool {
        if c.len() != self.depth as usize {
            return false;
        }
        c.iter().enumerate().all(|(i, l)| {
            l.loop_id == current[i].loop_id
                && (l.instance == Flag::Dependence) == (self.inst >> i & 1 == 1)
                && (l.iteration == Flag::Dependence) == (self.iter >> i & 1 == 1)
        })
    }
}

/// Bitset variant of [`characterize_write`] — identical classification,
/// no allocation. Caller must ensure `current.len() <= CHAR_BITS_MAX_DEPTH`.
fn characterize_write_bits(stamp: &[StackEntry], current: &[StackEntry]) -> CharBits {
    debug_assert!(current.len() <= CHAR_BITS_MAX_DEPTH);
    let mut bits = CharBits {
        depth: current.len() as u32,
        inst: 0,
        iter: 0,
    };
    let mut broken = false;
    for (i, cur) in current.iter().enumerate() {
        if broken {
            bits.inst |= 1 << i;
            bits.iter |= 1 << i;
            continue;
        }
        match stamp.get(i) {
            Some(st) if st.loop_id == cur.loop_id && st.instance == cur.instance => {
                if st.iteration != cur.iteration {
                    bits.iter |= 1 << i;
                    broken = true;
                }
            }
            Some(_) => {
                bits.inst |= 1 << i;
                bits.iter |= 1 << i;
                broken = true;
            }
            None => {
                if i == 0 {
                    bits.inst |= 1 << i;
                }
                bits.iter |= 1 << i;
                broken = true;
            }
        }
    }
    bits
}

/// Bitset variant of [`flow_dependence`] — identical classification, no
/// allocation. Caller must ensure `current.len() <= CHAR_BITS_MAX_DEPTH`.
fn flow_dependence_bits(snapshot: &[StackEntry], current: &[StackEntry]) -> Option<CharBits> {
    debug_assert!(current.len() <= CHAR_BITS_MAX_DEPTH);
    for (i, cur) in current.iter().enumerate() {
        match snapshot.get(i) {
            Some(st) if st.loop_id == cur.loop_id && st.instance == cur.instance => {
                if st.iteration != cur.iteration {
                    let mut bits = CharBits {
                        depth: current.len() as u32,
                        inst: 0,
                        iter: 1 << i,
                    };
                    for deeper in i + 1..current.len() {
                        bits.inst |= 1 << deeper;
                        bits.iter |= 1 << deeper;
                    }
                    return Some(bits);
                }
            }
            _ => return None,
        }
    }
    None
}

/// One access's characterization in the cheapest form that holds it:
/// [`CharBits`] up to [`CHAR_BITS_MAX_DEPTH`] levels, the full
/// [`Characterization`] beyond.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Characterized {
    Bits(CharBits),
    Full(Characterization),
}

impl Characterized {
    /// True when any level carries a dependence.
    pub fn problematic(&self) -> bool {
        match self {
            Characterized::Bits(b) => b.problematic(),
            Characterized::Full(c) => is_problematic(c),
        }
    }

    /// Does the materialized `c` equal this one (see [`CharBits::matches`])?
    pub fn matches(&self, c: &Characterization, current: &[StackEntry]) -> bool {
        match self {
            Characterized::Bits(b) => b.matches(c, current),
            Characterized::Full(full) => full == c,
        }
    }

    /// The full characterization (see [`CharBits::expand`]).
    pub fn expand(self, current: &[StackEntry]) -> Characterization {
        match self {
            Characterized::Bits(b) => b.expand(current),
            Characterized::Full(c) => c,
        }
    }
}

/// [`characterize_write`], as bitsets when the stack is shallow enough.
pub fn characterize(stamp: &[StackEntry], current: &[StackEntry]) -> Characterized {
    if current.len() <= CHAR_BITS_MAX_DEPTH {
        Characterized::Bits(characterize_write_bits(stamp, current))
    } else {
        Characterized::Full(characterize_write(stamp, current))
    }
}

/// [`flow_dependence`], as bitsets when the stack is shallow enough.
pub fn flow(snapshot: &[StackEntry], current: &[StackEntry]) -> Option<Characterized> {
    if current.len() <= CHAR_BITS_MAX_DEPTH {
        flow_dependence_bits(snapshot, current).map(Characterized::Bits)
    } else {
        flow_dependence(snapshot, current).map(Characterized::Full)
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

    #[test]
    fn fig6_variable_p_characterization() {
        // p declared at step() entry: stamp = [while(i1, j)];
        // write inside the for: current = [while(i1, j), for(i2, k)].
        let stamp = [entry(1, 1, 3)];
        let current = [entry(1, 1, 3), entry(2, 4, 7)];
        let c = characterize_write(&stamp, &current);
        assert_eq!(
            c,
            vec![
                LevelChar {
                    loop_id: LoopId(1),
                    instance: Flag::Ok,
                    iteration: Flag::Ok
                },
                LevelChar {
                    loop_id: LoopId(2),
                    instance: Flag::Ok,
                    iteration: Flag::Dependence
                },
            ]
        );
        assert!(is_problematic(&c));
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
        let c = characterize_write(&stamp, &current);
        assert!(!is_problematic(&c));
        assert!(c
            .iter()
            .all(|l| l.instance == Flag::Ok && l.iteration == Flag::Ok));
    }

    #[test]
    fn global_variable_is_fully_shared() {
        // Created before any loop: stamp empty.
        let current = [entry(1, 1, 3), entry(2, 4, 7)];
        let c = characterize_write(&[], &current);
        assert_eq!(c[0].instance, Flag::Dependence);
        assert_eq!(c[0].iteration, Flag::Dependence);
        assert_eq!(c[1].instance, Flag::Dependence);
    }

    #[test]
    fn older_iteration_of_outer_loop() {
        // Created in an earlier iteration of the while.
        let stamp = [entry(1, 1, 2)];
        let current = [entry(1, 1, 5), entry(2, 4, 0)];
        let c = characterize_write(&stamp, &current);
        assert_eq!(c[0].instance, Flag::Ok);
        assert_eq!(c[0].iteration, Flag::Dependence);
        assert_eq!(c[1].instance, Flag::Dependence);
        assert_eq!(c[1].iteration, Flag::Dependence);
    }

    #[test]
    fn different_instance_breaks_everything() {
        let stamp = [entry(1, 1, 2)];
        let current = [entry(1, 2, 0)];
        let c = characterize_write(&stamp, &current);
        assert_eq!(c[0].instance, Flag::Dependence);
    }

    #[test]
    fn no_dependence_ok_is_ever_produced() {
        // Property of the algorithm: instance=dependence ⟹ iteration=dependence.
        let cases: Vec<(Vec<StackEntry>, Vec<StackEntry>)> = vec![
            (vec![], vec![entry(1, 1, 0)]),
            (vec![entry(1, 1, 0)], vec![entry(1, 1, 4), entry(2, 2, 2)]),
            (vec![entry(9, 1, 0)], vec![entry(1, 1, 0), entry(2, 1, 1)]),
            (
                vec![entry(1, 2, 0)],
                vec![entry(1, 3, 5), entry(2, 9, 2), entry(3, 1, 0)],
            ),
        ];
        for (stamp, current) in cases {
            for l in characterize_write(&stamp, &current) {
                assert!(
                    !(l.instance == Flag::Dependence && l.iteration == Flag::Ok),
                    "invalid 'dependence ok' produced"
                );
            }
        }
    }

    #[test]
    fn fig6_flow_read_on_com() {
        // com.x written in iteration k-1, read in iteration k, same
        // instances throughout.
        let snapshot = [entry(1, 1, 3), entry(2, 4, 6)];
        let current = [entry(1, 1, 3), entry(2, 4, 7)];
        let c = flow_dependence(&snapshot, &current).expect("flow dep");
        assert_eq!(
            render(&c, &loop_table()),
            "while(line 24) ok ok -> for(line 6) ok dependence"
        );
    }

    #[test]
    fn reads_of_loop_inputs_are_not_flow_deps() {
        // Written before the while started.
        assert!(flow_dependence(&[], &[entry(1, 1, 3), entry(2, 4, 7)]).is_none());
        // Written in a previous instance of the for (different instance).
        let snapshot = [entry(1, 1, 2), entry(2, 3, 9)];
        let current = [entry(1, 1, 3), entry(2, 4, 0)];
        // while iteration differs → flow dep at the while level (a true
        // cross-step dependence).
        let c = flow_dependence(&snapshot, &current).expect("cross-while flow dep");
        assert_eq!(c[0].iteration, Flag::Dependence);
        assert_eq!(c[1].instance, Flag::Dependence);
    }

    #[test]
    fn same_iteration_write_then_read_is_clean() {
        let s = [entry(1, 1, 3), entry(2, 4, 7)];
        assert!(flow_dependence(&s, &s).is_none());
    }

    #[test]
    fn write_from_inner_loop_read_outside_is_clean() {
        // Written deeper (inner loop), read after the inner loop closed but
        // in the same outer iteration.
        let snapshot = [entry(1, 1, 3), entry(2, 4, 7)];
        let current = [entry(1, 1, 3)];
        assert!(flow_dependence(&snapshot, &current).is_none());
    }

    /// Stamp/current shapes covering every branch of both algorithms.
    fn bit_cases() -> Vec<(Vec<StackEntry>, Vec<StackEntry>)> {
        vec![
            (vec![], vec![]),
            (vec![], vec![entry(1, 1, 0)]),
            (vec![], vec![entry(1, 1, 3), entry(2, 4, 7)]),
            (vec![entry(1, 1, 3)], vec![entry(1, 1, 3), entry(2, 4, 7)]),
            (
                vec![entry(1, 1, 3), entry(2, 4, 7)],
                vec![entry(1, 1, 3), entry(2, 4, 7)],
            ),
            (vec![entry(1, 1, 2)], vec![entry(1, 1, 5), entry(2, 4, 0)]),
            (vec![entry(1, 1, 2)], vec![entry(1, 2, 0)]),
            (vec![entry(9, 1, 0)], vec![entry(1, 1, 0), entry(2, 1, 1)]),
            (
                vec![entry(1, 1, 3), entry(2, 4, 6)],
                vec![entry(1, 1, 3), entry(2, 4, 7)],
            ),
            (
                vec![entry(1, 1, 2), entry(2, 3, 9)],
                vec![entry(1, 1, 3), entry(2, 4, 0)],
            ),
            (vec![entry(1, 1, 3), entry(2, 4, 7)], vec![entry(1, 1, 3)]),
        ]
    }

    #[test]
    fn char_bits_mirror_characterize_write() {
        for (stamp, current) in bit_cases() {
            let full = characterize_write(&stamp, &current);
            let bits = characterize_write_bits(&stamp, &current);
            assert_eq!(bits.expand(&current), full, "{stamp:?} vs {current:?}");
            assert_eq!(bits.problematic(), is_problematic(&full));
            assert!(bits.matches(&full, &current));
        }
    }

    #[test]
    fn flow_bits_mirror_flow_dependence() {
        for (snapshot, current) in bit_cases() {
            let full = flow_dependence(&snapshot, &current);
            let bits = flow_dependence_bits(&snapshot, &current);
            match (full, bits) {
                (None, None) => {}
                (Some(f), Some(b)) => {
                    assert_eq!(b.expand(&current), f, "{snapshot:?} vs {current:?}");
                    assert!(b.problematic());
                }
                (f, b) => panic!("diverged on {snapshot:?} vs {current:?}: {f:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn characterize_and_flow_switch_to_full_lists_past_64_levels() {
        for depth in [CHAR_BITS_MAX_DEPTH, CHAR_BITS_MAX_DEPTH + 1] {
            let current: Vec<StackEntry> = (1..=depth as u32).map(|id| entry(id, 1, 1)).collect();
            let mut snapshot = current.clone();
            snapshot[depth - 1].iteration = 0;
            let c = characterize(&[], &current);
            let f = flow(&snapshot, &current).expect("flow dependence at the innermost level");
            let bits = depth <= CHAR_BITS_MAX_DEPTH;
            assert_eq!(matches!(c, Characterized::Bits(_)), bits, "{depth}");
            assert_eq!(matches!(f, Characterized::Bits(_)), bits, "{depth}");
            let full = characterize_write(&[], &current);
            assert!(c.problematic() && c.matches(&full, &current));
            assert_eq!(c.expand(&current), full);
            assert_eq!(
                f.expand(&current),
                flow_dependence(&snapshot, &current).unwrap()
            );
        }
    }

    #[test]
    fn char_bits_detect_mismatched_materializations() {
        let stamp = [entry(1, 1, 3)];
        let current = [entry(1, 1, 3), entry(2, 4, 7)];
        let bits = characterize_write_bits(&stamp, &current);
        let mut other = characterize_write(&stamp, &current);
        other[1].iteration = Flag::Ok;
        assert!(!bits.matches(&other, &current));
        let shallow = vec![other[0]];
        assert!(!bits.matches(&shallow, &current));
    }
}
