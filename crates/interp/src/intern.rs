//! String interning for the interpret→dependence hot path.
//!
//! The dependence analysis compares property keys, variable names, and
//! composed subject slugs millions of times per run. Before this module
//! existed every comparison hashed an owned `String` with SipHash; now the
//! hot path deals in [`Sym`] — a `Copy` `u32` handle — and only touches
//! string bytes once per *distinct* name, at intern time.
//!
//! # Encoding
//!
//! A [`Sym`] is one of three things, distinguished by its raw bits:
//!
//! * **Inline numeric** (high bit set): the canonical decimal spelling of a
//!   non-negative integer `< 2^31 - 1` is encoded directly in the low 31
//!   bits. `intern("7")`, `Sym::from_f64(7.0)`, and `Sym::from_index(7)`
//!   all yield the same allocation-free handle. This is the fast path for
//!   array indices, which dominate property traffic in the paper's
//!   workloads (N-body, sorting, image kernels).
//! * **Table index** (high bit clear, not the sentinel): an index into the
//!   thread-local string table. Each entry caches its text as an `Rc<str>`
//!   plus a precomputed `is_numeric` flag (the same `parse::<f64>()`
//!   predicate the engine's `subject_name` collapse uses).
//! * **[`Sym::NONE`]** (`u32::MAX`): an explicit "absent" sentinel so the
//!   fixed-size `Copy` access records in `instrument::hooks` need no
//!   `Option` wrappers. Inline numerics stop at `2^31 - 2` so the sentinel
//!   can never collide with a real key.
//!
//! # Invariants
//!
//! * `intern(a) == intern(b)` **iff** `a == b` (within one thread).
//! * `resolve(intern(s)) == s` for every `s` — round-tripping is exact,
//!   including unicode and numeric-looking strings (proptested in
//!   `crates/core/tests/intern_roundtrip.rs`).
//! * Sym values are **thread-local**: the fleet runs one app per worker
//!   thread and threads may assign different ids to the same text.
//!   Therefore a `Sym` must never leak into a report or affect output
//!   ordering — everything user-visible sorts by resolved text or
//!   `LoopId`, never by raw `Sym` bits.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;

/// High bit: the `Sym` encodes a small non-negative integer inline.
const NUMERIC_TAG: u32 = 0x8000_0000;
/// Largest integer stored inline (`2^31 - 2`, leaving `u32::MAX` free as
/// the [`Sym::NONE`] sentinel).
const MAX_INLINE: u32 = 0x7FFF_FFFE;

/// An interned string handle. See the [module docs](self) for the encoding.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(u32);

impl Sym {
    /// Sentinel meaning "no symbol" — used by the fixed-size access
    /// records in `instrument::hooks` in place of `Option<Sym>`.
    pub const NONE: Sym = Sym(u32::MAX);

    /// True when this is the [`Sym::NONE`] sentinel.
    #[inline]
    pub fn is_none(self) -> bool {
        self.0 == u32::MAX
    }

    /// True when this is a real symbol (not [`Sym::NONE`]).
    #[inline]
    pub fn is_some(self) -> bool {
        self.0 != u32::MAX
    }

    /// Build a `Sym` for a non-negative integer array index without
    /// touching the string table. Always allocation-free.
    ///
    /// Returns `None` for indices above `2^31 - 2` (those take the slow
    /// string path, exactly like the pre-intern code).
    #[inline]
    pub fn from_index(i: u32) -> Option<Sym> {
        if i <= MAX_INLINE {
            Some(Sym(NUMERIC_TAG | i))
        } else {
            None
        }
    }

    /// Build a `Sym` for an `f64` property key if it is a non-negative
    /// integer small enough for the inline encoding. `-0.0` maps to index
    /// 0 (JS prints both zeros as `"0"`). `NaN`, infinities, fractional
    /// and negative numbers return `None` and must go through
    /// `number_to_string` + [`intern`], preserving exact JS key semantics.
    #[inline]
    pub fn from_f64(n: f64) -> Option<Sym> {
        if n == 0.0 {
            return Some(Sym(NUMERIC_TAG));
        }
        if n.fract() == 0.0 && n > 0.0 && n <= MAX_INLINE as f64 {
            Some(Sym(NUMERIC_TAG | n as u32))
        } else {
            None
        }
    }

    /// The inline integer, if this `Sym` uses the inline-numeric encoding.
    #[inline]
    pub fn as_index(self) -> Option<u32> {
        if self.0 != u32::MAX && self.0 & NUMERIC_TAG != 0 {
            Some(self.0 & !NUMERIC_TAG)
        } else {
            None
        }
    }

    /// True when the key *parses as a number* — the predicate the engine
    /// uses to collapse `base[3]`, `base["7.5"]`, `base["NaN"]` into the
    /// `base[*]` subject. Inline numerics answer without a table lookup;
    /// table entries carry the flag precomputed at intern time.
    #[inline]
    pub fn is_numeric(self) -> bool {
        if self.0 & NUMERIC_TAG != 0 && self.0 != u32::MAX {
            return true;
        }
        with_interner(|t| t.entries[self.0 as usize].numeric)
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_none() {
            write!(f, "Sym(NONE)")
        } else {
            write!(f, "Sym({:?})", resolve(*self))
        }
    }
}

/// One string-table entry.
struct Entry {
    text: Rc<str>,
    numeric: bool,
}

/// The thread-local interner: text → id map plus id → entry table.
struct Interner {
    map: HashMap<Rc<str>, u32, BuildHasherDefault<FxHasher>>,
    entries: Vec<Entry>,
}

impl Interner {
    fn new() -> Interner {
        Interner {
            map: HashMap::default(),
            entries: Vec::new(),
        }
    }

    fn intern_rc(&mut self, s: &Rc<str>) -> Sym {
        if let Some(sym) = canonical_int(s) {
            return sym;
        }
        if let Some(&id) = self.map.get(&**s) {
            return Sym(id);
        }
        self.insert(s.clone())
    }

    fn intern(&mut self, s: &str) -> Sym {
        if let Some(sym) = canonical_int(s) {
            return sym;
        }
        if let Some(&id) = self.map.get(s) {
            return Sym(id);
        }
        self.insert(Rc::from(s))
    }

    fn insert(&mut self, text: Rc<str>) -> Sym {
        let id = self.entries.len() as u32;
        assert!(id & NUMERIC_TAG == 0, "intern table overflow");
        self.map.insert(text.clone(), id);
        self.entries.push(Entry {
            numeric: text.parse::<f64>().is_ok(),
            text,
        });
        Sym(id)
    }
}

/// Recognise the canonical decimal spelling of an inline-encodable integer
/// (`"0"`, `"42"`, …; no leading zeros, no sign, ≤ `2^31 - 2`) so string
/// and numeric keys for the same array slot unify on one `Sym`.
fn canonical_int(s: &str) -> Option<Sym> {
    let b = s.as_bytes();
    if b.is_empty() || b.len() > 10 || !b.iter().all(|c| c.is_ascii_digit()) {
        return None;
    }
    if b[0] == b'0' && b.len() > 1 {
        return None; // "03" is a distinct property key from "3".
    }
    let n: u64 = s.parse().ok()?;
    if n <= MAX_INLINE as u64 {
        Sym::from_index(n as u32)
    } else {
        None
    }
}

thread_local! {
    static INTERNER: RefCell<Interner> = RefCell::new(Interner::new());
}

fn with_interner<R>(f: impl FnOnce(&mut Interner) -> R) -> R {
    INTERNER.with(|t| f(&mut t.borrow_mut()))
}

/// Intern `s`, returning its stable (per-thread) handle.
#[inline]
pub fn intern(s: &str) -> Sym {
    if let Some(sym) = canonical_int(s) {
        return sym; // allocation- and lock-free fast path
    }
    with_interner(|t| t.intern(s))
}

/// Intern an `Rc<str>` — on a table miss the `Rc` is cloned (refcount
/// bump), so interning an interpreter `Value::Str` never copies bytes.
#[inline]
pub fn intern_rc(s: &Rc<str>) -> Sym {
    with_interner(|t| t.intern_rc(s))
}

/// The property key `v` names, as a `Sym`: its `ToString`, with numbers on
/// the inline fast path (no allocation for array indices).
#[inline]
pub fn sym_of_key(v: &crate::value::Value) -> Sym {
    use crate::value::Value;
    match v {
        Value::Num(n) => Sym::from_f64(*n).unwrap_or_else(|| intern(&crate::ops::to_string(v))),
        Value::Str(s) => intern(s),
        other => intern(&crate::ops::to_string(other)),
    }
}

/// Resolve a `Sym` back to its text. Table symbols return a clone of the
/// stored `Rc<str>` (no byte copy); inline numerics format their decimal
/// spelling (one small allocation — only cold report paths do this).
///
/// # Panics
///
/// Panics on [`Sym::NONE`] or a handle from another thread's table.
pub fn resolve(sym: Sym) -> Rc<str> {
    assert!(!sym.is_none(), "cannot resolve Sym::NONE");
    if let Some(i) = sym.as_index() {
        return Rc::from(i.to_string().as_str());
    }
    with_interner(|t| t.entries[sym.0 as usize].text.clone())
}

/// A fast, non-cryptographic hasher (the multiply-xor scheme popularised
/// by Firefox and rustc) for `Sym`-, id-, and short-string-keyed maps on
/// the hot path. Hash order never reaches any output: every user-visible
/// surface sorts explicitly (see `core::report`).
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while bytes.len() >= 8 {
            self.add(u64::from_le_bytes(bytes[..8].try_into().unwrap()));
            bytes = &bytes[8..];
        }
        if bytes.len() >= 4 {
            self.add(u64::from(u32::from_le_bytes(
                bytes[..4].try_into().unwrap(),
            )));
            bytes = &bytes[4..];
        }
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// A `HashSet` using [`FxHasher`].
pub type FxHashSet<K> = std::collections::HashSet<K, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_plain_names() {
        for s in ["x", "velocity", "__proto__", "snake_case", "ünïcödé", ""] {
            let sym = intern(s);
            assert_eq!(&*resolve(sym), s);
            assert_eq!(intern(s), sym, "re-interning must be stable");
        }
    }

    #[test]
    fn numeric_strings_and_numbers_unify() {
        assert_eq!(intern("0"), Sym::from_f64(0.0).unwrap());
        assert_eq!(intern("7"), Sym::from_f64(7.0).unwrap());
        assert_eq!(intern("7"), Sym::from_index(7).unwrap());
        assert_eq!(intern("2147483646"), Sym::from_index(MAX_INLINE).unwrap());
        // -0.0 prints as "0" in JS and must land on the same slot.
        assert_eq!(Sym::from_f64(-0.0), Sym::from_f64(0.0));
    }

    #[test]
    fn non_canonical_numerics_stay_distinct_but_flagged() {
        // "03" is a different property key from "3"…
        assert_ne!(intern("03"), intern("3"));
        // …but both parse as numbers, so both collapse to `base[*]`.
        assert!(intern("03").is_numeric());
        assert!(intern("3").is_numeric());
        assert!(intern("7.5").is_numeric());
        assert!(intern("NaN").is_numeric()); // f64 parse accepts NaN
        assert!(!intern("x7").is_numeric());
        assert!(!intern("").is_numeric());
    }

    #[test]
    fn out_of_range_numbers_fall_back_to_table() {
        assert_eq!(Sym::from_f64(-1.0), None);
        assert_eq!(Sym::from_f64(0.5), None);
        assert_eq!(Sym::from_f64(f64::NAN), None);
        assert_eq!(Sym::from_f64(1e21), None);
        let big = intern("4294967295"); // > MAX_INLINE: table entry
        assert_eq!(big.as_index(), None);
        assert_eq!(&*resolve(big), "4294967295");
        assert!(big.is_numeric());
    }

    #[test]
    fn none_sentinel_is_distinct() {
        assert!(Sym::NONE.is_none());
        assert!(intern("x").is_some());
        assert_ne!(Sym::from_index(MAX_INLINE), Some(Sym::NONE));
    }

    #[test]
    fn resolve_inline_formats_decimal() {
        assert_eq!(&*resolve(Sym::from_index(0).unwrap()), "0");
        assert_eq!(&*resolve(Sym::from_index(12345).unwrap()), "12345");
    }

    #[test]
    fn intern_rc_reuses_allocation() {
        let s: Rc<str> = Rc::from("sharedKeyName");
        let sym = intern_rc(&s);
        // The table holds a clone of the same Rc allocation.
        assert_eq!(Rc::strong_count(&s), 3); // s + map key + entry text
        assert_eq!(&*resolve(sym), "sharedKeyName");
    }

    #[test]
    fn fx_hasher_is_deterministic() {
        fn h(s: &str) -> u64 {
            let mut hasher = FxHasher::default();
            hasher.write(s.as_bytes());
            hasher.finish()
        }
        assert_eq!(h("position"), h("position"));
        assert_ne!(h("position"), h("velocity"));
    }
}
