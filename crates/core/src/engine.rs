//! The JS-CERES analysis engine.
//!
//! One [`Engine`] instance backs one instrumented run. [`attach_engine`]
//! installs it as the interpreter's hook sink, registers every `__ceres_*`
//! hook by name, and makes it the DOM [`Monitor`]. Loop enter/iter/exit
//! maintain the characterization stack and per-loop statistics; the
//! dependence hooks maintain stamps, snapshots and warnings; tagged host
//! objects (DOM/Canvas/WebGL) are attributed to the loops open at access
//! time.
//!
//! # Hot-path design (see `docs/PERFORMANCE.md`)
//!
//! The dependence hooks fire per property access, so everything they touch
//! is keyed by interned [`Sym`]s and small `Copy` ids rather than owned
//! strings:
//!
//! * each hook has one body, a [`HookSink`] method: the VM calls it with
//!   operands interned at compile time and binding ids from its slot
//!   cache, and the by-name natives (the tree-walker's path) decode their
//!   `Value` arguments and call the same method;
//! * loop stamps live in one flat interned table; side tables store
//!   `u32` stamp ids and are read by reference, and the stamp for the
//!   current stack is built at most once per stack mutation, only for an
//!   access that records;
//! * each access is one direct call into the engine, which returns before
//!   touching the stamp tables when it cannot record and otherwise
//!   characterizes the access against the current stack on the spot;
//! * a characterization is computed as one `Copy` [`Split`] (the level
//!   where the stamp leaves the stack, and whether that level kept the
//!   loop instance); a warning is deduplicated on it and the open loop
//!   ids without allocating, and only a *new* warning stores those ids;
//! * the state kept per binding (stamp, task write mark) and per object
//!   (stamp, task read and write marks) is one row of an `IdTable`,
//!   indexed by the id's distance from the first id the run's interpreter
//!   could hand out, so a stamp or a mark is one bounds-checked load, and
//!   the tables span only the ids one run allocates;
//! * a task's read/write sets are FxHash sets, but a location joins one
//!   only when its row's mark says the open task has not recorded it yet,
//!   so a repeated access in one task inserts nothing; observed runtime
//!   types are a [`TypeSet`] bitmask.

use crate::stack::{characterize, flow, matched, Characterization, Split, StackEntry};
use crate::welford::Welford;
use ceres_ast::{BinaryOp, LoopId, LoopInfo};
use ceres_instrument::{hooks, Mode};
use ceres_interp::intern::{self, sym_of_key, FxHashMap, FxHashSet, Sym};
use ceres_interp::{ops, CallCtx, HookSink, Interp, JsResult, Monitor, ScopeRef, Value};
use std::collections::{BTreeSet, HashMap};
use std::rc::Rc;

/// Per-syntactic-loop statistics (paper Sec. 3.2).
#[derive(Debug, Clone, Default)]
pub struct LoopRecord {
    /// "the number of times it is encountered at runtime".
    pub instances: u64,
    /// Trip count per instance (total/avg/variance via Welford).
    pub trips: Welford,
    /// Running time per instance, in virtual-clock ticks (includes nested
    /// loops, as in the paper's loop-nest accounting).
    pub time_ticks: Welford,
    /// Set when recursion re-entered this loop before it exited; the paper
    /// "raises a warning, and discards the analysis results for the
    /// affected loop nest".
    pub recursion_tainted: bool,
}

/// Kinds of dependence warnings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum WarningKind {
    /// (a) write to a variable declared outside the current iteration.
    VarWrite,
    /// (b) write to a property of an object shared across iterations.
    SharedPropWrite,
    /// (c) read of a property written in a different iteration (flow/RAW).
    FlowRead,
    /// Extension: write-after-write on the same property location observed
    /// across iterations (output dependence evidence).
    WawWrite,
    /// Recursion grew the loop stack; results for the nest are discarded.
    Recursion,
}

impl WarningKind {
    pub fn describe(&self) -> &'static str {
        match self {
            WarningKind::VarWrite => "write to variable declared outside the loop iteration",
            WarningKind::SharedPropWrite => "write to property of object shared between iterations",
            WarningKind::FlowRead => "read of property written in a different iteration (flow)",
            WarningKind::WawWrite => "repeated write to the same property location (output)",
            WarningKind::Recursion => "recursive call re-entered the loop; nest results discarded",
        }
    }
}

/// One (deduplicated) dependence warning.
#[derive(Debug, Clone)]
pub struct Warning {
    pub kind: WarningKind,
    /// Human-readable subject: `p`, `com.x`, `data[*]`, `bodies[]`, …
    pub subject: String,
    pub characterization: Characterization,
    /// Write-op spelling for variable writes ("=", "+=", "++", "init", …).
    pub op: Option<String>,
    /// The top-level loop open when the warning fired (Table 3 nest).
    pub nest_root: LoopId,
    /// How many dynamic accesses collapsed into this warning.
    pub count: u64,
}

/// Key-diversity statistics per written subject; used by the difficulty
/// classifier to tell disjoint writes (`data[i]`, distinct `i` per
/// iteration) from conflicting ones (`com.x` every iteration).
#[derive(Debug, Clone, Default)]
pub struct SubjectStats {
    pub writes: u64,
    /// Innermost (loop, instance) the current window belongs to.
    ctx: Option<(LoopId, u64)>,
    ctx_writes: u64,
    ctx_locations: FxHashSet<(u64, Sym)>,
    /// Sum of per-instance disjointness ratios and window count.
    ratio_sum: f64,
    windows: u64,
}

const KEYSET_CAP: usize = 4096;

impl SubjectStats {
    fn record(&mut self, obj_id: u64, key: Sym, ctx: Option<(LoopId, u64)>) {
        self.writes += 1;
        if self.ctx != ctx {
            self.fold_window();
            self.ctx = ctx;
        }
        // A write counts toward the window's ratio only when its location
        // can be recorded: past the cap, a new location would otherwise
        // read as a repeat and make a disjoint loop look conflicting.
        let loc = (obj_id, key);
        if self.ctx_locations.len() < KEYSET_CAP {
            self.ctx_locations.insert(loc);
        } else if !self.ctx_locations.contains(&loc) {
            return;
        }
        self.ctx_writes += 1;
    }

    fn fold_window(&mut self) {
        if self.ctx_writes > 0 {
            self.ratio_sum += (self.ctx_locations.len() as f64 / self.ctx_writes as f64).min(1.0);
            self.windows += 1;
        }
        self.ctx_writes = 0;
        self.ctx_locations.clear();
    }

    /// Mean, over innermost loop *instances*, of the fraction of writes
    /// that hit a distinct location within that instance. 1.0 ⇒ each
    /// iteration writes its own location (`out[i] = …`, or one field of a
    /// per-iteration object); near 0 ⇒ every iteration hits the same
    /// location (`acc.v = …`).
    pub fn disjointness(&self) -> f64 {
        let mut ratio_sum = self.ratio_sum;
        let mut windows = self.windows;
        if self.ctx_writes > 0 {
            ratio_sum += (self.ctx_locations.len() as f64 / self.ctx_writes as f64).min(1.0);
            windows += 1;
        }
        if windows == 0 {
            1.0
        } else {
            ratio_sum / windows as f64
        }
    }
}

/// The `typeof` names a [`TypeSet`] can hold (every one but
/// `"undefined"`, which is never observed), in sorted order.
const TYPE_NAMES: [&str; 5] = ["boolean", "function", "number", "object", "string"];

/// A set of runtime types (`typeof` names), one bit per name in sorted
/// order, so recording a write's type is one `or` and iterating the bits
/// yields the names sorted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TypeSet(u8);

impl TypeSet {
    fn insert(&mut self, ty: &'static str) {
        let bit = TYPE_NAMES
            .iter()
            .position(|t| *t == ty)
            .expect("a typeof name");
        self.0 |= 1 << bit;
    }

    /// Number of distinct types.
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// True when no type was recorded.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// The type names, sorted.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        TYPE_NAMES
            .iter()
            .enumerate()
            .filter(|(bit, _)| self.0 & (1 << bit) != 0)
            .map(|(_, t)| *t)
    }
}

/// Per-id state, one row per id: row `id - base` for every id from
/// `base` up, in a `Vec`, so a lookup is one bounds check. The interpreter
/// hands ids out in order from `base`, so the table spans only the ids its
/// run allocated; the few ids below `base` (made before the interpreter,
/// if any reach the run) live in a map. An id never touched reads as
/// `R::default()`.
struct IdTable<R> {
    base: u64,
    rows: Vec<R>,
    below: FxHashMap<u64, R>,
}

impl<R: Copy + Default> IdTable<R> {
    fn new(base: u64) -> IdTable<R> {
        IdTable {
            base,
            rows: Vec::new(),
            below: FxHashMap::default(),
        }
    }

    fn get(&self, id: u64) -> R {
        match id.checked_sub(self.base) {
            Some(i) => self.rows.get(i as usize).copied().unwrap_or_default(),
            None => self.below.get(&id).copied().unwrap_or_default(),
        }
    }

    fn row(&mut self, id: u64) -> &mut R {
        match id.checked_sub(self.base) {
            Some(i) => {
                let i = i as usize;
                if i >= self.rows.len() {
                    self.rows.resize(i + 1, R::default());
                }
                &mut self.rows[i]
            }
            None => self.below.entry(id).or_default(),
        }
    }
}

/// A binding's row: its creation stamp (0, the empty stamp, until
/// [`hooks::DECLVARS`] stamps it) and the serial of the last task whose
/// write set it joined (0: none).
#[derive(Clone, Copy, Default)]
struct BindingRow {
    stamp: u32,
    written_by: u32,
}

/// An object's row: its creation stamp (0 until [`hooks::WRAP`] stamps
/// it) and the serials of the last tasks whose read and write sets it
/// joined.
#[derive(Clone, Copy, Default)]
struct ObjectRow {
    stamp: u32,
    read_by: u32,
    written_by: u32,
}

/// Set a row's task `mark` to the open task's `serial`; true when it held
/// another, so the open task has not recorded the location yet.
fn first_in_task(mark: &mut u32, serial: u32) -> bool {
    std::mem::replace(mark, serial) != serial
}

/// The engine state shared by all hooks of one run.
pub struct Engine {
    pub mode: Mode,
    /// Loop id → source info (kind, line), from the instrumentation pass.
    pub loops: HashMap<LoopId, LoopInfo>,

    // --- observability (ceres_core::obs) ---
    /// Per-hook invocation counts for this run.
    pub tally: hooks::HookTally,
    /// Pushes onto the characterization stack (loop entries, including
    /// recursive re-entries).
    pub stack_pushes: u64,

    // --- characterization stack ---
    stack: Vec<StackEntry>,
    start_ticks: Vec<u64>,
    instance_counters: FxHashMap<LoopId, u64>,

    // --- loop profiling ---
    pub records: HashMap<LoopId, LoopRecord>,
    /// loop → top-level loop of the nest it ran inside.
    pub nest_root: HashMap<LoopId, LoopId>,

    // --- lightweight profiling ---
    lw_open: u64,
    lw_start: u64,
    /// Total ticks with ≥1 loop open (the paper's "time spent in loops").
    pub lw_loop_ticks: u64,

    // --- dependence analysis ---
    /// Restrict recording to nests containing this loop (the paper's
    /// "focus on a specific loop").
    pub focus: Option<LoopId>,
    /// Interned loop-stack stamps, one flat table: stamp `id` is
    /// `stamp_entries[stamp_at[id]..stamp_at[id + 1]]`. Stamp 0 is the
    /// empty stamp; all side tables refer to stamps by `u32` id.
    stamp_at: Vec<u32>,
    stamp_entries: Vec<StackEntry>,
    /// Cached id of the stamp for the *current* stack, invalidated on
    /// every stack mutation — one table append per stack epoch, not one
    /// per access.
    cur_stamp: Option<u32>,
    bindings: IdTable<BindingRow>,
    objects: IdTable<ObjectRow>,
    write_snapshots: FxHashMap<(u64, Sym), u32>,
    pub warnings: Vec<Warning>,
    /// (kind, subject, op, split) → indices of materialized warnings with
    /// that key; candidates are distinguished by their loop ids (usually 1).
    warning_index: FxHashMap<(WarningKind, Sym, Sym, Option<Split>), Vec<usize>>,
    /// (base, key) → composed subject (`p.vX`, `data[*]`) cache, so the
    /// `format!` runs once per distinct pair, not per access.
    subject_cache: FxHashMap<(Sym, Sym), Sym>,
    pub subject_stats: FxHashMap<Sym, SubjectStats>,

    // --- runtime type observation (paper Sec. 2.4 / 4.2) ---
    /// (subject, binding id) → set of runtime types written *inside
    /// loops*. Keyed per binding so unrelated locals that share a name in
    /// different functions don't alias; a key with more than one type
    /// (ignoring undefined/null, per the paper's definition) is
    /// polymorphic. Property subjects use binding id 0.
    pub observed_types: FxHashMap<(Sym, u64), TypeSet>,

    // --- task-parallelism limit study (Fortuna et al. baseline) ---
    /// Completed tasks in execution order.
    pub tasks: Vec<crate::tasks::TaskRecord>,
    task_depth: usize,
    /// Serial of the open (or last) task, counted from 1; the marks in the
    /// binding and object rows refer to it.
    task_serial: u32,

    // --- DOM attribution ---
    /// loop id → host-object tags accessed while it was open.
    pub dom_by_loop: HashMap<LoopId, BTreeSet<&'static str>>,
    /// Host accesses observed with no loop open.
    pub dom_outside_loops: u64,
}

impl Engine {
    /// An engine for bindings and objects made from now on, on this
    /// thread ([`attach_engine`] indexes from its interpreter's first ids
    /// instead).
    pub fn new(mode: Mode, loops: Vec<LoopInfo>) -> Engine {
        let first_ids = (
            ceres_interp::env::next_binding_id(),
            ceres_interp::value::next_object_id(),
        );
        Engine::indexed_from(mode, loops, first_ids)
    }

    /// An engine whose per-id tables start at `first_ids`, the first
    /// binding id and the first object id its run can reach.
    fn indexed_from(mode: Mode, loops: Vec<LoopInfo>, first_ids: (u64, u64)) -> Engine {
        Engine {
            mode,
            loops: loops.into_iter().map(|l| (l.id, l)).collect(),
            tally: hooks::HookTally::new(),
            stack_pushes: 0,
            stack: Vec::new(),
            start_ticks: Vec::new(),
            instance_counters: FxHashMap::default(),
            records: HashMap::new(),
            nest_root: HashMap::new(),
            lw_open: 0,
            lw_start: 0,
            lw_loop_ticks: 0,
            focus: None,
            stamp_at: vec![0, 0],
            stamp_entries: Vec::new(),
            cur_stamp: Some(0),
            bindings: IdTable::new(first_ids.0),
            objects: IdTable::new(first_ids.1),
            write_snapshots: FxHashMap::default(),
            warnings: Vec::new(),
            warning_index: FxHashMap::default(),
            subject_cache: FxHashMap::default(),
            subject_stats: FxHashMap::default(),
            observed_types: FxHashMap::default(),
            tasks: Vec::new(),
            task_depth: 0,
            task_serial: 0,
            dom_by_loop: HashMap::new(),
            dom_outside_loops: 0,
        }
    }

    /// Id of the stamp for the current stack, building (and caching) the
    /// table entry on first use after a stack mutation.
    pub fn current_stamp_id(&mut self) -> u32 {
        if self.stack.is_empty() {
            return 0;
        }
        if let Some(id) = self.cur_stamp {
            return id;
        }
        let id = self.stamp_at.len() as u32 - 1;
        self.stamp_entries.extend_from_slice(&self.stack);
        self.stamp_at.push(self.stamp_entries.len() as u32);
        self.cur_stamp = Some(id);
        id
    }

    /// The entries of stamp `id`.
    fn stamp(&self, id: u32) -> &[StackEntry] {
        let id = id as usize;
        &self.stamp_entries[self.stamp_at[id] as usize..self.stamp_at[id + 1] as usize]
    }

    /// Is dependence recording active for an access now (inside a loop;
    /// inside the focused nest when a focus is set)?
    fn recording(&self) -> bool {
        match self.focus {
            _ if self.stack.is_empty() => false,
            None => true,
            Some(f) => self.stack.iter().any(|e| e.loop_id == f),
        }
    }

    // ---------------- loop hooks ----------------

    fn lw_enter(&mut self, now: u64) {
        if self.lw_open == 0 {
            self.lw_start = now;
        }
        self.lw_open += 1;
    }

    fn lw_exit(&mut self, now: u64) {
        if self.lw_open > 0 {
            self.lw_open -= 1;
            if self.lw_open == 0 {
                self.lw_loop_ticks += now - self.lw_start;
            }
        }
    }

    fn loop_enter(&mut self, id: LoopId, now: u64) {
        // Recursion detection (paper Sec. 3.3): same syntactic loop opened
        // again before it closed.
        if self.stack.iter().any(|e| e.loop_id == id) {
            let root = self.stack.first().map(|e| e.loop_id).unwrap_or(id);
            self.records.entry(id).or_default().recursion_tainted = true;
            self.records.entry(root).or_default().recursion_tainted = true;
            let name = self
                .loops
                .get(&id)
                .map(|l| l.display_name())
                .unwrap_or_else(|| format!("{id}"));
            self.push_warning(
                WarningKind::Recursion,
                intern::intern(&name),
                Sym::NONE,
                None,
                root,
            );
        }
        let counter = self.instance_counters.entry(id).or_insert(0);
        *counter += 1;
        let instance = *counter;
        self.nest_root
            .entry(id)
            .or_insert_with(|| self.stack.first().map(|e| e.loop_id).unwrap_or(id));
        self.stack.push(StackEntry {
            loop_id: id,
            instance,
            iteration: 0,
        });
        self.cur_stamp = None;
        self.stack_pushes += 1;
        self.start_ticks.push(now);
        // Lightweight totals also work in the richer modes so Table 2 can be
        // cross-checked against loop-profile runs.
        self.lw_enter(now);
    }

    fn iter(&mut self, id: LoopId) {
        // The hook sits at the top of the loop body, so the innermost open
        // loop is (in well-formed programs) the one being iterated. Scan
        // from the top for robustness under recursion taint.
        if let Some(e) = self.stack.iter_mut().rev().find(|e| e.loop_id == id) {
            e.iteration += 1;
            self.cur_stamp = None;
        }
    }

    fn loop_exit(&mut self, id: LoopId, now: u64) {
        // Pop until we find the entry (robust under abnormal unwinding).
        while let Some(top) = self.stack.pop() {
            self.cur_stamp = None;
            let start = self.start_ticks.pop().unwrap_or(now);
            let rec = self.records.entry(top.loop_id).or_default();
            rec.instances += 1;
            rec.trips.add(top.iteration as f64);
            rec.time_ticks.add((now - start) as f64);
            self.lw_exit(now);
            if top.loop_id == id {
                break;
            }
        }
    }

    // ---------------- dependence processing ----------------

    /// Compose (and cache) a warning subject: `p.vX`, `data[*]`, `com.x`,
    /// or `*.x` when the base expression was not a variable. Numeric keys
    /// collapse to `[*]` so index sweeps produce one subject.
    fn subject_sym(&mut self, base: Sym, key: Sym) -> Sym {
        if let Some(&s) = self.subject_cache.get(&(base, key)) {
            return s;
        }
        let base_str: Rc<str> = if base.is_none() {
            Rc::from("*")
        } else {
            intern::resolve(base)
        };
        let s = if key.is_numeric() {
            intern::intern(&format!("{base_str}[*]"))
        } else {
            intern::intern(&format!("{base_str}.{}", intern::resolve(key)))
        };
        self.subject_cache.insert((base, key), s);
        s
    }

    /// Deduplicate-or-materialize a warning for an access split at `split`
    /// from the current stack; a warning without a split (recursion)
    /// characterizes no level. The dedup key is (kind, subject, op, split)
    /// plus the characterized levels' loop ids, which are compared against
    /// candidates without allocating.
    fn push_warning(
        &mut self,
        kind: WarningKind,
        subject: Sym,
        op: Sym,
        split: Option<Split>,
        root: LoopId,
    ) {
        let levels: &[StackEntry] = if split.is_some() { &self.stack } else { &[] };
        let key = (kind, subject, op, split);
        if let Some(cands) = self.warning_index.get(&key) {
            for &i in cands {
                let loops = &self.warnings[i].characterization.loops;
                if loops.iter().eq(levels.iter().map(|e| &e.loop_id)) {
                    self.warnings[i].count += 1;
                    return;
                }
            }
        }
        let w = Warning {
            kind,
            subject: intern::resolve(subject).to_string(),
            characterization: Characterization::at(levels, split),
            op: op.is_some().then(|| intern::resolve(op).to_string()),
            nest_root: root,
            count: 1,
        };
        self.warning_index
            .entry(key)
            .or_default()
            .push(self.warnings.len());
        self.warnings.push(w);
    }

    // ---------------- accesses ----------------

    /// Stamp binding `id` with the current stack ([`hooks::DECLVARS`]).
    fn stamp_binding(&mut self, id: u64) {
        let stamp = self.current_stamp_id();
        self.bindings.row(id).stamp = stamp;
    }

    /// Stamp a freshly created object with the current stack
    /// ([`hooks::WRAP`]).
    fn stamp_object(&mut self, id: u64) {
        let stamp = self.current_stamp_id();
        self.objects.row(id).stamp = stamp;
    }

    /// A write to variable `name`, whose binding id is `binding` (0 when
    /// it has none: an implicit global or a host-provided name).
    fn var_write(&mut self, name: Sym, binding: u64, op: Sym) {
        if binding != 0 {
            self.task_write_binding(binding);
        }
        if !self.recording() {
            return;
        }
        // Unstamped binding: conservatively "created before all loops"
        // (the empty stamp). Binding ids start at 1, so 0 is never stamped.
        let stamp = self.bindings.get(binding).stamp;
        if let Some(split) = characterize(self.stamp(stamp), &self.stack) {
            let root = self.stack[0].loop_id;
            self.push_warning(WarningKind::VarWrite, name, op, Some(split), root);
        }
    }

    /// A write to property `key` of object `obj`, reached through the
    /// variable `base` whose binding id is `binding` (0 when none).
    fn prop_write(&mut self, obj: u64, key: Sym, base: Sym, binding: u64, op: Sym) {
        self.task_write_object(obj);
        if !self.recording() {
            return;
        }
        let stamp = self.current_stamp_id();
        let subject = self.subject_sym(base, key);
        let cur = &self.stack;
        // Effective stamp: of the object's creation stamp and the base
        // variable's binding stamp, take the one matching the *current*
        // stack deeper — i.e. the freshest context the location is reachable
        // from. This is what reproduces the paper's Fig. 6 output: `p.vX`
        // characterizes through `p`'s per-activation binding (stamped inside
        // the while), not through the particle object (created during
        // setup, before any of the open loops). See DESIGN.md §4. An
        // unstamped binding's empty stamp matches no level, so it never wins.
        let obj_stamp = self.stamp(self.objects.get(obj).stamp);
        let base_stamp = self.stamp(self.bindings.get(binding).stamp);
        let eff = if matched(base_stamp, cur) > matched(obj_stamp, cur) {
            base_stamp
        } else {
            obj_stamp
        };
        let split = characterize(eff, cur);
        let root = cur[0].loop_id;
        let ctx = cur.last().map(|e| (e.loop_id, e.instance));
        self.subject_stats
            .entry(subject)
            .or_default()
            .record(obj, key, ctx);
        // Output-dependence evidence: same location written in another
        // iteration we are still inside of. One table probe both fetches
        // the previous write's stamp and records this one.
        let prev = match self.write_snapshots.entry((obj, key)) {
            std::collections::hash_map::Entry::Occupied(mut o) => {
                Some(std::mem::replace(o.get_mut(), stamp))
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(stamp);
                None
            }
        };
        let waw = prev.and_then(|prev| flow(self.stamp(prev), &self.stack));
        if split.is_some() {
            self.push_warning(WarningKind::SharedPropWrite, subject, op, split, root);
        }
        if waw.is_some() {
            self.push_warning(WarningKind::WawWrite, subject, Sym::NONE, waw, root);
        }
    }

    /// A read of property `key` of object `obj`. Only a plain read joins
    /// the enclosing task's read set: the read half of a compound
    /// assignment (`joins_task` false) is claimed by its write half.
    fn prop_read(&mut self, obj: u64, key: Sym, base: Sym, joins_task: bool) {
        if joins_task {
            self.task_read_object(obj);
        }
        if !self.recording() {
            return;
        }
        let Some(&snap) = self.write_snapshots.get(&(obj, key)) else {
            return;
        };
        if let Some(split) = flow(self.stamp(snap), &self.stack) {
            let subject = self.subject_sym(base, key);
            let root = self.stack[0].loop_id;
            self.push_warning(WarningKind::FlowRead, subject, Sym::NONE, Some(split), root);
        }
    }

    /// Record the runtime type written to `subject` (only inside loops —
    /// the paper inspects "polymorphic variable accesses … within the
    /// computationally-intensive loops").
    fn observe_type(&mut self, subject: Sym, binding: u64, value: &Value) {
        if self.stack.is_empty() {
            return;
        }
        // The paper: "We do not consider a variable polymorphic if it
        // changes between defined, undefined, and null."
        let ty = match value {
            Value::Undefined | Value::Null => return,
            v => v.type_of(),
        };
        self.observed_types
            .entry((subject, binding))
            .or_default()
            .insert(ty);
    }

    /// [`Engine::observe_type`] for a write to property `key` reached
    /// through `base`; the subject is composed only inside loops.
    fn observe_prop_type(&mut self, base: Sym, key: Sym, value: &Value) {
        if !self.stack.is_empty() {
            let subject = self.subject_sym(base, key);
            self.observe_type(subject, 0, value);
        }
    }

    /// Subjects observed with more than one runtime type inside loops.
    pub fn polymorphic_subjects(&self) -> Vec<(String, Vec<&'static str>)> {
        let mut out: Vec<(String, Vec<&'static str>)> = self
            .observed_types
            .iter()
            .filter(|(_, tys)| tys.len() > 1)
            .map(|((s, _), tys)| (intern::resolve(*s).to_string(), tys.names().collect()))
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Key-diversity statistics for a rendered subject (`data[*]`,
    /// `com.x`), as the classifier and reports refer to subjects by text.
    pub fn subject_stats_for(&self, subject: &str) -> Option<&SubjectStats> {
        self.subject_stats.get(&intern::intern(subject))
    }

    /// Open a task (nested opens fold into the outermost).
    pub fn begin_task(&mut self, label: &str, now_ticks: u64) {
        self.task_depth += 1;
        if self.task_depth == 1 {
            self.task_serial += 1;
            self.tasks.push(crate::tasks::TaskRecord {
                label: label.to_string(),
                start_ticks: now_ticks,
                end_ticks: now_ticks,
                reads: FxHashSet::default(),
                writes: FxHashSet::default(),
            });
        }
    }

    /// Close the innermost task.
    pub fn end_task(&mut self, now_ticks: u64) {
        if self.task_depth > 0 {
            self.task_depth -= 1;
            if self.task_depth == 0 {
                if let Some(t) = self.tasks.last_mut() {
                    t.end_ticks = now_ticks;
                }
            }
        }
    }

    /// Add object `obj` to the open task's read set. Its row's mark holds
    /// the serial of the last task that added it, so a repeated read in
    /// one task inserts nothing.
    fn task_read_object(&mut self, obj: u64) {
        let serial = self.task_serial;
        if self.task_depth > 0 && first_in_task(&mut self.objects.row(obj).read_by, serial) {
            if let Some(t) = self.tasks.last_mut() {
                t.reads.insert(crate::tasks::object_location(obj));
            }
        }
    }

    /// [`Engine::task_read_object`] for the write set.
    fn task_write_object(&mut self, obj: u64) {
        let serial = self.task_serial;
        if self.task_depth > 0 && first_in_task(&mut self.objects.row(obj).written_by, serial) {
            if let Some(t) = self.tasks.last_mut() {
                t.writes.insert(crate::tasks::object_location(obj));
            }
        }
    }

    /// [`Engine::task_write_object`] for binding `id`.
    fn task_write_binding(&mut self, id: u64) {
        let serial = self.task_serial;
        if self.task_depth > 0 && first_in_task(&mut self.bindings.row(id).written_by, serial) {
            if let Some(t) = self.tasks.last_mut() {
                t.writes.insert(crate::tasks::binding_location(id));
            }
        }
    }

    fn host_access_inner(&mut self, tag: &'static str) {
        if self.stack.is_empty() {
            self.dom_outside_loops += 1;
            return;
        }
        for e in &self.stack {
            self.dom_by_loop.entry(e.loop_id).or_default().insert(tag);
        }
    }

    // ---------------- results ----------------

    /// Depth of the open-loop stack (diagnostics).
    pub fn open_loops(&self) -> usize {
        self.stack.len()
    }

    /// How many binding rows and object rows the per-id tables hold
    /// (diagnostics): at most the bindings and objects the run allocated.
    pub fn id_rows(&self) -> (usize, usize) {
        (
            self.bindings.rows.len() + self.bindings.below.len(),
            self.objects.rows.len() + self.objects.below.len(),
        )
    }

    /// Warnings attributed to the nest rooted at `root`.
    pub fn warnings_for_nest(&self, root: LoopId) -> Vec<&Warning> {
        self.warnings
            .iter()
            .filter(|w| w.nest_root == root)
            .collect()
    }
}

/// Intern an optional base-variable name argument ([`Sym::NONE`] when the
/// rewriter passed `null`).
fn opt_sym(v: &Value) -> Sym {
    match v {
        Value::Str(s) => intern::intern_rc(s),
        _ => Sym::NONE,
    }
}

/// Wrapper implementing the interpreter's [`Monitor`] for DOM attribution.
struct EngineMonitor(Rc<std::cell::RefCell<Engine>>);

impl Monitor for EngineMonitor {
    fn host_access(&self, tag: &'static str, _op: &str) {
        // May be called re-entrantly from hooks only *after* they dropped
        // their borrow (hook discipline: compute, drop, call interp).
        if let Ok(mut eng) = self.0.try_borrow_mut() {
            eng.host_access_inner(tag);
        }
    }

    fn task_begin(&self, label: &str, now_ticks: u64) {
        if let Ok(mut eng) = self.0.try_borrow_mut() {
            eng.begin_task(label, now_ticks);
        }
    }

    fn task_end(&self, now_ticks: u64) {
        if let Ok(mut eng) = self.0.try_borrow_mut() {
            eng.end_task(now_ticks);
        }
    }
}

/// Shared engine handle.
pub type EngineRef = Rc<std::cell::RefCell<Engine>>;

/// Position of hook `name` in [`hooks::ALL_HOOKS`]: the tally index its
/// body bumps, resolved at compile time.
const fn tally_index(name: &str) -> usize {
    let mut i = 0;
    while i < hooks::ALL_HOOKS.len() {
        let (a, b) = (hooks::ALL_HOOKS[i].as_bytes(), name.as_bytes());
        if a.len() == b.len() {
            let mut j = 0;
            while j < a.len() && a[j] == b[j] {
                j += 1;
            }
            if j == a.len() {
                return i;
            }
        }
        i += 1;
    }
    panic!("unknown hook")
}

/// The engine's side of the hook ABI: the one body of every hook. The VM
/// calls it through [`HookSink`]; the by-name natives [`attach_engine`]
/// registers (the tree-walker's path) decode their arguments and call the
/// same methods.
///
/// The property hooks record through the engine, then release it before
/// touching the object: a tagged host object's access reaches the DOM
/// monitor, which borrows the engine itself.
struct EngineHooks {
    eng: EngineRef,
    // Hot-path symbols, interned once.
    eq: Sym,
    inc: Sym,
    push: Sym,
    elements: Sym,
    mutating: Vec<Sym>,
    /// The binary operator of each compound assignment, by the spelling
    /// the rewriter passes to `__ceres_setprop2`.
    compound: Vec<(Sym, BinaryOp)>,
}

impl EngineHooks {
    fn new(eng: EngineRef) -> EngineHooks {
        use ceres_ast::AssignOp::*;
        EngineHooks {
            eng,
            eq: intern::intern("="),
            inc: intern::intern("++"),
            push: intern::intern("push"),
            elements: intern::intern("<elements>"),
            mutating: MUTATING_ARRAY_METHODS
                .iter()
                .map(|m| intern::intern(m))
                .collect(),
            compound: [
                Assign, Add, Sub, Mul, Div, Rem, Shl, Shr, UShr, BitAnd, BitOr, BitXor,
            ]
            .iter()
            .filter_map(|op| op.binary())
            .map(|op| (intern::intern(op.as_str()), op))
            .collect(),
        }
    }

    /// Borrow the engine and count one call of hook `index`. Each body
    /// bumps its tally with one array add; the obs layer must not perturb
    /// the overhead ledger it measures.
    fn engine(&self, index: usize) -> std::cell::RefMut<'_, Engine> {
        let mut e = self.eng.borrow_mut();
        e.tally.bump(index);
        e
    }
}

impl HookSink for EngineHooks {
    fn lw_enter(&self, interp: &mut Interp) -> JsResult {
        let now = interp.clock.now_ticks();
        self.engine(const { tally_index(hooks::LW_ENTER) })
            .lw_enter(now);
        Ok(Value::Undefined)
    }

    fn lw_exit(&self, interp: &mut Interp) -> JsResult {
        let now = interp.clock.now_ticks();
        self.engine(const { tally_index(hooks::LW_EXIT) })
            .lw_exit(now);
        Ok(Value::Undefined)
    }

    fn loop_enter(&self, interp: &mut Interp, id: u32) -> JsResult {
        let now = interp.clock.now_ticks();
        self.engine(const { tally_index(hooks::LOOP_ENTER) })
            .loop_enter(LoopId(id), now);
        Ok(Value::Undefined)
    }

    fn iter(&self, _interp: &mut Interp, id: u32) -> JsResult {
        self.engine(const { tally_index(hooks::ITER) })
            .iter(LoopId(id));
        Ok(Value::Undefined)
    }

    fn loop_exit(&self, interp: &mut Interp, id: u32) -> JsResult {
        let now = interp.clock.now_ticks();
        self.engine(const { tally_index(hooks::LOOP_EXIT) })
            .loop_exit(LoopId(id), now);
        Ok(Value::Undefined)
    }

    fn declvars(
        &self,
        interp: &mut Interp,
        names: usize,
        bindings: &mut dyn Iterator<Item = u64>,
    ) -> JsResult {
        // Stamping bindings copies the loop stack per name.
        interp.clock.tick(2 * names as u64);
        let mut e = self.engine(const { tally_index(hooks::DECLVARS) });
        for id in bindings {
            e.stamp_binding(id);
        }
        Ok(Value::Undefined)
    }

    fn wrvar(
        &self,
        interp: &mut Interp,
        name: Sym,
        binding: u64,
        op: Sym,
        value: Option<Value>,
    ) -> JsResult {
        // Scope lookup + stamp diff against the current stack.
        interp.clock.tick(8);
        let mut e = self.engine(const { tally_index(hooks::WRVAR) });
        e.var_write(name, binding, op);
        // When the rewriter threads the assigned value through the hook
        // (3-argument form), observe its runtime type and pass it along
        // unchanged.
        match value {
            Some(value) => {
                e.observe_type(name, binding, &value);
                Ok(value)
            }
            None => Ok(Value::Undefined),
        }
    }

    fn wrap(&self, interp: &mut Interp, value: Value) -> JsResult {
        // The Proxy wrap: snapshot the loop stack for the new object.
        interp.clock.tick(4);
        let mut e = self.engine(const { tally_index(hooks::WRAP) });
        if let Value::Object(o) = &value {
            e.stamp_object(o.id());
        }
        Ok(value)
    }

    fn getprop(&self, interp: &mut Interp, obj: &Value, key: Sym, base: Sym) -> JsResult {
        // Snapshot lookup + flow-dependence diff.
        interp.clock.tick(6);
        {
            let mut e = self.engine(const { tally_index(hooks::GETPROP) });
            if let Value::Object(o) = obj {
                e.prop_read(o.id(), key, base, true);
            }
        }
        interp.get_property_sym(obj, key)
    }

    fn setprop(
        &self,
        interp: &mut Interp,
        obj: &Value,
        key: Sym,
        value: Value,
        base: Sym,
        binding: u64,
    ) -> JsResult {
        // Effective-stamp diff, WAW check, snapshot update.
        interp.clock.tick(10);
        {
            let mut e = self.engine(const { tally_index(hooks::SETPROP) });
            if let Value::Object(o) = obj {
                e.prop_write(o.id(), key, base, binding, self.eq);
                e.observe_prop_type(base, key, &value);
            }
        }
        interp.set_property_sym(obj, key, value.clone())?;
        Ok(value)
    }

    fn setprop2(
        &self,
        interp: &mut Interp,
        obj: &Value,
        key: Sym,
        op: Sym,
        value: &Value,
        base: Sym,
        binding: u64,
    ) -> JsResult {
        // Read check + write check + compound evaluation.
        interp.clock.tick(14);
        let mut e = self.engine(const { tally_index(hooks::SETPROP2) });
        // Compound assignment reads the old value first.
        if let Value::Object(o) = obj {
            e.prop_read(o.id(), key, base, false);
        }
        drop(e);
        let old = interp.get_property_sym(obj, key)?;
        // An op spelling the rewriter never emits evaluates as `+`.
        let bop = self
            .compound
            .iter()
            .find(|(s, _)| *s == op)
            .map_or(BinaryOp::Add, |&(_, bop)| bop);
        let new = interp.binary_op(bop, &old, value)?;
        if let Value::Object(o) = obj {
            self.eng
                .borrow_mut()
                .prop_write(o.id(), key, base, binding, op);
        }
        interp.set_property_sym(obj, key, new.clone())?;
        Ok(new)
    }

    fn update_prop(
        &self,
        interp: &mut Interp,
        obj: &Value,
        key: Sym,
        delta: f64,
        prefix: bool,
        base: Sym,
        binding: u64,
    ) -> JsResult {
        interp.clock.tick(12);
        let mut e = self.engine(const { tally_index(hooks::UPDATE_PROP) });
        if let Value::Object(o) = obj {
            e.prop_read(o.id(), key, base, false);
        }
        drop(e);
        let old = ops::to_number(&interp.get_property_sym(obj, key)?);
        let new = old + delta;
        if let Value::Object(o) = obj {
            self.eng
                .borrow_mut()
                .prop_write(o.id(), key, base, binding, self.inc);
        }
        interp.set_property_sym(obj, key, Value::Num(new))?;
        Ok(Value::Num(if prefix { new } else { old }))
    }

    fn mcall(
        &self,
        interp: &mut Interp,
        obj: Value,
        key: Sym,
        base: Sym,
        args: &[Value],
        caller: Option<ScopeRef>,
    ) -> JsResult {
        interp.clock.tick(8);
        {
            let mut e = self.engine(const { tally_index(hooks::MCALL) });
            if let Value::Object(o) = &obj {
                e.prop_read(o.id(), key, base, true);
                // Array-mutating methods are element writes in disguise:
                // `results.push(x)` inside a loop is an output dependence
                // on the shared array.
                if o.is_array() && self.mutating.contains(&key) {
                    e.prop_write(o.id(), self.elements, base, 0, self.push);
                }
            }
        }
        let f = interp.get_property_sym(&obj, key)?;
        interp.call_value(&f, obj, args, caller)
    }
}

/// Create an engine for `mode`, install it as the interpreter's hook sink
/// and DOM monitor, register every `__ceres_*` hook by name, and return
/// the shared handle.
pub fn attach_engine(interp: &mut Interp, mode: Mode, loops: Vec<LoopInfo>) -> EngineRef {
    let engine = Engine::indexed_from(mode, loops, interp.first_ids());
    let engine: EngineRef = Rc::new(std::cell::RefCell::new(engine));
    interp.monitor = Some(Rc::new(EngineMonitor(engine.clone())));
    let sink = Rc::new(EngineHooks::new(engine.clone()));
    interp.hook_sink = Some(sink.clone());

    // The by-name natives: decode the `Value` arguments, resolve bindings
    // from the caller's scope, and call the typed body.
    fn arg(args: &[Value], i: usize) -> Value {
        args.get(i).cloned().unwrap_or(Value::Undefined)
    }
    fn loop_id(args: &[Value]) -> u32 {
        ops::to_number(&arg(args, 0)) as u32
    }
    let mut register = |name, f: fn(&EngineHooks, &mut Interp, &CallCtx, &[Value]) -> JsResult| {
        let sink = sink.clone();
        interp.register_native(name, move |interp, ctx, args| f(&sink, interp, ctx, args));
    };
    register(hooks::LW_ENTER, |h, interp, _, _| h.lw_enter(interp));
    register(hooks::LW_EXIT, |h, interp, _, _| h.lw_exit(interp));
    register(hooks::LOOP_ENTER, |h, interp, _, args| {
        h.loop_enter(interp, loop_id(args))
    });
    register(hooks::ITER, |h, interp, _, args| {
        h.iter(interp, loop_id(args))
    });
    register(hooks::LOOP_EXIT, |h, interp, _, args| {
        h.loop_exit(interp, loop_id(args))
    });
    register(hooks::DECLVARS, |h, interp, ctx, args| {
        let mut ids = args.iter().filter_map(|a| match (a, &ctx.caller_scope) {
            (Value::Str(name), Some(scope)) => scope
                .lookup_sym(intern::intern_rc(name))
                .map(|b| b.borrow().id),
            _ => None,
        });
        h.declvars(interp, args.len(), &mut ids)
    });
    register(hooks::WRVAR, |h, interp, ctx, args| {
        let name = sym_of_key(&arg(args, 0));
        let op = match args.get(1) {
            Some(Value::Str(s)) => intern::intern_rc(s),
            _ => h.eq,
        };
        h.wrvar(
            interp,
            name,
            binding_of(ctx, name),
            op,
            args.get(2).cloned(),
        )
    });
    register(hooks::WRAP, |h, interp, _, args| {
        h.wrap(interp, arg(args, 0))
    });
    register(hooks::GETPROP, |h, interp, _, args| {
        let key = sym_of_key(&arg(args, 1));
        h.getprop(interp, &arg(args, 0), key, opt_sym(&arg(args, 2)))
    });
    register(hooks::SETPROP, |h, interp, ctx, args| {
        let (key, base) = (sym_of_key(&arg(args, 1)), opt_sym(&arg(args, 3)));
        let binding = binding_of(ctx, base);
        h.setprop(interp, &arg(args, 0), key, arg(args, 2), base, binding)
    });
    register(hooks::SETPROP2, |h, interp, ctx, args| {
        let (key, op) = (sym_of_key(&arg(args, 1)), sym_of_key(&arg(args, 2)));
        let base = opt_sym(&arg(args, 4));
        let binding = binding_of(ctx, base);
        h.setprop2(interp, &arg(args, 0), key, op, &arg(args, 3), base, binding)
    });
    register(hooks::UPDATE_PROP, |h, interp, ctx, args| {
        let key = sym_of_key(&arg(args, 1));
        let delta = ops::to_number(&arg(args, 2));
        let prefix = ops::to_number(&arg(args, 3)) != 0.0;
        let base = opt_sym(&arg(args, 4));
        let binding = binding_of(ctx, base);
        h.update_prop(interp, &arg(args, 0), key, delta, prefix, base, binding)
    });
    register(hooks::MCALL, |h, interp, ctx, args| {
        let (key, base) = (sym_of_key(&arg(args, 1)), opt_sym(&arg(args, 2)));
        let call_args = args.get(3..).unwrap_or(&[]);
        let caller = ctx.caller_scope.clone();
        h.mcall(interp, arg(args, 0), key, base, call_args, caller)
    });

    engine
}

/// Array methods that mutate the receiver's elements.
const MUTATING_ARRAY_METHODS: &[&str] = &[
    "push", "pop", "shift", "unshift", "splice", "sort", "reverse",
];

/// Id of the binding `name` resolves to in the caller's scope, or 0 when
/// it resolves to none (or `name` is [`Sym::NONE`]).
fn binding_of(ctx: &CallCtx, name: Sym) -> u64 {
    match &ctx.caller_scope {
        Some(scope) if name.is_some() => scope.lookup_sym(name).map_or(0, |b| b.borrow().id),
        _ => 0,
    }
}

/// Run `source` under `mode` on a fresh interpreter with DOM installed;
/// convenience used by tests, examples, and the pipeline.
pub fn run_instrumented(source: &str, mode: Mode, seed: u64) -> JsResult<(Interp, EngineRef)> {
    let (instrumented, loops) = ceres_instrument::instrument_source(source, mode)
        .map_err(|e| ceres_interp::Control::Fatal(format!("instrumentation parse error: {e}")))?;
    let mut interp = Interp::new(seed);
    ceres_dom::install_dom(&mut interp);
    let engine = attach_engine(&mut interp, mode, loops);
    interp.eval_source(&instrumented)?;
    Ok((interp, engine))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::{render, Flag};

    fn run(src: &str, mode: Mode) -> (Interp, EngineRef) {
        run_instrumented(src, mode, 42).unwrap_or_else(|e| panic!("run failed: {e:?}"))
    }

    #[test]
    fn lightweight_counts_loop_time() {
        let (interp, eng) = run(
            "var s = 0;\n\
             for (var i = 0; i < 1000; i++) { s += i; }\n\
             var t = 0;\n\
             for (var j = 0; j < 10; j++) { t += j; }",
            Mode::Lightweight,
        );
        let eng = eng.borrow();
        assert!(eng.lw_loop_ticks > 0);
        assert!(eng.lw_loop_ticks < interp.clock.now_ticks());
        // The 1000-iteration loop dominates: loop time is most of total.
        assert!(eng.lw_loop_ticks as f64 > 0.8 * interp.clock.now_ticks() as f64);
    }

    #[test]
    fn loop_profile_counts_instances_and_trips() {
        let (_interp, eng) = run(
            "function work(n) {\n\
               var s = 0;\n\
               for (var i = 0; i < n; i++) { s += i; }\n\
               return s;\n\
             }\n\
             for (var r = 0; r < 5; r++) { work(10); }",
            Mode::LoopProfile,
        );
        let eng = eng.borrow();
        // Loop 1 = the inner for (source order), loop 2 = the outer for.
        let inner = &eng.records[&LoopId(1)];
        let outer = &eng.records[&LoopId(2)];
        assert_eq!(inner.instances, 5);
        assert_eq!(inner.trips.mean(), 10.0);
        assert_eq!(inner.trips.total(), 50.0);
        assert_eq!(outer.instances, 1);
        assert_eq!(outer.trips.mean(), 5.0);
        // Outer nest time includes inner time.
        assert!(outer.time_ticks.total() >= inner.time_ticks.total());
        // Nest attribution: inner ran inside outer.
        assert_eq!(eng.nest_root[&LoopId(1)], LoopId(2));
        assert_eq!(eng.nest_root[&LoopId(2)], LoopId(2));
    }

    #[test]
    fn trip_variance_via_welford() {
        let (_interp, eng) = run(
            "for (var r = 1; r <= 4; r++) {\n\
               for (var i = 0; i < r * 10; i++) { }\n\
             }",
            Mode::LoopProfile,
        );
        let eng = eng.borrow();
        let inner = &eng.records[&LoopId(2)];
        assert_eq!(inner.instances, 4);
        assert_eq!(inner.trips.mean(), 25.0); // (10+20+30+40)/4
        assert!((inner.trips.stddev() - 125.0f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn break_and_return_still_record_exits() {
        let (_interp, eng) = run(
            "function f() {\n\
               for (var i = 0; i < 100; i++) {\n\
                 if (i === 3) { return i; }\n\
               }\n\
             }\n\
             f();\n\
             for (var j = 0; j < 100; j++) { if (j === 5) { break; } }",
            Mode::LoopProfile,
        );
        let eng = eng.borrow();
        assert_eq!(eng.open_loops(), 0, "stack must unwind cleanly");
        let f_loop = &eng.records[&LoopId(1)];
        let b_loop = &eng.records[&LoopId(2)];
        assert_eq!(f_loop.instances, 1);
        assert_eq!(f_loop.trips.mean(), 4.0); // iterations 1..=4 entered
        assert_eq!(b_loop.instances, 1);
        assert_eq!(b_loop.trips.mean(), 6.0);
    }

    #[test]
    fn recursion_detected_and_tainted() {
        let (_interp, eng) = run(
            "function rec(n) {\n\
               var s = 0;\n\
               for (var i = 0; i < 2; i++) {\n\
                 if (n > 0) { s += rec(n - 1); }\n\
               }\n\
               return s;\n\
             }\n\
             rec(3);",
            Mode::LoopProfile,
        );
        let eng = eng.borrow();
        assert!(eng.records[&LoopId(1)].recursion_tainted);
        assert!(eng
            .warnings
            .iter()
            .any(|w| w.kind == WarningKind::Recursion));
    }

    #[test]
    fn fig6_nbody_warnings() {
        // The paper's Fig. 6 program, with a concrete setup and 3 steps.
        let src = r#"
var dT = 0.01;
var bodies = [];
var setup;
for (setup = 0; setup < 4; setup++) {
  bodies.push({ x: setup, y: 0, vX: 0, vY: 0, fX: 1, fY: 1, m: 1 });
}
function Particle() { this.x = 0; this.y = 0; this.m = 0; }
function computeForces() { }
function step() {
  computeForces();
  var com = new Particle();
  for (var i = 0; i < bodies.length; i++) {
    var p = bodies[i];
    p.vX += p.fX / p.m * dT;
    p.vY += p.fY / p.m * dT;
    p.x += p.vX * dT;
    p.y += p.vY * dT;
    com.m = com.m + p.m;
    com.x = (com.x * com.m + p.x * p.m) / (com.m + p.m);
    com.y = (com.y * com.m + p.y * p.m) / (com.m + p.m);
  }
  return com;
}
var steps = 0;
while (steps < 3) {
  var com = step();
  steps++;
}
"#;
        let (_interp, eng) = run(src, Mode::Dependence);
        let eng = eng.borrow();
        let loops = &eng.loops;

        // Loop ids in source order: 1 = setup for, 2 = the step() for,
        // 3 = the while.
        let find = |kind: WarningKind, subject: &str| {
            eng.warnings
                .iter()
                .find(|w| w.kind == kind && w.subject == subject)
                .unwrap_or_else(|| {
                    panic!(
                        "missing {kind:?} for {subject}; have: {:?}",
                        eng.warnings
                            .iter()
                            .map(|w| format!("{:?} {}", w.kind, w.subject))
                            .collect::<Vec<_>>()
                    )
                })
        };

        // (a) write to variable p: while ok ok -> for ok dependence.
        let wp = find(WarningKind::VarWrite, "p");
        let rendered = render(&wp.characterization, loops);
        assert!(
            rendered.starts_with("while(") && rendered.contains("ok ok -> for("),
            "unexpected characterization: {rendered}"
        );
        assert!(rendered.ends_with("ok dependence"), "{rendered}");

        // (b) writes to properties of p and com share the same shape.
        for subject in ["p.vX", "p.vY", "p.x", "p.y", "com.m", "com.x", "com.y"] {
            let w = find(WarningKind::SharedPropWrite, subject);
            let r = render(&w.characterization, loops);
            assert!(
                r.contains("ok ok -> for(") && r.ends_with("ok dependence"),
                "{subject}: {r}"
            );
        }

        // (c) flow reads of com.x / com.y / com.m.
        for subject in ["com.m", "com.x", "com.y"] {
            let w = find(WarningKind::FlowRead, subject);
            let r = render(&w.characterization, loops);
            assert!(
                r.contains("ok ok -> for(") && r.ends_with("ok dependence"),
                "flow {subject}: {r}"
            );
        }

        // The induction variable i is recorded as a var write with ++
        // (the `var i = 0` init is a separate "init" warning).
        assert!(eng.warnings.iter().any(|w| w.kind == WarningKind::VarWrite
            && w.subject == "i"
            && w.op.as_deref() == Some("++")));
    }

    #[test]
    fn private_iteration_locals_produce_no_warnings() {
        let (_interp, eng) = run(
            "function f(v) { var t = { s: 0 }; t.s = v * 2; return t.s; }\n\
             var out = 0;\n\
             for (var i = 0; i < 10; i++) { out += f(i); }",
            Mode::Dependence,
        );
        let eng = eng.borrow();
        // t is created and written entirely within one iteration: no
        // SharedPropWrite warning for t.s.
        assert!(
            !eng.warnings
                .iter()
                .any(|w| w.kind == WarningKind::SharedPropWrite && w.subject == "t.s"),
            "t.s wrongly flagged: {:?}",
            eng.warnings
        );
        // out is a reduction accumulator: flagged with op "+=".
        let w = eng
            .warnings
            .iter()
            .find(|w| w.kind == WarningKind::VarWrite && w.subject == "out")
            .expect("out flagged");
        assert_eq!(w.op.as_deref(), Some("+="));
    }

    #[test]
    fn disjoint_index_writes_have_high_disjointness() {
        let (_interp, eng) = run(
            "var data = new Float32Array(64);\n\
             for (var i = 0; i < 64; i++) { data[i] = i * 2; }",
            Mode::Dependence,
        );
        let eng = eng.borrow();
        let stats = eng.subject_stats_for("data[*]").expect("stats for data[*]");
        assert_eq!(stats.writes, 64);
        // one window, 64 writes to 64 distinct locations
        assert!(
            stats.disjointness() > 0.9,
            "disjointness {}",
            stats.disjointness()
        );
        // Conflicting writes to one field: low disjointness.
        let (_interp, eng) = run(
            "var acc = { v: 0 };\n\
             for (var i = 0; i < 64; i++) { acc.v = acc.v + i; }",
            Mode::Dependence,
        );
        let eng = eng.borrow();
        let stats = eng.subject_stats_for("acc.v").expect("stats for acc.v");
        assert!(
            stats.disjointness() < 0.1,
            "disjointness {}",
            stats.disjointness()
        );
        // And the read side is a flow dependence.
        assert!(eng
            .warnings
            .iter()
            .any(|w| w.kind == WarningKind::FlowRead && w.subject == "acc.v"));
    }

    #[test]
    fn disjoint_writes_past_the_location_cap_stay_disjoint() {
        // One loop instance writes 10,000 distinct locations, more than
        // the 4096 a window keeps; the writes it cannot record must not
        // count as repeats.
        let (_interp, eng) = run(
            "var n = 10000;\n\
             var out = [];\n\
             var i;\n\
             for (i = 0; i < n; i++) out[i] = i;",
            Mode::Dependence,
        );
        let eng = eng.borrow();
        let stats = eng.subject_stats_for("out[*]").expect("stats for out[*]");
        assert_eq!(stats.writes, 10_000);
        assert_eq!(stats.disjointness(), 1.0);
    }

    #[test]
    fn array_push_in_loop_is_output_dependence() {
        let (_interp, eng) = run(
            "var results = [];\n\
             for (var i = 0; i < 8; i++) { results.push(i * i); }",
            Mode::Dependence,
        );
        let eng = eng.borrow();
        assert!(
            eng.warnings.iter().any(
                |w| w.kind == WarningKind::SharedPropWrite && w.subject == "results.<elements>"
            ),
            "push not flagged: {:?}",
            eng.warnings
                .iter()
                .map(|w| (w.kind, w.subject.clone()))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn focus_limits_recording_to_one_nest() {
        let src = "var a = { v: 0 };\n\
                   var b = { v: 0 };\n\
                   for (var i = 0; i < 4; i++) { a.v += i; }\n\
                   for (var j = 0; j < 4; j++) { b.v += j; }";
        // Focused on loop 2 (the second for): only b.v warnings appear.
        let (instrumented, loops) =
            ceres_instrument::instrument_source(src, Mode::Dependence).unwrap();
        let mut interp = Interp::new(42);
        ceres_dom::install_dom(&mut interp);
        let engine = attach_engine(&mut interp, Mode::Dependence, loops);
        engine.borrow_mut().focus = Some(LoopId(2));
        interp.eval_source(&instrumented).unwrap();
        let eng = engine.borrow();
        assert!(eng.warnings.iter().any(|w| w.subject == "b.v"));
        assert!(!eng.warnings.iter().any(|w| w.subject == "a.v"));
    }

    #[test]
    fn dom_accesses_attributed_to_open_loops() {
        let (_interp, eng) = run(
            "var el = document.getElementById(\"out\");\n\
             for (var i = 0; i < 5; i++) { el.innerHTML = \"i\" + i; }\n\
             for (var j = 0; j < 5; j++) { var x = j * 2; }",
            Mode::Dependence,
        );
        let eng = eng.borrow();
        assert!(eng
            .dom_by_loop
            .get(&LoopId(1))
            .map(|t| t.contains("dom"))
            .unwrap_or(false));
        assert!(!eng.dom_by_loop.contains_key(&LoopId(2)));
    }

    #[test]
    fn warnings_deduplicate_with_counts() {
        let (_interp, eng) = run(
            "var g = 0;\n\
             for (var i = 0; i < 50; i++) { g = i; }",
            Mode::Dependence,
        );
        let eng = eng.borrow();
        let w: Vec<_> = eng
            .warnings
            .iter()
            .filter(|w| w.kind == WarningKind::VarWrite && w.subject == "g")
            .collect();
        assert_eq!(w.len(), 1, "deduplicated");
        assert_eq!(w[0].count, 50);
    }

    #[test]
    fn events_drain_on_batch_overflow_mid_iteration() {
        // One iteration performs hundreds of accesses; each must keep
        // its own stamp and add to its warning's dedup count.
        let n = 768;
        let src = format!(
            "var g = 0;\n\
             var o = {{ v: 0 }};\n\
             for (var i = 0; i < 2; i++) {{\n\
               var j = 0;\n\
               while (j < {n}) {{ g = j; o.v = j; j++; }}\n\
             }}"
        );
        let (_interp, eng) = run(&src, Mode::Dependence);
        let eng = eng.borrow();
        let g = eng
            .warnings
            .iter()
            .find(|w| w.kind == WarningKind::VarWrite && w.subject == "g")
            .expect("g flagged");
        assert_eq!(g.count, 2 * n as u64);
        assert!(eng
            .warnings
            .iter()
            .any(|w| w.kind == WarningKind::SharedPropWrite && w.subject == "o.v"));
    }

    #[test]
    fn characterizations_deeper_than_64_levels_are_recorded_in_full() {
        // `dive` re-enters its own loop 70 times, so the innermost
        // accesses are characterized against a 71-level stack: 42 of the
        // warnings are deeper than 64 levels.
        let (_interp, eng) = run(
            "var shared = 0; var box = { v: 0 };\n\
             function dive(d) {\n\
               for (var i = 0; i < 2; i++) {\n\
                 shared = d; box.v = box.v + i;\n\
                 if (d < 70 && i == 0) { dive(d + 1); }\n\
               }\n\
             }\n\
             dive(0);",
            Mode::Dependence,
        );
        let eng = eng.borrow();
        // One `oo`/`od`/`dd` pair (instance, iteration) per level.
        let flags = |c: &Characterization| -> String {
            let f = |flag| if flag == Flag::Ok { 'o' } else { 'd' };
            c.levels()
                .flat_map(|(_, instance, iteration)| [f(instance), f(iteration)])
                .collect()
        };
        let mut got: Vec<_> = eng
            .warnings
            .iter()
            .map(|w| {
                let c = &w.characterization;
                (
                    w.kind,
                    w.subject.as_str(),
                    w.op.as_deref(),
                    c.loops.len(),
                    w.count,
                    flags(c),
                )
            })
            .collect();
        // Globals are shared at every level; the loop-local `i` and the
        // cross-iteration reads and rewrites of `box.v` depend on the
        // innermost iteration only.
        let everywhere = |n: usize| "dd".repeat(n);
        let innermost = |n: usize| "oo".repeat(n - 1) + "od";
        let mut want = vec![(
            WarningKind::Recursion,
            "for(line 3)",
            None,
            0,
            70,
            String::new(),
        )];
        for n in 1..=71 {
            let local = if n == 1 { everywhere(1) } else { innermost(n) };
            want.extend([
                (
                    WarningKind::VarWrite,
                    "shared",
                    Some("="),
                    n,
                    2,
                    everywhere(n),
                ),
                (
                    WarningKind::VarWrite,
                    "i",
                    Some("init"),
                    n,
                    1,
                    local.clone(),
                ),
                (WarningKind::VarWrite, "i", Some("++"), n, 2, local),
                (
                    WarningKind::SharedPropWrite,
                    "box.v",
                    Some("="),
                    n,
                    2,
                    everywhere(n),
                ),
                (WarningKind::WawWrite, "box.v", None, n, 1, innermost(n)),
                (WarningKind::FlowRead, "box.v", None, n, 1, innermost(n)),
            ]);
        }
        got.sort();
        want.sort();
        assert_eq!(got.len(), 427);
        assert_eq!(got.iter().filter(|w| w.3 > 64).count(), 42);
        assert_eq!(got, want);
    }

    #[test]
    fn mcall_preserves_receiver_semantics() {
        let (interp, _eng) = run(
            "var counter = { n: 0, bump: function () { this.n += 1; return this.n; } };\n\
             for (var i = 0; i < 3; i++) { counter.bump(); }\n\
             console.log(counter.n);",
            Mode::Dependence,
        );
        assert_eq!(interp.console, vec!["3"]);
    }

    #[test]
    fn instrumented_programs_compute_same_results() {
        // Semantics preservation: the same program, all four ways.
        let src = "var out = [];\n\
                   function fib(n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); }\n\
                   for (var i = 0; i < 8; i++) { out.push(fib(i)); }\n\
                   console.log(out.join(\",\"));";
        let expected = "0,1,1,2,3,5,8,13";
        let mut plain = Interp::new(42);
        plain.eval_source(src).unwrap();
        assert_eq!(plain.console, vec![expected]);
        for mode in [Mode::Lightweight, Mode::LoopProfile, Mode::Dependence] {
            let (interp, _eng) = run(src, mode);
            assert_eq!(interp.console, vec![expected], "{mode:?}");
        }
    }

    /// Every warning of `eng`, one line each, in recording order.
    fn warning_lines(eng: &Engine) -> Vec<String> {
        eng.warnings
            .iter()
            .map(|w| {
                format!(
                    "{:?} `{}` op={:?} nest={} count={} | {}",
                    w.kind,
                    w.subject,
                    w.op.as_deref(),
                    w.nest_root,
                    w.count,
                    render(&w.characterization, &eng.loops)
                )
            })
            .collect()
    }

    #[test]
    fn host_globals_and_host_objects_characterize_as_before() {
        // Host globals and host objects are made in `Interp::new` and
        // `install_dom`, before the engine attaches; `var` keeps a host
        // global's binding, so the declarations stamp it.
        let (_interp, eng) = run(
            "var Infinity;\n\
             var total = 0;\n\
             for (var i = 0; i < 3; i++) {\n\
               Infinity = i;\n\
               var NaN = i * 2;\n\
               Math.tau = Math.PI * 2 + i;\n\
               window.count = (window.count || 0) + 1;\n\
               document.title = document.title + i;\n\
               total = Math.tau + NaN + window.count;\n\
             }",
            Mode::Dependence,
        );
        assert_eq!(warning_lines(&eng.borrow()), HOST_WARNINGS);
    }

    /// [`host_globals_and_host_objects_characterize_as_before`]'s warnings,
    /// as the engine recorded them when its stamps were hash maps keyed by
    /// the raw id.
    const HOST_WARNINGS: &[&str] = &[
        r#"VarWrite `i` op=Some("init") nest=L1 count=1 | for(line 3) dependence dependence"#,
        r#"VarWrite `Infinity` op=Some("=") nest=L1 count=3 | for(line 3) dependence dependence"#,
        r#"VarWrite `NaN` op=Some("init") nest=L1 count=3 | for(line 3) dependence dependence"#,
        r#"SharedPropWrite `Math.tau` op=Some("=") nest=L1 count=3 | for(line 3) dependence dependence"#,
        r#"SharedPropWrite `window.count` op=Some("=") nest=L1 count=3 | for(line 3) dependence dependence"#,
        r#"SharedPropWrite `document.title` op=Some("=") nest=L1 count=3 | for(line 3) dependence dependence"#,
        r#"VarWrite `total` op=Some("=") nest=L1 count=3 | for(line 3) dependence dependence"#,
        r#"VarWrite `i` op=Some("++") nest=L1 count=3 | for(line 3) dependence dependence"#,
        r#"WawWrite `Math.tau` op=None nest=L1 count=2 | for(line 3) ok dependence"#,
        r#"FlowRead `window.count` op=None nest=L1 count=2 | for(line 3) ok dependence"#,
        r#"WawWrite `window.count` op=None nest=L1 count=2 | for(line 3) ok dependence"#,
        r#"FlowRead `document.title` op=None nest=L1 count=2 | for(line 3) ok dependence"#,
        r#"WawWrite `document.title` op=None nest=L1 count=2 | for(line 3) ok dependence"#,
    ];

    #[test]
    fn a_location_two_tasks_touch_is_in_both_tasks_sets() {
        let src = "var g = 0;\n\
                   var shared = { v: 0 };\n\
                   for (var i = 0; i < 3; i++) { shared.v = shared.v + i; g = i; }\n\
                   setTimeout(function () {\n\
                     for (var j = 0; j < 3; j++) { shared.v = shared.v + j; g = j; }\n\
                   }, 0);";
        let (instrumented, loops) =
            ceres_instrument::instrument_source(src, Mode::Dependence).unwrap();
        let mut interp = Interp::new(42);
        ceres_dom::install_dom(&mut interp);
        let engine = attach_engine(&mut interp, Mode::Dependence, loops);
        engine
            .borrow_mut()
            .begin_task("main", interp.clock.now_ticks());
        interp.eval_source(&instrumented).unwrap();
        engine.borrow_mut().end_task(interp.clock.now_ticks());
        interp.run_events(10).unwrap();
        let global = |name| interp.global.lookup(name).unwrap();
        let binding = crate::tasks::binding_location(global("g").borrow().id);
        let Value::Object(shared) = global("shared").borrow().value.clone() else {
            panic!("shared is an object")
        };
        let obj = crate::tasks::object_location(shared.id());
        let eng = engine.borrow();
        assert_eq!(eng.tasks.len(), 2);
        for t in &eng.tasks {
            assert!(t.reads.contains(&obj), "{}: {:?}", t.label, t.reads);
            assert!(t.writes.contains(&obj), "{}: {:?}", t.label, t.writes);
            assert!(t.writes.contains(&binding), "{}: {:?}", t.label, t.writes);
        }
        assert_eq!(crate::tasks::task_limit_study(&eng).conflicts, 1);
    }

    #[test]
    fn compound_property_assignments_compute_as_uninstrumented() {
        // Every compound operator the rewriter hands `__ceres_setprop2`.
        let src = "var o = { s: \"x\", n: -77.5 };\n\
                   var out = [];\n\
                   o.s += 1; out.push(o.s);\n\
                   o.n -= 3; out.push(o.n); o.n *= 5; out.push(o.n);\n\
                   o.n /= 2; out.push(o.n); o.n %= 7; out.push(o.n);\n\
                   o.n <<= 3; out.push(o.n); o.n >>= 1; out.push(o.n);\n\
                   o.n >>>= 28; out.push(o.n); o.n &= 6; out.push(o.n);\n\
                   o.n |= 9; out.push(o.n); o.n ^= 5; out.push(o.n);\n\
                   console.log(out.join(\",\"));";
        let mut plain = Interp::new(42);
        plain.eval_source(src).unwrap();
        assert_eq!(
            plain.console,
            ["x1,-80.5,-402.5,-201.25,-5.25,-40,-20,15,6,15,10"]
        );
        let (interp, eng) = run(src, Mode::Dependence);
        assert_eq!(interp.console, plain.console);
        assert_eq!(eng.borrow().tally.get(hooks::SETPROP2), 11);
    }
}

#[cfg(test)]
mod polymorphism_tests {
    use crate::engine::run_instrumented;
    use ceres_instrument::Mode;
    use ceres_interp::intern;

    #[test]
    fn polymorphic_variable_in_loop_is_detected() {
        let (_interp, eng) = run_instrumented(
            "var x = 0;\n\
             var i;\n\
             for (i = 0; i < 6; i++) {\n\
               x = i % 2 === 0 ? i : \"s\" + i;\n\
             }",
            Mode::Dependence,
            1,
        )
        .unwrap();
        let eng = eng.borrow();
        let poly = eng.polymorphic_subjects();
        assert!(
            poly.iter()
                .any(|(s, tys)| s == "x" && tys.contains(&"number") && tys.contains(&"string")),
            "{poly:?}"
        );
    }

    #[test]
    fn monomorphic_and_nullable_variables_are_not_flagged() {
        let (_interp, eng) = run_instrumented(
            "var n = 0;\n\
             var maybe = null;\n\
             var i;\n\
             for (i = 0; i < 6; i++) {\n\
               n = i * 2;\n\
               maybe = i % 2 === 0 ? null : undefined;\n\
             }",
            Mode::Dependence,
            1,
        )
        .unwrap();
        let eng = eng.borrow();
        let poly = eng.polymorphic_subjects();
        assert!(poly.is_empty(), "{poly:?}");
        // n was observed, with exactly one type.
        let n_types: Vec<usize> = eng
            .observed_types
            .iter()
            .filter(|((name, _), _)| &*intern::resolve(*name) == "n")
            .map(|(_, tys)| tys.len())
            .collect();
        assert_eq!(n_types, vec![1]);
    }

    #[test]
    fn polymorphic_property_is_detected() {
        let (_interp, eng) = run_instrumented(
            "var o = { v: 0 };\n\
             var i;\n\
             for (i = 0; i < 4; i++) {\n\
               o.v = i === 2 ? function () { return 1; } : i;\n\
             }",
            Mode::Dependence,
            1,
        )
        .unwrap();
        let eng = eng.borrow();
        let poly = eng.polymorphic_subjects();
        assert!(
            poly.iter()
                .any(|(s, tys)| s == "o.v" && tys.contains(&"function")),
            "{poly:?}"
        );
    }

    #[test]
    fn writes_outside_loops_are_not_observed() {
        let (_interp, eng) =
            run_instrumented("var a = 1;\na = \"str\";\na = true;", Mode::Dependence, 1).unwrap();
        let eng = eng.borrow();
        assert!(eng.polymorphic_subjects().is_empty());
    }
}
