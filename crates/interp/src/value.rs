//! Runtime values and the object heap.
//!
//! Objects are reference-counted with interior mutability; every object gets
//! a process-unique id so the analysis engine can keep side tables (creation
//! stamps, last-write snapshots) without the interpreter knowing about them —
//! this replaces the ES `Proxy` wrapping the paper's tool used (Sec. 3.3).
//!
//! Every mutation goes through an [`ObjRef`] method, so the heap can also
//! keep a *write log*: while one is open ([`open_write_log`]), the first
//! write to each older object records its [`PreImage`]. With no log open
//! the check is one thread-local compare.

use crate::env::ScopeRef;
use crate::intern::{intern, resolve, FxHashMap, FxHashSet, Sym};
use crate::interp::{Interp, JsResult};
use ceres_ast::ast::Func;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// A JavaScript value.
#[derive(Clone)]
pub enum Value {
    /// `undefined`.
    Undefined,
    /// `null`.
    Null,
    /// A boolean primitive.
    Bool(bool),
    /// An IEEE-754 double, as all JS numbers are.
    Num(f64),
    /// An immutable, cheaply-cloned string primitive.
    Str(Rc<str>),
    /// A reference into the object heap.
    Object(ObjRef),
}

impl Value {
    /// Build a `Value::Str` from any string-ish input.
    pub fn str<S: AsRef<str>>(s: S) -> Value {
        Value::Str(Rc::from(s.as_ref()))
    }

    /// JS `typeof`.
    pub fn type_of(&self) -> &'static str {
        match self {
            Value::Undefined => "undefined",
            Value::Null => "object",
            Value::Bool(_) => "boolean",
            Value::Num(_) => "number",
            Value::Str(_) => "string",
            Value::Object(o) => {
                if o.is_callable() {
                    "function"
                } else {
                    "object"
                }
            }
        }
    }

    /// JS truthiness.
    pub fn truthy(&self) -> bool {
        match self {
            Value::Undefined | Value::Null => false,
            Value::Bool(b) => *b,
            Value::Num(n) => *n != 0.0 && !n.is_nan(),
            Value::Str(s) => !s.is_empty(),
            Value::Object(_) => true,
        }
    }

    /// The object reference, if this value is one.
    pub fn as_object(&self) -> Option<&ObjRef> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Strict equality (`===`).
    pub fn strict_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Undefined, Value::Undefined) | (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Num(a), Value::Num(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Object(a), Value::Object(b)) => a.id() == b.id(),
            _ => false,
        }
    }
}

impl std::fmt::Debug for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Undefined => write!(f, "undefined"),
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Num(n) => write!(f, "{n}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Object(o) => write!(f, "[object #{} {}]", o.id(), o.class_name()),
        }
    }
}

/// Signature of native (host) functions.
///
/// `this` is the receiver, `args` the call arguments. The [`CallCtx`] exposes
/// the *caller's* lexical scope so analysis hooks like `__ceres_wrvar("p")`
/// can resolve the binding the instrumented access refers to.
pub type NativeFn = Rc<dyn Fn(&mut Interp, &CallCtx, &[Value]) -> JsResult>;

/// Context passed to native functions.
pub struct CallCtx {
    /// `this` value of the call.
    pub this: Value,
    /// Scope the call expression was evaluated in (caller's scope).
    pub caller_scope: Option<ScopeRef>,
}

/// What kind of object this is.
pub enum ObjKind {
    /// Plain object (also used for DOM nodes built by `ceres-dom`).
    Plain,
    /// Array with dense element storage.
    Array(Vec<Value>),
    /// Interpreted function (closure).
    Function(JsFunction),
    /// Host function implemented in Rust.
    Native {
        /// Diagnostic name (shown in stringification and errors).
        name: String,
        /// The Rust implementation.
        f: NativeFn,
    },
}

/// An interpreted function: AST + captured environment.
pub struct JsFunction {
    /// Function name, when declared or inferred.
    pub name: Option<String>,
    /// The parsed function body and parameters.
    pub func: Rc<Func>,
    /// The environment captured at definition (closure scope).
    pub env: ScopeRef,
    /// Compiled bytecode, when the function was created by the VM backend.
    /// `None` means calls fall back to the tree-walker.
    pub code: Option<CompiledFn>,
}

/// A handle to one compiled function body inside its module.
///
/// Closures created by the same `eval_program` share one
/// [`Module`](crate::bytecode::Module)
/// (`Rc`), so building a closure does not clone its AST the way the
/// tree-walker's `make_function` does.
#[derive(Clone)]
pub struct CompiledFn {
    /// The module the chunk lives in.
    pub module: Rc<crate::bytecode::Module>,
    /// Chunk index within the module.
    pub chunk: u32,
}

/// Object payload.
pub struct Obj {
    /// What the object is (plain, array, function, native).
    pub kind: ObjKind,
    /// Named properties, keyed by interned [`Sym`] so the hot property
    /// path never hashes key bytes twice; `key_order` preserves insertion
    /// order for `for-in` and `Object.keys`.
    pub props: FxHashMap<Sym, Value>,
    /// Insertion order of `props` keys.
    pub key_order: Vec<Sym>,
    /// Prototype link (`[[Prototype]]`).
    pub proto: Option<ObjRef>,
    /// Free-form tag used by `ceres-dom` to mark DOM/Canvas objects so the
    /// analysis can classify accesses (Table 3, "DOM access" column).
    pub tag: Option<&'static str>,
}

impl Obj {
    /// Own (non-prototype) property by string key.
    pub fn get_own(&self, key: &str) -> Option<Value> {
        self.get_own_sym(intern(key))
    }

    /// [`Obj::get_own`] with a pre-interned key.
    pub fn get_own_sym(&self, key: Sym) -> Option<Value> {
        self.props.get(&key).cloned()
    }

    /// Set an own property by string key, preserving insertion order.
    pub fn set_prop(&mut self, key: &str, value: Value) {
        self.set_prop_sym(intern(key), value);
    }

    /// [`Obj::set_prop`] with a pre-interned key.
    pub fn set_prop_sym(&mut self, key: Sym, value: Value) {
        if !self.props.contains_key(&key) {
            self.key_order.push(key);
        }
        self.props.insert(key, value);
    }

    /// `delete obj.key`: remove an own property; true if it existed.
    pub fn delete_prop(&mut self, key: &str) -> bool {
        self.delete_prop_sym(intern(key))
    }

    /// [`Obj::delete_prop`] with a pre-interned key.
    pub fn delete_prop_sym(&mut self, key: Sym) -> bool {
        if self.props.remove(&key).is_some() {
            self.key_order.retain(|k| *k != key);
            true
        } else {
            false
        }
    }
}

/// A reference-counted handle to an object with a unique id.
#[derive(Clone)]
pub struct ObjRef {
    id: u64,
    inner: Rc<RefCell<Obj>>,
}

thread_local! {
    static NEXT_OBJ_ID: Cell<u64> = const { Cell::new(1) };
    /// Weak handles to every live allocation on this thread, in allocation
    /// order. [`Interp`] records the length at construction and sweeps its
    /// suffix on drop — see [`heap_sweep`].
    static OBJ_REGISTRY: RefCell<Vec<std::rc::Weak<RefCell<Obj>>>> = const { RefCell::new(Vec::new()) };
    /// Where the registry's ids jump, as `(index, id)` pairs in order:
    /// entry `index + k` holds object `id + k` up to the next pair, and
    /// before the first pair entry `k` holds object `k + 1`. A sweep and
    /// [`advance_object_ids`] each start a pair, so [`object_by_id`] needs
    /// no per-object memory.
    static ID_JUMPS: RefCell<Vec<(usize, u64)>> = const { RefCell::new(Vec::new()) };
    /// Objects with an id below this are logged on their first write; 0
    /// while no write log is open, which no id is below.
    static LOG_BELOW: Cell<u64> = const { Cell::new(0) };
    static WRITE_LOG: RefCell<Option<WriteLog>> = const { RefCell::new(None) };
}

/// An object's own state when an open write log saw its first write.
pub struct PreImage {
    /// The object itself.
    pub obj: ObjRef,
    /// Its elements, for an array.
    pub elems: Option<Vec<Value>>,
    /// Its named properties.
    pub props: FxHashMap<Sym, Value>,
    /// Their insertion order.
    pub key_order: Vec<Sym>,
}

struct WriteLog {
    seen: FxHashSet<u64>,
    dirty: Vec<PreImage>,
}

/// Start logging writes: from now until [`close_write_log`], the first
/// mutation of each object that exists now records its [`PreImage`]. The
/// fork-join executor opens a log per gated instance and builds its merge
/// from it.
pub fn open_write_log() {
    WRITE_LOG.with(|log| {
        *log.borrow_mut() = Some(WriteLog {
            seen: FxHashSet::default(),
            dirty: Vec::new(),
        })
    });
    LOG_BELOW.set(NEXT_OBJ_ID.get());
}

/// Stop logging and return the pre-images, in first-write order.
pub fn close_write_log() -> Vec<PreImage> {
    LOG_BELOW.set(0);
    WRITE_LOG
        .with(|log| log.borrow_mut().take())
        .map_or_else(Vec::new, |log| log.dirty)
}

#[cold]
#[inline(never)]
fn log_first_write(obj: &ObjRef) {
    WRITE_LOG.with(|log| {
        let mut log = log.borrow_mut();
        let Some(log) = log.as_mut() else { return };
        if !log.seen.insert(obj.id) {
            return;
        }
        let o = obj.inner.borrow();
        log.dirty.push(PreImage {
            obj: obj.clone(),
            elems: match &o.kind {
                ObjKind::Array(v) => Some(v.clone()),
                _ => None,
            },
            props: o.props.clone(),
            key_order: o.key_order.clone(),
        });
    })
}

/// The id the next allocated object gets.
pub fn next_object_id() -> u64 {
    NEXT_OBJ_ID.get()
}

/// Move the id counter forward to `to` (never back). Replicas of one
/// program that allocated different numbers of objects call this with a
/// common value, so they name the objects they allocate next alike.
pub fn advance_object_ids(to: u64) {
    if to > NEXT_OBJ_ID.get() {
        NEXT_OBJ_ID.set(to);
        let index = OBJ_REGISTRY.with(|r| r.borrow().len());
        ID_JUMPS.with(|j| j.borrow_mut().push((index, to)));
    }
}

/// Use up one object id without allocating. Its registry entry is empty,
/// as the entry of an object dropped at once would be, so
/// [`object_by_id`] and [`advance_object_ids`] line up either way. The VM
/// uses this for the `arguments` array of a body that never names it.
pub(crate) fn skip_object_id() {
    NEXT_OBJ_ID.set(NEXT_OBJ_ID.get() + 1);
    OBJ_REGISTRY.with(|r| r.borrow_mut().push(std::rc::Weak::new()));
}

/// The live object with this id on this thread, if any.
pub fn object_by_id(id: u64) -> Option<ObjRef> {
    let index = ID_JUMPS.with(|j| {
        let j = j.borrow();
        let pos = j.partition_point(|&(_, first)| first <= id);
        let (start, first) = if pos == 0 { (0, 1) } else { j[pos - 1] };
        let index = start + usize::try_from(id.checked_sub(first)?).ok()?;
        match j.get(pos) {
            Some(&(next, _)) if index >= next => None,
            _ => Some(index),
        }
    })?;
    let inner = OBJ_REGISTRY.with(|r| r.borrow().get(index).and_then(std::rc::Weak::upgrade))?;
    Some(ObjRef { id, inner })
}

/// Current length of this thread's allocation registry. An [`Interp`] takes
/// a mark at construction so [`heap_sweep`] can tear down exactly the
/// objects allocated during its lifetime.
pub(crate) fn heap_mark() -> usize {
    OBJ_REGISTRY.with(|r| r.borrow().len())
}

/// Break reference cycles in every object allocated at or after `mark`.
///
/// The object graph is full of `Rc` cycles — a closure's [`JsFunction::env`]
/// keeps the scope that holds the closure's own binding alive, and plain
/// objects freely point at each other — so dropping an [`Interp`] would leak
/// its entire heap (~tens of MB per dependence-mode app run). Emptying each
/// still-live object (properties, prototype, and `kind`, which drops the
/// captured environment of functions) makes the graph acyclic so the normal
/// `Rc` reclamation frees it. Swept objects remain valid, empty, plain
/// objects: analysis side tables keyed by object id are unaffected.
pub(crate) fn heap_sweep(mark: usize) {
    let (at, tail) = OBJ_REGISTRY.with(|r| {
        let mut reg = r.borrow_mut();
        let at = mark.min(reg.len());
        (at, reg.split_off(at))
    });
    ID_JUMPS.with(|j| {
        let mut j = j.borrow_mut();
        j.retain(|&(index, _)| index < at);
        let (start, first) = j.last().copied().unwrap_or((0, 1));
        let next = NEXT_OBJ_ID.get();
        if first + (at - start) as u64 != next {
            j.push((at, next));
        }
    });
    for weak in tail {
        if let Some(obj) = weak.upgrade() {
            // `try_borrow_mut`: if we are unwinding from a panic that held a
            // borrow, skip the object rather than aborting in drop.
            if let Ok(mut o) = obj.try_borrow_mut() {
                o.kind = ObjKind::Plain;
                o.props.clear();
                o.key_order.clear();
                o.proto = None;
            }
        }
    }
}

impl ObjRef {
    /// Allocate a fresh object with a unique heap id.
    pub fn new(kind: ObjKind) -> ObjRef {
        let id = NEXT_OBJ_ID.get();
        NEXT_OBJ_ID.set(id + 1);
        let inner = Rc::new(RefCell::new(Obj {
            kind,
            props: FxHashMap::default(),
            key_order: Vec::new(),
            proto: None,
            tag: None,
        }));
        OBJ_REGISTRY.with(|r| r.borrow_mut().push(Rc::downgrade(&inner)));
        ObjRef { id, inner }
    }

    /// Unique, never-reused object id. Keys for analysis side tables.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Immutable borrow of the payload.
    pub fn borrow(&self) -> std::cell::Ref<'_, Obj> {
        self.inner.borrow()
    }

    /// Mutable borrow of the payload.
    pub fn borrow_mut(&self) -> std::cell::RefMut<'_, Obj> {
        self.log_write();
        self.inner.borrow_mut()
    }

    /// Every mutator calls this first: while a write log is open, the
    /// first write to an object older than the log records its pre-image.
    #[inline]
    fn log_write(&self) {
        if self.id < LOG_BELOW.get() {
            log_first_write(self);
        }
    }

    /// Is this a function (interpreted or native)?
    pub fn is_callable(&self) -> bool {
        matches!(
            self.inner.borrow().kind,
            ObjKind::Function(_) | ObjKind::Native { .. }
        )
    }

    /// Is this an array object?
    pub fn is_array(&self) -> bool {
        matches!(self.inner.borrow().kind, ObjKind::Array(_))
    }

    /// Class name for diagnostics: "Object", "Array", "Function".
    pub fn class_name(&self) -> &'static str {
        match self.inner.borrow().kind {
            ObjKind::Plain => "Object",
            ObjKind::Array(_) => "Array",
            ObjKind::Function(_) | ObjKind::Native { .. } => "Function",
        }
    }

    /// Array length, if this is an array.
    pub fn array_len(&self) -> Option<usize> {
        match &self.inner.borrow().kind {
            ObjKind::Array(v) => Some(v.len()),
            _ => None,
        }
    }

    /// Read an array element (None when out of range or not an array).
    pub fn array_get(&self, idx: usize) -> Option<Value> {
        match &self.inner.borrow().kind {
            ObjKind::Array(v) => v.get(idx).cloned(),
            _ => None,
        }
    }

    /// Write an array element, growing with `undefined` holes as needed.
    pub fn array_set(&self, idx: usize, value: Value) {
        self.log_write();
        if let ObjKind::Array(v) = &mut self.inner.borrow_mut().kind {
            if idx >= v.len() {
                v.resize(idx + 1, Value::Undefined);
            }
            v[idx] = value;
        }
    }

    /// Run `f` with a shared borrow of the element vector.
    pub fn with_array<R>(&self, f: impl FnOnce(&[Value]) -> R) -> Option<R> {
        match &self.inner.borrow().kind {
            ObjKind::Array(v) => Some(f(v)),
            _ => None,
        }
    }

    /// Run `f` with a mutable borrow of the element vector.
    pub fn with_array_mut<R>(&self, f: impl FnOnce(&mut Vec<Value>) -> R) -> Option<R> {
        self.log_write();
        match &mut self.inner.borrow_mut().kind {
            ObjKind::Array(v) => Some(f(v)),
            _ => None,
        }
    }

    /// The DOM tag, if `ceres-dom` marked this object.
    pub fn tag(&self) -> Option<&'static str> {
        self.inner.borrow().tag
    }

    /// Tag the object as host-provided (DOM/Canvas attribution).
    pub fn set_tag(&self, tag: &'static str) {
        self.log_write();
        self.inner.borrow_mut().tag = Some(tag);
    }

    /// The prototype link.
    pub fn proto(&self) -> Option<ObjRef> {
        self.inner.borrow().proto.clone()
    }

    /// Replace the prototype link.
    pub fn set_proto(&self, proto: Option<ObjRef>) {
        self.log_write();
        self.inner.borrow_mut().proto = proto;
    }

    /// Get own property (not walking the prototype chain).
    pub fn get_own(&self, key: &str) -> Option<Value> {
        self.inner.borrow().get_own(key)
    }

    /// [`ObjRef::get_own`] with a pre-interned key.
    pub fn get_own_sym(&self, key: Sym) -> Option<Value> {
        self.inner.borrow().get_own_sym(key)
    }

    /// Set an own named property.
    pub fn set_prop(&self, key: &str, value: Value) {
        self.log_write();
        self.inner.borrow_mut().set_prop(key, value);
    }

    /// [`ObjRef::set_prop`] with a pre-interned key.
    pub fn set_prop_sym(&self, key: Sym, value: Value) {
        self.log_write();
        self.inner.borrow_mut().set_prop_sym(key, value);
    }

    /// Own enumerable keys in insertion order; for arrays, indices first.
    /// Table-backed keys are `Rc` clones (no byte copies).
    pub fn own_keys(&self) -> Vec<Rc<str>> {
        let obj = self.inner.borrow();
        let mut keys = Vec::new();
        if let ObjKind::Array(v) = &obj.kind {
            for i in 0..v.len() {
                keys.push(Rc::from(i.to_string().as_str()));
            }
        }
        keys.extend(obj.key_order.iter().map(|k| resolve(*k)));
        keys
    }
}

impl PartialEq for ObjRef {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}

/// Convenience: build a plain object.
pub fn new_object() -> ObjRef {
    ObjRef::new(ObjKind::Plain)
}

/// Convenience: build an array from values.
pub fn new_array(values: Vec<Value>) -> ObjRef {
    ObjRef::new(ObjKind::Array(values))
}

/// Convenience: build a native function object.
pub fn native_fn(name: &str, f: NativeFn) -> ObjRef {
    ObjRef::new(ObjKind::Native {
        name: name.to_string(),
        f,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness() {
        assert!(!Value::Undefined.truthy());
        assert!(!Value::Null.truthy());
        assert!(!Value::Num(0.0).truthy());
        assert!(!Value::Num(f64::NAN).truthy());
        assert!(Value::Num(-1.0).truthy());
        assert!(!Value::str("").truthy());
        assert!(Value::str("x").truthy());
        assert!(Value::Object(new_object()).truthy());
    }

    #[test]
    fn type_of_strings() {
        assert_eq!(Value::Undefined.type_of(), "undefined");
        assert_eq!(Value::Null.type_of(), "object");
        assert_eq!(Value::Num(1.0).type_of(), "number");
        assert_eq!(Value::str("a").type_of(), "string");
        assert_eq!(Value::Bool(true).type_of(), "boolean");
        assert_eq!(Value::Object(new_object()).type_of(), "object");
    }

    #[test]
    fn object_ids_are_unique() {
        let a = new_object();
        let b = new_object();
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn strict_eq_objects_by_identity() {
        let a = new_object();
        let b = a.clone();
        let c = new_object();
        assert!(Value::Object(a.clone()).strict_eq(&Value::Object(b)));
        assert!(!Value::Object(a).strict_eq(&Value::Object(c)));
    }

    #[test]
    fn array_storage_grows_with_holes() {
        let a = new_array(vec![Value::Num(1.0)]);
        a.array_set(3, Value::Num(4.0));
        assert_eq!(a.array_len(), Some(4));
        assert!(matches!(a.array_get(1), Some(Value::Undefined)));
        assert!(matches!(a.array_get(3), Some(Value::Num(n)) if n == 4.0));
    }

    #[test]
    fn write_log_keeps_first_pre_image_of_older_objects() {
        let old = new_array(vec![Value::Num(1.0)]);
        old.set_prop("k", Value::Num(2.0));
        open_write_log();
        old.array_set(0, Value::Num(10.0));
        old.set_prop("k", Value::Num(20.0));
        let fresh = new_object();
        fresh.set_prop("x", Value::Null);
        let dirty = close_write_log();
        old.set_prop("after", Value::Null);
        assert_eq!(dirty.len(), 1);
        assert_eq!(dirty[0].obj.id(), old.id());
        let elems = dirty[0].elems.as_ref().expect("an array");
        assert!(matches!(elems[..], [Value::Num(n)] if n == 1.0));
        assert!(matches!(dirty[0].props[&intern("k")], Value::Num(n) if n == 2.0));
        assert!(close_write_log().is_empty());
    }

    #[test]
    fn objects_resolve_by_id_across_a_jump() {
        let a = new_object();
        advance_object_ids(next_object_id() + 100);
        let b = new_object();
        assert!(object_by_id(a.id()) == Some(a.clone()));
        assert!(object_by_id(b.id()) == Some(b.clone()));
        assert!(object_by_id(b.id() - 1).is_none(), "a skipped id");
        assert!(object_by_id(b.id() + 1).is_none(), "not yet allocated");
        let id = b.id();
        drop(b);
        assert!(object_by_id(id).is_none(), "dropped");
    }

    fn keys(o: &ObjRef) -> Vec<String> {
        o.own_keys().iter().map(|k| k.to_string()).collect()
    }

    #[test]
    fn own_keys_arrays_then_props() {
        let a = new_array(vec![Value::Num(1.0), Value::Num(2.0)]);
        a.set_prop("name", Value::str("xs"));
        assert_eq!(keys(&a), vec!["0", "1", "name"]);
    }

    #[test]
    fn key_order_preserved_and_delete() {
        let o = new_object();
        o.set_prop("b", Value::Num(1.0));
        o.set_prop("a", Value::Num(2.0));
        o.set_prop("b", Value::Num(3.0)); // overwrite keeps position
        assert_eq!(keys(&o), vec!["b", "a"]);
        assert!(o.borrow_mut().delete_prop("b"));
        assert_eq!(keys(&o), vec!["a"]);
        assert!(!o.borrow_mut().delete_prop("zzz"));
    }
}
