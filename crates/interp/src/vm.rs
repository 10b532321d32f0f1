//! The bytecode dispatch loop.
//!
//! One `Interp::run_chunk` activation executes one JS frame (the program
//! or one function body) over a value stack. Interpreted calls recurse
//! through [`Interp::call_value`] exactly like the tree-walker, so native
//! hooks observe the same call boundaries; *within* a frame there is no
//! Rust recursion — `break`/`continue`/`return`/`throw` unwind through the
//! runtime handler stack armed by the `Push*` instructions.
//!
//! ## Observational identity with the tree-walker
//!
//! The VM must be byte-identical to `interp.rs` in every observable:
//! virtual-clock tick sequence ([`Insn::Tick`] charges merged node-entry
//! ticks in one batch, with sampling and budget trips landing on the
//! exact same tick boundaries — see `Interp::charge_n`), binding- and
//! object-id allocation order, monitor notifications, and error values.
//! Non-obvious consequences:
//!
//! * `Control::Fatal` (watchdog) still runs `finally` bodies on the way
//!   out, because the tree-walker's `try` statement runs its `finally`
//!   regardless of the block's outcome. The unwinder therefore routes all
//!   five `Control` variants through `Finally` handlers.
//! * A stray `break`/`continue` escaping a *call* lands in the caller's
//!   innermost loop — that is what `Err(Control::Break)` propagating
//!   through `call_value` does in the tree-walker.
//!
//! ## The inline binding cache
//!
//! Each frame carries a slot array (one slot per distinct name the chunk
//! references, assigned at compile time) caching the resolved
//! [`BindingRef`]. This is sound because a frame's scope-chain shape is
//! fixed after the prologue: hoisting pre-declares every `var` and
//! function, natives never declare into JS scopes, and `catch` — the one
//! construct that *does* push a scope — disables the cache while its scope
//! is live (`scopes.len() > 1`). Negative results are never cached, so an
//! implicit-global creation by a callee is still seen.
//!
//! The prologue fills the slots of the names it declares at frame entry:
//! each declaration of the chunk's compile-time layout ([`Decl`]) carries
//! its slot, so the first read of a parameter, a hoisted var or function,
//! `this` or `arguments` is a slot load, not a hash lookup. Other names
//! (globals, captured variables) fill their slot at first use.
//!
//! ## What a call allocates
//!
//! A call of `function f(a, b) { return a + b; }` allocates the activation
//! scope, its binding map (sized once from the layout) and one binding per
//! parameter. The frame's buffers come from a pool on the interpreter.
//! `this` and `arguments` are bound only in a chunk that can name them
//! (see `Ctx::names` in `compile.rs`); elsewhere the prologue uses up the
//! binding ids and the `arguments` array's object id without allocating,
//! so every id stays the tree-walker's.

use crate::bytecode::{Chunk, Decl, HookSite, Init, Insn, Module, VarRef};
use crate::compile::compile_program;
use crate::env::{skip_binding_id, BindingRef, Scope, ScopeRef};
use crate::hooks::HookSink;
use crate::intern::{resolve, sym_of_key, Sym};
use crate::interp::{Control, Interp, JsResult};
use crate::ops;
use crate::value::{
    new_array, new_object, skip_object_id, CompiledFn, JsFunction, ObjKind, ObjRef, Value,
};
use ceres_ast::ast::{Program, UnaryOp};
use std::rc::Rc;

/// An abrupt completion travelling through the in-frame unwinder. Mirrors
/// [`Control`] one-to-one; the two convert losslessly at frame boundaries.
enum Action {
    Break,
    Continue,
    Return(Value),
    Throw(Value),
    Fatal(String),
}

fn action_of(c: Control) -> Action {
    match c {
        Control::Break => Action::Break,
        Control::Continue => Action::Continue,
        Control::Return(v) => Action::Return(v),
        Control::Throw(v) => Action::Throw(v),
        Control::Fatal(m) => Action::Fatal(m),
    }
}

fn control_of(a: Action) -> Control {
    match a {
        Action::Break => Control::Break,
        Action::Continue => Control::Continue,
        Action::Return(v) => Control::Return(v),
        Action::Throw(v) => Control::Throw(v),
        Action::Fatal(m) => Control::Fatal(m),
    }
}

/// Build the same error value [`Interp::throw`] builds, as an [`Action`].
fn throw_action(kind: &str, message: String) -> Action {
    let obj = new_object();
    obj.set_prop("name", Value::str(kind));
    obj.set_prop("message", Value::str(message));
    Action::Throw(Value::Object(obj))
}

#[derive(Clone, Copy)]
enum HKind {
    Loop { break_pc: u32, continue_pc: u32 },
    Switch { break_pc: u32 },
    Catch { pc: u32, param: Sym },
    Finally { pc: u32 },
}

/// One armed handler: the unwind target plus the frame depths to restore
/// (everything pushed after the handler was armed is abandoned).
#[derive(Clone, Copy)]
struct Handler {
    kind: HKind,
    sp: usize,
    scopes: usize,
    pendings: usize,
    iters: usize,
}

/// Resolve `sym` from the frame's scope chain through the binding cache.
/// The cache is live only while the chain is in its prologue shape
/// (no catch scope pushed); misses are never cached.
#[inline]
fn lookup_cached(
    scopes: &[ScopeRef],
    slots: &mut [Option<BindingRef>],
    slot: u32,
    sym: Sym,
) -> Option<BindingRef> {
    if scopes.len() == 1 {
        let s = &mut slots[slot as usize];
        if let Some(b) = s {
            return Some(b.clone());
        }
        let found = scopes[0].lookup_sym(sym);
        if let Some(b) = &found {
            *s = Some(b.clone());
        }
        found
    } else {
        scopes.last().expect("scope chain").lookup_sym(sym)
    }
}

/// Construct a closure over `chunks[idx]`, byte-identical in heap-id order
/// to the tree-walker's `make_function`: function object first, then its
/// fresh `prototype` object.
fn make_closure(module: &Rc<Module>, idx: u32, scope: &ScopeRef) -> Value {
    let chunk = &module.chunks[idx as usize];
    let obj = ObjRef::new(ObjKind::Function(JsFunction {
        name: chunk.name.clone(),
        func: chunk.func.clone().expect("function chunk has an AST"),
        env: scope.clone(),
        code: Some(CompiledFn {
            module: module.clone(),
            chunk: idx,
        }),
    }));
    let proto = new_object();
    proto.set_prop("constructor", Value::Object(obj.clone()));
    obj.set_prop("prototype", Value::Object(proto));
    Value::Object(obj)
}

/// The buffers of one frame: value stack, scope stack, binding-cache
/// slots, handler stack, `finally` re-raise slots and for-in iterators.
/// A finished frame's buffers go back to the interpreter's pool empty, and
/// the next frame takes them from there, so a warm call allocates none.
#[derive(Default)]
pub(crate) struct Frame {
    stack: Vec<Value>,
    scopes: Vec<ScopeRef>,
    slots: Vec<Option<BindingRef>>,
    handlers: Vec<Handler>,
    /// One per entered finally body.
    pendings: Vec<Option<Action>>,
    /// Live for-in key snapshots: (keys, next index).
    iters: Vec<(Vec<Rc<str>>, usize)>,
}

/// Make a frame's prologue declarations (`chunk.prologue`) in `scope`,
/// writing each binding into its cache slot. The order, the heap ids and
/// the binding ids are `call_js`'s; an elided `this` or `arguments` uses up
/// its ids without allocating.
fn declare_prologue(
    module: &Rc<Module>,
    chunk: &Chunk,
    scope: &ScopeRef,
    slots: &mut [Option<BindingRef>],
    mut this: Value,
    args: &[Value],
) {
    for decl in &chunk.prologue {
        let (sym, init, slot) = match *decl {
            Decl::Bind { sym, init, slot } => (sym, init, slot),
            Decl::Elide { object } => {
                if object {
                    skip_object_id();
                }
                skip_binding_id();
                continue;
            }
        };
        let value = match init {
            Init::Arg(i) => args.get(i as usize).cloned().unwrap_or(Value::Undefined),
            Init::This => std::mem::replace(&mut this, Value::Undefined),
            Init::Arguments => Value::Object(new_array(args.to_vec())),
            Init::Undefined => Value::Undefined,
            Init::Closure(idx) => make_closure(module, idx, scope),
        };
        let binding = scope.declare_sym(sym, value);
        if let Some(slot) = slot {
            slots[slot as usize] = Some(binding);
        }
    }
}

impl Interp {
    /// Compile and run a program on the VM backend (global scope), timing
    /// the lowering into [`Interp::compile_us`].
    pub(crate) fn vm_eval_program(&mut self, program: &Program) -> JsResult<()> {
        let t0 = std::time::Instant::now();
        let module = Rc::new(compile_program(program, self.hook_sink.is_some()));
        self.compile_us += t0.elapsed().as_micros() as u64;
        let scope = self.global.clone();
        self.run_frame(&module, 0, scope, Value::Undefined, &[])
            .map(|_| ())
    }

    /// Run a compiled function body in a new activation of `env`.
    pub(crate) fn vm_call(
        &mut self,
        code: CompiledFn,
        env: &ScopeRef,
        this: Value,
        args: &[Value],
    ) -> JsResult {
        let chunk = &code.module.chunks[code.chunk as usize];
        let activation = Scope::child_with_capacity(env, chunk.bindings as usize);
        self.run_frame(&code.module, code.chunk, activation, this, args)
    }

    /// Take a frame from the pool, make `chunk_idx`'s prologue in `scope`,
    /// run the chunk, and return the frame's buffers to the pool.
    fn run_frame(
        &mut self,
        module: &Rc<Module>,
        chunk_idx: u32,
        scope: ScopeRef,
        this: Value,
        args: &[Value],
    ) -> JsResult {
        let chunk = &module.chunks[chunk_idx as usize];
        let mut frame = self.frame_pool.pop().unwrap_or_default();
        frame.slots.resize(chunk.num_slots as usize, None);
        declare_prologue(module, chunk, &scope, &mut frame.slots, this, args);
        frame.scopes.push(scope);
        let r = self.run_chunk(module, chunk, &mut frame, chunk_idx == 0);
        frame.stack.clear();
        frame.scopes.clear();
        frame.slots.clear();
        frame.handlers.clear();
        frame.pendings.clear();
        frame.iters.clear();
        self.frame_pool.push(frame);
        r
    }

    /// The dispatch loop: one JS frame.
    ///
    /// For a function frame the result is the `return` value (or
    /// `undefined` off the end); for the program frame a top-level `return`
    /// still surfaces as `Err(Control::Return)`, as `eval_program` does.
    fn run_chunk(
        &mut self,
        module: &Rc<Module>,
        chunk: &Chunk,
        frame: &mut Frame,
        is_program: bool,
    ) -> JsResult {
        let code = &chunk.code[..];
        let strs = &chunk.strs[..];
        let sink = self.hook_sink.clone();
        let mut pc: usize = 0;
        let Frame {
            stack,
            scopes,
            slots,
            handlers,
            pendings,
            iters,
        } = frame;

        'dispatch: loop {
            let insn = code[pc];
            pc += 1;

            // Fast path: every arm that completes normally falls through to
            // `continue 'dispatch`; abrupt completions `break 'act` into the
            // unwinder below.
            let mut action: Action = 'act: {
                macro_rules! vm_try {
                    ($e:expr) => {
                        match $e {
                            Ok(v) => v,
                            Err(c) => break 'act action_of(c),
                        }
                    };
                }
                macro_rules! pop {
                    () => {
                        stack.pop().expect("value stack underflow")
                    };
                }

                match insn {
                    Insn::Tick(n) => {
                        // Batched node-entry charges; `charge_n` lands
                        // budget trips on the exact tick the one-at-a-time
                        // tree walk would report.
                        vm_try!(self.charge_n(n as u64));
                    }

                    Insn::Num(n) => stack.push(Value::Num(n)),
                    Insn::Str(i) => stack.push(Value::Str(strs[i as usize].clone())),
                    Insn::PushUndef => stack.push(Value::Undefined),
                    Insn::PushNull => stack.push(Value::Null),
                    Insn::PushBool(b) => stack.push(Value::Bool(b)),
                    Insn::LoadThis { slot } => {
                        let v = lookup_cached(scopes, slots, slot, chunk.sym_this)
                            .map(|b| b.borrow().value.clone())
                            .unwrap_or(Value::Undefined);
                        stack.push(v);
                    }

                    Insn::Pop => {
                        pop!();
                    }
                    Insn::Dup => {
                        let v = stack.last().expect("dup on empty stack").clone();
                        stack.push(v);
                    }

                    Insn::LoadVar { sym, slot } => match lookup_cached(scopes, slots, slot, sym) {
                        Some(b) => stack.push(b.borrow().value.clone()),
                        None => {
                            break 'act throw_action(
                                "ReferenceError",
                                format!("{} is not defined", resolve(sym)),
                            );
                        }
                    },
                    Insn::StoreVar { sym, slot } => {
                        let v = pop!();
                        match lookup_cached(scopes, slots, slot, sym) {
                            Some(b) => b.borrow_mut().value = v,
                            None => {
                                // Implicit global, as sloppy-mode JS creates.
                                let b = self.global.declare_sym(sym, v);
                                if scopes.len() == 1 {
                                    slots[slot as usize] = Some(b);
                                }
                            }
                        }
                    }
                    Insn::StoreDecl { sym, slot } => {
                        let v = pop!();
                        match lookup_cached(scopes, slots, slot, sym) {
                            Some(b) => b.borrow_mut().value = v,
                            None => {
                                let b = scopes.last().expect("scope chain").declare_sym(sym, v);
                                if scopes.len() == 1 {
                                    slots[slot as usize] = Some(b);
                                }
                            }
                        }
                    }
                    Insn::TypeofVar { sym, slot } => {
                        let v = match lookup_cached(scopes, slots, slot, sym) {
                            Some(b) => Value::str(b.borrow().value.type_of()),
                            None => Value::str("undefined"),
                        };
                        stack.push(v);
                    }

                    Insn::MakeArray(n) => {
                        let vals = stack.split_off(stack.len() - n as usize);
                        stack.push(Value::Object(new_array(vals)));
                    }
                    Insn::MakeObject => stack.push(Value::Object(new_object())),
                    Insn::SetOwnProp(k) => {
                        let v = pop!();
                        if let Some(Value::Object(o)) = stack.last() {
                            o.set_prop_sym(k, v);
                        }
                    }
                    Insn::MakeClosure(idx) => {
                        let scope = scopes.last().expect("scope chain");
                        stack.push(make_closure(module, idx, scope));
                    }

                    Insn::Unary(op) => {
                        let v = pop!();
                        stack.push(match op {
                            UnaryOp::Neg => Value::Num(-ops::to_number(&v)),
                            UnaryOp::Plus => Value::Num(ops::to_number(&v)),
                            UnaryOp::Not => Value::Bool(!v.truthy()),
                            UnaryOp::BitNot => Value::Num(!ops::to_int32(&v) as f64),
                            UnaryOp::TypeOf => Value::str(v.type_of()),
                            UnaryOp::Void => Value::Undefined,
                            UnaryOp::Delete => unreachable!("lowered to Delete*"),
                        });
                    }
                    Insn::Binary(op) => {
                        let r = pop!();
                        let l = pop!();
                        let v = vm_try!(self.binary_op(op, &l, &r));
                        stack.push(v);
                    }
                    Insn::InstanceOf => {
                        let r = pop!();
                        let l = pop!();
                        let v = vm_try!(self.instance_of(&l, &r));
                        stack.push(v);
                    }
                    Insn::InOp => {
                        let r = pop!();
                        let l = pop!();
                        let key = ops::to_string(&l);
                        match r {
                            Value::Object(o) => {
                                stack.push(Value::Bool(self.has_property(&o, &key)))
                            }
                            _ => {
                                break 'act throw_action(
                                    "TypeError",
                                    "'in' requires an object".into(),
                                );
                            }
                        }
                    }
                    Insn::IncDec { inc, prefix } => {
                        let v = pop!();
                        let old = ops::to_number(&v);
                        let new = if inc { old + 1.0 } else { old - 1.0 };
                        stack.push(Value::Num(if prefix { new } else { old }));
                        stack.push(Value::Num(new));
                    }

                    Insn::GetProp(k) => {
                        let obj = pop!();
                        let v = vm_try!(self.get_property_sym(&obj, k));
                        stack.push(v);
                    }
                    Insn::SetProp(k) => {
                        let obj = pop!();
                        let v = pop!();
                        vm_try!(self.set_property_sym(&obj, k, v.clone()));
                        stack.push(v);
                    }
                    Insn::GetIndex => {
                        let idx = pop!();
                        let obj = pop!();
                        if let Some(i) = Interp::array_index(&obj, &idx) {
                            if let Value::Object(o) = &obj {
                                stack.push(o.array_get(i).unwrap_or(Value::Undefined));
                                continue 'dispatch;
                            }
                        }
                        let v = vm_try!(self.get_property_sym(&obj, sym_of_key(&idx)));
                        stack.push(v);
                    }
                    Insn::SetIndex => {
                        let idx = pop!();
                        let obj = pop!();
                        let v = pop!();
                        if let Some(i) = Interp::array_index(&obj, &idx) {
                            if let Value::Object(o) = &obj {
                                o.array_set(i, v.clone());
                                stack.push(v);
                                continue 'dispatch;
                            }
                        }
                        vm_try!(self.set_property_sym(&obj, sym_of_key(&idx), v.clone()));
                        stack.push(v);
                    }
                    Insn::GetMethod(k) => {
                        let obj = pop!();
                        let f = vm_try!(self.get_property_sym(&obj, k));
                        stack.push(f);
                        stack.push(obj);
                    }
                    Insn::GetIndexMethod => {
                        let idx = pop!();
                        let obj = pop!();
                        let f = if let Some(i) = Interp::array_index(&obj, &idx) {
                            match &obj {
                                Value::Object(o) => o.array_get(i).unwrap_or(Value::Undefined),
                                _ => Value::Undefined,
                            }
                        } else {
                            vm_try!(self.get_property_sym(&obj, sym_of_key(&idx)))
                        };
                        stack.push(f);
                        stack.push(obj);
                    }
                    Insn::DeleteProp(k) => {
                        let obj = pop!();
                        let r = match obj {
                            Value::Object(o) => Value::Bool(o.borrow_mut().delete_prop_sym(k)),
                            _ => Value::Bool(true),
                        };
                        stack.push(r);
                    }
                    Insn::DeleteIndex => {
                        let idx = pop!();
                        let obj = pop!();
                        let key = sym_of_key(&idx);
                        let r = match obj {
                            Value::Object(o) => {
                                if let Some(i) = crate::interp::sym_usize(key) {
                                    if o.is_array() {
                                        o.with_array_mut(|v| {
                                            if i < v.len() {
                                                v[i] = Value::Undefined;
                                            }
                                        });
                                        stack.push(Value::Bool(true));
                                        continue 'dispatch;
                                    }
                                }
                                Value::Bool(o.borrow_mut().delete_prop_sym(key))
                            }
                            _ => Value::Bool(true),
                        };
                        stack.push(r);
                    }
                    Insn::DeleteOther => {
                        pop!();
                        stack.push(Value::Bool(false));
                    }

                    Insn::Call { argc, src } => {
                        // The callee and the arguments are borrowed from
                        // the value stack and `this` is moved off it: no
                        // per-call Vec, no clone.
                        let base = stack.len() - argc as usize;
                        let this = std::mem::replace(&mut stack[base - 1], Value::Undefined);
                        let caller = scopes.last().expect("scope chain").clone();
                        let r =
                            self.call_value(&stack[base - 2], this, &stack[base..], Some(caller));
                        stack.truncate(base - 2);
                        match r {
                            Ok(v) => stack.push(v),
                            Err(c) => {
                                // Same rewrite `eval_call` applies, with the
                                // callee source precomputed at compile time.
                                let c = self
                                    .rewrite_not_a_function(c, || strs[src as usize].to_string());
                                break 'act action_of(c);
                            }
                        }
                    }
                    Insn::Hook { site, ticks } => {
                        if ticks > 0 {
                            vm_try!(self.charge_n(ticks as u64));
                        }
                        // The compiler types hook calls only for an
                        // interpreter with a sink installed.
                        let Some(sink) = &sink else {
                            break 'act Action::Fatal("typed hook call without a hook sink".into());
                        };
                        // The same boundary events a call of the by-name
                        // native charges around its body.
                        self.clock.fn_boundary();
                        let site = chunk.hooks[site as usize];
                        let r = self.call_typed_hook(&**sink, chunk, site, stack, scopes, slots);
                        self.clock.fn_boundary();
                        stack.push(vm_try!(r));
                    }
                    Insn::New { argc } => {
                        let base = stack.len() - argc as usize;
                        let scope = scopes.last().expect("scope chain");
                        let r = self.construct(&stack[base - 1], &stack[base..], scope);
                        stack.truncate(base - 1);
                        let v = vm_try!(r);
                        stack.push(v);
                    }

                    Insn::Jump(t) => pc = t as usize,
                    Insn::JumpIfFalse(t) => {
                        if !pop!().truthy() {
                            pc = t as usize;
                        }
                    }
                    Insn::JumpIfTrue(t) => {
                        if pop!().truthy() {
                            pc = t as usize;
                        }
                    }
                    Insn::JumpIfFalsePeek(t) => {
                        if !stack.last().expect("peek on empty stack").truthy() {
                            pc = t as usize;
                        }
                    }
                    Insn::JumpIfTruePeek(t) => {
                        if stack.last().expect("peek on empty stack").truthy() {
                            pc = t as usize;
                        }
                    }
                    Insn::CaseEq(t) => {
                        let test = pop!();
                        if stack.last().expect("switch discriminant").strict_eq(&test) {
                            pop!();
                            pc = t as usize;
                        }
                    }

                    Insn::PushLoop {
                        break_pc,
                        continue_pc,
                    } => handlers.push(Handler {
                        kind: HKind::Loop {
                            break_pc,
                            continue_pc,
                        },
                        sp: stack.len(),
                        scopes: scopes.len(),
                        pendings: pendings.len(),
                        iters: iters.len(),
                    }),
                    Insn::PushSwitch { break_pc } => handlers.push(Handler {
                        kind: HKind::Switch { break_pc },
                        sp: stack.len(),
                        scopes: scopes.len(),
                        pendings: pendings.len(),
                        iters: iters.len(),
                    }),
                    Insn::PushCatch { pc: cpc, param } => handlers.push(Handler {
                        kind: HKind::Catch { pc: cpc, param },
                        sp: stack.len(),
                        scopes: scopes.len(),
                        pendings: pendings.len(),
                        iters: iters.len(),
                    }),
                    Insn::PushFinally { pc: fpc } => handlers.push(Handler {
                        kind: HKind::Finally { pc: fpc },
                        sp: stack.len(),
                        scopes: scopes.len(),
                        pendings: pendings.len(),
                        iters: iters.len(),
                    }),
                    Insn::PopHandler => {
                        handlers.pop();
                    }
                    Insn::EnterFinally => {
                        // Normal entry: disarm and remember "nothing pending".
                        handlers.pop();
                        pendings.push(None);
                    }
                    Insn::EndFinally => {
                        if let Some(Some(a)) = pendings.pop() {
                            break 'act a;
                        }
                    }
                    Insn::PopScope => {
                        scopes.pop();
                    }

                    Insn::ForInInit { sym, decl } => {
                        let obj = pop!();
                        let keys = match obj {
                            Value::Object(o) => o.own_keys(),
                            // for-in over primitives iterates nothing.
                            _ => Vec::new(),
                        };
                        let scope = scopes.last().expect("scope chain");
                        if decl && scope.lookup_sym(sym).is_none() {
                            scope.declare_sym(sym, Value::Undefined);
                        }
                        iters.push((keys, 0));
                    }
                    Insn::ForInNext { sym, end } => {
                        let (keys, i) = iters.last_mut().expect("for-in iterator");
                        if *i >= keys.len() {
                            iters.pop();
                            pc = end as usize;
                        } else {
                            let kv = Value::Str(keys[*i].clone());
                            *i += 1;
                            let scope = scopes.last().expect("scope chain");
                            if !scope.set_sym(sym, kv.clone()) {
                                scope.declare_sym(sym, kv);
                            }
                        }
                    }
                    Insn::ForInDrop => {
                        iters.pop();
                    }

                    Insn::Return => break 'act Action::Return(pop!()),
                    Insn::Break => break 'act Action::Break,
                    Insn::Continue => break 'act Action::Continue,
                    Insn::Throw => break 'act Action::Throw(pop!()),
                    Insn::InvalidTarget => {
                        pop!();
                        break 'act throw_action("SyntaxError", "invalid assignment target".into());
                    }
                    Insn::End => return Ok(Value::Undefined),
                }
                continue 'dispatch;
            };

            // Unwinder: walk handlers innermost-out until one takes the
            // action; unhandled actions leave the frame.
            loop {
                let Some(h) = handlers.pop() else {
                    return match action {
                        Action::Return(v) if !is_program => Ok(v),
                        a => Err(control_of(a)),
                    };
                };
                macro_rules! restore {
                    () => {
                        stack.truncate(h.sp);
                        scopes.truncate(h.scopes);
                        pendings.truncate(h.pendings);
                        iters.truncate(h.iters);
                    };
                }
                match h.kind {
                    HKind::Loop {
                        break_pc,
                        continue_pc,
                    } => match action {
                        Action::Break => {
                            restore!();
                            pc = break_pc as usize;
                            continue 'dispatch;
                        }
                        Action::Continue => {
                            restore!();
                            // The loop stays armed for the next iteration.
                            handlers.push(h);
                            pc = continue_pc as usize;
                            continue 'dispatch;
                        }
                        other => action = other,
                    },
                    HKind::Switch { break_pc } => match action {
                        Action::Break => {
                            restore!();
                            pc = break_pc as usize;
                            continue 'dispatch;
                        }
                        other => action = other,
                    },
                    HKind::Catch { pc: cpc, param } => match action {
                        Action::Throw(exc) => {
                            restore!();
                            let cs = Scope::child(scopes.last().expect("scope chain"));
                            cs.declare_sym(param, exc);
                            scopes.push(cs);
                            pc = cpc as usize;
                            continue 'dispatch;
                        }
                        other => action = other,
                    },
                    HKind::Finally { pc: fpc } => {
                        // `finally` intercepts *every* abrupt completion —
                        // including Fatal — runs, then re-raises via
                        // EndFinally (unless it completes abruptly itself,
                        // which overrides the pending action).
                        restore!();
                        pendings.push(Some(action));
                        pc = fpc as usize;
                        continue 'dispatch;
                    }
                }
            }
        }
    }

    /// Call the typed entry point of hook call site `site`, popping its
    /// computed operands. Binding ids come from the frame's slot cache,
    /// which resolves the binding a walk from the innermost scope finds.
    fn call_typed_hook(
        &mut self,
        sink: &dyn HookSink,
        chunk: &Chunk,
        site: HookSite,
        stack: &mut Vec<Value>,
        scopes: &[ScopeRef],
        slots: &mut [Option<BindingRef>],
    ) -> JsResult {
        let mut binding =
            |v: VarRef| lookup_cached(scopes, slots, v.slot, v.sym).map(|b| b.borrow().id);
        let mut base_var = |base: Option<VarRef>| match base {
            Some(v) => (v.sym, binding(v).unwrap_or(0)),
            None => (Sym::NONE, 0),
        };
        let mut pop = || stack.pop().expect("value stack underflow");
        match site {
            HookSite::LwEnter => sink.lw_enter(self),
            HookSite::LwExit => sink.lw_exit(self),
            HookSite::LoopEnter(id) => sink.loop_enter(self, id),
            HookSite::Iter(id) => sink.iter(self, id),
            HookSite::LoopExit(id) => sink.loop_exit(self, id),
            HookSite::DeclVars { start, len } => {
                let vars = &chunk.hook_vars[start as usize..(start + len) as usize];
                let mut ids = vars.iter().filter_map(|v| binding(*v));
                sink.declvars(self, vars.len(), &mut ids)
            }
            HookSite::WrVar { name, op, value } => {
                let value = value.then(&mut pop);
                let id = binding(name).unwrap_or(0);
                sink.wrvar(self, name.sym, id, op, value)
            }
            HookSite::Wrap => {
                let v = pop();
                sink.wrap(self, v)
            }
            HookSite::GetProp { key, base } => {
                let key = key.unwrap_or_else(|| sym_of_key(&pop()));
                let obj = pop();
                sink.getprop(self, &obj, key, base.unwrap_or(Sym::NONE))
            }
            HookSite::SetProp { key, base } => {
                let value = pop();
                let key = key.unwrap_or_else(|| sym_of_key(&pop()));
                let obj = pop();
                let (base, id) = base_var(base);
                sink.setprop(self, &obj, key, value, base, id)
            }
            HookSite::SetProp2 { key, op, base } => {
                let value = pop();
                let key = key.unwrap_or_else(|| sym_of_key(&pop()));
                let obj = pop();
                let (base, id) = base_var(base);
                sink.setprop2(self, &obj, key, op, &value, base, id)
            }
            HookSite::UpdateProp {
                key,
                delta,
                prefix,
                base,
            } => {
                let key = key.unwrap_or_else(|| sym_of_key(&pop()));
                let obj = pop();
                let (base, id) = base_var(base);
                sink.update_prop(self, &obj, key, delta, prefix != 0.0, base, id)
            }
            HookSite::MCall { key, base, argc } => {
                let args_at = stack.len() - argc as usize;
                let obj_at = args_at - 1 - key.is_none() as usize;
                let key = key.unwrap_or_else(|| sym_of_key(&stack[args_at - 1]));
                let obj = stack[obj_at].clone();
                let caller = scopes.last().cloned();
                let base = base.unwrap_or(Sym::NONE);
                let r = sink.mcall(self, obj, key, base, &stack[args_at..], caller);
                stack.truncate(obj_at);
                r
            }
        }
    }
}
