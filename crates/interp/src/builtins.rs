//! Standard library installation.
//!
//! Installs the globals the 12 case-study workloads and the instrumentation
//! runtime need: `Math` (with a **seeded** `random`), `Array`/`String`/
//! `Number` methods, `Object`, `Function.prototype.call/apply`, `console`,
//! `performance.now` (virtual clock), `Date.now`, `setTimeout` /
//! `requestAnimationFrame` (virtual event loop), `Error`, `JSON.stringify`,
//! and typed-array stand-ins (`Float32Array` & friends are array-backed —
//! the interpreter is the engine, so a dense `Vec<Value>` plays the role of
//! the typed buffer).

use crate::interp::{Interp, JsResult};
use crate::ops;
use crate::value::{native_fn, new_array, new_object, CallCtx, ObjRef, Value};
use std::rc::Rc;

/// Install all builtins into a fresh interpreter.
pub fn install(interp: &mut Interp) {
    install_math(interp);
    install_array(interp);
    install_string(interp);
    install_number(interp);
    install_function_methods(interp);
    install_object(interp);
    install_globals(interp);
}

fn native(name: &str, f: impl Fn(&mut Interp, &CallCtx, &[Value]) -> JsResult + 'static) -> Value {
    Value::Object(native_fn(name, Rc::new(f)))
}

fn arg(args: &[Value], i: usize) -> Value {
    args.get(i).cloned().unwrap_or(Value::Undefined)
}

fn num_arg(args: &[Value], i: usize) -> f64 {
    ops::to_number(&arg(args, i))
}

fn method(
    table: &ObjRef,
    name: &str,
    f: impl Fn(&mut Interp, &CallCtx, &[Value]) -> JsResult + 'static,
) {
    table.set_prop(name, native(name, f));
}

// ---------------------------------------------------------------------
// Math
// ---------------------------------------------------------------------

fn install_math(interp: &mut Interp) {
    let math = new_object();
    math.set_prop("PI", Value::Num(std::f64::consts::PI));
    math.set_prop("E", Value::Num(std::f64::consts::E));
    math.set_prop("LN2", Value::Num(std::f64::consts::LN_2));
    math.set_prop("SQRT2", Value::Num(std::f64::consts::SQRT_2));

    macro_rules! unary {
        ($name:literal, $f:expr) => {
            method(&math, $name, move |_, _, args| {
                let f: fn(f64) -> f64 = $f;
                Ok(Value::Num(f(num_arg(args, 0))))
            });
        };
    }
    unary!("floor", f64::floor);
    unary!("ceil", f64::ceil);
    unary!("sqrt", f64::sqrt);
    unary!("abs", f64::abs);
    unary!("sin", f64::sin);
    unary!("cos", f64::cos);
    unary!("tan", f64::tan);
    unary!("asin", f64::asin);
    unary!("acos", f64::acos);
    unary!("atan", f64::atan);
    unary!("exp", f64::exp);
    unary!("log", f64::ln);
    // JS Math.round: half-up (round(-0.5) === -0), close enough with floor.
    unary!("round", |x| (x + 0.5).floor());

    method(&math, "pow", |_, _, args| {
        Ok(Value::Num(num_arg(args, 0).powf(num_arg(args, 1))))
    });
    method(&math, "atan2", |_, _, args| {
        Ok(Value::Num(num_arg(args, 0).atan2(num_arg(args, 1))))
    });
    method(&math, "min", |_, _, args| {
        let mut m = f64::INFINITY;
        for a in args {
            let n = ops::to_number(a);
            if n.is_nan() {
                return Ok(Value::Num(f64::NAN));
            }
            m = m.min(n);
        }
        Ok(Value::Num(m))
    });
    method(&math, "max", |_, _, args| {
        let mut m = f64::NEG_INFINITY;
        for a in args {
            let n = ops::to_number(a);
            if n.is_nan() {
                return Ok(Value::Num(f64::NAN));
            }
            m = m.max(n);
        }
        Ok(Value::Num(m))
    });
    method(&math, "random", |interp, _, _| {
        Ok(Value::Num(interp.next_random()))
    });
    method(&math, "sign", |_, _, args| {
        let n = num_arg(args, 0);
        Ok(Value::Num(if n.is_nan() {
            f64::NAN
        } else if n > 0.0 {
            1.0
        } else if n < 0.0 {
            -1.0
        } else {
            n // preserves ±0
        }))
    });
    method(&math, "trunc", |_, _, args| {
        Ok(Value::Num(num_arg(args, 0).trunc()))
    });
    method(&math, "hypot", |_, _, args| {
        let mut sum = 0.0;
        for a in args {
            let n = ops::to_number(a);
            sum += n * n;
        }
        Ok(Value::Num(sum.sqrt()))
    });
    method(&math, "cbrt", |_, _, args| {
        Ok(Value::Num(num_arg(args, 0).cbrt()))
    });

    interp.register_global("Math", Value::Object(math));
}

// ---------------------------------------------------------------------
// Array
// ---------------------------------------------------------------------

fn this_array(interp: &mut Interp, ctx: &CallCtx, method_name: &str) -> JsResult<ObjRef> {
    match ctx.this.as_object() {
        Some(o) if o.is_array() => Ok(o.clone()),
        _ => interp.throw(
            "TypeError",
            format!("Array.prototype.{method_name} called on non-array"),
        ),
    }
}

fn install_array(interp: &mut Interp) {
    let (table, _, _, _) = interp.method_tables();

    method(&table, "push", |interp, ctx, args| {
        let arr = this_array(interp, ctx, "push")?;
        let len = arr
            .with_array_mut(|v| {
                v.extend(args.iter().cloned());
                v.len()
            })
            .unwrap_or(0);
        Ok(Value::Num(len as f64))
    });
    method(&table, "pop", |interp, ctx, _| {
        let arr = this_array(interp, ctx, "pop")?;
        Ok(arr
            .with_array_mut(|v| v.pop())
            .flatten()
            .unwrap_or(Value::Undefined))
    });
    method(&table, "shift", |interp, ctx, _| {
        let arr = this_array(interp, ctx, "shift")?;
        Ok(arr
            .with_array_mut(|v| {
                if v.is_empty() {
                    None
                } else {
                    Some(v.remove(0))
                }
            })
            .flatten()
            .unwrap_or(Value::Undefined))
    });
    method(&table, "unshift", |interp, ctx, args| {
        let arr = this_array(interp, ctx, "unshift")?;
        let len = arr
            .with_array_mut(|v| {
                for (i, a) in args.iter().enumerate() {
                    v.insert(i, a.clone());
                }
                v.len()
            })
            .unwrap_or(0);
        Ok(Value::Num(len as f64))
    });
    method(&table, "slice", |interp, ctx, args| {
        let arr = this_array(interp, ctx, "slice")?;
        let len = arr.array_len().unwrap_or(0) as i64;
        let (start, end) = slice_bounds(args, len);
        let out: Vec<Value> = (start..end)
            .filter_map(|i| arr.array_get(i as usize))
            .collect();
        Ok(Value::Object(new_array(out)))
    });
    method(&table, "splice", |interp, ctx, args| {
        let arr = this_array(interp, ctx, "splice")?;
        let len = arr.array_len().unwrap_or(0) as i64;
        let start = clamp_index(num_arg(args, 0), len);
        let delete_count = if args.len() > 1 {
            (num_arg(args, 1).max(0.0) as i64).min(len - start)
        } else {
            len - start
        };
        let inserted: Vec<Value> = args.iter().skip(2).cloned().collect();
        let removed = arr
            .with_array_mut(|v| {
                v.splice(start as usize..(start + delete_count) as usize, inserted)
                    .collect::<Vec<_>>()
            })
            .unwrap_or_default();
        Ok(Value::Object(new_array(removed)))
    });
    method(&table, "concat", |interp, ctx, args| {
        let arr = this_array(interp, ctx, "concat")?;
        let mut out: Vec<Value> = Vec::new();
        arr.with_array(|v| out.extend_from_slice(v));
        for a in args {
            match a.as_object() {
                Some(o) if o.is_array() => {
                    o.with_array(|v| out.extend_from_slice(v));
                }
                _ => out.push(a.clone()),
            }
        }
        Ok(Value::Object(new_array(out)))
    });
    method(&table, "join", |interp, ctx, args| {
        let arr = this_array(interp, ctx, "join")?;
        let sep = match arg(args, 0) {
            Value::Undefined => ",".to_string(),
            v => ops::to_string(&v),
        };
        let parts: Vec<String> = (0..arr.array_len().unwrap_or(0))
            .map(|i| match arr.array_get(i) {
                Some(Value::Undefined) | Some(Value::Null) | None => String::new(),
                Some(v) => ops::to_string(&v),
            })
            .collect();
        Ok(Value::str(parts.join(&sep)))
    });
    method(&table, "indexOf", |interp, ctx, args| {
        let arr = this_array(interp, ctx, "indexOf")?;
        let target = arg(args, 0);
        for i in 0..arr.array_len().unwrap_or(0) {
            if let Some(v) = arr.array_get(i) {
                if v.strict_eq(&target) {
                    return Ok(Value::Num(i as f64));
                }
            }
        }
        Ok(Value::Num(-1.0))
    });
    method(&table, "lastIndexOf", |interp, ctx, args| {
        let arr = this_array(interp, ctx, "lastIndexOf")?;
        let target = arg(args, 0);
        for i in (0..arr.array_len().unwrap_or(0)).rev() {
            if let Some(v) = arr.array_get(i) {
                if v.strict_eq(&target) {
                    return Ok(Value::Num(i as f64));
                }
            }
        }
        Ok(Value::Num(-1.0))
    });
    method(&table, "reverse", |interp, ctx, _| {
        let arr = this_array(interp, ctx, "reverse")?;
        arr.with_array_mut(|v| v.reverse());
        Ok(ctx.this.clone())
    });

    // Higher-order operators — the paper's Sec. 2.3 "high-level Array
    // operators" that 74 % of surveyed developers prefer.
    method(&table, "forEach", |interp, ctx, args| {
        let arr = this_array(interp, ctx, "forEach")?;
        let f = arg(args, 0);
        for i in 0..arr.array_len().unwrap_or(0) {
            let v = arr.array_get(i).unwrap_or(Value::Undefined);
            interp.call_value(
                &f,
                Value::Undefined,
                &[v, Value::Num(i as f64), ctx.this.clone()],
                ctx.caller_scope.clone(),
            )?;
        }
        Ok(Value::Undefined)
    });
    method(&table, "map", |interp, ctx, args| {
        let arr = this_array(interp, ctx, "map")?;
        let f = arg(args, 0);
        let mut out = Vec::new();
        for i in 0..arr.array_len().unwrap_or(0) {
            let v = arr.array_get(i).unwrap_or(Value::Undefined);
            out.push(interp.call_value(
                &f,
                Value::Undefined,
                &[v, Value::Num(i as f64), ctx.this.clone()],
                ctx.caller_scope.clone(),
            )?);
        }
        Ok(Value::Object(new_array(out)))
    });
    method(&table, "filter", |interp, ctx, args| {
        let arr = this_array(interp, ctx, "filter")?;
        let f = arg(args, 0);
        let mut out = Vec::new();
        for i in 0..arr.array_len().unwrap_or(0) {
            let v = arr.array_get(i).unwrap_or(Value::Undefined);
            let keep = interp.call_value(
                &f,
                Value::Undefined,
                &[v.clone(), Value::Num(i as f64), ctx.this.clone()],
                ctx.caller_scope.clone(),
            )?;
            if keep.truthy() {
                out.push(v);
            }
        }
        Ok(Value::Object(new_array(out)))
    });
    method(&table, "reduce", |interp, ctx, args| {
        let arr = this_array(interp, ctx, "reduce")?;
        let f = arg(args, 0);
        let len = arr.array_len().unwrap_or(0);
        let mut acc;
        let mut start = 0;
        if args.len() > 1 {
            acc = arg(args, 1);
        } else {
            if len == 0 {
                return interp.throw("TypeError", "reduce of empty array with no initial value");
            }
            acc = arr.array_get(0).unwrap_or(Value::Undefined);
            start = 1;
        }
        for i in start..len {
            let v = arr.array_get(i).unwrap_or(Value::Undefined);
            acc = interp.call_value(
                &f,
                Value::Undefined,
                &[acc, v, Value::Num(i as f64), ctx.this.clone()],
                ctx.caller_scope.clone(),
            )?;
        }
        Ok(acc)
    });
    method(&table, "every", |interp, ctx, args| {
        let arr = this_array(interp, ctx, "every")?;
        let f = arg(args, 0);
        for i in 0..arr.array_len().unwrap_or(0) {
            let v = arr.array_get(i).unwrap_or(Value::Undefined);
            let r = interp.call_value(
                &f,
                Value::Undefined,
                &[v, Value::Num(i as f64), ctx.this.clone()],
                ctx.caller_scope.clone(),
            )?;
            if !r.truthy() {
                return Ok(Value::Bool(false));
            }
        }
        Ok(Value::Bool(true))
    });
    method(&table, "some", |interp, ctx, args| {
        let arr = this_array(interp, ctx, "some")?;
        let f = arg(args, 0);
        for i in 0..arr.array_len().unwrap_or(0) {
            let v = arr.array_get(i).unwrap_or(Value::Undefined);
            let r = interp.call_value(
                &f,
                Value::Undefined,
                &[v, Value::Num(i as f64), ctx.this.clone()],
                ctx.caller_scope.clone(),
            )?;
            if r.truthy() {
                return Ok(Value::Bool(true));
            }
        }
        Ok(Value::Bool(false))
    });
    method(&table, "sort", |interp, ctx, args| {
        let arr = this_array(interp, ctx, "sort")?;
        let cmp = arg(args, 0);
        let len = arr.array_len().unwrap_or(0);
        // Missing elements (holes in a sparse array, e.g. `[3,,1]`, or
        // elements a comparator removed out from under us) read as
        // `undefined` — never panic.
        let mut items: Vec<Value> = (0..len)
            .map(|i| arr.array_get(i).unwrap_or(Value::Undefined))
            .collect();
        // ES5 SortCompare: undefined elements sort to the end and the
        // comparator is never called on them. Partition them off first so
        // a numeric comparator is not fed NaN-producing operands.
        let undefs = items.len();
        items.retain(|v| !matches!(v, Value::Undefined));
        let undefs = undefs - items.len();
        // Insertion sort so the comparator (a JS function) can be called
        // from safe code without aliasing the array borrow.
        for i in 1..items.len() {
            let mut j = i;
            while j > 0 {
                let swap = if cmp.as_object().map(|o| o.is_callable()).unwrap_or(false) {
                    let r = interp.call_value(
                        &cmp,
                        Value::Undefined,
                        &[items[j - 1].clone(), items[j].clone()],
                        ctx.caller_scope.clone(),
                    )?;
                    ops::to_number(&r) > 0.0
                } else {
                    ops::to_string(&items[j - 1]) > ops::to_string(&items[j])
                };
                if swap {
                    items.swap(j - 1, j);
                    j -= 1;
                } else {
                    break;
                }
            }
        }
        items.extend(std::iter::repeat_n(Value::Undefined, undefs));
        arr.with_array_mut(|v| *v = items);
        Ok(ctx.this.clone())
    });

    // Array constructor + Array.isArray.
    let ctor = native_fn(
        "Array",
        Rc::new(|_interp: &mut Interp, _ctx: &CallCtx, args: &[Value]| {
            if args.len() == 1 {
                if let Value::Num(n) = args[0] {
                    let len = if n >= 0.0 { n as usize } else { 0 };
                    return Ok(Value::Object(new_array(vec![Value::Undefined; len])));
                }
            }
            Ok(Value::Object(new_array(args.to_vec())))
        }),
    );
    ctor.set_prop(
        "isArray",
        native("isArray", |_, _, args| {
            Ok(Value::Bool(
                matches!(arg(args, 0).as_object(), Some(o) if o.is_array()),
            ))
        }),
    );
    interp.register_global("Array", Value::Object(ctor));
}

fn clamp_index(n: f64, len: i64) -> i64 {
    let i = if n.is_nan() { 0 } else { n as i64 };
    if i < 0 {
        (len + i).max(0)
    } else {
        i.min(len)
    }
}

fn slice_bounds(args: &[Value], len: i64) -> (i64, i64) {
    let start = if args.is_empty() {
        0
    } else {
        clamp_index(num_arg(args, 0), len)
    };
    let end = if args.len() < 2 || matches!(args[1], Value::Undefined) {
        len
    } else {
        clamp_index(num_arg(args, 1), len)
    };
    (start, end.max(start))
}

// ---------------------------------------------------------------------
// String
// ---------------------------------------------------------------------

fn this_string(ctx: &CallCtx) -> String {
    ops::to_string(&ctx.this)
}

fn install_string(interp: &mut Interp) {
    let (_, table, _, _) = interp.method_tables();

    method(&table, "charAt", |_, ctx, args| {
        let s = this_string(ctx);
        let i = num_arg(args, 0) as usize;
        Ok(Value::str(
            s.chars().nth(i).map(|c| c.to_string()).unwrap_or_default(),
        ))
    });
    method(&table, "charCodeAt", |_, ctx, args| {
        let s = this_string(ctx);
        let i = num_arg(args, 0) as usize;
        Ok(match s.chars().nth(i) {
            Some(c) => Value::Num(c as u32 as f64),
            None => Value::Num(f64::NAN),
        })
    });
    method(&table, "indexOf", |_, ctx, args| {
        let s = this_string(ctx);
        let needle = ops::to_string(&arg(args, 0));
        Ok(Value::Num(match s.find(&needle) {
            Some(byte_pos) => s[..byte_pos].chars().count() as f64,
            None => -1.0,
        }))
    });
    method(&table, "slice", |_, ctx, args| {
        let s: Vec<char> = this_string(ctx).chars().collect();
        let (start, end) = slice_bounds(args, s.len() as i64);
        Ok(Value::str(
            s[start as usize..end as usize].iter().collect::<String>(),
        ))
    });
    method(&table, "substring", |_, ctx, args| {
        let s: Vec<char> = this_string(ctx).chars().collect();
        let len = s.len() as i64;
        let a = (num_arg(args, 0).max(0.0) as i64).min(len);
        let b = if args.len() < 2 {
            len
        } else {
            (num_arg(args, 1).max(0.0) as i64).min(len)
        };
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        Ok(Value::str(
            s[lo as usize..hi as usize].iter().collect::<String>(),
        ))
    });
    method(&table, "substr", |_, ctx, args| {
        let s: Vec<char> = this_string(ctx).chars().collect();
        let len = s.len() as i64;
        let start = clamp_index(num_arg(args, 0), len);
        let count = if args.len() < 2 {
            len - start
        } else {
            num_arg(args, 1).max(0.0) as i64
        };
        let end = (start + count).min(len);
        Ok(Value::str(
            s[start as usize..end as usize].iter().collect::<String>(),
        ))
    });
    method(&table, "split", |_, ctx, args| {
        let s = this_string(ctx);
        let sep = arg(args, 0);
        let parts: Vec<Value> = match sep {
            Value::Undefined => vec![Value::str(s)],
            v => {
                let sep = ops::to_string(&v);
                if sep.is_empty() {
                    s.chars().map(|c| Value::str(c.to_string())).collect()
                } else {
                    s.split(&sep).map(Value::str).collect()
                }
            }
        };
        Ok(Value::Object(new_array(parts)))
    });
    method(&table, "toUpperCase", |_, ctx, _| {
        Ok(Value::str(this_string(ctx).to_uppercase()))
    });
    method(&table, "toLowerCase", |_, ctx, _| {
        Ok(Value::str(this_string(ctx).to_lowercase()))
    });
    method(&table, "trim", |_, ctx, _| {
        Ok(Value::str(this_string(ctx).trim()))
    });
    method(&table, "replace", |_, ctx, args| {
        // String-pattern replace (first occurrence), no regex in the subset.
        let s = this_string(ctx);
        let pat = ops::to_string(&arg(args, 0));
        let rep = ops::to_string(&arg(args, 1));
        Ok(Value::str(s.replacen(&pat, &rep, 1)))
    });
    method(&table, "toString", |_, ctx, _| {
        Ok(Value::str(this_string(ctx)))
    });

    // String() conversion + String.fromCharCode.
    let ctor = native_fn(
        "String",
        Rc::new(|_: &mut Interp, _: &CallCtx, args: &[Value]| {
            Ok(Value::str(ops::to_string(&arg(args, 0))))
        }),
    );
    ctor.set_prop(
        "fromCharCode",
        native("fromCharCode", |_, _, args| {
            let s: String = args
                .iter()
                .map(|a| char::from_u32(ops::to_uint32(a)).unwrap_or('\u{fffd}'))
                .collect();
            Ok(Value::str(s))
        }),
    );
    interp.register_global("String", Value::Object(ctor));
}

// ---------------------------------------------------------------------
// Number
// ---------------------------------------------------------------------

fn install_number(interp: &mut Interp) {
    let (_, _, table, _) = interp.method_tables();
    method(&table, "toFixed", |_, ctx, args| {
        let n = ops::to_number(&ctx.this);
        let digits = num_arg(args, 0).max(0.0) as usize;
        Ok(Value::str(format!("{n:.digits$}")))
    });
    method(&table, "toString", |_, ctx, _| {
        Ok(Value::str(ops::to_string(&ctx.this)))
    });

    let ctor = native_fn(
        "Number",
        Rc::new(|_: &mut Interp, _: &CallCtx, args: &[Value]| {
            Ok(Value::Num(ops::to_number(&arg(args, 0))))
        }),
    );
    ctor.set_prop("MAX_VALUE", Value::Num(f64::MAX));
    ctor.set_prop("MIN_VALUE", Value::Num(f64::MIN_POSITIVE));
    ctor.set_prop("POSITIVE_INFINITY", Value::Num(f64::INFINITY));
    ctor.set_prop("NEGATIVE_INFINITY", Value::Num(f64::NEG_INFINITY));
    ctor.set_prop("NaN", Value::Num(f64::NAN));
    interp.register_global("Number", Value::Object(ctor));
}

// ---------------------------------------------------------------------
// Function.prototype
// ---------------------------------------------------------------------

fn install_function_methods(interp: &mut Interp) {
    let (_, _, _, table) = interp.method_tables();
    method(&table, "call", |interp, ctx, args| {
        let this = arg(args, 0);
        let rest: Vec<Value> = args.iter().skip(1).cloned().collect();
        interp.call_value(&ctx.this, this, &rest, ctx.caller_scope.clone())
    });
    method(&table, "apply", |interp, ctx, args| {
        let this = arg(args, 0);
        let rest: Vec<Value> = match arg(args, 1).as_object() {
            Some(o) if o.is_array() => (0..o.array_len().unwrap_or(0))
                .map(|i| o.array_get(i).unwrap())
                .collect(),
            _ => Vec::new(),
        };
        interp.call_value(&ctx.this, this, &rest, ctx.caller_scope.clone())
    });
    method(&table, "bind", |_interp, ctx, args| {
        // Returns a native wrapper that calls the original with the bound
        // receiver and prefix arguments.
        let target = ctx.this.clone();
        let bound_this = arg(args, 0);
        let prefix: Vec<Value> = args.iter().skip(1).cloned().collect();
        Ok(native("bound", move |interp, inner_ctx, call_args| {
            let mut all = prefix.clone();
            all.extend(call_args.iter().cloned());
            interp.call_value(
                &target,
                bound_this.clone(),
                &all,
                inner_ctx.caller_scope.clone(),
            )
        }))
    });
}

// ---------------------------------------------------------------------
// Object
// ---------------------------------------------------------------------

fn install_object(interp: &mut Interp) {
    let ctor = native_fn(
        "Object",
        Rc::new(
            |_: &mut Interp, _: &CallCtx, args: &[Value]| match arg(args, 0) {
                Value::Object(o) => Ok(Value::Object(o)),
                _ => Ok(Value::Object(new_object())),
            },
        ),
    );
    ctor.set_prop(
        "create",
        native("create", |_, _, args| {
            let obj = new_object();
            if let Some(p) = arg(args, 0).as_object() {
                obj.set_proto(Some(p.clone()));
            }
            Ok(Value::Object(obj))
        }),
    );
    ctor.set_prop(
        "keys",
        native("keys", |_, _, args| match arg(args, 0) {
            Value::Object(o) => Ok(Value::Object(new_array(
                o.own_keys().into_iter().map(Value::Str).collect(),
            ))),
            _ => Ok(Value::Object(new_array(Vec::new()))),
        }),
    );
    interp.register_global("Object", Value::Object(ctor));
}

// ---------------------------------------------------------------------
// Free-standing globals
// ---------------------------------------------------------------------

fn install_globals(interp: &mut Interp) {
    interp.register_global("NaN", Value::Num(f64::NAN));
    interp.register_global("Infinity", Value::Num(f64::INFINITY));

    interp.register_native("parseInt", |_, _, args| {
        let s = ops::to_string(&arg(args, 0));
        let radix = match arg(args, 1) {
            Value::Undefined => 10,
            v => {
                let r = ops::to_number(&v) as u32;
                if r == 0 {
                    10
                } else {
                    r
                }
            }
        };
        let t = s.trim();
        let (neg, t) = match t.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => (false, t.strip_prefix('+').unwrap_or(t)),
        };
        let t = if radix == 16 {
            t.strip_prefix("0x")
                .or_else(|| t.strip_prefix("0X"))
                .unwrap_or(t)
        } else {
            t
        };
        // Parse the longest valid prefix.
        let valid: String = t.chars().take_while(|c| c.is_digit(radix)).collect();
        if valid.is_empty() {
            return Ok(Value::Num(f64::NAN));
        }
        let mut acc = 0f64;
        for c in valid.chars() {
            acc = acc * radix as f64 + c.to_digit(radix).unwrap() as f64;
        }
        Ok(Value::Num(if neg { -acc } else { acc }))
    });
    interp.register_native("parseFloat", |_, _, args| {
        let s = ops::to_string(&arg(args, 0));
        let t = s.trim();
        // Longest valid float prefix.
        let mut end = 0;
        for i in (0..=t.len()).rev() {
            if t.is_char_boundary(i) && t[..i].parse::<f64>().is_ok() {
                end = i;
                break;
            }
        }
        if end == 0 {
            return Ok(Value::Num(f64::NAN));
        }
        Ok(Value::Num(t[..end].parse().unwrap()))
    });
    interp.register_native("isNaN", |_, _, args| {
        Ok(Value::Bool(ops::to_number(&arg(args, 0)).is_nan()))
    });
    interp.register_native("isFinite", |_, _, args| {
        Ok(Value::Bool(ops::to_number(&arg(args, 0)).is_finite()))
    });
    interp.register_native("Boolean", |_, _, args| {
        Ok(Value::Bool(arg(args, 0).truthy()))
    });

    // console.log / console.error → captured lines.
    let console = new_object();
    console.set_prop(
        "log",
        native("log", |interp, _, args| {
            let line = args
                .iter()
                .map(ops::to_string)
                .collect::<Vec<_>>()
                .join(" ");
            interp.console.push(line);
            Ok(Value::Undefined)
        }),
    );
    console.set_prop(
        "error",
        native("error", |interp, _, args| {
            let line = args
                .iter()
                .map(ops::to_string)
                .collect::<Vec<_>>()
                .join(" ");
            interp.console.push(format!("[error] {line}"));
            Ok(Value::Undefined)
        }),
    );
    interp.register_global("console", Value::Object(console));

    // performance.now — the paper's "JavaScript high resolution timer" [4].
    let performance = new_object();
    performance.set_prop(
        "now",
        native("now", |interp, _, _| Ok(Value::Num(interp.clock.now_ms()))),
    );
    interp.register_global("performance", Value::Object(performance));

    // Date.now (same virtual clock, ms precision).
    let date = native_fn(
        "Date",
        Rc::new(|_: &mut Interp, _: &CallCtx, _: &[Value]| Ok(Value::Object(new_object()))),
    );
    date.set_prop(
        "now",
        native("now", |interp, _, _| {
            Ok(Value::Num(interp.clock.now_ms().floor()))
        }),
    );
    interp.register_global("Date", Value::Object(date));

    // RiverTrail-style parallel-operator shim (paper Sec. 5.1): the
    // refactoring transform targets this. Sequential here — the point is
    // the dependence *shape* (callback locals are per-iteration private);
    // a parallel engine would fan the calls out.
    interp.register_native("forEachPar", |interp, ctx, args| {
        let n = num_arg(args, 0).max(0.0) as usize;
        let f = arg(args, 1);
        for i in 0..n {
            interp.call_value(
                &f,
                Value::Undefined,
                &[Value::Num(i as f64)],
                ctx.caller_scope.clone(),
            )?;
        }
        Ok(Value::Undefined)
    });

    // Event loop entry points.
    interp.register_native("setTimeout", |interp, ctx, args| {
        let f = arg(args, 0);
        let ms = num_arg(args, 1);
        let _ = ctx;
        let id = interp.schedule_in_ms(if ms.is_nan() { 0.0 } else { ms }, f, Vec::new());
        Ok(Value::Num(id as f64))
    });
    interp.register_native("setInterval", |interp, _, args| {
        let f = arg(args, 0);
        let ms = num_arg(args, 1);
        let id = interp.schedule_every_ms(if ms.is_nan() { 1.0 } else { ms }, f);
        Ok(Value::Num(id as f64))
    });
    for name in ["clearTimeout", "clearInterval"] {
        interp.register_native(name, |interp, _, args| {
            interp.cancel_timer(num_arg(args, 0) as u64);
            Ok(Value::Undefined)
        });
    }
    interp.register_native("requestAnimationFrame", |interp, _, args| {
        let f = arg(args, 0);
        let id = interp.schedule_in_ms(16.0, f, Vec::new());
        Ok(Value::Num(id as f64))
    });

    // Error constructor (usable with and without `new`).
    interp.register_native("Error", |_, ctx, args| {
        let obj = match ctx.this.as_object() {
            Some(o) if !o.is_callable() => o.clone(),
            _ => new_object(),
        };
        obj.set_prop("name", Value::str("Error"));
        obj.set_prop("message", Value::str(ops::to_string(&arg(args, 0))));
        Ok(Value::Object(obj))
    });

    // JSON.stringify (no cycles expected in workload reports).
    let json = new_object();
    json.set_prop(
        "stringify",
        native("stringify", |_, _, args| {
            Ok(Value::str(stringify(&arg(args, 0), 0)))
        }),
    );
    interp.register_global("JSON", Value::Object(json));

    // Typed arrays as dense arrays of zeros.
    for name in [
        "Float32Array",
        "Float64Array",
        "Uint8Array",
        "Uint8ClampedArray",
        "Int32Array",
        "Uint32Array",
    ] {
        let ctor = native_fn(
            name,
            Rc::new(
                |_: &mut Interp, _: &CallCtx, args: &[Value]| match arg(args, 0) {
                    Value::Num(n) => {
                        let len = if n >= 0.0 { n as usize } else { 0 };
                        Ok(Value::Object(new_array(vec![Value::Num(0.0); len])))
                    }
                    Value::Object(o) if o.is_array() => {
                        let vals: Vec<Value> = (0..o.array_len().unwrap_or(0))
                            .map(|i| {
                                Value::Num(ops::to_number(
                                    &o.array_get(i).unwrap_or(Value::Undefined),
                                ))
                            })
                            .collect();
                        Ok(Value::Object(new_array(vals)))
                    }
                    _ => Ok(Value::Object(new_array(Vec::new()))),
                },
            ),
        );
        interp.register_global(name, Value::Object(ctor));
    }
}

fn stringify(v: &Value, depth: usize) -> String {
    if depth > 16 {
        return "null".to_string();
    }
    match v {
        Value::Undefined => "null".to_string(),
        Value::Null => "null".to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Num(n) if n.is_finite() => ceres_ast::ast::number_to_string(*n),
        Value::Num(_) => "null".to_string(),
        Value::Str(s) => format!("\"{}\"", ceres_ast::codegen::escape_string(s)),
        Value::Object(o) => {
            if o.is_array() {
                let parts: Vec<String> = (0..o.array_len().unwrap_or(0))
                    .map(|i| stringify(&o.array_get(i).unwrap_or(Value::Undefined), depth + 1))
                    .collect();
                format!("[{}]", parts.join(","))
            } else if o.is_callable() {
                "null".to_string()
            } else {
                let parts: Vec<String> = o
                    .own_keys()
                    .iter()
                    .filter_map(|k| {
                        o.get_own(k).map(|v| {
                            format!(
                                "\"{}\":{}",
                                ceres_ast::codegen::escape_string(k),
                                stringify(&v, depth + 1)
                            )
                        })
                    })
                    .collect();
                format!("{{{}}}", parts.join(","))
            }
        }
    }
}
