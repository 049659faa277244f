//! Operator fusion with the paper's dynamic-aware fusion policy.
//!
//! Fusion groups operators into *primitive functions* that the code
//! generator compiles to a single kernel, eliminating intermediate
//! allocations and VM dispatch. Groups form over each let-block's dataflow
//! graph, visited in binding (topological) order:
//!
//! * a compute-heavy **anchor** (`dense`, `batch_matmul`, `conv2d`) always
//!   starts a group, so a group holds at most one anchor;
//! * an **elementwise or broadcast** op joins the group of the first operand
//!   whose group it can join; general **injective** ops (`reshape`,
//!   `transpose`, …) join only all-injective groups;
//! * a **`split`** whose tuple is only read by `tuple_get`s joins its input's
//!   group even behind an elementwise tail, and each `tuple_get` of an
//!   in-group split joins with it: the parts are views of a buffer the group
//!   already holds;
//! * reductions, opaque ops and — the paper's rule from Section 4.2 —
//!   operators whose shape function is **data dependent or upper bound**
//!   are barriers, because the composite shape function would need access
//!   to intermediate results.
//!
//! A member may have uses outside its group; it then becomes an extra
//! **output**, and a group with k > 1 outputs binds a k-tuple whose fields
//! rebind the original variables. Joining keeps every group **convex**: a
//! join makes the group read each of the op's operand groups, so an op
//! joins a group only when none of those groups already depends on it
//! through the group-level graph. No path leaves a group and re-enters it,
//! and that graph stays acyclic, however groups grow after a check. Each
//! group is emitted where its last member stood
//! (a topological order that keeps the original one wherever it is valid).
//!
//! A fused group appears in the IR as `(fn(params…) { let …; out })(args…)`
//! with the attribute `primitive = 1`, mirroring Relay's representation; a
//! multi-output body ends in `let r = (o₁, …, o_k); r`.

use nimble_ir::attrs::{AttrValue, Attrs};
use nimble_ir::expr::{Clause, Expr, ExprKind, Function};
use nimble_ir::op::{self, FusePattern};
use nimble_ir::types::Type;
use nimble_ir::Var;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};

/// Attribute key marking a call to a fused primitive function.
pub const PRIMITIVE_ATTR: &str = "primitive";

/// Whether a call expression is a fused-primitive invocation.
pub fn is_primitive_call(e: &Expr) -> bool {
    if let ExprKind::Call { callee, attrs, .. } = e.kind() {
        matches!(callee.kind(), ExprKind::Func(_)) && attrs.int(PRIMITIVE_ATTR) == Some(1)
    } else {
        false
    }
}

/// Fuse operators in an ANF function.
pub fn fuse_function(func: &Function) -> Function {
    Function::new(
        func.params.clone(),
        fuse_block(&func.body),
        func.ret_type.clone(),
    )
}

struct Binding {
    var: Var,
    value: Expr,
}

/// How a binding may take part in a group.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Compute-heavy op: starts a group, never joins one.
    Anchor,
    /// Elementwise or broadcast op: joins any group.
    Follower,
    /// Data movement: joins only all-injective groups.
    Injective,
    /// `split` read only through `tuple_get`: joins any group.
    Split,
    /// `tuple_get` of a split: joins the split's group.
    Field,
    /// Everything else: a closed singleton.
    Barrier,
}

struct Group {
    members: Vec<usize>,
    /// The other groups whose values this group's members read.
    reads: Vec<usize>,
    all_injective: bool,
    open: bool,
}

/// Whether group `from` depends on group `to` through `reads` edges (a
/// depth-first walk).
fn depends_on(groups: &[Group], from: usize, to: usize) -> bool {
    let mut seen = vec![false; groups.len()];
    let mut stack = vec![from];
    while let Some(g) = stack.pop() {
        if g == to {
            return true;
        }
        for &q in &groups[g].reads {
            if !std::mem::replace(&mut seen[q], true) {
                stack.push(q);
            }
        }
    }
    false
}

fn fuse_block(block: &Expr) -> Expr {
    // Collect the let chain.
    let mut bindings: Vec<Binding> = Vec::new();
    let mut cur = block.clone();
    while let ExprKind::Let { var, value, body } = cur.kind() {
        bindings.push(Binding {
            var: var.clone(),
            value: recurse_value(value),
        });
        cur = body.clone();
    }
    let result = cur;
    let n = bindings.len();

    // The dataflow graph: each binding's in-block producers (first-use
    // order), each producer's consumers, and the values the block result
    // reads.
    let producer: HashMap<u32, usize> = bindings
        .iter()
        .enumerate()
        .map(|(i, b)| (b.var.id, i))
        .collect();
    let refs = |e: &Expr| {
        let mut out: Vec<usize> = Vec::new();
        nimble_ir::visit::visit_post_order(e, &mut |x| {
            if let ExprKind::Var(v) = x.kind() {
                if let Some(&p) = producer.get(&v.id) {
                    if !out.contains(&p) {
                        out.push(p);
                    }
                }
            }
        });
        out
    };
    let operands: Vec<Vec<usize>> = bindings.iter().map(|b| refs(&b.value)).collect();
    let mut users: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, ops) in operands.iter().enumerate() {
        for &p in ops {
            users[p].push(i);
        }
    }
    let mut escapes = vec![false; n];
    for p in refs(&result) {
        escapes[p] = true;
    }

    // Roles, in order (a field's role needs its split's).
    let mut roles: Vec<Role> = Vec::with_capacity(n);
    for (i, b) in bindings.iter().enumerate() {
        let role = match b.value.kind() {
            ExprKind::TupleGet(t, _) => match t.as_var().and_then(|v| producer.get(&v.id)) {
                Some(&p) if roles[p] == Role::Split => Role::Field,
                _ => Role::Barrier,
            },
            _ => match b
                .value
                .as_op_call()
                .map(|(name, _, _)| (name, op::lookup(name)))
            {
                Some((name, Ok(def))) if !def.is_fusion_barrier() => match def.pattern {
                    FusePattern::OutEwiseFusable => Role::Anchor,
                    FusePattern::Elemwise | FusePattern::Broadcast => Role::Follower,
                    FusePattern::Injective if name == "split" => {
                        let fields_only = !escapes[i]
                            && users[i].iter().all(|&u| {
                                matches!(bindings[u].value.kind(), ExprKind::TupleGet(..))
                            });
                        if fields_only {
                            Role::Split
                        } else {
                            Role::Barrier
                        }
                    }
                    FusePattern::Injective => Role::Injective,
                    FusePattern::Reduction | FusePattern::Opaque => Role::Barrier,
                },
                _ => Role::Barrier,
            },
        };
        roles.push(role);
    }

    // Group assignment. Joining group `g` adds an edge to `g` from every
    // operand's group, so an op may join `g` only when none of those groups
    // already depends on `g` (convexity: the group graph stays acyclic).
    let mut groups: Vec<Group> = Vec::new();
    let mut group_of: Vec<usize> = vec![usize::MAX; n];
    for i in 0..n {
        let role = roles[i];
        let ops = &operands[i];
        let joinable = |g: usize| {
            let grp: &Group = &groups[g];
            grp.open
                && (role != Role::Injective || grp.all_injective)
                && ops
                    .iter()
                    .all(|&p| group_of[p] == g || !depends_on(&groups, group_of[p], g))
        };
        let target = match role {
            Role::Anchor | Role::Barrier => None,
            Role::Field => Some(group_of[ops[0]]),
            Role::Follower | Role::Injective | Role::Split => {
                ops.iter().map(|&p| group_of[p]).find(|&g| joinable(g))
            }
        };
        let injective = matches!(role, Role::Injective | Role::Split | Role::Field);
        let g = match target {
            Some(g) => {
                groups[g].members.push(i);
                groups[g].all_injective &= injective;
                g
            }
            None => {
                groups.push(Group {
                    members: vec![i],
                    reads: Vec::new(),
                    all_injective: injective,
                    open: role != Role::Barrier,
                });
                groups.len() - 1
            }
        };
        group_of[i] = g;
        for &p in ops {
            let q = group_of[p];
            if q != g && !groups[g].reads.contains(&q) {
                groups[g].reads.push(q);
            }
        }
    }

    // Emission units: a group with at least two operator members becomes
    // one primitive call; every other binding stands alone.
    let is_op = |i: usize| bindings[i].value.as_op_call().is_some();
    let mut units: Vec<Vec<usize>> = Vec::new();
    let mut unit_of: Vec<usize> = vec![0; n];
    for g in &groups {
        let fused = g.members.iter().filter(|&&m| is_op(m)).count() >= 2;
        let chunks: Vec<Vec<usize>> = if fused {
            vec![g.members.clone()]
        } else {
            g.members.iter().map(|&m| vec![m]).collect()
        };
        for chunk in chunks {
            for &m in &chunk {
                unit_of[m] = units.len();
            }
            units.push(chunk);
        }
    }

    // Kahn's algorithm, smallest last-member position first.
    let mut indegree = vec![0usize; units.len()];
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); units.len()];
    for (u, members) in units.iter().enumerate() {
        let preds: HashSet<usize> = members
            .iter()
            .flat_map(|&m| operands[m].iter().map(|&p| unit_of[p]))
            .filter(|&p| p != u)
            .collect();
        indegree[u] = preds.len();
        for p in preds {
            succ[p].push(u);
        }
    }
    let key = |u: usize| *units[u].last().expect("non-empty unit");
    let mut ready: BinaryHeap<Reverse<(usize, usize)>> = (0..units.len())
        .filter(|&u| indegree[u] == 0)
        .map(|u| Reverse((key(u), u)))
        .collect();
    let mut emitted: Vec<(Var, Expr)> = Vec::with_capacity(n);
    let mut done = 0;
    while let Some(Reverse((_, u))) = ready.pop() {
        done += 1;
        let members = &units[u];
        if let [only] = members[..] {
            let b = &bindings[only];
            emitted.push((b.var.clone(), b.value.clone()));
        } else {
            let inside = |i: usize| unit_of[i] == u;
            let mut outputs: Vec<usize> = members
                .iter()
                .copied()
                .filter(|&m| escapes[m] || users[m].iter().any(|&c| !inside(c)))
                .collect();
            if outputs.is_empty() {
                outputs.push(*members.last().expect("non-empty unit"));
            }
            let call = build_primitive(&bindings, members, &outputs);
            if let [out] = outputs[..] {
                emitted.push((bindings[out].var.clone(), call));
            } else {
                let tuple = Var::fresh("fused", Type::Unknown);
                emitted.push((tuple.clone(), call));
                for (k, &o) in outputs.iter().enumerate() {
                    emitted.push((bindings[o].var.clone(), Expr::tuple_get(tuple.to_expr(), k)));
                }
            }
        }
        for &s in &succ[u] {
            indegree[s] -= 1;
            if indegree[s] == 0 {
                ready.push(Reverse((key(s), s)));
            }
        }
    }
    assert_eq!(
        done,
        units.len(),
        "convex groups keep the unit graph acyclic"
    );

    let mut out = result;
    for (var, value) in emitted.into_iter().rev() {
        out = Expr::let_(var, value, out);
    }
    out
}

/// Build the primitive-function call for a fused group.
fn build_primitive(bindings: &[Binding], members: &[usize], outputs: &[usize]) -> Expr {
    let member_vars: HashSet<u32> = members.iter().map(|&i| bindings[i].var.id).collect();

    // External inputs: vars referenced by member values but not produced
    // inside the group, in first-use order.
    let mut params: Vec<Var> = Vec::new();
    let mut seen: HashSet<u32> = HashSet::new();
    for &i in members {
        nimble_ir::visit::visit_post_order(&bindings[i].value, &mut |n| {
            if let ExprKind::Var(v) = n.kind() {
                if !member_vars.contains(&v.id) && seen.insert(v.id) {
                    params.push(v.clone());
                }
            }
        });
    }

    // Body: the member bindings in order, ending with the output — or a
    // tuple of the outputs.
    let mut body = if let [out] = outputs[..] {
        bindings[out].var.to_expr()
    } else {
        let r = Var::fresh("outs", Type::Unknown);
        let fields = outputs.iter().map(|&o| bindings[o].var.to_expr()).collect();
        Expr::let_(r.clone(), Expr::tuple(fields), r.to_expr())
    };
    for &i in members.iter().rev() {
        body = Expr::let_(bindings[i].var.clone(), bindings[i].value.clone(), body);
    }
    let func = Function::new(params.clone(), body, Type::Unknown);
    let args: Vec<Expr> = params.iter().map(|p| p.to_expr()).collect();
    Expr::new(ExprKind::Call {
        callee: Expr::func(func),
        args,
        attrs: Attrs::new().with(PRIMITIVE_ATTR, AttrValue::Int(1)),
    })
}

/// Recurse into control-flow values so nested blocks are fused too.
fn recurse_value(value: &Expr) -> Expr {
    match value.kind() {
        ExprKind::If { cond, then, els } => {
            Expr::if_(cond.clone(), fuse_block(then), fuse_block(els))
        }
        ExprKind::Match { value: v, clauses } => Expr::match_(
            v.clone(),
            clauses
                .iter()
                .map(|c| Clause {
                    pattern: c.pattern.clone(),
                    body: fuse_block(&c.body),
                })
                .collect(),
        ),
        ExprKind::Func(f) => Expr::func(Function::new(
            f.params.clone(),
            fuse_block(&f.body),
            f.ret_type.clone(),
        )),
        _ => value.clone(),
    }
}

/// Count fused-group sizes in a function (diagnostic used by tests and the
/// ablation bench): the operator members of each group, never its
/// `tuple_get` or output-tuple bindings.
pub fn fusion_stats(func: &Function) -> Vec<usize> {
    let mut sizes = Vec::new();
    nimble_ir::visit::visit_post_order(&func.body, &mut |e| {
        if is_primitive_call(e) {
            if let ExprKind::Call { callee, .. } = e.kind() {
                if let ExprKind::Func(f) = callee.kind() {
                    let mut n = 0;
                    let mut cur = f.body.clone();
                    while let ExprKind::Let { value, body, .. } = cur.kind() {
                        n += usize::from(value.as_op_call().is_some());
                        let nb = body.clone();
                        cur = nb;
                    }
                    sizes.push(n);
                }
            }
        }
    });
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anf::{is_anf, to_anf};
    use nimble_ir::builder::FunctionBuilder;
    use nimble_ir::types::TensorType;
    use nimble_tensor::{DType, Tensor};

    fn any_vec() -> TensorType {
        TensorType::with_any(&[None, Some(8)], DType::F32)
    }

    #[test]
    fn dense_absorbs_elementwise_tail() {
        let mut fb = FunctionBuilder::new("f");
        let x = fb.param("x", any_vec());
        let w = fb.constant(Tensor::ones_f32(&[8, 8]));
        let h = fb.call("dense", vec![x, w], Attrs::new());
        let t = fb.call("tanh", vec![h], Attrs::new());
        let s = fb.call("sigmoid", vec![t], Attrs::new());
        let f = to_anf(&fb.finish(s));
        let fused = fuse_function(&f);
        let sizes = fusion_stats(&fused);
        assert_eq!(sizes, vec![3], "dense+tanh+sigmoid fuse into one group");
    }

    #[test]
    fn multi_use_intermediate_joins_one_group() {
        let mut fb = FunctionBuilder::new("f");
        let x = fb.param("x", any_vec());
        let h = fb.call("relu", vec![x], Attrs::new());
        // h feeds both tanh and the add: all three stay inside one group.
        let t = fb.call("tanh", vec![h.clone()], Attrs::new());
        let s = fb.call("add", vec![t, h], Attrs::new());
        let f = to_anf(&fb.finish(s));
        let fused = fuse_function(&f);
        assert_eq!(fusion_stats(&fused), vec![3]);
    }

    /// The primitive calls of a fused function, with their output counts.
    fn primitive_outputs(f: &Function) -> Vec<usize> {
        let mut outs = Vec::new();
        nimble_ir::visit::visit_post_order(&f.body, &mut |e| {
            if let (true, ExprKind::Call { callee, .. }) = (is_primitive_call(e), e.kind()) {
                if let ExprKind::Func(p) = callee.kind() {
                    let mut cur = p.body.clone();
                    let mut last = None;
                    while let ExprKind::Let { value, body, .. } = cur.kind() {
                        last = Some(value.clone());
                        cur = body.clone();
                    }
                    outs.push(match last.as_ref().map(|v| v.kind()) {
                        Some(ExprKind::Tuple(fields)) => fields.len(),
                        _ => 1,
                    });
                }
            }
        });
        outs
    }

    /// An LSTM cell: `dense(x)+dense(h)+bias`, split into four gates, and
    /// the new `c` feeding both `tanh(c)` and the caller.
    fn lstm_cell() -> Function {
        let hidden = 4usize;
        let mut fb = FunctionBuilder::new("cell");
        let st = || TensorType::new(&[1, hidden as u64], DType::F32);
        let x = fb.param("x", st());
        let h = fb.param("h", st());
        let c = fb.param("c", st());
        let w = |fb: &mut FunctionBuilder| fb.constant(Tensor::ones_f32(&[4 * hidden, hidden]));
        let (w_ih, w_hh) = (w(&mut fb), w(&mut fb));
        let b = fb.constant(Tensor::ones_f32(&[4 * hidden]));
        let dx = fb.call("dense", vec![x, w_ih], Attrs::new());
        let dh = fb.call("dense", vec![h, w_hh], Attrs::new());
        let s = fb.call("add", vec![dx, dh], Attrs::new());
        let gates = fb.call("add", vec![s, b], Attrs::new());
        let parts = fb.bind(
            "parts",
            Expr::call_op(
                "split",
                vec![gates],
                Attrs::new()
                    .with("parts", AttrValue::Int(4))
                    .with("axis", AttrValue::Int(1)),
            ),
        );
        let gate = |fb: &mut FunctionBuilder, i, op: &str| {
            let part = fb.bind("part", Expr::tuple_get(parts.clone(), i));
            fb.call(op, vec![part], Attrs::new())
        };
        let (i, f, g, o) = (
            gate(&mut fb, 0, "sigmoid"),
            gate(&mut fb, 1, "sigmoid"),
            gate(&mut fb, 2, "tanh"),
            gate(&mut fb, 3, "sigmoid"),
        );
        let fc = fb.call("mul", vec![f, c], Attrs::new());
        let ig = fb.call("mul", vec![i, g], Attrs::new());
        let c2 = fb.call("add", vec![fc, ig], Attrs::new());
        let tc = fb.call("tanh", vec![c2.clone()], Attrs::new());
        let h2 = fb.call("mul", vec![o, tc], Attrs::new());
        let out = fb.bind("out", Expr::tuple(vec![h2, c2]));
        to_anf(&fb.finish(out))
    }

    #[test]
    fn lstm_cell_tail_is_one_two_output_group() {
        let fused = fuse_function(&lstm_cell());
        // dense(x)+add+add+split+3×sigmoid+2×tanh+3×mul+add; dense(h)
        // stays its own kernel.
        assert_eq!(fusion_stats(&fused), vec![13]);
        assert_eq!(primitive_outputs(&fused), vec![2]);
        assert!(is_anf(&fused.body));
    }

    #[test]
    fn groups_stay_convex() {
        // t = tanh(x) leaves through dense and comes back through the add:
        // the add may not join t's group, or the group would feed itself.
        let mut fb = FunctionBuilder::new("f");
        let x = fb.param("x", TensorType::new(&[1, 8], DType::F32));
        let t = fb.call("tanh", vec![x], Attrs::new());
        let r = fb.call("relu", vec![t.clone()], Attrs::new());
        let w = fb.constant(Tensor::ones_f32(&[8, 8]));
        let d = fb.call("dense", vec![t, w], Attrs::new());
        let y = fb.call("add", vec![r, d], Attrs::new());
        let f = to_anf(&fb.finish(y));
        let fused = fuse_function(&f);
        // tanh+relu is one group exporting t for the dense; the add joins
        // the dense anchor's group instead.
        let mut sizes = fusion_stats(&fused);
        sizes.sort_unstable();
        assert_eq!(sizes, vec![2, 2]);
        assert_eq!(primitive_outputs(&fused), vec![2, 1]);
    }

    /// Every variable the body reads is a parameter or bound earlier.
    fn all_bound_before_use(f: &Function) -> bool {
        let mut bound: HashSet<u32> = f.params.iter().map(|p| p.id).collect();
        let reads_bound = |e: &Expr, bound: &HashSet<u32>| {
            let mut ok = true;
            nimble_ir::visit::visit_post_order(e, &mut |x| {
                if let ExprKind::Var(v) = x.kind() {
                    ok &= bound.contains(&v.id);
                }
            });
            ok
        };
        let mut cur = f.body.clone();
        while let ExprKind::Let { var, value, body } = cur.kind() {
            // Primitive bodies bind their own parameters.
            let value = match value.kind() {
                ExprKind::Call { args, .. } if is_primitive_call(value) => {
                    Expr::tuple(args.clone())
                }
                _ => value.clone(),
            };
            if !reads_bound(&value, &bound) {
                return false;
            }
            bound.insert(var.id);
            cur = body.clone();
        }
        reads_bound(&cur, &bound)
    }

    #[test]
    fn crossing_dataflow_does_not_tie_two_groups_into_a_cycle() {
        // a = tanh(x); b = relu(y); c = add(a, b); d = mul(b, a).
        // c joins a's group, which then depends on b's; d may not also
        // join b's group, or each group would read the other's output.
        let mut fb = FunctionBuilder::new("f");
        let x = fb.param("x", TensorType::new(&[1, 8], DType::F32));
        let y = fb.param("y", TensorType::new(&[1, 8], DType::F32));
        let a = fb.call("tanh", vec![x], Attrs::new());
        let b = fb.call("relu", vec![y], Attrs::new());
        let c = fb.call("add", vec![a.clone(), b.clone()], Attrs::new());
        let d = fb.call("mul", vec![b, a], Attrs::new());
        let s = fb.call("add", vec![c, d], Attrs::new());
        let fused = fuse_function(&to_anf(&fb.finish(s)));
        assert!(is_anf(&fused.body));
        assert!(all_bound_before_use(&fused));
        // {a, c, d, s} fuse; b stays a kernel of its own.
        assert_eq!(fusion_stats(&fused), vec![4]);
    }

    #[test]
    fn anchor_then_injective_stays_split() {
        // BERT's dense → reshape → transpose: the reshape does not join the
        // dense's group; reshape+transpose fuse on their own.
        let mut fb = FunctionBuilder::new("f");
        let x = fb.param("x", TensorType::new(&[4, 8], DType::F32));
        let w = fb.constant(Tensor::ones_f32(&[8, 8]));
        let d = fb.call("dense", vec![x, w], Attrs::new());
        let r = fb.call(
            "reshape",
            vec![d],
            Attrs::new().with("newshape", AttrValue::IntVec(vec![4, 2, 4])),
        );
        let t = fb.call(
            "transpose",
            vec![r],
            Attrs::new().with("perm", AttrValue::IntVec(vec![1, 0, 2])),
        );
        let f = to_anf(&fb.finish(t));
        assert_eq!(fusion_stats(&fuse_function(&f)), vec![2]);
    }

    #[test]
    fn dynamic_shape_ops_are_barriers() {
        // arange -> add: arange has a data-dependent shape function, so the
        // fusion policy of Section 4.2 must keep it out of any group.
        let mut fb = FunctionBuilder::new("f");
        let start = fb.constant(Tensor::scalar_f32(0.0));
        let stop = fb.param("stop", TensorType::scalar(DType::F32));
        let step = fb.constant(Tensor::scalar_f32(1.0));
        let r = fb.call("arange", vec![start, stop, step], Attrs::new());
        let y = fb.call("add", vec![r.clone(), r], Attrs::new());
        let f = to_anf(&fb.finish(y));
        let fused = fuse_function(&f);
        // No group may contain arange; the only possible group is empty or
        // add-alone (which stays a singleton). So there are no primitive
        // calls of size >= 2 containing arange.
        let mut has_arange_in_primitive = false;
        nimble_ir::visit::visit_post_order(&fused.body, &mut |e| {
            if is_primitive_call(e) {
                nimble_ir::visit::visit_post_order(e, &mut |n| {
                    if let ExprKind::Op(name) = n.kind() {
                        if name == "arange" {
                            has_arange_in_primitive = true;
                        }
                    }
                });
            }
        });
        assert!(!has_arange_in_primitive);
    }

    #[test]
    fn injective_chain_fuses() {
        let mut fb = FunctionBuilder::new("f");
        let x = fb.param("x", TensorType::new(&[4, 8], DType::F32));
        let t = fb.call(
            "transpose",
            vec![x],
            Attrs::new().with("perm", AttrValue::IntVec(vec![1, 0])),
        );
        let r = fb.call(
            "reshape",
            vec![t],
            Attrs::new().with("newshape", AttrValue::IntVec(vec![32])),
        );
        let f = to_anf(&fb.finish(r));
        let fused = fuse_function(&f);
        assert_eq!(fusion_stats(&fused), vec![2]);
    }

    #[test]
    fn heavy_op_does_not_join_injective_chain() {
        let mut fb = FunctionBuilder::new("f");
        let x = fb.param("x", TensorType::new(&[4, 8], DType::F32));
        let t = fb.call(
            "transpose",
            vec![x],
            Attrs::new().with("perm", AttrValue::IntVec(vec![1, 0])),
        );
        let w = fb.constant(Tensor::ones_f32(&[16, 4]));
        let d = fb.call("dense", vec![t, w], Attrs::new());
        let f = to_anf(&fb.finish(d));
        let fused = fuse_function(&f);
        // transpose and dense stay separate groups (dense anchors its own).
        assert!(fusion_stats(&fused).is_empty());
    }

    #[test]
    fn fusion_preserves_anf_and_recurses_into_if() {
        let mut fb = FunctionBuilder::new("f");
        let x = fb.param("x", any_vec());
        let c = fb.param("c", TensorType::scalar(DType::Bool));
        let then_e = Expr::call_op(
            "relu",
            vec![Expr::call_op("tanh", vec![x.clone()], Attrs::new())],
            Attrs::new(),
        );
        let e = Expr::if_(c, then_e, x.clone());
        let bound = fb.bind("r", e);
        let f = to_anf(&fb.finish(bound));
        let fused = fuse_function(&f);
        assert!(is_anf(&fused.body));
        // The branch body got its own fused group.
        assert_eq!(fusion_stats(&fused), vec![2]);
    }
}
