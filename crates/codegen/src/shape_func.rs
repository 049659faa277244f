//! Compiled shape functions (Section 4.2).
//!
//! Shape functions are realized "as fragments of the tensor expression
//! language" in the paper — ordinary tiny kernels over `i64` shape tensors,
//! executed on the CPU. Here a [`ShapeFuncKernel`] is a closure in one of
//! the three modes:
//!
//! * **shapes** (data independent): inputs are the rank-1 `i64` shape
//!   tensors produced by `shape_of`;
//! * **data** (data dependent): inputs are the operand *values* themselves
//!   (which device placement pins to the CPU);
//! * **bound** (upper bound): like `shapes`, but the result is an upper
//!   bound and the kernel reports the precise shape with its output.
//!
//! Fused primitives get a *composite* shape function: the member
//! data-independent shape functions composed in order — legal precisely
//! because the fusion policy forbids fusing past data-dependent or
//! upper-bound operators.

use crate::kernel::{parse_primitive, KernelError, Src};
use nimble_ir::attrs::Attrs;
use nimble_ir::expr::Function;
use nimble_ir::op::{self, ShapeFnKind};
use nimble_tensor::{DType, Tensor};
use std::fmt;
use std::sync::Arc;

type ShapeFn = dyn Fn(&[Tensor]) -> Result<Vec<Tensor>, KernelError> + Send + Sync;

/// The execution mode of a compiled shape function, mirroring the
/// `mode` attribute placed on `invoke_shape_func` by memory planning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShapeFuncMode {
    /// Inputs are shape tensors.
    Shapes,
    /// Inputs are data tensors.
    Data,
    /// Inputs are shape tensors; outputs are upper bounds.
    Bound,
}

impl ShapeFuncMode {
    /// Parse the IR attribute value.
    pub fn parse(s: &str) -> ShapeFuncMode {
        match s {
            "data" => ShapeFuncMode::Data,
            "bound" => ShapeFuncMode::Bound,
            _ => ShapeFuncMode::Shapes,
        }
    }
}

/// A compiled shape function.
#[derive(Clone)]
pub struct ShapeFuncKernel {
    name: Arc<str>,
    /// Execution mode.
    pub mode: ShapeFuncMode,
    f: Arc<ShapeFn>,
}

impl fmt::Debug for ShapeFuncKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ShapeFuncKernel({}, {:?})", self.name, self.mode)
    }
}

fn shapes_to_tensors(shapes: Vec<Vec<usize>>) -> Vec<Tensor> {
    shapes
        .into_iter()
        .map(|s| {
            let dims: Vec<i64> = s.iter().map(|&d| d as i64).collect();
            let n = dims.len();
            Tensor::from_vec_i64(dims, &[n]).expect("shape tensor construction")
        })
        .collect()
}

fn tensors_to_shapes(tensors: &[Tensor]) -> Result<Vec<Vec<usize>>, KernelError> {
    tensors
        .iter()
        .map(|t| {
            Ok(t.as_i64()
                .map_err(KernelError::from)?
                .iter()
                .map(|&d| d as usize)
                .collect())
        })
        .collect()
}

impl ShapeFuncKernel {
    /// The shape function's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Execute: shape tensors (or data tensors in `Data` mode) in, shape
    /// tensors out.
    ///
    /// # Errors
    /// Propagates relation failures — the run-time type checks of the
    /// gradual typing scheme.
    pub fn invoke(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>, KernelError> {
        (self.f)(inputs)
    }

    /// Compile the shape function for a single operator call.
    ///
    /// # Errors
    /// Fails for unknown operators.
    pub fn from_op(
        name: &str,
        attrs: &Attrs,
        in_dtypes: Vec<DType>,
    ) -> Result<ShapeFuncKernel, KernelError> {
        let def = op::lookup(name)?;
        let attrs = attrs.clone();
        match def.shape_fn {
            ShapeFnKind::DataIndependent => {
                let op_name: Arc<str> = name.into();
                let op_name2 = Arc::clone(&op_name);
                Ok(ShapeFuncKernel {
                    name: op_name,
                    mode: ShapeFuncMode::Shapes,
                    f: Arc::new(move |inputs| {
                        let shapes = tensors_to_shapes(inputs)?;
                        let def = op::lookup(&op_name2)?;
                        let out = def
                            .infer_shapes(&shapes, &in_dtypes, &attrs)
                            .map_err(KernelError::from)?;
                        Ok(shapes_to_tensors(out))
                    }),
                })
            }
            ShapeFnKind::DataDependent(f) => Ok(ShapeFuncKernel {
                name: name.into(),
                mode: ShapeFuncMode::Data,
                f: Arc::new(move |inputs| {
                    let out = f(inputs, &attrs).map_err(KernelError::from)?;
                    Ok(shapes_to_tensors(out))
                }),
            }),
            ShapeFnKind::UpperBound(f) => Ok(ShapeFuncKernel {
                name: name.into(),
                mode: ShapeFuncMode::Bound,
                f: Arc::new(move |inputs| {
                    let shapes = tensors_to_shapes(inputs)?;
                    let out = f(&shapes, &attrs).map_err(KernelError::from)?;
                    Ok(shapes_to_tensors(out))
                }),
            }),
        }
    }

    /// Compile the composite shape function of a fused primitive: member
    /// shape functions composed in binding order ("the compiler can easily
    /// connect the shape functions of basic operators to form the shape
    /// function for a composite operator when all shape functions are data
    /// independent"). A multi-output member (`split`) yields one shape per
    /// field, and the result has one shape per primitive output.
    ///
    /// `param_dtypes` gives the dtype of each primitive parameter.
    ///
    /// # Errors
    /// Fails when a member operator is not data independent (the fusion
    /// policy should have prevented this) or the body is malformed.
    pub fn from_primitive(
        func: &Function,
        param_dtypes: Vec<DType>,
    ) -> Result<ShapeFuncKernel, KernelError> {
        let (members, outputs) = parse_primitive(func)?;
        if let Some(m) = members.iter().find(|m| m.def.is_fusion_barrier()) {
            return Err(KernelError(format!(
                "composite shape function: member {} is not data independent",
                m.def.name
            )));
        }
        let num_params = func.params.len();
        Ok(ShapeFuncKernel {
            name: "composite".into(),
            mode: ShapeFuncMode::Shapes,
            f: Arc::new(move |inputs| {
                if inputs.len() != num_params {
                    return Err(KernelError(format!(
                        "composite shape function arity {} vs {num_params}",
                        inputs.len()
                    )));
                }
                let params = tensors_to_shapes(inputs)?;
                // Each member's (shape, dtype) per output.
                let mut env: Vec<Vec<(Vec<usize>, DType)>> = Vec::with_capacity(members.len());
                let value = |env: &[Vec<(Vec<usize>, DType)>], src: &Src| match src {
                    Src::Param(i) => (
                        params[*i].clone(),
                        param_dtypes.get(*i).copied().unwrap_or(DType::F32),
                    ),
                    Src::Member(i) => env[*i][0].clone(),
                    Src::Field(i, k) => env[*i][*k].clone(),
                    Src::Const(t, _) => (t.dims().to_vec(), t.dtype()),
                };
                for m in &members {
                    let (shapes, dtypes): (Vec<_>, Vec<_>) =
                        m.args.iter().map(|a| value(&env, a)).unzip();
                    let out = m
                        .def
                        .infer_shapes(&shapes, &dtypes, &m.attrs)
                        .map_err(KernelError::from)?;
                    if out.is_empty() {
                        return Err(KernelError("member with no output".into()));
                    }
                    // Output dtype: `cast`'s target, else the first input's.
                    let out_dt = m
                        .attrs
                        .dtype("to")
                        .or_else(|| dtypes.first().copied())
                        .unwrap_or(DType::F32);
                    env.push(out.into_iter().map(|s| (s, out_dt)).collect());
                }
                let shapes = outputs
                    .iter()
                    .map(|o| {
                        let field = match o {
                            Src::Field(i, k) => env[*i].get(*k),
                            Src::Member(i) => env[*i].first(),
                            _ => None,
                        };
                        field
                            .map(|(s, _)| s.clone())
                            .ok_or_else(|| KernelError("composite output out of range".into()))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(shapes_to_tensors(shapes))
            }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimble_ir::attrs::AttrValue;
    use nimble_ir::expr::Expr;
    use nimble_ir::types::Type;
    use nimble_ir::Var;

    fn shape_tensor(dims: &[i64]) -> Tensor {
        Tensor::from_vec_i64(dims.to_vec(), &[dims.len()]).unwrap()
    }

    #[test]
    fn data_independent_concat() {
        let attrs = Attrs::new().with("axis", AttrValue::Int(0));
        let sf = ShapeFuncKernel::from_op("concat", &attrs, vec![DType::F32, DType::F32]).unwrap();
        assert_eq!(sf.mode, ShapeFuncMode::Shapes);
        let out = sf
            .invoke(&[shape_tensor(&[3, 2]), shape_tensor(&[1, 2])])
            .unwrap();
        assert_eq!(out[0].as_i64().unwrap(), &[4, 2]);
    }

    #[test]
    fn runtime_check_fires_on_bad_shapes() {
        // The deferred gradual-typing check: concat with mismatched widths
        // passes static typing for Any, but fails here at run time.
        let attrs = Attrs::new().with("axis", AttrValue::Int(0));
        let sf = ShapeFuncKernel::from_op("concat", &attrs, vec![DType::F32, DType::F32]).unwrap();
        assert!(sf
            .invoke(&[shape_tensor(&[3, 2]), shape_tensor(&[1, 5])])
            .is_err());
    }

    #[test]
    fn data_dependent_arange() {
        let sf = ShapeFuncKernel::from_op("arange", &Attrs::new(), vec![DType::F32; 3]).unwrap();
        assert_eq!(sf.mode, ShapeFuncMode::Data);
        let out = sf
            .invoke(&[
                Tensor::scalar_f32(0.0),
                Tensor::scalar_f32(6.0),
                Tensor::scalar_f32(2.0),
            ])
            .unwrap();
        assert_eq!(out[0].as_i64().unwrap(), &[3]);
    }

    #[test]
    fn upper_bound_nms() {
        let sf = ShapeFuncKernel::from_op("nms", &Attrs::new(), vec![DType::F32]).unwrap();
        assert_eq!(sf.mode, ShapeFuncMode::Bound);
        let out = sf.invoke(&[shape_tensor(&[12, 5])]).unwrap();
        assert_eq!(out[0].as_i64().unwrap(), &[12, 5]);
    }

    #[test]
    fn composite_shape_function() {
        // fused dense+tanh: shape flows through dense's relation then
        // tanh's identity.
        let x = Var::fresh("x", Type::Unknown);
        let w = Var::fresh("w", Type::Unknown);
        let d = Var::fresh("d", Type::Unknown);
        let t = Var::fresh("t", Type::Unknown);
        let body = Expr::let_(
            d.clone(),
            Expr::call_op("dense", vec![x.to_expr(), w.to_expr()], Attrs::new()),
            Expr::let_(
                t.clone(),
                Expr::call_op("tanh", vec![d.to_expr()], Attrs::new()),
                t.to_expr(),
            ),
        );
        let f = Function::new(vec![x, w], body, Type::Unknown);
        let sf = ShapeFuncKernel::from_primitive(&f, vec![DType::F32, DType::F32]).unwrap();
        let out = sf
            .invoke(&[shape_tensor(&[7, 300]), shape_tensor(&[512, 300])])
            .unwrap();
        assert_eq!(out[0].as_i64().unwrap(), &[7, 512]);
    }

    #[test]
    fn composite_rejects_barrier_members() {
        let a = Var::fresh("a", Type::Unknown);
        let u = Var::fresh("u", Type::Unknown);
        let body = Expr::let_(
            u.clone(),
            Expr::call_op("unique", vec![a.to_expr()], Attrs::new()),
            u.to_expr(),
        );
        let f = Function::new(vec![a], body, Type::Unknown);
        assert!(ShapeFuncKernel::from_primitive(&f, vec![DType::I64]).is_err());
    }

    #[test]
    fn mode_parsing() {
        assert_eq!(ShapeFuncMode::parse("shapes"), ShapeFuncMode::Shapes);
        assert_eq!(ShapeFuncMode::parse("data"), ShapeFuncMode::Data);
        assert_eq!(ShapeFuncMode::parse("bound"), ShapeFuncMode::Bound);
        assert_eq!(ShapeFuncMode::parse("junk"), ShapeFuncMode::Shapes);
    }
}
