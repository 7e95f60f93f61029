//! The read-side evaluation engine: one catalog snapshot plus the
//! execution context a statement runs under, walked plan node by plan node
//! with a span per node.

use super::catalog::{CatalogState, StoredArray};
use super::{system, DbCore};
use crate::ast::{AExpr, AggArg};
use crate::plan;
use scidb_core::array::Array;
use scidb_core::error::{Error, Result};
use scidb_core::exec::ExecContext;
use scidb_core::geometry::HyperRect;
use scidb_core::ops::{self, AggInput};
use scidb_core::schema::ArraySchema;
use scidb_obs::{Span, LAYER_QUERY};
use scidb_storage::{ReadOptions, StorageManager};

/// A borrowed view over one catalog snapshot plus the execution context
/// the statement runs under — the read-side evaluation engine. The core
/// handle resolves `system.*` virtual arrays from live telemetry.
pub(super) struct Evaluator<'a> {
    pub(super) state: &'a CatalogState,
    pub(super) ctx: &'a ExecContext,
    pub(super) core: &'a DbCore,
}

impl Evaluator<'_> {
    /// Evaluates an (optimized) array expression as a child span of
    /// `parent`, recording output chunk/cell counts (or the error).
    pub(super) fn eval_node(&self, parent: &Span, expr: AExpr) -> Result<Array> {
        let span = parent.child(plan::node_name(&expr), LAYER_QUERY);
        let result = self.eval_kernel(&span, expr);
        match &result {
            Ok(a) => {
                span.set_attr("chunks_out", a.chunks().len() as u64);
                span.set_attr("cells_out", a.cell_count() as u64);
            }
            Err(e) => span.set_attr("error", e.to_string()),
        }
        span.finish();
        result
    }

    /// The operator dispatch for one plan node, inside its span. Kernel
    /// calls run with `span` installed as the context's current span, so
    /// [`ExecContext::record`] lands per-operator timing in the trace.
    fn eval_kernel(&self, span: &Span, expr: AExpr) -> Result<Array> {
        let registry = &self.state.registry;
        match expr {
            AExpr::Scan(name) => {
                span.set_attr("array", name.as_str());
                if let Some(built) = system::resolve(self.core, &name) {
                    // Virtual arrays are built from live telemetry, not
                    // storage; the attr excludes them from cells-scanned
                    // accounting.
                    span.set_attr("system", true);
                    return built;
                }
                match self.state.stored(&name)? {
                    StoredArray::Plain(a) => Ok(a.clone()),
                    StoredArray::Updatable(u) => Ok(u.array().clone()),
                    StoredArray::OnDisk(mgr) => {
                        let region = full_domain(mgr.schema())?;
                        let opts = if self.ctx.threads() == 1 {
                            ReadOptions::serial()
                        } else {
                            ReadOptions::parallel_with(self.ctx.threads())
                        };
                        let (a, _stats) = mgr.read_region_traced(&region, opts, span)?;
                        Ok(a)
                    }
                }
            }
            AExpr::Subsample { input, pred } => {
                let input = self.eval_node(span, *input)?;
                let dp = plan::expr_to_dim_predicate(&pred)?;
                self.with_kernel(span, || {
                    ops::subsample_with(&input, &dp, Some(registry), self.ctx)
                })
            }
            AExpr::Filter { input, pred } => {
                let input = self.eval_node(span, *input)?;
                let pred = plan::resolve_expr(&pred, input.schema())?;
                self.with_kernel(span, || {
                    ops::filter_with(&input, &pred, Some(registry), self.ctx)
                })
            }
            AExpr::Aggregate {
                input,
                group,
                agg,
                arg,
            } => {
                let input = self.eval_node(span, *input)?;
                let groups: Vec<&str> = group.iter().map(String::as_str).collect();
                let agg_input = match arg {
                    AggArg::Star => AggInput::Star,
                    AggArg::Attr(a) => AggInput::Attr(a),
                };
                self.with_kernel(span, || {
                    ops::aggregate_with(&input, &groups, &agg, agg_input, registry, self.ctx)
                })
            }
            AExpr::Sjoin { left, right, on } => {
                let left = self.eval_node(span, *left)?;
                let right = self.eval_node(span, *right)?;
                let pairs: Vec<(&str, &str)> =
                    on.iter().map(|(l, r)| (l.as_str(), r.as_str())).collect();
                let aligned =
                    ops::structural::sjoin_is_aligned(left.schema(), right.schema(), &pairs);
                span.set_attr("path", if aligned { "aligned" } else { "hash" });
                self.timed_serial(span, "sjoin", &left, || ops::sjoin(&left, &right, &pairs))
            }
            AExpr::Cjoin { left, right, pred } => {
                let left = self.eval_node(span, *left)?;
                let right = self.eval_node(span, *right)?;
                // Resolve the predicate against the combined schema by
                // dry-running the join on empty inputs.
                let probe = ops::cjoin(
                    &Array::from_arc(left.schema_arc()),
                    &Array::from_arc(right.schema_arc()),
                    &scidb_core::expr::Expr::lit(true),
                    None,
                )?;
                let pred = plan::resolve_expr(&pred, probe.schema())?;
                self.timed_serial(span, "cjoin", &left, || {
                    ops::cjoin(&left, &right, &pred, Some(registry))
                })
            }
            AExpr::Apply { input, name, expr } => {
                let input = self.eval_node(span, *input)?;
                let expr = plan::resolve_expr(&expr, input.schema())?;
                let ty = plan::infer_type(&expr, input.schema());
                self.with_kernel(span, || {
                    ops::apply_with(&input, &name, &expr, ty, Some(registry), self.ctx)
                })
            }
            AExpr::Project { input, attrs } => {
                let input = self.eval_node(span, *input)?;
                let keep: Vec<&str> = attrs.iter().map(String::as_str).collect();
                self.with_kernel(span, || ops::project_with(&input, &keep, self.ctx))
            }
            AExpr::Reshape {
                input,
                order,
                new_dims,
            } => {
                let input = self.eval_node(span, *input)?;
                let order: Vec<&str> = order.iter().map(String::as_str).collect();
                self.timed_serial(span, "reshape", &input, || {
                    ops::reshape(&input, &order, &new_dims)
                })
            }
            AExpr::Regrid {
                input,
                factors,
                agg,
            } => {
                let input = self.eval_node(span, *input)?;
                self.with_kernel(span, || {
                    ops::regrid_with(&input, &factors, &agg, registry, self.ctx)
                })
            }
            AExpr::Concat { left, right, dim } => {
                let left = self.eval_node(span, *left)?;
                let right = self.eval_node(span, *right)?;
                self.timed_serial(span, "concat", &left, || ops::concat(&left, &right, &dim))
            }
            AExpr::Cross { left, right } => {
                let left = self.eval_node(span, *left)?;
                let right = self.eval_node(span, *right)?;
                self.timed_serial(span, "cross", &left, || ops::cross_product(&left, &right))
            }
            AExpr::AddDim { input, name } => {
                let input = self.eval_node(span, *input)?;
                self.timed_serial(span, "add_dim", &input, || {
                    ops::add_dimension(&input, &name)
                })
            }
            AExpr::Slice { input, dim, at } => {
                let input = self.eval_node(span, *input)?;
                self.timed_serial(span, "slice", &input, || {
                    ops::remove_dimension(&input, &dim, at)
                })
            }
        }
    }

    /// Runs `f` with `span` installed as the context's current kernel span,
    /// restoring the previous one on return.
    fn with_kernel<R>(&self, span: &Span, f: impl FnOnce() -> Result<R>) -> Result<R> {
        let prev = self.ctx.set_current_span(Some(span.clone()));
        let out = f();
        self.ctx.set_current_span(prev);
        out
    }

    /// Times a serial (non-chunk-parallel) operator through the context's
    /// single timing path ([`ExecContext::timed`]), charging the primary
    /// input's chunk and cell counts.
    fn timed_serial<R>(
        &self,
        span: &Span,
        op: &str,
        input: &Array,
        f: impl FnOnce() -> Result<R>,
    ) -> Result<R> {
        let chunks = input.chunks().len() as u64;
        let cells = input.cell_count() as u64;
        self.with_kernel(span, || {
            self.ctx.timed(op, || f().map(|r| (r, chunks, cells)))
        })
    }
}

/// Single-cell probe against a disk-backed array: out-of-domain coords
/// are simply absent; in-domain coords cost one serial region read.
pub(super) fn exists_on_disk(mgr: &StorageManager, coords: &[i64], span: &Span) -> Result<bool> {
    if !full_domain(mgr.schema())?.contains(coords) {
        return Ok(false);
    }
    let cell = HyperRect::new(coords.to_vec(), coords.to_vec())?;
    let (a, _stats) = mgr.read_region_traced(&cell, ReadOptions::serial(), span)?;
    Ok(a.cell_count() > 0)
}

/// The full (1-based) stored domain of a disk-backed schema; errors on
/// unbounded dimensions (rejected at `put_array_on_disk` time).
fn full_domain(schema: &ArraySchema) -> Result<HyperRect> {
    let mut low = Vec::with_capacity(schema.rank());
    let mut high = Vec::with_capacity(schema.rank());
    for d in schema.dims() {
        let upper = d.upper.ok_or_else(|| {
            Error::Unsupported(format!("scan of unbounded on-disk dimension '{}'", d.name))
        })?;
        low.push(1);
        high.push(upper);
    }
    HyperRect::new(low, high)
}
