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
use scidb_core::expr::Expr;
use scidb_core::geometry::HyperRect;
use scidb_core::ops::{self, AggInput, DimCond, DimPredicate};
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

impl<'a> Evaluator<'a> {
    /// Evaluates an (optimized) array expression as a child span of
    /// `parent`.
    pub(super) fn eval_node(&self, parent: &Span, expr: AExpr) -> Result<Array> {
        self.traced(parent, plan::node_name(&expr), |span| {
            self.eval_kernel(span, expr)
        })
    }

    /// Runs `f` inside a new child span `name` of `parent`, recording
    /// output chunk/cell counts (or the error).
    fn traced(
        &self,
        parent: &Span,
        name: &str,
        f: impl FnOnce(&Span) -> Result<Array>,
    ) -> Result<Array> {
        let span = parent.child(name, LAYER_QUERY);
        let result = f(&span);
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
                        self.read_disk(mgr, &full_domain(mgr.schema())?, span)
                    }
                }
            }
            AExpr::Subsample { input, pred } => {
                let pushed = self.disk_scan(&input).and_then(|(name, mgr, full)| {
                    let dp = pushable(&pred, mgr.schema())?;
                    let keep = dp.narrow_rect(mgr.schema(), &full);
                    Some((name, mgr, keep, dp))
                });
                let (input, dp) = match pushed {
                    Some((name, mgr, keep, dp)) => (self.pushed_scan(span, name, mgr, keep)?, dp),
                    None => {
                        let input = self.eval_node(span, *input)?;
                        (input, plan::expr_to_dim_predicate(&pred)?)
                    }
                };
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
                // Rank 1 and an unknown dimension keep the full read, so
                // `remove_dimension` raises their errors as before.
                let pushed = self.disk_scan(&input).and_then(|(name, mgr, full)| {
                    let d = mgr.schema().dim_index(&dim)?;
                    if mgr.schema().rank() == 1 {
                        return None;
                    }
                    let mut keep = full;
                    let inside = (keep.low[d]..=keep.high[d]).contains(&at);
                    (keep.low[d], keep.high[d]) = (at, at);
                    Some((name, mgr, inside.then_some(keep)))
                });
                let input = match pushed {
                    Some((name, mgr, keep)) => self.pushed_scan(span, name, mgr, keep)?,
                    None => self.eval_node(span, *input)?,
                };
                self.timed_serial(span, "slice", &input, || {
                    ops::remove_dimension(&input, &dim, at)
                })
            }
        }
    }

    /// The name, storage manager and full domain of `expr` when it scans
    /// an on-disk array: a read the structural operator directly above
    /// may narrow to the box it keeps.
    fn disk_scan<'e>(&self, expr: &'e AExpr) -> Option<(&'e str, &'a StorageManager, HyperRect)> {
        let AExpr::Scan(name) = expr else {
            return None;
        };
        if system::is_system_array(name) {
            return None;
        }
        // Anything else keeps the plain scan, which raises its error.
        let Ok(StoredArray::OnDisk(mgr)) = self.state.stored(name) else {
            return None;
        };
        let Ok(full) = full_domain(mgr.schema()) else {
            return None;
        };
        Some((name, mgr, full))
    }

    /// A scan of the on-disk array `name` that reads only `keep`, the box
    /// the operator above it keeps (`None`: no cell, so nothing is read).
    /// Its `scan` span says so with `pushed` and the `region` read.
    fn pushed_scan(
        &self,
        parent: &Span,
        name: &str,
        mgr: &StorageManager,
        keep: Option<HyperRect>,
    ) -> Result<Array> {
        self.traced(parent, "scan", |span| {
            span.set_attr("array", name);
            span.set_attr("region", keep.as_ref().map_or("empty".into(), render_rect));
            span.set_attr("pushed", true);
            match keep {
                Some(region) => self.read_disk(mgr, &region, span),
                None => Ok(Array::new(mgr.schema().clone())),
            }
        })
    }

    /// Reads `region` of an on-disk array under the statement's thread
    /// budget, as a `read_region` child of `span`.
    fn read_disk(&self, mgr: &StorageManager, region: &HyperRect, span: &Span) -> Result<Array> {
        let opts = if self.ctx.threads() == 1 {
            ReadOptions::serial()
        } else {
            ReadOptions::parallel_with(self.ctx.threads())
        };
        let (a, _stats) = mgr.read_region_traced(region, opts, span)?;
        Ok(a)
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

/// The lowered subsample predicate when a disk read may be narrowed by
/// it: it lowers, names only dimensions of `schema`, and calls no UDF (a
/// UDF may error on a cell the narrowed read would skip). `None` keeps the
/// full read, which raises every error in its order.
fn pushable(pred: &Expr, schema: &ArraySchema) -> Option<DimPredicate> {
    let Ok(dp) = plan::expr_to_dim_predicate(pred) else {
        return None;
    };
    let udf = dp.conds().iter().any(|(_, c)| matches!(c, DimCond::Fn(_)));
    (!udf && dp.validate(schema).is_ok()).then_some(dp)
}

/// `[lo..hi, …]`, the box a pushed scan reads.
fn render_rect(rect: &HyperRect) -> String {
    let sides: Vec<String> = (0..rect.rank())
        .map(|d| format!("{}..{}", rect.low[d], rect.high[d]))
        .collect();
    format!("[{}]", sides.join(", "))
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
