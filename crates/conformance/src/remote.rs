//! The fifth backend: a remote engine behind the `scidb-server` wire
//! protocol.
//!
//! One loopback [`Server`] (lazily started, shared by every case in the
//! process) hosts a [`scidb_query::Database`]. Each case uploads its
//! input array under a process-unique name via `PutArray`, translates its
//! [`OpSpec`] pipeline into the query layer's [`AExpr`] algebra, renders
//! the tree to canonical AQL, and executes it over TCP. The bytes that
//! come back travel through the full stack — parser, planner (including
//! `plan::optimize` rewrites), parallel executor, wire codec — and must
//! still be byte-identical to the serial reference.
//!
//! Ops whose AQL form depends on the *intermediate* schema (`sjoin` needs
//! the dimension names at that point in the pipeline, `reshape` the bounds
//! and dimension order) consult a client-side **shadow**: the serial
//! evaluation of the pipeline prefix. The shadow is exactly
//! [`run_ops`], so whenever it fails the serial backend fails identically
//! and the harness treats the symmetric error as a match.

use crate::backends::{run_ops, Perturb};
use crate::case::{Case, Cmp, OpSpec};
use scidb_core::array::Array;
use scidb_core::error::{Error, Result};
use scidb_core::exec::ExecContext;
use scidb_core::expr::Expr;
use scidb_core::registry::Registry;
use scidb_query::{AExpr, AggArg, Database};
use scidb_server::{Client, Server, ServerConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// The shared loopback server plus a counter minting unique array names.
struct RemoteEngine {
    server: Server,
    next_name: AtomicU64,
}

fn engine() -> Option<&'static RemoteEngine> {
    static ENGINE: OnceLock<Option<RemoteEngine>> = OnceLock::new();
    ENGINE
        .get_or_init(|| {
            Server::start(Database::with_threads(2), ServerConfig::default())
                .ok()
                .map(|server| RemoteEngine {
                    server,
                    next_name: AtomicU64::new(0),
                })
        })
        .as_ref()
}

fn cmp_pred(attr: &str, cmp: Cmp, lit: f64) -> Expr {
    let a = Expr::attr(attr);
    let l = Expr::lit(lit);
    match cmp {
        Cmp::Gt => a.gt(l),
        Cmp::Lt => a.lt(l),
        Cmp::Ge => a.ge(l),
        Cmp::Le => a.le(l),
    }
}

/// Translates one pipeline step into the algebra node wrapping `input`,
/// consulting `shadow` (the serially evaluated pipeline prefix) where the
/// AQL form depends on the intermediate schema.
fn translate(op: &OpSpec, shadow: &Array, input: AExpr) -> Result<AExpr> {
    Ok(match op {
        OpSpec::Subsample { dim, lo, hi } => AExpr::Subsample {
            input: Box::new(input),
            pred: Expr::dim(dim.clone())
                .ge(Expr::lit(*lo))
                .and(Expr::dim(dim.clone()).le(Expr::lit(*hi))),
        },
        OpSpec::Filter { attr, cmp, lit } => AExpr::Filter {
            input: Box::new(input),
            pred: cmp_pred(attr, *cmp, *lit),
        },
        OpSpec::Apply { new, src, mul, add } => AExpr::Apply {
            input: Box::new(input),
            name: new.clone(),
            expr: Expr::attr(src.clone())
                .mul(Expr::lit(*mul))
                .add(Expr::lit(*add)),
        },
        OpSpec::Project { keep } => AExpr::Project {
            input: Box::new(input),
            attrs: keep.clone(),
        },
        OpSpec::Aggregate { dims, agg, attr } => AExpr::Aggregate {
            input: Box::new(input),
            group: dims.clone(),
            agg: agg.clone(),
            arg: AggArg::Attr(attr.clone()),
        },
        OpSpec::Regrid { factors, agg } => AExpr::Regrid {
            input: Box::new(input),
            factors: factors.clone(),
            agg: agg.clone(),
        },
        OpSpec::Sjoin => {
            let on = shadow
                .schema()
                .dims()
                .iter()
                .map(|d| (d.name.clone(), d.name.clone()))
                .collect();
            AExpr::Sjoin {
                left: Box::new(input.clone()),
                right: Box::new(input),
                on,
            }
        }
        OpSpec::Cjoin { attr, cmp, lit } => AExpr::Cjoin {
            left: Box::new(input.clone()),
            right: Box::new(input),
            pred: cmp_pred(attr, *cmp, *lit),
        },
        OpSpec::Concat { dim } => AExpr::Concat {
            left: Box::new(input.clone()),
            right: Box::new(input),
            dim: dim.clone(),
        },
        OpSpec::Reshape => {
            let rect = shadow
                .rect()
                .ok_or_else(|| Error::dimension("reshape requires a fully bounded array"))?;
            let volume = rect.volume() as i64;
            let order: Vec<String> = shadow
                .schema()
                .dims()
                .iter()
                .rev()
                .map(|d| d.name.clone())
                .collect();
            AExpr::Reshape {
                input: Box::new(input),
                order,
                new_dims: vec![("z".to_string(), volume.max(1))],
            }
        }
    })
}

/// Remote backend: uploads the case input over the wire, executes the
/// pipeline as one canonical-AQL statement against the shared loopback
/// server, and returns the answer the wire carried back.
pub fn run_remote(case: &Case, registry: &Registry) -> Result<Array> {
    let engine =
        engine().ok_or_else(|| Error::eval("remote backend: loopback server failed to start"))?;
    let input = case.build_input()?;
    let name = format!(
        "conf_remote_{}",
        engine.next_name.fetch_add(1, Ordering::Relaxed)
    );
    // The generator and harness must never address the engine's reserved
    // virtual-array namespace: those arrays are live telemetry, so a case
    // built over them could not replay deterministically.
    debug_assert!(!scidb_query::is_system_array(&name));
    let mut client = Client::connect(engine.server.addr(), "")?;
    client.put_array(&name, &input)?;

    let ctx = ExecContext::serial();
    let mut shadow = input;
    let mut aexpr = AExpr::Scan(name);
    for op in &case.ops {
        aexpr = translate(op, &shadow, aexpr)?;
        shadow = run_ops(
            &shadow,
            std::slice::from_ref(op),
            &ctx,
            registry,
            Perturb::None,
        )?;
    }
    client.query(&aexpr.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canon::{canon_array, Canon};
    use crate::gen::generate;

    #[test]
    fn remote_matches_serial_on_a_sample_of_seeds() {
        let registry = Registry::with_builtins();
        for seed in 0..20 {
            let case = generate(seed);
            let s = crate::backends::run_serial(&case, &registry).unwrap();
            let r = run_remote(&case, &registry).unwrap();
            assert_eq!(
                canon_array(&s, Canon::Full),
                canon_array(&r, Canon::Full),
                "seed {seed}: AQL round-trip over the wire must be byte-identical"
            );
        }
    }

    #[test]
    fn remote_rendering_survives_schema_dependent_ops() {
        // A hand-written pipeline that exercises every shadow-consulting
        // translation: sjoin (intermediate dims), reshape (bounds), and
        // negative literals that must re-lex from the rendered AQL.
        let registry = Registry::with_builtins();
        let mut case = generate(1);
        case.ops = vec![
            OpSpec::Filter {
                attr: case.attrs[0].name.clone(),
                cmp: Cmp::Ge,
                lit: -2.5,
            },
            OpSpec::Sjoin,
            OpSpec::Reshape,
        ];
        let s = crate::backends::run_serial(&case, &registry);
        let r = run_remote(&case, &registry);
        match (s, r) {
            (Ok(s), Ok(r)) => {
                assert_eq!(canon_array(&s, Canon::Full), canon_array(&r, Canon::Full));
            }
            (Err(_), Err(_)) => {}
            (s, r) => panic!("asymmetric outcome: serial {s:?} vs remote {r:?}"),
        }
    }
}
