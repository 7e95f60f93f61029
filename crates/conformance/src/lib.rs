//! # scidb-conformance
//!
//! Differential conformance harness: **one query, six engines,
//! byte-identical answers**.
//!
//! A seeded generator ([`gen`]) produces a random array schema (including
//! unbounded `*` dimensions and nested cells), random data (nulls,
//! uncertain values — all floats on an exact dyadic lattice), and a random
//! operator pipeline drawn from the [`optable`] covering
//! `scidb_core::ops::{structural, content}`. Each case executes through
//! six independent backends:
//!
//! 1. serial `ExecContext` ([`backends::run_serial`]),
//! 2. the parallel chunk engine ([`backends::run_parallel`]),
//! 3. a replicated grid cluster, optionally under a benign fault plan
//!    ([`backends::run_grid`]),
//! 4. a durable on-disk database — the input written through the buffer
//!    pool and WAL, re-opened from the log, and queried with the
//!    pipeline as one AQL statement ([`backends::run_durable`]),
//! 5. a remote engine behind the `scidb-server` wire protocol — the
//!    pipeline rendered to canonical AQL and executed over a loopback
//!    TCP connection ([`remote::run_remote`]),
//! 6. the relational baseline over `scidb_relational::array_sim`
//!    ([`rel::run_relational`]).
//!
//! Results are canonicalized ([`canon`]) and compared **byte for byte**.
//! On divergence the case auto-shrinks ([`shrink`]) to a minimal repro and
//! is emitted as replayable JSON ([`case`], [`json`]) for the pinned
//! corpus in `tests/conformance-corpus/`.

#![warn(missing_docs)]

pub mod backends;
pub mod canon;
pub mod case;
pub mod gen;
pub mod json;
pub mod optable;
pub mod rel;
pub mod remote;
pub mod shrink;

use backends::{run_durable, run_grid, run_parallel, run_serial, Perturb};
use canon::{canon_array, canon_table, cells_of_full, Canon};
use case::Case;
use rel::run_relational;
use remote::run_remote;
use scidb_core::registry::Registry;

/// One observed divergence between two backends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Name of the left backend (the reference is always `serial`).
    pub left: &'static str,
    /// Name of the diverging backend.
    pub right: &'static str,
    /// Canonical result (or error) of the left backend.
    pub left_canon: String,
    /// Canonical result (or error) of the right backend.
    pub right_canon: String,
}

impl Divergence {
    /// First differing line of the two canonical forms — a one-line
    /// summary for logs.
    pub fn first_diff(&self) -> String {
        let mut l = self.left_canon.lines();
        let mut r = self.right_canon.lines();
        loop {
            match (l.next(), r.next()) {
                (Some(a), Some(b)) if a == b => continue,
                (a, b) => {
                    return format!(
                        "{}: {:?} vs {}: {:?}",
                        self.left,
                        a.unwrap_or("<end>"),
                        self.right,
                        b.unwrap_or("<end>")
                    );
                }
            }
        }
    }
}

/// Outcome of running one case through all backends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// All comparable backends agreed byte-for-byte.
    Match {
        /// Whether the relational oracle participated (nested-attribute
        /// cases cannot be simulated relationally and compare 3-way).
        relational_compared: bool,
    },
    /// Two backends disagreed.
    Diverged(Divergence),
}

impl Outcome {
    /// True for [`Outcome::Match`].
    pub fn is_match(&self) -> bool {
        matches!(self, Outcome::Match { .. })
    }
}

/// The differential harness: runs cases through all six backends and
/// compares canonical forms.
pub struct Harness {
    registry: Registry,
    /// Kernel perturbation injected into the parallel backend — used by
    /// the shrinker demo and tests; [`Perturb::None`] in production.
    pub perturb: Perturb,
}

impl Default for Harness {
    fn default() -> Self {
        Harness::new()
    }
}

impl Harness {
    /// A production harness (no perturbation).
    pub fn new() -> Self {
        Harness {
            registry: Registry::with_builtins(),
            perturb: Perturb::None,
        }
    }

    /// A harness with an intentionally broken kernel, for shrinker tests.
    pub fn with_perturb(perturb: Perturb) -> Self {
        Harness {
            registry: Registry::with_builtins(),
            perturb,
        }
    }

    /// Runs `case` through every backend and compares canonical results.
    ///
    /// Error asymmetry counts as divergence (one engine failing where
    /// another succeeds); identical failure on all backends does not —
    /// error *messages* are not part of the conformance surface.
    pub fn run_case(&self, case: &Case) -> Outcome {
        let serial = run_serial(case, &self.registry).map(|a| canon_array(&a, Canon::Full));
        let parallel =
            run_parallel(case, &self.registry, self.perturb).map(|a| canon_array(&a, Canon::Full));
        let grid = run_grid(case, &self.registry).map(|a| canon_array(&a, Canon::Full));

        if let Some(d) = diff("serial", &serial, "parallel", &parallel) {
            return Outcome::Diverged(d);
        }
        if let Some(d) = diff("serial", &serial, "grid", &grid) {
            return Outcome::Diverged(d);
        }

        let durable = run_durable(case, &self.registry).map(|a| canon_array(&a, Canon::Full));
        if let Some(d) = diff("serial", &serial, "durable", &durable) {
            return Outcome::Diverged(d);
        }

        let remote = run_remote(case, &self.registry).map(|a| canon_array(&a, Canon::Full));
        if let Some(d) = diff("serial", &serial, "remote", &remote) {
            return Outcome::Diverged(d);
        }

        if case.has_nested() {
            return Outcome::Match {
                relational_compared: false,
            };
        }
        let rel = run_relational(case, &self.registry).map(|s| canon_table(&s.table, s.dims.len()));
        let serial_cells = serial.map(|full| cells_of_full(&full).to_string());
        if let Some(d) = diff("serial", &serial_cells, "relational", &rel) {
            return Outcome::Diverged(d);
        }
        Outcome::Match {
            relational_compared: true,
        }
    }

    /// Generates and runs the case for `seed`.
    pub fn run_seed(&self, seed: u64) -> (Case, Outcome) {
        let case = gen::generate(seed);
        let outcome = self.run_case(&case);
        (case, outcome)
    }

    /// True if the case still diverges — the shrinker predicate.
    pub fn diverges(&self, case: &Case) -> bool {
        !self.run_case(case).is_match()
    }

    /// Shrinks a diverging case to a minimal repro.
    pub fn shrink(&self, case: &Case) -> Case {
        shrink::shrink(case, &|c| self.diverges(c))
    }
}

fn diff(
    ln: &'static str,
    l: &Result<String, scidb_core::error::Error>,
    rn: &'static str,
    r: &Result<String, scidb_core::error::Error>,
) -> Option<Divergence> {
    match (l, r) {
        (Ok(a), Ok(b)) if a == b => None,
        // Identical failure everywhere is a broken *case*, not a broken
        // engine; the generator's validity gates make this rare.
        (Err(_), Err(_)) => None,
        (a, b) => Some(Divergence {
            left: ln,
            right: rn,
            left_canon: render(a),
            right_canon: render(b),
        }),
    }
}

fn render(r: &Result<String, scidb_core::error::Error>) -> String {
    match r {
        Ok(s) => s.clone(),
        Err(e) => format!("<error: {e}>"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_seeds_all_match() {
        let h = Harness::new();
        for seed in 1..=5 {
            let (case, outcome) = h.run_seed(seed);
            assert!(
                outcome.is_match(),
                "seed {seed} diverged: {:?} (case: {})",
                outcome,
                case.to_json()
            );
        }
    }

    #[test]
    fn perturbed_filter_is_caught_and_shrinks_small() {
        let h = Harness::with_perturb(Perturb::FilterBoundary);
        // Deterministically scan for a seed whose pipeline trips the
        // boundary bug (a Filter with >=/<= hit exactly on the literal).
        let seed = (1..2000)
            .find(|&s| !h.run_seed(s).1.is_match())
            .expect("no seed trips the perturbed filter kernel");
        let case = gen::generate(seed);
        let shrunk = h.shrink(&case);
        assert!(h.diverges(&shrunk));
        assert!(shrunk.ops.len() <= 3, "repro has {} ops", shrunk.ops.len());
        for d in &shrunk.dims {
            assert!(
                d.upper.unwrap_or(i64::MAX) <= 8,
                "repro dim '{}' larger than 8",
                d.name
            );
        }
        // And the production harness must accept the same case.
        assert!(!Harness::new().diverges(&shrunk));
    }
}
