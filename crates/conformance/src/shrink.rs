//! Divergence shrinking: reduce a failing case to a minimal repro.
//!
//! Three passes run to a global fixpoint, in the order the issue
//! prescribes: **drop ops** (suffix first, then any position), **shrink
//! dims** (halve bounded uppers, dropping out-of-range cells), **shrink
//! data** (remove cell blocks, then single cells, then null out individual
//! values). A candidate is accepted only if the caller's `still_fails`
//! check reproduces a divergence, so every accepted step preserves the
//! bug; candidates that merely make the pipeline error out are rejected by
//! that check (all backends failing identically is not a divergence).

use crate::case::{Case, CellValue};

/// Upper bound on candidate evaluations — each one runs six engines, so
/// this caps shrinking at a few seconds even for pathological cases.
const MAX_CHECKS: usize = 600;

struct Budget {
    left: usize,
}

impl Budget {
    fn spent(&mut self) -> bool {
        if self.left == 0 {
            return true;
        }
        self.left -= 1;
        false
    }
}

fn try_accept(
    current: &mut Case,
    candidate: Case,
    still_fails: &dyn Fn(&Case) -> bool,
    budget: &mut Budget,
) -> bool {
    if budget.spent() {
        return false;
    }
    if still_fails(&candidate) {
        *current = candidate;
        true
    } else {
        false
    }
}

fn shrink_ops(case: &mut Case, still_fails: &dyn Fn(&Case) -> bool, budget: &mut Budget) -> bool {
    let mut changed = false;
    loop {
        let mut step = false;
        for i in (0..case.ops.len()).rev() {
            if case.ops.len() <= 1 {
                break;
            }
            let mut cand = case.clone();
            cand.ops.remove(i);
            if try_accept(case, cand, still_fails, budget) {
                step = true;
                changed = true;
                break;
            }
        }
        if !step {
            return changed;
        }
    }
}

fn shrink_dims(case: &mut Case, still_fails: &dyn Fn(&Case) -> bool, budget: &mut Budget) -> bool {
    let mut changed = false;
    loop {
        let mut step = false;
        for i in 0..case.dims.len() {
            let shrunk_upper = match case.dims[i].upper {
                Some(u) if u > 1 => Some(u / 2),
                // Bound an unbounded dimension at its high-water mark first
                // (lossless — drops no cells); later rounds halve it.
                None => {
                    let hw = case
                        .cells
                        .iter()
                        .map(|(c, _)| c[i])
                        .max()
                        .unwrap_or(1)
                        .max(1);
                    Some(hw)
                }
                _ => continue,
            };
            let mut cand = case.clone();
            cand.dims[i].upper = shrunk_upper;
            let hi = shrunk_upper.expect("set above");
            cand.dims[i].chunk = cand.dims[i].chunk.min(hi);
            cand.cells.retain(|(coords, _)| coords[i] <= hi);
            if try_accept(case, cand, still_fails, budget) {
                step = true;
                changed = true;
            }
        }
        if !step {
            return changed;
        }
    }
}

fn shrink_data(case: &mut Case, still_fails: &dyn Fn(&Case) -> bool, budget: &mut Budget) -> bool {
    let mut changed = false;
    // Block removal: halves, quarters, …
    let mut block = case.cells.len() / 2;
    while block >= 1 {
        let mut start = 0;
        while start < case.cells.len() {
            let mut cand = case.clone();
            let end = (start + block).min(cand.cells.len());
            cand.cells.drain(start..end);
            if try_accept(case, cand, still_fails, budget) {
                changed = true;
                // Same start now holds the next block.
            } else {
                start += block;
            }
        }
        block /= 2;
    }
    // Value simplification: null out individual attribute values.
    for ci in 0..case.cells.len() {
        for ai in 0..case.attrs.len() {
            if case.cells[ci].1[ai] == CellValue::Null {
                continue;
            }
            let mut cand = case.clone();
            cand.cells[ci].1[ai] = CellValue::Null;
            if try_accept(case, cand, still_fails, budget) {
                changed = true;
            }
        }
    }
    changed
}

/// Shrinks `case` while `still_fails` keeps reproducing the divergence.
/// Returns the minimized case (the original if nothing could be removed).
pub fn shrink(case: &Case, still_fails: &dyn Fn(&Case) -> bool) -> Case {
    let mut current = case.clone();
    if !still_fails(&current) {
        return current;
    }
    let mut budget = Budget { left: MAX_CHECKS };
    loop {
        let mut changed = false;
        changed |= shrink_ops(&mut current, still_fails, &mut budget);
        changed |= shrink_dims(&mut current, still_fails, &mut budget);
        changed |= shrink_data(&mut current, still_fails, &mut budget);
        if !changed || budget.left == 0 {
            break;
        }
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;

    #[test]
    fn shrink_is_identity_when_nothing_fails() {
        let case = generate(1);
        let out = shrink(&case, &|_| false);
        assert_eq!(out, case);
    }

    #[test]
    fn shrink_drops_ops_and_cells_under_a_synthetic_failure() {
        let case = (1..)
            .map(generate)
            .find(|c| c.ops.len() > 1 && !c.cells.is_empty())
            .expect("some seed draws a case with something to shrink");
        // Synthetic invariant: "fails" as long as the case has at least
        // one op — everything else should shrink away.
        let out = shrink(&case, &|c| !c.ops.is_empty());
        assert_eq!(out.ops.len(), 1);
        assert!(out.cells.is_empty());
        assert!(out
            .dims
            .iter()
            .all(|d| d.upper.is_some() && d.upper.unwrap() <= 1));
    }
}
