//! Named versions (§2.11).
//!
//! "At a specific time T, a user will be able to construct a version V from
//! a base array A … Since V is stored as a delta off its parent A, it
//! consumes essentially no space, and the new array is empty. Thereafter,
//! any modifications to V go into this array. … When the SciDB execution
//! engine desires a value of a cell in V, it will first look in the delta
//! array for V for the most recent value along the history dimension. If
//! there is no value in V, it will then look \[in\] A. In turn, if A is a
//! version, it will repeat this process until it reaches a base array. In
//! general, hanging off any base array is a tree of named versions."
//!
//! A version snapshots its parent *as of the parent's history value at
//! creation time* (the paper's "at time T, the version V is identical to
//! A"), so later base updates do not leak into existing versions.

use crate::error::{Error, Result};
use crate::history::{Lookup, Transaction, UpdatableArray};
use crate::schema::ArraySchema;
use crate::value::Record;
use std::collections::HashMap;

/// One named version: a delta array hanging off a parent.
#[derive(Debug)]
struct Version {
    /// `None` = parent is the base array.
    parent: Option<String>,
    /// Parent's history value when this version was created (the paper's
    /// time T).
    parent_history: i64,
    /// The delta array: "the new array is empty" at creation.
    delta: UpdatableArray,
}

/// A base array plus its tree of named versions.
#[derive(Debug)]
pub struct VersionTree {
    base: UpdatableArray,
    versions: HashMap<String, Version>,
}

impl VersionTree {
    /// Creates a tree around an empty base array.
    pub fn new(schema: ArraySchema) -> Result<Self> {
        Ok(VersionTree {
            base: UpdatableArray::new(schema)?,
            versions: HashMap::new(),
        })
    }

    /// Wraps an existing base array.
    pub fn from_base(base: UpdatableArray) -> Self {
        VersionTree {
            base,
            versions: HashMap::new(),
        }
    }

    /// The base array.
    pub fn base(&self) -> &UpdatableArray {
        &self.base
    }

    /// Mutable base array (for loading / updating the base).
    pub fn base_mut(&mut self) -> &mut UpdatableArray {
        &mut self.base
    }

    /// Creates version `name` off `parent` (`None` = the base array). The
    /// new version is an empty delta; it reads identically to its parent at
    /// this moment.
    pub fn create_version(&mut self, name: &str, parent: Option<&str>) -> Result<()> {
        if self.versions.contains_key(name) {
            return Err(Error::AlreadyExists(format!("version '{name}'")));
        }
        let parent_history = match parent {
            None => self.base.current_history(),
            Some(p) => self
                .versions
                .get(p)
                .ok_or_else(|| Error::not_found(format!("version '{p}'")))?
                .delta
                .current_history(),
        };
        let schema = self
            .base
            .array()
            .schema()
            .renamed(format!("{}:{name}", self.base.array().schema().name()));
        self.versions.insert(
            name.to_string(),
            Version {
                parent: parent.map(str::to_string),
                parent_history,
                delta: UpdatableArray::new(schema)?,
            },
        );
        Ok(())
    }

    /// Names of all versions (unordered).
    pub fn version_names(&self) -> Vec<&str> {
        self.versions.keys().map(String::as_str).collect()
    }

    /// The parent of a version (`None` = base).
    pub fn parent_of(&self, name: &str) -> Result<Option<&str>> {
        Ok(self
            .versions
            .get(name)
            .ok_or_else(|| Error::not_found(format!("version '{name}'")))?
            .parent
            .as_deref())
    }

    /// Commits a transaction into version `name`'s delta array.
    pub fn commit(&mut self, name: &str, txn: Transaction) -> Result<i64> {
        let v = self
            .versions
            .get_mut(name)
            .ok_or_else(|| Error::not_found(format!("version '{name}'")))?;
        v.delta.commit(txn)
    }

    /// Reads a cell through version `name`'s delta chain down to the base
    /// array — the paper's resolution algorithm.
    pub fn get(&self, name: &str, coords: &[i64]) -> Result<Option<Record>> {
        let mut cursor: Option<&str> = Some(name);
        let mut history_cap = i64::MAX;
        while let Some(n) = cursor {
            let v = self
                .versions
                .get(n)
                .ok_or_else(|| Error::not_found(format!("version '{n}'")))?;
            match v.delta.lookup_at(coords, history_cap) {
                Lookup::Value(r) => return Ok(Some(r)),
                Lookup::Deleted => return Ok(None),
                Lookup::Missing => {}
            }
            history_cap = v.parent_history;
            cursor = v.parent.as_deref();
        }
        // Reached the base array, capped at the branch-point history.
        Ok(self.base.lookup_at(coords, history_cap).into_option())
    }

    /// Reads a cell from the base array at its latest history.
    pub fn get_base(&self, coords: &[i64]) -> Option<Record> {
        self.base.get_latest(coords)
    }

    /// Depth of the delta chain from `name` to the base.
    pub fn chain_depth(&self, name: &str) -> Result<usize> {
        let mut depth = 0;
        let mut cursor = Some(name);
        while let Some(n) = cursor {
            let v = self
                .versions
                .get(n)
                .ok_or_else(|| Error::not_found(format!("version '{n}'")))?;
            depth += 1;
            cursor = v.parent.as_deref();
        }
        Ok(depth)
    }

    /// Bytes consumed by one version's delta — the §2.11 "essentially no
    /// space" claim measured by experiment E5.
    pub fn delta_bytes(&self, name: &str) -> Result<usize> {
        Ok(self
            .versions
            .get(name)
            .ok_or_else(|| Error::not_found(format!("version '{name}'")))?
            .delta
            .byte_size())
    }

    /// Number of delta cells recorded by one version.
    pub fn delta_cells(&self, name: &str) -> Result<usize> {
        Ok(self
            .versions
            .get(name)
            .ok_or_else(|| Error::not_found(format!("version '{name}'")))?
            .delta
            .delta_count())
    }

    /// Total bytes: base plus all deltas.
    pub fn total_bytes(&self) -> usize {
        self.base.byte_size()
            + self
                .versions
                .values()
                .map(|v| v.delta.byte_size())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaBuilder;
    use crate::value::{record, ScalarType, Value};

    fn tree() -> VersionTree {
        let schema = SchemaBuilder::new("Sat")
            .attr("v", ScalarType::Float64)
            .dim("I", 8)
            .dim("J", 8)
            .build()
            .unwrap();
        let mut t = VersionTree::new(schema).unwrap();
        // Base load: v = I*10 + J.
        let mut txn = Transaction::new();
        for i in 1..=8i64 {
            for j in 1..=8i64 {
                txn.put(&[i, j], record([Value::from((i * 10 + j) as f64)]));
            }
        }
        t.base_mut().commit(txn).unwrap();
        t
    }

    #[test]
    fn fresh_version_reads_identical_to_parent() {
        let mut t = tree();
        t.create_version("study", None).unwrap();
        assert_eq!(
            t.get("study", &[3, 4]).unwrap(),
            Some(vec![Value::from(34.0)])
        );
        // "the new array is empty": zero delta cells.
        assert_eq!(t.delta_cells("study").unwrap(), 0);
    }

    #[test]
    fn version_modifications_do_not_touch_base() {
        let mut t = tree();
        t.create_version("study", None).unwrap();
        let mut txn = Transaction::new();
        txn.put(&[3, 4], record([Value::from(999.0)]));
        t.commit("study", txn).unwrap();
        assert_eq!(
            t.get("study", &[3, 4]).unwrap(),
            Some(vec![Value::from(999.0)])
        );
        assert_eq!(t.get_base(&[3, 4]), Some(vec![Value::from(34.0)]));
        // Unmodified cells still read through to base.
        assert_eq!(
            t.get("study", &[1, 1]).unwrap(),
            Some(vec![Value::from(11.0)])
        );
    }

    #[test]
    fn version_snapshot_isolated_from_later_base_updates() {
        let mut t = tree();
        t.create_version("study", None).unwrap();
        // Base moves on after the version was created.
        t.base_mut()
            .commit_put(&[1, 1], record([Value::from(-1.0)]))
            .unwrap();
        // The version still sees the time-T value.
        assert_eq!(
            t.get("study", &[1, 1]).unwrap(),
            Some(vec![Value::from(11.0)])
        );
        assert_eq!(t.get_base(&[1, 1]), Some(vec![Value::from(-1.0)]));
    }

    #[test]
    fn version_tree_chains() {
        let mut t = tree();
        t.create_version("a", None).unwrap();
        let mut txn = Transaction::new();
        txn.put(&[1, 1], record([Value::from(100.0)]));
        t.commit("a", txn).unwrap();
        t.create_version("b", Some("a")).unwrap();
        let mut txn = Transaction::new();
        txn.put(&[2, 2], record([Value::from(200.0)]));
        t.commit("b", txn).unwrap();

        // b sees its own delta, a's delta, and the base, in that order.
        assert_eq!(t.get("b", &[2, 2]).unwrap(), Some(vec![Value::from(200.0)]));
        assert_eq!(t.get("b", &[1, 1]).unwrap(), Some(vec![Value::from(100.0)]));
        assert_eq!(t.get("b", &[5, 5]).unwrap(), Some(vec![Value::from(55.0)]));
        // a does not see b's delta.
        assert_eq!(t.get("a", &[2, 2]).unwrap(), Some(vec![Value::from(22.0)]));
        assert_eq!(t.chain_depth("b").unwrap(), 2);
        assert_eq!(t.parent_of("b").unwrap(), Some("a"));
        assert_eq!(t.parent_of("a").unwrap(), None);
    }

    #[test]
    fn sibling_versions_are_independent() {
        let mut t = tree();
        t.create_version("x", None).unwrap();
        t.create_version("y", None).unwrap();
        let mut txn = Transaction::new();
        txn.put(&[1, 1], record([Value::from(-5.0)]));
        t.commit("x", txn).unwrap();
        assert_eq!(t.get("y", &[1, 1]).unwrap(), Some(vec![Value::from(11.0)]));
    }

    #[test]
    fn deletes_in_versions_mask_parent() {
        let mut t = tree();
        t.create_version("v", None).unwrap();
        let mut txn = Transaction::new();
        txn.delete(&[1, 1]);
        t.commit("v", txn).unwrap();
        assert_eq!(t.get("v", &[1, 1]).unwrap(), None);
        assert!(t.get_base(&[1, 1]).is_some());
    }

    #[test]
    fn duplicate_and_missing_names_rejected() {
        let mut t = tree();
        t.create_version("v", None).unwrap();
        assert!(t.create_version("v", None).is_err());
        assert!(t.create_version("w", Some("nope")).is_err());
        assert!(t.get("nope", &[1, 1]).is_err());
        assert!(t.parent_of("nope").is_err());
    }

    #[test]
    fn delta_space_is_proportional_to_modifications() {
        let mut t = tree();
        t.create_version("small", None).unwrap();
        let mut txn = Transaction::new();
        txn.put(&[1, 1], record([Value::from(0.0)]));
        t.commit("small", txn).unwrap();
        let small = t.delta_bytes("small").unwrap();
        let base = t.base().byte_size();
        // One modified cell out of 64: the delta is far smaller than the
        // base (E5's "essentially no space").
        assert!(small * 4 < base, "delta {small} bytes vs base {base} bytes");
    }
}
