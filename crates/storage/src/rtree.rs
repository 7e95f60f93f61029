//! An R-tree over hyper-rectangles (§2.8: "An R-tree keeps track of the
//! size of the various buckets"), after Guttman with quadratic split.
//!
//! Generic over the payload so the grid crate can reuse it for partition
//! lookup. Degree is fixed at `MAX_ENTRIES = 8` (min 4 on split), plenty
//! for bucket counts in the thousands while keeping nodes cache-friendly.

use scidb_core::geometry::HyperRect;

const MAX_ENTRIES: usize = 8;
const MIN_ENTRIES: usize = 4;

#[derive(Debug, Clone)]
enum Node<T> {
    Leaf(Vec<(HyperRect, T)>),
    Inner(Vec<(HyperRect, Box<Node<T>>)>),
}

/// An R-tree mapping hyper-rectangles to payloads.
#[derive(Debug, Clone)]
pub struct RTree<T> {
    root: Node<T>,
    len: usize,
}

impl<T: Clone> Default for RTree<T> {
    fn default() -> Self {
        RTree::new()
    }
}

fn area(r: &HyperRect) -> f64 {
    (0..r.rank()).map(|d| r.len(d) as f64).product()
}

fn enlargement(r: &HyperRect, add: &HyperRect) -> f64 {
    area(&r.union(add)) - area(r)
}

impl<T: Clone> RTree<T> {
    /// Creates an empty tree.
    pub fn new() -> Self {
        RTree {
            root: Node::Leaf(Vec::new()),
            len: 0,
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts an entry.
    pub fn insert(&mut self, rect: HyperRect, value: T) {
        if let Some((r1, n1, r2, n2)) = Self::insert_into(&mut self.root, rect, value) {
            // Root split: grow the tree by one level.
            self.root = Node::Inner(vec![(r1, Box::new(n1)), (r2, Box::new(n2))]);
        }
        self.len += 1;
    }

    /// All entries whose rectangle intersects `query`.
    pub fn search(&self, query: &HyperRect) -> Vec<&T> {
        let mut out = Vec::new();
        Self::search_node(&self.root, query, &mut out);
        out
    }

    /// All `(rect, value)` entries intersecting `query`.
    pub fn search_entries(&self, query: &HyperRect) -> Vec<(&HyperRect, &T)> {
        let mut out = Vec::new();
        Self::search_entries_node(&self.root, query, &mut out);
        out
    }

    /// Removes entries matching `pred` within `query`; returns removed
    /// payloads. (Simple implementation: collect survivors and rebuild —
    /// removal happens only during background merges, which are rare and
    /// bulk.)
    pub fn remove_where(&mut self, query: &HyperRect, pred: impl Fn(&T) -> bool) -> Vec<T> {
        let mut all: Vec<(HyperRect, T)> = Vec::with_capacity(self.len);
        Self::drain_node(
            std::mem::replace(&mut self.root, Node::Leaf(Vec::new())),
            &mut all,
        );
        let mut removed = Vec::new();
        let mut kept = Vec::new();
        for (rect, value) in all {
            if rect.intersects(query) && pred(&value) {
                removed.push(value);
            } else {
                kept.push((rect, value));
            }
        }
        self.len = 0;
        for (rect, value) in kept {
            self.insert(rect, value);
        }
        removed
    }

    /// Iterates all entries.
    pub fn iter(&self) -> Vec<(&HyperRect, &T)> {
        let mut out = Vec::with_capacity(self.len);
        Self::collect_node(&self.root, &mut out);
        out
    }

    fn drain_node(node: Node<T>, out: &mut Vec<(HyperRect, T)>) {
        match node {
            Node::Leaf(entries) => out.extend(entries),
            Node::Inner(children) => {
                for (_, child) in children {
                    Self::drain_node(*child, out);
                }
            }
        }
    }

    fn collect_node<'a>(node: &'a Node<T>, out: &mut Vec<(&'a HyperRect, &'a T)>) {
        match node {
            Node::Leaf(entries) => out.extend(entries.iter().map(|(r, v)| (r, v))),
            Node::Inner(children) => {
                for (_, child) in children {
                    Self::collect_node(child, out);
                }
            }
        }
    }

    fn search_node<'a>(node: &'a Node<T>, query: &HyperRect, out: &mut Vec<&'a T>) {
        match node {
            Node::Leaf(entries) => {
                out.extend(
                    entries
                        .iter()
                        .filter(|(r, _)| r.intersects(query))
                        .map(|(_, v)| v),
                );
            }
            Node::Inner(children) => {
                for (r, child) in children {
                    if r.intersects(query) {
                        Self::search_node(child, query, out);
                    }
                }
            }
        }
    }

    fn search_entries_node<'a>(
        node: &'a Node<T>,
        query: &HyperRect,
        out: &mut Vec<(&'a HyperRect, &'a T)>,
    ) {
        match node {
            Node::Leaf(entries) => {
                out.extend(
                    entries
                        .iter()
                        .filter(|(r, _)| r.intersects(query))
                        .map(|(r, v)| (r, v)),
                );
            }
            Node::Inner(children) => {
                for (r, child) in children {
                    if r.intersects(query) {
                        Self::search_entries_node(child, query, out);
                    }
                }
            }
        }
    }

    /// Recursive insert; returns `Some((rect1, node1, rect2, node2))` when
    /// the node split.
    fn insert_into(
        node: &mut Node<T>,
        rect: HyperRect,
        value: T,
    ) -> Option<(HyperRect, Node<T>, HyperRect, Node<T>)> {
        match node {
            Node::Leaf(entries) => {
                entries.push((rect, value));
                if entries.len() <= MAX_ENTRIES {
                    return None;
                }
                let (left, right) = quadratic_split(std::mem::take(entries));
                let (lr, rr) = (mbr(&left), mbr(&right));
                Some((lr, Node::Leaf(left), rr, Node::Leaf(right)))
            }
            Node::Inner(children) => {
                // Choose the child needing least enlargement, the first
                // on a tie. Splits leave every inner node a child at 0.
                let cmp = |i: usize, j: usize| {
                    let ei = enlargement(&children[i].0, &rect);
                    let ej = enlargement(&children[j].0, &rect);
                    ei.partial_cmp(&ej)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then_with(|| {
                            area(&children[i].0)
                                .partial_cmp(&area(&children[j].0))
                                .unwrap_or(std::cmp::Ordering::Equal)
                        })
                };
                let best =
                    (1..children.len()).fold(0, |b, i| if cmp(b, i).is_gt() { i } else { b });
                children[best].0 = children[best].0.union(&rect);
                if let Some((r1, n1, r2, n2)) =
                    Self::insert_into(&mut children[best].1, rect, value)
                {
                    children[best] = (r1, Box::new(n1));
                    children.push((r2, Box::new(n2)));
                    if children.len() > MAX_ENTRIES {
                        let (left, right) = quadratic_split(std::mem::take(children));
                        let (lr, rr) = (mbr_inner(&left), mbr_inner(&right));
                        return Some((lr, Node::Inner(left), rr, Node::Inner(right)));
                    }
                }
                None
            }
        }
    }
}

fn mbr<T>(entries: &[(HyperRect, T)]) -> HyperRect {
    entries
        .iter()
        .skip(1)
        .fold(entries[0].0.clone(), |acc, (r, _)| acc.union(r))
}

fn mbr_inner<T>(entries: &[(HyperRect, Box<Node<T>>)]) -> HyperRect {
    entries
        .iter()
        .skip(1)
        .fold(entries[0].0.clone(), |acc, (r, _)| acc.union(r))
}

/// One side of a quadratic split: entries with their bounding rects.
type SplitSide<E> = Vec<(HyperRect, E)>;

/// Guttman's quadratic split over arbitrary entry payloads.
fn quadratic_split<E>(mut entries: Vec<(HyperRect, E)>) -> (SplitSide<E>, SplitSide<E>) {
    // Pick the pair wasting the most area together as seeds.
    let (mut s1, mut s2, mut worst) = (0, 1, f64::NEG_INFINITY);
    for i in 0..entries.len() {
        for j in i + 1..entries.len() {
            let d = area(&entries[i].0.union(&entries[j].0))
                - area(&entries[i].0)
                - area(&entries[j].0);
            if d > worst {
                worst = d;
                s1 = i;
                s2 = j;
            }
        }
    }
    // Remove higher index first.
    let e2 = entries.remove(s2);
    let e1 = entries.remove(s1);
    let mut left = vec![e1];
    let mut right = vec![e2];
    let (mut lrect, mut rrect) = (left[0].0.clone(), right[0].0.clone());

    while let Some(entry) = entries.pop() {
        let remaining = entries.len();
        // Force assignment to honour minimum fill.
        if left.len() + remaining < MIN_ENTRIES {
            lrect = lrect.union(&entry.0);
            left.push(entry);
            continue;
        }
        if right.len() + remaining < MIN_ENTRIES {
            rrect = rrect.union(&entry.0);
            right.push(entry);
            continue;
        }
        let dl = area(&lrect.union(&entry.0)) - area(&lrect);
        let dr = area(&rrect.union(&entry.0)) - area(&rrect);
        if dl <= dr {
            lrect = lrect.union(&entry.0);
            left.push(entry);
        } else {
            rrect = rrect.union(&entry.0);
            right.push(entry);
        }
    }
    (left, right)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(low: &[i64], high: &[i64]) -> HyperRect {
        HyperRect::new(low.to_vec(), high.to_vec()).unwrap()
    }

    fn cell(x: i64, y: i64) -> HyperRect {
        r(&[x, y], &[x, y])
    }

    #[test]
    fn insert_and_search_small() {
        let mut t = RTree::new();
        t.insert(r(&[1, 1], &[4, 4]), "a");
        t.insert(r(&[10, 10], &[12, 12]), "b");
        assert_eq!(t.len(), 2);
        let hits = t.search(&r(&[3, 3], &[5, 5]));
        assert_eq!(hits, vec![&"a"]);
        let hits = t.search(&r(&[4, 4], &[11, 11]));
        assert_eq!(hits.len(), 2);
        assert!(t.search(&r(&[100, 100], &[101, 101])).is_empty());
    }

    #[test]
    fn grows_past_node_capacity_and_finds_everything() {
        let mut t = RTree::new();
        let n = 40i64;
        for x in 1..=n {
            for y in 1..=n {
                t.insert(cell(x, y), (x, y));
            }
        }
        assert_eq!(t.len(), (n * n) as usize);
        // Point query.
        let hits = t.search(&cell(17, 23));
        assert_eq!(hits, vec![&(17, 23)]);
        // Range query.
        let hits = t.search(&r(&[1, 1], &[5, 5]));
        assert_eq!(hits.len(), 25);
        // Full scan.
        assert_eq!(t.search(&r(&[1, 1], &[n, n])).len(), (n * n) as usize);
    }

    #[test]
    fn search_entries_returns_rects() {
        let mut t = RTree::new();
        t.insert(r(&[1], &[10]), 1u32);
        t.insert(r(&[5], &[20]), 2u32);
        let entries = t.search_entries(&r(&[6], &[7]));
        assert_eq!(entries.len(), 2);
        assert!(entries.iter().any(|(rect, _)| rect.high[0] == 10));
    }

    #[test]
    fn remove_where_prunes_matching() {
        let mut t = RTree::new();
        for i in 1..=50i64 {
            t.insert(cell(i, 1), i);
        }
        let removed = t.remove_where(&r(&[1, 1], &[25, 1]), |&v| v % 2 == 0);
        assert_eq!(removed.len(), 12); // evens in 1..=25
        assert_eq!(t.len(), 38);
        assert!(t.search(&cell(24, 1)).is_empty());
        assert_eq!(t.search(&cell(23, 1)), vec![&23]);
        // Out-of-query evens survive.
        assert_eq!(t.search(&cell(26, 1)), vec![&26]);
    }

    #[test]
    fn iter_yields_all() {
        let mut t = RTree::new();
        for i in 1..=30i64 {
            t.insert(cell(i, i), i);
        }
        let mut vals: Vec<i64> = t.iter().into_iter().map(|(_, &v)| v).collect();
        vals.sort();
        assert_eq!(vals, (1..=30).collect::<Vec<_>>());
    }

    #[test]
    fn overlapping_rects_all_found() {
        let mut t = RTree::new();
        for i in 0..20i64 {
            t.insert(r(&[1 + i, 1], &[30 + i, 10]), i);
        }
        let hits = t.search(&cell(25, 5));
        assert_eq!(hits.len(), 20, "all overlapping strips found");
    }

    #[test]
    fn three_dimensional_entries() {
        let mut t = RTree::new();
        for x in 1..=5i64 {
            for y in 1..=5i64 {
                for z in 1..=5i64 {
                    t.insert(r(&[x, y, z], &[x, y, z]), (x, y, z));
                }
            }
        }
        let hits = t.search(&r(&[2, 2, 2], &[3, 3, 3]));
        assert_eq!(hits.len(), 8);
    }
}
