//! The eBay clickstream use case (§2.14) — "non-science usage".
//!
//! "An eBay user can type a collection of keywords into the eBay search
//! box … eBay returns a collection of items … The user might click on item
//! 7 … Not only is it important which items have been clicked through, it
//! is even more important to be able to analyse the user-ignored content.
//! E.g., how often did a particular item get surfaced but was never clicked
//! on? … it can be effectively modelled as a one-dimensional array (i.e. a
//! time series) with embedded arrays to represent the search results at
//! each step."
//!
//! [`build_event_array`] is exactly that model: a 1-D time series whose
//! cells embed a nested results array. [`build_event_table`] is the
//! flattened relational weblog the paper says cannot keep up; experiment E9
//! compares the two on the paper's own analyses.

use scidb_core::array::Array;
use scidb_core::error::Result;
use scidb_core::rng::SmallRng;
use scidb_core::schema::{ArraySchema, SchemaBuilder};
use scidb_core::value::{record, ScalarType, Value};
use scidb_relational::{ColumnDef, Table};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// One search event.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchEvent {
    /// Session id.
    pub session: i64,
    /// Query id (hash of the keywords).
    pub query: i64,
    /// Items surfaced, in rank order (rank 1 first).
    pub results: Vec<i64>,
    /// 1-based rank of the clicked item, if any.
    pub clicked_rank: Option<usize>,
}

/// Workload parameters.
#[derive(Debug, Clone)]
pub struct ClickSpec {
    /// Number of sessions.
    pub n_sessions: usize,
    /// Catalog size (items follow a Zipf-ish popularity).
    pub n_items: i64,
    /// Results per search.
    pub page_size: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ClickSpec {
    fn default() -> Self {
        ClickSpec {
            n_sessions: 1000,
            n_items: 5000,
            page_size: 10,
            seed: 99,
        }
    }
}

/// Generates a deterministic event stream: 1–3 searches per session, each
/// surfacing `page_size` Zipf-popular items; clicks follow a position-bias
/// curve, with some searches abandoned entirely (the paper's "flawed
/// search strategy" signal).
pub fn generate_events(spec: &ClickSpec) -> Vec<SearchEvent> {
    let mut rng = SmallRng::seed_from_u64(spec.seed);
    let mut events = Vec::new();
    for session in 1..=spec.n_sessions as i64 {
        let searches = rng.gen_range(1..=3usize);
        for _ in 0..searches {
            let query = rng.gen_range(1..=500i64);
            // Zipf-ish item draws: item = floor(N * u^3) + 1 concentrates
            // on low ids.
            let mut results = Vec::with_capacity(spec.page_size);
            let mut seen = HashSet::new();
            while results.len() < spec.page_size {
                let u: f64 = rng.gen_range(0.0..1.0);
                let item = ((spec.n_items as f64) * u.powi(3)) as i64 + 1;
                if seen.insert(item) {
                    results.push(item);
                }
            }
            // Position bias: P(click rank r) ∝ 1/r²; 30% abandon.
            let clicked_rank = if rng.gen_range(0.0..1.0f64) < 0.30 {
                None
            } else {
                let weights: Vec<f64> =
                    (1..=spec.page_size).map(|r| 1.0 / (r * r) as f64).collect();
                let total: f64 = weights.iter().sum();
                let mut draw = rng.gen_range(0.0..total);
                let mut rank = 1;
                for (i, w) in weights.iter().enumerate() {
                    if draw < *w {
                        rank = i + 1;
                        break;
                    }
                    draw -= w;
                }
                Some(rank)
            };
            events.push(SearchEvent {
                session,
                query,
                results,
                clicked_rank,
            });
        }
    }
    events
}

/// The nested-array schema: a 1-D time series with an embedded results
/// array per cell.
pub fn event_array_schema(page_size: usize) -> Result<ArraySchema> {
    let results_schema = Arc::new(
        SchemaBuilder::new("results")
            .attr("item", ScalarType::Int64)
            .dim("rank", page_size as i64)
            .build()?,
    );
    SchemaBuilder::new("clickstream")
        .attr("session", ScalarType::Int64)
        .attr("query", ScalarType::Int64)
        .attr("clicked_rank", ScalarType::Int64)
        .attr("clicked_item", ScalarType::Int64)
        .nested_attr("results", results_schema)
        .dim_unbounded("t")
        .build()
}

/// Builds the §2.14 array: one cell per search event along `t`, with the
/// surfaced results embedded as a nested 1-D array.
pub fn build_event_array(events: &[SearchEvent], page_size: usize) -> Result<Array> {
    let schema = event_array_schema(page_size)?;
    let mut a = Array::new(schema);
    for (i, e) in events.iter().enumerate() {
        let nested = Array::int_1d("results", "item", &e.results);
        let (rank_v, item_v) = match e.clicked_rank {
            Some(r) => (Value::from(r as i64), Value::from(e.results[r - 1])),
            None => (Value::Null, Value::Null),
        };
        a.set_cell(
            &[i as i64 + 1],
            record([
                Value::from(e.session),
                Value::from(e.query),
                rank_v,
                item_v,
                Value::Array(Box::new(nested)),
            ]),
        )?;
    }
    Ok(a)
}

/// Builds the flattened relational weblog: one row per `(event, rank)`.
pub fn build_event_table(events: &[SearchEvent]) -> Result<Table> {
    let mut t = Table::new(
        "weblog",
        vec![
            ColumnDef {
                name: "t".into(),
                ty: ScalarType::Int64,
            },
            ColumnDef {
                name: "session".into(),
                ty: ScalarType::Int64,
            },
            ColumnDef {
                name: "query".into(),
                ty: ScalarType::Int64,
            },
            ColumnDef {
                name: "rank".into(),
                ty: ScalarType::Int64,
            },
            ColumnDef {
                name: "item".into(),
                ty: ScalarType::Int64,
            },
            ColumnDef {
                name: "clicked".into(),
                ty: ScalarType::Bool,
            },
        ],
    )?;
    for (i, e) in events.iter().enumerate() {
        for (r, &item) in e.results.iter().enumerate() {
            t.insert(vec![
                Value::from(i as i64 + 1),
                Value::from(e.session),
                Value::from(e.query),
                Value::from(r as i64 + 1),
                Value::from(item),
                Value::from(e.clicked_rank == Some(r + 1)),
            ])?;
        }
    }
    Ok(t)
}

/// Analysis results shared by both engines (for cross-checking).
#[derive(Debug, Clone, PartialEq)]
pub struct ClickAnalytics {
    /// Items surfaced at least once but never clicked — the paper's
    /// headline "user-ignored content" metric.
    pub surfaced_never_clicked: usize,
    /// Click-through rate by rank (index 0 = rank 1).
    pub ctr_by_rank: Vec<f64>,
    /// Searches whose top 6 results were all ignored (clicked below 6 or
    /// abandoned) — the "search strategy is flawed" signal.
    pub flawed_searches: usize,
}

/// Runs the analyses over the nested array. Uses positional chunk access
/// and borrowed nested arrays — no per-event cloning.
pub fn analyze_array(a: &Array, page_size: usize) -> Result<ClickAnalytics> {
    let mut surfaced: HashSet<i64> = HashSet::new();
    let mut clicked: HashSet<i64> = HashSet::new();
    let mut shown = vec![0usize; page_size];
    let mut clicks = vec![0usize; page_size];
    let mut flawed = 0usize;
    for chunk in a.chunks().values() {
        for (_, idx) in chunk.iter_present() {
            let results = chunk
                .nested_at(4, idx)
                .expect("results nested array present");
            let mut n_results = 0usize;
            for inner in results.chunks().values() {
                for (_, ridx) in inner.iter_present() {
                    if let Some(item) = inner.value_f64(0, ridx) {
                        surfaced.insert(item as i64);
                        n_results += 1;
                    }
                }
            }
            for slot in shown.iter_mut().take(page_size.min(n_results)) {
                *slot += 1;
            }
            match chunk.value_at(2, idx).as_i64() {
                Some(rank) => {
                    let rank = rank as usize;
                    clicks[rank - 1] += 1;
                    if let Some(item) = chunk.value_at(3, idx).as_i64() {
                        clicked.insert(item);
                    }
                    if rank > 6 {
                        flawed += 1;
                    }
                }
                None => flawed += 1,
            }
        }
    }
    Ok(ClickAnalytics {
        surfaced_never_clicked: surfaced.difference(&clicked).count(),
        ctr_by_rank: shown
            .iter()
            .zip(&clicks)
            .map(|(&s, &c)| if s == 0 { 0.0 } else { c as f64 / s as f64 })
            .collect(),
        flawed_searches: flawed,
    })
}

/// Runs the same analyses over the flattened weblog table (group-bys and
/// anti-joins, the relational way).
pub fn analyze_table(t: &Table, page_size: usize) -> Result<ClickAnalytics> {
    let rank_col = t.column_index("rank")?;
    let item_col = t.column_index("item")?;
    let clicked_col = t.column_index("clicked")?;
    let t_col = t.column_index("t")?;

    let mut surfaced: HashSet<i64> = HashSet::new();
    let mut clicked_items: HashSet<i64> = HashSet::new();
    let mut shown = vec![0usize; page_size];
    let mut clicks = vec![0usize; page_size];
    // Per-event click bookkeeping for the flawed-search metric.
    let mut event_click: HashMap<i64, usize> = HashMap::new();
    let mut events: HashSet<i64> = HashSet::new();

    for row in t.rows() {
        let rank = row[rank_col].as_i64().unwrap() as usize;
        let item = row[item_col].as_i64().unwrap();
        let is_click = row[clicked_col].as_bool().unwrap();
        let ev = row[t_col].as_i64().unwrap();
        events.insert(ev);
        surfaced.insert(item);
        shown[rank - 1] += 1;
        if is_click {
            clicks[rank - 1] += 1;
            clicked_items.insert(item);
            event_click.insert(ev, rank);
        }
    }
    let flawed = events
        .iter()
        .filter(|ev| match event_click.get(ev) {
            Some(&rank) => rank > 6,
            None => true,
        })
        .count();
    Ok(ClickAnalytics {
        surfaced_never_clicked: surfaced.difference(&clicked_items).count(),
        ctr_by_rank: shown
            .iter()
            .zip(&clicks)
            .map(|(&s, &c)| if s == 0 { 0.0 } else { c as f64 / s as f64 })
            .collect(),
        flawed_searches: flawed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ClickSpec {
        ClickSpec {
            n_sessions: 200,
            ..Default::default()
        }
    }

    #[test]
    fn generation_is_deterministic_and_shaped() {
        let a = generate_events(&spec());
        let b = generate_events(&spec());
        assert_eq!(a, b);
        assert!(a.len() >= 200 && a.len() <= 600);
        assert!(a.iter().all(|e| e.results.len() == 10));
    }

    #[test]
    fn array_and_table_agree_on_all_analytics() {
        let events = generate_events(&spec());
        let arr = build_event_array(&events, 10).unwrap();
        let tab = build_event_table(&events).unwrap();
        let a = analyze_array(&arr, 10).unwrap();
        let t = analyze_table(&tab, 10).unwrap();
        assert_eq!(a, t, "both engines compute identical analytics");
    }

    #[test]
    fn position_bias_shows_in_ctr() {
        let events = generate_events(&ClickSpec {
            n_sessions: 2000,
            ..Default::default()
        });
        let arr = build_event_array(&events, 10).unwrap();
        let a = analyze_array(&arr, 10).unwrap();
        assert!(
            a.ctr_by_rank[0] > 5.0 * a.ctr_by_rank[4],
            "rank 1 CTR dominates: {:?}",
            a.ctr_by_rank
        );
    }

    #[test]
    fn ignored_content_is_substantial() {
        let events = generate_events(&spec());
        let arr = build_event_array(&events, 10).unwrap();
        let a = analyze_array(&arr, 10).unwrap();
        assert!(
            a.surfaced_never_clicked > 100,
            "most surfaced items are never clicked: {}",
            a.surfaced_never_clicked
        );
        assert!(a.flawed_searches > 0);
    }

    #[test]
    fn nested_array_roundtrips_results() {
        let events = vec![SearchEvent {
            session: 1,
            query: 7,
            results: vec![70, 90, 40],
            clicked_rank: Some(2),
        }];
        let arr = build_event_array(&events, 3).unwrap();
        let rec = arr.get_cell(&[1]).unwrap();
        assert_eq!(rec[3], Value::from(90i64)); // clicked item
        let nested = rec[4].as_array().unwrap();
        assert_eq!(nested.get_cell(&[1]), Some(vec![Value::from(70i64)]));
        assert_eq!(nested.get_cell(&[3]), Some(vec![Value::from(40i64)]));
    }

    #[test]
    fn table_flattening_multiplies_rows() {
        let events = generate_events(&spec());
        let tab = build_event_table(&events).unwrap();
        assert_eq!(tab.len(), events.len() * 10);
    }
}
