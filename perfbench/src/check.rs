//! Output checks over the recorded results of a measured phase, and the
//! quality score of a fixed sample of its displays.

use crate::gen::Req;
use crate::serve::{Record, KEPT_PER_ANALYST};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use subtab_core::{compiled_selection_rows, RuleHighlight, SubTab, SubTableResult};
use subtab_data::csv::to_csv;
use subtab_metrics::Evaluator;
use subtab_rules::MiningConfig;

/// Displays per analyst scored for quality: the first ones of each stream,
/// which every run completes, so the sample depends on the seed alone.
pub const QUALITY_PER_ANALYST: usize = KEPT_PER_ANALYST;

/// Everything that identifies a served sub-table.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    rows: Vec<usize>,
    columns: Vec<String>,
    highlights: Vec<Option<RuleHighlight>>,
    cells: String,
}

impl Fingerprint {
    /// The fingerprint of `r`.
    pub fn of(r: &SubTableResult) -> Self {
        Fingerprint {
            rows: r.row_indices.clone(),
            columns: r.columns.clone(),
            highlights: r.highlights.clone(),
            cells: to_csv(&r.sub_table),
        }
    }

    /// Digests of the plain display (rows, columns and cells) and of the
    /// highlights.
    pub fn digests(&self) -> (u64, u64) {
        let mut plain = DefaultHasher::new();
        (&self.rows, &self.columns, &self.cells).hash(&mut plain);
        (plain.finish(), highlights_digest(&self.highlights))
    }
}

/// Digest of a result's highlights, one entry per row.
fn highlights_digest(highlights: &[Option<RuleHighlight>]) -> u64 {
    let mut h = DefaultHasher::new();
    highlights.len().hash(&mut h);
    for row in highlights {
        row.as_ref()
            .map(|r| (r.rule_index, &r.columns, &r.description))
            .hash(&mut h);
    }
    h.finish()
}

/// Outcome of the checks: requests that failed (by `(analyst, index)`) and
/// why.
#[derive(Debug, Default)]
pub struct CheckReport {
    /// Requests that returned an error or failed a check.
    pub failed: HashSet<(usize, usize)>,
    /// One line per failure, for the log.
    pub messages: Vec<String>,
}

impl CheckReport {
    /// Marks a request as failed.
    pub fn fail(&mut self, analyst: usize, index: usize, why: String) {
        if self.messages.len() < 20 {
            self.messages
                .push(format!("analyst {analyst} request {index}: {why}"));
        }
        self.failed.insert((analyst, index));
    }
}

/// Checks every served result of `records`, whose requests are in
/// `lists`, against `subtab`'s table:
///
/// * a sub-table has `min(k, candidates)` distinct rows, all drawn from
///   `compiled_selection_rows` of its query;
/// * its columns stay inside the query's projection and include the
///   targets, and it has one highlight per row when highlighted;
/// * every result for a canonical key, cache hit or not, equals the first
///   one computed for that key.
pub fn check_records(subtab: &SubTab, lists: &[Vec<Req>], records: &[Record]) -> CheckReport {
    let table = subtab.table();
    let all_rows: Vec<usize> = (0..table.num_rows()).collect();
    let mut candidates: HashMap<String, Vec<usize>> = HashMap::new();
    let mut first: HashMap<String, (u64, u64)> = HashMap::new();
    let mut report = CheckReport::default();
    // First pass in completion order registers the first computed result
    // of each key. A highlighted miss also computes (and caches) the plain
    // select of its query, which a later plain request may hit.
    for rec in records {
        if let Ok(served) = &rec.outcome {
            if served.hit {
                continue;
            }
            let req = rec.req(lists);
            if let Some(plain) = plain_key(req) {
                first
                    .entry(plain)
                    .or_insert((served.digests.0, highlights_digest(&[])));
            }
            first.entry(req.canonical_key()).or_insert(served.digests);
        }
    }
    for rec in records {
        let served = match &rec.outcome {
            Ok(served) => served,
            Err(e) => {
                report.fail(rec.analyst, rec.index, format!("error: {e}"));
                continue;
            }
        };
        let req = rec.req(lists);
        let query = req.served_query();
        let params = req.params();
        let cand = match &query {
            None => &all_rows,
            Some(q) => candidates
                .entry(q.selection_key())
                .or_insert_with(|| compiled_selection_rows(table, q).unwrap_or_default()),
        };
        let rows = &served.rows;
        let distinct: HashSet<&usize> = rows.iter().collect();
        let expected = params.k.min(cand.len());
        if rows.len() != expected || distinct.len() != rows.len() {
            report.fail(
                rec.analyst,
                rec.index,
                format!(
                    "{} rows ({} distinct), expected {expected}",
                    rows.len(),
                    distinct.len()
                ),
            );
        }
        if rows.iter().any(|r| cand.binary_search(r).is_err()) {
            report.fail(
                rec.analyst,
                rec.index,
                "row outside the query result".into(),
            );
        }
        let cols: Vec<&str> = served
            .columns
            .iter()
            .filter_map(|&c| table.schema().field_at(c).map(|f| f.name.as_str()))
            .collect();
        if let Some(proj) = query.as_ref().and_then(|q| q.projection.as_ref()) {
            if let Some(c) = cols.iter().find(|c| {
                !proj.iter().any(|p| p == *c) && !params.target_columns.iter().any(|t| t == *c)
            }) {
                report.fail(
                    rec.analyst,
                    rec.index,
                    format!("column {c} outside the projection"),
                );
            }
        }
        if !rows.is_empty() {
            if let Some(t) = params
                .target_columns
                .iter()
                .find(|t| !cols.contains(&t.as_str()))
            {
                report.fail(rec.analyst, rec.index, format!("target {t} missing"));
            }
        }
        if served.shape != (rows.len(), cols.len()) {
            report.fail(rec.analyst, rec.index, "sub-table shape disagrees".into());
        }
        let highlights_ok = if req.is_highlighted() {
            served.highlights == rows.len()
        } else {
            served.highlights == 0
        };
        if !highlights_ok {
            report.fail(
                rec.analyst,
                rec.index,
                format!("{} highlights for {} rows", served.highlights, rows.len()),
            );
        }
        match first.get(&req.canonical_key()) {
            Some(&d) if d == served.digests => {}
            Some(_) => report.fail(
                rec.analyst,
                rec.index,
                "differs from the first result for its key".into(),
            ),
            None => report.fail(
                rec.analyst,
                rec.index,
                "cache hit without a computed result".into(),
            ),
        }
    }
    report
}

/// The key of the plain select a highlighted request computes on its way.
fn plain_key(req: &Req) -> Option<String> {
    match req {
        Req::Highlighted { text, params, .. } => Some(
            Req::Select {
                text: text.clone(),
                params: params.clone(),
            }
            .canonical_key(),
        ),
        _ => None,
    }
}

/// Mean quality of the sample of displays.
#[derive(Debug, Clone, Copy)]
pub struct Quality {
    /// Mean combined score (α = 0.5).
    pub combined: f64,
    /// Mean cell coverage.
    pub coverage: f64,
    /// Mean diversity.
    pub diversity: f64,
    /// Displays scored.
    pub scored: usize,
}

/// Scores the first [`QUALITY_PER_ANALYST`] displays of each analyst with
/// the paper's combined score (α = 0.5) against the table's rules mined
/// with the default thresholds. `None` if an analyst served fewer.
pub fn quality(subtab: &SubTab, records: &[Record], analysts: usize) -> Option<Quality> {
    let rules = subtab.mine_rules(&MiningConfig::default());
    let evaluator = Evaluator::new(subtab.preprocessed().binned().clone(), &rules, 0.5);
    let table = subtab.table();
    let mut sums = (0.0, 0.0, 0.0);
    let mut scored = 0;
    for analyst in 0..analysts {
        let mut sample: Vec<&Record> = records
            .iter()
            .filter(|r| r.analyst == analyst && r.index < QUALITY_PER_ANALYST)
            .collect();
        if sample.len() < QUALITY_PER_ANALYST {
            return None;
        }
        sample.sort_by_key(|r| r.index);
        for rec in sample {
            let Some(result) = rec.outcome.as_ref().ok().and_then(|s| s.full.as_ref()) else {
                continue;
            };
            if result.row_indices.is_empty() {
                continue;
            }
            let score = evaluator.score(&result.row_indices, &result.column_indices(table));
            sums.0 += score.combined;
            sums.1 += score.cell_coverage;
            sums.2 += score.diversity;
            scored += 1;
        }
    }
    (scored > 0).then(|| Quality {
        combined: sums.0 / scored as f64,
        coverage: sums.1 / scored as f64,
        diversity: sums.2 / scored as f64,
        scored,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::Served;
    use std::sync::Arc;
    use subtab_core::{SelectionParams, SubTabConfig};
    use subtab_datasets::{benchmark_projected_query, cyber, DatasetSize};

    fn record(index: usize, outcome: Served) -> Record {
        Record {
            analyst: 0,
            index,
            done_s: index as f64,
            latency_ms: 1.0,
            outcome: Ok(outcome),
        }
    }

    /// The canonical selection–projection query, served once and then
    /// answered by a cache: the checks pass, and each one fails when its
    /// property is broken.
    #[test]
    fn checks_catch_a_broken_projection_row_or_cache_hit() {
        let table = cyber(DatasetSize::Tiny, 1).table;
        let subtab = SubTab::preprocess(table, SubTabConfig::default()).unwrap();
        let table = subtab.table();
        let query = benchmark_projected_query(table);
        let params = SelectionParams::new(5, 3);
        let lists = vec![vec![Req::Select {
            text: query.to_string(),
            params: params.clone(),
        }]];
        let result = Arc::new(subtab.select_for_query(&query, &params).unwrap());
        let miss = Served::new(&result, false, table, true);
        let hit = Served::new(&result, true, table, false);
        let good = check_records(
            &subtab,
            &lists,
            &[record(0, miss.clone()), record(1, hit.clone())],
        );
        assert!(good.failed.is_empty(), "{:?}", good.messages);

        let projection = query.projection.as_ref().unwrap();
        let outside = (0..table.num_columns())
            .find(|&c| !projection.contains(&table.schema().field_at(c).unwrap().name))
            .unwrap();
        let mut wide = hit.clone();
        wide.columns[0] = outside;
        let mut stray = hit.clone();
        let rows = compiled_selection_rows(table, &query).unwrap();
        stray.rows[0] = (0..table.num_rows()).find(|r| !rows.contains(r)).unwrap();
        let mut other = hit;
        other.digests.0 ^= 1;
        for (broken, why) in [
            (wide, "outside the projection"),
            (stray, "row outside the query result"),
            (other, "differs from the first result"),
        ] {
            let report = check_records(
                &subtab,
                &lists,
                &[record(0, miss.clone()), record(1, broken)],
            );
            assert!(report.failed.contains(&(0, 1)), "{why}");
            assert!(
                report.messages.iter().any(|m| m.contains(why)),
                "{:?}",
                report.messages
            );
        }
    }
}
