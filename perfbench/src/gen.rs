//! Seeded workload generation: the served table and each analyst's request
//! stream. The program under test only ever sees what this module emits.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::Arc;
use subtab_core::SelectionParams;
use subtab_data::{Predicate, Query, QueryExpr};
use subtab_datasets::{cyber, flights, generate_server_traces, DatasetSize, PlantedDataset};
use subtab_rules::MiningConfig;
use subtab_server::Request;

/// Field separator of the canonical keys built here; never occurs in a
/// column name or a [`Query::selection_key`].
const SEP: char = '\u{2}';

/// Sessions drawn per batch of [`Refinements`]; the paper's study replayed
/// 122 sessions.
const SESSIONS_PER_BATCH: usize = 122;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Refinement sessions on the Cyber stand-in.
    Browse,
    /// Refinements beside highlighted selects with cold mining thresholds
    /// on the Flights stand-in.
    Highlight,
}

impl Workload {
    /// All workloads, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 2] = [Workload::Browse, Workload::Highlight];

    /// The name the command line uses.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Browse => "browse",
            Workload::Highlight => "highlight",
        }
    }

    /// Parses a command-line workload name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The planted table this workload serves, generated from `seed`.
    pub fn dataset(self, seed: u64) -> PlantedDataset {
        match self {
            Workload::Browse => cyber(DatasetSize::Large, seed),
            Workload::Highlight => flights(DatasetSize::Small, seed),
        }
    }

    /// The first [`REQUESTS_PER_ANALYST`] requests of each analyst's
    /// refinement stream. Every analyst waits for its reply before sending
    /// the next request (a closed loop). Analyst 0 asks for plain displays
    /// and analyst 1 for highlighted ones: with the default-mined rules in
    /// `browse`, over a grid of cold mining thresholds in `highlight`. The
    /// lists are generated before set-up, so the generator and the table
    /// it reads are gone before the measured phase starts.
    pub fn requests(self, seed: u64) -> Vec<Vec<Req>> {
        let dataset = Arc::new(self.dataset(seed));
        let grid = match self {
            Workload::Browse => HighlightGrid::default_rules(),
            Workload::Highlight => HighlightGrid::cold(),
        };
        [None, Some(grid)]
            .into_iter()
            .enumerate()
            .map(|(analyst, grid)| {
                Refinements::new(Arc::clone(&dataset), mix(seed, analyst as u64), grid)
                    .take(REQUESTS_PER_ANALYST)
                    .collect()
            })
            .collect()
    }
}

/// Requests generated per analyst. A closed loop that reaches the end of
/// its list starts over; by then the result cache (256 entries) has long
/// evicted the first requests, so they miss again.
pub const REQUESTS_PER_ANALYST: usize = 4000;

/// One request as the benchmark generated it.
#[derive(Debug, Clone, PartialEq)]
pub enum Req {
    /// An interactive select over a query text (`Request::SelectText`).
    Select {
        /// SQL-ish query text; empty for the landing display.
        text: String,
        /// Sub-table dimensions and targets.
        params: SelectionParams,
    },
    /// A highlighted select (`Request::SelectHighlighted`).
    Highlighted {
        /// SQL-ish query text, parsed by the client.
        text: String,
        /// Sub-table dimensions and targets.
        params: SelectionParams,
        /// Rule-mining support threshold.
        support: f64,
        /// Mining target column names.
        targets: Vec<String>,
        /// Most rules kept (`MiningConfig::max_rules`; 0 keeps all).
        max_rules: usize,
        /// Most items in a rule (`MiningConfig::max_rule_size`).
        max_rule_size: usize,
    },
}

impl Req {
    /// The query this request scopes its selection by; the landing
    /// display's empty text is the match-all query.
    pub fn query(&self) -> Query {
        match self {
            Req::Select { text, .. } | Req::Highlighted { text, .. } => {
                Query::parse(text).expect("generated query text parses")
            }
        }
    }

    /// The query the server selects over: the parsed text of a text select
    /// and, for a highlighted select, no query for the landing display, so
    /// that it takes the whole-table path over the cached row vectors.
    pub fn served_query(&self) -> Option<Query> {
        match self {
            Req::Highlighted { text, .. } if text.is_empty() => None,
            _ => Some(self.query()),
        }
    }

    /// Sub-table dimensions and targets.
    pub fn params(&self) -> &SelectionParams {
        match self {
            Req::Select { params, .. } | Req::Highlighted { params, .. } => params,
        }
    }

    /// Mining thresholds of a highlighted request.
    pub fn mining(&self) -> Option<(MiningConfig, &[String])> {
        match self {
            Req::Highlighted {
                support,
                targets,
                max_rules,
                max_rule_size,
                ..
            } => Some((
                MiningConfig {
                    min_support: *support,
                    max_rules: *max_rules,
                    max_rule_size: *max_rule_size,
                    ..MiningConfig::default()
                },
                targets,
            )),
            _ => None,
        }
    }

    /// Whether this is a highlighted select.
    pub fn is_highlighted(&self) -> bool {
        matches!(self, Req::Highlighted { .. })
    }

    /// Whether this is the landing display that opens a session.
    pub fn is_landing(&self) -> bool {
        match self {
            Req::Select { text, .. } | Req::Highlighted { text, .. } => text.is_empty(),
        }
    }

    /// The canonical identity of the request's result: equal keys must
    /// yield equal sub-tables. Mirrors the server's cache keys: the
    /// query's `selection_key` (so the empty query and no query agree),
    /// `k`, `l`, the ordered targets and, for highlighted selects, the
    /// mining thresholds, the rule cap, the largest rule size and the
    /// sorted mining targets.
    pub fn canonical_key(&self) -> String {
        let params = self.params();
        let query = self.query();
        let mut key = format!(
            "{}{SEP}{}{SEP}{}",
            query.selection_key(),
            params.k,
            params.l
        );
        for t in &params.target_columns {
            key.push(SEP);
            key.push_str(t);
        }
        if let Req::Highlighted {
            support,
            targets,
            max_rules,
            max_rule_size,
            ..
        } = self
        {
            let mut sorted = targets.clone();
            sorted.sort();
            sorted.dedup();
            key.push_str(&format!(
                "{SEP}hl{SEP}{:016x}{SEP}{max_rules}{SEP}{max_rule_size}",
                support.to_bits()
            ));
            for t in sorted {
                key.push(SEP);
                key.push_str(&t);
            }
        }
        key
    }

    /// The wire request sent to the server.
    pub fn to_request(&self) -> Request {
        match self {
            Req::Select { text, params } => Request::SelectText {
                query: text.clone(),
                params: params.clone(),
            },
            Req::Highlighted {
                params, targets, ..
            } => {
                let (mining, _) = self.mining().expect("highlighted request");
                Request::SelectHighlighted {
                    query: self.served_query(),
                    params: params.clone(),
                    mining,
                    target_columns: targets.clone(),
                }
            }
        }
    }
}

/// The mining thresholds highlighted requests draw from, uniformly: a
/// support, an optional target and the largest rule size per key, and one
/// rule cap for all.
#[derive(Debug, Clone)]
pub struct HighlightGrid {
    keys: Vec<(f64, Option<&'static str>, usize)>,
    max_rules: usize,
}

/// The rule cap of the cold grid. Over seeds 1–60, the targeted key holds
/// 14,093–34,478 rules, the untargeted key at 0.08 holds 18,407–28,794
/// and the one at 0.10 holds 8,379–20,100. `HighlightIndex::build` takes
/// time in proportion, and the server builds the index on every
/// highlighted miss; the cap keeps the two largest indices the same size
/// for every seed. The truncation is deterministic.
const COLD_MAX_RULES: usize = 12_000;

/// The largest rule size of the targeted cold key. With the default of
/// four items, the targeted set at 0.15 held 1.2–2.2·10⁵ rules over seeds
/// 501–520. It is mined in full before the cap truncates it, so the
/// process's peak memory followed the seed (64–100 MiB). With three
/// items it holds under 35,000 rules.
const TARGETED_MAX_RULE_SIZE: usize = 3;

impl HighlightGrid {
    /// The default thresholds only: rules are mined once per table.
    pub fn default_rules() -> Self {
        let default = MiningConfig::default();
        HighlightGrid {
            keys: vec![(default.min_support, None, default.max_rule_size)],
            max_rules: default.max_rules,
        }
    }

    /// Five cold keys inside the grid of support 0.08–0.15 with no target
    /// or `CANCELLED` as the target. Targeted mining runs at 0.15 only:
    /// lower supports hold 1.6·10⁵–2.6·10⁶ targeted rules of up to four
    /// items depending on the seed, and take up to 12 s to mine.
    pub fn cold() -> Self {
        let size = MiningConfig::default().max_rule_size;
        HighlightGrid {
            keys: vec![
                (0.08, None, size),
                (0.10, None, size),
                (0.12, None, size),
                (0.15, None, size),
                (0.15, Some("CANCELLED"), TARGETED_MAX_RULE_SIZE),
            ],
            max_rules: COLD_MAX_RULES,
        }
    }

    /// One key: support, targets and largest rule size.
    fn draw(&self, rng: &mut StdRng) -> (f64, Vec<String>, usize) {
        let &(support, target, size) = self.keys.choose(rng).expect("the grid has keys");
        (
            support,
            target.map(str::to_string).into_iter().collect(),
            size,
        )
    }
}

/// Refinement sessions: the archetype sessions of `generate_server_traces`
/// (landing display first), each later query ANDed with a seeded numeric
/// range so that most selects miss the result cache.
pub struct Refinements {
    dataset: Arc<PlantedDataset>,
    numeric: Vec<(String, f64, f64)>,
    rng: StdRng,
    seed: u64,
    batch: u64,
    pending: VecDeque<Req>,
    highlight: Option<HighlightGrid>,
}

impl Refinements {
    /// A stream over `dataset`; with a grid, every request is highlighted.
    pub fn new(dataset: Arc<PlantedDataset>, seed: u64, highlight: Option<HighlightGrid>) -> Self {
        let table = &dataset.table;
        let numeric = table
            .schema()
            .fields()
            .iter()
            .filter(|f| f.ty.is_numeric())
            .filter_map(|f| {
                let col = table.column(&f.name)?;
                let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
                for r in 0..table.num_rows() {
                    if let Some(v) = col.get(r).as_f64() {
                        lo = lo.min(v);
                        hi = hi.max(v);
                    }
                }
                (lo < hi).then(|| (f.name.clone(), lo, hi))
            })
            .collect();
        Refinements {
            dataset,
            numeric,
            rng: StdRng::seed_from_u64(seed),
            seed,
            batch: 0,
            pending: VecDeque::new(),
            highlight,
        }
    }

    fn refill(&mut self) {
        let config = subtab_datasets::SessionConfig {
            num_sessions: SESSIONS_PER_BATCH,
            seed: mix(self.seed, 1000 + self.batch),
            ..Default::default()
        };
        self.batch += 1;
        for session in generate_server_traces(&self.dataset, &config) {
            for (step, query) in session.queries.into_iter().enumerate() {
                let text = if step == 0 {
                    // The landing display: the whole table, same every time.
                    String::new()
                } else {
                    self.refine(query).to_string()
                };
                let params = SelectionParams::new(10, 10);
                let req = match &self.highlight {
                    None => Req::Select { text, params },
                    Some(grid) => {
                        let (support, targets, max_rule_size) = grid.draw(&mut self.rng);
                        Req::Highlighted {
                            text,
                            params,
                            support,
                            targets,
                            max_rules: grid.max_rules,
                            max_rule_size,
                        }
                    }
                };
                self.pending.push_back(req);
            }
        }
    }

    fn refine(&mut self, mut query: Query) -> Query {
        // Group-by has no text form and selection ignores it.
        query.group_by = None;
        if let Some((name, lo, hi)) = self.numeric.choose(&mut self.rng).cloned() {
            let span = hi - lo;
            let a = lo + span * self.rng.gen_range(0.0..0.5);
            let b = a + (hi - a) * self.rng.gen_range(0.4..1.0);
            let round = |x: f64| (x * 10.0).round() / 10.0;
            query = query.and_expr(QueryExpr::leaf(Predicate::between(
                &name,
                round(a),
                round(b),
            )));
        }
        query
    }
}

impl Iterator for Refinements {
    type Item = Req;

    fn next(&mut self) -> Option<Req> {
        while self.pending.is_empty() {
            self.refill();
        }
        self.pending.pop_front()
    }
}

/// Derives an independent seed from `seed` and a stream index (splitmix64).
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Requests whose canonical key has not been seen before: the ones
    /// that miss a result cache large enough to hold every earlier result.
    fn misses(lists: &[Vec<Req>]) -> usize {
        let mut seen = HashSet::new();
        lists
            .iter()
            .flatten()
            .filter(|r| seen.insert(r.canonical_key()))
            .count()
    }

    #[test]
    fn same_seed_same_requests_other_seed_other_requests() {
        for workload in Workload::ALL {
            let a = workload.requests(5);
            assert_eq!(a, workload.requests(5), "{}", workload.name());
            assert_ne!(a, workload.requests(6), "{}", workload.name());
        }
    }

    #[test]
    fn most_requests_miss_the_result_cache() {
        // The generated lists, 4,000 requests per analyst: more than one
        // repetition serves. The repeats are almost all landing displays,
        // one per session of five to nine requests.
        let pinned = [(Workload::Browse, 6628), (Workload::Highlight, 6816)];
        for (workload, expected) in pinned {
            let lists = workload.requests(1);
            assert!(lists.iter().all(|l| l.len() == REQUESTS_PER_ANALYST));
            assert_eq!(misses(&lists), expected, "{}", workload.name());
            for seed in 2..5 {
                let share =
                    misses(&workload.requests(seed)) as f64 / (2 * REQUESTS_PER_ANALYST) as f64;
                assert!(
                    (0.82..0.88).contains(&share),
                    "{} seed {seed}: {share}",
                    workload.name()
                );
            }
        }
    }

    #[test]
    fn analyst_b_highlights_and_only_highlight_targets_its_mining() {
        for workload in Workload::ALL {
            let lists = workload.requests(2);
            assert!(lists[0].iter().all(|r| !r.is_highlighted()));
            assert!(lists[1].iter().all(Req::is_highlighted));
            let targeted = lists[1][..600]
                .iter()
                .filter(|r| matches!(r, Req::Highlighted { targets, .. } if !targets.is_empty()))
                .count();
            if workload == Workload::Highlight {
                assert!((90..150).contains(&targeted), "{targeted} targeted of 600");
            } else {
                assert_eq!(targeted, 0);
            }
            // Only the targeted key mines rules of fewer items than the
            // default, so the peak memory of mining does not follow the seed.
            let default_size = MiningConfig::default().max_rule_size;
            for r in &lists[1] {
                let (mining, targets) = r.mining().expect("highlighted");
                let expected = if targets.is_empty() {
                    default_size
                } else {
                    TARGETED_MAX_RULE_SIZE
                };
                assert_eq!(mining.max_rule_size, expected);
            }
        }
    }
}
