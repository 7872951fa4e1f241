//! The traced run: set-up and a fixed sample of the measured phase's
//! requests, replayed layer by layer with a span around every call into a
//! layer.
//!
//! The replay calls the public layer functions in the order
//! `PreprocessedTable::new`, `select_sub_table_cached` and the server's
//! highlighted-select path call them, so its outputs must equal the served
//! ones bit for bit; the run fails if they do not.

use crate::check::{self, Fingerprint};
use crate::gen::{Req, Workload};
use crate::report::{median, reset_peak, status_mib, Metrics};
use crate::serve::{self, Record};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use subtab_binning::{BinnedTable, Binner};
use subtab_cluster::{select_representatives, KMeans, Matrix, MatrixView};
use subtab_core::{
    compiled_selection_rows_cached, HighlightIndex, LeafBitmapCache, SelectionParams, SubTab,
    SubTabConfig, SubTableResult,
};
use subtab_data::csv::read_csv_file;
use subtab_data::{Query, Table};
use subtab_embed::{train_embedding, CellEmbedding, TokenPlane};
use subtab_rules::{MiningConfig, RuleMiner, RuleSet};

/// Requests replayed per analyst: the first ones of each stream, which
/// every run completes.
const REPLAY_PER_ANALYST: usize = 30;

/// Set-up layers, in call order.
const SETUP_LAYERS: [&str; 6] = [
    "data.csv_read",
    "binning.fit",
    "binning.apply",
    "embed.train",
    "embed.token_plane",
    "core.row_cache",
];

/// Request layers, in call order.
const REQUEST_LAYERS: [&str; 8] = [
    "core.compile",
    "embed.gather",
    "cluster.kmeans",
    "cluster.representatives",
    "data.assemble",
    "rules.mine",
    "core.highlight_index",
    "core.highlight_probe",
];

/// The per-layer metrics, in the order `BENCHMARK.json` lists them and a
/// traced run prints them.
pub const PER_LAYER: [&str; 33] = [
    "data.csv_read_ms",
    "binning.fit_ms",
    "binning.apply_ms",
    "embed.train_ms",
    "embed.token_plane_ms",
    "core.row_cache_ms",
    "data.csv_read_peak_mib",
    "binning.fit_peak_mib",
    "binning.apply_peak_mib",
    "embed.train_peak_mib",
    "embed.token_plane_peak_mib",
    "core.row_cache_peak_mib",
    "embed.vocab",
    "trace.setup_s",
    "trace.setup_layer_share",
    "core.compile_ms",
    "embed.gather_ms",
    "cluster.kmeans_ms",
    "cluster.representatives_ms",
    "data.assemble_ms",
    "rules.mine_ms",
    "core.highlight_index_ms",
    "core.highlight_probe_ms",
    "core.candidate_rows",
    "cluster.kmeans_iters",
    "rules.rules",
    "core.leaf_hit_ratio",
    "server.select_hit_ratio",
    "server.rules_hit_ratio",
    "server.overhead_ms",
    "metrics.coverage",
    "metrics.diversity",
    "trace.overhead_pct",
];

/// Largest gap allowed between the traced set-up and the sum of its layers.
const SETUP_SUM_TOLERANCE: f64 = 0.05;

/// One timed call.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    request: Option<u64>,
}

/// Spans and counters, kept in memory and written out at the end.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Runs `f` inside a span named `name`; a child inherits its parent's
    /// request id.
    fn span<T>(
        &mut self,
        name: &'static str,
        request: Option<u64>,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let request = request.or_else(|| parent.and_then(|p| self.spans[p].request));
        self.spans.push(Span {
            name,
            start: self.origin.elapsed(),
            end: Duration::ZERO,
            parent,
            request,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.origin.elapsed();
        out
    }

    fn count(&mut self, name: &'static str, value: f64) {
        *self.counts.entry(name).or_default() += value;
    }

    fn counted(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Per span name: the summed duration minus the part covered by direct
    /// children, in milliseconds.
    fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for s in &self.spans {
            let d = (s.end - s.start).as_secs_f64() * 1e3;
            *out.entry(s.name).or_default() += d;
            if let Some(p) = s.parent {
                *out.entry(self.spans[p].name).or_default() -= d;
            }
        }
        out
    }

    /// Summed duration of the spans named `name`, in seconds.
    fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64())
            .sum()
    }

    /// Writes one tab-separated line per span and per counter.
    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("id\tname\tstart_us\tend_us\tparent\trequest\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{}\t{}",
                s.name,
                s.start.as_micros(),
                s.end.as_micros(),
                s.parent.map_or("-".into(), |p| p.to_string()),
                s.request.map_or("-".into(), |r| r.to_string()),
            );
        }
        for (name, v) in &self.counts {
            let _ = writeln!(out, "count\t{name}\t{v}");
        }
        std::fs::write(path, out)
    }
}

/// Peak residency of one set-up stage.
struct StagePeak {
    name: &'static str,
    rss_before_mib: f64,
    peak_mib: f64,
    rss_after_mib: f64,
}

/// Runs one set-up stage in a span and records its peak residency: the
/// kernel's high-water mark, reset before the stage, or, where the reset
/// is unavailable, the highest residency a 1 ms sampling thread saw.
fn stage<T>(
    tr: &mut Tracer,
    peaks: &mut Vec<StagePeak>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    let rss_before_mib = status_mib("VmRSS").unwrap_or(f64::NAN);
    let (out, peak_mib) = if reset_peak() {
        let out = tr.span(name, None, |_| f());
        (out, status_mib("VmHWM").unwrap_or(f64::NAN))
    } else {
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let sampler = scope.spawn(|| {
                let mut peak: f64 = 0.0;
                loop {
                    peak = peak.max(status_mib("VmRSS").unwrap_or(f64::NAN));
                    if done.load(Ordering::Acquire) {
                        return peak;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
            let out = tr.span(name, None, |_| f());
            done.store(true, Ordering::Release);
            (out, sampler.join().expect("sampler thread panicked"))
        })
    };
    peaks.push(StagePeak {
        name,
        rss_before_mib,
        peak_mib,
        rss_after_mib: status_mib("VmRSS").unwrap_or(f64::NAN),
    });
    out
}

/// The artefacts of `PreprocessedTable::new` plus the full-row-vector cache.
struct Replayed {
    table: Table,
    binned: BinnedTable,
    embedding: CellEmbedding,
    plane: TokenPlane,
    full_rows: Matrix,
    config: SubTabConfig,
}

fn traced_setup(
    tr: &mut Tracer,
    peaks: &mut Vec<StagePeak>,
    csv: &Path,
) -> Result<Replayed, String> {
    let config = SubTabConfig::default();
    tr.span("setup", None, |tr| {
        let table =
            stage(tr, peaks, "data.csv_read", || read_csv_file(csv)).map_err(|e| e.to_string())?;
        let binner = stage(tr, peaks, "binning.fit", || {
            Binner::fit(&table, &config.binning)
        })
        .map_err(|e| e.to_string())?;
        let binned = stage(tr, peaks, "binning.apply", || binner.apply(&table))
            .map_err(|e| e.to_string())?;
        let embedding = stage(tr, peaks, "embed.train", || {
            train_embedding(&binned, &config.embedding)
        });
        let plane = stage(tr, peaks, "embed.token_plane", || {
            embedding.token_plane(&binned)
        });
        let full_rows = stage(tr, peaks, "core.row_cache", || {
            let rows: Vec<usize> = (0..binned.num_rows()).collect();
            let cols: Vec<usize> = (0..binned.num_columns()).collect();
            Matrix::new(
                embedding.row_vectors(&plane, &rows, &cols, config.threads),
                embedding.dim(),
            )
        });
        Ok(Replayed {
            table,
            binned,
            embedding,
            plane,
            full_rows,
            config,
        })
    })
}

/// The empty selection every degenerate request resolves to.
fn empty_result(table: &Table) -> Result<SubTableResult, String> {
    Ok(SubTableResult {
        sub_table: table.sub_table(&[], &[]).map_err(|e| e.to_string())?,
        row_indices: Vec::new(),
        columns: Vec::new(),
        highlights: Vec::new(),
    })
}

/// `select_k_representatives_threaded`, one span per layer call.
fn representatives(
    tr: &mut Tracer,
    points: MatrixView,
    k: usize,
    seed: u64,
    threads: usize,
) -> Vec<usize> {
    if k == 0 || points.is_empty() {
        return Vec::new();
    }
    if points.num_rows() <= k {
        return (0..points.num_rows()).collect();
    }
    let fit = tr.span("cluster.kmeans", None, |_| {
        KMeans::new(k, seed).threads(threads).fit(points)
    });
    tr.count("cluster.kmeans_iters", fit.iterations as f64);
    tr.span("cluster.representatives", None, |_| {
        select_representatives(points, &fit)
    })
}

/// `select_sub_table_cached`, one span per layer call.
fn replay_select(
    tr: &mut Tracer,
    rp: &Replayed,
    query: Option<&Query>,
    params: &SelectionParams,
    leaf: &LeafBitmapCache,
) -> Result<SubTableResult, String> {
    let table = &rp.table;
    let (seed, threads) = (rp.config.seed, rp.config.threads);
    if params.target_columns.len() > params.l {
        return Err("more targets than columns".into());
    }
    let num_columns = table.num_columns();
    let target_idx: Vec<usize> = params
        .target_columns
        .iter()
        .map(|t| {
            table
                .schema()
                .index_of(t)
                .ok_or(format!("unknown column {t}"))
        })
        .collect::<Result<_, _>>()?;
    if params.k == 0 || params.l == 0 {
        return empty_result(table);
    }
    let candidate_rows: Vec<usize> = tr.span("core.compile", None, |_| match query {
        None => Ok((0..table.num_rows()).collect()),
        Some(q) => compiled_selection_rows_cached(table, q, leaf).map_err(|e| e.to_string()),
    })?;
    tr.count("core.candidate_rows", candidate_rows.len() as f64);
    if candidate_rows.is_empty() {
        return empty_result(table);
    }
    let mut in_candidates = vec![false; num_columns];
    let candidate_columns: Vec<usize> = match query.and_then(|q| q.projection.as_ref()) {
        Some(proj) => {
            let mut cols = Vec::with_capacity(proj.len());
            for name in proj {
                let idx = table
                    .schema()
                    .index_of(name)
                    .ok_or(format!("unknown column {name}"))?;
                if !in_candidates[idx] {
                    in_candidates[idx] = true;
                    cols.push(idx);
                }
            }
            for &idx in &target_idx {
                if !in_candidates[idx] {
                    in_candidates[idx] = true;
                    cols.push(idx);
                }
            }
            cols
        }
        None => (0..num_columns).collect(),
    };
    if candidate_columns.is_empty() {
        return empty_result(table);
    }
    let k = params.k.min(candidate_rows.len());
    let mut is_target = vec![false; num_columns];
    for &t in &target_idx {
        is_target[t] = true;
    }
    let free_columns: Vec<usize> = candidate_columns
        .iter()
        .copied()
        .filter(|&c| !is_target[c])
        .collect();
    let l_free = params
        .l
        .saturating_sub(target_idx.len())
        .min(free_columns.len());
    let whole_table = query.is_none() && candidate_columns.len() == num_columns;

    let (emb, plane) = (&rp.embedding, &rp.plane);
    let (computed, col_vectors) = tr.span("embed.gather", None, |_| {
        let computed = (!whole_table).then(|| {
            Matrix::new(
                emb.row_vectors(plane, &candidate_rows, &candidate_columns, threads),
                emb.dim(),
            )
        });
        let cols = if l_free > 0 {
            Matrix::new(
                emb.column_vectors(plane, &free_columns, &candidate_rows, threads),
                emb.dim(),
            )
        } else {
            Matrix::default()
        };
        (computed, cols)
    });
    let row_vectors = computed.as_ref().unwrap_or(&rp.full_rows).view();

    let mut row_indices: Vec<usize> = representatives(tr, row_vectors, k, seed, threads)
        .into_iter()
        .map(|p| candidate_rows[p])
        .collect();
    row_indices.sort_unstable();
    let mut selected: Vec<usize> = target_idx.clone();
    if l_free > 0 {
        let reps = representatives(
            tr,
            col_vectors.view(),
            l_free,
            seed.wrapping_add(1),
            threads,
        );
        selected.extend(reps.into_iter().map(|p| free_columns[p]));
    }
    selected.sort_unstable();
    selected.dedup();
    let columns: Vec<String> = selected
        .iter()
        .map(|&c| table.schema().field_at(c).map(|f| f.name.clone()))
        .collect::<Option<_>>()
        .ok_or("column index out of schema")?;
    let refs: Vec<&str> = columns.iter().map(String::as_str).collect();
    let sub_table = tr
        .span("data.assemble", None, |_| {
            table.sub_table(&row_indices, &refs)
        })
        .map_err(|e| e.to_string())?;
    Ok(SubTableResult {
        sub_table,
        row_indices,
        columns,
        highlights: Vec::new(),
    })
}

/// Mined rule sets by threshold bits, rule cap and sorted target indices,
/// as the server's rules cache keys them. The cache holds 32 sets and the
/// workloads draw from at most five, so nothing is ever evicted.
type RulesCache = HashMap<(u64, usize, usize, Vec<usize>), RuleSet>;

fn rules_key(
    binned: &BinnedTable,
    mining: &MiningConfig,
    targets: &[String],
) -> (u64, usize, usize, Vec<usize>) {
    let mut idx: Vec<usize> = targets
        .iter()
        .filter_map(|t| binned.column_index(t))
        .collect();
    idx.sort_unstable();
    idx.dedup();
    (
        mining.min_support.to_bits(),
        mining.max_rules,
        mining.max_rule_size,
        idx,
    )
}

/// One request of the sample: the select, and for a highlighted one the
/// rules lookup, index build and probe of the server's highlighted path.
fn replay_request(
    tr: &mut Tracer,
    rp: &Replayed,
    req: &Req,
    leaf: &LeafBitmapCache,
    rules: &mut RulesCache,
) -> Result<SubTableResult, String> {
    let query = req.served_query();
    let mut result = replay_select(tr, rp, query.as_ref(), req.params(), leaf)?;
    if let Some((mining, targets)) = req.mining() {
        let key = rules_key(&rp.binned, &mining, targets);
        let set = rules.entry(key).or_insert_with_key(|(_, _, _, idx)| {
            let miner = RuleMiner::new(MiningConfig {
                threads: rp.config.threads,
                ..mining
            });
            let set = tr.span("rules.mine", None, |_| {
                if idx.is_empty() {
                    miner.mine(&rp.binned)
                } else {
                    miner.mine_with_targets(&rp.binned, idx)
                }
            });
            tr.count("rules.rules", set.len() as f64);
            set
        });
        let index = tr.span("core.highlight_index", None, |_| HighlightIndex::build(set));
        result.highlights = tr.span("core.highlight_probe", None, |_| {
            index.probe(&rp.binned, &result.row_indices, &result.columns)
        });
    }
    Ok(result)
}

/// The same requests through the library's own entry points, untraced.
fn library_request(
    subtab: &SubTab,
    req: &Req,
    leaf: &LeafBitmapCache,
    rules: &mut RulesCache,
) -> Result<SubTableResult, String> {
    let params = req.params();
    let plain = match req.served_query() {
        Some(q) => subtab.select_for_query_cached(&q, params, leaf),
        None => subtab.select(params),
    }
    .map_err(|e| e.to_string())?;
    let Some((mining, targets)) = req.mining() else {
        return Ok(plain);
    };
    let key = rules_key(subtab.preprocessed().binned(), &mining, targets);
    let set = rules.entry(key).or_insert_with_key(|(_, _, _, idx)| {
        if idx.is_empty() {
            subtab.mine_rules(&mining)
        } else {
            subtab.mine_rules_for_targets(&mining, idx)
        }
    });
    Ok(subtab.with_highlights(plain, set))
}

/// Request id of a sample record.
fn request_id(rec: &Record) -> u64 {
    rec.analyst as u64 * 1_000_000 + rec.index as u64
}

/// Runs the traced mode and returns the result line. `untraced_setup`
/// times an untraced set-up run first in a process of its own, as the
/// traced set-up is run here.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    csv: &Path,
    work: &Path,
    untraced_setup: impl Fn() -> Result<f64, String>,
) -> Result<String, String> {
    let mut failures: Vec<String> = Vec::new();

    // The traced set-up runs first in the process, so each stage's peak
    // is its own. The untraced reference runs once before it and once
    // after it, so that a steady drift in the machine's speed cancels.
    let before_s = untraced_setup()?;
    let mut tr = Tracer::new();
    let mut peaks = Vec::new();
    let rp = traced_setup(&mut tr, &mut peaks, csv)?;
    let traced_setup_s = tr.total_s("setup");
    let after_s = untraced_setup()?;
    let reference_setup_s = (before_s + after_s) / 2.0;
    println!(
        "  set-up: traced {traced_setup_s:.3} s; untraced {before_s:.3} s before, \
         {after_s:.3} s after"
    );
    let layer_sum_s: f64 = SETUP_LAYERS.iter().map(|l| tr.total_s(l)).sum();

    // Set-up and the measured phase as timed runs do them, then the
    // sample through the library's own entry points.
    let lists = workload.requests(seed);
    let (server, _) = serve::setup(csv)?;
    let analysts = lists.len();
    let phase = serve::closed_loop(&server, &lists, seconds);
    let checks = check::check_records(server.subtab(), &lists, &phase.records);
    failures.extend(checks.messages.iter().cloned());
    let stats = server.stats();
    let (leaf_hits, leaf_misses) = (phase.leaf_hits, phase.leaf_misses);
    let quality = check::quality(server.subtab(), &phase.records, analysts);
    if quality.is_none() {
        failures.push("too few displays to score quality".into());
    }

    let mut sample: Vec<&Record> = phase
        .records
        .iter()
        .filter(|r| r.index < REPLAY_PER_ANALYST)
        .collect();
    sample.sort_by_key(|r| (r.analyst, r.index));
    if sample.len() < REPLAY_PER_ANALYST * analysts {
        failures.push(format!("only {} requests to replay", sample.len()));
    }

    let subtab = server.subtab();
    let mut library_ms: HashMap<u64, f64> = HashMap::new();
    let mut library_out: HashMap<u64, Result<SubTableResult, String>> = HashMap::new();
    let library_start = Instant::now();
    let mut rules = RulesCache::new();
    for analyst in 0..analysts {
        let mut leaf = LeafBitmapCache::new();
        for rec in sample.iter().filter(|r| r.analyst == analyst) {
            let req = rec.req(&lists);
            if req.is_landing() {
                leaf = LeafBitmapCache::new();
            }
            let t = Instant::now();
            let out = library_request(subtab, req, &leaf, &mut rules);
            library_ms.insert(request_id(rec), t.elapsed().as_secs_f64() * 1e3);
            library_out.insert(request_id(rec), out);
        }
    }
    let library_s = library_start.elapsed().as_secs_f64();

    let replay_start = Instant::now();
    let mut rules = RulesCache::new();
    let mut replayed: HashMap<u64, Result<SubTableResult, String>> = HashMap::new();
    for analyst in 0..analysts {
        let mut leaf = LeafBitmapCache::new();
        for rec in sample.iter().filter(|r| r.analyst == analyst) {
            let id = request_id(rec);
            let req = rec.req(&lists);
            if req.is_landing() {
                leaf = LeafBitmapCache::new();
            }
            let out = tr.span("request", Some(id), |tr| {
                replay_request(tr, &rp, req, &leaf, &mut rules)
            });
            replayed.insert(id, out);
        }
    }
    let replay_s = replay_start.elapsed().as_secs_f64();

    // Fidelity: the replayed embedding, token plane, row cache and every
    // sampled sub-table equal the served ones bit for bit.
    let pre = subtab.preprocessed();
    let (served_plane, served_rows) = (pre.plane(), pre.full_row_vectors());
    if !same_embedding(&rp.embedding, pre.embedding()) {
        failures.push("replayed embedding differs from the served one".into());
    }
    if (0..rp.plane.num_rows()).any(|r| rp.plane.row_ids(r) != served_plane.row_ids(r))
        || rp.plane.num_rows() != served_plane.num_rows()
    {
        failures.push("replayed token plane differs".into());
    }
    if !same_bits(rp.full_rows.data(), served_rows.data()) {
        failures.push("replayed full-row vectors differ".into());
    }
    let mut failed_requests = checks.failed.len() as u64;
    let mut overheads = Vec::new();
    for rec in &sample {
        let id = request_id(rec);
        let served = match rec.outcome.as_ref().map(|s| s.full.as_ref()) {
            Ok(Some(r)) => Fingerprint::of(r),
            Ok(None) => {
                failures.push(format!("request {} kept no result", rec.index));
                continue;
            }
            Err(_) => continue,
        };
        let agree = |out: Option<&Result<SubTableResult, String>>| matches!(out, Some(Ok(r)) if Fingerprint::of(r) == served);
        if !agree(replayed.get(&id)) || !agree(library_out.get(&id)) {
            failures.push(format!(
                "analyst {} request {}: replay differs from the served sub-table",
                rec.analyst, rec.index
            ));
            failed_requests += 1;
        }
        if rec.is_miss() {
            overheads.push(rec.latency_ms - library_ms[&id]);
        }
    }
    let setup_gap = (traced_setup_s - layer_sum_s).abs() / traced_setup_s;
    if setup_gap > SETUP_SUM_TOLERANCE {
        failures.push(format!(
            "set-up layers sum to {layer_sum_s:.3} s of a {traced_setup_s:.3} s set-up"
        ));
    }

    let trace_path = work.join(format!("trace-{}-{seed}.tsv", workload.name()));
    tr.write(&trace_path)
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;

    println!(
        "  measured phase: {} requests; replayed {} of them; spans in {}",
        phase.records.len(),
        sample.len(),
        trace_path.display()
    );
    println!("  stage residency (MiB; before, peak, after):");
    for p in &peaks {
        println!(
            "    {:<20} {:>9.1} {:>9.1} {:>9.1}",
            p.name, p.rss_before_mib, p.peak_mib, p.rss_after_mib
        );
    }
    let self_ms = tr.self_ms();
    println!("  self time (ms):");
    for (name, ms) in &self_ms {
        println!("    {name:<24} {ms:>12.3}");
    }
    for f in &failures {
        println!("  check failed: {f}");
    }

    let mut m = Metrics::default();
    for layer in SETUP_LAYERS {
        m.put(
            &format!("{layer}_ms"),
            self_ms.get(layer).copied().unwrap_or(0.0),
            "ms",
        );
    }
    for p in &peaks {
        m.put(&format!("{}_peak_mib", p.name), p.peak_mib, "MiB");
    }
    m.put("embed.vocab", rp.embedding.len() as f64, "count");
    m.put("trace.setup_s", traced_setup_s, "s");
    m.put(
        "trace.setup_layer_share",
        layer_sum_s / traced_setup_s,
        "ratio",
    );
    for layer in REQUEST_LAYERS {
        m.put(
            &format!("{layer}_ms"),
            self_ms.get(layer).copied().unwrap_or(0.0),
            "ms",
        );
    }
    m.put(
        "core.candidate_rows",
        tr.counted("core.candidate_rows"),
        "count",
    );
    m.put(
        "cluster.kmeans_iters",
        tr.counted("cluster.kmeans_iters"),
        "count",
    );
    m.put("rules.rules", tr.counted("rules.rules"), "count");
    m.put(
        "core.leaf_hit_ratio",
        ratio(leaf_hits, leaf_hits + leaf_misses),
        "ratio",
    );
    m.put(
        "server.select_hit_ratio",
        stats.select_cache.hit_rate(),
        "ratio",
    );
    m.put(
        "server.rules_hit_ratio",
        stats.rules_cache.hit_rate(),
        "ratio",
    );
    m.put("server.overhead_ms", median(&overheads), "ms");
    let q = quality.unwrap_or(check::Quality {
        combined: 0.0,
        coverage: 0.0,
        diversity: 0.0,
        scored: 0,
    });
    m.put("metrics.coverage", q.coverage, "score");
    m.put("metrics.diversity", q.diversity, "score");
    m.put(
        "trace.overhead_pct",
        ((traced_setup_s + replay_s) / (reference_setup_s + library_s) - 1.0) * 100.0,
        "%",
    );
    let correct = failures.is_empty() && m.all_finite() && m.names() == PER_LAYER;
    Ok(m.result_line(correct, phase.records.len() as u64, failed_requests))
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn same_embedding(a: &CellEmbedding, b: &CellEmbedding) -> bool {
    a.dim() == b.dim()
        && a.tokens() == b.tokens()
        && a.quantization() == b.quantization()
        && same_bits(a.matrix(), b.matrix())
}
