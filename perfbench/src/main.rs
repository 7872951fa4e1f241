//! End-to-end benchmark of the SubTab exploration server.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload browse --seed 1 --seconds 36 --trace 0
//! ```
//!
//! The seed generates a planted table, which is written to a CSV file, and
//! two analysts' request lists. Set-up loads the CSV and preprocesses it
//! with `SubTabConfig::default()`; two analysts then drive the in-process
//! `ExplorationServer` in a closed loop. `--trace 0` runs three
//! repetitions of set-up plus a third of `--seconds` of serving, each in a
//! fresh child process. Set-up time and peak memory are the medians over
//! the repetitions; latency percentiles and throughput pool their samples.
//! `--trace 1` serves for `--seconds` in one process, then replays set-up
//! and a sample of the requests layer by layer and reports per-layer
//! metrics; untraced set-ups in fresh child processes, one before and one
//! after the traced set-up, are the reference for the tracing overhead.
//! The last line of standard output is the JSON result.

mod check;
mod gen;
mod report;
mod serve;
mod trace;

use gen::Workload;
use report::{median, reset_peak, status_mib, summarize, Metrics};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Repetitions of set-up and measured phase per timed run. Each runs in a
/// fresh process, as a restarted server would. The machine's speed moves
/// between repetitions (each vCPU switches between two speeds about 1.7×
/// apart, see `serve::SWAP_SECONDS`), so percentiles pool the samples of
/// all repetitions rather than take a median of three.
const REPETITIONS: usize = 3;

/// Prefix of the lines a repetition's child process reports to the parent.
const REP_PREFIX: &str = "repetition-";

/// The tail percentile of both kinds of request. Pooled over three 12 s
/// repetitions on a 2-core machine, p95 had 280–700 plain selects and
/// 160–400 highlighted ones beyond it over 40 runs; a run with fewer than
/// ten is not correct. With 8 s repetitions, p99 of the selects had only 40–100
/// samples beyond it, and over two sets of ten `browse` runs its spread
/// (quartile distance over median) was 0.24 and 0.28, where p95 spread by
/// 0.16.
const TAIL_Q: f64 = 0.95;

/// The end-to-end metrics, in the order `BENCHMARK.json` lists them.
const END_TO_END: [&str; 8] = [
    "setup_s",
    "peak_rss_mib",
    "select_p50_ms",
    "select_tail_ms",
    "highlight_p50_ms",
    "highlight_tail_ms",
    "throughput_rps",
    "quality_combined",
];

/// Directory (relative to the working directory) for the generated CSV and
/// the trace file.
const WORK_DIR: &str = ".perfbench";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in the child process that runs one repetition.
    repetition: Option<usize>,
    /// Set in the child process that only times an untraced set-up.
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let find = |flag: &str| -> Option<Result<String, String>> {
        let at = argv.iter().position(|a| a == flag)?;
        Some(
            argv.get(at + 1)
                .cloned()
                .ok_or(format!("{flag} needs a value")),
        )
    };
    let get = |flag: &str| find(flag).unwrap_or(Err(format!("missing {flag}")));
    let name = get("--workload")?;
    let workload = Workload::from_name(&name).ok_or(format!("unknown workload {name}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    let repetition = find("--repetition")
        .transpose()?
        .map(|r| r.parse().map_err(|e| format!("--repetition: {e}")))
        .transpose()?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        repetition,
        setup_only: argv.iter().any(|a| a == "--setup-only"),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload browse|highlight --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn csv_path(args: &Args) -> PathBuf {
    Path::new(WORK_DIR).join(format!("{}-{}.csv", args.workload.name(), args.seed))
}

fn run(args: &Args) -> Result<String, String> {
    if let Some(index) = args.repetition {
        return repetition(args, index).map(|r| r.to_lines());
    }
    if args.setup_only {
        let (_, setup_s) = serve::setup(&csv_path(args))?;
        return Ok(format!("{REP_PREFIX}result setup_s={setup_s:?}"));
    }
    let work = PathBuf::from(WORK_DIR);
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {WORK_DIR}: {e}"))?;
    let csv = csv_path(args);
    let dataset = args.workload.dataset(args.seed);
    subtab_data::csv::write_csv_file(&dataset.table, &csv).map_err(|e| e.to_string())?;
    println!(
        "perfbench {} seed {}: {} x {} table, {} s of serving, trace {}",
        args.workload.name(),
        args.seed,
        dataset.table.num_rows(),
        dataset.table.num_columns(),
        args.seconds,
        args.trace as u8
    );
    drop(dataset);
    let result = if args.trace {
        trace::run(args.workload, args.seed, args.seconds, &csv, &work, || {
            child(args, &["--setup-only"], args.seconds).map(|r| r.get("setup_s"))
        })
    } else {
        timed(args)
    };
    let _ = std::fs::remove_file(&csv);
    result
}

/// Runs this program in a child process with `extra` arguments and a
/// window of `seconds`, passes its log through and parses its report.
fn child(args: &Args, extra: &[&str], seconds: f64) -> Result<RepResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let out = Command::new(&exe)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", "0"])
        .args(extra)
        .output()
        .map_err(|e| format!("starting a child process: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    for line in stdout.lines().filter(|l| !l.starts_with(REP_PREFIX)) {
        println!("{line}");
    }
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    if !out.status.success() {
        return Err(format!("child process {extra:?} failed: {}", out.status));
    }
    RepResult::parse(&stdout)
}

/// Runs the repetitions in child processes and reports their metrics.
fn timed(args: &Args) -> Result<String, String> {
    let window = args.seconds / REPETITIONS as f64;
    let mut reps = Vec::with_capacity(REPETITIONS);
    for index in 0..REPETITIONS {
        reps.push(child(args, &["--repetition", &index.to_string()], window)?);
    }

    let mut m = Metrics::default();
    let med = |key: &str| median(&reps.iter().map(|r| r.get(key)).collect::<Vec<_>>());
    let sum = |key: &str| reps.iter().map(|r| r.get(key)).sum::<f64>();
    m.put("setup_s", med("setup_s"), "s");
    m.put("peak_rss_mib", med("peak_mib"), "MiB");
    let mut ok = true;
    for kind in ["select", "highlight"] {
        let pooled: Vec<f64> = reps.iter().flat_map(|r| r.samples(kind)).collect();
        let Some(s) = summarize(&pooled, TAIL_Q) else {
            println!("  {kind}: no samples");
            ok = false;
            continue;
        };
        println!(
            "  {kind}: p50 and p{:.0} over {} misses of {REPETITIONS} repetitions, {} beyond",
            TAIL_Q * 100.0,
            s.count,
            s.beyond
        );
        ok &= s.tail_ok();
        m.put(&format!("{kind}_p50_ms"), s.p50, "ms");
        m.put(&format!("{kind}_tail_ms"), s.tail, "ms");
    }
    m.put("throughput_rps", sum("completed") / sum("window_s"), "1/s");
    // The quality sample is the same in every repetition.
    m.put("quality_combined", reps[0].get("quality"), "score");
    ok &= reps.iter().all(|r| r.get("ok") == 1.0) && m.names() == END_TO_END;
    let failed = sum("failed") as u64;
    let correct = ok && failed == 0 && m.all_finite();
    Ok(m.result_line(correct, sum("attempted") as u64, failed))
}

/// What one repetition reports to the parent process: named numbers on a
/// `repetition-result` line, and the latency samples of each kind on a
/// `repetition-samples <kind>` line.
#[derive(Default)]
struct RepResult {
    values: HashMap<String, f64>,
    samples: HashMap<String, Vec<f64>>,
}

impl RepResult {
    fn get(&self, key: &str) -> f64 {
        self.values.get(key).copied().unwrap_or(f64::NAN)
    }

    fn samples(&self, kind: &str) -> impl Iterator<Item = f64> + '_ {
        self.samples.get(kind).into_iter().flatten().copied()
    }

    fn to_lines(&self) -> String {
        let mut values: Vec<_> = self.values.iter().collect();
        values.sort_by(|a, b| a.0.cmp(b.0));
        let mut out = format!("{REP_PREFIX}result");
        for (k, v) in values {
            out.push_str(&format!(" {k}={v:?}"));
        }
        let mut kinds: Vec<_> = self.samples.iter().collect();
        kinds.sort_by(|a, b| a.0.cmp(b.0));
        for (kind, samples) in kinds {
            out.push_str(&format!("\n{REP_PREFIX}samples {kind}"));
            for v in samples {
                out.push_str(&format!(" {v:?}"));
            }
        }
        out
    }

    fn parse(stdout: &str) -> Result<Self, String> {
        let mut r = RepResult::default();
        let number = |f: &str| f.parse::<f64>().map_err(|e| format!("bad number {f}: {e}"));
        for line in stdout.lines() {
            let mut fields = line.split_whitespace();
            match fields.next() {
                Some(tag) if tag == format!("{REP_PREFIX}result") => {
                    for f in fields {
                        let (k, v) = f.split_once('=').ok_or(format!("bad field {f}"))?;
                        r.values.insert(k.to_string(), number(v)?);
                    }
                }
                Some(tag) if tag == format!("{REP_PREFIX}samples") => {
                    let kind = fields.next().ok_or("samples line without a kind")?;
                    let v = fields.map(number).collect::<Result<Vec<_>, _>>()?;
                    r.samples.insert(kind.to_string(), v);
                }
                _ => {}
            }
        }
        if r.values.is_empty() {
            return Err("a repetition printed no result".into());
        }
        Ok(r)
    }
}

/// One repetition, in its own process: set-up, the closed loop, the output
/// checks and, in the first repetition, the quality score.
fn repetition(args: &Args, index: usize) -> Result<RepResult, String> {
    // The request lists are generated, and the generator's table dropped,
    // before the high-water mark is reset: the generator's peak stays out
    // of `peak_rss_mib`.
    let lists = args.workload.requests(args.seed);
    if !reset_peak() {
        return Err("cannot reset the resident high-water mark".into());
    }
    let (server, setup_s) = serve::setup(&csv_path(args))?;
    let analysts = lists.len();
    let phase = serve::closed_loop(&server, &lists, args.seconds);
    let peak = status_mib("VmHWM").ok_or("cannot read VmHWM")?;
    let checks = check::check_records(server.subtab(), &lists, &phase.records);
    for m in &checks.messages {
        println!("  check failed: {m}");
    }
    let mut r = RepResult::default();
    let mut ok = true;
    if index == 0 {
        match check::quality(server.subtab(), &phase.records, analysts) {
            Some(q) => {
                println!("  quality over {} displays: {:.4}", q.scored, q.combined);
                r.values.insert("quality".into(), q.combined);
            }
            None => {
                println!("  too few displays to score quality");
                ok = false;
            }
        }
    }
    let hits = phase.records.iter().filter(|r| r.is_hit()).count();
    println!(
        "  repetition {index}: set-up {setup_s:.3} s, peak {peak:.1} MiB, {} requests \
         ({hits} cache hits, {} failed), {:.1} req/s",
        phase.records.len(),
        checks.failed.len(),
        phase.completed_in_window as f64 / phase.seconds,
    );
    for kind in ["select", "highlight"] {
        let samples = latencies(&lists, &phase.records, kind == "highlight");
        println!(
            "    {kind}: p50 {:.3} ms over {} misses",
            median(&samples),
            samples.len()
        );
        r.samples.insert(kind.into(), samples);
    }
    for (k, v) in [
        ("setup_s", setup_s),
        ("peak_mib", peak),
        ("completed", phase.completed_in_window as f64),
        ("window_s", phase.seconds),
        ("attempted", phase.records.len() as f64),
        ("failed", checks.failed.len() as f64),
        ("ok", if ok { 1.0 } else { 0.0 }),
    ] {
        r.values.insert(k.into(), v);
    }
    Ok(r)
}

/// Latencies of requests that succeeded and missed the result cache:
/// highlighted selects or plain ones.
fn latencies(lists: &[Vec<gen::Req>], records: &[serve::Record], highlighted: bool) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.is_miss() && r.req(lists).is_highlighted() == highlighted)
        .map(|r| r.latency_ms)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `name` values of one list in `BENCHMARK.json`.
    fn listed(list: &str) -> Vec<String> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json.find(&format!("\"{list}\"")).expect("list present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("list closed")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("name closed")].to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_what_the_runs_print() {
        assert_eq!(listed("workloads"), Workload::ALL.map(Workload::name));
        assert_eq!(listed("end_to_end"), END_TO_END);
        assert_eq!(listed("per_layer"), trace::PER_LAYER);
        for name in END_TO_END.iter().chain(&trace::PER_LAYER) {
            assert!(report::valid_metric_name(name), "{name}");
        }
    }
}
