//! Set-up and the closed-loop measured phase against the in-process server.

use crate::check::Fingerprint;
use crate::gen::Req;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use subtab_core::{SubTabConfig, SubTableResult};
use subtab_data::csv::read_csv_file;
use subtab_data::Table;
use subtab_server::{ExplorationServer, ServerConfig, SessionId};

/// Two workers and one heavy slot: one worker per core of the 2-core
/// machine the figures were taken on, and one analyst per worker.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        heavy_slots: 1,
        ..Default::default()
    }
}

/// Loads the CSV, preprocesses it with the default configuration, fills
/// the full-row-vector cache and starts the server. Returns the server and
/// the wall time in seconds.
pub fn setup(csv: &Path) -> Result<(ExplorationServer, f64), String> {
    let start = Instant::now();
    let table = read_csv_file(csv).map_err(|e| format!("reading {}: {e}", csv.display()))?;
    let server = ExplorationServer::new(table, SubTabConfig::default(), server_config())
        .map_err(|e| format!("preprocessing: {e}"))?;
    server.subtab().preprocessed().full_row_vectors();
    Ok((server, start.elapsed().as_secs_f64()))
}

/// Requests per analyst whose full result the harness keeps: the quality
/// sample and the traced replay's sample. Of the others it keeps only
/// what the output checks need, so its own memory stays small beside the
/// server's.
pub const KEPT_PER_ANALYST: usize = 40;

/// What the harness keeps of a served sub-table.
#[derive(Debug, Clone)]
pub struct Served {
    /// Whether a cache answered.
    pub hit: bool,
    /// Selected rows of the source table.
    pub rows: Vec<usize>,
    /// Selected columns, as schema indices.
    pub columns: Vec<usize>,
    /// Rows and columns of the assembled sub-table.
    pub shape: (usize, usize),
    /// Number of highlight entries.
    pub highlights: usize,
    /// Digests of the plain display and of its highlights.
    pub digests: (u64, u64),
    /// The full result, for the first [`KEPT_PER_ANALYST`] requests.
    pub full: Option<Arc<SubTableResult>>,
}

impl Served {
    pub fn new(result: &Arc<SubTableResult>, hit: bool, table: &Table, keep: bool) -> Self {
        Served {
            hit,
            rows: result.row_indices.clone(),
            columns: result.column_indices(table),
            shape: (result.sub_table.num_rows(), result.sub_table.num_columns()),
            highlights: result.highlights.len(),
            digests: Fingerprint::of(result).digests(),
            full: keep.then(|| Arc::clone(result)),
        }
    }
}

/// One request of the measured phase.
#[derive(Debug, Clone)]
pub struct Record {
    /// Which analyst sent it.
    pub analyst: usize,
    /// Position in that analyst's stream, counting from the start again
    /// after the end of its list.
    pub index: usize,
    /// Seconds from the phase start to the reply.
    pub done_s: f64,
    /// Send-to-reply latency.
    pub latency_ms: f64,
    /// What was served, or the error.
    pub outcome: Result<Served, String>,
}

impl Record {
    /// The request, looked up in the analysts' lists.
    pub fn req<'a>(&self, lists: &'a [Vec<Req>]) -> &'a Req {
        let list = &lists[self.analyst];
        &list[self.index % list.len()]
    }

    /// Whether the request succeeded and missed the result cache.
    pub fn is_miss(&self) -> bool {
        matches!(self.outcome, Ok(Served { hit: false, .. }))
    }

    /// Whether a cache answered the request.
    pub fn is_hit(&self) -> bool {
        matches!(self.outcome, Ok(Served { hit: true, .. }))
    }
}

/// The records of a measured phase.
pub struct Phase {
    /// Every request sent, in completion order.
    pub records: Vec<Record>,
    /// Leaf-bitmap cache hits and misses, summed over the closed sessions.
    pub leaf_hits: u64,
    /// See `leaf_hits`.
    pub leaf_misses: u64,
    /// Requests that completed within the measured window.
    pub completed_in_window: usize,
    /// Length of the measured window in seconds.
    pub seconds: f64,
}

/// How long a client thread serves one analyst before the analysts swap
/// threads. On a 2-vCPU virtual machine each client thread, and the worker
/// it hands its request to, stays on one vCPU for seconds at a time, while
/// each vCPU's speed switches between two levels about 1.7× apart every
/// few seconds, with no steal time reported. Without the swap, an
/// analyst's latencies followed a single vCPU's speed. Swapping several
/// times a second spreads each analyst's requests over both vCPUs.
const SWAP_SECONDS: f64 = 0.25;

/// One analyst's place in its list and what it has recorded so far.
struct Stream<'a> {
    analyst: usize,
    list: &'a [Req],
    next: usize,
    session: Option<SessionId>,
    records: Vec<Record>,
    leaf_hits: u64,
    leaf_misses: u64,
}

impl Stream<'_> {
    fn close_session(&mut self, server: &ExplorationServer) {
        if let Some(session) = self.session.take() {
            let st = server
                .leaf_cache_stats(session)
                .expect("the session is open");
            self.leaf_hits += st.hits;
            self.leaf_misses += st.misses;
            server.close_session(session).expect("the session is open");
        }
    }

    /// Sends the analyst's next request, waits for the reply and records
    /// it. Each landing display opens a new server session and closes the
    /// previous one, as an analyst starting over would.
    fn serve_next(&mut self, server: &ExplorationServer, start: Instant) {
        let index = self.next;
        self.next += 1;
        let req = &self.list[index % self.list.len()];
        if req.is_landing() {
            self.close_session(server);
        }
        let session = *self.session.get_or_insert_with(|| server.open_session());
        let request = req.to_request();
        let sent = Instant::now();
        let reply = server.execute(session, request);
        let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
        let table = server.subtab().table();
        let keep = index < KEPT_PER_ANALYST;
        let outcome = match reply {
            Ok(o) => match o.response.sub_table() {
                Some(r) => Ok(Served::new(r, o.cache_hit, table, keep)),
                None => Err("reply carries no sub-table".to_string()),
            },
            Err(e) => Err(e.to_string()),
        };
        self.records.push(Record {
            analyst: self.analyst,
            index,
            done_s: start.elapsed().as_secs_f64(),
            latency_ms,
            outcome,
        });
    }
}

/// Runs the analysts for `seconds` on one client thread each: an analyst
/// sends a request of its list, waits for its reply and only then sends
/// the next, starting the list over at its end. Every [`SWAP_SECONDS`]
/// the analysts change client threads; an analyst is served by one thread
/// at a time, so each still has one request in flight at most. A
/// session's leaf-bitmap cache lives as long as the session. A request in
/// flight when the window closes still completes and is recorded, but
/// does not count towards throughput.
pub fn closed_loop(server: &ExplorationServer, lists: &[Vec<Req>], seconds: f64) -> Phase {
    let streams: Vec<Mutex<Stream>> = lists
        .iter()
        .enumerate()
        .map(|(analyst, list)| {
            Mutex::new(Stream {
                analyst,
                list,
                next: 0,
                session: None,
                records: Vec::new(),
                leaf_hits: 0,
                leaf_misses: 0,
            })
        })
        .collect();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for thread in 0..streams.len() {
            let streams = &streams;
            scope.spawn(move || loop {
                let elapsed = start.elapsed().as_secs_f64();
                if elapsed >= seconds {
                    break;
                }
                let turn = (elapsed / SWAP_SECONDS) as usize;
                let mut stream = streams[(thread + turn) % streams.len()]
                    .lock()
                    .expect("a client thread panicked");
                if start.elapsed().as_secs_f64() < seconds {
                    stream.serve_next(server, start);
                }
            });
        }
    });
    let mut streams: Vec<Stream> = streams
        .into_iter()
        .map(|s| s.into_inner().expect("a client thread panicked"))
        .collect();
    for stream in &mut streams {
        stream.close_session(server);
    }
    let leaf_hits = streams.iter().map(|s| s.leaf_hits).sum();
    let leaf_misses = streams.iter().map(|s| s.leaf_misses).sum();
    let mut records: Vec<Record> = streams.into_iter().flat_map(|s| s.records).collect();
    records.sort_by(|a, b| a.done_s.total_cmp(&b.done_s));
    let completed_in_window = records.iter().filter(|r| r.done_s <= seconds).count();
    Phase {
        records,
        leaf_hits,
        leaf_misses,
        completed_in_window,
        seconds,
    }
}
