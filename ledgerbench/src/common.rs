//! Pieces every workload shares: the run configuration, the report, the
//! HTTP endpoint, set-up repetitions, the commit phase and memory reads.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use sparqlog::{Snapshot, Store};
use sparqlog_benchdata::rng::StdRng;
use sparqlog_http::{ServerConfig, ServerHandle, SparqlServer};

use crate::ledger::{self, Check, Meter};
use crate::stats::{self, ms, Tally};
use crate::writes::{self, WriteStream};

/// Set-ups per run; `setup_s` is their median plus one warm-up pass.
pub const SETUP_REPS: usize = 3;

/// Share of a closed-loop run's measured time given to its commit
/// phase; the read passes get the rest.
pub const COMMIT_SHARE: f64 = 1.0 / 6.0;

/// Updates the commit phase makes at least (p90 needs 100 samples).
pub const MIN_UPDATES: usize = 120;

pub const JSON: &str = "application/sparql-results+json";

#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Config {
    pub fn rng(&self, stream: u64) -> StdRng {
        StdRng::seed_from_u64(self.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream)
    }
}

/// What a run found: counts, problems and metric values.
#[derive(Default)]
pub struct Report {
    pub tally: Tally,
    pub problems: Vec<String>,
    /// End-to-end metrics: value and sample count.
    pub e2e: BTreeMap<&'static str, (f64, usize)>,
    /// Per-layer metrics (traced runs).
    pub layers: BTreeMap<&'static str, f64>,
    /// Sample counts of the per-layer percentiles.
    pub layer_samples: BTreeMap<&'static str, usize>,
    pub notes: Vec<String>,
}

impl Report {
    /// A verification failure against an operation already counted.
    pub fn fail(&mut self, msg: String) {
        self.tally.fail_one();
        self.problem(msg);
    }

    /// A failure that is not tied to one counted operation (set-up,
    /// ledger drift); it still makes the run incorrect.
    pub fn problem(&mut self, msg: String) {
        if self.problems.len() < 50 {
            self.problems.push(msg);
        }
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }

    /// The `q`-quantile of `xs` as a per-layer metric with its sample
    /// count; a problem when too few samples lie beyond it.
    pub fn layer_percentile(&mut self, name: &'static str, xs: &[f64], q: f64) {
        match stats::percentile(xs, q) {
            Some(v) => {
                self.layers.insert(name, v);
                self.layer_samples.insert(name, xs.len());
            }
            None => self.problem(format!(
                "{name}: {} samples cannot support the {q} quantile ({} must lie beyond it)",
                xs.len(),
                stats::MIN_BEYOND
            )),
        }
    }

    pub fn ledger(&mut self, checks: &[Check]) {
        for msg in ledger::drift(checks) {
            self.problem(msg);
        }
    }
}

/// A running endpoint over a store, with one worker: the closed loop
/// keeps one request in flight, and with the default four workers the
/// request lands on whichever is parked, so each worker's allocator
/// arena grows on its own and `peak_rss_mb` spread 14–21% across seeds
/// (5% with one).
pub struct Server {
    pub addr: SocketAddr,
    handle: ServerHandle,
    thread: JoinHandle<()>,
}

impl Server {
    pub fn start(store: Arc<Store>) -> Result<Server, String> {
        let config = ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        };
        let bound = SparqlServer::with_config(store, config)
            .bind("127.0.0.1:0")
            .map_err(|e| format!("bind: {e}"))?;
        let addr = bound.local_addr().map_err(|e| e.to_string())?;
        let handle = bound.handle().map_err(|e| e.to_string())?;
        let thread = std::thread::spawn(move || bound.serve());
        Ok(Server {
            addr,
            handle,
            thread,
        })
    }

    /// Stops the accept loops and waits for them.
    pub fn stop(self) {
        self.handle.shutdown();
        if self.thread.join().is_err() {
            eprintln!("server thread panicked");
        }
    }
}

/// Resident set size fields of this process, in bytes.
pub fn rss_bytes(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with(field))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0)
}

/// Runs `build` [`SETUP_REPS`] times, dropping all but the last result.
/// Returns it with the wall time of each repetition in seconds.
pub fn repeat_setup<T>(
    mut build: impl FnMut(usize) -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<(T, Vec<f64>), String> {
    let mut walls = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        if let Some(old) = kept.take() {
            discard(old);
        }
        let t0 = Instant::now();
        kept = Some(build(rep)?);
        walls.push(t0.elapsed().as_secs_f64());
    }
    Ok((kept.expect("at least one set-up"), walls))
}

/// Seeded Fisher–Yates order of `0..n`.
pub fn shuffled(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.gen_range(0..i + 1));
    }
    v
}

/// Latency samples a workload collected in its measured phase.
#[derive(Default)]
pub struct Timings {
    pub setup_s: f64,
    /// Per query: latencies in ms.
    pub per_query: Vec<(String, Vec<f64>)>,
    /// Every read latency, ms.
    pub reads: Vec<f64>,
    /// Every write latency, ms.
    pub writes: Vec<f64>,
}

/// Turns the samples into the end-to-end metrics, and in traced runs
/// the latency percentiles; a metric the samples cannot support is a
/// problem, not a printed guess.
pub fn end_to_end(t: &Timings, trace: bool, rep: &mut Report) {
    rep.e2e.insert("setup_s", (t.setup_s, SETUP_REPS));
    let medians: Vec<f64> = t
        .per_query
        .iter()
        .filter_map(|(_, xs)| stats::median(xs))
        .collect();
    for ((id, xs), m) in t.per_query.iter().zip(&medians) {
        rep.notes
            .push(format!("query {id}: median {m:.3} ms (n={})", xs.len()));
    }
    if medians.len() != t.per_query.len() || medians.is_empty() {
        rep.problem("a query has no latency sample".into());
    } else {
        let n = t.reads.len();
        rep.e2e
            .insert("suite_s", (medians.iter().sum::<f64>() / 1e3, n));
        match stats::geomean(&medians) {
            Some(g) => {
                rep.e2e.insert("query_geomean_ms", (g, n));
            }
            None => rep.problem("a per-query median is not positive".into()),
        }
    }
    // Percentiles over a mixed query list jump between queries as
    // their ranks shift, and commit latency moves by a third between
    // runs, so these are reported per layer, ungated. A read tail over
    // a closed loop of a fixed list is its slowest query, printed per
    // query above, and p99 would need 1000 reads a run does not make.
    if trace {
        rep.layer_percentile("bench.read_p50_ms", &t.reads, 0.5);
        rep.layer_percentile("bench.write_p50_ms", &t.writes, 0.5);
        rep.layer_percentile("bench.write_p90_ms", &t.writes, 0.9);
    }
    rep.e2e
        .insert("peak_rss_mb", (rss_bytes("VmHWM:") / (1024.0 * 1024.0), 1));
}

/// The commit phase of the closed-loop workloads: after the read passes,
/// back-to-back updates go through `Store::update` on the queried store
/// (statistics collected, plans cached) for `seconds`, at least
/// [`MIN_UPDATES`] of them, while one subscription watches the written
/// pattern. Each update runs while a snapshot of the current version is
/// held, as an in-flight read pins one, so its first commit takes the
/// copy path; the second finds the new version unshared. Fills the
/// store and subscription per-layer metrics.
pub fn commit_phase(
    store: &Store,
    subjects: Vec<String>,
    cfg: &Config,
    seconds: f64,
    meter: &Meter,
    timings: &mut Timings,
    rep: &mut Report,
) {
    let mut stream = WriteStream::new(subjects, cfg.seed);
    let sub = match writes::prime(store, &mut stream) {
        Ok(s) => s,
        Err(e) => return rep.problem(e),
    };
    let facts = store.fact_count();
    let before = meter.read();
    let mut update_ms = Vec::new();
    let mut deltas = 0;
    let start = Instant::now();
    while update_ms.len() < MIN_UPDATES || start.elapsed().as_secs_f64() < seconds {
        let text = stream.next_update();
        let pinned = store.snapshot();
        let (lat, n, problem) = writes::step(store, &sub, &text);
        drop(pinned);
        deltas += n;
        rep.tally.record(problem.is_none());
        if let Some(p) = problem {
            rep.problem(p);
        }
        update_ms.push(ms(lat));
    }
    let d = meter.read().since(&before);
    if store.fact_count() != facts {
        rep.fail(format!(
            "fact count moved from {facts} to {} over replace-5-with-5 updates",
            store.fact_count()
        ));
    }
    let n = update_ms.len() as u64;
    let mut checks = write_checks(&d, n, deltas);
    // Each commit re-runs the standing query once; nothing else queries.
    checks.push(Check {
        what: "sparqlog_queries_total",
        registry: d.queries,
        ours: deltas,
    });
    rep.ledger(&checks);
    store_layers(rep, &d, &update_ms, n);
    timings.writes = update_ms;
}

/// Ledger checks for `n` updates that produced `deltas` subscription
/// deltas. Every commit touches the watched pattern, so each commit
/// must have produced exactly one delta.
pub fn write_checks(d: &ledger::Reading, n: u64, deltas: u64) -> Vec<Check> {
    let per = writes::PER_UPDATE as u64;
    vec![
        Check {
            what: "sparqlog_store_commits_total",
            registry: d.commits,
            ours: deltas,
        },
        Check {
            what: "sparqlog_store_rows_added_total",
            registry: d.rows_added,
            ours: per * n,
        },
        Check {
            what: "sparqlog_store_rows_removed_total",
            registry: d.rows_removed,
            ours: per * n,
        },
        Check {
            what: "sparqlog_subscription_notifications_total",
            registry: d.notifications,
            ours: deltas,
        },
    ]
}

/// The `core.store` and `core.subscribe` per-layer metrics of a phase
/// that made `n` updates.
pub fn store_layers(rep: &mut Report, d: &ledger::Reading, update_ms: &[f64], n: u64) {
    let n = n as f64;
    rep.layer("core.store.update_ms", stats::mean_or_zero(update_ms));
    rep.layer(
        "core.store.commit_us",
        stats::ratio(d.commit_us_sum as f64, d.commit_us_count as f64),
    );
    rep.layer(
        "core.store.maintained_ratio",
        stats::ratio(
            d.removals_maintained as f64,
            (d.removals_maintained + d.removals_fallback) as f64,
        ),
    );
    rep.layer("core.store.commits", stats::ratio(d.commits as f64, n));
    rep.layer(
        "core.store.rows_added",
        stats::ratio(d.rows_added as f64, n),
    );
    rep.layer(
        "core.store.rows_removed",
        stats::ratio(d.rows_removed as f64, n),
    );
    rep.layer(
        "core.store.snapshot_refreshes",
        stats::ratio(d.snapshot_refreshes as f64, n),
    );
    rep.layer(
        "core.subscribe.notifications",
        stats::ratio(d.notifications as f64, n),
    );
    rep.layer("core.subscribe.lagged", d.lagged as f64);
}

/// `core.store.load_ms` and `core.store.rss_bytes_per_triple`.
pub fn load_layers(rep: &mut Report, load_ms: &[f64], rss_growth: f64, triples: usize) {
    rep.layer("core.store.load_ms", stats::median(load_ms).unwrap_or(0.0));
    rep.layer(
        "core.store.rss_bytes_per_triple",
        stats::ratio(rss_growth, triples as f64),
    );
}

/// Mean rule count of the T_Q programs of `queries`, translated under a
/// private predicate prefix.
pub fn rules_per_query(snap: &Snapshot, queries: &[String]) -> Result<f64, String> {
    let mut rules = Vec::new();
    for q in queries {
        let parsed = sparqlog_sparql::parse_query(q).map_err(|e| e.to_string())?;
        let tq = sparqlog::translate_query(&parsed, snap.symbols(), "ledger_")
            .map_err(|e| e.to_string())?;
        rules.push(tq.program.rules.len() as f64);
    }
    Ok(stats::mean_or_zero(&rules))
}

/// Times `parse_query` and `Snapshot::prepare_query` on each text, the
/// two steps the server runs per request on a translation-cache miss
/// (`prepare_query` bypasses the text cache, so each call translates).
/// Returns the times in ms.
pub fn parse_translate(snap: &Snapshot, texts: &[&str]) -> Result<(Vec<f64>, Vec<f64>), String> {
    let (mut parse, mut translate) = (Vec::new(), Vec::new());
    for text in texts {
        let t0 = Instant::now();
        let q = sparqlog_sparql::parse_query(text).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        snap.prepare_query(q).map_err(|e| e.to_string())?;
        parse.push(ms(t1 - t0));
        translate.push(ms(t1.elapsed()));
    }
    Ok((parse, translate))
}

/// `bench.trace_overhead_pct`: a run's traced passes against its
/// untraced ones (they alternate).
pub fn trace_overhead(rep: &mut Report, untraced: Option<f64>, traced: Option<f64>) {
    let pct = match (untraced, traced) {
        (Some(u), Some(t)) if u > 0.0 => (t / u - 1.0) * 100.0,
        _ => 0.0,
    };
    rep.layer("bench.trace_overhead_pct", pct);
}
