//! `paths-http`: the 50 gMark-social queries plus the closure
//! `?a ex:next+ ?b` over a 300-node ring (90 000 rows), sent as query
//! text over loopback HTTP with JSON results, in a closed loop with one
//! client and repeated passes (each pass in a seeded order). In the
//! first [`FRESH_PASSES`] passes a quarter of the requests carry a text
//! the server has never seen, so parse, translation and planning run on
//! them as on a cache miss; every other request hits the translation and
//! plan caches. A commit phase on the queried store follows the passes.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sparqlog::{PreparedQuery, Store};
use sparqlog_benchdata::gmark::{self, GmarkConfig, Scenario};
use sparqlog_http::client;

use crate::common::{self, Config, Report, Server, Timings, JSON};
use crate::digest;
use crate::ledger::{Check, Meter, Reading};
use crate::stats::{self, ms};
use crate::trace::Trace;

pub const NAME: &str = "paths-http";

pub const RING_NODES: usize = 300;

pub const RING_QUERY: &str = "PREFIX ex: <http://ex.org/> SELECT ?a ?b WHERE { ?a ex:next+ ?b }";

/// In a pass that sends never-seen texts, one request in this many
/// carries one: query `i` in pass `p` when `(i + offset) % FRESH_EVERY
/// == p % FRESH_EVERY`, with a seeded `offset`.
pub const FRESH_EVERY: usize = 4;

/// Passes that send never-seen texts, so each query goes out as one
/// `FRESH_PASSES / FRESH_EVERY` times a run. A fixed count, not a share
/// of every pass: the resident set grows with each never-seen text
/// executed (by about 20 MB for the ring closure, where re-running the
/// cached text adds nothing), and `peak_rss_mb` must not grow with the
/// number of passes a faster program fits in a run.
pub const FRESH_PASSES: usize = 8;

/// Query `q` made new to the translation cache, which is keyed by the
/// exact text, by a numbered comment; its results are unchanged.
pub fn fresh_text(q: &str, k: u64) -> String {
    format!("{q}\n# ledgerbench fresh {k}\n")
}

/// The ring fixture: a successor edge per node plus a chord every 7th.
pub fn ring(n: usize) -> String {
    let mut src = String::from("@prefix ex: <http://ex.org/> .\n");
    for i in 0..n {
        src.push_str(&format!("ex:n{i} ex:next ex:n{} .\n", (i + 1) % n));
        if i % 7 == 0 {
            src.push_str(&format!("ex:n{i} ex:next ex:n{} .\n", (i * 3 + 1) % n));
        }
    }
    src
}

/// The query list: gMark-social's 50 plus the ring closure.
pub fn queries() -> Vec<(String, String)> {
    let mut qs = gmark::queries(Scenario::Social);
    qs.push(("ring".into(), RING_QUERY.into()));
    qs
}

/// The gMark-social graph at its default scale.
pub fn graph() -> sparqlog::Graph {
    gmark::generate(GmarkConfig::default_for(Scenario::Social))
}

pub fn subjects() -> Vec<String> {
    (0..GmarkConfig::default_for(Scenario::Social).nodes)
        .map(|i| format!("<http://example.org/gMark/person{i}>"))
        .collect()
}

/// A loaded store; the triple count.
pub fn load(load_ms: &mut Vec<f64>) -> Result<(Arc<Store>, usize), String> {
    let g = graph();
    let ring = ring(RING_NODES);
    let ring_triples = sparqlog_rdf::turtle::parse(&ring)
        .map_err(|e| e.to_string())?
        .len();
    let store = Arc::new(Store::new());
    let t = Instant::now();
    store.load_graph(&g).map_err(|e| format!("load: {e}"))?;
    store
        .load_turtle(&ring)
        .map_err(|e| format!("load ring: {e}"))?;
    load_ms.push(ms(t.elapsed()));
    Ok((store, g.len() + ring_triples))
}

/// Per-layer totals over the traced passes.
#[derive(Default)]
struct Traced {
    passes: usize,
    requests: usize,
    server: Duration,
    wire: Duration,
    eval: Duration,
    residual: Duration,
    serialize: Duration,
    bytes: usize,
    rows: usize,
    index_builds: usize,
    side: Reading,
}

/// Sends one query; `Ok(body length)` on a 200.
fn send(addr: std::net::SocketAddr, q: &str) -> Result<usize, String> {
    match client::query(addr, q, Some(JSON)) {
        Ok(r) if r.status == 200 => Ok(r.body.len()),
        Ok(r) => Err(format!("HTTP {}", r.status)),
        Err(e) => Err(e.to_string()),
    }
}

pub fn run(cfg: &Config, recorded: &digest::Recorded, rep: &mut Report) -> Result<(), String> {
    let queries = queries();
    let n = queries.len();

    // Set-up: generate + load + bind (start the endpoint), repeated;
    // then one warm-up pass over HTTP.
    let mut load_ms = Vec::new();
    let rss0 = common::rss_bytes("VmRSS:");
    let mut rss_growth = 0.0;
    let mut triples = 0;
    let ((store, server), walls) = common::repeat_setup(
        |i| {
            let (store, t) = load(&mut load_ms)?;
            if i == 0 {
                rss_growth = common::rss_bytes("VmRSS:") - rss0;
                triples = t;
            }
            let server = Server::start(store.clone())?;
            Ok((store, server))
        },
        |(_, server)| server.stop(),
    )?;
    let addr = server.addr;
    let t = Instant::now();
    let warm: Vec<_> = queries
        .iter()
        .map(|(_, q)| client::query(addr, q, Some(JSON)))
        .collect();
    let mut timings = Timings {
        setup_s: stats::median(&walls).unwrap_or(0.0) + t.elapsed().as_secs_f64(),
        ..Timings::default()
    };

    // Verification of the warm-up bodies (outside every timed span).
    let mut expected_len = Vec::with_capacity(n);
    let mut got = Vec::new();
    for ((id, _), r) in queries.iter().zip(&warm) {
        let checked = match r {
            Ok(r) if r.status == 200 => r
                .text()
                .map_err(|e| e.to_string())
                .and_then(digest::of_json),
            Ok(r) => Err(format!("HTTP {}", r.status)),
            Err(e) => Err(e.to_string()),
        };
        rep.tally.record(checked.is_ok());
        match checked {
            Ok(d) => {
                expected_len.push(r.as_ref().map_or(0, |r| r.body.len()));
                got.push((id.clone(), d));
            }
            Err(e) => {
                expected_len.push(usize::MAX);
                rep.problem(format!("{id}: {e}"));
            }
        }
    }
    for msg in digest::compare(recorded, NAME, &got) {
        rep.fail(msg);
    }
    drop(warm);

    // Handles for the traced side calls (translation-cache hits).
    let snap = store.snapshot();
    let prepared: Vec<PreparedQuery> = queries
        .iter()
        .map(|(id, q)| snap.prepare(q).map_err(|e| format!("prepare {id}: {e}")))
        .collect::<Result<_, _>>()?;

    // Measured passes.
    let meter = Meter::new(store.metrics(), true);
    let mut rng = cfg.rng(2);
    let fresh_offset = cfg.rng(3).gen_range(0..FRESH_EVERY);
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut trace = Trace::new();
    let mut traced = Traced::default();
    let mut pass_walls: Vec<f64> = Vec::new();
    // Request time per pass, untraced [0] and traced [1].
    let mut pass_ms_by_mode: [Vec<f64>; 2] = Default::default();
    let read_seconds = cfg.seconds * (1.0 - common::COMMIT_SHARE);
    let before = meter.read();
    let start = Instant::now();
    let (mut ok_requests, mut side_runs, mut request, mut fresh) = (0u64, 0u64, 0u64, 0u64);
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let estimate = stats::median(&pass_walls).unwrap_or(0.0);
        let tracing = cfg.trace && pass_walls.len() % 2 == 1;
        if !pass_walls.is_empty() && elapsed + estimate > read_seconds {
            break;
        }
        let pass_start = Instant::now();
        let mut pass_ms = 0.0;
        let pass = pass_walls.len();
        for i in common::shuffled(n, &mut rng) {
            request += 1;
            let fresh_q;
            let text = if pass < FRESH_PASSES
                && (i + fresh_offset) % FRESH_EVERY == pass % FRESH_EVERY
            {
                fresh += 1;
                fresh_q = fresh_text(&queries[i].1, fresh);
                &fresh_q
            } else {
                &queries[i].1
            };
            let r0 = tracing.then(|| meter.read());
            let t0 = Instant::now();
            let res = send(addr, text);
            let t1 = Instant::now();
            let ok = matches!(res, Ok(len) if len == expected_len[i]);
            rep.tally.record(ok);
            ok_requests += res.is_ok() as u64;
            if !ok {
                rep.problem(format!(
                    "{}: {res:?}, expected {} bytes",
                    queries[i].0, expected_len[i]
                ));
            }
            let lat = ms(t1 - t0);
            pass_ms += lat;
            samples[i].push(lat);
            timings.reads.push(lat);
            if let Some(r0) = r0 {
                let d = meter.read().since(&r0);
                let server = Duration::from_micros(d.http_us_sum);
                let eval = Duration::from_micros(d.query_us_sum);
                let serialize = side_call(&snap, &prepared[i], &meter, &mut traced, rep);
                side_runs += 1;
                traced.requests += 1;
                traced.server += server;
                let wire = (t1 - t0).saturating_sub(server);
                traced.wire += wire;
                let id = (pass * 1000 + i) as u64;
                let root = trace.span("bench.request", id, None, t0, t1);
                trace.child_of(root, "http.wire", wire.saturating_sub(serialize));
                trace.child_of(root, "core.results_io", serialize);
                let srv = trace.child_of(root, "http.server", server);
                trace.child_of(srv, "datalog.eval", eval);
            }
        }
        pass_walls.push(pass_start.elapsed().as_secs_f64());
        pass_ms_by_mode[tracing as usize].push(pass_ms);
        traced.passes += tracing as usize;
    }
    // Byte counters trail each body; let the last one land.
    std::thread::sleep(Duration::from_millis(50));
    let d = meter.read().since(&before);
    rep.ledger(&[
        Check {
            what: "sparqlog_queries_total",
            registry: d.queries,
            ours: ok_requests + side_runs,
        },
        Check {
            what: "sparqlog_translations_total",
            registry: d.translations,
            ours: fresh,
        },
        Check {
            what: "sparqlog_http_request_duration_us count",
            registry: d.http_us_count,
            ours: request,
        },
    ]);
    timings.per_query = queries
        .iter()
        .map(|(id, _)| id.clone())
        .zip(samples)
        .collect();

    drop(snap);
    common::commit_phase(
        &store,
        subjects(),
        cfg,
        cfg.seconds - start.elapsed().as_secs_f64(),
        &meter,
        &mut timings,
        rep,
    );
    server.stop();
    common::end_to_end(&timings, cfg.trace, rep);

    if cfg.trace {
        let passes = traced.passes.max(1) as f64;
        let reqs = traced.requests.max(1) as f64;
        let side = &traced.side;
        rep.layer(
            "core.serving.translation_hit_ratio",
            1.0 - stats::ratio(d.translations as f64, request as f64),
        );
        rep.layer(
            "core.serving.plan_hit_ratio",
            stats::ratio(d.plan_hits as f64, (d.plan_hits + d.plans_computed) as f64),
        );
        rep.layer("core.serving.residual_ms", ms(traced.residual) / passes);
        rep.layer("datalog.eval.eval_ms", ms(traced.eval) / passes);
        rep.layer("datalog.eval.rounds", side.rounds as f64 / passes);
        rep.layer(
            "datalog.eval.rows_derived",
            side.rows_derived as f64 / passes,
        );
        rep.layer("datalog.eval.join_probes", side.join_probes as f64 / passes);
        rep.layer(
            "datalog.eval.index_builds",
            traced.index_builds as f64 / passes,
        );
        rep.layer(
            "datalog.eval.derived_per_result",
            stats::ratio(side.rows_derived as f64, traced.rows as f64),
        );
        rep.layer(
            "core.results_io.serialize_ms",
            ms(traced.serialize) / passes,
        );
        rep.layer(
            "core.results_io.bytes_per_row",
            stats::ratio(traced.bytes as f64, traced.rows as f64),
        );
        rep.layer(
            "http.server.server_us",
            traced.server.as_secs_f64() * 1e6 / reqs,
        );
        rep.layer("http.server.wire_ms", ms(traced.wire) / reqs);
        rep.layer(
            "http.server.bytes",
            stats::ratio(d.http_bytes as f64, request as f64),
        );
        // Fresh texts are parsed and translated inside the server,
        // where no span reaches; both steps are timed on the side.
        let texts: Vec<String> = queries.iter().map(|(_, q)| q.clone()).collect();
        let snap = store.snapshot();
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let (parse, translate) = common::parse_translate(&snap, &refs)?;
        rep.layer("sparql.parser.parse_us", stats::mean_or_zero(&parse) * 1e3);
        rep.layer(
            "core.query_translation.translate_us",
            stats::mean_or_zero(&translate) * 1e3,
        );
        rep.layer(
            "core.query_translation.rules_per_query",
            common::rules_per_query(&snap, &texts)?,
        );
        common::load_layers(rep, &load_ms, rss_growth, triples);
        rep.layer(
            "bench.unattributed_pct",
            trace.unattributed_pct(&["http.server"]),
        );
        common::trace_overhead(
            rep,
            stats::median(&pass_ms_by_mode[0]),
            stats::median(&pass_ms_by_mode[1]),
        );
        crate::write_trace(&trace, NAME, cfg);
    }
    Ok(())
}

/// The traced side call for one query: the same prepared query run
/// in-process with profiling, then serialized into a counting sink.
/// Returns the serialization time.
fn side_call(
    snap: &sparqlog::Snapshot,
    p: &PreparedQuery,
    meter: &Meter,
    traced: &mut Traced,
    rep: &mut Report,
) -> Duration {
    let before = meter.read();
    let t0 = Instant::now();
    let res = snap.execute_prepared_profiled(p);
    let wall = t0.elapsed();
    let d = meter.read().since(&before);
    traced.side.rounds += d.rounds;
    traced.side.rows_derived += d.rows_derived;
    traced.side.join_probes += d.join_probes;
    let (results, profile) = match res {
        Ok(x) => x,
        Err(e) => {
            rep.problem(format!("traced side call: {e}"));
            return Duration::ZERO;
        }
    };
    traced.eval += profile.elapsed;
    traced.residual += wall.saturating_sub(profile.elapsed);
    traced.index_builds += profile.index_builds;
    let mut sink = CountingSink(0);
    let t0 = Instant::now();
    if let Err(e) = sparqlog::results_io::write_json(&results, &mut sink) {
        rep.problem(format!("serialize: {e}"));
    }
    let serialize = t0.elapsed();
    traced.serialize += serialize;
    traced.bytes += sink.0;
    traced.rows += results.len().max(1);
    serialize
}

/// A writer that only counts bytes.
struct CountingSink(usize);

impl std::io::Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0 += buf.len();
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}
