//! `sp2b-embedded`: the 17 SP²Bench queries, prepared once and run
//! in-process on one snapshot, in a closed loop with one client and
//! repeated passes (each pass in a seeded order). A commit phase on the
//! queried store follows the passes.

use std::time::{Duration, Instant};

use sparqlog::{PreparedQuery, Snapshot, Store};
use sparqlog_benchdata::sp2bench::{self, Sp2bConfig};

use crate::common::{self, Config, Report, Timings};
use crate::digest;
use crate::ledger::{Check, Meter};
use crate::stats::{self, ms};
use crate::trace::Trace;

pub const NAME: &str = "sp2b-embedded";

/// Generator size: ~25k triples, where q13 meets its cartesian cliff.
pub const TRIPLES: usize = 25_000;

pub fn subjects(triples: usize) -> Vec<String> {
    (0..triples / 10)
        .map(|i| format!("<{}Article{i}>", sp2bench::ns::ARTICLE))
        .collect()
}

struct Built {
    store: Store,
    prepared: Vec<PreparedQuery>,
}

fn build(
    queries: &[(&'static str, String)],
    load_ms: &mut Vec<f64>,
) -> Result<(Built, usize), String> {
    let g = sp2bench::generate(Sp2bConfig {
        target_triples: TRIPLES,
        ..Sp2bConfig::default()
    });
    let store = Store::new();
    let t = Instant::now();
    store.load_graph(&g).map_err(|e| format!("load: {e}"))?;
    load_ms.push(ms(t.elapsed()));
    let prepared = queries
        .iter()
        .map(|(id, q)| store.prepare(q).map_err(|e| format!("prepare {id}: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((Built { store, prepared }, g.len()))
}

/// Per-layer totals over the traced passes.
#[derive(Default)]
struct Traced {
    passes: usize,
    eval: Duration,
    residual: Duration,
    index_builds: usize,
    result_rows: usize,
}

pub fn run(cfg: &Config, recorded: &digest::Recorded, rep: &mut Report) -> Result<(), String> {
    let queries = sp2bench::queries();
    let n = queries.len();

    // Set-up: generate + load + bind (prepare), repeated; then one
    // warm-up pass that plans every query and collects statistics.
    let mut load_ms = Vec::new();
    let rss0 = common::rss_bytes("VmRSS:");
    let mut rss_growth = 0.0;
    let mut triples = 0;
    let ((built, _), walls) = common::repeat_setup(
        |i| {
            let b = build(&queries, &mut load_ms)?;
            if i == 0 {
                rss_growth = common::rss_bytes("VmRSS:") - rss0;
                triples = b.1;
            }
            Ok(b)
        },
        drop,
    )?;
    let Built { store, prepared } = built;
    let snap = store.snapshot();
    let t = Instant::now();
    let warm: Vec<_> = prepared.iter().map(|p| snap.execute_prepared(p)).collect();
    let mut timings = Timings {
        setup_s: stats::median(&walls).unwrap_or(0.0) + t.elapsed().as_secs_f64(),
        ..Timings::default()
    };

    // Verification of the warm-up results (outside every timed span).
    let mut expected_rows = Vec::with_capacity(n);
    let mut got = Vec::new();
    for ((id, _), r) in queries.iter().zip(&warm) {
        rep.tally.record(r.is_ok());
        match r
            .as_ref()
            .map_err(|e| e.to_string())
            .and_then(digest::of_results)
        {
            Ok(d) => {
                expected_rows.push(r.as_ref().map_or(0, |r| r.len()));
                got.push((id.to_string(), d));
            }
            Err(e) => {
                expected_rows.push(usize::MAX);
                rep.problem(format!("{id}: {e}"));
            }
        }
    }
    for msg in digest::compare(recorded, NAME, &got) {
        rep.fail(msg);
    }
    drop(warm);

    // Measured passes.
    let meter = Meter::new(store.metrics(), false);
    let mut rng = cfg.rng(1);
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut trace = Trace::new();
    let mut traced = Traced::default();
    let mut pass_walls: Vec<f64> = Vec::new();
    // Request time per pass, untraced [0] and traced [1].
    let mut pass_ms_by_mode: [Vec<f64>; 2] = Default::default();
    let read_seconds = cfg.seconds * (1.0 - common::COMMIT_SHARE);
    let before = meter.read();
    let start = Instant::now();
    let mut executions = 0u64;
    let mut traced_delta = crate::ledger::Reading::default();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let estimate = stats::median(&pass_walls).unwrap_or(0.0);
        let tracing = cfg.trace && pass_walls.len() % 2 == 1;
        if !pass_walls.is_empty() && elapsed + estimate > read_seconds {
            break;
        }
        let pass_start = Instant::now();
        let pass_before = meter.read();
        let mut pass_ms = 0.0;
        for i in common::shuffled(n, &mut rng) {
            executions += 1;
            let t0 = Instant::now();
            let (rows, profile) = if tracing {
                match snap.execute_prepared_profiled(&prepared[i]) {
                    Ok((r, p)) => (Ok(r.len()), Some(p)),
                    Err(e) => (Err(e), None),
                }
            } else {
                (snap.execute_prepared(&prepared[i]).map(|r| r.len()), None)
            };
            let t1 = Instant::now();
            let ok = matches!(rows, Ok(r) if r == expected_rows[i]);
            rep.tally.record(ok);
            if !ok {
                rep.problem(format!(
                    "{}: {rows:?}, expected {} rows",
                    queries[i].0, expected_rows[i]
                ));
            }
            let lat = ms(t1 - t0);
            pass_ms += lat;
            samples[i].push(lat);
            timings.reads.push(lat);
            if let Some(p) = profile {
                let id = (pass_walls.len() * 1000 + i) as u64;
                let root = trace.span("core.serving.execute", id, None, t0, t1);
                trace.child_of(root, "datalog.eval", p.elapsed);
                traced.eval += p.elapsed;
                traced.residual += (t1 - t0).saturating_sub(p.elapsed);
                traced.index_builds += p.index_builds;
                traced.result_rows += rows.unwrap_or(0);
            }
        }
        pass_walls.push(pass_start.elapsed().as_secs_f64());
        pass_ms_by_mode[tracing as usize].push(pass_ms);
        if tracing {
            traced.passes += 1;
            let d = meter.read().since(&pass_before);
            traced_delta.rounds += d.rounds;
            traced_delta.rows_derived += d.rows_derived;
            traced_delta.join_probes += d.join_probes;
        }
    }
    let d = meter.read().since(&before);
    rep.ledger(&[
        Check {
            what: "sparqlog_queries_total",
            registry: d.queries,
            ours: executions,
        },
        Check {
            what: "sparqlog_translations_total",
            registry: d.translations,
            ours: 0,
        },
    ]);
    timings.per_query = queries
        .iter()
        .map(|(id, _)| id.to_string())
        .zip(samples)
        .collect();

    drop(snap);
    common::commit_phase(
        &store,
        subjects(TRIPLES),
        cfg,
        cfg.seconds - start.elapsed().as_secs_f64(),
        &meter,
        &mut timings,
        rep,
    );
    common::end_to_end(&timings, cfg.trace, rep);

    if cfg.trace {
        layers(
            rep,
            &timings,
            &traced,
            &traced_delta,
            &d,
            executions,
            &store.snapshot(),
            &queries,
        )?;
        common::load_layers(rep, &load_ms, rss_growth, triples);
        rep.layer("bench.unattributed_pct", trace.unattributed_pct(&[]));
        common::trace_overhead(
            rep,
            stats::median(&pass_ms_by_mode[0]),
            stats::median(&pass_ms_by_mode[1]),
        );
        crate::write_trace(&trace, NAME, cfg);
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn layers(
    rep: &mut Report,
    timings: &Timings,
    traced: &Traced,
    td: &crate::ledger::Reading,
    d: &crate::ledger::Reading,
    executions: u64,
    snap: &Snapshot,
    queries: &[(&'static str, String)],
) -> Result<(), String> {
    let passes = traced.passes.max(1) as f64;
    rep.layer(
        "core.serving.translation_hit_ratio",
        1.0 - stats::ratio(d.translations as f64, executions as f64),
    );
    rep.layer(
        "core.serving.plan_hit_ratio",
        stats::ratio(d.plan_hits as f64, (d.plan_hits + d.plans_computed) as f64),
    );
    rep.layer("core.serving.residual_ms", ms(traced.residual) / passes);
    rep.layer("datalog.eval.eval_ms", ms(traced.eval) / passes);
    rep.layer("datalog.eval.rounds", td.rounds as f64 / passes);
    rep.layer("datalog.eval.rows_derived", td.rows_derived as f64 / passes);
    rep.layer("datalog.eval.join_probes", td.join_probes as f64 / passes);
    rep.layer(
        "datalog.eval.index_builds",
        traced.index_builds as f64 / passes,
    );
    rep.layer(
        "datalog.eval.derived_per_result",
        stats::ratio(td.rows_derived as f64, traced.result_rows as f64),
    );
    let median_of = |id: &str| {
        timings
            .per_query
            .iter()
            .find(|(q, _)| q == id)
            .and_then(|(_, xs)| stats::median(xs))
    };
    if let (Some(q13), Some(q14)) = (median_of("q13"), median_of("q14")) {
        rep.layer("datalog.plan.q13_over_q14", q13 / q14);
    }
    let texts: Vec<String> = queries.iter().map(|(_, q)| q.clone()).collect();
    rep.layer(
        "core.query_translation.rules_per_query",
        common::rules_per_query(snap, &texts)?,
    );
    Ok(())
}
