//! The SparqLog ledger benchmark: one command that generates seeded
//! inputs, drives a workload through the public surface (`Store`,
//! prepared queries, the HTTP endpoint), verifies every result and
//! prints the metrics.
//!
//! ```text
//! cargo run --release --manifest-path ledgerbench/Cargo.toml -- \
//!     --workload sp2b-embedded --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones (see `README.md` in this directory for the layer map). The last
//! line of standard output is one JSON object; the exit code is 0 only
//! when every result verified and the registry ledger balanced.
//! `--record` recomputes `digests.txt` and cross-checks the engine
//! against the reference evaluator at the generators' default scales.

mod common;
mod digest;
mod ledger;
mod paths;
mod record;
mod sp2b;
mod stats;
mod trace;
mod writes;

use std::path::Path;
use std::process::ExitCode;

use common::{Config, Report};

/// End-to-end metrics: every workload reports each of them.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("suite_s", "s"),
    ("query_geomean_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of a traced run; a layer a workload does not call
/// reads 0.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("sparql.parser.parse_us", "us"),
    ("core.query_translation.translate_us", "us"),
    ("core.query_translation.rules_per_query", "count"),
    ("core.serving.translation_hit_ratio", "ratio"),
    ("core.serving.plan_hit_ratio", "ratio"),
    ("core.serving.residual_ms", "ms"),
    ("datalog.eval.eval_ms", "ms"),
    ("datalog.eval.rounds", "count"),
    ("datalog.eval.rows_derived", "count"),
    ("datalog.eval.join_probes", "count"),
    ("datalog.eval.index_builds", "count"),
    ("datalog.eval.derived_per_result", "ratio"),
    ("datalog.plan.q13_over_q14", "ratio"),
    ("core.results_io.serialize_ms", "ms"),
    ("core.results_io.bytes_per_row", "B"),
    ("http.server.server_us", "us"),
    ("http.server.wire_ms", "ms"),
    ("http.server.bytes", "B"),
    ("core.store.update_ms", "ms"),
    ("core.store.commit_us", "us"),
    ("core.store.maintained_ratio", "ratio"),
    ("core.store.commits", "count"),
    ("core.store.rows_added", "count"),
    ("core.store.rows_removed", "count"),
    ("core.store.snapshot_refreshes", "count"),
    ("core.store.load_ms", "ms"),
    ("core.store.rss_bytes_per_triple", "B"),
    ("core.subscribe.notifications", "count"),
    ("core.subscribe.lagged", "count"),
    ("bench.read_p50_ms", "ms"),
    ("bench.write_p50_ms", "ms"),
    ("bench.write_p90_ms", "ms"),
    ("bench.unattributed_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
];

/// Workloads `--workload` accepts, as `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 2] = [sp2b::NAME, paths::NAME];

const DIGESTS: &str = include_str!("../digests.txt");

struct Args {
    workload: String,
    cfg: Config,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut record) =
        (None, 0u64, 30.0f64, false, false);
    while let Some(flag) = args.next() {
        if flag == "--record" {
            record = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = match workload {
        Some(w) if WORKLOADS.contains(&w.as_str()) => w,
        Some(w) => return Err(format!("unknown workload {w:?}; one of {WORKLOADS:?}")),
        None if record => String::new(),
        None => return Err("--workload is required".into()),
    };
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        cfg: Config {
            seed,
            seconds,
            trace,
        },
        record,
    })
}

/// Writes a traced run's spans next to the benchmark and prints each
/// layer's total self time.
pub fn write_trace(t: &trace::Trace, workload: &str, cfg: &Config) {
    for (layer, ns) in t.self_time_by_layer() {
        eprintln!("self time {layer}: {:.3} ms", ns as f64 / 1e6);
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{workload}-seed{}.jsonl", cfg.seed));
    match t.write_jsonl(&path) {
        Ok(()) => eprintln!("{} spans written to {}", t.spans().len(), path.display()),
        Err(e) => eprintln!("spans not written ({}): {e}", path.display()),
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ledgerbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.record {
        return match record::run() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("record failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let cfg = args.cfg;
    let mut rep = Report::default();
    let recorded = digest::load_str(DIGESTS).unwrap_or_else(|e| {
        rep.problem(format!("digests.txt: {e}"));
        Default::default()
    });
    let res = match args.workload.as_str() {
        sp2b::NAME => sp2b::run(&cfg, &recorded, &mut rep),
        _ => paths::run(&cfg, &recorded, &mut rep),
    };
    if let Err(e) = res {
        rep.problem(format!("run aborted: {e}"));
    }

    println!(
        "# {} seed {} seconds {} trace {}",
        args.workload, cfg.seed, cfg.seconds, cfg.trace as u8
    );
    let wanted: &[(&str, &str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in wanted {
        let (value, samples) = if cfg.trace {
            (
                rep.layers.get(name).copied().unwrap_or(0.0),
                rep.layer_samples.get(name).copied(),
            )
        } else {
            match rep.e2e.get(name) {
                Some(&(v, n)) => (v, Some(n)),
                None => {
                    rep.problem(format!("{name} was not measured"));
                    continue;
                }
            }
        };
        if !value.is_finite() {
            rep.problem(format!("{name} is not a finite number"));
        }
        match samples {
            Some(n) => println!("{name} = {value:.4} {unit} (n={n})"),
            None => println!("{name} = {value:.4} {unit}"),
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    for note in &rep.notes {
        println!("# {note}");
    }
    let t = rep.tally;
    println!(
        "failed/attempted = {}/{} (error_rate {:.6})",
        t.failed,
        t.attempted,
        t.error_rate()
    );
    for p in &rep.problems {
        println!("FAIL: {p}");
    }
    let correct = rep.problems.is_empty() && t.failed == 0 && t.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.attempted.max(1),
        t.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names here and in `BENCHMARK.json` must agree.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let needle = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(
                json.contains(&needle),
                "{needle} missing from BENCHMARK.json"
            );
        }
        for w in [sp2b::NAME, paths::NAME] {
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "workload {w}");
        }
        assert_eq!(json.matches("\"why\"").count(), 2);
        assert_eq!(
            json.matches("\"unit\"").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn recorded_digests_cover_every_query() {
        let rec = digest::load_str(DIGESTS).unwrap();
        assert_eq!(rec.keys().filter(|(w, _)| w == sp2b::NAME).count(), 17);
        assert_eq!(rec.keys().filter(|(w, _)| w == paths::NAME).count(), 51);
    }
}
