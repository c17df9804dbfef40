//! `--record`: recomputes the per-query digests the closed-loop
//! workloads verify against, and cross-checks the engine against the
//! reference evaluator (`refengine`'s Fuseki simulator) at the
//! generators' default scales. The reference cannot run SP²Bench q4 at
//! the workload's 25k triples, which is why the workload itself checks
//! against recorded digests.

use std::sync::Arc;
use std::time::Duration;

use sparqlog::Store;
use sparqlog_benchdata::sp2bench::{self, Sp2bConfig};
use sparqlog_http::client;
use sparqlog_rdf::{Dataset, Graph};
use sparqlog_refengine::{EngineError, FusekiSim};

use crate::common::{Server, JSON};
use crate::digest::{self, Digest};
use crate::{paths, sp2b};

const REFERENCE_TIMEOUT: Duration = Duration::from_secs(20);

fn engine_digests(store: &Store, queries: &[(String, String)]) -> Result<Vec<Digest>, String> {
    let snap = store.snapshot();
    queries
        .iter()
        .map(|(id, q)| {
            let r = snap.execute(q).map_err(|e| format!("{id}: {e}"))?;
            digest::of_results(&r)
        })
        .collect()
}

/// Compares engine digests with the reference on `g`; one `xcheck`
/// line per query, an error on any disagreement.
fn cross_check(
    workload: &str,
    g: Graph,
    extra_turtle: Option<&str>,
    queries: &[(String, String)],
    lines: &mut Vec<String>,
) -> Result<(), String> {
    let store = Store::new();
    store.load_graph(&g).map_err(|e| e.to_string())?;
    let mut ds = Dataset::from_default_graph(g);
    if let Some(ttl) = extra_turtle {
        store.load_turtle(ttl).map_err(|e| e.to_string())?;
        let extra = sparqlog_rdf::turtle::parse(ttl).map_err(|e| e.to_string())?;
        for t in extra.iter() {
            ds.insert_default(sparqlog_rdf::Triple::new(
                t.0.clone(),
                t.1.clone(),
                t.2.clone(),
            ));
        }
    }
    let triples = ds.default_graph().len();
    let ours = engine_digests(&store, queries)?;
    let reference = FusekiSim::new(ds).with_timeout(REFERENCE_TIMEOUT);
    let mut bad = Vec::new();
    for ((id, q), d) in queries.iter().zip(ours) {
        let verdict = match reference.execute(q) {
            Ok(r) if digest::of_results(&r)? == d => "agree",
            Ok(_) => {
                bad.push(id.clone());
                "DISAGREE"
            }
            Err(EngineError::Timeout) => "reference-timeout",
            Err(e) => {
                eprintln!("{workload} {id}: reference error {e:?}");
                "reference-unsupported"
            }
        };
        eprintln!("xcheck {workload}@{triples} {id} {verdict}");
        lines.push(format!("xcheck {workload}@{triples} {id} {verdict}"));
    }
    if bad.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{workload}: engine and reference disagree on {bad:?}"
        ))
    }
}

pub fn run() -> Result<(), String> {
    let mut lines = vec![
        "# Per-query multiset digests of the closed-loop workloads' results:".to_string(),
        "# <workload> <query> <rows> <digest of the SPARQL JSON rows>.".to_string(),
        "# Regenerate with `--record`; `xcheck` lines give the cross-check".to_string(),
        "# against refengine's Fuseki simulator at the default scales.".to_string(),
    ];
    let sp2b_queries: Vec<(String, String)> = sp2bench::queries()
        .into_iter()
        .map(|(id, q)| (id.to_string(), q))
        .collect();

    // sp2b-embedded at the workload's scale.
    let store = Store::new();
    store
        .load_graph(&sp2bench::generate(Sp2bConfig {
            target_triples: sp2b::TRIPLES,
            ..Sp2bConfig::default()
        }))
        .map_err(|e| e.to_string())?;
    for ((id, _), d) in sp2b_queries
        .iter()
        .zip(engine_digests(&store, &sp2b_queries)?)
    {
        lines.push(digest::line(sp2b::NAME, id, d));
    }
    drop(store);

    // paths-http, through the endpoint as the workload sends it.
    let mut load_ms = Vec::new();
    let (store, _) = paths::load(&mut load_ms)?;
    let server = Server::start(Arc::clone(&store))?;
    let queries = paths::queries();
    let mut http = Vec::new();
    for (id, q) in &queries {
        let r = client::query(server.addr, q, Some(JSON)).map_err(|e| e.to_string())?;
        if r.status != 200 {
            server.stop();
            return Err(format!("{id}: HTTP {}", r.status));
        }
        let d = digest::of_json(r.text().map_err(|e| e.to_string())?)?;
        lines.push(digest::line(paths::NAME, id, d));
        http.push(d);
    }
    server.stop();
    // The embedded path must agree with the wire.
    if engine_digests(&store, &queries)? != http {
        return Err("paths-http: embedded and HTTP digests differ".into());
    }
    drop(store);

    cross_check(
        sp2b::NAME,
        sp2bench::generate(Sp2bConfig::default()),
        None,
        &sp2b_queries,
        &mut lines,
    )?;
    cross_check(
        paths::NAME,
        paths::graph(),
        Some(&paths::ring(paths::RING_NODES)),
        &queries,
        &mut lines,
    )?;

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/digests.txt");
    std::fs::write(path, lines.join("\n") + "\n").map_err(|e| format!("{path}: {e}"))?;
    eprintln!("wrote {path}");
    Ok(())
}
