//! The execution governor: deadlines, row caps and external cancellation
//! for runaway queries.
//!
//! A production endpoint cannot let one pathological query wedge a worker
//! forever. SparqLog's [`Budget`] bounds an evaluation by wall-clock
//! time, derived rows, or dictionary growth, and/or hooks it to a
//! [`CancelToken`]; a query that crosses a limit returns a structured
//! `Aborted` error telling you which limit tripped and how far execution
//! got — and the store keeps serving as if nothing happened. The same
//! holds for commits: an aborted commit leaves the previous version
//! installed.
//!
//! ```sh
//! cargo run --example timeouts
//! ```

use std::time::{Duration, Instant};

use sparqlog::{Axiom, Budget, CancelToken, Ontology, SparqLogError, Store};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A ring with shortcuts: the full transitive closure over it is big
    // enough to play the "runaway query" here.
    let mut turtle = String::from("@prefix ex: <http://ex.org/> .\n");
    for i in 0..400 {
        turtle.push_str(&format!("ex:n{i} ex:next ex:n{} .\n", (i + 1) % 400));
        if i % 5 == 0 {
            turtle.push_str(&format!("ex:n{i} ex:next ex:n{} .\n", (i * 7 + 3) % 400));
        }
    }
    let store = Store::new();
    store.load_turtle(&turtle)?;
    println!("loaded: {} facts", store.fact_count());

    let runaway = "PREFIX ex: <http://ex.org/> SELECT ?a ?b WHERE { ?a ex:next+ ?b }";

    // 1. Deadline: give the query 2 ms of wall-clock time.
    let budget = Budget::new().with_timeout(Duration::from_millis(2));
    let start = Instant::now();
    match store.snapshot().with_budget(budget).execute(runaway) {
        Err(e @ SparqLogError::Aborted { .. }) => {
            println!("deadline: {e}");
            println!("          (observed after {:?})", start.elapsed());
        }
        other => println!("deadline: unexpectedly {other:?}"),
    }

    // 2. Row cap: bound the work (and intermediate-result memory) instead
    //    of the clock — deterministic across machines.
    let capped = store
        .snapshot()
        .with_budget(Budget::new().with_max_rows(10_000));
    match capped.execute(runaway) {
        Err(SparqLogError::Aborted {
            reason,
            rows_derived,
            ..
        }) => println!("row cap:  {reason} at {rows_derived} rows"),
        other => println!("row cap:  unexpectedly {other:?}"),
    }

    // 3. External cancellation: a token shared with another thread — the
    //    shape of a client disconnect handler.
    let cancel = CancelToken::new();
    let killer = {
        let cancel = cancel.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(2));
            cancel.cancel(); // "client went away"
        })
    };
    let cancellable = store
        .snapshot()
        .with_budget(Budget::new().with_cancel(cancel));
    match cancellable.execute(runaway) {
        Err(SparqLogError::Aborted { reason, .. }) => println!("cancel:   {reason}"),
        other => println!("cancel:   unexpectedly {other:?}"),
    }
    killer.join().unwrap();

    // 4. A store-wide default policy: every query (and every query of a
    //    batch) runs under it unless a `with_budget` view overrides it.
    store.set_default_budget(
        Budget::new()
            .with_timeout(Duration::from_secs(30))
            .with_max_rows(5_000),
    );
    let results = store.snapshot().execute_batch(&[runaway, runaway, runaway]);
    let aborted = results.iter().filter(|r| r.is_err()).count();
    println!("batch under default budget: {aborted}/3 aborted");

    // 5. Commits run under the default budget too. Twelve
    //    super-properties of ex:next entail 12 × 480 new triples, more
    //    than the 5 000-row cap, so materialising them aborts the commit
    //    — and the store keeps serving the version it had.
    let facts = store.fact_count();
    let mut onto = Ontology::new();
    for k in 0..12 {
        onto = onto.with(Axiom::SubPropertyOf(
            "http://ex.org/next".into(),
            format!("http://ex.org/link{k}"),
        ));
    }
    match store.add_ontology(&onto) {
        Err(e @ SparqLogError::Aborted { .. }) => println!("commit:   {e}"),
        other => return Err(format!("commit: expected an abort, got {other:?}").into()),
    }
    assert_eq!(store.fact_count(), facts, "the pre-commit version serves");
    let hop = "PREFIX ex: <http://ex.org/> ASK { ex:n0 ex:next ex:n1 }";
    println!("after the aborted commit: {:?}", store.execute(hop)?);

    // Nothing is poisoned: lift the default and the same query — and the
    // same commit — complete.
    store.set_default_budget(Budget::new());
    let full = store.execute(runaway)?;
    println!("without limits: {} result rows", full.len());
    store.add_ontology(&onto)?;
    println!(
        "ontology installed: {} -> {} facts",
        facts,
        store.fact_count()
    );
    Ok(())
}
