//! The execution governor at the serving layer: budgets and cancellation
//! through `Store` and `Snapshot` (store-wide defaults and
//! `Snapshot::with_budget` views), batch sibling cancellation, panic
//! containment, and — the critical property —
//! that a storm of aborted queries leaves no shared-state corruption
//! behind: the same snapshot then answers every query byte-identically
//! to an uncancelled run. Commits aborted by the store's default budget
//! leave the pre-commit version serving, with or without a live reader.

use std::time::{Duration, Instant};

use sparqlog::{
    AbortReason, Axiom, Budget, CancelToken, CommitStats, Ontology, QueryResults, SparqLogError,
    Store, Term,
};

/// A ring with shortcuts: recursive property paths over it derive the
/// full closure, expensive enough that a 1 ms deadline always interrupts.
fn ring_store(n: usize) -> Store {
    let mut src = String::from("@prefix ex: <http://ex.org/> .\n");
    for i in 0..n {
        src.push_str(&format!("ex:n{i} ex:next ex:n{} .\n", (i + 1) % n));
        if i % 7 == 0 {
            src.push_str(&format!("ex:n{i} ex:next ex:n{} .\n", (i * 3 + 1) % n));
        }
    }
    let store = Store::new();
    store.load_turtle(&src).unwrap();
    store
}

/// Query shapes of varying weight; the recursive ones are the heavy
/// hitters a tight deadline is guaranteed to catch.
fn queries(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| match i % 4 {
            0 => "PREFIX ex: <http://ex.org/> SELECT ?a ?b WHERE { ?a ex:next+ ?b }".to_string(),
            1 => format!(
                "PREFIX ex: <http://ex.org/> SELECT ?z WHERE {{ ex:n{} ex:next+ ?z }}",
                i % 20
            ),
            2 => "PREFIX ex: <http://ex.org/> SELECT ?a ?b ?c WHERE { ?a ex:next ?b . ?b ex:next ?c }"
                .to_string(),
            _ => format!(
                "PREFIX ex: <http://ex.org/> ASK {{ ex:n0 ex:next+ ex:n{} }}",
                i % 20
            ),
        })
        .collect()
}

/// The acceptance stress test: 100 concurrent queries under 1 ms
/// deadlines against a live snapshot — at one worker and at the default
/// width — then the differential check: the very same snapshot re-answers
/// every query (uncapped) identically to a reference computed before the
/// storm. Aborts must be invisible to later queries.
#[test]
fn deadline_storm_leaves_no_corruption() {
    let store = ring_store(150);
    let qs = queries(100);
    let refs: Vec<&str> = qs.iter().map(String::as_str).collect();
    let snapshot = store.snapshot();

    // Reference results from before any abort ever happened — one per
    // distinct text (the storm repeats shapes; re-proving identical
    // results once per text is the same differential at a fraction of
    // the cost).
    let mut distinct: Vec<&str> = Vec::new();
    for q in &refs {
        if !distinct.contains(q) {
            distinct.push(q);
        }
    }
    let expected: Vec<QueryResults> = distinct
        .iter()
        .map(|q| snapshot.execute(q).unwrap())
        .collect();

    let deadline = Budget::new().with_timeout(Duration::from_millis(1));
    for threads in [Some(1), None] {
        store.set_threads(threads);
        let stormed = store.snapshot();
        let results = stormed.with_budget(deadline.clone()).execute_batch(&refs);
        assert_eq!(results.len(), refs.len());
        let mut aborted = 0usize;
        for (i, r) in results.iter().enumerate() {
            match r {
                Ok(_) => {}
                Err(e @ SparqLogError::Aborted { .. }) => {
                    assert!(e.is_aborted());
                    aborted += 1;
                }
                Err(other) => panic!("query #{i}: unexpected error {other:?}"),
            }
        }
        // The full-closure queries cannot finish in 1 ms.
        assert!(aborted > 0, "storm at threads {threads:?} aborted nothing");

        // Differential re-run on the stormed snapshot: byte-identical.
        for (i, (q, e)) in distinct.iter().zip(&expected).enumerate() {
            assert_eq!(
                &stormed.execute(q).unwrap(),
                e,
                "query #{i} differs after the storm at threads {threads:?}"
            );
        }
    }
}

/// Deterministic sibling cancellation: at fan-out width 1 the batch runs
/// in input order, so when query 0 trips its row cap the group token is
/// already cancelled by the time the (expensive) siblings start — they
/// abort at their entry check instead of burning their own budgets.
#[test]
fn first_abort_cancels_batch_siblings() {
    let store = ring_store(150);
    store.set_threads(Some(1));
    let heavy = "PREFIX ex: <http://ex.org/> SELECT ?a ?b WHERE { ?a ex:next+ ?b }";
    let refs = [heavy; 6];
    let budget = Budget::new().with_max_rows(2_000);
    let start = Instant::now();
    let results = store.snapshot().with_budget(budget).execute_batch(&refs);
    let elapsed = start.elapsed();
    match &results[0] {
        Err(SparqLogError::Aborted {
            reason: AbortReason::RowLimit,
            rows_derived,
            ..
        }) => assert!(*rows_derived > 2_000),
        other => panic!("query 0 should trip its own row cap, got {other:?}"),
    }
    for (i, r) in results.iter().enumerate().skip(1) {
        match r {
            Err(SparqLogError::Aborted {
                reason: AbortReason::Cancelled,
                ..
            }) => {}
            other => panic!("sibling #{i} should be group-cancelled, got {other:?}"),
        }
    }
    // Siblings died at their entry checks — the batch cost ~one abort,
    // not six row-cap runs.
    assert!(elapsed < Duration::from_secs(5), "batch took {elapsed:?}");
}

/// Ordinary per-query failures must NOT cancel siblings: a parse error
/// in one slot leaves the others' results intact, budget or not.
#[test]
fn parse_error_does_not_cancel_siblings() {
    let store = ring_store(30);
    let ok = "PREFIX ex: <http://ex.org/> SELECT ?z WHERE { ex:n0 ex:next ?z }";
    let results = store
        .snapshot()
        .with_budget(Budget::new().with_timeout(Duration::from_secs(30)))
        .execute_batch(&["this is not sparql", ok]);
    assert!(matches!(results[0], Err(SparqLogError::Parse(_))));
    assert!(!results[1].as_ref().unwrap().is_empty());
}

/// External cancellation reaches every query of a batch through the
/// budget's token (the group token is chained under it).
#[test]
fn external_token_cancels_whole_batch() {
    let store = ring_store(30);
    let cancel = CancelToken::new();
    cancel.cancel(); // already fired: every job aborts at entry
    let q = "PREFIX ex: <http://ex.org/> SELECT ?a ?b WHERE { ?a ex:next+ ?b }";
    let results = store
        .snapshot()
        .with_budget(Budget::new().with_cancel(cancel))
        .execute_batch(&[q, q, q]);
    for r in &results {
        assert!(
            matches!(
                r,
                Err(SparqLogError::Aborted {
                    reason: AbortReason::Cancelled,
                    ..
                })
            ),
            "got {r:?}"
        );
    }
}

/// One poisoned query in a batch (injected panic) comes back as an
/// internal error in its own slot; every sibling's result is intact and
/// correct, and the store keeps serving afterwards.
#[test]
fn poisoned_query_in_batch_leaves_siblings_intact() {
    let store = ring_store(30);
    let ok = "PREFIX ex: <http://ex.org/> SELECT ?z WHERE { ex:n0 ex:next ?z }";
    let poisoned = "PREFIX ex: <http://ex.org/> # XPOISONX
                    SELECT ?z WHERE { ex:n0 ex:next ?z }";
    let expected = store.execute(ok).unwrap();
    std::env::set_var("SPARQLOG_PANIC_MARKER", "XPOISONX");
    let results = store.snapshot().execute_batch(&[ok, poisoned, ok, ok]);
    std::env::remove_var("SPARQLOG_PANIC_MARKER");
    match &results[1] {
        Err(SparqLogError::Eval(e)) => {
            let msg = e.to_string();
            assert!(msg.contains("panicked"), "unexpected message: {msg}");
        }
        other => panic!("poisoned slot should be an internal error, got {other:?}"),
    }
    for i in [0usize, 2, 3] {
        assert_eq!(results[i].as_ref().unwrap(), &expected, "sibling #{i}");
    }
    // The pool survived the panic; the store still answers.
    assert_eq!(store.execute(ok).unwrap(), expected);
}

/// The store-wide default budget governs plain `execute`; a
/// `with_budget` view overrides it in both directions.
#[test]
fn store_default_budget_governs_and_is_overridable() {
    let store = ring_store(150);
    let heavy = "PREFIX ex: <http://ex.org/> SELECT ?a ?b WHERE { ?a ex:next+ ?b }";
    store.set_default_budget(Budget::new().with_max_rows(1_000));
    let err = store.execute(heavy).unwrap_err();
    assert!(
        matches!(
            err,
            SparqLogError::Aborted {
                reason: AbortReason::RowLimit,
                ..
            }
        ),
        "got {err:?}"
    );
    // Per-call override lifts the default cap...
    let full = store
        .snapshot()
        .with_budget(Budget::new())
        .execute(heavy)
        .unwrap();
    assert!(!full.is_empty());
    // ...and a per-call cap tightens an unlimited default.
    store.set_default_budget(Budget::new());
    assert!(store
        .snapshot()
        .with_budget(Budget::new().with_max_rows(1_000))
        .execute(heavy)
        .unwrap_err()
        .is_aborted());
    assert_eq!(store.execute(heavy).unwrap(), full);
}

/// Prepared queries honour `with_budget` views too, and the handle stays
/// valid after an abort.
#[test]
fn prepared_query_under_budget_view() {
    let store = ring_store(150);
    let q = store
        .prepare("PREFIX ex: <http://ex.org/> SELECT ?a ?b WHERE { ?a ex:next+ ?b }")
        .unwrap();
    let snapshot = store.snapshot();
    let capped = snapshot.with_budget(Budget::new().with_max_rows(500));
    let err = capped.execute_prepared(&q).unwrap_err();
    assert!(err.is_aborted());
    let batch = capped.execute_prepared_batch(&[q.clone(), q.clone()]);
    assert!(batch.iter().all(|r| r.as_ref().is_err()));
    // Unbudgeted execution of the same handle still completes.
    assert!(!snapshot.execute_prepared(&q).unwrap().is_empty());
}

/// `SparqLogError`'s std::error integration: `Display` names the tripped
/// limit and how far execution got, `source()` exposes inner errors, and
/// `is_timeout()` covers governor deadline aborts.
#[test]
fn abort_error_is_actionable() {
    use std::error::Error;
    let store = ring_store(150);
    let heavy = "PREFIX ex: <http://ex.org/> SELECT ?a ?b WHERE { ?a ex:next+ ?b }";

    let err = store
        .snapshot()
        .with_budget(Budget::new().with_max_rows(1_000))
        .execute(heavy)
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("derived-row limit"), "message: {msg}");
    assert!(msg.contains("rows"), "message: {msg}");
    assert!(err.source().is_none(), "Aborted is a root cause");
    assert!(!err.is_timeout());

    let err = store
        .snapshot()
        .with_budget(Budget::new().with_timeout(Duration::from_millis(1)))
        .execute(heavy)
        .unwrap_err();
    assert!(
        err.is_timeout(),
        "deadline aborts count as timeouts: {err:?}"
    );

    let parse = store.execute("nonsense").unwrap_err();
    assert!(parse.source().is_some(), "parse errors chain their cause");
}

/// A `with_budget` view is a view, not a setting: a 1-row cap aborts the
/// view's query while the snapshot it came from answers the same query
/// in full.
#[test]
fn budget_view_aborts_while_its_snapshot_answers_in_full() {
    let store = ring_store(30);
    let q = "PREFIX ex: <http://ex.org/> SELECT ?a ?b WHERE { ?a ex:next+ ?b }";
    let snapshot = store.snapshot();
    let view = snapshot.with_budget(Budget::new().with_max_rows(1));
    match view.execute(q) {
        Err(SparqLogError::Aborted {
            reason: AbortReason::RowLimit,
            ..
        }) => {}
        other => panic!("the 1-row view should abort, got {other:?}"),
    }
    let full = snapshot.execute(q).unwrap();
    assert_eq!(full, store.execute(q).unwrap());
    assert!(full.len() > 1, "the parent answers in full");
    // The view keeps its cap; the parent keeps the store default.
    assert!(view.execute(q).unwrap_err().is_aborted());
    assert!(snapshot.options().budget.is_unlimited());
}

/// A live view pins the version it was taken from: after a commit it
/// still reports the pre-commit content and results, while the store
/// serves the new version.
#[test]
fn budget_view_pins_its_version() {
    let store = ring_store(30);
    let q = "PREFIX ex: <http://ex.org/> SELECT ?b WHERE { ex:n0 ex:next ?b }";
    let view = store
        .snapshot()
        .with_budget(Budget::new().with_timeout(Duration::from_secs(30)));
    let signature = view.database().content_signature();
    let before = view.execute(q).unwrap();
    store
        .update("PREFIX ex: <http://ex.org/> INSERT DATA { ex:n0 ex:next ex:extra }")
        .unwrap();
    assert_eq!(view.database().content_signature(), signature);
    assert_eq!(view.execute(q).unwrap(), before);
    assert_eq!(store.execute(q).unwrap().len(), before.len() + 1);
}

// ------------------------------------------------------ commit faults

const EX: &str = "http://ex.org/";

/// Four asserted triples, no ontology.
fn students() -> Store {
    let store = Store::new();
    store
        .load_turtle(
            r#"@prefix ex: <http://ex.org/> .
               ex:alice a ex:Student ; ex:knows ex:bob .
               ex:bob a ex:Student ; ex:name "Bob" ."#,
        )
        .unwrap();
    store
}

fn student_is_person() -> Ontology {
    Ontology::new().with(Axiom::SubClassOf(
        format!("{EX}Student"),
        format!("{EX}Person"),
    ))
}

/// [`students`] with the subclass axiom installed.
fn ontology_store() -> Store {
    let store = students();
    store.add_ontology(&student_is_person()).unwrap();
    store
}

fn add_carol(store: &Store) -> Result<CommitStats, SparqLogError> {
    let mut w = store.writer();
    w.insert(
        Term::iri(format!("{EX}carol")),
        Term::iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"),
        Term::iri(format!("{EX}Student")),
    );
    w.commit()
}

fn ask(store: &Store, query: &str) -> bool {
    let unlimited = store.snapshot().with_budget(Budget::new());
    unlimited.execute(query).unwrap() == QueryResults::Boolean(true)
}

/// Runs `commit` with `budget` as the store default — once with no
/// snapshot alive, once with one pinned — and checks that it aborts,
/// that the store then serves the exact pre-commit version, and that the
/// same commit succeeds once the budget is lifted (`landed` then holds).
fn assert_aborted_commit_leaves_store_serving(
    setup: fn() -> Store,
    budget: fn() -> Budget,
    commit: fn(&Store) -> Result<CommitStats, SparqLogError>,
    landed: &str,
) {
    for pinned in [false, true] {
        let store = setup();
        let before = store.snapshot().database().content_signature();
        let pin = pinned.then(|| store.snapshot());
        store.set_default_budget(budget());
        let err = commit(&store).unwrap_err();
        assert!(
            matches!(err, SparqLogError::Aborted { .. }),
            "pinned={pinned}: got {err:?}"
        );
        assert_eq!(
            store.snapshot().database().content_signature(),
            before,
            "pinned={pinned}: the pre-commit version stays installed"
        );
        assert!(!ask(&store, landed), "pinned={pinned}: nothing landed");
        if let Some(pin) = &pin {
            assert_eq!(pin.database().content_signature(), before);
        }
        store.set_default_budget(Budget::new());
        commit(&store).unwrap();
        assert!(ask(&store, landed), "pinned={pinned}: the retry landed");
    }
}

fn one_row() -> Budget {
    Budget::new().with_max_rows(1)
}

fn pre_cancelled() -> Budget {
    let token = CancelToken::new();
    token.cancel();
    Budget::new().with_cancel(token)
}

const ALICE_IS_PERSON: &str = "PREFIX ex: <http://ex.org/> ASK { ex:alice a ex:Person }";
const CAROL_IS_PERSON: &str = "PREFIX ex: <http://ex.org/> ASK { ex:carol a ex:Person }";

/// The ontology install that used to brick the store: under a 1-row
/// default budget it aborts, and every later `snapshot()` must serve.
#[test]
fn row_capped_ontology_install_leaves_store_serving() {
    assert_aborted_commit_leaves_store_serving(
        students,
        one_row,
        |s| s.add_ontology(&student_is_person()),
        ALICE_IS_PERSON,
    );
}

#[test]
fn row_capped_commit_into_ontology_store_leaves_store_serving() {
    assert_aborted_commit_leaves_store_serving(ontology_store, one_row, add_carol, CAROL_IS_PERSON);
}

#[test]
fn cancelled_commits_leave_store_serving() {
    assert_aborted_commit_leaves_store_serving(
        students,
        pre_cancelled,
        |s| s.add_ontology(&student_is_person()),
        ALICE_IS_PERSON,
    );
    assert_aborted_commit_leaves_store_serving(
        ontology_store,
        pre_cancelled,
        add_carol,
        CAROL_IS_PERSON,
    );
}

/// A failed ontology install does not half-install its axioms: a later
/// unrelated commit still runs without them.
#[test]
fn aborted_ontology_install_is_not_materialised_later() {
    let store = students();
    store.set_default_budget(one_row());
    assert!(store.add_ontology(&student_is_person()).is_err());
    store.set_default_budget(Budget::new());
    add_carol(&store).unwrap();
    assert!(!ask(&store, ALICE_IS_PERSON));
    assert!(!ask(&store, CAROL_IS_PERSON));
}
