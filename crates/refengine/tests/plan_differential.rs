//! Differential testing of the PR 6 physical planner: every query runs
//! under all four optimiser configurations — cost-based planning on/off
//! × magic-sets rewrite on/off — at evaluator thread counts 1 and 4,
//! and each result is checked against both the unoptimised SparqLog
//! evaluation *and* FusekiSim's independent direct implementation.
//!
//! The planner's contract is that plans are advice: a reordered body or
//! a demand-restricted fixpoint may change the work performed but never
//! the answer. This suite is that contract, executed.

use sparqlog::{QueryResults, Store};
use sparqlog_datalog::EvalOptions;
use sparqlog_rdf::Dataset;
use sparqlog_refengine::FusekiSim;

const DATA: &str = r#"
@prefix ex: <http://e/> .
ex:a ex:p ex:b . ex:b ex:p ex:c . ex:c ex:p ex:a .
ex:a ex:q ex:c . ex:c ex:q ex:d .
ex:a ex:name "Anna" . ex:b ex:name "Ben" ; ex:age 30 .
ex:c ex:name "Cem"@tr ; ex:age 25 .
ex:d ex:name "Dee" ; ex:age 30 .
ex:a a ex:Person . ex:b a ex:Person . ex:d a ex:Robot .
"#;

/// Joins with selective atoms in unhelpful text positions, property
/// paths with bound and unbound endpoints (the magic-sets target and
/// its complement), and the non-monotone forms (OPTIONAL, MINUS,
/// aggregates) whose stratification the planner must preserve.
const QUERIES: &[&str] = &[
    // Multi-atom joins: the planner reorders these.
    "PREFIX ex: <http://e/> SELECT ?s ?o WHERE { ?s ex:p ?m . ?m ex:p ?o }",
    "PREFIX ex: <http://e/> SELECT ?s ?n WHERE { ?s ex:p ?m . ?m ex:q ?o . ?s ex:name ?n }",
    "PREFIX ex: <http://e/> SELECT ?s WHERE { ?s ex:age 30 . ?s ex:name ?n . ?s a ex:Person }",
    // Bound-endpoint recursive paths: the magic-sets target.
    "PREFIX ex: <http://e/> SELECT ?y WHERE { ex:a ex:p+ ?y }",
    "PREFIX ex: <http://e/> SELECT ?y WHERE { ex:a ex:p* ?y }",
    "PREFIX ex: <http://e/> SELECT ?x WHERE { ?x ex:p+ ex:c }",
    "PREFIX ex: <http://e/> SELECT ?y WHERE { ex:a (ex:p/ex:q)+ ?y }",
    "PREFIX ex: <http://e/> ASK { ex:b ex:p+ ex:a }",
    // Unbound-endpoint paths: the rewrite must leave these whole.
    "PREFIX ex: <http://e/> SELECT ?x ?y WHERE { ?x ex:p+ ?y }",
    "PREFIX ex: <http://e/> SELECT ?x ?y WHERE { ?x (ex:p|ex:q)+ ?y }",
    // Path feeding a join (the path predicate gains a consumer).
    "PREFIX ex: <http://e/> SELECT ?n WHERE { ex:a ex:p+ ?y . ?y ex:name ?n }",
    // Non-monotone forms around the reordered joins.
    "PREFIX ex: <http://e/> SELECT ?s ?a WHERE { ?s ex:name ?n OPTIONAL { ?s ex:age ?a } }",
    "PREFIX ex: <http://e/> SELECT ?s WHERE { ?s ex:name ?n MINUS { ?s ex:age 30 } }",
    "PREFIX ex: <http://e/> SELECT ?s WHERE { { ?s ex:p ex:b } UNION { ?s ex:q ex:c } }",
    "PREFIX ex: <http://e/> SELECT ?s (COUNT(?o) AS ?c) WHERE { ?s ?p ?o } GROUP BY ?s",
    "PREFIX ex: <http://e/> SELECT ?s WHERE { ?s ex:age ?a FILTER (?a > 26) }",
];

fn dataset() -> Dataset {
    Dataset::from_default_graph(sparqlog_rdf::turtle::parse(DATA).unwrap())
}

fn engine(plan: bool, magic_sets: bool, threads: usize) -> Store {
    let sl = Store::with_options(EvalOptions {
        plan,
        magic_sets,
        threads: Some(threads),
        ..Default::default()
    });
    sl.load_dataset(&dataset()).unwrap();
    sl
}

fn assert_same(a: &QueryResults, b: &QueryResults, ctx: &str) {
    match (a, b) {
        (QueryResults::Solutions(x), QueryResults::Solutions(y)) => {
            assert!(
                x.multiset_eq(y),
                "{ctx}\nreference: {:?}\noptimised: {:?}",
                x.canonical(true),
                y.canonical(true)
            );
        }
        _ => assert_eq!(a, b, "{ctx}"),
    }
}

#[test]
fn every_optimiser_configuration_agrees_with_baseline_and_refengine() {
    let fuseki = FusekiSim::new(dataset());
    for threads in [1, 4] {
        let baseline = engine(false, false, threads);
        let configs = [
            ("plan", engine(true, false, threads)),
            ("magic", engine(false, true, threads)),
            ("plan+magic", engine(true, true, threads)),
        ];
        for q in QUERIES {
            let expected = baseline.execute(q).unwrap_or_else(|e| panic!("{q}: {e}"));
            let reference = fuseki.execute(q).unwrap_or_else(|e| panic!("{q}: {e}"));
            assert_same(
                &expected,
                &reference,
                &format!("baseline vs FusekiSim: {q} (threads {threads})"),
            );
            for (name, sl) in &configs {
                let got = sl.execute(q).unwrap_or_else(|e| panic!("{name} {q}: {e}"));
                assert_same(&expected, &got, &format!("{name}: {q} (threads {threads})"));
            }
        }
    }
}

#[test]
fn store_level_toggle_is_differential_too() {
    // The same contract through the Store/Snapshot serving path, where
    // plans are cached on the translation: flipping the options on a
    // live store must not change any answer.
    let planned = Store::with_options(EvalOptions {
        threads: Some(1),
        ..Default::default()
    });
    let unplanned = Store::with_options(EvalOptions {
        plan: false,
        magic_sets: false,
        threads: Some(1),
        ..Default::default()
    });
    for store in [&planned, &unplanned] {
        store
            .load_dataset(&dataset())
            .expect("fixture loads into the store");
    }
    for q in QUERIES {
        assert_same(
            &unplanned.execute(q).unwrap(),
            &planned.execute(q).unwrap(),
            &format!("store serving path: {q}"),
        );
    }
    // Flipping options replans without changing answers.
    planned.set_options(EvalOptions {
        plan: false,
        magic_sets: false,
        threads: Some(1),
        ..Default::default()
    });
    for q in QUERIES {
        assert_same(
            &unplanned.execute(q).unwrap(),
            &planned.execute(q).unwrap(),
            &format!("after set_options: {q}"),
        );
    }
}

/// The literal-equality edges of filter-aware planning: numeric values
/// equal across lexical forms and datatypes, NaN, language-tagged vs
/// plain literals, IRIs vs literals. Each subject on the `ex:v` side has
/// a partner on the `ex:w` side.
const FILTER_DATA: &str = r#"
@prefix ex: <http://e/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
ex:i1 ex:v "1"^^xsd:integer . ex:i2 ex:w "01"^^xsd:integer .
ex:n1 ex:v 1 . ex:n2 ex:w 1.0 .
ex:f1 ex:v "NaN"^^xsd:double . ex:f2 ex:w "NaN"^^xsd:double .
ex:l1 ex:v "chat"@fr . ex:l2 ex:w "chat" .
ex:r1 ex:v ex:thing . ex:r2 ex:w "http://e/thing" .
ex:s1 ex:v "same" . ex:s2 ex:w "same" .
ex:s2 ex:u "same" . ex:l2 ex:u "chat"@fr .
"#;

/// `(query, forms a key)`: whether `explain` must show a condition-keyed
/// probe (`keyed=`) in the query's plan.
const FILTER_QUERIES: &[(&str, bool)] = &[
    // Variable = variable across two disconnected patterns: the
    // equality becomes the join key; numeric values fall back to the
    // verified scan at probe time.
    ("SELECT ?a ?b WHERE { ?a ex:v ?x . ?b ex:w ?y FILTER (?x = ?y) }", true),
    ("SELECT ?b WHERE { ex:i1 ex:v ?x . ?b ex:w ?y FILTER (?x = ?y) }", true),
    ("SELECT ?b WHERE { ex:n1 ex:v ?x . ?b ex:w ?y FILTER (?x = ?y) }", true),
    ("SELECT ?b WHERE { ex:f1 ex:v ?x . ?b ex:w ?y FILTER (?x = ?y) }", true),
    ("SELECT ?b WHERE { ex:l1 ex:v ?x . ?b ex:w ?y FILTER (?x = ?y) }", true),
    ("SELECT ?b WHERE { ex:r1 ex:v ?x . ?b ex:w ?y FILTER (?x = ?y) }", true),
    ("SELECT ?b WHERE { ex:s1 ex:v ?x . ?b ex:w ?y FILTER (?y = ?x && BOUND(?b)) }", true),
    // sameTerm: identity, no numeric coercion.
    ("SELECT ?a ?b WHERE { ?a ex:v ?x . ?b ex:w ?y FILTER (sameTerm(?x, ?y)) }", true),
    ("SELECT ?a ?b WHERE { ?a ex:v ?x . ?b ex:w ?y FILTER (sameTerm(?x, ?y) || ?x = ?y) }", false),
    // Variable = constant: keyed when the constant is not numeric.
    ("SELECT ?a WHERE { ?a ex:v ?x FILTER (?x = \"chat\"@fr) }", true),
    ("SELECT ?a ?x WHERE { ?a ?p ?x FILTER (?p = ex:w) }", true),
    ("SELECT ?a WHERE { ?a ex:v ?x FILTER (sameTerm(?x, 1)) }", true),
    ("SELECT ?a WHERE { ?a ex:v ?x FILTER (?x = 1) }", false),
    // Inequality and order comparisons never key.
    ("SELECT ?a ?b WHERE { ?a ex:v ?x . ?b ex:w ?y FILTER (?x != ?y) }", false),
    ("SELECT ?a ?b WHERE { ?a ex:v ?x . ?b ex:w ?y FILTER (?x < ?y) }", false),
    // A variable bound only inside OPTIONAL may be unbound: the
    // equality must stay above the OPTIONAL.
    (
        "SELECT ?a ?b WHERE { ?a ex:v ?x . { ?b ex:w ?y OPTIONAL { ?b ex:u ?z } } FILTER (?x = ?z) }",
        false,
    ),
];

fn filter_dataset() -> Dataset {
    Dataset::from_default_graph(sparqlog_rdf::turtle::parse(FILTER_DATA).unwrap())
}

#[test]
fn equality_filter_keys_agree_with_baseline_and_refengine() {
    let fuseki = FusekiSim::new(filter_dataset());
    let with_prefix = |q: &str| format!("PREFIX ex: <http://e/> {q}");
    for threads in [1, 4] {
        let options = |plan, magic_sets| EvalOptions {
            plan,
            magic_sets,
            threads: Some(threads),
            ..Default::default()
        };
        let load = |o: EvalOptions| {
            let sl = Store::with_options(o);
            sl.load_dataset(&filter_dataset()).unwrap();
            sl
        };
        let baseline = load(options(false, false));
        let planned = load(options(true, false));
        let both = load(options(true, true));
        for (q, _) in FILTER_QUERIES {
            let q = with_prefix(q);
            let expected = baseline.execute(&q).unwrap_or_else(|e| panic!("{q}: {e}"));
            let reference = fuseki.execute(&q).unwrap_or_else(|e| panic!("{q}: {e}"));
            assert_same(
                &expected,
                &reference,
                &format!("vs FusekiSim: {q} (threads {threads})"),
            );
            for (name, sl) in [("plan", &planned), ("plan+magic", &both)] {
                let got = sl.execute(&q).unwrap_or_else(|e| panic!("{name} {q}: {e}"));
                assert_same(&expected, &got, &format!("{name}: {q} (threads {threads})"));
            }
        }
    }

    // Key formation, read off the plan the serving layer executes.
    let store = sparqlog::Store::new();
    store.load_dataset(&filter_dataset()).unwrap();
    // Not vacuous: the numeric cluster {"1", "01", 1, 1.0} joins across
    // ids (4 pairs), plus NaN and the "same" strings.
    let all_pairs = store.execute(&with_prefix(FILTER_QUERIES[0].0)).unwrap();
    assert_eq!(all_pairs.len(), 6, "{all_pairs:?}");
    let snapshot = store.snapshot();
    for (q, keyed) in FILTER_QUERIES {
        let prepared = store.prepare(&with_prefix(q)).unwrap();
        let plan = snapshot.explain(&prepared).unwrap();
        assert_eq!(plan.contains("keyed="), *keyed, "{q}\n{plan}");
    }
}
