//! The write stream: each update deletes the 5 triples the previous one
//! inserted and inserts 5 new ones, so the store keeps its size. A
//! standing-query subscription over the written pattern must see exactly
//! 5 rows added and 5 removed per update.

use std::time::{Duration, Instant};

use sparqlog::{Store, Subscription, SubscriptionEvent};
use sparqlog_benchdata::rng::StdRng;

/// Triples inserted (and later deleted) per update.
pub const PER_UPDATE: usize = 5;

const TOUCHED: &str = "<http://localhost/vocabulary/bench/touched>";

/// The standing query over the written pattern.
pub const WATCH: &str = "SELECT ?s ?o WHERE { ?s <http://localhost/vocabulary/bench/touched> ?o }";

pub struct WriteStream {
    subjects: Vec<String>,
    rng: StdRng,
    seq: u64,
    live: Vec<String>,
}

impl WriteStream {
    /// `subjects`: IRIs (in `<...>` form) of existing resources the
    /// written triples hang off.
    pub fn new(subjects: Vec<String>, seed: u64) -> Self {
        assert!(!subjects.is_empty(), "write stream needs subjects");
        WriteStream {
            subjects,
            rng: StdRng::seed_from_u64(seed ^ 0x7772_6974_6573),
            seq: 0,
            live: Vec::new(),
        }
    }

    /// The next update text: `DELETE DATA` of the live triples (after
    /// the first) followed by `INSERT DATA` of fresh ones.
    pub fn next_update(&mut self) -> String {
        let fresh: Vec<String> = (0..PER_UPDATE)
            .map(|j| {
                let s = &self.subjects[self.rng.gen_range(0..self.subjects.len())];
                format!("{s} {TOUCHED} \"w{}-{j}\" .", self.seq)
            })
            .collect();
        self.seq += 1;
        let insert = format!("INSERT DATA {{ {} }}", fresh.join(" "));
        let text = if self.live.is_empty() {
            insert
        } else {
            format!("DELETE DATA {{ {} }} ; {insert}", self.live.join(" "))
        };
        self.live = fresh;
        text
    }
}

/// Puts the first 5 triples in place and subscribes to the written
/// pattern; every later update then replaces 5 with 5.
pub fn prime(store: &Store, stream: &mut WriteStream) -> Result<Subscription, String> {
    store
        .update(&stream.next_update())
        .map_err(|e| format!("priming update: {e}"))?;
    let watch = store.prepare(WATCH).map_err(|e| e.to_string())?;
    let sub = store.subscribe(&watch).map_err(|e| e.to_string())?;
    if sub.initial().len() != PER_UPDATE {
        return Err(format!(
            "subscription starts with {} rows, expected {PER_UPDATE}",
            sub.initial().len()
        ));
    }
    Ok(sub)
}

/// One timed update plus the check of its deltas: `(latency, deltas,
/// problem)`.
pub fn step(store: &Store, sub: &Subscription, text: &str) -> (Duration, u64, Option<String>) {
    let t0 = Instant::now();
    let res = store.update(text);
    let latency = t0.elapsed();
    if let Err(e) = res {
        return (latency, 0, Some(format!("update failed: {e}")));
    }
    match drain(sub) {
        Ok(n) => (latency, n, None),
        Err((n, e)) => (latency, n, Some(e)),
    }
}

/// Takes the deltas one update produced. The engine commits each
/// operation of an update request on its own, so a `DELETE DATA ;
/// INSERT DATA` request may arrive as one delta or as two; either way
/// they must add exactly 5 rows and remove exactly 5. Returns how many
/// deltas arrived.
pub fn drain(sub: &Subscription) -> Result<u64, (u64, String)> {
    let (mut deltas, mut added, mut removed) = (0, 0, 0);
    while let Some(ev) = sub.try_recv() {
        match ev {
            SubscriptionEvent::Delta(d) => {
                deltas += 1;
                added += d.added.len();
                removed += d.removed.len();
            }
            SubscriptionEvent::Lagged(n) => {
                return Err((deltas, format!("subscription lagged by {n}")))
            }
        }
    }
    if added == PER_UPDATE && removed == PER_UPDATE {
        Ok(deltas)
    } else {
        Err((
            deltas,
            format!(
                "{deltas} deltas adding {added} and removing {removed} rows, expected {PER_UPDATE} and {PER_UPDATE}"
            ),
        ))
    }
}
