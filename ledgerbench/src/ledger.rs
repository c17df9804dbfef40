//! Reads of the store's own `MetricsRegistry`, taken before and after a
//! phase so the benchmark can compare the program's counters with the
//! calls it made itself.

use std::sync::Arc;

use sparqlog::MetricsRegistry;
use sparqlog_obs::Histogram;

/// One reading of every counter and histogram the benchmark uses.
#[derive(Debug, Clone, Copy, Default)]
pub struct Reading {
    pub translations: u64,
    pub plan_hits: u64,
    pub plans_computed: u64,
    pub queries: u64,
    pub rounds: u64,
    pub rows_derived: u64,
    pub join_probes: u64,
    pub query_us_sum: u64,
    pub commits: u64,
    pub commit_us_sum: u64,
    pub commit_us_count: u64,
    pub rows_added: u64,
    pub rows_removed: u64,
    pub removals_maintained: u64,
    pub removals_fallback: u64,
    pub snapshot_refreshes: u64,
    pub notifications: u64,
    pub lagged: u64,
    pub http_us_sum: u64,
    pub http_us_count: u64,
    pub http_bytes: u64,
}

fn counter(r: &MetricsRegistry, name: &str) -> u64 {
    r.counter_value(name).unwrap_or(0)
}

/// Handles on the registry a run reads from.
pub struct Meter {
    registry: Arc<MetricsRegistry>,
    query_us: Arc<Histogram>,
    commit_us: Arc<Histogram>,
    /// Present once an HTTP server registered its families.
    http_us: Option<Arc<Histogram>>,
}

impl Meter {
    /// `http`: whether a server is serving this store (its histogram is
    /// only attached then, so reading never registers a family the
    /// program did not).
    pub fn new(registry: Arc<MetricsRegistry>, http: bool) -> Self {
        let h = |name: &str| registry.histogram(name, "", 22);
        Meter {
            query_us: h("sparqlog_query_duration_us"),
            commit_us: h("sparqlog_store_commit_duration_us"),
            http_us: http.then(|| h("sparqlog_http_request_duration_us")),
            registry,
        }
    }

    pub fn read(&self) -> Reading {
        let r = &*self.registry;
        let (http_us_sum, http_us_count) = self
            .http_us
            .as_ref()
            .map_or((0, 0), |h| (h.sum(), h.count()));
        Reading {
            translations: counter(r, "sparqlog_translations_total"),
            plan_hits: counter(r, "sparqlog_plan_cache_hits_total"),
            plans_computed: counter(r, "sparqlog_plans_computed_total"),
            queries: counter(r, "sparqlog_queries_total"),
            rounds: counter(r, "sparqlog_eval_rounds_total"),
            rows_derived: counter(r, "sparqlog_eval_rows_derived_total"),
            join_probes: counter(r, "sparqlog_eval_join_probes_total"),
            query_us_sum: self.query_us.sum(),
            commits: counter(r, "sparqlog_store_commits_total"),
            commit_us_sum: self.commit_us.sum(),
            commit_us_count: self.commit_us.count(),
            rows_added: counter(r, "sparqlog_store_rows_added_total"),
            rows_removed: counter(r, "sparqlog_store_rows_removed_total"),
            removals_maintained: counter(r, "sparqlog_store_removals_maintained_total"),
            removals_fallback: counter(r, "sparqlog_store_removals_fallback_total"),
            snapshot_refreshes: counter(r, "sparqlog_store_snapshot_refreshes_total"),
            notifications: counter(r, "sparqlog_subscription_notifications_total"),
            lagged: counter(r, "sparqlog_subscription_lagged_total"),
            http_us_sum,
            http_us_count,
            http_bytes: r
                .counter_vec_sum("sparqlog_http_bytes_streamed_total")
                .unwrap_or(0),
        }
    }
}

impl Reading {
    /// Field-wise `self - earlier`.
    pub fn since(&self, e: &Reading) -> Reading {
        Reading {
            translations: self.translations - e.translations,
            plan_hits: self.plan_hits - e.plan_hits,
            plans_computed: self.plans_computed - e.plans_computed,
            queries: self.queries - e.queries,
            rounds: self.rounds - e.rounds,
            rows_derived: self.rows_derived - e.rows_derived,
            join_probes: self.join_probes - e.join_probes,
            query_us_sum: self.query_us_sum - e.query_us_sum,
            commits: self.commits - e.commits,
            commit_us_sum: self.commit_us_sum - e.commit_us_sum,
            commit_us_count: self.commit_us_count - e.commit_us_count,
            rows_added: self.rows_added - e.rows_added,
            rows_removed: self.rows_removed - e.rows_removed,
            removals_maintained: self.removals_maintained - e.removals_maintained,
            removals_fallback: self.removals_fallback - e.removals_fallback,
            snapshot_refreshes: self.snapshot_refreshes - e.snapshot_refreshes,
            notifications: self.notifications - e.notifications,
            lagged: self.lagged - e.lagged,
            http_us_sum: self.http_us_sum - e.http_us_sum,
            http_us_count: self.http_us_count - e.http_us_count,
            http_bytes: self.http_bytes - e.http_bytes,
        }
    }
}

/// A registry delta that must equal the benchmark's own count.
pub struct Check {
    pub what: &'static str,
    pub registry: u64,
    pub ours: u64,
}

/// Compares each pair and returns one message per drift.
pub fn drift(checks: &[Check]) -> Vec<String> {
    checks
        .iter()
        .filter(|c| c.registry != c.ours)
        .map(|c| {
            format!(
                "ledger drift: {} moved by {} in the registry, the benchmark counted {}",
                c.what, c.registry, c.ours
            )
        })
        .collect()
}
