//! Synthetic workloads reproducing the paper's three evaluation datasets
//! (Table 1): IMDb (dynamic queries), Stack (dynamic data), and Corp
//! (dynamic schema). See DESIGN.md §1 for the substitution rationale.
//!
//! Each builder returns a populated [`bao_storage::Database`] plus a
//! [`Workload`]: an ordered list of steps, where a step optionally carries
//! an [`Event`] (data load / schema change) the harness must apply — and
//! re-ANALYZE for — before executing the step's query.

pub mod corp;
pub mod imdb;
pub mod stack;

use bao_common::json::{self, Json, ToJson};
use bao_common::{json_enum, json_record, BaoError, Result};
use bao_plan::Query;
use bao_storage::Database;

pub use corp::{build_corp, CorpConfig};
pub use imdb::{build_imdb, ImdbConfig};
pub use stack::{build_stack, StackConfig};

/// A mid-workload environment change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// Stack: load one more month of data (tables grow).
    LoadStackMonth { month: u32 },
    /// Corp: normalize the wide fact table into fact + dimension.
    CorpNormalization,
}

json_enum!(Event { LoadStackMonth { month }, CorpNormalization });

/// One step of a workload: an optional environment event, then a query.
#[derive(Debug, Clone)]
pub struct WorkloadStep {
    /// Template label (e.g. `"imdb/q07"` or `"JOB-16b"`).
    pub label: String,
    pub query: Query,
    /// Applied (and statistics rebuilt) before the query runs.
    pub event: Option<Event>,
}

json_record!(WorkloadStep { label, query, event });

/// An ordered query stream over a database.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: String,
    pub steps: Vec<WorkloadStep>,
}

impl Workload {
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Number of steps carrying events.
    pub fn n_events(&self) -> usize {
        self.steps.iter().filter(|s| s.event.is_some()).count()
    }

    /// Serialize the query stream to JSON (the data itself is regenerated
    /// from the seed; exporting the stream lets external tooling replay
    /// exactly the queries an experiment ran).
    pub fn to_json(&self) -> Result<String> {
        let j = Json::obj([("name", self.name.to_json()), ("steps", self.steps.to_json())]);
        Ok(j.to_string_pretty())
    }

    /// Restore a workload exported with [`Workload::to_json`].
    pub fn from_json(text: &str) -> Result<Workload> {
        let j = json::parse(text)
            .map_err(|e| BaoError::Config(format!("parse workload: {e}")))?;
        Ok(Workload { name: json::field(&j, "name")?, steps: json::field(&j, "steps")? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_json_round_trip() {
        let (_, wl) = build_imdb(&ImdbConfig {
            scale: 0.05,
            n_queries: 12,
            dynamic: true,
            seed: 3,
        })
        .unwrap();
        let json = wl.to_json().unwrap();
        let restored = Workload::from_json(&json).unwrap();
        assert_eq!(restored.name, wl.name);
        assert_eq!(restored.len(), wl.len());
        for (a, b) in wl.steps.iter().zip(restored.steps.iter()) {
            assert_eq!(a.query, b.query);
            assert_eq!(a.label, b.label);
            assert_eq!(a.event, b.event);
        }
        assert!(Workload::from_json("{nope").is_err());
    }

    #[test]
    fn stack_events_survive_round_trip() {
        let (_, wl) = build_stack(&StackConfig {
            scale: 0.05,
            n_queries: 30,
            initial_months: 2,
            total_months: 4,
            seed: 5,
        })
        .unwrap();
        let restored = Workload::from_json(&wl.to_json().unwrap()).unwrap();
        assert_eq!(restored.n_events(), wl.n_events());
    }
}

/// Apply an environment event to the database. The caller must rebuild
/// the statistics catalog afterwards (the paper: "database statistics are
/// fully rebuilt each time a new dataset is loaded").
pub fn apply_event(db: &mut Database, event: &Event, seed: u64) -> Result<()> {
    match event {
        Event::LoadStackMonth { month } => stack::load_month(db, *month, seed),
        Event::CorpNormalization => corp::normalize_fact_table(db),
    }
}
