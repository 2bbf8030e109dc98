//! Experiment E7 — branch-and-bound cost-limit abandonment (§4.3.2).
//!
//! Optimizes multi-join OO7 queries with and without the cost limit and
//! reports the estimation work saved. It runs the exhaustive permutation
//! oracle (`Optimizer::optimize_by_permutation`): the experiment isolates
//! the cost-limit effect, which the DP's caches would partially mask.

use crate::Table;
use disco_common::Result;
use disco_mediator::analyze::analyze;
use disco_mediator::{parse_query, Mediator, Optimizer, OptimizerOptions};
use disco_oo7::{build_store, rules, Oo7Config};
use disco_wrapper::SourceWrapper;

const QUERIES: [(&str, &str); 3] = [
    (
        "2-way",
        "SELECT a.X, d.Title FROM AtomicParts a, Documents d \
         WHERE a.DocId = d.DocId AND a.Id < 1000",
    ),
    (
        "3-way",
        "SELECT a.X, d.Title FROM AtomicParts a, CompositeParts c, Documents d \
         WHERE a.PartOf = c.Id AND c.DocId = d.DocId AND a.Id < 1000",
    ),
    (
        "4-way",
        "SELECT a.X FROM AtomicParts a, CompositeParts c, Documents d, AssemblyUses u \
         WHERE a.PartOf = c.Id AND c.DocId = d.DocId AND u.CompId = c.Id AND a.Id < 500",
    ),
];

/// Run E7 at paper scale and render its report (what the `pruning`
/// binary prints; planning reads only the registered statistics).
pub fn run_pruning() -> Result<String> {
    let store = build_store(&Oo7Config::paper())?;
    let mut m = Mediator::new();
    m.register(Box::new(
        SourceWrapper::new("oo7", store).with_cost_rules(rules::yao_rules()),
    ))?;

    let mut t = Table::new(&[
        "query",
        "plans",
        "nodes (no pruning)",
        "nodes (pruning)",
        "pruned",
        "saved",
        "same plan?",
    ]);
    for (name, sql) in QUERIES {
        let q = analyze(&parse_query(sql)?, m.catalog())?;
        let plan = |pruning| {
            let options = OptimizerOptions {
                pruning,
                ..Default::default()
            };
            Optimizer::new(m.catalog(), m.registry(), options).optimize_by_permutation(&q)
        };
        let (off, on) = (plan(false)?, plan(true)?);
        let saved = 1.0 - on.estimator_nodes as f64 / off.estimator_nodes as f64;
        t.row(vec![
            name.into(),
            off.plans_considered.to_string(),
            off.estimator_nodes.to_string(),
            on.estimator_nodes.to_string(),
            on.plans_pruned.to_string(),
            format!("{:.0}%", saved * 100.0),
            (on.estimated.total_time == off.estimated.total_time).to_string(),
        ]);
    }
    Ok(format!(
        "E7 — optimizer estimation work, with and without cost-limit pruning\n\n\
         {}\n\
         Pruning abandons plans mid-estimation without changing the chosen plan.\n",
        t.render()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The estimator work counters are a contract: the committed report
    /// regenerates byte for byte.
    #[test]
    fn report_matches_the_committed_results() {
        let report = run_pruning().unwrap();
        assert_eq!(report, include_str!("../../../results/pruning.txt"));
    }
}
