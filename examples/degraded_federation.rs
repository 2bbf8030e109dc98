//! Degraded federation: a query survives a wrapper that is down.
//!
//! Three sources sit behind the channel transport's simulated network.
//! The archive wrapper is permanently unavailable; the mediator retries,
//! its circuit breaker opens, and the query still answers — as a partial
//! answer that names exactly the collections it is missing, in the
//! spirit of the paper's mediator "continuing to function when sources
//! are unavailable".
//!
//! ```text
//! cargo run --example degraded_federation
//! ```

use disco::common::{AttributeDef, DataType, Schema, Value};
use disco::mediator::Mediator;
use disco::sources::{CollectionBuilder, CostProfile, PagedStore};
use disco::transport::{
    BreakerPolicy, ChannelTransport, FaultKind, FaultPlan, NetProfile, RetryPolicy, TransportClient,
};
use disco::wrapper::SourceWrapper;

fn store(name: &str, coll: &str, tag: &str, rows: i64) -> PagedStore {
    let mut s = PagedStore::new(name, CostProfile::relational());
    s.add_collection(
        coll,
        CollectionBuilder::new(Schema::new(vec![
            AttributeDef::new("id", DataType::Long),
            AttributeDef::new("label", DataType::Str),
        ]))
        .rows((0..rows).map(|i| vec![Value::Long(i), Value::Str(format!("{tag}{i}"))])),
    )
    .expect("collection registers");
    s
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Three wrappers behind simulated LAN links; `archive` never answers
    // a submitted subquery.
    let mut transport = ChannelTransport::new();
    transport.add_wrapper(Box::new(SourceWrapper::new(
        "orders",
        store("orders", "Shipment", "ord", 300),
    )));
    transport.add_wrapper(Box::new(SourceWrapper::new(
        "crm",
        store("crm", "Customer", "cust", 120),
    )));
    transport.add_wrapper_with(
        Box::new(SourceWrapper::new(
            "archive",
            store("archive", "Invoice", "inv", 500),
        )),
        NetProfile::lan(),
        FaultPlan::always(FaultKind::Unavailable),
    );

    let client = TransportClient::new(Box::new(transport))
        .with_retry(RetryPolicy {
            max_attempts: 3,
            deadline_ms: 200,
            backoff_base_ms: 2,
            backoff_factor: 2.0,
        })
        .with_breaker(BreakerPolicy::default());

    let mut mediator = Mediator::new();
    // Registration happens over the wire; the archive endpoint is only
    // faulty for submitted subqueries, so all three register.
    mediator.connect(client)?;
    println!(
        "registered {} collections over the wire",
        mediator.catalog().collection_count()
    );

    let sql = "SELECT label FROM Shipment UNION ALL \
               SELECT label FROM Customer UNION ALL \
               SELECT label FROM Invoice";
    let result = mediator.query(sql)?;

    println!("\nquery: {sql}");
    println!("tuples returned: {}", result.tuples.len());
    if result.is_partial() {
        println!("PARTIAL ANSWER — missing collections:");
        for missing in &result.trace.missing {
            println!("  - {missing}");
        }
    }
    for submit in &result.trace.submits {
        println!(
            "submit to {:10} attempts={} {}",
            submit.wrapper,
            submit.attempts,
            if submit.failed { "FAILED" } else { "ok" }
        );
    }
    assert!(result.is_partial());
    assert_eq!(result.tuples.len(), 300 + 120);

    // A second query fails fast: the breaker for `archive` is open, so
    // the dead endpoint is no longer even attempted.
    let again = mediator.query(sql)?;
    println!(
        "\nsecond query: {} tuples, archive breaker: {:?}",
        again.tuples.len(),
        mediator
            .transport()
            .unwrap()
            .breaker_state("archive")
            .unwrap(),
    );
    Ok(())
}
