//! Data cleaning with ODs: violations point at data errors (paper §1.1).
//!
//! "An employee never has a higher salary while paying lower taxes" is a
//! business rule FDs cannot express. This example takes a clean payroll
//! table, injects two realistic errors, and shows how the OD machinery
//! pinpoints the offending tuple pairs — then uses *approximate* discovery
//! (the §7 extension) to recover the rule despite the dirt.
//!
//! Run with: `cargo run --release --example data_cleaning`

use fastod_suite::discovery::{ApproxConfig, ApproxFastod};
use fastod_suite::prelude::*;
use fastod_suite::theory::{find_violations, CanonicalOd};

fn main() {
    // A payroll table where tax should track salary. Two injected errors:
    // row 4's tax was fat-fingered (too high), and rows 8/9 share an id
    // with different bins.
    let table = RelationBuilder::new()
        .column_i64("emp_id", vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 9])
        .column_i64("salary", vec![30, 35, 40, 45, 50, 55, 60, 65, 70, 75])
        .column_i64("tax", vec![6, 7, 8, 9, 22, 11, 12, 13, 14, 15]) // row 4 dirty
        .column_i64("bin", vec![1, 1, 1, 1, 2, 2, 2, 3, 3, 4])
        .build()
        .unwrap();
    let enc = table.encode();
    let names = table.schema().names();
    let (salary, tax) = (1, 2);
    let (emp_id, bin) = (0, 3);

    // The business rules we expect to hold:
    let salary_orders_tax = CanonicalOd::order_compat(AttrSet::EMPTY, salary, tax);
    let id_determines_bin = CanonicalOd::constancy(AttrSet::singleton(emp_id), bin);

    println!("rule 1: {}", salary_orders_tax.display(names));
    for v in find_violations(&enc, &salary_orders_tax, 5) {
        println!("  VIOLATION {}", v.describe(names, |r, a| table.value(r, a)));
    }
    println!("rule 2: {}", id_determines_bin.display(names));
    for v in find_violations(&enc, &id_determines_bin, 5) {
        println!("  VIOLATION {}", v.describe(names, |r, a| table.value(r, a)));
    }

    // Exact discovery cannot see the dirty rules...
    let exact = Fastod::new(DiscoveryConfig::default()).discover(&enc);
    println!(
        "\nexact discovery finds {} ODs; salary~tax among them: {}",
        exact.ods.len(),
        exact.ods.contains(&salary_orders_tax),
    );

    // ...but approximate discovery (tolerating 10% dirty rows) recovers them,
    // flagging rules worth cleaning toward.
    let approx = ApproxFastod::new(ApproxConfig::new(0.10)).discover(&enc);
    println!(
        "approximate discovery (eps=0.10) finds {} ODs; salary~tax among them: {}",
        approx.ods.len(),
        approx.ods.contains(&salary_orders_tax),
    );
    assert!(approx.ods.contains(&salary_orders_tax));

    println!("\nrepair suggestion: rows flagged above participate in every violation —");
    println!("fixing tuple 4's tax (22 -> 10) restores `salary orders tax` exactly.");
}
