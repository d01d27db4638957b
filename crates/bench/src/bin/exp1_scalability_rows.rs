//! **Exp-1 (Figure 4): scalability in the number of tuples |r|.**
//!
//! For flight/ncvoter/dbtesma analogues at 10 attributes, sweeps row counts
//! (20%..100% of the scale's maximum) and reports the running time of TANE,
//! FASTOD and ORDER together with the paper's count annotations
//! `#set-based ODs (#FDs + #OCDs)`.
//!
//! FASTOD additionally runs once per thread count in the `FASTOD_THREADS`
//! sweep (default `1,2,4`): the `val@tN` columns isolate the validation
//! phase — the part `DiscoveryConfig::threads` shards across workers — and
//! `val speedup` is `t=1` over the largest thread count. The discovered
//! cover is identical at every thread count (asserted here, pinned by
//! `tests/parallel_equivalence.rs`).
//!
//! Expected shape (paper): all three scale linearly in |r|; TANE < FASTOD;
//! ORDER is slowest on flight/dbtesma but *fast-and-empty* on ncvoter
//! (its swap pruning kills every candidate at level 2).

use fastod_baselines::{Order, OrderConfig, Tane, TaneConfig};
use fastod_bench::{
    budget_from_env, fastod_thread_sweep, run_budgeted, sweep_speedup, table::Table,
    thread_sweep_from_env, write_csv, Scale,
};
use fastod_datagen::{dbtesma_like, flight_like, ncvoter_like};
use fastod_relation::Relation;

type Gen = Box<dyn Fn(usize) -> Relation>;

fn main() {
    let scale = Scale::from_env();
    let budget = budget_from_env();
    let threads_sweep = thread_sweep_from_env();
    let n_attrs = 10;
    let datasets: Vec<(&str, Gen)> = vec![
        ("flight", Box::new(move |n| flight_like(n, n_attrs, 0xF11647)) as Gen),
        ("ncvoter", Box::new(move |n| ncvoter_like(n, n_attrs, 0x9C07E2))),
        ("dbtesma", Box::new(move |n| dbtesma_like(n, n_attrs, 0xDB7E53))),
    ];
    let max_rows = [
        scale.pick(2_000, 100_000, 500_000),
        scale.pick(2_000, 100_000, 1_000_000),
        scale.pick(2_000, 50_000, 250_000),
    ];

    println!(
        "== Exp-1 (Figure 4): scalability in |r| — {n_attrs} attributes, budget {budget:?}, \
         threads {threads_sweep:?} ==\n"
    );
    let mut header = vec!["dataset".to_string(), "|r|".to_string(), "TANE".to_string()];
    for &t in &threads_sweep {
        header.push(format!("FASTOD t={t}"));
        header.push(format!("val@t={t}"));
    }
    header.extend([
        "val speedup".to_string(),
        "ORDER".to_string(),
        "FASTOD #ODs (#FDs + #OCDs)".to_string(),
        "ORDER #ODs".to_string(),
        "TANE #FDs".to_string(),
    ]);
    let mut csv_rows: Vec<Vec<String>> = Vec::new();
    for ((name, gen), &max) in datasets.iter().zip(&max_rows) {
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        let mut table = Table::new(&header_refs);
        let full = gen(max);
        for pct in [20, 40, 60, 80, 100] {
            let n = max * pct / 100;
            let enc = full.head(n).encode();
            let tane = run_budgeted(budget, |t| {
                Tane::new(TaneConfig { cancel: t, ..Default::default() }).try_discover(&enc)
            });
            let order = run_budgeted(budget, |t| {
                Order::new(OrderConfig { cancel: t, ..Default::default() }).try_discover(&enc)
            });
            let runs =
                fastod_thread_sweep(&enc, &threads_sweep, budget, &format!("{name} |r|={n}"));
            let fast_summary = runs
                .iter()
                .rev()
                .find(|r| r.summary != "—")
                .map_or("—".to_string(), |r| r.summary.clone());
            for run in &runs {
                csv_rows.push(vec![
                    name.to_string(),
                    n.to_string(),
                    run.threads.to_string(),
                    tane.time_str(),
                    run.time_str.clone(),
                    run.val_time
                        .map_or_else(|| "—".to_string(), fastod_bench::format_duration),
                    order.time_str(),
                    run.summary.clone(),
                    order.annotate(|r| r.summary()),
                    tane.annotate(|r| r.fds.len().to_string()),
                ]);
            }
            let mut row = vec![name.to_string(), n.to_string(), tane.time_str()];
            for run in &runs {
                row.push(run.time_str.clone());
                row.push(
                    run.val_time
                        .map_or_else(|| "—".to_string(), fastod_bench::format_duration),
                );
            }
            row.extend([
                sweep_speedup(&runs),
                order.time_str(),
                fast_summary,
                order.annotate(|r| r.summary()),
                tane.annotate(|r| r.fds.len().to_string()),
            ]);
            table.row(row);
        }
        table.print();
        println!();
    }
    write_csv(
        "exp1_scalability_rows",
        &[
            "dataset", "rows", "threads", "tane_time", "fastod_time", "fastod_val_time",
            "order_time", "fastod_ods", "order_ods", "tane_fds",
        ],
        &csv_rows,
    );
    println!("(CSV written to results/exp1_scalability_rows.csv)");
}
