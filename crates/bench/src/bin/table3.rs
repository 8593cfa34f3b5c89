//! **Table 3** — graph generation scalability (Section 6.2).
//!
//! Wall-clock time to generate instances of 100K–100M nodes for the four
//! schemas Bib, LSN, WD, SP. As in the paper, generation is measured as
//! pure edge production (streamed to a counting sink — the paper's
//! generator writes a file; neither retains the graph in RAM), and WD is
//! expected to dominate through sheer edge volume.
//!
//! Default sweep stops at 10M nodes, to fit a laptop's memory and time;
//! pass `--full` for the paper's 100M column. With `--threads N` the run
//! exercises the parallel pipeline instead: constraints are generated and
//! the per-predicate CSRs finalized on `N` worker threads (the graph is
//! materialized in memory rather than streamed, so edge throughput also
//! covers storage construction).
//!
//! ```sh
//! cargo run -p gmark-bench --release --bin table3 [--full] [--threads N]
//! ```

use gmark_bench::{fmt_minutes, HarnessOptions};
use gmark_core::gen::{generate_graph, generate_into, GeneratorOptions};
use gmark_core::schema::GraphConfig;
use gmark_core::usecases;
use gmark_store::CountingSink;
use std::time::Instant;

fn main() {
    let opts = HarnessOptions::from_args();
    let sizes = opts.scalability_sizes();
    let header: Vec<String> = sizes
        .iter()
        .map(|&n| {
            if n >= 1_000_000 {
                format!("{}M", n / 1_000_000)
            } else {
                format!("{}K", n / 1_000)
            }
        })
        .collect();
    if opts.threads > 1 {
        println!(
            "Table 3: graph generation time (materialized, {} threads; node counts are requested sizes)",
            opts.threads
        );
    } else {
        println!("Table 3: graph generation time (streamed; node counts are requested sizes)");
    }
    gmark_bench::print_row("", &header, 14);

    for (name, schema) in usecases::all() {
        let mut cells = Vec::with_capacity(sizes.len());
        for &n in &sizes {
            let config = GraphConfig::new(n, schema.clone());
            let gen_opts = GeneratorOptions {
                threads: opts.threads,
                ..GeneratorOptions::with_seed(opts.seed)
            };
            let start = Instant::now();
            let total_edges = if opts.threads > 1 {
                generate_graph(&config, &gen_opts).1.total_edges
            } else {
                let mut sink = CountingSink::new(schema.predicate_count());
                generate_into(&config, &gen_opts, &mut sink).total_edges
            };
            let elapsed = start.elapsed();
            cells.push(format!(
                "{} ({:.1}M e)",
                fmt_minutes(elapsed),
                total_edges as f64 / 1e6
            ));
        }
        gmark_bench::print_row(name, &cells, 22);
    }
    println!(
        "\npaper reference (Table 3, authors' 2009-era testbed): Bib 100K \
         0m0.057s → 100M 1m28.7s; WD two orders of magnitude slower than \
         Bib at equal node counts (much denser instances). Expect the same \
         linear scaling shape and the same Bib < LSN < SP < WD ordering."
    );
}
