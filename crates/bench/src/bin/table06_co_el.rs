//! Table VI — sample of the CO-EL dataset (clusterdata-2011).
//!
//! Replays a 2011-like trace and prints the first rows of the one-hot
//! label-encoded dataset, with the label legend.

use ctlm_agocs::Replayer;
use ctlm_bench::Cli;
use ctlm_trace::{CellSet, TraceGenerator};

fn main() {
    let cli = Cli::parse();
    println!("TABLE VI. SAMPLE OF THE CO-EL DATASET (CLUSTERDATA-2011)\n");
    let cell = CellSet::C2011;
    let trace = TraceGenerator::generate_cell(cell, cli.trace_scale(cell));
    let out = Replayer::default().replay(&trace);
    let step = out.steps.last().expect("replay produced steps");
    let el = &Replayer::default().co_el(&trace);

    println!(
        "dataset: {} rows × {} label columns ({} CO-VV columns for comparison)\n",
        el.len(),
        el.features_count(),
        step.features_count
    );

    // Print up to 12 rows × first 10 columns plus the group label.
    let cols = el.features_count().min(10);
    let header: Vec<String> = (0..cols).map(|c| format!("L{c:02}")).collect();
    println!("row   {}  group", header.join(" "));
    for r in 0..el.len().min(12) {
        let cells: Vec<String> = (0..cols)
            .map(|c| format!("{:>3}", el.x.get(r, c) as u8))
            .collect();
        println!("{r:<5} {}  {}", cells.join(" "), el.y[r]);
    }
    println!("\n(ones mark which collapsed-CO labels a task carries; the label");
    println!(" space grows with every previously unseen CO, which is why the");
    println!(" paper abandons CO-EL for CO-VV)");
}
