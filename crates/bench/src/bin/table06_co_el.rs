//! Table VI — sample of the CO-EL dataset (clusterdata-2011).
//!
//! Replays a 2011-like trace and prints the first rows of the one-hot
//! label-encoded dataset, with the label legend.

use ctlm_bench::{replay_cell, Cli};
use ctlm_trace::CellSet;

fn main() {
    let cli = Cli::parse();
    println!("TABLE VI. SAMPLE OF THE CO-EL DATASET (CLUSTERDATA-2011)\n");
    let out = replay_cell(&cli, CellSet::C2011);
    let step = out.steps.last().expect("replay produced steps");
    let el = &out.co_el;

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
