//! Integration test for `ctlm_data::export` over a replayed trace: every
//! format writes one record per dataset row, with the row's label, and
//! CSV's header carries one name per feature plus the label.

use ctlm::data::export::{export_string, ExportFormat};
use ctlm::prelude::*;

#[test]
fn exports_round_numbers_match_dataset() {
    let trace = TraceGenerator::generate_cell(
        CellSet::C2019c,
        Scale {
            machines: 120,
            collections: 600,
            seed: 77,
        },
    );
    let replay = Replayer::default().replay(&trace);
    let ds = &replay.steps.last().unwrap().vv;

    let svm = export_string(ds, ExportFormat::SvmLight);
    assert_eq!(svm.lines().count(), ds.len());
    // Every svmlight line starts with its label.
    for (line, &y) in svm.lines().zip(ds.y.iter()) {
        let first = line.split_whitespace().next().unwrap();
        assert_eq!(first.parse::<u8>().unwrap(), y);
    }

    let csv = export_string(ds, ExportFormat::Csv);
    assert_eq!(csv.lines().count(), ds.len() + 1, "header + rows");
    let header_cols = csv.lines().next().unwrap().split(',').count();
    assert_eq!(header_cols, ds.features_count() + 1, "features + label");

    let jsonl = export_string(ds, ExportFormat::Jsonl);
    for (line, &y) in jsonl.lines().zip(ds.y.iter()) {
        let v: serde_json::Value = serde_json::from_str(line).unwrap();
        assert_eq!(v["y"], serde_json::json!(y));
    }
}
