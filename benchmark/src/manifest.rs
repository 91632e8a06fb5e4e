//! `BENCHMARK.json` as the driver reads it: the one place metric names,
//! units, directions and bounds are written down.

use serde_json::Value;

pub struct EndToEnd {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

pub struct Manifest {
    pub end_to_end: Vec<EndToEnd>,
    /// `(name, unit)` of every per-layer metric, in listed order.
    pub per_layer: Vec<(String, String)>,
}

/// Reads `BENCHMARK.json` from the current directory (the root of the
/// checkout — where the benchmark command runs).
pub fn load() -> Result<Manifest, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json in the current directory: {e}"))?;
    let doc = serde_json::parse_value(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| match doc.get_field(key) {
        Value::Array(items) => Ok(items.as_slice()),
        _ => Err(format!("BENCHMARK.json: no `{key}` list")),
    };
    let text_of = |v: &Value, key: &str| {
        v.get_field(key)
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| format!("BENCHMARK.json: a metric has no `{key}`"))
    };
    let end_to_end = list("end_to_end")?
        .iter()
        .map(|m| {
            Ok(EndToEnd {
                name: text_of(m, "name")?,
                higher_is_better: text_of(m, "better")? == "higher",
                bound: m
                    .get_field("bound")
                    .as_f64()
                    .ok_or("BENCHMARK.json: an end-to-end metric has no `bound`")?,
            })
        })
        .collect::<Result<_, String>>()?;
    let per_layer = list("per_layer")?
        .iter()
        .map(|m| Ok((text_of(m, "name")?, text_of(m, "unit")?)))
        .collect::<Result<_, String>>()?;
    Ok(Manifest {
        end_to_end,
        per_layer,
    })
}
