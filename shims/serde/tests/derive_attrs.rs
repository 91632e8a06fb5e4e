//! The `#[serde(...)]` attributes the derive shim honors beyond field
//! `default`: `skip_serializing_if`, container `default`, and
//! `deny_unknown_fields` (on structs and on enums' struct variants).

use serde::{Deserialize, Serialize, Value};

fn object(pairs: &[(&str, Value)]) -> Value {
    Value::Object(
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
    )
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Row {
    id: u32,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    extra: Option<u32>,
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    tags: Vec<u8>,
}

#[test]
fn skip_serializing_if_omits_the_field_and_it_reads_back() {
    let bare = Row {
        id: 1,
        extra: None,
        tags: vec![],
    };
    // Omitted entirely — not `"extra": null`.
    assert_eq!(bare.to_value(), object(&[("id", Value::Num(1.0))]));
    assert_eq!(Row::from_value(&bare.to_value()).unwrap(), bare);

    let full = Row {
        id: 2,
        extra: Some(9),
        tags: vec![3],
    };
    assert_eq!(
        full.to_value(),
        object(&[
            ("id", Value::Num(2.0)),
            ("extra", Value::Num(9.0)),
            ("tags", Value::Array(vec![Value::Num(3.0)])),
        ])
    );
    assert_eq!(Row::from_value(&full.to_value()).unwrap(), full);
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
struct Knobs {
    width: u32,
    label: String,
    on: bool,
}

impl Default for Knobs {
    fn default() -> Self {
        Self {
            width: 7,
            label: "auto".to_string(),
            on: true,
        }
    }
}

#[test]
fn container_default_fills_missing_fields_from_the_struct_default() {
    // Not the field types' zeros: the struct's own `Default`.
    let partial = object(&[("width", Value::Num(2.0))]);
    assert_eq!(
        Knobs::from_value(&partial).unwrap(),
        Knobs {
            width: 2,
            ..Knobs::default()
        }
    );
    assert_eq!(Knobs::from_value(&object(&[])).unwrap(), Knobs::default());
    // Serialization still writes every field, in declaration order.
    assert_eq!(
        Knobs::default().to_value(),
        object(&[
            ("width", Value::Num(7.0)),
            ("label", Value::Str("auto".to_string())),
            ("on", Value::Bool(true)),
        ])
    );
    // All-defaults must not turn a non-object into a silent default.
    let err = Knobs::from_value(&Value::Num(3.0)).unwrap_err();
    assert!(err.to_string().contains("expected an object"), "{err}");
    // A present field of the wrong type is still an error.
    assert!(Knobs::from_value(&object(&[("width", Value::Str("x".to_string()))])).is_err());
}

#[test]
fn deny_unknown_fields_rejects_a_key_that_names_no_field() {
    let typo = object(&[("width", Value::Num(2.0)), ("lable", Value::Null)]);
    let err = Knobs::from_value(&typo).unwrap_err();
    assert!(err.to_string().contains("unknown Knobs field"), "{err}");
    assert!(err.to_string().contains("lable"), "{err}");
    // Without the attribute, unknown keys are ignored as before.
    let loose = object(&[("id", Value::Num(1.0)), ("zzz", Value::Num(0.0))]);
    assert_eq!(Row::from_value(&loose).unwrap().id, 1);
}

#[derive(Debug, PartialEq, Deserialize)]
#[serde(deny_unknown_fields)]
enum Shape {
    Dot,
    Scaled(f64),
    Box { w: u32, h: u32 },
}

#[test]
fn deny_unknown_fields_on_an_enum_checks_its_struct_variants() {
    let boxed = |pairs: &[(&str, Value)]| object(&[("Box", object(pairs))]);
    let good = boxed(&[("w", Value::Num(2.0)), ("h", Value::Num(3.0))]);
    assert_eq!(Shape::from_value(&good).unwrap(), Shape::Box { w: 2, h: 3 });
    let extra = boxed(&[
        ("w", Value::Num(2.0)),
        ("h", Value::Num(3.0)),
        ("d", Value::Num(4.0)),
    ]);
    let err = Shape::from_value(&extra).unwrap_err().to_string();
    assert!(
        err.contains("unknown Shape::Box field \"d\" (expected one of w/h)"),
        "{err}"
    );
    let err = Shape::from_value(&object(&[("Box", Value::Num(1.0))])).unwrap_err();
    assert!(err.to_string().contains("expected an object"), "{err}");
    // Unit and tuple variants have no keys to check.
    assert_eq!(
        Shape::from_value(&Value::Str("Dot".to_string())).unwrap(),
        Shape::Dot
    );
    let scaled = object(&[("Scaled", Value::Num(0.5))]);
    assert_eq!(Shape::from_value(&scaled).unwrap(), Shape::Scaled(0.5));
}

#[derive(Debug, Deserialize)]
struct Grid {
    #[allow(dead_code)]
    rows: Vec<Vec<Row>>,
}

#[test]
fn an_error_inside_an_array_names_the_element() {
    let row = |id: Value| object(&[("id", id)]);
    let grid = |rows: Vec<Value>| object(&[("rows", Value::Array(rows))]);
    let bad = grid(vec![
        Value::Array(vec![row(Value::Num(1.0))]),
        Value::Array(vec![row(Value::Num(2.0)), row(Value::Null)]),
    ]);
    let err = Grid::from_value(&bad).unwrap_err().to_string();
    assert!(err.starts_with("serde: Grid.rows[1][1]: Row.id: "), "{err}");
    // A failure at the array itself carries no index.
    let not_array = object(&[("rows", Value::Num(0.0))]);
    let err = Grid::from_value(&not_array).unwrap_err().to_string();
    assert!(err.starts_with("serde: Grid.rows: expected array"), "{err}");
}
