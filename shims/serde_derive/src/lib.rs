//! Hand-rolled `#[derive(Serialize, Deserialize)]` for the serde shim.
//!
//! No `syn`/`quote` in the offline container, so this parses the derive
//! input token stream directly. Supported shapes — everything the
//! workspace derives on:
//!
//! * non-generic structs with named fields, tuple structs, unit structs;
//! * non-generic enums with unit, tuple and struct variants.
//!
//! Structs serialize to objects keyed by field name; enums are externally
//! tagged (`"Variant"` for unit variants, `{"Variant": payload}`
//! otherwise), matching real serde's default representation.
//!
//! Honored `#[serde(...)]` attributes, in real serde's spelling (anything
//! else is a compile-time panic, not a silent no-op):
//!
//! * field `default` — a missing (or `null`) value is
//!   `Default::default()`;
//! * field `skip_serializing_if = "path"` — the field is left out of the
//!   object when `path(&field)` is true (e.g. `"Option::is_none"`);
//! * container `default` (named structs) — missing (or `null`) fields
//!   come from the struct's own `Default`;
//! * container `deny_unknown_fields` — a key that names no field is an
//!   error: in a named struct, or in a struct variant's payload of an
//!   enum (as real serde does for struct variants).

use proc_macro::{Delimiter, TokenStream, TokenTree};

enum Shape {
    NamedStruct(Vec<Field>),
    TupleStruct(usize),
    UnitStruct,
    Enum(Vec<Variant>),
}

/// The `#[serde(...)]` attributes the shim honors, as seen on one
/// container or field (see the module docs for what each means where).
#[derive(Default)]
struct Attrs {
    default: bool,
    deny_unknown_fields: bool,
    /// The predicate path of `skip_serializing_if = "path"`.
    skip_serializing_if: Option<String>,
}

struct Field {
    name: String,
    attrs: Attrs,
}

struct Variant {
    name: String,
    kind: VariantKind,
}

enum VariantKind {
    Unit,
    Tuple(usize),
    Named(Vec<Field>),
}

struct Input {
    name: String,
    attrs: Attrs,
    shape: Shape,
}

type Tokens = std::iter::Peekable<proc_macro::token_stream::IntoIter>;

/// Consumes leading `#[...]` attributes and a visibility qualifier,
/// returning the serde attributes among them.
fn take_attrs_and_vis(iter: &mut Tokens) -> Attrs {
    let mut attrs = Attrs::default();
    loop {
        match iter.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                iter.next();
                if let Some(TokenTree::Group(g)) = iter.next() {
                    note_serde_attr(g.stream(), &mut attrs);
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                iter.next();
                if let Some(TokenTree::Group(g)) = iter.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        iter.next(); // pub(crate) etc.
                    }
                }
            }
            _ => return attrs,
        }
    }
}

/// Records the items of a `serde(...)` attribute body (the `[...]`
/// group's stream) into `attrs`; any other attribute is ignored.
fn note_serde_attr(stream: TokenStream, attrs: &mut Attrs) {
    let mut iter = stream.into_iter();
    if !matches!(iter.next(), Some(TokenTree::Ident(id)) if id.to_string() == "serde") {
        return;
    }
    let Some(TokenTree::Group(g)) = iter.next() else {
        return;
    };
    let mut items = g.stream().into_iter();
    while let Some(tt) = items.next() {
        let TokenTree::Ident(key) = tt else {
            continue; // separating commas
        };
        match key.to_string().as_str() {
            "default" => attrs.default = true,
            "deny_unknown_fields" => attrs.deny_unknown_fields = true,
            "skip_serializing_if" => {
                items.next(); // `=`
                let path = items.next().map(|lit| lit.to_string());
                attrs.skip_serializing_if = path.map(|p| p.trim_matches('"').to_string());
            }
            other => panic!("serde_derive shim: unsupported attribute `{other}`"),
        }
    }
}

fn parse_input(input: TokenStream) -> Input {
    let mut iter = input.into_iter().peekable();
    let attrs = take_attrs_and_vis(&mut iter);
    let kind = match iter.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde_derive shim: expected struct/enum, got {other:?}"),
    };
    let name = match iter.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde_derive shim: expected type name, got {other:?}"),
    };
    if matches!(&iter.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde_derive shim: generic type {name} not supported");
    }
    let shape = match kind.as_str() {
        "struct" => match iter.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::NamedStruct(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Shape::TupleStruct(count_tuple_fields(g.stream()))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Shape::UnitStruct,
            other => panic!("serde_derive shim: unexpected struct body {other:?}"),
        },
        "enum" => match iter.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::Enum(parse_variants(g.stream()))
            }
            other => panic!("serde_derive shim: unexpected enum body {other:?}"),
        },
        other => panic!("serde_derive shim: cannot derive for `{other}`"),
    };
    let named_struct = matches!(shape, Shape::NamedStruct(_));
    let denying = named_struct || matches!(shape, Shape::Enum(_));
    if attrs.default && !named_struct || attrs.deny_unknown_fields && !denying {
        panic!("serde_derive shim: container attributes on {name} need a named-field struct");
    }
    Input { name, attrs, shape }
}

/// Parses `attr* vis? name: Type` fields separated by top-level commas.
fn parse_named_fields(stream: TokenStream) -> Vec<Field> {
    let mut fields = Vec::new();
    let mut iter = stream.into_iter().peekable();
    loop {
        let attrs = take_attrs_and_vis(&mut iter);
        let Some(TokenTree::Ident(id)) = iter.next() else {
            break;
        };
        fields.push(Field {
            name: id.to_string(),
            attrs,
        });
        match iter.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("serde_derive shim: expected `:` after field, got {other:?}"),
        }
        // Skip the type: consume until a comma at angle-bracket depth 0.
        let mut depth = 0i32;
        loop {
            match iter.peek() {
                None => break,
                Some(TokenTree::Punct(p)) => {
                    let c = p.as_char();
                    if c == '<' {
                        depth += 1;
                    } else if c == '>' {
                        depth -= 1;
                    } else if c == ',' && depth == 0 {
                        iter.next();
                        break;
                    }
                    iter.next();
                }
                Some(_) => {
                    iter.next();
                }
            }
        }
    }
    fields
}

/// Counts tuple-struct/tuple-variant fields (top-level commas + 1).
fn count_tuple_fields(stream: TokenStream) -> usize {
    let mut depth = 0i32;
    let mut commas = 0usize;
    let mut any = false;
    for tt in stream {
        any = true;
        if let TokenTree::Punct(p) = &tt {
            let c = p.as_char();
            if c == '<' {
                depth += 1;
            } else if c == '>' {
                depth -= 1;
            } else if c == ',' && depth == 0 {
                commas += 1;
            }
        }
    }
    if !any {
        0
    } else {
        commas + 1
    }
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let mut variants = Vec::new();
    let mut iter = stream.into_iter().peekable();
    loop {
        // Skip attributes.
        while matches!(iter.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
            iter.next();
            iter.next();
        }
        let Some(TokenTree::Ident(id)) = iter.next() else {
            break;
        };
        let name = id.to_string();
        let kind = match iter.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let n = count_tuple_fields(g.stream());
                iter.next();
                VariantKind::Tuple(n)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(g.stream());
                iter.next();
                VariantKind::Named(fields)
            }
            _ => VariantKind::Unit,
        };
        // Skip a discriminant (`= expr`) and the trailing comma.
        let mut depth = 0i32;
        loop {
            match iter.peek() {
                None => break,
                Some(TokenTree::Punct(p)) => {
                    let c = p.as_char();
                    if c == '<' {
                        depth += 1;
                    } else if c == '>' {
                        depth -= 1;
                    } else if c == ',' && depth == 0 {
                        iter.next();
                        break;
                    }
                    iter.next();
                }
                Some(_) => {
                    iter.next();
                }
            }
        }
        variants.push(Variant { name, kind });
    }
    variants
}

/// Serialization statement for one named field: pushes `(name, value)`
/// onto the pair vector `vec`, reading the field through the reference
/// expression `access` — unless its `skip_serializing_if` predicate says
/// to leave it out.
fn field_push(vec: &str, f: &Field, access: &str) -> String {
    let name = &f.name;
    let push =
        format!("{vec}.push(({name:?}.to_string(), ::serde::Serialize::to_value({access})));");
    match &f.attrs.skip_serializing_if {
        Some(pred) => format!("if !{pred}({access}) {{ {push} }}"),
        None => push,
    }
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let input = parse_input(input);
    let name = &input.name;
    let body = match &input.shape {
        Shape::NamedStruct(fields) => {
            let pushes: String = fields
                .iter()
                .map(|f| field_push("__fields", f, &format!("&self.{}", f.name)))
                .collect();
            // Sized up front, like the `vec![..]` literal a hand-written
            // impl would build: one allocation, however many fields.
            format!(
                "let mut __fields: Vec<(String, ::serde::Value)> = \
                 Vec::with_capacity({}); {pushes} ::serde::Value::Object(__fields)",
                fields.len()
            )
        }
        Shape::TupleStruct(1) => "::serde::Serialize::to_value(&self.0)".to_string(),
        Shape::TupleStruct(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                .collect();
            format!("::serde::Value::Array(vec![{}])", items.join(", "))
        }
        Shape::UnitStruct => "::serde::Value::Null".to_string(),
        Shape::Enum(variants) => {
            let arms: String = variants
                .iter()
                .map(|v| {
                    let vname = &v.name;
                    match &v.kind {
                        VariantKind::Unit => format!(
                            "{name}::{vname} => ::serde::Value::Str({vname:?}.to_string()),"
                        ),
                        VariantKind::Tuple(1) => format!(
                            "{name}::{vname}(ref __f0) => ::serde::Value::Object(vec![\
                             ({vname:?}.to_string(), ::serde::Serialize::to_value(__f0))]),"
                        ),
                        VariantKind::Tuple(n) => {
                            let binds: Vec<String> =
                                (0..*n).map(|i| format!("ref __f{i}")).collect();
                            let items: Vec<String> = (0..*n)
                                .map(|i| format!("::serde::Serialize::to_value(__f{i})"))
                                .collect();
                            format!(
                                "{name}::{vname}({}) => ::serde::Value::Object(vec![\
                                 ({vname:?}.to_string(), ::serde::Value::Array(vec![{}]))]),",
                                binds.join(", "),
                                items.join(", ")
                            )
                        }
                        VariantKind::Named(fields) => {
                            let binds: Vec<String> =
                                fields.iter().map(|f| format!("ref {}", f.name)).collect();
                            let pushes: String = fields
                                .iter()
                                .map(|f| field_push("__inner", f, &f.name))
                                .collect();
                            format!(
                                "{name}::{vname} {{ {} }} => {{ \
                                 let mut __inner: Vec<(String, ::serde::Value)> = Vec::new(); \
                                 {pushes} \
                                 ::serde::Value::Object(vec![({vname:?}.to_string(), \
                                 ::serde::Value::Object(__inner))]) }},",
                                binds.join(", ")
                            )
                        }
                    }
                })
                .collect();
            format!("match *self {{ {arms} }}")
        }
    };
    let out = format!(
        "impl ::serde::Serialize for {name} {{\n\
         fn to_value(&self) -> ::serde::Value {{ {body} }}\n\
         }}"
    );
    out.parse()
        .expect("serde_derive shim produced invalid Serialize impl")
}

/// Deserialization initializer for one named field: reads `owner.field`
/// out of `src`, attaching the `Owner.field` path to any error. A
/// missing or `null` value falls back to the struct default's field
/// (`__d`, under a container `#[serde(default)]`) or to
/// `Default::default()` (field `#[serde(default)]`) instead of erroring.
fn field_init(owner: &str, f: &Field, src: &str, container_default: bool) -> String {
    let fname = &f.name;
    let read = |value: &str| {
        format!(
            "::serde::Deserialize::from_value({value})\
             .map_err(|__e| __e.context(concat!({owner:?}, \".\", {fname:?})))?"
        )
    };
    let field = format!("{src}.get_field({fname:?})");
    let fallback = if container_default {
        format!("__d.{fname}")
    } else if f.attrs.default {
        "::core::default::Default::default()".to_string()
    } else {
        return format!("{fname}: {}", read(&field));
    };
    format!(
        "{fname}: {{ let __fv = {field}; if matches!(__fv, ::serde::Value::Null) \
         {{ {fallback} }} else {{ {} }} }}",
        read("__fv")
    )
}

/// Statements a named struct's (or struct variant's) container
/// attributes put ahead of its field initializers: the value `src` must
/// be an object, its keys must all name fields (`deny_unknown_fields`),
/// and `__d` holds the struct's `Default` for [`field_init`] to fall
/// back on (`default`).
fn container_preamble(name: &str, attrs: &Attrs, fields: &[Field], src: &str) -> String {
    let mut out = String::new();
    if attrs.default || attrs.deny_unknown_fields {
        out += &format!(
            "let ::serde::Value::Object(__pairs) = {src} else {{ \
             return Err(::serde::Error::msg(format!(\
             \"invalid {name} value {{{src}:?}} (expected an object)\"))); }};"
        );
    }
    if attrs.deny_unknown_fields {
        let known: Vec<String> = fields.iter().map(|f| format!("{:?}", f.name)).collect();
        // Joined without quotes: see the enum `expected` list below.
        let expected: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
        out += &format!(
            "for (__k, _) in __pairs {{ if !matches!(__k.as_str(), {}) {{ \
             return Err(::serde::Error::msg(format!(\
             \"unknown {name} field {{__k:?}} (expected one of {})\"))); }} }}",
            known.join(" | "),
            expected.join("/")
        );
    }
    if attrs.default {
        out += &format!("let __d: {name} = ::core::default::Default::default();");
    }
    out
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let input = parse_input(input);
    let name = &input.name;
    let body = match &input.shape {
        Shape::NamedStruct(fields) => {
            let inits: Vec<String> = fields
                .iter()
                .map(|f| field_init(name, f, "__v", input.attrs.default))
                .collect();
            format!(
                "{} Ok({name} {{ {} }})",
                container_preamble(name, &input.attrs, fields, "__v"),
                inits.join(", ")
            )
        }
        Shape::TupleStruct(1) => {
            format!("Ok({name}(::serde::Deserialize::from_value(__v)?))")
        }
        Shape::TupleStruct(n) => {
            let inits: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Deserialize::from_value(__v.get_index({i}))?"))
                .collect();
            format!("Ok({name}({}))", inits.join(", "))
        }
        Shape::UnitStruct => format!("Ok({name})"),
        Shape::Enum(variants) => {
            // Joined without quotes: this lands inside a generated string
            // literal, where `{:?}`'s quote characters would break parsing.
            let expected = variants
                .iter()
                .map(|v| v.name.as_str())
                .collect::<Vec<_>>()
                .join("/");
            let unit_arms: String = variants
                .iter()
                .filter(|v| matches!(v.kind, VariantKind::Unit))
                .map(|v| format!("{0:?} => Ok({name}::{0}),", v.name))
                .collect();
            let tagged_arms: String = variants
                .iter()
                .map(|v| {
                    let vname = &v.name;
                    match &v.kind {
                        // Unit variants are also accepted in map form
                        // (`{"Variant": null}`) so configs can key every
                        // variant uniformly by name.
                        VariantKind::Unit => format!("{vname:?} => Ok({name}::{vname}),"),
                        VariantKind::Tuple(1) => format!(
                            "{vname:?} => Ok({name}::{vname}(\
                             ::serde::Deserialize::from_value(__inner)?)),"
                        ),
                        VariantKind::Tuple(n) => {
                            let inits: Vec<String> = (0..*n)
                                .map(|i| {
                                    format!(
                                        "::serde::Deserialize::from_value(__inner.get_index({i}))?"
                                    )
                                })
                                .collect();
                            format!("{vname:?} => Ok({name}::{vname}({})),", inits.join(", "))
                        }
                        VariantKind::Named(fields) => {
                            let path = format!("{name}::{vname}");
                            let inits: Vec<String> = fields
                                .iter()
                                .map(|f| field_init(&path, f, "__inner", false))
                                .collect();
                            format!(
                                "{vname:?} => {{ {} Ok({name}::{vname} {{ {} }}) }},",
                                container_preamble(&path, &input.attrs, fields, "__inner"),
                                inits.join(", ")
                            )
                        }
                    }
                })
                .collect();
            format!(
                "match __v {{\n\
                 ::serde::Value::Str(__s) => match __s.as_str() {{\n\
                 {unit_arms}\n\
                 __other => Err(::serde::Error::msg(format!(\
                 \"unknown {name} variant {{__other:?}} (expected one of {expected})\"))),\n\
                 }},\n\
                 ::serde::Value::Object(__pairs) if __pairs.len() == 1 => {{\n\
                 let (__tag, __inner) = &__pairs[0];\n\
                 let _ = __inner;\n\
                 match __tag.as_str() {{\n\
                 {tagged_arms}\n\
                 __other => Err(::serde::Error::msg(format!(\
                 \"unknown {name} variant {{__other:?}} (expected one of {expected})\"))),\n\
                 }}\n\
                 }},\n\
                 __other => Err(::serde::Error::msg(format!(\
                 \"invalid {name} value {{__other:?}}\"))),\n\
                 }}"
            )
        }
    };
    let out = format!(
        "impl ::serde::Deserialize for {name} {{\n\
         fn from_value(__v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n\
         {body}\n\
         }}\n\
         }}"
    );
    out.parse()
        .expect("serde_derive shim produced invalid Deserialize impl")
}
