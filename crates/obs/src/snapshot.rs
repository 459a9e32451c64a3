//! A tiny deterministic JSON tree for obs, bench and artifact outputs.
//!
//! The build environment vendors no serde, so this is hand-rolled:
//! object keys keep insertion order, floats go through Rust's
//! shortest-round-trip formatter (non-finite becomes `null`), and
//! strings are escaped here for every JSON artifact, `sweep.json`'s
//! cells included — equal trees serialize to identical bytes.

use std::fmt::Write as _;

/// One JSON value. Objects preserve key insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (the common counter case).
    U64(u64),
    /// A float; non-finite serializes as `null`.
    F64(f64),
    /// An escaped string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object with ordered keys.
    Obj(Vec<(String, Value)>),
}

fn escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

impl Value {
    /// Serializes the tree, pretty-printed with two-space indentation
    /// starting at `indent` levels.
    pub fn to_json(&self, indent: usize) -> String {
        let mut out = String::new();
        self.write(&mut out, indent);
        out
    }

    /// Serializes the tree on one line, no whitespace — the JSONL form.
    pub fn to_json_inline(&self) -> String {
        let mut out = String::new();
        self.write_inline(&mut out);
        out
    }

    /// Appends [`Value::to_json_inline`]'s form to `out`.
    pub fn write_inline(&self, out: &mut String) {
        match self {
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    v.write_inline(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push('"');
                    escape(k, out);
                    out.push_str("\": ");
                    v.write_inline(out);
                }
                out.push('}');
            }
            scalar => scalar.write(out, 0),
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::F64(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => {
                out.push('"');
                escape(s, out);
                out.push('"');
            }
            Value::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, v) in items.iter().enumerate() {
                    for _ in 0..=indent {
                        out.push_str("  ");
                    }
                    v.write(out, indent + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                for _ in 0..indent {
                    out.push_str("  ");
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    for _ in 0..=indent {
                        out.push_str("  ");
                    }
                    out.push('"');
                    escape(k, out);
                    out.push_str("\": ");
                    v.write(out, indent + 1);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                for _ in 0..indent {
                    out.push_str("  ");
                }
                out.push('}');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars() {
        assert_eq!(Value::Null.to_json(0), "null");
        assert_eq!(Value::Bool(true).to_json(0), "true");
        assert_eq!(Value::U64(42).to_json(0), "42");
        assert_eq!(Value::F64(0.5).to_json(0), "0.5");
        assert_eq!(Value::F64(f64::NAN).to_json(0), "null");
        assert_eq!(Value::Str("a\"b\n".into()).to_json(0), "\"a\\\"b\\n\"");
    }

    #[test]
    fn nested_shape_is_stable() {
        let v = Value::Obj(vec![
            ("b".into(), Value::U64(1)),
            ("a".into(), Value::Arr(vec![Value::U64(2), Value::Null])),
            ("empty".into(), Value::Obj(vec![])),
        ]);
        let expected = "{\n  \"b\": 1,\n  \"a\": [\n    2,\n    null\n  ],\n  \"empty\": {}\n}";
        assert_eq!(v.to_json(0), expected);
        // Equal trees serialize to equal bytes.
        assert_eq!(v.to_json(0), v.clone().to_json(0));
    }

    #[test]
    fn inline_form_is_single_line() {
        let v = Value::Obj(vec![
            ("w".into(), Value::U64(3)),
            ("xs".into(), Value::Arr(vec![Value::U64(1), Value::F64(2.5)])),
        ]);
        assert_eq!(v.to_json_inline(), "{\"w\": 3, \"xs\": [1, 2.5]}");
    }

    #[test]
    fn control_chars_escaped() {
        let v = Value::Str("\u{1}".into());
        assert_eq!(v.to_json(0), "\"\\u0001\"");
    }
}
