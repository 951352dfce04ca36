//! A minimal JSON writer: the result records and the Chrome trace are
//! flat objects and arrays of scalars, and the vendored tree has no JSON
//! crate.

/// `s` as a quoted JSON string, escaping quotes, backslashes and control
/// characters.
#[must_use]
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `x` as a JSON number with every digit Rust's shortest round-trip
/// formatting gives; JSON has no NaN or infinity, so those become `null`.
#[must_use]
pub fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_owned()
    }
}

/// Builds one JSON object, field by field, from already-encoded values.
#[derive(Debug, Default)]
pub struct Object {
    fields: Vec<String>,
}

impl Object {
    /// An empty object.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `key` with an already-encoded JSON value.
    #[must_use]
    pub fn raw(mut self, key: &str, value: impl Into<String>) -> Self {
        self.fields
            .push(format!("{}: {}", string(key), value.into()));
        self
    }

    /// Add `key` with a string value.
    #[must_use]
    pub fn str(self, key: &str, value: &str) -> Self {
        self.raw(key, string(value))
    }

    /// Add `key` with a number value.
    #[must_use]
    pub fn num(self, key: &str, value: f64) -> Self {
        self.raw(key, number(value))
    }

    /// The encoded object.
    #[must_use]
    pub fn finish(self) -> String {
        format!("{{{}}}", self.fields.join(", "))
    }
}

/// Encoded values joined into a JSON array.
#[must_use]
pub fn array(items: &[String]) -> String {
    format!("[{}]", items.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_strings() {
        assert_eq!(string("plain"), "\"plain\"");
        assert_eq!(string("say \"hi\"\\"), r#""say \"hi\"\\""#);
        assert_eq!(string("a\nb\tc\u{1}"), r#""a\nb\tc\u0001""#);
        assert_eq!(string("µs"), "\"µs\"");
    }

    #[test]
    fn numbers_keep_every_digit() {
        assert_eq!(number(1.2034567891234), "1.2034567891234");
        assert_eq!(number(3.0), "3.0");
        assert_eq!(number(-0.25), "-0.25");
        assert_eq!(number(1e-7), "1e-7");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }

    #[test]
    fn builds_nested_objects() {
        let inner = Object::new().num("value", 1.5).str("unit", "ms").finish();
        let outer = Object::new()
            .raw("correct", "true")
            .raw("attempted", "28")
            .raw("metrics", Object::new().raw("wall_s", inner).finish())
            .finish();
        assert_eq!(
            outer,
            r#"{"correct": true, "attempted": 28, "metrics": {"wall_s": {"value": 1.5, "unit": "ms"}}}"#
        );
        assert_eq!(Object::new().finish(), "{}");
        assert_eq!(array(&["1".into(), "2".into()]), "[1,\n2]");
    }
}
