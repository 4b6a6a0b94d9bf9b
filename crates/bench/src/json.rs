//! Minimal JSON rendering for the bench bins' `--json` artifacts.
//!
//! The vendored `serde` stand-in has no serializer (see
//! `vendor/serde/src/lib.rs`), so the harness renders its reports with
//! this tiny hand-rolled writer instead. Only deterministic fields belong
//! in these artifacts: the CI `bench-smoke` job diffs sequential against
//! parallel output, so wall-clock values must stay out.

use backdroid_obs::escape_json_into;

/// Renders a finite `f64` stably (6 decimal places, enough for scaled
/// minutes and rates); non-finite values become `null`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".into()
    }
}

/// An object under construction: `field` calls append, `build` closes.
#[derive(Default)]
pub struct JsonObject {
    fields: Vec<String>,
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a string field, escaped by the workspace's one JSON
    /// escaper: the CI jobs diff bench artifacts against serve responses
    /// byte-for-byte, so the two must never drift apart.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        let mut field = format!("\"{key}\":\"");
        escape_json_into(&mut field, value);
        field.push('"');
        self.fields.push(field);
        self
    }

    /// Appends an integer field.
    pub fn int(mut self, key: &str, value: u64) -> Self {
        self.fields.push(format!("\"{key}\":{value}"));
        self
    }

    /// Appends a float field (stable 6-decimal rendering).
    pub fn float(mut self, key: &str, value: f64) -> Self {
        self.fields.push(format!("\"{}\":{}", key, num(value)));
        self
    }

    /// Appends a boolean field.
    pub fn bool(mut self, key: &str, value: bool) -> Self {
        self.fields.push(format!("\"{key}\":{value}"));
        self
    }

    /// Appends a pre-rendered JSON value (nested object or array).
    pub fn raw(mut self, key: &str, value: String) -> Self {
        self.fields.push(format!("\"{key}\":{value}"));
        self
    }

    /// Closes the object.
    pub fn build(self) -> String {
        format!("{{{}}}", self.fields.join(","))
    }
}

/// Renders pre-rendered JSON values as an array.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    let items: Vec<String> = items.into_iter().collect();
    format!("[{}]", items.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_and_shapes() {
        assert_eq!(num(1.5), "1.500000");
        assert_eq!(num(f64::NAN), "null");
        let obj = JsonObject::new()
            .str("app", "a\"pp")
            .int("n", 3)
            .float("m", 0.25)
            .bool("ok", true)
            .raw("xs", array(["1".into(), "2".into()]))
            .build();
        assert_eq!(
            obj,
            "{\"app\":\"a\\\"pp\",\"n\":3,\"m\":0.250000,\"ok\":true,\"xs\":[1,2]}"
        );
        assert_eq!(array(Vec::<String>::new()), "[]");
    }
}
