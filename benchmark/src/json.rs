//! The result line: one JSON object of keyed metrics, and a reader for it.
//!
//! A run of one workload ends by printing
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value": .., "unit": ..}}}`
//! as the last line of its standard output. The suite modes run workloads
//! in child processes and read that line back, so the format is exercised
//! from both ends.

pub use schemble_trace::json::escape;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The outcome of one workload run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Every correctness gate held.
    pub correct: bool,
    /// Queries submitted over the measured passes.
    pub attempted: u64,
    /// Queries lost (neither answered, rejected nor expired) or left open.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// A finite number with every digit it was measured to (Rust prints the
/// shortest text that reads back to the same `f64`).
pub fn number(v: f64) -> String {
    assert!(v.is_finite(), "a metric must be a finite number, got {v}");
    format!("{v}")
}

impl RunResult {
    /// The result as one line of JSON.
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(64 + 64 * self.metrics.len());
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                escape(m.name),
                number(m.value),
                escape(m.unit)
            );
        }
        out.push_str("}}");
        out
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Value>),
    Object(BTreeMap<String, Value>),
}

impl Value {
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses exactly one JSON value (surrounding whitespace allowed).
pub fn parse(input: &str) -> Result<Value, String> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn fail<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.pos))
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            self.fail(&format!("expected '{}'", byte as char))
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            self.fail("unknown literal")
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Value::String),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if *c == b'-' || c.is_ascii_digit() => self.number(),
            _ => self.fail("expected a JSON value"),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            if map.insert(key, value).is_some() {
                return self.fail("duplicate key");
            }
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return self.fail("expected ',' or '}'"),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return self.fail("expected ',' or ']'"),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return self.fail("unterminated string");
            };
            self.pos += 1;
            match b {
                b'"' => break,
                b'\\' => {
                    let Some(&e) = self.bytes.get(self.pos) else {
                        return self.fail("unterminated escape");
                    };
                    self.pos += 1;
                    match e {
                        b'"' | b'\\' | b'/' => out.push(e),
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'b' => out.push(0x08),
                        b'f' => out.push(0x0c),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok());
                            let Some(c) = hex.and_then(char::from_u32) else {
                                return self.fail("bad \\u escape");
                            };
                            self.pos += 4;
                            out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        _ => return self.fail("unknown escape"),
                    }
                }
                b => out.push(b),
            }
        }
        String::from_utf8(out).or_else(|_| self.fail("string is not UTF-8"))
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Value::Number(n)),
            _ => {
                self.pos = start;
                self.fail("bad number")
            }
        }
    }
}

/// A result line read back: metrics as `(name, value, unit)` rows sorted
/// by name.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, String)>,
}

impl ParsedResult {
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

/// Reads a result line back, insisting on exactly the contract's keys.
pub fn parse_result_line(line: &str) -> Result<ParsedResult, String> {
    let v = parse(line)?;
    let Value::Object(top) = &v else { return Err("result is not an object".into()) };
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    if keys != ["attempted", "correct", "failed", "metrics"] {
        return Err(format!("result has keys {keys:?}"));
    }
    let correct = v.get("correct").and_then(Value::as_bool).ok_or("correct is not a bool")?;
    let whole = |key: &str| -> Result<u64, String> {
        let n = v.get(key).and_then(Value::as_f64).ok_or(format!("{key} is not a number"))?;
        if n < 0.0 || n.fract() != 0.0 {
            return Err(format!("{key} is not a whole number: {n}"));
        }
        Ok(n as u64)
    };
    let Some(Value::Object(listed)) = v.get("metrics") else {
        return Err("metrics is not an object".into());
    };
    let mut metrics = Vec::with_capacity(listed.len());
    for (name, m) in listed {
        let value = m.get("value").and_then(Value::as_f64).ok_or(format!("{name}: no value"))?;
        let unit = m.get("unit").and_then(Value::as_str).ok_or(format!("{name}: no unit"))?;
        metrics.push((name.clone(), value, unit.to_string()));
    }
    Ok(ParsedResult { correct, attempted: whole("attempted")?, failed: whole("failed")?, metrics })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunResult {
        RunResult {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![
                Metric { name: "latency_p50_ms", value: 1.2034, unit: "ms" },
                Metric { name: "setup_s", value: 0.812_700_000_000_1, unit: "s" },
                Metric { name: "core.scheduler.plans", value: 7700.0, unit: "count" },
            ],
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = sample().to_json_line();
        assert!(!line.contains('\n'));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0, "));
        assert!(line.contains("\"latency_p50_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}"));
        let parsed = parse_result_line(&line).unwrap();
        assert!(parsed.correct);
        assert_eq!((parsed.attempted, parsed.failed), (1000, 0));
        assert_eq!(parsed.metrics.len(), 3);
    }

    #[test]
    fn values_keep_every_measured_digit() {
        let line = sample().to_json_line();
        let parsed = parse_result_line(&line).unwrap();
        assert_eq!(parsed.value("setup_s"), Some(0.812_700_000_000_1));
        assert_eq!(parsed.metrics.iter().find(|m| m.0 == "setup_s").unwrap().2, "s");
        assert_eq!(number(7700.0), "7700");
        assert_eq!(number(1e-7), "0.0000001");
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn a_nan_metric_is_a_bug_not_a_value() {
        number(f64::NAN);
    }

    #[test]
    fn parser_reads_nesting_escapes_and_rejects_garbage() {
        let v = parse(r#" {"a": [1, -2.5e3, true, null], "b": {"c": "x\"A\n"}} "#).unwrap();
        assert_eq!(
            v.get("a"),
            Some(&Value::Array(vec![
                Value::Number(1.0),
                Value::Number(-2500.0),
                Value::Bool(true),
                Value::Null,
            ]))
        );
        assert_eq!(v.get("b").and_then(|b| b.get("c")).and_then(Value::as_str), Some("x\"A\n"));
        assert_eq!(parse("[]"), Ok(Value::Array(Vec::new())));
        assert_eq!(parse("{}"), Ok(Value::Object(BTreeMap::new())));
        for bad in ["", "{", "{\"a\" 1}", "[1,]", "tru", "1 2", "{\"a\": 1, \"a\": 2}", "\"x", "--"]
        {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn escape_round_trips_through_the_parser() {
        let hostile = "quote\" slash\\ tab\t bell\u{7} é";
        let text = format!("\"{}\"", escape(hostile));
        assert_eq!(parse(&text), Ok(Value::String(hostile.to_string())));
    }

    #[test]
    fn result_reader_rejects_extra_or_missing_keys() {
        assert!(parse_result_line("{\"correct\": true, \"attempted\": 1, \"failed\": 0}").is_err());
        let extra =
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {}, \"x\": 1}";
        assert!(parse_result_line(extra).is_err());
        let fractional = "{\"correct\": true, \"attempted\": 1.5, \"failed\": 0, \"metrics\": {}}";
        assert!(parse_result_line(fractional).is_err());
    }
}
