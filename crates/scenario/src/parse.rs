//! The line-oriented scenario surface syntax.
//!
//! A scenario file is a sequence of `[section]` / `[section "label"]`
//! headers, each followed by `key = value` lines. `#` starts a comment
//! anywhere on a line; blank lines are ignored. There is deliberately
//! no nesting, quoting (beyond section labels) or escaping — the format
//! is hand-written, hand-reviewed configuration, not a data interchange
//! language — and the parser is dependency-free to keep the workspace
//! hermetic.
//!
//! This module parses the *shape* (sections, keys, raw values, line
//! numbers) plus the unit-suffixed value grammar (`30 ms`, `10 Gbps`,
//! `40 pkts`, `64 KB`, lists). The (private) `spec` and `kinds` modules
//! turn the shape into a typed [`crate::ScenarioSpec`].

use std::str::FromStr;

use dctcp_core::QueueLevel;
use dctcp_sim::{Capacity, SimDuration};

use crate::ScenarioError;

/// One `key = value` line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawEntry {
    /// The key, trimmed.
    pub key: String,
    /// The raw value, trimmed, comments stripped.
    pub value: String,
    /// 1-based source line.
    pub line: usize,
}

/// One `[name]` or `[name "label"]` section with its entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawSection {
    /// Section name (the part before the label).
    pub name: String,
    /// Optional quoted label.
    pub label: Option<String>,
    /// 1-based source line of the header.
    pub line: usize,
    /// Entries in file order.
    pub entries: Vec<RawEntry>,
}

impl RawSection {
    /// The section rendered as it appeared, for diagnostics.
    pub fn display_name(&self) -> String {
        match &self.label {
            Some(l) => format!("{} \"{}\"", self.name, l),
            None => self.name.clone(),
        }
    }

    /// Looks up a key's raw entry.
    pub fn get(&self, key: &str) -> Option<&RawEntry> {
        self.entries.iter().find(|e| e.key == key)
    }

    /// Looks up a key's raw value.
    pub fn value(&self, key: &str) -> Option<&str> {
        self.get(key).map(|e| e.value.as_str())
    }

    /// A required key's entry, or [`ScenarioError::MissingKey`].
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::MissingKey`] when absent.
    pub fn require(&self, key: &str) -> Result<&RawEntry, ScenarioError> {
        self.get(key).ok_or_else(|| ScenarioError::MissingKey {
            section: self.display_name(),
            key: key.to_string(),
        })
    }

    /// Errors on any entry whose key is not in `allowed` — the guard
    /// every typed section applies after consuming what it knows.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::UnknownKey`] for the first stray key.
    pub fn reject_unknown_keys(&self, allowed: &[&str]) -> Result<(), ScenarioError> {
        for e in &self.entries {
            if !allowed.contains(&e.key.as_str()) {
                return Err(ScenarioError::UnknownKey {
                    line: e.line,
                    section: self.display_name(),
                    key: e.key.clone(),
                });
            }
        }
        Ok(())
    }

    /// Overwrites `field` with the parsed value of `key` when the key is
    /// present, leaving the default in place otherwise.
    pub(crate) fn set<T>(
        &self,
        key: &str,
        field: &mut T,
        parse: impl Fn(&RawEntry) -> Result<T, ScenarioError>,
    ) -> Result<(), ScenarioError> {
        if let Some(e) = self.get(key) {
            *field = parse(e)?;
        }
        Ok(())
    }
}

/// A parsed file: sections in file order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document {
    /// Sections in file order.
    pub sections: Vec<RawSection>,
}

impl Document {
    /// Parses the surface syntax, checking structure only: headers and
    /// `key = value` shape, duplicate sections (same name *and* label)
    /// and duplicate keys within a section.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Syntax`], [`ScenarioError::DuplicateSection`]
    /// or [`ScenarioError::DuplicateKey`].
    pub fn parse(src: &str) -> Result<Document, ScenarioError> {
        let mut sections: Vec<RawSection> = Vec::new();
        for (idx, raw_line) in src.lines().enumerate() {
            let line = idx + 1;
            let text = match raw_line.find('#') {
                Some(pos) => &raw_line[..pos],
                None => raw_line,
            };
            let text = text.trim();
            if text.is_empty() {
                continue;
            }
            if let Some(rest) = text.strip_prefix('[') {
                let inner = rest
                    .strip_suffix(']')
                    .ok_or_else(|| ScenarioError::Syntax {
                        line,
                        msg: format!("unterminated section header `{text}`"),
                    })?;
                let (name, label) = parse_header(inner, line)?;
                if sections.iter().any(|s| s.name == name && s.label == label) {
                    return Err(ScenarioError::DuplicateSection {
                        line,
                        section: match &label {
                            Some(l) => format!("{name} \"{l}\""),
                            None => name,
                        },
                    });
                }
                sections.push(RawSection {
                    name,
                    label,
                    line,
                    entries: Vec::new(),
                });
                continue;
            }
            let Some(eq) = text.find('=') else {
                return Err(ScenarioError::Syntax {
                    line,
                    msg: format!("expected `key = value` or `[section]`, got `{text}`"),
                });
            };
            let key = text[..eq].trim().to_string();
            let value = text[eq + 1..].trim().to_string();
            if key.is_empty() {
                return Err(ScenarioError::Syntax {
                    line,
                    msg: "empty key before `=`".into(),
                });
            }
            let Some(section) = sections.last_mut() else {
                return Err(ScenarioError::Syntax {
                    line,
                    msg: format!("`{key}` appears before any [section] header"),
                });
            };
            if section.entries.iter().any(|e| e.key == key) {
                return Err(ScenarioError::DuplicateKey { line, key });
            }
            section.entries.push(RawEntry { key, value, line });
        }
        Ok(Document { sections })
    }

    /// All sections with the given name, in file order.
    pub fn sections_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a RawSection> {
        self.sections.iter().filter(move |s| s.name == name)
    }

    /// The unique unlabeled section of a name, if present.
    pub fn section(&self, name: &str) -> Option<&RawSection> {
        self.sections
            .iter()
            .find(|s| s.name == name && s.label.is_none())
    }
}

fn parse_header(inner: &str, line: usize) -> Result<(String, Option<String>), ScenarioError> {
    let inner = inner.trim();
    match inner.find('"') {
        None => {
            // `[name]` or the unquoted-label form `[name label]`
            // (shorthand for `[name "label"]`, used by fixed vocabulary
            // labels like `[topology fat_tree]`).
            let mut words = inner.split_whitespace();
            let name = words.next().unwrap_or_default();
            let label = words.next();
            if name.is_empty()
                || !is_ident(name)
                || label.is_some_and(|l| !is_ident(l))
                || words.next().is_some()
            {
                return Err(ScenarioError::Syntax {
                    line,
                    msg: format!("bad section name `{inner}`"),
                });
            }
            Ok((name.to_string(), label.map(String::from)))
        }
        Some(q) => {
            let name = inner[..q].trim();
            let rest = &inner[q + 1..];
            let end = rest.find('"').ok_or_else(|| ScenarioError::Syntax {
                line,
                msg: "unterminated section label quote".into(),
            })?;
            if !rest[end + 1..].trim().is_empty() {
                return Err(ScenarioError::Syntax {
                    line,
                    msg: "trailing text after section label".into(),
                });
            }
            if name.is_empty() || !is_ident(name) {
                return Err(ScenarioError::Syntax {
                    line,
                    msg: format!("bad section name `{name}`"),
                });
            }
            Ok((name.to_string(), Some(rest[..end].to_string())))
        }
    }
}

fn is_ident(s: &str) -> bool {
    s.chars()
        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

fn bad(entry: &RawEntry, msg: impl Into<String>) -> ScenarioError {
    ScenarioError::BadValue {
        line: entry.line,
        key: entry.key.clone(),
        msg: msg.into(),
    }
}

/// Splits `12.5 ms` into the numeric part and the (possibly empty)
/// suffix.
fn split_unit(value: &str) -> (&str, &str) {
    let trimmed = value.trim();
    let split = trimmed
        .char_indices()
        .find(|&(_, c)| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+'))
        .map_or(trimmed.len(), |(i, _)| i);
    (trimmed[..split].trim(), trimmed[split..].trim())
}

/// Parses a duration with a unit suffix: `ns`, `us`, `ms` or `s`.
///
/// # Errors
///
/// Returns [`ScenarioError::BadValue`] for a malformed number or an
/// unknown suffix, [`ScenarioError::OutOfRange`] for negative values.
pub fn parse_duration(entry: &RawEntry) -> Result<SimDuration, ScenarioError> {
    let (num, unit) = split_unit(&entry.value);
    let v: f64 = num
        .parse()
        .map_err(|_| bad(entry, format!("`{num}` is not a number")))?;
    let scale = match unit {
        "ns" => 1e-9,
        "us" => 1e-6,
        "ms" => 1e-3,
        "s" => 1.0,
        "" => return Err(bad(entry, "missing duration unit (ns/us/ms/s)")),
        u => {
            return Err(bad(
                entry,
                format!("unknown duration unit `{u}` (ns/us/ms/s)"),
            ))
        }
    };
    if v < 0.0 {
        return Err(ScenarioError::OutOfRange {
            line: entry.line,
            key: entry.key.clone(),
            msg: "duration must not be negative".into(),
        });
    }
    Ok(SimDuration::from_secs_f64(v * scale))
}

/// [`parse_duration`] for keys that must not be zero.
pub(crate) fn parse_positive_duration(entry: &RawEntry) -> Result<SimDuration, ScenarioError> {
    let d = parse_duration(entry)?;
    if d == SimDuration::ZERO {
        return Err(ScenarioError::OutOfRange {
            line: entry.line,
            key: entry.key.clone(),
            msg: "must be positive".into(),
        });
    }
    Ok(d)
}

/// Parses a link rate: `10 Gbps`, `800 Mbps`, `1000000 bps`.
///
/// # Errors
///
/// Returns [`ScenarioError::BadValue`] / [`ScenarioError::OutOfRange`].
pub fn parse_rate_bps(entry: &RawEntry) -> Result<u64, ScenarioError> {
    let (num, unit) = split_unit(&entry.value);
    let v: f64 = num
        .parse()
        .map_err(|_| bad(entry, format!("`{num}` is not a number")))?;
    let scale = match unit {
        "Gbps" => 1e9,
        "Mbps" => 1e6,
        "Kbps" => 1e3,
        "bps" => 1.0,
        "" => return Err(bad(entry, "missing rate unit (Gbps/Mbps/Kbps/bps)")),
        u => {
            return Err(bad(
                entry,
                format!("unknown rate unit `{u}` (Gbps/Mbps/Kbps/bps)"),
            ))
        }
    };
    if v <= 0.0 {
        return Err(ScenarioError::OutOfRange {
            line: entry.line,
            key: entry.key.clone(),
            msg: "rate must be positive".into(),
        });
    }
    Ok((v * scale) as u64)
}

/// Parses a queue level: `40 pkts`, `32 KB`, `1 MB`, `1500 bytes`.
///
/// # Errors
///
/// Returns [`ScenarioError::BadValue`] / [`ScenarioError::OutOfRange`].
pub fn parse_level(entry: &RawEntry) -> Result<QueueLevel, ScenarioError> {
    let (num, unit) = split_unit(&entry.value);
    let err_nan = || bad(entry, format!("`{num}` is not a whole number"));
    let out_of_range = |msg: &str| ScenarioError::OutOfRange {
        line: entry.line,
        key: entry.key.clone(),
        msg: msg.into(),
    };
    let level = match unit {
        "pkts" | "pkt" => QueueLevel::Packets(num.parse().map_err(|_| err_nan())?),
        "KB" => QueueLevel::Bytes(num.parse::<u64>().map_err(|_| err_nan())? * 1024),
        "MB" => QueueLevel::Bytes(num.parse::<u64>().map_err(|_| err_nan())? * 1024 * 1024),
        "bytes" | "B" => QueueLevel::Bytes(num.parse().map_err(|_| err_nan())?),
        "" => return Err(bad(entry, "missing unit (pkts/KB/MB/bytes)")),
        u => return Err(bad(entry, format!("unknown unit `{u}` (pkts/KB/MB/bytes)"))),
    };
    let zero = match level {
        QueueLevel::Packets(p) => p == 0,
        QueueLevel::Bytes(b) => b == 0,
    };
    if zero {
        return Err(out_of_range("level must be positive"));
    }
    Ok(level)
}

/// Parses a buffer capacity (same grammar as [`parse_level`]).
///
/// # Errors
///
/// Returns [`ScenarioError::BadValue`] / [`ScenarioError::OutOfRange`].
pub fn parse_capacity(entry: &RawEntry) -> Result<Capacity, ScenarioError> {
    Ok(match parse_level(entry)? {
        QueueLevel::Packets(p) => Capacity::Packets(p),
        QueueLevel::Bytes(b) => Capacity::Bytes(b),
    })
}

/// Parses a byte count: `64 KB`, `1 MB`, `20000 bytes`.
///
/// # Errors
///
/// Returns [`ScenarioError::BadValue`] for packet-denominated or
/// malformed values.
pub fn parse_bytes(entry: &RawEntry) -> Result<u64, ScenarioError> {
    match parse_level(entry)? {
        QueueLevel::Bytes(b) => Ok(b),
        QueueLevel::Packets(_) => Err(bad(entry, "expected a byte size (KB/MB/bytes), not pkts")),
    }
}

/// Parses a bare float.
///
/// # Errors
///
/// Returns [`ScenarioError::BadValue`] for malformed numbers.
pub fn parse_f64(entry: &RawEntry) -> Result<f64, ScenarioError> {
    entry
        .value
        .parse()
        .map_err(|_| bad(entry, format!("`{}` is not a number", entry.value)))
}

/// Parses a bare unsigned integer (`u32`, `u64`, …).
///
/// # Errors
///
/// Returns [`ScenarioError::BadValue`] for malformed numbers.
pub fn parse_uint<T: FromStr>(entry: &RawEntry) -> Result<T, ScenarioError> {
    entry
        .value
        .parse()
        .map_err(|_| bad(entry, format!("`{}` is not a whole number", entry.value)))
}

/// [`parse_uint`] for counts that must not be zero.
pub(crate) fn parse_positive_uint(entry: &RawEntry) -> Result<u32, ScenarioError> {
    let n = parse_uint(entry)?;
    if n == 0 {
        return Err(ScenarioError::OutOfRange {
            line: entry.line,
            key: entry.key.clone(),
            msg: "must be positive".into(),
        });
    }
    Ok(n)
}

/// Parses a comma-separated list of unsigned integers (`2, 8, 32`).
/// An empty value is one empty element, so it is rejected too.
///
/// # Errors
///
/// Returns [`ScenarioError::BadValue`] for malformed or empty elements.
pub fn parse_uint_list<T: FromStr>(entry: &RawEntry) -> Result<Vec<T>, ScenarioError> {
    let mut out = Vec::new();
    for part in entry.value.split(',') {
        let part = part.trim();
        if part.is_empty() {
            return Err(bad(entry, "empty element in list"));
        }
        out.push(
            part.parse()
                .map_err(|_| bad(entry, format!("`{part}` is not a whole number")))?,
        );
    }
    Ok(out)
}

/// Parses a `from .. until` window of durations (`20 ms .. 30 ms`).
///
/// # Errors
///
/// Returns [`ScenarioError::BadValue`] for malformed windows and
/// [`ScenarioError::OutOfRange`] when `from >= until`.
pub fn parse_window(entry: &RawEntry) -> Result<(SimDuration, SimDuration), ScenarioError> {
    let Some((a, b)) = entry.value.split_once("..") else {
        return Err(bad(entry, "expected `<from> .. <until>`"));
    };
    let sub = |v: &str| RawEntry {
        key: entry.key.clone(),
        value: v.trim().to_string(),
        line: entry.line,
    };
    let from = parse_duration(&sub(a))?;
    let until = parse_duration(&sub(b))?;
    if from >= until {
        return Err(ScenarioError::OutOfRange {
            line: entry.line,
            key: entry.key.clone(),
            msg: "window start must precede its end".into(),
        });
    }
    Ok((from, until))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(key: &str, value: &str) -> RawEntry {
        RawEntry {
            key: key.into(),
            value: value.into(),
            line: 7,
        }
    }

    #[test]
    fn parses_sections_labels_and_entries() {
        let doc = Document::parse(
            "# a scenario\n[scenario]\nname = x\n\n[marking \"dt\"]\nscheme = dt-dctcp # inline\n",
        )
        .unwrap();
        assert_eq!(doc.sections.len(), 2);
        assert_eq!(doc.section("scenario").unwrap().value("name"), Some("x"));
        let m = doc.sections_named("marking").next().unwrap();
        assert_eq!(m.label.as_deref(), Some("dt"));
        assert_eq!(m.value("scheme"), Some("dt-dctcp"));
        assert_eq!(m.get("scheme").unwrap().line, 6);
    }

    #[test]
    fn rejects_duplicate_section() {
        let err = Document::parse("[run]\n[run]\n").unwrap_err();
        assert!(matches!(
            err,
            ScenarioError::DuplicateSection { line: 2, .. }
        ));
        // Same name with different labels is fine.
        assert!(Document::parse("[marking \"a\"]\n[marking \"b\"]\n").is_ok());
    }

    #[test]
    fn rejects_duplicate_key() {
        let err = Document::parse("[run]\nflows = 1\nflows = 2\n").unwrap_err();
        assert!(matches!(err, ScenarioError::DuplicateKey { line: 3, .. }));
    }

    #[test]
    fn rejects_key_before_section() {
        let err = Document::parse("flows = 1\n").unwrap_err();
        assert!(matches!(err, ScenarioError::Syntax { line: 1, .. }));
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(Document::parse("[run\n").is_err());
        assert!(Document::parse("[run]\nnot a pair\n").is_err());
        assert!(Document::parse("[to po logy]\n").is_err());
        assert!(Document::parse("[topology fat/tree]\n").is_err());
        assert!(Document::parse("[run \"x]\n").is_err());
    }

    #[test]
    fn unquoted_labels_equal_quoted_labels() {
        let bare = Document::parse("[topology fat_tree]\nk = 4\n").unwrap();
        let quoted = Document::parse("[topology \"fat_tree\"]\nk = 4\n").unwrap();
        assert_eq!(bare.sections[0].name, "topology");
        assert_eq!(bare.sections[0].label.as_deref(), Some("fat_tree"));
        assert_eq!(bare.sections[0].entries, quoted.sections[0].entries);
        assert_eq!(bare.sections[0].label, quoted.sections[0].label);
        // The two spellings are the *same* section: declaring both is a
        // duplicate.
        assert!(matches!(
            Document::parse("[topology fat_tree]\n[topology \"fat_tree\"]\n").unwrap_err(),
            ScenarioError::DuplicateSection { .. }
        ));
    }

    #[test]
    fn durations_parse_with_units() {
        assert_eq!(
            parse_duration(&entry("warmup", "30 ms")).unwrap(),
            SimDuration::from_millis(30)
        );
        assert_eq!(
            parse_duration(&entry("t", "100us")).unwrap(),
            SimDuration::from_micros(100)
        );
        assert!(parse_duration(&entry("t", "5 fortnights")).is_err());
        assert!(parse_duration(&entry("t", "5")).is_err());
        assert!(parse_duration(&entry("t", "abc ms")).is_err());
    }

    #[test]
    fn bad_unit_suffix_is_a_bad_value_with_line() {
        let err = parse_duration(&entry("warmup", "30 sec")).unwrap_err();
        match err {
            ScenarioError::BadValue { line, key, msg } => {
                assert_eq!(line, 7);
                assert_eq!(key, "warmup");
                assert!(msg.contains("sec"), "{msg}");
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn rates_and_levels_parse() {
        assert_eq!(
            parse_rate_bps(&entry("r", "10 Gbps")).unwrap(),
            10_000_000_000
        );
        assert_eq!(
            parse_rate_bps(&entry("r", "800 Mbps")).unwrap(),
            800_000_000
        );
        assert!(parse_rate_bps(&entry("r", "10 GB")).is_err());
        assert_eq!(
            parse_level(&entry("k", "40 pkts")).unwrap(),
            QueueLevel::Packets(40)
        );
        assert_eq!(
            parse_level(&entry("k", "32 KB")).unwrap(),
            QueueLevel::Bytes(32 * 1024)
        );
        assert!(parse_level(&entry("k", "0 pkts")).is_err());
        assert_eq!(parse_bytes(&entry("b", "1 MB")).unwrap(), 1024 * 1024);
        assert!(parse_bytes(&entry("b", "3 pkts")).is_err());
    }

    #[test]
    fn lists_and_windows_parse() {
        assert_eq!(
            parse_uint_list::<u32>(&entry("flows", "2, 8, 32")).unwrap(),
            vec![2, 8, 32]
        );
        assert!(parse_uint_list::<u32>(&entry("flows", "2,,3")).is_err());
        let (a, b) = parse_window(&entry("bleach", "20 ms .. 30 ms")).unwrap();
        assert_eq!(a, SimDuration::from_millis(20));
        assert_eq!(b, SimDuration::from_millis(30));
        assert!(parse_window(&entry("bleach", "30 ms .. 20 ms")).is_err());
        assert!(parse_window(&entry("bleach", "30 ms")).is_err());
    }
}
