//! Typed errors for scenario parsing, validation and loading.
//!
//! Every parse-time variant carries the 1-based source line it was
//! detected on, so a bad scenario file reads like a compiler
//! diagnostic: `fig11.scn:14: unknown key `treshold` in [marking]`.

use std::fmt;

/// Anything that can go wrong loading, validating or running a
/// scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// A line that is neither a section header, a `key = value` pair,
    /// a comment nor blank.
    Syntax {
        /// 1-based source line.
        line: usize,
        /// What was wrong.
        msg: String,
    },
    /// A section name the format does not define.
    UnknownSection {
        /// 1-based source line.
        line: usize,
        /// The offending section name.
        section: String,
    },
    /// The same section (name + label) appeared twice.
    DuplicateSection {
        /// 1-based source line of the second occurrence.
        line: usize,
        /// The duplicated section, rendered with its label.
        section: String,
    },
    /// A key the containing section does not define.
    UnknownKey {
        /// 1-based source line.
        line: usize,
        /// The section the key appeared in.
        section: String,
        /// The offending key.
        key: String,
    },
    /// The same key appeared twice in one section.
    DuplicateKey {
        /// 1-based source line of the second occurrence.
        line: usize,
        /// The duplicated key.
        key: String,
    },
    /// A required section is absent.
    MissingSection {
        /// The missing section name.
        section: String,
    },
    /// A required key is absent from a section.
    MissingKey {
        /// The section the key belongs in.
        section: String,
        /// The missing key.
        key: String,
    },
    /// A value failed to parse — a malformed number, an unknown unit
    /// suffix, a bad enum name.
    BadValue {
        /// 1-based source line.
        line: usize,
        /// The key whose value is bad.
        key: String,
        /// What was wrong.
        msg: String,
    },
    /// A value parsed but is outside its legal range (zero duration,
    /// `K1 > K2`, flow count beyond the supported matrix, …).
    OutOfRange {
        /// 1-based source line.
        line: usize,
        /// The key whose value is out of range.
        key: String,
        /// The violated constraint.
        msg: String,
    },
    /// File I/O failed.
    Io {
        /// The path involved.
        path: String,
        /// The rendered I/O error.
        msg: String,
    },
    /// An artifact file is malformed or from the wrong schema/scenario.
    BadArtifact {
        /// The path involved.
        path: String,
        /// What was wrong.
        msg: String,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Syntax { line, msg } => write!(f, "line {line}: {msg}"),
            ScenarioError::UnknownSection { line, section } => {
                write!(f, "line {line}: unknown section [{section}]")
            }
            ScenarioError::DuplicateSection { line, section } => {
                write!(f, "line {line}: duplicate section [{section}]")
            }
            ScenarioError::UnknownKey { line, section, key } => {
                write!(f, "line {line}: unknown key `{key}` in [{section}]")
            }
            ScenarioError::DuplicateKey { line, key } => {
                write!(f, "line {line}: duplicate key `{key}`")
            }
            ScenarioError::MissingSection { section } => {
                write!(f, "missing required section [{section}]")
            }
            ScenarioError::MissingKey { section, key } => {
                write!(f, "missing required key `{key}` in [{section}]")
            }
            ScenarioError::BadValue { line, key, msg } => {
                write!(f, "line {line}: bad value for `{key}`: {msg}")
            }
            ScenarioError::OutOfRange { line, key, msg } => {
                write!(f, "line {line}: `{key}` out of range: {msg}")
            }
            ScenarioError::Io { path, msg } => write!(f, "{path}: {msg}"),
            ScenarioError::BadArtifact { path, msg } => {
                write!(f, "{path}: bad artifact: {msg}")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_line_numbers() {
        let e = ScenarioError::UnknownKey {
            line: 14,
            section: "marking".into(),
            key: "treshold".into(),
        };
        assert_eq!(
            e.to_string(),
            "line 14: unknown key `treshold` in [marking]"
        );
    }

    #[test]
    fn display_out_of_range() {
        let e = ScenarioError::OutOfRange {
            line: 3,
            key: "k1".into(),
            msg: "K1 must not exceed K2".into(),
        };
        assert!(e.to_string().contains("out of range"));
    }
}
