//! Shared plumbing for the `fig*` reproduction binaries.
//!
//! Each binary accepts:
//!
//! * `--quick` (default) / `--full` — experiment scale;
//! * `--csv PATH` — additionally write the primary table as CSV.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

use std::fs;
use std::path::PathBuf;

use dctcp_workloads::{Scale, Table};

/// Parsed command-line options common to all figure binaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FigArgs {
    /// Experiment scale.
    pub scale: Scale,
    /// Optional CSV output path.
    pub csv: Option<PathBuf>,
}

impl FigArgs {
    /// Parses `std::env::args()`-style arguments.
    pub fn parse(args: impl IntoIterator<Item = String>) -> FigArgs {
        let args: Vec<String> = args.into_iter().collect();
        let scale = Scale::from_args(&args);
        let csv = args
            .iter()
            .position(|a| a == "--csv")
            .and_then(|i| args.get(i + 1))
            .map(PathBuf::from);
        FigArgs { scale, csv }
    }

    /// Parses the process arguments (skipping `argv[0]`).
    pub fn from_env() -> FigArgs {
        FigArgs::parse(std::env::args().skip(1))
    }
}

/// Prints a table and, when requested, writes its CSV form.
///
/// # Panics
///
/// Panics if the CSV file cannot be written (reproduction binaries want
/// loud failures, not silently missing data).
pub fn emit(table: &Table, args: &FigArgs) {
    println!("{table}");
    if let Some(path) = &args.csv {
        fs::write(path, table.to_csv())
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        eprintln!("wrote {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flags_in_any_order() {
        let a = FigArgs::parse(["--csv".into(), "out.csv".into(), "--full".into()]);
        assert_eq!(a.scale, Scale::Full);
        assert_eq!(a.csv.as_deref().unwrap().to_str(), Some("out.csv"));

        let a = FigArgs::parse(Vec::<String>::new());
        assert_eq!(a.scale, Scale::Quick);
        assert!(a.csv.is_none());
    }

    #[test]
    fn csv_without_path_is_ignored() {
        let a = FigArgs::parse(["--csv".into()]);
        assert!(a.csv.is_none());
    }

    #[test]
    fn emit_writes_csv() {
        let dir = std::env::temp_dir().join("dctcp-bench-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        let mut t = Table::new("x", &["a"]);
        t.row(&["1"]);
        emit(
            &t,
            &FigArgs {
                scale: Scale::Quick,
                csv: Some(path.clone()),
            },
        );
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "a\n1\n");
    }
}
