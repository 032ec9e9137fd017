//! Guards that keep the numbers honest: the benchmark refuses to run
//! when the measured code would not be the shipped code, or when the
//! environment would change how many threads the program uses.

use std::collections::BTreeMap;
use std::path::Path;

/// The keys of a manifest's `[profile.release]` table, comments and
/// spacing stripped.
pub fn release_profile(manifest: &str) -> BTreeMap<String, String> {
    let mut inside = false;
    let mut table = BTreeMap::new();
    for line in manifest.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            inside = line == "[profile.release]";
        } else if inside {
            if let Some((key, value)) = line.split_once('=') {
                table.insert(key.trim().to_string(), value.trim().to_string());
            }
        }
    }
    table
}

/// Refuses when `benchmark/Cargo.toml`'s release profile differs from
/// the root manifest's.
pub fn check_profiles(root: &Path) -> Result<(), String> {
    let read = |rel: &str| {
        std::fs::read_to_string(root.join(rel)).map_err(|e| format!("cannot read {rel}: {e}"))
    };
    let shipped = release_profile(&read("Cargo.toml")?);
    let measured = release_profile(&read("benchmark/Cargo.toml")?);
    if shipped.is_empty() {
        return Err("root Cargo.toml has no [profile.release] table".into());
    }
    if shipped != measured {
        return Err(format!(
            "benchmark/Cargo.toml [profile.release] {measured:?} differs from the root's \
             {shipped:?}: the measured code would not be the shipped code"
        ));
    }
    Ok(())
}

/// Refuses when the caller's environment sets the program's thread or
/// shard count: every workload fixes both itself.
pub fn check_environment() -> Result<(), String> {
    for var in ["DCTCP_JOBS", "DCTCP_SIM_SHARDS"] {
        if std::env::var_os(var).is_some() {
            return Err(format!(
                "{var} is set in the environment; unset it (the benchmark pins threads and shards)"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_tables_compare_by_content_not_layout() {
        let root = "[package]\nname = \"x\"\n\n[profile.release]\ndebug = true\n# why\nlto = \"thin\"   # thin\ncodegen-units=1\n\n[profile.bench]\nlto = \"fat\"\n";
        let bench = "[profile.release]\ncodegen-units = 1\nlto = \"thin\"\ndebug = true\n";
        assert_eq!(release_profile(root), release_profile(bench));
        assert_eq!(release_profile(root).len(), 3);
        let drifted = bench.replace("thin", "fat");
        assert_ne!(release_profile(root), release_profile(&drifted));
        assert!(release_profile("[package]\nname = \"x\"\n").is_empty());
    }

    #[test]
    fn the_two_manifests_of_this_repo_agree() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
        check_profiles(root).unwrap();
    }
}
