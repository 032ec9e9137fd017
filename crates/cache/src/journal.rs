//! Append-only, crash-tolerant run journal.
//!
//! The result cache memoizes *successful* cells; the journal records the
//! rest of a run's durable state — cells that failed and were
//! quarantined — so a run interrupted by `SIGKILL` can resume without
//! repeating known-deterministic failures.
//!
//! The file is append-only with one self-checking record per line:
//!
//! ```text
//! <fnv128 of body, 32 hex> v2 f <key hex> <kind> <escaped msg>
//! ```
//!
//! A record is only believed when its leading digest matches its body
//! and its body has the current `v2` grammar, so the torn final line a
//! `kill -9` can leave behind (or any other corruption, or a `v1` line
//! from an older binary) is skipped instead of poisoning the load —
//! crash consistency without fsync discipline. A skipped record costs
//! one re-run of its cell. Appends are serialized by the
//! OS's `O_APPEND` semantics; records for the same key supersede older
//! ones in file order.

use std::collections::HashMap;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use crate::{CacheKey, Fnv128};

/// One quarantined cell as recorded in the journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureRecord {
    /// The failed cell's content address (same key space as the cache).
    pub key: CacheKey,
    /// Failure kind token (no spaces); vocabulary owned by the caller.
    pub kind: String,
    /// Human-readable failure message.
    pub msg: String,
}

/// An append-only journal file of [`FailureRecord`]s.
#[derive(Debug, Clone)]
pub struct Journal {
    path: PathBuf,
}

impl Journal {
    /// A journal stored at `path`. The file is created on first append.
    pub fn new(path: impl Into<PathBuf>) -> Journal {
        Journal { path: path.into() }
    }

    /// The conventional journal location inside a cache directory.
    pub fn in_cache_root(root: impl AsRef<Path>) -> Journal {
        Journal::new(root.as_ref().join("journal.log"))
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one failure record, creating the file (and its parent
    /// directory) if needed.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error. Like cache writes, journal
    /// appends are best-effort for callers: a lost record only costs a
    /// re-run of that cell on resume.
    pub fn append_failure(&self, rec: &FailureRecord) -> io::Result<()> {
        if let Some(parent) = self.path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let body = format!(
            "v2 f {} {} {}",
            rec.key.hex(),
            token(&rec.kind),
            escape(&rec.msg)
        );
        let mut h = Fnv128::new();
        h.update(body.as_bytes());
        let line = format!("{:032x} {body}\n", h.finish());
        // A kill -9 mid-append can leave the file without a trailing
        // newline; start a fresh line so the torn fragment corrupts only
        // itself, never the records appended after the crash.
        let repair = !ends_with_newline(&self.path)?;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        if repair {
            f.write_all(b"\n")?;
        }
        f.write_all(line.as_bytes())
    }

    /// Loads every believable failure record, keyed by cell address;
    /// later records supersede earlier ones. Torn or corrupt lines — a
    /// digest mismatch, a malformed body — are skipped, and a missing
    /// file is simply an empty journal.
    pub fn load_failures(&self) -> HashMap<CacheKey, FailureRecord> {
        let mut out = HashMap::new();
        let Ok(body) = std::fs::read_to_string(&self.path) else {
            return out;
        };
        for line in body.lines() {
            if let Some(rec) = parse_line(line) {
                out.insert(rec.key, rec);
            }
        }
        out
    }
}

fn ends_with_newline(path: &Path) -> io::Result<bool> {
    use std::io::{Read as _, Seek as _, SeekFrom};
    let mut f = match std::fs::File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(true),
        Err(e) => return Err(e),
    };
    if f.metadata()?.len() == 0 {
        return Ok(true);
    }
    let mut tail = [0u8; 1];
    f.seek(SeekFrom::End(-1))?;
    f.read_exact(&mut tail)?;
    Ok(tail[0] == b'\n')
}

fn parse_line(line: &str) -> Option<FailureRecord> {
    let (sum_hex, body) = line.split_once(' ')?;
    let recorded = u128::from_str_radix(sum_hex, 16).ok()?;
    let mut h = Fnv128::new();
    h.update(body.as_bytes());
    if h.finish() != recorded {
        return None;
    }
    let rest = body.strip_prefix("v2 f ")?;
    let (key_hex, rest) = rest.split_once(' ')?;
    let key = CacheKey::from_hex(key_hex)?;
    let (kind, msg) = rest.split_once(' ')?;
    Some(FailureRecord {
        key,
        kind: kind.to_string(),
        msg: unescape(msg),
    })
}

/// Collapses whitespace out of a kind token so the line grammar holds
/// even for a hostile caller.
fn token(kind: &str) -> String {
    kind.split_whitespace().collect::<Vec<_>>().join("-")
}

fn escape(msg: &str) -> String {
    let mut out = String::with_capacity(msg.len());
    for c in msg.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

fn unescape(msg: &str) -> String {
    let mut out = String::with_capacity(msg.len());
    let mut chars = msg.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some(other) => out.push(other),
            None => out.push('\\'),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KeyBuilder;

    fn tmp_journal(tag: &str) -> Journal {
        let dir = std::env::temp_dir().join(format!("dctcp-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Journal::in_cache_root(dir)
    }

    fn key(seed: &str) -> CacheKey {
        let mut kb = KeyBuilder::new();
        kb.field("seed", seed);
        kb.finish()
    }

    fn rec(seed: &str, kind: &str, msg: &str) -> FailureRecord {
        FailureRecord {
            key: key(seed),
            kind: kind.into(),
            msg: msg.into(),
        }
    }

    fn cleanup(j: &Journal) {
        if let Some(parent) = j.path().parent() {
            let _ = std::fs::remove_dir_all(parent);
        }
    }

    #[test]
    fn append_load_round_trips() {
        let j = tmp_journal("roundtrip");
        let a = rec("1", "panicked", "poisoned cell");
        let b = rec("2", "failed", "multi\nline \\ message");
        j.append_failure(&a).unwrap();
        j.append_failure(&b).unwrap();
        let loaded = j.load_failures();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[&a.key], a);
        assert_eq!(loaded[&b.key], b);
        cleanup(&j);
    }

    #[test]
    fn missing_file_is_empty() {
        let j = tmp_journal("missing");
        assert!(j.load_failures().is_empty());
    }

    #[test]
    fn later_records_supersede_earlier_ones() {
        let j = tmp_journal("supersede");
        j.append_failure(&rec("1", "failed", "first")).unwrap();
        j.append_failure(&rec("1", "panicked", "second")).unwrap();
        let loaded = j.load_failures();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[&key("1")].msg, "second");
        assert_eq!(loaded[&key("1")].kind, "panicked");
        cleanup(&j);
    }

    #[test]
    fn torn_tail_is_skipped_not_fatal() {
        let j = tmp_journal("torn");
        j.append_failure(&rec("1", "panicked", "kept")).unwrap();
        j.append_failure(&rec("2", "panicked", "torn")).unwrap();
        // Simulate a kill -9 mid-append: truncate inside the last line.
        let body = std::fs::read_to_string(j.path()).unwrap();
        std::fs::write(j.path(), &body[..body.len() - 9]).unwrap();
        let loaded = j.load_failures();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[&key("1")].msg, "kept");
        // Appends after the crash land on a fresh line (the torn
        // fragment is fenced off by the newline repair), so new records
        // are believable while the torn one stays dead.
        j.append_failure(&rec("3", "failed", "after")).unwrap();
        let loaded = j.load_failures();
        assert_eq!(loaded.len(), 2);
        assert!(loaded.contains_key(&key("1")));
        assert_eq!(loaded[&key("3")].msg, "after");
        cleanup(&j);
    }

    #[test]
    fn bit_flip_invalidates_only_that_line() {
        let j = tmp_journal("flip");
        j.append_failure(&rec("1", "failed", "aaaa")).unwrap();
        j.append_failure(&rec("2", "failed", "bbbb")).unwrap();
        let mut body = std::fs::read(j.path()).unwrap();
        // Flip a byte in the first line's message.
        let pos = body.iter().position(|&b| b == b'a').unwrap();
        body[pos] ^= 0x02;
        std::fs::write(j.path(), body).unwrap();
        let loaded = j.load_failures();
        assert_eq!(loaded.len(), 1);
        assert!(loaded.contains_key(&key("2")));
        cleanup(&j);
    }

    #[test]
    fn checksummed_v1_lines_are_skipped_not_misparsed() {
        let j = tmp_journal("v1");
        // A well-formed record from an older binary: correct digest,
        // old grammar (a count field before the kind).
        let body = format!("v1 f {} 2 panicked old record", key("1").hex());
        let mut h = Fnv128::new();
        h.update(body.as_bytes());
        std::fs::create_dir_all(j.path().parent().unwrap()).unwrap();
        std::fs::write(j.path(), format!("{:032x} {body}\n", h.finish())).unwrap();
        assert!(j.load_failures().is_empty());
        // Records appended after it load normally.
        j.append_failure(&rec("2", "failed", "new")).unwrap();
        let loaded = j.load_failures();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[&key("2")].msg, "new");
        cleanup(&j);
    }

    #[test]
    fn kind_tokens_never_break_the_grammar() {
        let j = tmp_journal("token");
        j.append_failure(&rec("1", "weird kind", "msg")).unwrap();
        let loaded = j.load_failures();
        assert_eq!(loaded[&key("1")].kind, "weird-kind");
        cleanup(&j);
    }
}
