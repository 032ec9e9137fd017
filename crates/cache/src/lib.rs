//! Content-addressed, on-disk result cache for simulation cells.
//!
//! A *cell* is one fully-determined simulation (one matrix point of a
//! scenario): its outcome — its metrics, or the failure it ends in —
//! depends only on the resolved configuration and the code that ran
//! it. That makes cell outcomes perfect memoization targets — the same
//! inputs always reproduce the same bytes — so this crate stores them
//! under a [`CacheKey`]: an FNV-1a 128-bit digest over
//!
//! * the tagged, fully-resolved cell configuration (fed through
//!   [`KeyBuilder`] by the caller),
//! * the artifact schema version, and
//! * the workspace **code fingerprint** ([`code_fingerprint`]), embedded
//!   at build time by this crate's build script from a digest of every
//!   workspace source file and manifest.
//!
//! Any scenario edit changes the resolved config; any code or manifest
//! edit changes the fingerprint; either moves the key, so a stale hit is
//! impossible without a hash collision. Entries are self-checking (a
//! trailing digest line over the entry body), and *every* anomaly —
//! missing file, truncation, bit-flip, schema or key mismatch — reads as
//! a miss, silently falling back to recomputation. The cache can be
//! deleted at any time; it is purely a performance layer.
//!
//! Zero dependencies, like the rest of the workspace.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// On-disk entry schema tag; bump when the entry format changes (old
/// entries then read as misses).
pub const ENTRY_SCHEMA: &str = "dctcp-cache/v2";

const FNV_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// Incremental FNV-1a 128-bit hasher — the workspace's standard
/// dependency-free digest (the build-script fingerprint uses the same
/// function).
#[derive(Debug, Clone)]
pub struct Fnv128 {
    state: u128,
}

impl Fnv128 {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Fnv128 {
        Fnv128 { state: FNV_OFFSET }
    }

    /// Absorbs `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u128::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// The digest of everything absorbed so far.
    pub fn finish(&self) -> u128 {
        self.state
    }
}

impl Default for Fnv128 {
    fn default() -> Self {
        Fnv128::new()
    }
}

/// The content address of one cell result: 128 bits, rendered as 32 hex
/// characters (the entry's file stem).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey(u128);

impl CacheKey {
    /// The 32-character lowercase hex spelling.
    pub fn hex(&self) -> String {
        format!("{:032x}", self.0)
    }
}

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Builds a [`CacheKey`] from tagged configuration fields.
///
/// Each field is framed as `tag 0xff value 0xfe`, so distinct field
/// sequences can never collide by concatenation (`("ab", "c")` hashes
/// differently from `("a", "bc")`). Callers feed *resolved* values —
/// after defaulting and unit conversion — so two spellings of the same
/// configuration share a key.
///
/// # Examples
///
/// ```
/// use dctcp_cache::KeyBuilder;
///
/// let mut kb = KeyBuilder::new();
/// kb.field("seed", "42").field("flows", "8");
/// let a = kb.finish();
///
/// let mut kb = KeyBuilder::new();
/// kb.field("seed", "42").field("flows", "9");
/// assert_ne!(a, kb.finish());
/// ```
#[derive(Debug, Clone)]
pub struct KeyBuilder {
    hasher: Fnv128,
}

impl KeyBuilder {
    /// A fresh builder.
    pub fn new() -> KeyBuilder {
        KeyBuilder {
            hasher: Fnv128::new(),
        }
    }

    /// Absorbs one tagged field.
    pub fn field(&mut self, tag: &str, value: &str) -> &mut KeyBuilder {
        self.hasher.update(tag.as_bytes());
        self.hasher.update(&[0xff]);
        self.hasher.update(value.as_bytes());
        self.hasher.update(&[0xfe]);
        self
    }

    /// The key for everything absorbed so far.
    pub fn finish(&self) -> CacheKey {
        CacheKey(self.hasher.finish())
    }
}

impl Default for KeyBuilder {
    fn default() -> Self {
        KeyBuilder::new()
    }
}

/// The workspace code fingerprint baked in at build time: an FNV-1a 128
/// digest of every workspace source file and manifest (see `build.rs`).
/// Feed it into every [`KeyBuilder`] so code edits move all keys.
pub fn code_fingerprint() -> &'static str {
    env!("DCTCP_CODE_FINGERPRINT")
}

/// What one cache entry holds: a cell's metrics, or the failure it
/// ended in.
#[derive(Debug, Clone, PartialEq)]
pub enum Entry {
    /// Named metric values, in the order they were stored.
    Metrics(Vec<(String, f64)>),
    /// The cell failed.
    Failed {
        /// Failure kind token (no whitespace); vocabulary owned by the
        /// caller.
        kind: String,
        /// Human-readable failure message, stored byte-exact.
        msg: String,
    },
}

/// A directory of self-checking cell-outcome entries, one file per key.
///
/// `get` never errors: corruption of any kind is a miss (the caller
/// recomputes and `put` overwrites the bad entry). `put` is atomic on
/// POSIX (write to a temp file, then rename), so a crashed or racing
/// writer can never leave a torn entry behind — at worst a stale temp
/// file, which readers ignore.
#[derive(Debug, Clone)]
pub struct Cache {
    root: PathBuf,
}

impl Cache {
    /// A cache rooted at `root`. The directory is created lazily on the
    /// first [`Cache::put`].
    pub fn new(root: impl Into<PathBuf>) -> Cache {
        Cache { root: root.into() }
    }

    /// The cache directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn entry_path(&self, key: CacheKey) -> PathBuf {
        self.root.join(format!("{}.cell", key.hex()))
    }

    /// Fetches the entry stored under `key`, or `None` on any miss —
    /// absent, truncated, bit-flipped, or written for a different key or
    /// schema version.
    pub fn get(&self, key: CacheKey) -> Option<Entry> {
        let body = std::fs::read_to_string(self.entry_path(key)).ok()?;
        parse_entry(&body, key)
    }

    /// Stores `metrics` under `key`, overwriting any existing entry.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the directory, temp file,
    /// or rename fails. Callers treat the cache as best-effort and may
    /// ignore this (the computed result is still in hand).
    pub fn put(&self, key: CacheKey, metrics: &[(String, f64)]) -> io::Result<()> {
        use std::fmt::Write as _;
        let mut lines = String::new();
        for (name, value) in metrics {
            let _ = writeln!(lines, "m {:016x} {name}", value.to_bits());
        }
        self.write(key, &lines)
    }

    /// Stores a failure under `key`, overwriting any existing entry.
    /// Whitespace in `kind` becomes `-`; `msg` may hold any text.
    ///
    /// # Errors
    ///
    /// As for [`Cache::put`].
    pub fn put_failure(&self, key: CacheKey, kind: &str, msg: &str) -> io::Result<()> {
        let kind = kind.split_whitespace().collect::<Vec<_>>().join("-");
        self.write(key, &format!("failed {kind} {}\n", escape(msg)))
    }

    /// Frames `lines` as an entry for `key` and writes it atomically.
    fn write(&self, key: CacheKey, lines: &str) -> io::Result<()> {
        std::fs::create_dir_all(&self.root)?;
        let body = render_entry(key, lines);
        let tmp = self
            .root
            .join(format!("{}.tmp.{}", key.hex(), std::process::id()));
        std::fs::write(&tmp, body)?;
        std::fs::rename(&tmp, self.entry_path(key))
    }
}

/// Renders an entry, either metrics:
///
/// ```text
/// dctcp-cache/v2 <key hex>
/// m <f64 bits, 16 hex> <metric name>
/// ...
/// sum <digest of every preceding byte>
/// ```
///
/// or one failure line, its message escaped onto that line:
///
/// ```text
/// dctcp-cache/v2 <key hex>
/// failed <kind> <escaped msg>
/// sum <digest of every preceding byte>
/// ```
///
/// Values are stored as exact IEEE-754 bit patterns, so a warm run
/// re-renders artifacts byte-identically to the cold run that populated
/// the entry — no decimal round-trip is involved.
fn render_entry(key: CacheKey, lines: &str) -> String {
    let mut out = format!("{ENTRY_SCHEMA} {}\n{lines}", key.hex());
    let mut h = Fnv128::new();
    h.update(out.as_bytes());
    out.push_str(&format!("sum {:032x}\n", h.finish()));
    out
}

fn parse_entry(body: &str, key: CacheKey) -> Option<Entry> {
    // The checksum line covers everything before it; recompute first so
    // no malformed content is ever interpreted.
    let sum_at = body.rfind("sum ")?;
    // `sum` must start a line, and nothing but one newline may follow it.
    if sum_at > 0 && body.as_bytes()[sum_at - 1] != b'\n' {
        return None;
    }
    let sum_line = body[sum_at..].strip_prefix("sum ")?.strip_suffix('\n')?;
    let recorded = u128::from_str_radix(sum_line.trim(), 16).ok()?;
    let mut h = Fnv128::new();
    h.update(&body.as_bytes()[..sum_at]);
    if h.finish() != recorded {
        return None;
    }

    let mut lines = body[..sum_at].lines();
    let header = lines.next()?;
    let (schema, key_hex) = header.split_once(' ')?;
    if schema != ENTRY_SCHEMA || key_hex != key.hex() {
        return None;
    }
    let rest: Vec<&str> = lines.collect();
    if let [line] = rest[..] {
        if let Some(failure) = line.strip_prefix("failed ") {
            let (kind, msg) = failure.split_once(' ')?;
            if kind.is_empty() {
                return None;
            }
            return Some(Entry::Failed {
                kind: kind.to_string(),
                msg: unescape(msg),
            });
        }
    }
    let mut metrics = Vec::new();
    for line in rest {
        let rest = line.strip_prefix("m ")?;
        let (bits_hex, name) = rest.split_once(' ')?;
        if name.is_empty() {
            return None;
        }
        let bits = u64::from_str_radix(bits_hex, 16).ok()?;
        metrics.push((name.to_string(), f64::from_bits(bits)));
    }
    Some(Entry::Metrics(metrics))
}

/// Keeps a failure message on one line: `\`, newline and carriage
/// return become two-character escapes.
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

    fn tmp_cache(tag: &str) -> Cache {
        let dir = std::env::temp_dir().join(format!("dctcp-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Cache::new(dir)
    }

    fn key(fields: &[(&str, &str)]) -> CacheKey {
        let mut kb = KeyBuilder::new();
        for (t, v) in fields {
            kb.field(t, v);
        }
        kb.finish()
    }

    fn sample_metrics() -> Vec<(String, f64)> {
        vec![
            ("queue_mean".into(), 21.5),
            ("neg_zero".into(), -0.0),
            ("tiny".into(), 1.0e-300),
            ("third".into(), 1.0 / 3.0),
        ]
    }

    #[test]
    fn put_get_round_trips_exact_bits() {
        let cache = tmp_cache("roundtrip");
        let k = key(&[("seed", "1")]);
        let metrics = sample_metrics();
        cache.put(k, &metrics).unwrap();
        let Some(Entry::Metrics(got)) = cache.get(k) else {
            panic!("expected a metrics hit");
        };
        assert_eq!(got.len(), metrics.len());
        for ((n0, v0), (n1, v1)) in metrics.iter().zip(&got) {
            assert_eq!(n0, n1);
            assert_eq!(v0.to_bits(), v1.to_bits(), "{n0} must round-trip exactly");
        }
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn absent_entry_is_a_miss() {
        let cache = tmp_cache("absent");
        assert_eq!(cache.get(key(&[("seed", "1")])), None);
    }

    #[test]
    fn every_field_moves_the_key() {
        let base = key(&[("code", "aaaa"), ("seed", "1"), ("duration", "50ms")]);
        assert_ne!(
            base,
            key(&[("code", "bbbb"), ("seed", "1"), ("duration", "50ms")])
        );
        assert_ne!(
            base,
            key(&[("code", "aaaa"), ("seed", "2"), ("duration", "50ms")])
        );
        assert_ne!(
            base,
            key(&[("code", "aaaa"), ("seed", "1"), ("duration", "51ms")])
        );
        // Framing: moving a byte across the tag/value boundary must not
        // collide.
        assert_ne!(key(&[("ab", "c")]), key(&[("a", "bc")]));
    }

    #[test]
    fn truncated_entry_is_a_miss() {
        let cache = tmp_cache("trunc");
        let k = key(&[("seed", "7")]);
        cache.put(k, &sample_metrics()).unwrap();
        let path = cache.root().join(format!("{}.cell", k.hex()));
        let body = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &body[..body.len() / 2]).unwrap();
        assert_eq!(cache.get(k), None);
        // A recompute + put repairs the entry in place.
        cache.put(k, &sample_metrics()).unwrap();
        assert!(cache.get(k).is_some());
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn bit_flip_is_a_miss() {
        let cache = tmp_cache("flip");
        let k = key(&[("seed", "9")]);
        cache.put(k, &sample_metrics()).unwrap();
        let path = cache.root().join(format!("{}.cell", k.hex()));
        let mut body = std::fs::read(&path).unwrap();
        let mid = body.len() / 2;
        body[mid] ^= 0x01;
        std::fs::write(&path, body).unwrap();
        assert_eq!(cache.get(k), None);
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn entry_for_another_key_is_a_miss() {
        // Simulates a mis-filed entry (e.g. a manual rename): the body's
        // self-declared key must match the requested one.
        let cache = tmp_cache("misfiled");
        let k1 = key(&[("seed", "1")]);
        let k2 = key(&[("seed", "2")]);
        cache.put(k1, &sample_metrics()).unwrap();
        std::fs::rename(
            cache.root().join(format!("{}.cell", k1.hex())),
            cache.root().join(format!("{}.cell", k2.hex())),
        )
        .unwrap();
        assert_eq!(cache.get(k2), None);
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn schema_bump_invalidates() {
        let cache = tmp_cache("schema");
        let k = key(&[("seed", "3")]);
        cache.put(k, &sample_metrics()).unwrap();
        let path = cache.root().join(format!("{}.cell", k.hex()));
        let body = std::fs::read_to_string(&path)
            .unwrap()
            .replace(ENTRY_SCHEMA, "dctcp-cache/v1");
        // Keep the checksum honest so only the schema tag differs: an
        // entry from an older binary reads as a miss.
        let sum_at = body.rfind("sum ").unwrap();
        let mut h = Fnv128::new();
        h.update(&body.as_bytes()[..sum_at]);
        let body = format!("{}sum {:032x}\n", &body[..sum_at], h.finish());
        std::fs::write(&path, body).unwrap();
        assert_eq!(cache.get(k), None);
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn empty_metric_list_round_trips() {
        let cache = tmp_cache("empty");
        let k = key(&[("seed", "4")]);
        cache.put(k, &[]).unwrap();
        assert_eq!(cache.get(k), Some(Entry::Metrics(Vec::new())));
        let _ = std::fs::remove_dir_all(cache.root());
    }

    fn failed(kind: &str, msg: &str) -> Entry {
        Entry::Failed {
            kind: kind.into(),
            msg: msg.into(),
        }
    }

    #[test]
    fn failure_message_round_trips_byte_exact() {
        let cache = tmp_cache("failure");
        let k = key(&[("seed", "6")]);
        let msg = "panicked: line one\nline \"two\" \\ with  spaces\r\n\\n end ";
        cache.put_failure(k, "panicked", msg).unwrap();
        assert_eq!(cache.get(k), Some(failed("panicked", msg)));
        // Whitespace in a kind token cannot break the line grammar.
        cache.put_failure(k, "weird kind", "").unwrap();
        assert_eq!(cache.get(k), Some(failed("weird-kind", "")));
        // A metrics put replaces a failure under the same key.
        cache.put(k, &sample_metrics()).unwrap();
        assert_eq!(cache.get(k), Some(Entry::Metrics(sample_metrics())));
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn torn_or_flipped_failure_entry_is_a_miss() {
        let cache = tmp_cache("failure-damage");
        let k = key(&[("seed", "8")]);
        let path = cache.root().join(format!("{}.cell", k.hex()));
        cache
            .put_failure(k, "failed", "event budget exhausted")
            .unwrap();
        let body = std::fs::read(&path).unwrap();
        // A write torn anywhere — inside the failure line or its sum.
        for cut in [body.len() / 3, body.len() - 9] {
            std::fs::write(&path, &body[..cut]).unwrap();
            assert_eq!(cache.get(k), None, "torn at {cut}");
        }
        let mut flipped = body.clone();
        let at = flipped.iter().position(|&b| b == b'x').unwrap();
        flipped[at] ^= 0x02;
        std::fs::write(&path, flipped).unwrap();
        assert_eq!(cache.get(k), None);
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn fingerprint_is_32_hex_chars() {
        let fp = code_fingerprint();
        assert_eq!(fp.len(), 32);
        assert!(fp.chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn put_overwrites_atomically() {
        let cache = tmp_cache("overwrite");
        let k = key(&[("seed", "5")]);
        cache.put(k, &[("a".into(), 1.0)]).unwrap();
        cache.put(k, &[("a".into(), 2.0)]).unwrap();
        assert_eq!(cache.get(k), Some(Entry::Metrics(vec![("a".into(), 2.0)])));
        // No temp droppings left behind.
        let stray: Vec<_> = std::fs::read_dir(cache.root())
            .unwrap()
            .flatten()
            .filter(|e| e.path().extension().is_none_or(|x| x != "cell"))
            .collect();
        assert!(stray.is_empty(), "{stray:?}");
        let _ = std::fs::remove_dir_all(cache.root());
    }
}
