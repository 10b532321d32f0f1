//! Content-addressed result cache for the analysis service.
//!
//! Every analysis in this reproduction is a pure function of its inputs:
//! the interpreter runs on a seeded virtual clock, so
//! `(source, mode, seed, focus, budgets)` fully determines the report and
//! the deterministic half of the metrics. That purity is what `jsceresd`
//! exploits — a request whose [`CacheKey`] was seen before returns the
//! stored payload **byte-identically** without re-parsing, re-rewriting,
//! or re-entering the interpreter.
//!
//! Keys are content-addressed: the source text enters the key as its
//! SHA-256 digest (std-only implementation below, pinned by FIPS 180-4
//! test vectors), so two requests for the same page share an entry,
//! while a single changed byte of JavaScript misses. A text is hashed
//! once, where it is made ([`Digested`]): the daemon's registry resolver
//! digests each app's page once per app and scale, so a warm hit hashes
//! only its key. A source sent inline has its own namespace
//! ([`CacheKey::inline`]): a registry app's run adds its interaction
//! script and its name, so an inline copy of its page is a different
//! analysis. The remaining dimensions
//! (`mode × seed × focus × max_events × max_ticks × scale`) mirror
//! [`crate::pipeline::AnalyzeOptions`] one field at a time; anything that
//! can change the analysis result must appear here. Wall-clock budgets are
//! deliberately *excluded*: they only decide whether a run is cancelled,
//! never what a completed run computes.
//!
//! The cache itself is [`ShardedCache`]: bounded insert-order shards whose
//! only write path is `insert_or_get`, so concurrent clients racing on the
//! same key converge on the first stored payload (last-write-wins would
//! break the byte-identity guarantee).

#![deny(missing_docs)]

use crate::pipeline::AnalyzeOptions;
use serde::Serialize;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::Arc;

// ---------------------------------------------------------------------
// SHA-256 (std-only, FIPS 180-4)
// ---------------------------------------------------------------------

const SHA256_K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

fn sha256_compress(state: &mut [u32; 8], block: &[u8]) {
    debug_assert_eq!(block.len(), 64);
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(SHA256_K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// SHA-256 digest of `data`, as 32 raw bytes.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut state: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    let mut chunks = data.chunks_exact(64);
    for block in &mut chunks {
        sha256_compress(&mut state, block);
    }
    // Padding: 0x80, zeros, then the bit length as a big-endian u64.
    let rem = chunks.remainder();
    let mut tail = [0u8; 128];
    tail[..rem.len()].copy_from_slice(rem);
    tail[rem.len()] = 0x80;
    let tail_len = if rem.len() < 56 { 64 } else { 128 };
    let bit_len = (data.len() as u64).wrapping_mul(8);
    tail[tail_len - 8..tail_len].copy_from_slice(&bit_len.to_be_bytes());
    for block in tail[..tail_len].chunks_exact(64) {
        sha256_compress(&mut state, block);
    }
    let mut out = [0u8; 32];
    for (i, s) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&s.to_be_bytes());
    }
    out
}

/// SHA-256 digest of `data`, lowercase hex.
pub fn sha256_hex(data: &[u8]) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(64);
    for b in sha256(data) {
        s.push(char::from(HEX[usize::from(b >> 4)]));
        s.push(char::from(HEX[usize::from(b & 0xf)]));
    }
    s
}

/// A source text and its SHA-256, the content half of its [`CacheKey`]:
/// the text is hashed once, where it is made, and every job built from
/// one `Digested` shares the one digest.
#[derive(Debug, Clone)]
pub struct Digested {
    /// The source text.
    pub text: String,
    /// `sha256_hex(text)`.
    pub sha256: Arc<str>,
}

impl Digested {
    /// Hash `text`.
    pub fn new(text: String) -> Digested {
        let sha256 = sha256_hex(text.as_bytes()).into();
        Digested { text, sha256 }
    }
}

// ---------------------------------------------------------------------
// Cache keys
// ---------------------------------------------------------------------

/// The full identity of one analysis: content digest × every
/// result-affecting option. Two requests with equal keys are guaranteed
/// (by the seeded-determinism of the pipeline) to produce identical
/// reports, so their results may be shared.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// SHA-256 of the canonical source text, lowercase hex.
    pub source_sha256: String,
    /// Instrumentation mode (`Debug` rendering of [`crate::Mode`]).
    pub mode: String,
    /// Interpreter seed.
    pub seed: u64,
    /// Dependence focus loop id, if any.
    pub focus: Option<u32>,
    /// Event-processing cap.
    pub max_events: usize,
    /// Deterministic watchdog tick budget, if any. Part of the key because
    /// a tripped budget changes the outcome (cancelled vs complete).
    pub max_ticks: Option<u64>,
    /// Workload scale factor (1 for raw-source requests; the scale is
    /// already baked into the canonical source of registry requests, but
    /// keeping it in the key costs nothing and guards refactors).
    pub scale: u32,
    /// Whether the source was sent inline rather than named from the
    /// registry. Inline keys render a leading `inline` tag, so an inline
    /// copy of a registry page never answers for the app, whose run adds
    /// its interaction script and its name. Registry keys render no tag.
    pub inline: bool,
}

impl CacheKey {
    /// Build the key for analyzing `source` under `opts` at `scale`, in
    /// the registry namespace.
    pub fn of(source: &str, opts: &AnalyzeOptions, scale: u32) -> CacheKey {
        CacheKey::with_digest(&sha256_hex(source.as_bytes()), opts, scale)
    }

    /// [`CacheKey::of`] for a source already hashed to `source_sha256`.
    pub fn with_digest(source_sha256: &str, opts: &AnalyzeOptions, scale: u32) -> CacheKey {
        CacheKey {
            source_sha256: source_sha256.to_string(),
            mode: format!("{:?}", opts.mode),
            seed: opts.seed,
            focus: opts.focus.map(|l| l.0),
            max_events: opts.max_events,
            max_ticks: opts.max_ticks,
            scale,
            inline: false,
        }
    }

    /// Canonical one-line rendering of the key (used for logging and as
    /// the content address handed back to clients). Fields are
    /// `\x1f`-joined so no JavaScript source or flag value can forge a
    /// collision between distinct tuples.
    pub fn canonical(&self) -> String {
        format!(
            "{}src:{}\x1fmode:{}\x1fseed:{}\x1ffocus:{}\x1fevents:{}\x1fticks:{}\x1fscale:{}",
            if self.inline { "inline\x1f" } else { "" },
            self.source_sha256,
            self.mode,
            self.seed,
            self.focus.map(|f| f.to_string()).unwrap_or_default(),
            self.max_events,
            self.max_ticks.map(|t| t.to_string()).unwrap_or_default(),
            self.scale,
        )
    }

    /// The content address: SHA-256 of the canonical rendering, hex.
    pub fn fingerprint(&self) -> String {
        sha256_hex(self.canonical().as_bytes())
    }
}

// ---------------------------------------------------------------------
// The sharded, persistent cache
// ---------------------------------------------------------------------

/// One shard's traffic and occupancy: an entry of
/// [`ShardedCacheStats::per_shard`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct CacheStats {
    /// Lookups that returned a stored payload.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
    /// Entries currently stored.
    pub len: usize,
}

/// Stats for a [`ShardedCache`]: the totals over its shards, the
/// persistence counters and each shard's traffic. Serialized as it is,
/// this is the `cache` block of the daemon's `stats` op (schema in
/// `docs/METRICS.md`), and its totals are the `cache_*` counters of
/// [`crate::obs::ServeCounters`].
#[derive(Debug, Clone, Default, Serialize)]
pub struct ShardedCacheStats {
    /// Lookups that returned a stored payload, over all shards.
    pub hits: u64,
    /// Lookups that found nothing, over all shards.
    pub misses: u64,
    /// Entries evicted to respect the capacity bound, over all shards.
    pub evictions: u64,
    /// Entries currently stored, over all shards.
    pub len: usize,
    /// Maximum entries stored at once: the sum of the shards' bounds.
    pub capacity: usize,
    /// Number of shards.
    pub shards: usize,
    /// True when a cache directory is configured (write-through on).
    pub persistent: bool,
    /// Entries replayed from shard files at open time.
    pub loaded: u64,
    /// Entries whose checksum or framing failed during load (truncated
    /// write-through tail, or on-disk corruption) — skipped, not served.
    pub load_corrupt: u64,
    /// Entries written through to shard files over this process lifetime.
    pub persisted: u64,
    /// Per-shard traffic, indexed by shard id.
    pub per_shard: Vec<CacheStats>,
}

/// One shard, guarded by its own lock: a bounded, insert-ordered map
/// fingerprint → stored payload, its traffic counters, and its
/// write-through file handle (when persistence is on). Eviction is FIFO
/// on insert order (the serving layer's access pattern is dominated by
/// repeat-whole-requests, where FIFO and LRU behave identically and FIFO
/// needs no touch bookkeeping on the hot hit path).
#[derive(Debug)]
struct Shard {
    entries: HashMap<String, String>,
    order: VecDeque<String>,
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    file: Option<std::fs::File>,
    persisted: u64,
}

impl Shard {
    /// Store a fingerprint that is not present yet, evicting the oldest
    /// entry at capacity. Both write paths — fresh inserts and shard-file
    /// replay — go through here, so replaying an append-only log
    /// reproduces the writer's final FIFO window.
    fn insert(&mut self, fingerprint: String, payload: String) {
        if self.entries.len() >= self.capacity {
            if let Some(oldest) = self.order.pop_front() {
                self.entries.remove(&oldest);
                self.evictions += 1;
            }
        }
        self.order.push_back(fingerprint.clone());
        self.entries.insert(fingerprint, payload);
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            len: self.entries.len(),
        }
    }
}

/// A hash-sharded result cache: keys are routed to one of N shards by the
/// leading bits of their fingerprint, each shard has its own lock and its
/// own FIFO eviction window, and — when a cache directory is configured —
/// its own append-only write-through file. A single shard is the
/// unsharded case.
///
/// `insert_or_get` is the only write path, so concurrent clients racing
/// on the same key converge on the first stored payload (last-write-wins
/// would break the byte-identity guarantee).
///
/// Persistence is what makes warm starts real: on open, every shard file
/// is replayed through the same bounded insert path (so the reloaded
/// state is exactly what the FIFO window would have held), entries are
/// verified against their stored SHA-256, and the file is compacted to
/// the live set. Content addressing makes this trivially safe: a key's
/// payload is a pure function of the key, so a reloaded entry is
/// byte-identical to what a fresh run would produce — the property the
/// serve-layer goldens pin.
#[derive(Debug)]
pub struct ShardedCache {
    shards: Vec<std::sync::Mutex<Shard>>,
    dir: Option<std::path::PathBuf>,
    loaded: u64,
    load_corrupt: u64,
}

fn relock_shard(m: &std::sync::Mutex<Shard>) -> std::sync::MutexGuard<'_, Shard> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl ShardedCache {
    /// Build a cache of `capacity` total entries split over `shards`
    /// shards (each shard gets `ceil(capacity / shards)`). With a `dir`,
    /// shard files `shard-NN.log` are loaded (and compacted) now and
    /// written through on every insert.
    pub fn open(
        capacity: usize,
        shards: usize,
        dir: Option<&std::path::Path>,
    ) -> std::io::Result<ShardedCache> {
        let n = shards.max(1);
        let per_shard = capacity.max(1).div_ceil(n);
        if let Some(d) = dir {
            std::fs::create_dir_all(d)?;
        }
        let mut out = Vec::with_capacity(n);
        let mut loaded = 0u64;
        let mut load_corrupt = 0u64;
        for id in 0..n {
            let mut shard = Shard {
                entries: HashMap::new(),
                order: VecDeque::new(),
                capacity: per_shard,
                hits: 0,
                misses: 0,
                evictions: 0,
                file: None,
                persisted: 0,
            };
            if let Some(d) = dir {
                let path = d.join(format!("shard-{id:02}.log"));
                let (l, c) = load_shard_file(&path, &mut shard);
                loaded += l;
                load_corrupt += c;
                compact_shard_file(&path, &shard)?;
                shard.file = Some(
                    std::fs::OpenOptions::new()
                        .create(true)
                        .append(true)
                        .open(&path)?,
                );
            }
            // Loading must not count as traffic: evictions describe this
            // process's clients, not the replay.
            shard.evictions = 0;
            out.push(std::sync::Mutex::new(shard));
        }
        Ok(ShardedCache {
            shards: out,
            dir: dir.map(|d| d.to_path_buf()),
            loaded,
            load_corrupt,
        })
    }

    /// Which shard a fingerprint routes to (leading 8 hex chars, mod N).
    pub fn shard_of(&self, fingerprint: &str) -> usize {
        let head = u64::from_str_radix(fingerprint.get(..8).unwrap_or("0"), 16).unwrap_or(0);
        (head as usize) % self.shards.len()
    }

    /// Look up a key, counting the hit or miss and locking only its shard.
    pub fn lookup(&self, key: &CacheKey) -> Option<String> {
        let fp = key.fingerprint();
        let mut shard = relock_shard(&self.shards[self.shard_of(&fp)]);
        let hit = shard.entries.get(&fp).cloned();
        match hit {
            Some(_) => shard.hits += 1,
            None => shard.misses += 1,
        }
        hit
    }

    /// Store `payload` under `key` unless present (first-writer-wins),
    /// returning the canonical stored payload. Fresh inserts are written
    /// through to the shard file before this returns.
    pub fn insert_or_get(&self, key: &CacheKey, payload: String) -> String {
        let fp = key.fingerprint();
        let mut guard = relock_shard(&self.shards[self.shard_of(&fp)]);
        let shard = &mut *guard;
        if let Some(existing) = shard.entries.get(&fp) {
            return existing.clone();
        }
        if let Some(file) = shard.file.as_mut() {
            use std::io::Write;
            let line = format!("{fp}\t{}\t{payload}\n", sha256_hex(payload.as_bytes()));
            if file
                .write_all(line.as_bytes())
                .and_then(|_| file.flush())
                .is_ok()
            {
                shard.persisted += 1;
            }
        }
        shard.insert(fp, payload.clone());
        payload
    }

    /// Totals + per-shard stats snapshot.
    pub fn stats(&self) -> ShardedCacheStats {
        let mut stats = ShardedCacheStats {
            shards: self.shards.len(),
            persistent: self.dir.is_some(),
            loaded: self.loaded,
            load_corrupt: self.load_corrupt,
            ..ShardedCacheStats::default()
        };
        for shard in &self.shards {
            let s = relock_shard(shard);
            let st = s.stats();
            stats.hits += st.hits;
            stats.misses += st.misses;
            stats.evictions += st.evictions;
            stats.len += st.len;
            stats.capacity += s.capacity;
            stats.persisted += s.persisted;
            stats.per_shard.push(st);
        }
        stats
    }
}

/// Replay one shard file into `shard`, verifying each entry's checksum.
/// Returns `(loaded, corrupt)`. The file is read as bytes, and damage is
/// treated as a suffix: parsing stops at the first record that is not
/// whole, valid UTF-8 with a matching checksum (write-through appends are
/// sequential and each is flushed whole, so a torn write can only be the
/// tail), and every record before it still loads.
fn load_shard_file(path: &std::path::Path, shard: &mut Shard) -> (u64, u64) {
    let Ok(bytes) = std::fs::read(path) else {
        return (0, 0);
    };
    let mut loaded = 0u64;
    for record in bytes.split_inclusive(|&b| b == b'\n') {
        let Some((fp, payload)) = parse_shard_record(record) else {
            return (loaded, 1);
        };
        if !shard.entries.contains_key(fp) {
            shard.insert(fp.to_string(), payload.to_string());
        }
        loaded += 1;
    }
    (loaded, 0)
}

/// Parse one `"<fingerprint>\t<sha256hex>\t<payload>\n"` record, or `None`
/// if it lacks its newline, is not UTF-8, or fails its checksum.
fn parse_shard_record(record: &[u8]) -> Option<(&str, &str)> {
    let line = std::str::from_utf8(record.strip_suffix(b"\n")?).ok()?;
    let (fp, rest) = line.split_once('\t')?;
    let (digest, payload) = rest.split_once('\t')?;
    (digest == sha256_hex(payload.as_bytes())).then_some((fp, payload))
}

/// Rewrite a shard file to exactly the live entries in insertion order
/// (drops evicted and corrupt records accumulated in the append-only
/// log).
fn compact_shard_file(path: &std::path::Path, shard: &Shard) -> std::io::Result<()> {
    use std::io::Write;
    let tmp = path.with_extension("log.tmp");
    let mut f = std::fs::File::create(&tmp)?;
    for fp in &shard.order {
        let payload = &shard.entries[fp];
        writeln!(f, "{fp}\t{}\t{payload}", sha256_hex(payload.as_bytes()))?;
    }
    f.flush()?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mode;

    #[test]
    fn sha256_matches_fips_vectors() {
        // FIPS 180-4 / RFC 6234 test vectors.
        assert_eq!(
            sha256_hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            sha256_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            sha256_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        // Padding boundary cases: 55/56/64-byte messages exercise the
        // one-block vs two-block tail.
        for n in [55usize, 56, 63, 64, 65, 119, 120] {
            let m = vec![b'a'; n];
            // Compare against a second independent computation path: chunk
            // reuse means a wrong tail would double-count.
            assert_eq!(sha256(&m), sha256(&m.clone()), "len {n}");
        }
        assert_eq!(
            sha256_hex(&[b'a'; 1_000_000]),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    fn key(source: &str, mode: Mode, seed: u64, focus: Option<u32>) -> CacheKey {
        let opts = AnalyzeOptions {
            mode,
            seed,
            focus: focus.map(ceres_ast::LoopId),
            ..AnalyzeOptions::default()
        };
        CacheKey::of(source, &opts, 1)
    }

    #[test]
    fn distinct_tuples_have_distinct_fingerprints() {
        let base = key("var x = 1;", Mode::Dependence, 2015, None);
        let variants = [
            key("var x = 2;", Mode::Dependence, 2015, None),
            key("var x = 1;", Mode::LoopProfile, 2015, None),
            key("var x = 1;", Mode::Dependence, 2016, None),
            key("var x = 1;", Mode::Dependence, 2015, Some(1)),
        ];
        let mut fps = std::collections::HashSet::new();
        fps.insert(base.fingerprint());
        for v in &variants {
            assert!(
                fps.insert(v.fingerprint()),
                "collision between distinct tuples: {v:?}"
            );
        }
        // Equal inputs produce equal keys and fingerprints.
        assert_eq!(
            base.fingerprint(),
            key("var x = 1;", Mode::Dependence, 2015, None).fingerprint()
        );
    }

    #[test]
    fn field_boundaries_cannot_be_forged() {
        // A seed ending in "1" with focus "2" must differ from seed "12"
        // with no focus, and similar shift attacks across the separator.
        let a = key("src", Mode::Dependence, 1, Some(2));
        let b = key("src", Mode::Dependence, 12, None);
        assert_ne!(a.fingerprint(), b.fingerprint());
        let c = CacheKey {
            max_events: 100,
            max_ticks: None,
            ..key("src", Mode::Dependence, 1, None)
        };
        let d = CacheKey {
            max_events: 10,
            max_ticks: Some(0),
            ..key("src", Mode::Dependence, 1, None)
        };
        assert_ne!(c.fingerprint(), d.fingerprint());
    }

    #[test]
    fn cache_hit_returns_stored_payload_and_counts() {
        let cache = ShardedCache::open(8, 1, None).unwrap();
        let k = key("var a = 0;", Mode::Dependence, 2015, None);
        assert_eq!(cache.lookup(&k), None);
        let stored = cache.insert_or_get(&k, "payload-one".to_string());
        assert_eq!(stored, "payload-one");
        assert_eq!(cache.lookup(&k).as_deref(), Some("payload-one"));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.len), (1, 1, 1));
    }

    #[test]
    fn first_writer_wins_on_racing_inserts() {
        let cache = ShardedCache::open(8, 1, None).unwrap();
        let k = key("var a = 0;", Mode::Dependence, 2015, None);
        assert_eq!(cache.insert_or_get(&k, "first".to_string()), "first");
        // A racing second writer (e.g. a concurrent client that also ran
        // cold) must converge on the stored bytes.
        assert_eq!(cache.insert_or_get(&k, "second".to_string()), "first");
        assert_eq!(cache.lookup(&k).as_deref(), Some("first"));
    }

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ceres-cache-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn sharded_cache_routes_by_fingerprint_and_spreads() {
        let cache = ShardedCache::open(256, 8, None).unwrap();
        let mut used = std::collections::HashSet::new();
        for i in 0..64 {
            let k = key(&format!("var x = {i};"), Mode::Dependence, 2015, None);
            let shard = cache.shard_of(&k.fingerprint());
            assert!(shard < 8);
            used.insert(shard);
            cache.insert_or_get(&k, format!("payload-{i}"));
        }
        assert!(
            used.len() > 4,
            "64 distinct keys should spread over most of 8 shards, got {used:?}"
        );
        let stats = cache.stats();
        assert_eq!(stats.len, 64);
        assert_eq!(
            stats.per_shard.iter().map(|s| s.len).sum::<usize>(),
            stats.len,
            "per-shard occupancy must sum to the aggregate"
        );
        // Routing is stable: the same key always lands on the same shard.
        let k = key("var x = 0;", Mode::Dependence, 2015, None);
        assert_eq!(
            cache.shard_of(&k.fingerprint()),
            cache.shard_of(&k.fingerprint())
        );
    }

    #[test]
    fn sharded_cache_persists_and_reloads_byte_identically() {
        let dir = tmpdir("persist");
        let keys: Vec<CacheKey> = (0..12)
            .map(|i| key(&format!("var p = {i};"), Mode::Dependence, 2015, None))
            .collect();
        {
            let cache = ShardedCache::open(64, 4, Some(&dir)).unwrap();
            for (i, k) in keys.iter().enumerate() {
                cache.insert_or_get(k, format!("{{\"payload\":\"entry-{i}\"}}"));
            }
            assert_eq!(cache.stats().persisted, 12);
        }
        let cache = ShardedCache::open(64, 4, Some(&dir)).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.loaded, 12, "{stats:?}");
        assert_eq!(stats.load_corrupt, 0);
        assert!(stats.persistent);
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(
                cache.lookup(k).as_deref(),
                Some(format!("{{\"payload\":\"entry-{i}\"}}").as_str()),
                "reloaded payload must be byte-identical"
            );
        }
        // The replay itself must not count as client traffic.
        assert_eq!(cache.stats().hits, 12, "only our lookups count");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sharded_reload_replays_the_fifo_window() {
        // More inserts than capacity: the reloaded state must equal the
        // writer's final FIFO window, not the full historical log.
        let dir = tmpdir("fifo-window");
        let keys: Vec<CacheKey> = (0..10)
            .map(|i| key(&format!("var w = {i};"), Mode::Dependence, 2015, None))
            .collect();
        {
            let cache = ShardedCache::open(4, 1, Some(&dir)).unwrap();
            for (i, k) in keys.iter().enumerate() {
                cache.insert_or_get(k, format!("w-{i}"));
            }
            assert_eq!(cache.stats().len, 4);
        }
        let cache = ShardedCache::open(4, 1, Some(&dir)).unwrap();
        assert_eq!(cache.stats().len, 4);
        for (i, k) in keys.iter().enumerate() {
            let want = if i >= 6 { Some(format!("w-{i}")) } else { None };
            assert_eq!(cache.lookup(k), want, "entry {i}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_shard_line_is_skipped_not_served() {
        let dir = tmpdir("corrupt");
        let k1 = key("var c = 1;", Mode::Dependence, 2015, None);
        let k2 = key("var c = 2;", Mode::Dependence, 2015, None);
        {
            let cache = ShardedCache::open(16, 1, Some(&dir)).unwrap();
            cache.insert_or_get(&k1, "good".into());
            cache.insert_or_get(&k2, "tampered".into());
        }
        let path = dir.join("shard-00.log");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("tampered", "EVILJUNK")).unwrap();
        let cache = ShardedCache::open(16, 1, Some(&dir)).unwrap();
        assert_eq!(cache.stats().load_corrupt, 1);
        assert_eq!(cache.lookup(&k1).as_deref(), Some("good"));
        assert_eq!(cache.lookup(&k2), None, "corrupt entry must re-run");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn capacity_bound_evicts_oldest() {
        let cache = ShardedCache::open(2, 1, None).unwrap();
        let k1 = key("one", Mode::Dependence, 1, None);
        let k2 = key("two", Mode::Dependence, 1, None);
        let k3 = key("three", Mode::Dependence, 1, None);
        cache.insert_or_get(&k1, "1".into());
        cache.insert_or_get(&k2, "2".into());
        cache.insert_or_get(&k3, "3".into());
        assert_eq!(cache.lookup(&k1), None, "oldest entry evicted");
        assert_eq!(cache.lookup(&k2).as_deref(), Some("2"));
        assert_eq!(cache.lookup(&k3).as_deref(), Some("3"));
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().len, 2);
    }

    /// Open a one-shard cache over `bytes` as its shard log, and check the
    /// load: it never fails, damage counts at most once, every record
    /// before `intact` is served, and nothing is served but the payload
    /// written under its key.
    fn reload_damaged_shard(
        dir: &std::path::Path,
        bytes: &[u8],
        written: &[(CacheKey, String)],
        intact: usize,
        what: &str,
    ) -> ShardedCacheStats {
        std::fs::write(dir.join("shard-00.log"), bytes).unwrap();
        let cache = ShardedCache::open(16, 1, Some(dir))
            .unwrap_or_else(|e| panic!("{what}: open failed: {e}"));
        let stats = cache.stats();
        assert!(stats.load_corrupt <= 1, "{what}: {stats:?}");
        for (i, (k, payload)) in written.iter().enumerate() {
            match cache.lookup(k) {
                Some(got) => assert_eq!(&got, payload, "{what}: wrong payload for entry {i}"),
                None => assert!(i >= intact, "{what}: intact entry {i} was dropped"),
            }
        }
        stats
    }

    #[test]
    fn shard_log_survives_every_cut_and_bit_flip() {
        let dir = tmpdir("fuzz");
        let written: Vec<(CacheKey, String)> = (0..3)
            .map(|i| {
                (
                    key(&format!("var f = {i};"), Mode::Dependence, 2015, None),
                    format!("p{i}"),
                )
            })
            .collect();
        {
            let cache = ShardedCache::open(16, 1, Some(&dir)).unwrap();
            for (k, payload) in &written {
                cache.insert_or_get(k, payload.clone());
            }
        }
        let log = std::fs::read(dir.join("shard-00.log")).unwrap();
        // Byte offset at which each record ends.
        let ends: Vec<usize> = log
            .iter()
            .enumerate()
            .filter(|(_, &b)| b == b'\n')
            .map(|(i, _)| i + 1)
            .collect();
        assert_eq!(ends.len(), written.len());
        let whole_before = |at: usize| ends.iter().filter(|&&end| end <= at).count();
        for cut in 0..=log.len() {
            let what = format!("cut at {cut}");
            let stats = reload_damaged_shard(&dir, &log[..cut], &written, whole_before(cut), &what);
            assert_eq!(stats.loaded as usize, whole_before(cut), "{what}");
            assert_eq!(
                stats.load_corrupt,
                u64::from(!ends.contains(&cut) && cut > 0),
                "{what}"
            );
        }
        for bit in 0..log.len() * 8 {
            let mut bytes = log.clone();
            bytes[bit / 8] ^= 1 << (bit % 8);
            reload_damaged_shard(
                &dir,
                &bytes,
                &written,
                whole_before(bit / 8),
                &format!("bit {bit} flipped"),
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
