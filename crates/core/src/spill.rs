//! Disk-backed spill queue for the serving layer.
//!
//! This module is the other half of `jsceresd`'s admission story: when
//! its bounded in-memory ring is full, job payloads overflow to a
//! crash-safe, append-only **segment file** and are drained strictly
//! FIFO behind the in-memory head — the GNU-parallel `disk_buffer`
//! pattern — instead of being rejected. Memory stays bounded (the
//! in-process index holds only `(seq, offset, len)` triples, ~24 bytes
//! per spilled job), while admission becomes effectively unbounded: the
//! backlog is limited by disk, not RAM.
//!
//! Crash safety is *at-least-once*: every record carries its own SHA-256
//! checksum, the consumed watermark lives in a tiny checksummed sidecar
//! file updated after each pop, and a torn tail (the daemon died
//! mid-append) is detected and ignored rather than poisoning the queue.
//! Replaying an already-consumed record is harmless by construction —
//! analysis is deterministic and the result cache is first-writer-wins,
//! so a duplicate run converges on the already-stored bytes.
//!
//! Layout under the spill directory:
//!
//! ```text
//! spill.log       append-only records: "<seq:016x> <checksum> <payload>\n",
//!                 checksum = sha256 of "<seq:016x> <payload>"
//! spill.consumed  "<seq:016x> <checksum>\n" for the last consumed record,
//!                 checksum = sha256 of "<seq:016x> " (an empty payload)
//! ```
//!
//! A watermark that does not verify (cut short, a flipped bit, or the
//! bare decimal seq older daemons wrote) reads as 0, so every record on
//! disk replays rather than one that never ran being skipped.
//!
//! Payloads are single-line JSON (the serialized analysis request); a
//! payload containing a newline is rejected at push time. When the queue
//! drains empty the segment file is truncated so disk usage tracks the
//! *current* backlog, not the historical total.

#![deny(missing_docs)]

use crate::cache::sha256_hex;
use serde::Serialize;
use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Index entry for one on-disk record: where it lives and how big it is.
#[derive(Debug, Clone, Copy)]
struct Slot {
    seq: u64,
    offset: u64,
    len: u64,
}

/// Counters describing one spill queue's lifetime (surfaced through the
/// daemon's `stats` op and `docs/METRICS.md`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct SpillStats {
    /// Records currently waiting on disk.
    pub depth: usize,
    /// Records appended over this process's lifetime.
    pub pushed: u64,
    /// Records found on disk at open time and requeued (crash/drain
    /// recovery).
    pub replayed: u64,
    /// Records skipped because their checksum or framing failed
    /// (truncated tail after a crash, or on-disk corruption).
    pub corrupt: u64,
    /// Peak depth observed.
    pub peak_depth: u64,
}

/// A crash-safe on-disk FIFO of single-line string payloads.
#[derive(Debug)]
pub struct SpillQueue {
    log_path: PathBuf,
    consumed_path: PathBuf,
    writer: File,
    reader: File,
    index: VecDeque<Slot>,
    next_seq: u64,
    /// End-of-valid-data offset in `spill.log` (where the next append
    /// goes). Tracked explicitly so a torn tail is overwritten, not
    /// extended.
    write_offset: u64,
    stats: SpillStats,
    /// Ephemeral queues (no operator-chosen directory) delete their files
    /// on drop instead of persisting the backlog.
    ephemeral: bool,
}

impl SpillQueue {
    /// Open (or create) the spill queue in `dir`. Existing unconsumed
    /// records are re-indexed for FIFO replay; a corrupt or torn tail is
    /// counted and discarded. `ephemeral` queues remove their files on
    /// drop.
    pub fn open(dir: &Path, ephemeral: bool) -> std::io::Result<SpillQueue> {
        std::fs::create_dir_all(dir)?;
        let log_path = dir.join("spill.log");
        let consumed_path = dir.join("spill.consumed");
        let consumed = std::fs::read(&consumed_path).map_or(0, |b| parse_watermark(&b));

        let mut index = VecDeque::new();
        let mut stats = SpillStats::default();
        let mut next_seq = consumed.saturating_add(1);
        let mut write_offset = 0u64;
        if log_path.exists() {
            // Read bytes, not text: one flipped high bit must cost the
            // record it lands in, not the whole backlog.
            let mut reader = BufReader::new(File::open(&log_path)?);
            let mut record = Vec::new();
            loop {
                record.clear();
                if reader.read_until(b'\n', &mut record)? == 0 {
                    break;
                }
                let Some((seq, _)) = parse_record(&record) else {
                    // Torn or corrupt record: everything from here on
                    // is untrustworthy (appends are sequential, so
                    // damage is a suffix). Count it and stop; the next
                    // append overwrites from `write_offset`.
                    stats.corrupt += 1;
                    break;
                };
                let len = record.len() as u64;
                if seq > consumed {
                    index.push_back(Slot {
                        seq,
                        offset: write_offset,
                        len,
                    });
                    stats.replayed += 1;
                }
                next_seq = next_seq.max(seq.saturating_add(1));
                write_offset += len;
            }
        }
        stats.depth = index.len();
        stats.peak_depth = index.len() as u64;

        // Not truncated: the writer seeks to the end of valid data.
        let mut writer = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(false)
            .open(&log_path)?;
        writer.seek(SeekFrom::Start(write_offset))?;
        let reader = File::open(&log_path)?;
        Ok(SpillQueue {
            log_path,
            consumed_path,
            writer,
            reader,
            index,
            next_seq,
            write_offset,
            stats,
            ephemeral,
        })
    }

    /// Append one payload, returning its sequence number. The record is
    /// flushed before this returns, so an accepted job survives a crash.
    pub fn push(&mut self, payload: &str) -> std::io::Result<u64> {
        if payload.contains('\n') {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "spill payloads must be single-line",
            ));
        }
        let seq = self.next_seq;
        let record = format!("{seq:016x} {} {payload}\n", checksum(seq, payload));
        self.writer.write_all(record.as_bytes())?;
        self.writer.flush()?;
        self.index.push_back(Slot {
            seq,
            offset: self.write_offset,
            len: record.len() as u64,
        });
        self.next_seq += 1;
        self.write_offset += record.len() as u64;
        self.stats.pushed += 1;
        self.stats.depth = self.index.len();
        self.stats.peak_depth = self.stats.peak_depth.max(self.index.len() as u64);
        Ok(seq)
    }

    /// Pop the oldest record, advancing the consumed watermark. Corrupt
    /// records are counted and skipped. When the last record is consumed
    /// the segment file is truncated to reclaim disk.
    pub fn pop(&mut self) -> Option<(u64, String)> {
        while let Some(slot) = self.index.pop_front() {
            self.stats.depth = self.index.len();
            let mut buf = vec![0u8; slot.len as usize];
            let read_ok = self
                .reader
                .seek(SeekFrom::Start(slot.offset))
                .and_then(|_| self.reader.read_exact(&mut buf))
                .is_ok();
            self.mark_consumed(slot.seq);
            if !read_ok {
                self.stats.corrupt += 1;
                continue;
            }
            match parse_record(&buf) {
                Some((_, payload)) => {
                    let payload = payload.to_string();
                    if self.index.is_empty() {
                        self.truncate();
                    }
                    return Some((slot.seq, payload));
                }
                None => {
                    self.stats.corrupt += 1;
                    continue;
                }
            }
        }
        None
    }

    /// Records currently waiting on disk.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Lifetime counters snapshot.
    pub fn stats(&self) -> SpillStats {
        self.stats
    }

    /// The directory holding the segment + watermark files.
    pub fn dir(&self) -> &Path {
        self.log_path.parent().unwrap_or(Path::new("."))
    }

    fn mark_consumed(&mut self, seq: u64) {
        // Best-effort: a lost watermark only means an already-consumed
        // record replays once more, which is idempotent (deterministic
        // analysis + first-writer-wins cache).
        let _ = std::fs::write(&self.consumed_path, watermark(seq));
    }

    fn truncate(&mut self) {
        if self.writer.set_len(0).is_ok() {
            let _ = self.writer.seek(SeekFrom::Start(0));
            self.write_offset = 0;
        }
    }
}

impl Drop for SpillQueue {
    fn drop(&mut self) {
        if self.ephemeral {
            let _ = std::fs::remove_file(&self.log_path);
            let _ = std::fs::remove_file(&self.consumed_path);
            let _ = std::fs::remove_dir(self.dir());
        }
    }
}

/// A record's checksum covers its sequence number as well as its payload,
/// so a flipped seq digit cannot relabel a job (and, through the consumed
/// watermark, silently skip the jobs behind it).
fn checksum(seq: u64, payload: &str) -> String {
    sha256_hex(format!("{seq:016x} {payload}").as_bytes())
}

/// Parse one `"<seq:016x> <checksum> <payload>\n"` record, returning its
/// seq and payload, or `None` if it lacks its newline (a torn append,
/// never acknowledged: `push` returns only after the whole line is
/// flushed), is not UTF-8, or fails its checksum. Records written before
/// the checksum covered the seq carry `sha256(payload)` and still load.
fn parse_record(record: &[u8]) -> Option<(u64, &str)> {
    let line = std::str::from_utf8(record.strip_suffix(b"\n")?).ok()?;
    let (seq_hex, rest) = line.split_once(' ')?;
    let (digest, payload) = rest.split_once(' ')?;
    let seq = u64::from_str_radix(seq_hex, 16).ok()?;
    (digest == checksum(seq, payload) || digest == sha256_hex(payload.as_bytes()))
        .then_some((seq, payload))
}

/// The watermark file's body for `seq`: the seq as a record writes it
/// and the record checksum of the seq with an empty payload.
fn watermark(seq: u64) -> String {
    format!("{seq:016x} {}\n", checksum(seq, ""))
}

/// The seq a watermark file holds, or 0 (replay everything) when it
/// does not verify.
fn parse_watermark(bytes: &[u8]) -> u64 {
    let verified = std::str::from_utf8(bytes).ok().and_then(|s| {
        let (seq_hex, digest) = s.strip_suffix('\n')?.split_once(' ')?;
        let seq = u64::from_str_radix(seq_hex, 16).ok()?;
        (digest == checksum(seq, "")).then_some(seq)
    });
    verified.unwrap_or(0)
}

/// A unique per-process scratch directory under the system temp dir, for
/// ephemeral spill queues when the operator did not pick `--spill-dir`.
pub fn ephemeral_dir(label: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NONCE: AtomicU64 = AtomicU64::new(0);
    let n = NONCE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("jsceresd-{label}-{}-{n}", std::process::id()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ceres-spill-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fifo_order_is_strict() {
        let dir = tmp("fifo");
        let mut q = SpillQueue::open(&dir, true).unwrap();
        for i in 0..20 {
            q.push(&format!("job-{i}")).unwrap();
        }
        for i in 0..20 {
            let (_, payload) = q.pop().expect("record");
            assert_eq!(payload, format!("job-{i}"), "FIFO order violated");
        }
        assert!(q.pop().is_none());
        assert_eq!(q.stats().pushed, 20);
    }

    #[test]
    fn interleaved_push_pop_stays_fifo() {
        let dir = tmp("interleave");
        let mut q = SpillQueue::open(&dir, true).unwrap();
        q.push("a").unwrap();
        q.push("b").unwrap();
        assert_eq!(q.pop().unwrap().1, "a");
        q.push("c").unwrap();
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
        assert!(q.is_empty());
    }

    #[test]
    fn survives_reopen_with_watermark() {
        let dir = tmp("reopen");
        {
            let mut q = SpillQueue::open(&dir, false).unwrap();
            for i in 0..5 {
                q.push(&format!("persist-{i}")).unwrap();
            }
            assert_eq!(q.pop().unwrap().1, "persist-0");
            assert_eq!(q.pop().unwrap().1, "persist-1");
            // Simulate a crash: drop without draining.
        }
        let mut q = SpillQueue::open(&dir, false).unwrap();
        assert_eq!(q.stats().replayed, 3, "unconsumed tail replays");
        assert_eq!(q.pop().unwrap().1, "persist-2");
        assert_eq!(q.pop().unwrap().1, "persist-3");
        assert_eq!(q.pop().unwrap().1, "persist-4");
        assert!(q.pop().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_detected_and_discarded() {
        let dir = tmp("torn");
        {
            let mut q = SpillQueue::open(&dir, false).unwrap();
            q.push("good-one").unwrap();
            q.push("good-two").unwrap();
        }
        // Simulate a crash mid-append: a partial record at the tail.
        {
            let mut f = OpenOptions::new()
                .append(true)
                .open(dir.join("spill.log"))
                .unwrap();
            f.write_all(b"00000000000000ff deadbeef {\"trunc").unwrap();
        }
        let mut q = SpillQueue::open(&dir, false).unwrap();
        assert_eq!(q.stats().corrupt, 1, "torn tail counted");
        assert_eq!(q.stats().replayed, 2);
        assert_eq!(q.pop().unwrap().1, "good-one");
        assert_eq!(q.pop().unwrap().1, "good-two");
        // The overwritten tail must not resurface after new pushes.
        q.push("after-crash").unwrap();
        assert_eq!(q.pop().unwrap().1, "after-crash");
        assert!(q.pop().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_checksum_is_skipped_not_served() {
        let dir = tmp("checksum");
        {
            let mut q = SpillQueue::open(&dir, false).unwrap();
            q.push("first").unwrap();
            q.push("second").unwrap();
        }
        // Flip a payload byte in the first record on disk.
        let log = dir.join("spill.log");
        let mut bytes = std::fs::read(&log).unwrap();
        let pos = bytes
            .windows(5)
            .position(|w| w == b"first")
            .expect("payload on disk");
        bytes[pos] = b'X';
        std::fs::write(&log, &bytes).unwrap();

        let mut q = SpillQueue::open(&dir, false).unwrap();
        // The corrupt record is dropped at open, and records after a bad
        // one are not trusted either — damage is treated as a suffix.
        assert_eq!(q.stats().corrupt, 1, "{:?}", q.stats());
        assert_eq!(q.stats().replayed, 0);
        assert!(q.pop().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn drained_queue_truncates_its_segment_file() {
        let dir = tmp("truncate");
        let mut q = SpillQueue::open(&dir, true).unwrap();
        for i in 0..10 {
            q.push(&format!("{{\"n\":{i}}}")).unwrap();
        }
        let full = std::fs::metadata(dir.join("spill.log")).unwrap().len();
        assert!(full > 0);
        while q.pop().is_some() {}
        let drained = std::fs::metadata(dir.join("spill.log")).unwrap().len();
        assert_eq!(drained, 0, "segment file reclaimed after drain");
        // And the queue keeps working after truncation.
        q.push("again").unwrap();
        assert_eq!(q.pop().unwrap().1, "again");
    }

    #[test]
    fn record_cut_at_its_newline_is_not_replayed_or_glued() {
        let dir = tmp("cut-newline");
        {
            let mut q = SpillQueue::open(&dir, false).unwrap();
            q.push("job-a").unwrap();
            q.push("job-b").unwrap();
        }
        // A crash mid-append of job-b, one byte short of its newline.
        let log = dir.join("spill.log");
        let bytes = std::fs::read(&log).unwrap();
        std::fs::write(&log, &bytes[..bytes.len() - 1]).unwrap();
        {
            let mut q = SpillQueue::open(&dir, false).unwrap();
            assert_eq!((q.stats().replayed, q.stats().corrupt), (1, 1));
            q.push("job-c").unwrap();
        }
        // The next restart must replay both acknowledged jobs intact.
        let mut q = SpillQueue::open(&dir, false).unwrap();
        assert_eq!((q.stats().replayed, q.stats().corrupt), (2, 0));
        assert_eq!(q.pop().unwrap().1, "job-a");
        assert_eq!(q.pop().unwrap().1, "job-c");
        assert!(q.pop().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Reopen `dir` with `bytes` as its segment and drain it: open never
    /// fails, damage counts at most once, every record before `intact` is
    /// replayed, and every replayed payload is the one pushed under its
    /// seq.
    fn replay_damaged_segment(
        dir: &Path,
        bytes: &[u8],
        pushed: &[(u64, String)],
        intact: usize,
        what: &str,
    ) {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).unwrap();
        std::fs::write(dir.join("spill.log"), bytes).unwrap();
        let mut q =
            SpillQueue::open(dir, false).unwrap_or_else(|e| panic!("{what}: open failed: {e}"));
        assert!(q.stats().corrupt <= 1, "{what}: {:?}", q.stats());
        let mut replayed = Vec::new();
        while let Some((seq, payload)) = q.pop() {
            let want = pushed.iter().find(|(s, _)| *s == seq).map(|(_, p)| p);
            assert_eq!(
                want,
                Some(&payload),
                "{what}: seq {seq} replayed the wrong payload"
            );
            replayed.push(seq);
        }
        for (seq, _) in &pushed[..intact] {
            assert!(
                replayed.contains(seq),
                "{what}: intact record {seq} was lost"
            );
        }
        assert!(q.stats().corrupt <= 1, "{what}: {:?}", q.stats());
    }

    #[test]
    fn segment_survives_every_cut_and_bit_flip() {
        let dir = tmp("fuzz");
        let pushed: Vec<(u64, String)> = {
            let mut q = SpillQueue::open(&dir, false).unwrap();
            (0..3)
                .map(|i| {
                    let payload = format!("{{\"n\":{i}}}");
                    (q.push(&payload).unwrap(), payload)
                })
                .collect()
        };
        let log = std::fs::read(dir.join("spill.log")).unwrap();
        // Byte offset at which each record ends.
        let ends: Vec<usize> = log
            .iter()
            .enumerate()
            .filter(|(_, &b)| b == b'\n')
            .map(|(i, _)| i + 1)
            .collect();
        assert_eq!(ends.len(), pushed.len());
        let whole_before = |at: usize| ends.iter().filter(|&&end| end <= at).count();
        for cut in 0..=log.len() {
            replay_damaged_segment(
                &dir,
                &log[..cut],
                &pushed,
                whole_before(cut),
                &format!("cut at {cut}"),
            );
        }
        for bit in 0..log.len() * 8 {
            let mut bytes = log.clone();
            bytes[bit / 8] ^= 1 << (bit % 8);
            replay_damaged_segment(
                &dir,
                &bytes,
                &pushed,
                whole_before(bit / 8),
                &format!("bit {bit} flipped"),
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn watermark_survives_every_cut_and_bit_flip() {
        let dir = tmp("watermark");
        let pushed: Vec<u64> = {
            let mut q = SpillQueue::open(&dir, false).unwrap();
            let pushed = (0..5)
                .map(|i| q.push(&format!("job-{i}")).unwrap())
                .collect();
            assert_eq!(q.pop().unwrap().1, "job-0");
            pushed
        };
        let log = std::fs::read(dir.join("spill.log")).unwrap();
        let mark = std::fs::read(dir.join("spill.consumed")).unwrap();
        // Reopen with a damaged watermark and drain: open never fails and
        // every record after the true watermark replays. Draining
        // rewrites both files, so each case starts from the saved bytes.
        let replay = |bytes: &[u8], what: &str| {
            std::fs::write(dir.join("spill.log"), &log).unwrap();
            std::fs::write(dir.join("spill.consumed"), bytes).unwrap();
            let mut q =
                SpillQueue::open(&dir, false).unwrap_or_else(|e| panic!("{what}: open: {e}"));
            let replayed: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(seq, _)| seq)).collect();
            for seq in &pushed[1..] {
                assert!(replayed.contains(seq), "{what}: job {seq} was lost");
            }
        };
        for cut in 0..=mark.len() {
            replay(&mark[..cut], &format!("cut at {cut}"));
        }
        for bit in 0..mark.len() * 8 {
            let mut bytes = mark.clone();
            bytes[bit / 8] ^= 1 << (bit % 8);
            replay(&bytes, &format!("bit {bit} flipped"));
        }
        replay(b"1\n", "bare decimal watermark");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn newline_payloads_are_rejected() {
        let dir = tmp("newline");
        let mut q = SpillQueue::open(&dir, true).unwrap();
        assert!(q.push("two\nlines").is_err());
        assert!(q.is_empty());
    }
}
