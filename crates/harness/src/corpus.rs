//! The `HARDCRP1` on-disk trace corpus format.
//!
//! A corpus file holds one trace in the packed fixed-width encoding
//! ([`hard_trace::packed_event`]) that the streaming replay path
//! consumes directly, plus the injected race's ground truth when
//! there is one. Campaigns build their traces in memory from seeds
//! and never read or write corpus files.
//!
//! # File format (`HARDCRP1`)
//!
//! ```text
//! magic        8  "HARDCRP1"
//! num_threads  4  u32 LE
//! events       8  u64 LE
//! inj_len      4  u32 LE (0: no injection recorded)
//! injection    inj_len bytes (see below)
//! payload_fnv  8  FNV-1a over the record payload
//! header_fnv   8  FNV-1a over every preceding byte
//! records      events * 16 bytes of packed events
//! ```
//!
//! The header (with both checksums) comes first so a reader can
//! validate it and then stream the records through a
//! [`ChunkedReader`] without ever holding the payload in memory,
//! folding [`codec::fnv1a_update`] over the chunks and comparing at
//! the end. Injected runs persist their ground-truth [`Injection`]
//! inline.
//!
//! [`CorpusCache`] is a content-addressed cache of such files, keyed
//! by an FNV-1a hash of a caller-built key string; perfbench's `table2`
//! is its only user. Damage never panics: a corrupt or truncated entry
//! is counted, discarded and regenerated.
//!
//! The same format is what `record` writes and what `replay` and
//! `hard-serve` take from outside. [`parse_header`] bounds the thread
//! count at [`CORPUS_MAX_THREADS`], and the streaming consumers check
//! every record with [`hard_trace::Validator`] as it arrives.

use hard_trace::codec;
use hard_trace::packed_event::{ChunkedReader, PackedTrace, DEFAULT_CHUNK_RECORDS, RECORD_BYTES};
use hard_types::{AccessKind, Addr, LockId, ThreadId};
use hard_workloads::{CriticalSection, Injection};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Magic prefix of a corpus file.
pub const CORPUS_MAGIC: &[u8; 8] = b"HARDCRP1";

/// Largest thread count a corpus header may claim. Detectors size
/// per-thread state from the header before any record arrives (the
/// happens-before clocks are `n` clocks of `n` words), so an unbounded
/// count would let one upload allocate gigabytes. The in-tree
/// workloads use at most 8.
pub const CORPUS_MAX_THREADS: u32 = 1024;

/// One cached trace: the packed payload plus the injection ground
/// truth for injected runs.
#[derive(Clone, Debug)]
pub struct CorpusEntry {
    /// The packed trace, shared so a cell's detectors replay one buffer.
    pub trace: Arc<PackedTrace>,
    /// The injected race's ground truth (`None` for race-free traces).
    pub injection: Option<Injection>,
}

/// Point-in-time cache statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CorpusStats {
    /// Keys served by reading a corpus file.
    pub hits: u64,
    /// Keys that had to be generated.
    pub misses: u64,
    /// Corrupt or truncated files discarded (each also counts as a
    /// miss).
    pub corrupt: u64,
    /// Entries written to disk.
    pub stores: u64,
    /// Failed writes (the entry is still returned; the next lookup of
    /// its key regenerates it).
    pub store_errors: u64,
}

impl CorpusStats {
    /// Total lookups.
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }
}

/// A content-addressed trace cache over one directory.
///
/// Only perfbench's `table2` uses it (with [`CorpusStats`],
/// [`CorpusEntry`] and the payload copy in `load_file`), so their
/// behaviour stays exactly as that benchmark measures it. They go with
/// the next change to perfbench.
pub struct CorpusCache {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    corrupt: AtomicU64,
    stores: AtomicU64,
    store_errors: AtomicU64,
}

impl CorpusCache {
    /// A cache rooted at `dir`. The directory is created lazily on the
    /// first store.
    #[must_use]
    pub fn new(dir: PathBuf) -> CorpusCache {
        CorpusCache {
            dir,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            store_errors: AtomicU64::new(0),
        }
    }

    /// The on-disk path for a key string.
    #[must_use]
    pub fn path_for(&self, key: &str) -> PathBuf {
        self.dir
            .join(format!("{:016x}.crp", codec::fnv1a(key.as_bytes())))
    }

    /// Current statistics.
    #[must_use]
    pub fn stats(&self) -> CorpusStats {
        CorpusStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            store_errors: self.store_errors.load(Ordering::Relaxed),
        }
    }

    /// Looks `key` up on disk, generating (and persisting) the trace
    /// via `build` on a miss.
    ///
    /// `need_injection` demands an entry with ground truth: a disk
    /// entry without one (a race-free recording) is treated as a miss
    /// rather than returned incomplete.
    ///
    /// Returns `None` only when the generated trace cannot be packed
    /// (a thread id beyond the packed encoding's 20-bit field, which no
    /// campaign workload produces) — the caller then falls back to the
    /// materialized path.
    pub fn get_or_create(
        &self,
        key: &str,
        need_injection: bool,
        build: impl FnOnce() -> (hard_trace::Trace, Option<Injection>),
    ) -> Option<CorpusEntry> {
        let path = self.path_for(key);
        match load_file(&path) {
            Ok(entry) if !need_injection || entry.injection.is_some() => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(entry);
            }
            Ok(_) => {
                // Present but missing the ground truth: regenerate.
                self.misses.fetch_add(1, Ordering::Relaxed);
            }
            Err(LoadError::Absent) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
            }
            Err(LoadError::Corrupt(_)) => {
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
            }
        }
        let (trace, injection) = build();
        let packed = PackedTrace::from_trace(&trace).ok()?;
        let entry = CorpusEntry {
            trace: Arc::new(packed),
            injection,
        };
        match write_file(&path, &entry.trace, entry.injection.as_ref()) {
            Ok(()) => {
                self.stores.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                // A read-only or full disk makes every lookup of this
                // key regenerate: slower, but the caller's result is
                // unaffected.
                self.store_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        Some(entry)
    }
}

/// Why a corpus file could not be loaded.
#[derive(Debug)]
enum LoadError {
    /// No file at the path (a plain miss).
    Absent,
    /// The file exists but is damaged or unreadable.
    Corrupt(String),
}

/// Reads and fully validates one corpus file. The payload's one
/// validating pass in [`PackedTrace::from_bytes`] also yields the
/// checksum compared here.
///
/// The payload is copied out of the file buffer on purpose. Reading it
/// straight into a buffer of its own left the heap of a warm `table2`
/// sweep in one of two steady states, 19.6 or 28.2 MiB peak RSS,
/// depending on the work done before the sweep. With the copy it stays
/// at 21.3 MiB.
fn load_file(path: &Path) -> Result<CorpusEntry, LoadError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Err(LoadError::Absent),
        Err(e) => return Err(LoadError::Corrupt(e.to_string())),
    };
    let (header, payload_at) = parse_header(&bytes).map_err(LoadError::Corrupt)?;
    let payload = &bytes[payload_at..];
    let expect = usize::try_from(header.events)
        .ok()
        .and_then(|n| n.checked_mul(RECORD_BYTES));
    if expect != Some(payload.len()) {
        return Err(LoadError::Corrupt(format!(
            "payload is {} bytes, header promises {} records",
            payload.len(),
            header.events
        )));
    }
    let packed = PackedTrace::from_bytes(header.num_threads, payload.to_vec())
        .map_err(|e| LoadError::Corrupt(e.to_string()))?;
    if packed.payload_fnv() != header.payload_fnv {
        return Err(LoadError::Corrupt("payload checksum mismatch".into()));
    }
    Ok(CorpusEntry {
        trace: Arc::new(packed),
        injection: header.injection,
    })
}

/// The validated header of a corpus file.
pub struct StreamHeader {
    /// Thread count of the recorded program.
    pub num_threads: u32,
    /// Number of packed records in the payload.
    pub events: u64,
    /// The persisted injection ground truth, if any.
    pub injection: Option<Injection>,
    /// FNV-1a the payload must hash to.
    pub payload_fnv: u64,
}

/// Bytes of a header's fixed prefix: magic, thread count, event count
/// and `inj_len`.
pub const HEADER_PREFIX: usize = 24;

/// Length of the whole header — prefix, injection and both checksums —
/// that a header's first [`HEADER_PREFIX`] bytes announce; `None` if it
/// overflows `usize`.
///
/// # Panics
///
/// Panics if `prefix` is shorter than [`HEADER_PREFIX`].
#[must_use]
pub fn header_len(prefix: &[u8]) -> Option<usize> {
    let inj_len = u32::from_le_bytes(prefix[20..24].try_into().expect("4 bytes"));
    HEADER_PREFIX
        .checked_add(usize::try_from(inj_len).ok()?)?
        .checked_add(16)
}

/// Parses and checksums a `HARDCRP1` header, returning it plus the
/// payload offset. Public because `hard-serve` ingests the same
/// format over the wire and must validate the header before detection
/// runs.
///
/// # Errors
///
/// Describes the first corruption found (bad magic, truncation, a
/// header-checksum mismatch, or a thread count over
/// [`CORPUS_MAX_THREADS`]).
pub fn parse_header(bytes: &[u8]) -> Result<(StreamHeader, usize), String> {
    let need = |n: usize| -> Result<(), String> {
        if bytes.len() < n {
            Err(format!("truncated header: {} bytes", bytes.len()))
        } else {
            Ok(())
        }
    };
    need(HEADER_PREFIX)?;
    if &bytes[..8] != CORPUS_MAGIC {
        return Err("bad magic".into());
    }
    let num_threads = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    let events = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    let header_end = header_len(bytes).ok_or("absurd injection length")?;
    need(header_end)?;
    // The injection, then the payload checksum, then the header's own.
    let inj_end = header_end - 16;
    let injection = if inj_end == HEADER_PREFIX {
        None
    } else {
        Some(decode_injection(&bytes[HEADER_PREFIX..inj_end])?)
    };
    let payload_fnv = u64::from_le_bytes(bytes[inj_end..inj_end + 8].try_into().expect("8 bytes"));
    let header_fnv =
        u64::from_le_bytes(bytes[inj_end + 8..header_end].try_into().expect("8 bytes"));
    if codec::fnv1a(&bytes[..inj_end + 8]) != header_fnv {
        return Err("header checksum mismatch".into());
    }
    // Checked after the checksum, so a flipped bit reads as damage.
    if num_threads > CORPUS_MAX_THREADS {
        return Err(format!(
            "header claims {num_threads} threads, over the {CORPUS_MAX_THREADS}-thread limit"
        ));
    }
    Ok((
        StreamHeader {
            num_threads,
            events,
            injection,
            payload_fnv,
        },
        header_end,
    ))
}

/// Serializes a corpus stream into a byte vector — the exact bytes
/// [`write_file`] puts on disk. Public so in-memory consumers (the
/// chaos campaign's fixtures, the fuzz seeds) can build `HARDCRP1`
/// uploads without touching the filesystem.
#[must_use]
pub fn encode_bytes(trace: &PackedTrace, injection: Option<&Injection>) -> Vec<u8> {
    let inj = injection.map(encode_injection).unwrap_or_default();
    let mut out = Vec::with_capacity(40 + inj.len() + trace.bytes().len());
    out.extend_from_slice(CORPUS_MAGIC);
    out.extend_from_slice(
        &u32::try_from(trace.num_threads())
            .unwrap_or(u32::MAX)
            .to_le_bytes(),
    );
    out.extend_from_slice(&(trace.len() as u64).to_le_bytes());
    out.extend_from_slice(&u32::try_from(inj.len()).unwrap_or(u32::MAX).to_le_bytes());
    out.extend_from_slice(&inj);
    out.extend_from_slice(&trace.payload_fnv().to_le_bytes());
    let header_fnv = codec::fnv1a(&out);
    out.extend_from_slice(&header_fnv.to_le_bytes());
    out.extend_from_slice(trace.bytes());
    out
}

/// Atomically writes a corpus file: temp file in the same directory,
/// then rename, so a crashed writer never leaves a half entry under a
/// valid name.
///
/// # Errors
///
/// Propagates directory-creation and write errors.
pub fn write_file(
    path: &Path,
    trace: &PackedTrace,
    injection: Option<&Injection>,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    std::fs::write(&tmp, encode_bytes(trace, injection))?;
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// Reads and fully validates one corpus file (helper for tools and
/// tests; perfbench goes through [`CorpusCache::get_or_create`]).
///
/// # Errors
///
/// Returns a description of the damage for anything but a pristine
/// file.
pub fn read_file(path: &Path) -> Result<(Arc<PackedTrace>, Option<Injection>), String> {
    match load_file(path) {
        Ok(e) => Ok((e.trace, e.injection)),
        Err(LoadError::Absent) => Err(format!("{} does not exist", path.display())),
        Err(LoadError::Corrupt(why)) => Err(why),
    }
}

/// Opens a corpus file for streaming: validates the header, then hands
/// back a [`ChunkedReader`] positioned at the first record. The caller
/// must fold [`codec::fnv1a_update`] over the chunks and compare with
/// [`StreamHeader::payload_fnv`] once the stream ends.
///
/// # Errors
///
/// Returns a description of any I/O failure or header damage.
pub fn open_streamed(path: &Path) -> Result<(StreamHeader, ChunkedReader), String> {
    let mut f =
        std::fs::File::open(path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    // Read the fixed prefix, then exactly the rest of the header it
    // announces: the file is left at the first record, and a lying
    // injection length costs at most the file's own bytes.
    let mut head = Vec::with_capacity(HEADER_PREFIX);
    let mut read = |head: &mut Vec<u8>, n: usize| {
        (&mut f)
            .take(n as u64)
            .read_to_end(head)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))
    };
    read(&mut head, HEADER_PREFIX)?;
    if head.len() == HEADER_PREFIX {
        let rest = header_len(&head).map_or(0, |n| n - HEADER_PREFIX);
        read(&mut head, rest)?;
    }
    let (header, _) = parse_header(&head)?;
    Ok((header, ChunkedReader::spawn(f, DEFAULT_CHUNK_RECORDS)))
}

fn encode_injection(inj: &Injection) -> Vec<u8> {
    let s = &inj.section;
    let mut out = Vec::with_capacity(32 + s.exposed_accesses.len() * 10);
    out.extend_from_slice(&s.thread.0.to_le_bytes());
    out.extend_from_slice(&s.lock.0.to_le_bytes());
    out.extend_from_slice(&(s.lock_index as u64).to_le_bytes());
    out.extend_from_slice(&(s.unlock_index as u64).to_le_bytes());
    out.extend_from_slice(
        &u32::try_from(s.exposed_accesses.len())
            .unwrap_or(u32::MAX)
            .to_le_bytes(),
    );
    for &(addr, size, kind) in &s.exposed_accesses {
        out.extend_from_slice(&addr.0.to_le_bytes());
        out.push(size);
        out.push(match kind {
            AccessKind::Read => 0,
            AccessKind::Write => 1,
        });
    }
    out
}

fn decode_injection(bytes: &[u8]) -> Result<Injection, String> {
    let take = |at: usize, n: usize| -> Result<&[u8], String> {
        bytes
            .get(at..at + n)
            .ok_or_else(|| "truncated injection blob".to_string())
    };
    let thread = ThreadId(u32::from_le_bytes(take(0, 4)?.try_into().expect("4")));
    let lock = LockId(u64::from_le_bytes(take(4, 8)?.try_into().expect("8")));
    let lock_index = u64::from_le_bytes(take(12, 8)?.try_into().expect("8")) as usize;
    let unlock_index = u64::from_le_bytes(take(20, 8)?.try_into().expect("8")) as usize;
    let n = u32::from_le_bytes(take(28, 4)?.try_into().expect("4")) as usize;
    let mut exposed_accesses = Vec::with_capacity(n.min(1 << 16));
    let mut at = 32;
    for _ in 0..n {
        let rec = take(at, 10)?;
        let addr = Addr(u64::from_le_bytes(rec[..8].try_into().expect("8")));
        let kind = match rec[9] {
            0 => AccessKind::Read,
            1 => AccessKind::Write,
            other => return Err(format!("bad access kind byte {other}")),
        };
        exposed_accesses.push((addr, rec[8], kind));
        at += 10;
    }
    if at != bytes.len() {
        return Err("trailing bytes after injection blob".into());
    }
    Ok(Injection {
        section: CriticalSection {
            thread,
            lock,
            lock_index,
            unlock_index,
            exposed_accesses,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hard_trace::{ProgramBuilder, SchedConfig, Scheduler, Trace};
    use hard_types::SiteId;

    fn small_trace() -> Trace {
        let mut b = ProgramBuilder::new(2);
        b.thread(0)
            .lock(LockId(0x40), SiteId(1))
            .write(Addr(0x1000), 4, SiteId(2))
            .unlock(LockId(0x40), SiteId(3));
        b.thread(1).read(Addr(0x1000), 4, SiteId(4)).compute(7);
        Scheduler::new(SchedConfig::default()).run(&b.build())
    }

    fn sample_injection() -> Injection {
        Injection {
            section: CriticalSection {
                thread: ThreadId(1),
                lock: LockId(0x40),
                lock_index: 3,
                unlock_index: 9,
                exposed_accesses: vec![
                    (Addr(0x1000), 4, AccessKind::Write),
                    (Addr(0x1008), 8, AccessKind::Read),
                ],
            },
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("hard-corpus-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    #[test]
    fn file_round_trips_with_and_without_injection() {
        let dir = temp_dir("roundtrip");
        let packed = PackedTrace::from_trace(&small_trace()).unwrap();
        for inj in [None, Some(sample_injection())] {
            let path = dir.join(if inj.is_some() { "a.crp" } else { "b.crp" });
            write_file(&path, &packed, inj.as_ref()).unwrap();
            let (back, back_inj) = read_file(&path).unwrap();
            assert_eq!(*back, packed);
            assert_eq!(back_inj, inj);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_misses_then_hits_from_disk() {
        let dir = temp_dir("hits");
        let trace = small_trace();
        let cache = CorpusCache::new(dir.clone());
        let built = std::cell::Cell::new(0);
        let build = || {
            built.set(built.get() + 1);
            (trace.clone(), None)
        };
        let a = cache.get_or_create("k", false, build).unwrap();
        assert_eq!(built.get(), 1);
        let b = cache
            .get_or_create("k", false, || unreachable!("disk hit"))
            .unwrap();
        assert_eq!(a.trace, b.trace);
        let s = cache.stats();
        assert_eq!((s.misses, s.hits, s.stores), (1, 1, 1));

        // A fresh cache over the same directory serves from disk too.
        let cold = CorpusCache::new(dir.clone());
        let c = cold
            .get_or_create("k", false, || unreachable!("disk hit"))
            .unwrap();
        assert_eq!(c.trace, a.trace);
        assert_eq!(cold.stats().hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_stores_regenerate_on_every_lookup() {
        // A regular file where the directory should be: every store
        // fails, so nothing is ever served and each lookup rebuilds.
        let dir = temp_dir("store-fail");
        std::fs::write(&dir, b"not a directory").unwrap();
        let trace = small_trace();
        let cache = CorpusCache::new(dir.clone());
        let built = std::cell::Cell::new(0);
        let build = || {
            built.set(built.get() + 1);
            (trace.clone(), None)
        };
        let a = cache.get_or_create("k", false, build).unwrap();
        let b = cache.get_or_create("k", false, build).unwrap();
        assert_eq!(a.trace, b.trace);
        assert_eq!(built.get(), 2);
        let s = cache.stats();
        assert_eq!((s.misses, s.store_errors, s.hits), (2, 2, 0), "{s:?}");
        let _ = std::fs::remove_file(&dir);
    }

    #[test]
    fn truncated_and_bit_flipped_files_regenerate() {
        let dir = temp_dir("damage");
        let trace = small_trace();
        let cache = CorpusCache::new(dir.clone());
        let key = "damaged";
        cache
            .get_or_create(key, true, || (trace.clone(), Some(sample_injection())))
            .unwrap();
        let path = cache.path_for(key);
        let pristine = std::fs::read(&path).unwrap();

        for damage in 0..2 {
            let mut bytes = pristine.clone();
            if damage == 0 {
                bytes.truncate(bytes.len() / 2);
            } else {
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0x5A;
            }
            std::fs::write(&path, &bytes).unwrap();
            let fresh = CorpusCache::new(dir.clone());
            let entry = fresh
                .get_or_create(key, true, || (trace.clone(), Some(sample_injection())))
                .expect("regenerates instead of failing");
            assert_eq!(entry.trace.to_trace(), trace);
            assert_eq!(entry.injection, Some(sample_injection()));
            let s = fresh.stats();
            assert_eq!((s.corrupt, s.misses), (1, 1), "damage {damage}");
            // And the regeneration repaired the file.
            assert!(read_file(&path).is_ok());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One flipped bit anywhere in a record's address word changes no
    /// tag, so only the recorded checksum can catch it.
    #[test]
    fn a_flipped_payload_bit_fails_the_checksum() {
        let dir = temp_dir("flip");
        let packed = PackedTrace::from_trace(&small_trace()).unwrap();
        let path = dir.join("f.crp");
        write_file(&path, &packed, Some(&sample_injection())).unwrap();
        let pristine = std::fs::read(&path).unwrap();
        let payload_at = pristine.len() - packed.bytes().len();
        for (rec, bit) in [(0, 0), (1, 17), (packed.len() - 1, 63)] {
            let mut bytes = pristine.clone();
            let at = payload_at + rec * RECORD_BYTES + 8 + bit / 8;
            bytes[at] ^= 1 << (bit % 8);
            std::fs::write(&path, &bytes).unwrap();
            assert_eq!(
                read_file(&path).map(|_| ()),
                Err("payload checksum mismatch".to_string()),
                "record {rec} bit {bit}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A short file, a foreign magic or an injection length past the
    /// end of the file is named as header damage.
    #[test]
    fn damaged_headers_are_named_as_header_damage() {
        let dir = temp_dir("header");
        let path = dir.join("h.crp");
        std::fs::create_dir_all(&dir).unwrap();
        let packed = PackedTrace::from_trace(&small_trace()).unwrap();
        let good = encode_bytes(&packed, None);
        let mut long_injection = good.clone();
        long_injection[20..24].copy_from_slice(&u32::MAX.to_le_bytes());
        let cases: [(&[u8], &str); 3] = [
            (&good[..10], "truncated header: 10 bytes"),
            (b"NOTACRP1-and-then-some-bytes", "bad magic"),
            (&long_injection, "truncated header"),
        ];
        for (bytes, want) in cases {
            std::fs::write(&path, bytes).unwrap();
            let err = read_file(&path).map(|_| ()).unwrap_err();
            assert!(err.starts_with(want), "{err}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn headers_over_the_thread_limit_are_rejected() {
        let packed = PackedTrace::from_trace(&small_trace()).unwrap();
        let mut bytes = encode_bytes(&packed, None);
        // Claim `n` threads and re-seal the header so only the limit
        // can reject it.
        let mut reseal = |n: u32| {
            bytes[8..12].copy_from_slice(&n.to_le_bytes());
            let fnv = codec::fnv1a(&bytes[..32]).to_le_bytes();
            bytes[32..40].copy_from_slice(&fnv);
            parse_header(&bytes).map(|(h, _)| h.num_threads)
        };
        assert_eq!(reseal(CORPUS_MAX_THREADS), Ok(CORPUS_MAX_THREADS));
        assert_eq!(
            reseal(CORPUS_MAX_THREADS + 1),
            Err("header claims 1025 threads, over the 1024-thread limit".into())
        );
        assert!(reseal(u32::MAX).is_err());
    }

    #[test]
    fn injection_needed_but_absent_is_a_miss_not_an_answer() {
        let dir = temp_dir("needinj");
        let trace = small_trace();
        let cache = CorpusCache::new(dir.clone());
        cache
            .get_or_create("k", false, || (trace.clone(), None))
            .unwrap();
        let entry = cache
            .get_or_create("k", true, || (trace.clone(), Some(sample_injection())))
            .unwrap();
        assert!(entry.injection.is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn streamed_open_validates_and_yields_the_payload() {
        let dir = temp_dir("stream");
        let packed = PackedTrace::from_trace(&small_trace()).unwrap();
        let path = dir.join("s.crp");
        write_file(&path, &packed, Some(&sample_injection())).unwrap();
        let (header, mut reader) = open_streamed(&path).unwrap();
        assert_eq!(header.num_threads as usize, packed.num_threads());
        assert_eq!(header.events as usize, packed.len());
        assert_eq!(header.injection, Some(sample_injection()));
        let mut fnv = codec::FNV1A_INIT;
        let mut bytes = Vec::new();
        while let Some(chunk) = reader.next_chunk() {
            let chunk = chunk.unwrap();
            fnv = codec::fnv1a_update(fnv, &chunk);
            bytes.extend_from_slice(&chunk);
        }
        assert_eq!(fnv, header.payload_fnv);
        assert_eq!(bytes, packed.bytes());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A header longer than any fixed read-ahead — a 500-access
    /// injection is a ~5 KB blob — streams exactly as it reads whole.
    #[test]
    fn long_injection_headers_stream_like_whole_reads() {
        let dir = temp_dir("longinj");
        let path = dir.join("l.crp");
        let mut b = ProgramBuilder::new(1);
        b.thread(0).write(Addr(0x1000), 4, SiteId(1));
        let packed =
            PackedTrace::from_trace(&Scheduler::new(SchedConfig::default()).run(&b.build()))
                .unwrap();
        let mut injection = sample_injection();
        injection.section.exposed_accesses = (0..500u64)
            .map(|i| (Addr(0x1000 + i * 8), 8, AccessKind::Write))
            .collect();
        write_file(&path, &packed, Some(&injection)).unwrap();
        let (whole, whole_inj) = read_file(&path).unwrap();
        assert_eq!(whole_inj.as_ref(), Some(&injection));
        let kind = crate::DetectorKind::parse("hard").unwrap();
        let want = crate::detectors::execute(&kind, &whole.to_trace(), &[]);
        let (header, mut reader) = open_streamed(&path).unwrap();
        assert_eq!(header.injection, Some(injection));
        let (got, events, fnv) =
            crate::execute_streamed(&kind, header.num_threads as usize, &mut reader).unwrap();
        assert_eq!((events, fnv), (header.events, header.payload_fnv));
        assert_eq!(got.reports, want.reports);

        // Cut inside the blob: header damage, streamed or whole.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..HEADER_PREFIX + 3000]).unwrap();
        let streamed = open_streamed(&path).map(|_| ()).unwrap_err();
        let read = read_file(&path).map(|_| ()).unwrap_err();
        for err in [streamed, read] {
            assert!(err.starts_with("truncated header"), "{err}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
