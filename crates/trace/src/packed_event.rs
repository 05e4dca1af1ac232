//! Fixed-width packed event records and streaming trace buffers.
//!
//! This is the one on-disk and on-wire trace format: `record` writes
//! it, `replay` and `hard-serve` stream it, and the corpus cache
//! persists it. The encoding is **fixed-width** so a detector can
//! consume it straight out of a byte buffer, one cheap shift-and-mask
//! decode per event, no intermediate vector. Byte streams are checked
//! record by record with [`Validator`](crate::event::Validator).
//!
//! # Record layout
//!
//! One event is exactly two little-endian `u64` words (16 bytes,
//! `u64`-aligned):
//!
//! ```text
//! w0  bits  0..4   tag (0..=8: read, write, lock, unlock, barrier,
//!                  compute, barrier complete, fork, join)
//!     bits  4..12  access size in bytes (reads/writes; 0 otherwise)
//!     bits 12..32  thread id (20 bits; see MAX_PACKED_THREAD)
//!     bits 32..64  site id
//! w1  payload: addr / lock for accesses and lock ops; barrier, child
//!     or cycle count zero-extended for the rest
//! ```
//!
//! The only field the packing narrows is the thread id (20 bits
//! instead of 32 — a million threads, far beyond any simulated
//! workload); [`PackedEvent::pack`] reports the loss explicitly
//! instead of truncating. Every [`TraceEvent`] within that bound
//! round-trips bit-exactly; the property tests pin that.
//!
//! [`PackedTrace`] owns a record buffer whose tags are all checked
//! once at construction, so its iterator — and the detector hot loop
//! above it — decodes infallibly. [`ChunkedReader`] streams a
//! file-backed record stream through two recycled buffers filled by a
//! background thread, so decode and I/O overlap and the file is never
//! resident in memory at once.

use crate::event::{Trace, TraceEvent};
use crate::op::Op;
use hard_types::{Addr, BarrierId, LockId, SiteId, ThreadId};
use std::error::Error;
use std::fmt;
use std::io::Read;
use std::sync::mpsc;

/// Bytes per packed record: two `u64` words.
pub const RECORD_BYTES: usize = 16;

/// Largest thread id the 20-bit thread field can carry.
pub const MAX_PACKED_THREAD: u32 = (1 << 20) - 1;

const TAG_READ: u64 = 0;
const TAG_WRITE: u64 = 1;
const TAG_LOCK: u64 = 2;
const TAG_UNLOCK: u64 = 3;
const TAG_BARRIER: u64 = 4;
const TAG_COMPUTE: u64 = 5;
const TAG_BARRIER_COMPLETE: u64 = 6;
const TAG_FORK: u64 = 7;
const TAG_JOIN: u64 = 8;

/// Errors of the fixed-width packing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PackError {
    /// A thread id exceeds the 20-bit packed field.
    ThreadTooWide {
        /// The offending thread id.
        thread: u32,
    },
    /// An unknown tag nibble was encountered while unpacking.
    BadTag(u8),
    /// A byte buffer's length is not a whole number of records.
    Misaligned {
        /// The buffer length in bytes.
        len: usize,
    },
}

impl fmt::Display for PackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PackError::ThreadTooWide { thread } => {
                write!(f, "thread {thread} exceeds the 20-bit packed field")
            }
            PackError::BadTag(t) => write!(f, "unknown packed event tag {t}"),
            PackError::Misaligned { len } => {
                write!(
                    f,
                    "{len} bytes is not a whole number of {RECORD_BYTES}-byte records"
                )
            }
        }
    }
}

impl Error for PackError {}

/// One fixed-width event record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PackedEvent {
    /// Tag, size, thread and site fields.
    pub w0: u64,
    /// Address / lock / barrier / child / cycles payload.
    pub w1: u64,
}

impl PackedEvent {
    /// Packs one event.
    ///
    /// # Errors
    ///
    /// Returns [`PackError::ThreadTooWide`] when the event's thread id
    /// does not fit the 20-bit field.
    pub fn pack(e: &TraceEvent) -> Result<PackedEvent, PackError> {
        let fields = |tag: u64, size: u8, thread: u32, site: u32, w1: u64| {
            if thread > MAX_PACKED_THREAD {
                return Err(PackError::ThreadTooWide { thread });
            }
            Ok(PackedEvent {
                w0: tag
                    | (u64::from(size) << 4)
                    | (u64::from(thread) << 12)
                    | (u64::from(site) << 32),
                w1,
            })
        };
        match *e {
            TraceEvent::Op { thread, op } => match op {
                Op::Read { addr, size, site } => fields(TAG_READ, size, thread.0, site.0, addr.0),
                Op::Write { addr, size, site } => fields(TAG_WRITE, size, thread.0, site.0, addr.0),
                Op::Lock { lock, site } => fields(TAG_LOCK, 0, thread.0, site.0, lock.0),
                Op::Unlock { lock, site } => fields(TAG_UNLOCK, 0, thread.0, site.0, lock.0),
                Op::Barrier { barrier, site } => {
                    fields(TAG_BARRIER, 0, thread.0, site.0, u64::from(barrier.0))
                }
                Op::Compute { cycles } => fields(TAG_COMPUTE, 0, thread.0, 0, u64::from(cycles)),
                Op::Fork { child, site } => {
                    fields(TAG_FORK, 0, thread.0, site.0, u64::from(child.0))
                }
                Op::Join { child, site } => {
                    fields(TAG_JOIN, 0, thread.0, site.0, u64::from(child.0))
                }
            },
            TraceEvent::BarrierComplete { barrier } => {
                fields(TAG_BARRIER_COMPLETE, 0, 0, 0, u64::from(barrier.0))
            }
        }
    }

    /// Unpacks the record.
    ///
    /// # Errors
    ///
    /// Returns [`PackError::BadTag`] for a tag nibble no encoder
    /// writes.
    pub fn unpack(self) -> Result<TraceEvent, PackError> {
        if (self.w0 & 0xF) > TAG_JOIN {
            return Err(PackError::BadTag((self.w0 & 0xF) as u8));
        }
        Ok(self.unpack_valid())
    }

    /// Unpacks a record whose tag has already been validated (the
    /// [`PackedTrace`] invariant). Kept branch-lean: this is the
    /// replay hot path.
    #[inline]
    fn unpack_valid(self) -> TraceEvent {
        let tag = self.w0 & 0xF;
        let size = ((self.w0 >> 4) & 0xFF) as u8;
        let thread = ThreadId(((self.w0 >> 12) & u64::from(MAX_PACKED_THREAD)) as u32);
        let site = SiteId((self.w0 >> 32) as u32);
        let op = match tag {
            TAG_READ => Op::Read {
                addr: Addr(self.w1),
                size,
                site,
            },
            TAG_WRITE => Op::Write {
                addr: Addr(self.w1),
                size,
                site,
            },
            TAG_LOCK => Op::Lock {
                lock: LockId(self.w1),
                site,
            },
            TAG_UNLOCK => Op::Unlock {
                lock: LockId(self.w1),
                site,
            },
            TAG_BARRIER => Op::Barrier {
                barrier: BarrierId(self.w1 as u32),
                site,
            },
            TAG_COMPUTE => Op::Compute {
                cycles: self.w1 as u32,
            },
            TAG_FORK => Op::Fork {
                child: ThreadId(self.w1 as u32),
                site,
            },
            TAG_JOIN => Op::Join {
                child: ThreadId(self.w1 as u32),
                site,
            },
            _ => {
                return TraceEvent::BarrierComplete {
                    barrier: BarrierId(self.w1 as u32),
                }
            }
        };
        TraceEvent::Op { thread, op }
    }

    /// The record as 16 little-endian bytes.
    #[must_use]
    pub fn to_bytes(self) -> [u8; RECORD_BYTES] {
        let mut b = [0u8; RECORD_BYTES];
        b[..8].copy_from_slice(&self.w0.to_le_bytes());
        b[8..].copy_from_slice(&self.w1.to_le_bytes());
        b
    }

    /// Reads a record from 16 little-endian bytes.
    #[must_use]
    pub fn from_bytes(b: &[u8; RECORD_BYTES]) -> PackedEvent {
        PackedEvent {
            w0: u64::from_le_bytes(b[..8].try_into().expect("8-byte slice")),
            w1: u64::from_le_bytes(b[8..].try_into().expect("8-byte slice")),
        }
    }
}

/// A trace as a validated fixed-width record buffer.
///
/// Invariants (established by every constructor): the buffer is a
/// whole number of records and every record's tag is valid, so
/// [`PackedTrace::iter`] decodes infallibly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PackedTrace {
    num_threads: u32,
    bytes: Vec<u8>,
}

impl PackedTrace {
    /// Packs a materialized trace.
    ///
    /// # Errors
    ///
    /// Returns [`PackError::ThreadTooWide`] if any event's thread id
    /// exceeds [`MAX_PACKED_THREAD`].
    pub fn from_trace(trace: &Trace) -> Result<PackedTrace, PackError> {
        let mut bytes = Vec::with_capacity(trace.events.len() * RECORD_BYTES);
        for e in &trace.events {
            bytes.extend_from_slice(&PackedEvent::pack(e)?.to_bytes());
        }
        Ok(PackedTrace {
            num_threads: trace.num_threads as u32,
            bytes,
        })
    }

    /// Adopts a raw record buffer (e.g. read back from a corpus file),
    /// validating alignment and every record tag up front.
    ///
    /// # Errors
    ///
    /// Returns [`PackError::Misaligned`] for a buffer that is not a
    /// whole number of records and [`PackError::BadTag`] for any
    /// record with an invalid tag.
    pub fn from_bytes(num_threads: u32, bytes: Vec<u8>) -> Result<PackedTrace, PackError> {
        if !bytes.len().is_multiple_of(RECORD_BYTES) {
            return Err(PackError::Misaligned { len: bytes.len() });
        }
        for rec in bytes.chunks_exact(RECORD_BYTES) {
            let tag = rec[0] & 0xF;
            if u64::from(tag) > TAG_JOIN {
                return Err(PackError::BadTag(tag));
            }
            // Tag bits 4..8 of the first byte belong to the size field;
            // only the low nibble is the tag, checked above.
        }
        Ok(PackedTrace { num_threads, bytes })
    }

    /// Number of threads in the program that produced the trace.
    #[must_use]
    pub fn num_threads(&self) -> usize {
        self.num_threads as usize
    }

    /// Number of events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bytes.len() / RECORD_BYTES
    }

    /// True when the trace has no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The raw record bytes.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Decodes the whole buffer back into a materialized trace.
    #[must_use]
    pub fn to_trace(&self) -> Trace {
        Trace {
            events: self.iter().collect(),
            num_threads: self.num_threads(),
        }
    }

    /// Streams the events without materializing them: each record is
    /// decoded on the stack as the iterator advances.
    pub fn iter(&self) -> impl Iterator<Item = TraceEvent> + '_ {
        self.bytes.chunks_exact(RECORD_BYTES).map(|rec| {
            PackedEvent::from_bytes(rec.try_into().expect("chunks_exact yields 16 bytes"))
                .unpack_valid()
        })
    }

    /// Decodes up to [`BATCH_EVENTS`] records starting at event index
    /// `start` into `out` (cleared first), returning how many were
    /// decoded — `0` exactly when `start` is at or past the end.
    ///
    /// This is the batch kernel's decode pre-pass: a tight
    /// shift-and-mask loop over one contiguous record window, with the
    /// decoded batch reusing `out`'s allocation across calls. The
    /// decoded events are identical to the corresponding window of
    /// [`PackedTrace::iter`].
    pub fn decode_batch(&self, start: usize, out: &mut Vec<TraceEvent>) -> usize {
        out.clear();
        if start >= self.len() {
            return 0;
        }
        let lo = start * RECORD_BYTES;
        let hi = (start + BATCH_EVENTS).min(self.len()) * RECORD_BYTES;
        out.extend(self.bytes[lo..hi].chunks_exact(RECORD_BYTES).map(|rec| {
            PackedEvent::from_bytes(rec.try_into().expect("chunks_exact yields 16 bytes"))
                .unpack_valid()
        }));
        out.len()
    }
}

/// Events per batch in the batched replay kernel.
///
/// Chosen equal to the harness's deadline-check stride
/// (`DEADLINE_STRIDE`), so the batched bounded runner trips its
/// max-events / max-cycles checks at exactly the same event counts —
/// overshoot included — as the per-event runner.
pub const BATCH_EVENTS: usize = 256;

/// How many records a default [`ChunkedReader`] chunk holds (1 MiB).
pub const DEFAULT_CHUNK_RECORDS: usize = 1 << 16;

/// One filled chunk of a [`ChunkedReader`]. Dereferences to the valid
/// bytes; dropping it returns the buffer to the reader thread for the
/// next fill.
pub struct Chunk {
    buf: Vec<u8>,
    home: mpsc::Sender<Vec<u8>>,
}

impl std::ops::Deref for Chunk {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl Drop for Chunk {
    fn drop(&mut self) {
        // The reader thread may already be gone (EOF); that is fine.
        let _ = self.home.send(std::mem::take(&mut self.buf));
    }
}

/// A double-buffered chunk reader for file-backed record streams.
///
/// Two fixed-capacity buffers cycle between a background reader thread
/// and the consumer: while the consumer decodes one chunk, the thread
/// fills the other, so replay overlaps I/O and at most two chunks are
/// ever resident. Every chunk except the last is exactly
/// `chunk_records * RECORD_BYTES` bytes, so records never straddle a
/// chunk boundary.
pub struct ChunkedReader {
    chunks: mpsc::Receiver<std::io::Result<Vec<u8>>>,
    recycle: mpsc::Sender<Vec<u8>>,
}

impl ChunkedReader {
    /// Spawns the reader thread over `reader`, cutting the stream into
    /// chunks of `chunk_records` records (clamped to at least one).
    pub fn spawn<R: Read + Send + 'static>(mut reader: R, chunk_records: usize) -> ChunkedReader {
        let cap = chunk_records.max(1) * RECORD_BYTES;
        let (chunk_tx, chunk_rx) = mpsc::channel::<std::io::Result<Vec<u8>>>();
        let (recycle_tx, recycle_rx) = mpsc::channel::<Vec<u8>>();
        for _ in 0..2 {
            recycle_tx.send(vec![0u8; cap]).expect("receiver is alive");
        }
        std::thread::spawn(move || {
            while let Ok(mut buf) = recycle_rx.recv() {
                buf.resize(cap, 0);
                let mut filled = 0;
                while filled < cap {
                    match reader.read(&mut buf[filled..]) {
                        Ok(0) => break,
                        Ok(n) => filled += n,
                        Err(e) => {
                            if e.kind() == std::io::ErrorKind::Interrupted {
                                continue;
                            }
                            let _ = chunk_tx.send(Err(e));
                            return;
                        }
                    }
                }
                if filled == 0 {
                    return; // clean EOF: dropping chunk_tx ends the stream
                }
                buf.truncate(filled);
                if chunk_tx.send(Ok(buf)).is_err() {
                    return; // consumer hung up
                }
            }
        });
        ChunkedReader {
            chunks: chunk_rx,
            recycle: recycle_tx,
        }
    }

    /// The next filled chunk, `None` at end of stream.
    ///
    /// # Errors
    ///
    /// Propagates the reader thread's I/O error (the stream ends after
    /// the first error).
    pub fn next_chunk(&mut self) -> Option<std::io::Result<Chunk>> {
        match self.chunks.recv() {
            Ok(Ok(buf)) => Some(Ok(Chunk {
                buf,
                home: self.recycle.clone(),
            })),
            Ok(Err(e)) => Some(Err(e)),
            Err(mpsc::RecvError) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Op {
                thread: ThreadId(3),
                op: Op::Read {
                    addr: Addr(0xDEAD_BEEF_0123),
                    size: 8,
                    site: SiteId(u32::MAX),
                },
            },
            TraceEvent::Op {
                thread: ThreadId(MAX_PACKED_THREAD),
                op: Op::Write {
                    addr: Addr(u64::MAX),
                    size: 255,
                    site: SiteId(7),
                },
            },
            TraceEvent::Op {
                thread: ThreadId(0),
                op: Op::Lock {
                    lock: LockId(u64::MAX - 1),
                    site: SiteId(1),
                },
            },
            TraceEvent::Op {
                thread: ThreadId(1),
                op: Op::Unlock {
                    lock: LockId(0x40),
                    site: SiteId(2),
                },
            },
            TraceEvent::Op {
                thread: ThreadId(2),
                op: Op::Barrier {
                    barrier: BarrierId(u32::MAX),
                    site: SiteId(3),
                },
            },
            TraceEvent::Op {
                thread: ThreadId(2),
                op: Op::Compute { cycles: u32::MAX },
            },
            TraceEvent::Op {
                thread: ThreadId(0),
                op: Op::Fork {
                    child: ThreadId(u32::MAX),
                    site: SiteId(4),
                },
            },
            TraceEvent::Op {
                thread: ThreadId(0),
                op: Op::Join {
                    child: ThreadId(3),
                    site: SiteId(5),
                },
            },
            TraceEvent::BarrierComplete {
                barrier: BarrierId(9),
            },
        ]
    }

    #[test]
    fn every_variant_round_trips() {
        for e in sample_events() {
            let p = PackedEvent::pack(&e).unwrap();
            assert_eq!(p.unpack().unwrap(), e, "{e}");
            let b = p.to_bytes();
            assert_eq!(PackedEvent::from_bytes(&b), p);
        }
    }

    #[test]
    fn wide_threads_are_rejected_not_truncated() {
        let e = TraceEvent::Op {
            thread: ThreadId(MAX_PACKED_THREAD + 1),
            op: Op::Compute { cycles: 1 },
        };
        assert_eq!(
            PackedEvent::pack(&e),
            Err(PackError::ThreadTooWide {
                thread: MAX_PACKED_THREAD + 1
            })
        );
    }

    #[test]
    fn bad_tags_are_rejected() {
        let p = PackedEvent { w0: 0xF, w1: 0 };
        assert_eq!(p.unpack(), Err(PackError::BadTag(0xF)));
    }

    #[test]
    fn packed_trace_round_trips_and_streams() {
        let t = Trace {
            events: sample_events(),
            num_threads: 4,
        };
        let p = PackedTrace::from_trace(&t).unwrap();
        assert_eq!(p.len(), t.events.len());
        assert_eq!(p.num_threads(), 4);
        assert_eq!(p.to_trace(), t);
        let streamed: Vec<TraceEvent> = p.iter().collect();
        assert_eq!(streamed, t.events);
        // And back through the raw-bytes constructor.
        let q = PackedTrace::from_bytes(4, p.bytes().to_vec()).unwrap();
        assert_eq!(q, p);
    }

    #[test]
    fn from_bytes_validates_alignment_and_tags() {
        assert_eq!(
            PackedTrace::from_bytes(2, vec![0u8; 17]),
            Err(PackError::Misaligned { len: 17 })
        );
        let mut rec = [0u8; RECORD_BYTES];
        rec[0] = 0x0B; // tag 11: invalid
        assert_eq!(
            PackedTrace::from_bytes(2, rec.to_vec()),
            Err(PackError::BadTag(0x0B))
        );
    }

    #[test]
    fn empty_packed_trace() {
        let p = PackedTrace::from_bytes(3, Vec::new()).unwrap();
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
        assert_eq!(p.to_trace().num_threads, 3);
    }

    #[test]
    fn chunked_reader_reassembles_the_stream() {
        let t = Trace {
            events: (0..10_000)
                .map(|i| TraceEvent::Op {
                    thread: ThreadId(i % 4),
                    op: Op::Write {
                        addr: Addr(0x1000 + u64::from(i) * 4),
                        size: 4,
                        site: SiteId(i),
                    },
                })
                .collect(),
            num_threads: 4,
        };
        let p = PackedTrace::from_trace(&t).unwrap();
        // A chunk size that does not divide the stream: the tail chunk
        // is short but still record-aligned.
        let mut r = ChunkedReader::spawn(std::io::Cursor::new(p.bytes().to_vec()), 96);
        let mut got = Vec::new();
        while let Some(chunk) = r.next_chunk() {
            let chunk = chunk.unwrap();
            assert!(chunk.len().is_multiple_of(RECORD_BYTES));
            assert!(chunk.len() <= 96 * RECORD_BYTES);
            got.extend_from_slice(&chunk);
        }
        assert_eq!(got, p.bytes());
    }

    #[test]
    fn chunked_reader_surfaces_io_errors() {
        struct Failing(usize);
        impl Read for Failing {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.0 == 0 {
                    return Err(std::io::Error::other("disk on fire"));
                }
                let n = buf.len().min(self.0);
                self.0 -= n;
                buf[..n].fill(0);
                Ok(n)
            }
        }
        let mut r = ChunkedReader::spawn(Failing(RECORD_BYTES * 4), 2);
        let first = r.next_chunk().expect("one full chunk").unwrap();
        assert_eq!(first.len(), 2 * RECORD_BYTES);
        drop(first);
        let second = r.next_chunk().expect("second chunk");
        assert_eq!(second.unwrap().len(), 2 * RECORD_BYTES);
        let third = r.next_chunk().expect("the error");
        assert!(third.is_err());
    }
}
