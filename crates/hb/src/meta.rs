//! Per-granule access history and the happens-before race check.
//!
//! The hardware proposals the paper compares against store per-line
//! timestamps in the cache; this module is that metadata plus the check
//! itself, shared by the ideal detector (unbounded store) and the
//! hardware policy (in-cache only).
//!
//! A record stores 32-bit epochs. Thread clocks start at epoch 1 and a
//! component advances only at a release, a fork or a barrier, at most
//! once per trace event, so no epoch of a trace within
//! [`MAX_TRACE_EVENTS`] events passes `u32::MAX`; the
//! [`Validator`](hard_trace::Validator) rejects longer streams. The
//! vector clocks themselves stay 64-bit: only the per-granule records,
//! of which there is one per cached line or tracked granule, narrow.

use crate::clock::VectorClock;
use hard_trace::MAX_TRACE_EVENTS;
use hard_types::{AccessKind, ThreadId};

/// Inline capacity of [`ReadEpochs`]: histories for up to this many
/// threads live in the record itself. The hardware machines create one
/// history per cached granule and clone it on every coherence transfer
/// and metadata broadcast, so a heap allocation here would put one
/// allocation on every fill and several on every broadcast; the paper's
/// configurations run 4 threads (one per core), exactly the inline
/// bound. Wider programs transparently fall back to the heap. The bound
/// is deliberately tight: four 32-bit epochs keep a one-granule record
/// at 32 bytes, and streaming workloads (ocean) move every cached
/// line's record several times per miss, so each inline word is paid
/// for in memcpy volume on tens of thousands of fills per run.
pub const INLINE_EPOCHS: usize = 4;

/// Narrows a clock component to a record epoch.
///
/// # Panics
///
/// Panics, naming the bound, if `e` does not fit in 32 bits — only an
/// unvalidated trace longer than [`MAX_TRACE_EVENTS`] events can get
/// there. The epoch never wraps.
#[inline]
fn epoch32(e: u64) -> u32 {
    #[cold]
    #[inline(never)]
    fn overflow(e: u64) -> ! {
        panic!("epoch {e} exceeds 32 bits: a trace may hold at most {MAX_TRACE_EVENTS} events")
    }
    u32::try_from(e).unwrap_or_else(|_| overflow(e))
}

/// Per-thread read epochs (0 = never read), stored inline for up to
/// [`INLINE_EPOCHS`] threads. Logically a fixed-length `[u32]`; the
/// representation is invisible to equality (two stores compare by
/// contents).
#[derive(Clone, Debug)]
pub enum ReadEpochs {
    /// Widths within [`INLINE_EPOCHS`]: no heap storage.
    Inline {
        /// Number of threads (logical length).
        len: u8,
        /// The epochs; entries at or past `len` are unused and zero.
        epochs: [u32; INLINE_EPOCHS],
    },
    /// Wider programs: heap storage, one entry per thread.
    Heap(Box<[u32]>),
}

impl ReadEpochs {
    /// All-zero (never-read) epochs for `num_threads` threads.
    #[must_use]
    pub fn new(num_threads: usize) -> ReadEpochs {
        if num_threads <= INLINE_EPOCHS {
            ReadEpochs::Inline {
                len: num_threads as u8,
                epochs: [0; INLINE_EPOCHS],
            }
        } else {
            ReadEpochs::Heap(vec![0; num_threads].into_boxed_slice())
        }
    }

    /// The epochs as a slice of length `num_threads`.
    #[must_use]
    pub fn as_slice(&self) -> &[u32] {
        match self {
            ReadEpochs::Inline { len, epochs } => &epochs[..*len as usize],
            ReadEpochs::Heap(v) => v,
        }
    }

    /// Mutable view of the epochs.
    pub fn as_mut_slice(&mut self) -> &mut [u32] {
        match self {
            ReadEpochs::Inline { len, epochs } => &mut epochs[..*len as usize],
            ReadEpochs::Heap(v) => v,
        }
    }

    /// Iterates the per-thread epochs in thread order.
    pub fn iter(&self) -> std::slice::Iter<'_, u32> {
        self.as_slice().iter()
    }
}

impl std::ops::Index<usize> for ReadEpochs {
    type Output = u32;
    fn index(&self, i: usize) -> &u32 {
        &self.as_slice()[i]
    }
}

impl std::ops::IndexMut<usize> for ReadEpochs {
    fn index_mut(&mut self, i: usize) -> &mut u32 {
        &mut self.as_mut_slice()[i]
    }
}

impl PartialEq for ReadEpochs {
    fn eq(&self, other: &ReadEpochs) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for ReadEpochs {}

/// The `writer` of a [`LineClocks`] that records no write. No thread
/// has this id: a clock of `u32::MAX` components could not be built.
const NO_WRITER: u32 = u32::MAX;

/// Access history of one granule: the epoch of the last write and, per
/// thread, the epoch of its last read. 32 bytes for up to
/// [`INLINE_EPOCHS`] threads.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LineClocks {
    /// Thread of the most recent write, or [`NO_WRITER`].
    writer: u32,
    /// That write's epoch (0 while `writer` is [`NO_WRITER`]).
    write_epoch: u32,
    /// Per-thread epoch of each thread's most recent read (0 = never).
    read_epochs: ReadEpochs,
}

impl LineClocks {
    /// Empty history for `num_threads` threads.
    #[must_use]
    pub fn new(num_threads: usize) -> LineClocks {
        LineClocks {
            writer: NO_WRITER,
            write_epoch: 0,
            read_epochs: ReadEpochs::new(num_threads),
        }
    }

    /// `(writer, epoch)` of the most recent write, if any.
    #[must_use]
    pub fn last_write(&self) -> Option<(ThreadId, u64)> {
        (self.writer != NO_WRITER).then(|| (ThreadId(self.writer), u64::from(self.write_epoch)))
    }

    /// The epoch of `thread`'s most recent read (0 = never).
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range for the record.
    #[must_use]
    pub fn read_epoch(&self, thread: ThreadId) -> u64 {
        u64::from(self.read_epochs[thread.index()])
    }

    /// True iff no access has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.writer == NO_WRITER && self.read_epochs.iter().all(|&e| e == 0)
    }
}

/// Result of a happens-before access check.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct HbOutcome {
    /// The access races with the recorded last write.
    pub race_with_write: bool,
    /// The access (a write) races with a recorded read.
    pub race_with_read: bool,
}

impl HbOutcome {
    /// True if any race was found.
    #[must_use]
    pub fn is_race(self) -> bool {
        self.race_with_write || self.race_with_read
    }
}

/// Applies an access by `thread` (whose current clock is `clock`) of
/// kind `kind` to `meta`, checking the happens-before conditions:
///
/// * every access must be ordered after the last write, and
/// * a write must additionally be ordered after every recorded read.
///
/// The history is then updated with the new access.
///
/// # Panics
///
/// Panics if `thread`'s own epoch exceeds 32 bits (see the
/// [module docs](self)).
pub fn hb_access(
    meta: &mut LineClocks,
    thread: ThreadId,
    clock: &VectorClock,
    kind: AccessKind,
) -> HbOutcome {
    let mut out = HbOutcome::default();
    if let Some((wt, we)) = meta.last_write() {
        if wt != thread && !clock.epoch_before(wt, we) {
            out.race_with_write = true;
        }
    }
    let epoch = epoch32(clock.get(thread));
    if kind.is_write() {
        for (u, &re) in meta.read_epochs.iter().enumerate() {
            let ut = ThreadId(u as u32);
            if re != 0 && ut != thread && !clock.epoch_before(ut, u64::from(re)) {
                out.race_with_read = true;
            }
        }
        meta.writer = thread.0;
        meta.write_epoch = epoch;
        // A write supersedes older reads for future write checks ONLY
        // if they are ordered before it; keeping them all is safe and
        // matches full-vector-clock detectors.
        meta.read_epochs[thread.index()] = 0;
    } else {
        meta.read_epochs[thread.index()] = epoch;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);

    fn clock(e0: u64, e1: u64) -> VectorClock {
        let mut c = VectorClock::new(2);
        for _ in 0..e0 {
            c.tick(T0);
        }
        for _ in 0..e1 {
            c.tick(T1);
        }
        c
    }

    #[test]
    fn unordered_write_write_races() {
        let mut m = LineClocks::new(2);
        assert!(m.is_empty());
        let o0 = hb_access(&mut m, T0, &clock(1, 0), AccessKind::Write);
        assert!(!o0.is_race());
        assert!(!m.is_empty());
        // T1 writes without having seen T0's epoch 1: race.
        let o1 = hb_access(&mut m, T1, &clock(0, 1), AccessKind::Write);
        assert!(o1.race_with_write);
    }

    #[test]
    fn ordered_write_write_is_clean() {
        let mut m = LineClocks::new(2);
        hb_access(&mut m, T0, &clock(1, 0), AccessKind::Write);
        // T1 has joined T0's clock (e.g. via lock or barrier).
        let o = hb_access(&mut m, T1, &clock(1, 1), AccessKind::Write);
        assert!(!o.is_race());
    }

    #[test]
    fn unordered_read_after_write_races() {
        let mut m = LineClocks::new(2);
        hb_access(&mut m, T0, &clock(1, 0), AccessKind::Write);
        let o = hb_access(&mut m, T1, &clock(0, 1), AccessKind::Read);
        assert!(o.race_with_write);
        assert!(!o.race_with_read);
    }

    #[test]
    fn unordered_write_after_read_races() {
        let mut m = LineClocks::new(2);
        hb_access(&mut m, T0, &clock(1, 0), AccessKind::Read);
        let o = hb_access(&mut m, T1, &clock(0, 1), AccessKind::Write);
        assert!(o.race_with_read);
    }

    #[test]
    fn concurrent_reads_are_clean() {
        let mut m = LineClocks::new(2);
        let o0 = hb_access(&mut m, T0, &clock(1, 0), AccessKind::Read);
        let o1 = hb_access(&mut m, T1, &clock(0, 1), AccessKind::Read);
        assert!(!o0.is_race() && !o1.is_race());
    }

    #[test]
    fn same_thread_never_races_with_itself() {
        let mut m = LineClocks::new(2);
        hb_access(&mut m, T0, &clock(1, 0), AccessKind::Write);
        let o = hb_access(&mut m, T0, &clock(1, 0), AccessKind::Write);
        assert!(!o.is_race());
        let o = hb_access(&mut m, T0, &clock(1, 0), AccessKind::Read);
        assert!(!o.is_race());
    }

    #[test]
    fn records_stay_at_hardware_size() {
        use std::mem::size_of;
        assert!(size_of::<LineClocks>() <= 32, "one-granule HB record");
    }

    #[test]
    fn epochs_narrow_exactly_up_to_32_bits() {
        assert_eq!(epoch32(u64::from(u32::MAX)), u32::MAX);
        let mut m = LineClocks::new(2);
        hb_access(&mut m, T1, &clock(0, 3), AccessKind::Write);
        assert_eq!(m.last_write(), Some((T1, 3)));
        assert_eq!(m.read_epoch(T1), 0);
        hb_access(&mut m, T0, &clock(2, 3), AccessKind::Read);
        assert_eq!(m.read_epoch(T0), 2);
    }

    #[test]
    #[should_panic(expected = "a trace may hold at most 4294967294 events")]
    fn epoch_past_32_bits_panics_naming_the_bound() {
        let _ = epoch32(u64::from(u32::MAX) + 1);
    }

    #[test]
    fn write_after_ordered_read_is_clean() {
        let mut m = LineClocks::new(2);
        hb_access(&mut m, T0, &clock(1, 0), AccessKind::Read);
        let o = hb_access(&mut m, T1, &clock(1, 1), AccessKind::Write);
        assert!(!o.is_race());
    }
}
