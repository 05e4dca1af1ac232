//! Packed per-line metadata: the hardware's bit layout, verbatim.
//!
//! [`GranuleMeta`] is the *algorithmic* view of a granule's metadata —
//! an enum, an `Option`, a shape-tagged vector, heap-allocated per line
//! as `Vec<GranuleMeta>`. The hardware stores none of that: a line's
//! metadata is a handful of contiguous bits next to the tag array
//! (paper Figure 3). This module is that storage: one `u64` word per
//! granule. At the default line granularity that one word sits inline
//! in the line's metadata, with no heap; only the Table 3 sub-line
//! sweeps, with 2–8 granules per line, keep their words in one heap
//! block per line.
//!
//! # Word layout
//!
//! With `V = shape.total_bits()` (16 for the default
//! [`BloomShape::B16`], 32 for the Table 6 [`BloomShape::B32`]):
//!
//! ```text
//!  63        V+3   V+2  V+1   V   V-1          0
//! ┌───────────┬─────┬─────────┬─────────────────┐
//! │ owner + 1 │ par │ LState  │ BFVector bits   │
//! │ (0=none)  │ ity │ (2 bits)│ (V bits)        │
//! └───────────┴─────┴─────────┴─────────────────┘
//! ```
//!
//! * bits `[0, V)` — the candidate-set bloom vector, exactly
//!   [`BloomVector::bits`];
//! * bits `[V, V+2)` — the 2-bit [`LState`] encoding
//!   ([`LState::encode`]);
//! * bit `V+2` — even parity over bits `[0, V+2)`. Every transition
//!   write recomputes it; the fault-injection flips
//!   ([`PackedLineMeta::flip_bit`]) deliberately do *not*, modelling a
//!   particle strike that leaves the stored parity inconsistent. The
//!   machine's detection accounting is driven by its corruption side
//!   tables (so counting stays exact under broadcast propagation); the
//!   in-word bit documents the invariant the hardware would check.
//! * bits `[V+3, 64)` — the Exclusive owner thread plus one, zero
//!   meaning "no owner". (Hardware keeps ownership implicit in cache
//!   residency; the simulator packs it next to the state it guards.)
//!
//! Because the parity bit is a function of the payload, comparing two
//! consistently-written words for equality is exactly comparing the
//! `(state, owner, candidate)` triple — which is how the machine's
//! broadcast-on-change test becomes a single XOR.

use crate::meta::GranuleMeta;
use crate::state::{transition, LState};
use crate::AccessOutcome;
use hard_bloom::{lanes, BloomShape, BloomVector, LaneKernel};
use hard_types::{AccessKind, ThreadId};

/// Maximum granules per line: a 32-byte line at the minimum 4-byte
/// metadata granularity (Table 3's finest point).
pub const MAX_GRANULES: usize = 8;

/// What [`PackedLineMeta::access_span`] reports for a granule span.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SpanAccess {
    /// Whether any spanned granule's state/owner/candidate changed —
    /// the OR of the per-granule broadcast-on-change flags.
    pub changed: bool,
    /// Bit `i` set iff granule `g0 + i` raced (empty candidate set in a
    /// reporting state).
    pub race_mask: u8,
}

/// One cache line's worth of packed granule metadata.
///
/// Sized like the hardware's storage. At line granularity (the paper's
/// default: one granule per line) the single word sits inline next to
/// the shape, so a line's metadata is two words and cloning it
/// (coherence broadcast, cache-to-cache transfer, L2 writeback) is a
/// 16-byte copy. Only the Table 3 sub-line sweeps (2–8 granules) keep
/// their words on the heap, in one block sized to the granule count's
/// power-of-two class. Equality compares the shape and the live words,
/// never the representation, and [`Clone::clone_from`] between lines of
/// one granule count overwrites the words in place, so a broadcast or
/// writeback into a resident copy allocates nothing.
#[derive(Debug)]
pub struct PackedLineMeta(Words);

/// The storage arms of [`PackedLineMeta`]. The shape rides in every
/// arm (not beside the enum) so it shares the tag's word: each arm is
/// tag + shape + one 8-byte payload, and an `Option` of the whole
/// takes its `None` from the spare tag values.
#[derive(Clone, Debug)]
enum Words {
    /// One granule: the word itself.
    Inline { shape: BloomShape, word: u64 },
    /// Two granules (16 B granularity in 32 B lines).
    Heap2 {
        shape: BloomShape,
        words: Box<[u64; 2]>,
    },
    /// Up to four granules; `len` of them live.
    Heap4 {
        shape: BloomShape,
        len: u8,
        words: Box<[u64; 4]>,
    },
    /// Up to [`MAX_GRANULES`] granules; `len` of them live.
    Heap8 {
        shape: BloomShape,
        len: u8,
        words: Box<[u64; MAX_GRANULES]>,
    },
}

impl Clone for PackedLineMeta {
    fn clone(&self) -> PackedLineMeta {
        PackedLineMeta(self.0.clone())
    }

    fn clone_from(&mut self, source: &PackedLineMeta) {
        // The arm is a function of the granule count, so equal counts
        // and shapes mean the words can be overwritten where they are.
        if self.len() == source.len() && self.shape() == source.shape() {
            self.parts_mut().1.copy_from_slice(source.words());
        } else {
            *self = source.clone();
        }
    }
}

impl PartialEq for PackedLineMeta {
    fn eq(&self, other: &PackedLineMeta) -> bool {
        self.shape() == other.shape() && self.words() == other.words()
    }
}

impl Eq for PackedLineMeta {}

impl PackedLineMeta {
    /// All-granules-virgin metadata (Virgin state, full candidate set),
    /// as the ideal algorithm allocates it.
    ///
    /// # Panics
    ///
    /// Panics if `granules` exceeds [`MAX_GRANULES`] or the shape's
    /// vector does not leave room for the state, parity and owner
    /// fields.
    #[must_use]
    pub fn virgin(shape: BloomShape, granules: usize) -> PackedLineMeta {
        PackedLineMeta::filled(
            shape,
            granules,
            pack_word(shape, shape.full_mask(), LState::Virgin, None),
        )
    }

    /// Metadata as the hardware creates it on a fetch from memory:
    /// every granule Exclusive and owned by the fetching thread, full
    /// candidate set (paper §3.1).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`PackedLineMeta::virgin`].
    #[must_use]
    pub fn fetched(shape: BloomShape, granules: usize, owner: ThreadId) -> PackedLineMeta {
        PackedLineMeta::filled(
            shape,
            granules,
            pack_word(shape, shape.full_mask(), LState::Exclusive, Some(owner)),
        )
    }

    /// `granules` copies of word `w`, in the smallest arm that holds
    /// them.
    fn filled(shape: BloomShape, granules: usize, w: u64) -> PackedLineMeta {
        assert!(
            granules <= MAX_GRANULES,
            "{granules} granules exceed the {MAX_GRANULES}-granule line maximum"
        );
        assert!(
            shape.total_bits() + 3 <= 48,
            "a {shape} vector leaves no room for the state/parity/owner fields"
        );
        let len = granules as u8;
        PackedLineMeta(match granules {
            1 => Words::Inline { shape, word: w },
            2 => Words::Heap2 {
                shape,
                words: Box::new([w; 2]),
            },
            0..=4 => {
                let mut words = Box::new([0; 4]);
                words[..granules].fill(w);
                Words::Heap4 { shape, len, words }
            }
            _ => {
                let mut words = Box::new([0; MAX_GRANULES]);
                words[..granules].fill(w);
                Words::Heap8 { shape, len, words }
            }
        })
    }

    /// The line's live words.
    #[inline]
    fn words(&self) -> &[u64] {
        match &self.0 {
            Words::Inline { word, .. } => std::slice::from_ref(word),
            Words::Heap2 { words, .. } => &words[..],
            Words::Heap4 { len, words, .. } => &words[..usize::from(*len)],
            Words::Heap8 { len, words, .. } => &words[..usize::from(*len)],
        }
    }

    /// The shape and the live words, mutably: one arm dispatch for the
    /// whole of an update.
    #[inline]
    fn parts_mut(&mut self) -> (BloomShape, &mut [u64]) {
        match &mut self.0 {
            Words::Inline { shape, word } => (*shape, std::slice::from_mut(word)),
            Words::Heap2 { shape, words } => (*shape, &mut words[..]),
            Words::Heap4 { shape, len, words } => (*shape, &mut words[..usize::from(*len)]),
            Words::Heap8 { shape, len, words } => (*shape, &mut words[..usize::from(*len)]),
        }
    }

    /// Number of granules on this line.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words().len()
    }

    /// Whether the line carries no granules (never true for metadata
    /// built by the factories, present for API completeness).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words().is_empty()
    }

    /// The vector layout all granules on this line share.
    #[must_use]
    #[inline]
    pub fn shape(&self) -> BloomShape {
        match &self.0 {
            Words::Inline { shape, .. }
            | Words::Heap2 { shape, .. }
            | Words::Heap4 { shape, .. }
            | Words::Heap8 { shape, .. } => *shape,
        }
    }

    /// The raw packed word of granule `gi` (tests and fault plumbing).
    #[must_use]
    pub fn word(&self, gi: usize) -> u64 {
        let words = self.words();
        assert!(gi < words.len(), "granule {gi} out of range");
        words[gi]
    }

    /// Mutable word of granule `gi`, with the line's shape.
    fn word_mut(&mut self, gi: usize) -> (BloomShape, &mut u64) {
        let (shape, words) = self.parts_mut();
        assert!(gi < words.len(), "granule {gi} out of range");
        (shape, &mut words[gi])
    }

    /// The candidate-set bits of granule `gi`.
    #[must_use]
    pub fn candidate_bits(&self, gi: usize) -> u64 {
        self.word(gi) & self.shape().full_mask()
    }

    /// The candidate set of granule `gi` as a [`BloomVector`].
    #[must_use]
    pub fn candidate(&self, gi: usize) -> BloomVector {
        BloomVector::from_bits(self.shape(), self.candidate_bits(gi))
    }

    /// The [`LState`] of granule `gi`.
    #[must_use]
    pub fn state(&self, gi: usize) -> LState {
        LState::decode(((self.word(gi) >> self.shape().total_bits()) & 3) as u8)
    }

    /// The Exclusive owner of granule `gi`, if any.
    #[must_use]
    pub fn owner(&self, gi: usize) -> Option<ThreadId> {
        let enc = self.word(gi) >> (self.shape().total_bits() + 3);
        (enc != 0).then(|| ThreadId((enc - 1) as u32))
    }

    /// Unpacks granule `gi` into the algorithmic representation.
    #[must_use]
    pub fn granule(&self, gi: usize) -> GranuleMeta<BloomVector> {
        GranuleMeta {
            state: self.state(gi),
            owner: self.owner(gi),
            candidate: self.candidate(gi),
        }
    }

    /// Packs an algorithmic granule into slot `gi` (with a consistent
    /// parity bit).
    ///
    /// # Panics
    ///
    /// Panics if `gi` is out of range or the candidate's shape differs
    /// from the line's.
    pub fn set_granule(&mut self, gi: usize, g: &GranuleMeta<BloomVector>) {
        let (shape, w) = self.word_mut(gi);
        assert_eq!(g.candidate.shape(), shape, "mismatched bloom shapes");
        *w = pack_word(shape, g.candidate.bits(), g.state, g.owner);
    }

    /// Number of candidate bits set in granule `gi` (the
    /// bloom-population observability histogram).
    #[must_use]
    pub fn population(&self, gi: usize) -> u32 {
        self.candidate_bits(gi).count_ones()
    }

    /// Applies one access by `thread` of kind `kind` to granule `gi`,
    /// with the thread's lock register `held` — the flattened
    /// equivalent of [`crate::lockset_access`] on the unpacked granule.
    ///
    /// Returns `(changed, outcome)`, where `changed` is whether *any*
    /// of the granule's state/owner/candidate changed (the machine's
    /// broadcast-on-change condition, previously a clone-and-compare of
    /// the whole `GranuleMeta`): a single word XOR here, with the
    /// derived parity bit masked out so a fault-stale parity never
    /// counts as a logical change.
    ///
    /// # Panics
    ///
    /// Panics if `gi` is out of range or `held` has a different shape.
    pub fn access(
        &mut self,
        gi: usize,
        thread: ThreadId,
        kind: AccessKind,
        held: &BloomVector,
    ) -> (bool, AccessOutcome) {
        let (shape, word) = self.word_mut(gi);
        assert_eq!(held.shape(), shape, "mismatched bloom shapes");
        let v = shape.total_bits();
        let w = *word;
        let bits = w & shape.full_mask();
        let state = LState::decode(((w >> v) & 3) as u8);
        let owner_enc = w >> (v + 3);
        let owner = (owner_enc != 0).then(|| ThreadId((owner_enc - 1) as u32));

        let t = transition(state, owner, thread, kind);
        let mut outcome = AccessOutcome {
            candidate_changed: false,
            race: false,
        };
        let mut new_bits = bits;
        if t.update_candidate {
            new_bits = bits & held.bits();
            outcome.candidate_changed = new_bits != bits;
            outcome.race = t.report_if_empty && shape.has_empty_part(new_bits);
        }
        let nw = pack_word(shape, new_bits, t.next, t.next_owner);
        *word = nw;
        let parity_bit = 1u64 << (v + 2);
        ((nw ^ w) & !parity_bit != 0, outcome)
    }

    /// Applies one access to every granule in `[g0, g1)` — the batch
    /// kernel's counterpart of calling [`PackedLineMeta::access`] on
    /// each granule in order, bit-identical to that sequence by
    /// construction (each granule's update is a pure function of its
    /// own word).
    ///
    /// Shape-derived constants are hoisted out of the per-granule work,
    /// and the §3.3 intersect + emptiness test runs through the fused
    /// lane kernel (`hard_bloom::lanes`) when every spanned granule is
    /// in a candidate-updating state — the steady state of shared data.
    ///
    /// Returns the aggregate broadcast-on-change flag plus a bitmask of
    /// granules whose (updated) candidate set tested empty while in a
    /// reporting state.
    ///
    /// # Panics
    ///
    /// Panics if the span is out of range or `held` has a different
    /// shape.
    pub fn access_span(
        &mut self,
        g0: usize,
        g1: usize,
        thread: ThreadId,
        kind: AccessKind,
        held: &BloomVector,
        kernel: LaneKernel,
    ) -> SpanAccess {
        let (shape, words) = self.parts_mut();
        assert!(
            g0 <= g1 && g1 <= words.len(),
            "span {g0}..{g1} out of range"
        );
        assert_eq!(held.shape(), shape, "mismatched bloom shapes");
        let words = &mut words[g0..g1];
        let v = shape.total_bits();
        let full = shape.full_mask();
        let parity_bit = 1u64 << (v + 2);
        let held_bits = held.bits();
        let n = words.len();
        if n == 0 {
            return SpanAccess {
                changed: false,
                race_mask: 0,
            };
        }

        // Phase 1 — unpack and run the Figure 2 transitions (scalar:
        // a per-granule match on two bits is already straight-line).
        let mut cand = [0u64; MAX_GRANULES];
        let mut next = [(LState::Virgin, None::<ThreadId>); MAX_GRANULES];
        let mut update = 0u8;
        let mut report = 0u8;
        for (i, &w) in words.iter().enumerate() {
            cand[i] = w & full;
            let state = LState::decode(((w >> v) & 3) as u8);
            let owner_enc = w >> (v + 3);
            let owner = (owner_enc != 0).then(|| ThreadId((owner_enc - 1) as u32));
            let t = transition(state, owner, thread, kind);
            next[i] = (t.next, t.next_owner);
            update |= u8::from(t.update_candidate) << i;
            report |= u8::from(t.report_if_empty) << i;
        }

        // Phase 2 — candidate intersect + emptiness. All-updating spans
        // (every granule past initialization) take the lane kernel.
        let all = if n >= 8 { u8::MAX } else { (1u8 << n) - 1 };
        let mut race_mask = 0u8;
        if update == all {
            let empty = lanes::intersect_empty(kernel, shape, &mut cand[..n], held_bits);
            race_mask = (empty as u8) & report;
        } else if update != 0 {
            for (i, c) in cand.iter_mut().enumerate().take(n) {
                if update & (1 << i) != 0 {
                    *c &= held_bits;
                    if report & (1 << i) != 0 && shape.has_empty_part(*c) {
                        race_mask |= 1 << i;
                    }
                }
            }
        }

        // Phase 3 — repack with fresh parity and fold the logical
        // change detection (parity bit masked out, as in `access`).
        let mut changed_bits = 0u64;
        for (i, w) in words.iter_mut().enumerate() {
            let (state, owner) = next[i];
            let nw = pack_word(shape, cand[i], state, owner);
            changed_bits |= (nw ^ *w) & !parity_bit;
            *w = nw;
        }
        SpanAccess {
            changed: changed_bits != 0,
            race_mask,
        }
    }

    /// Barrier pruning (§3.5) over every granule: full candidate set,
    /// Virgin state, no owner — [`GranuleMeta::barrier_reset`] as one
    /// word store per granule.
    pub fn barrier_reset_all(&mut self) {
        let (shape, words) = self.parts_mut();
        words.fill(pack_word(shape, shape.full_mask(), LState::Virgin, None));
    }

    /// The §3.1 fork-time ownership transfer over every granule:
    /// granules exclusively owned by `parent` return to Virgin with
    /// their candidate set preserved ([`crate::fork_transfer`]).
    pub fn fork_transfer_all(&mut self, parent: ThreadId) {
        let (shape, words) = self.parts_mut();
        let v = shape.total_bits();
        for w in words {
            let state = ((*w >> v) & 3) as u8;
            let owner_enc = *w >> (v + 3);
            if state == LState::Exclusive.encode() && owner_enc == u64::from(parent.0) + 1 {
                *w = pack_word(shape, *w & shape.full_mask(), LState::Virgin, None);
            }
        }
    }

    /// The graceful-degradation reset after a detected parity fault:
    /// candidate set to all-ones, state to Virgin, owner cleared — the
    /// paper-safe "missed detections, never invented evidence" value.
    pub fn degrade(&mut self, gi: usize) {
        let (shape, w) = self.word_mut(gi);
        *w = pack_word(shape, shape.full_mask(), LState::Virgin, None);
    }

    /// Fault injection: flips one stored bit of granule `gi` without
    /// repairing the parity bit (the strike model). `bit` addresses the
    /// vector bits first (`[0, V)`), then the two LState bits
    /// (`[V, V+2)`).
    ///
    /// # Panics
    ///
    /// Panics if `gi` is out of range or `bit >= V + 2`.
    pub fn flip_bit(&mut self, gi: usize, bit: u32) {
        let (shape, w) = self.word_mut(gi);
        let v = shape.total_bits();
        assert!(bit < v + 2, "bit {bit} outside the {v}+2 payload bits");
        *w ^= 1u64 << bit;
    }

    /// Whether granule `gi`'s stored parity bit is consistent with its
    /// payload (false after an unrepaired [`PackedLineMeta::flip_bit`]).
    #[must_use]
    pub fn parity_ok(&self, gi: usize) -> bool {
        let v = self.shape().total_bits();
        let w = self.word(gi);
        let payload_and_parity = w & ((1u64 << (v + 3)) - 1);
        payload_and_parity.count_ones() & 1 == 0
    }
}

/// Packs one granule's fields into the word layout of the
/// [module docs](self), with a consistent parity bit.
#[inline]
fn pack_word(shape: BloomShape, bits: u64, state: LState, owner: Option<ThreadId>) -> u64 {
    let v = shape.total_bits();
    debug_assert_eq!(bits & !shape.full_mask(), 0);
    let payload = bits | u64::from(state.encode()) << v;
    let parity = u64::from(payload.count_ones() & 1) << (v + 2);
    let owner_enc = owner.map_or(0, |o| u64::from(o.0) + 1);
    payload | parity | owner_enc << (v + 3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lockset_access;
    use hard_types::LockId;

    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        *state >> 16
    }

    #[test]
    fn factories_match_granule_meta_constructors() {
        for shape in [BloomShape::B16, BloomShape::B32] {
            let v = PackedLineMeta::virgin(shape, 4);
            let f = PackedLineMeta::fetched(shape, 4, ThreadId(2));
            assert_eq!(v.len(), 4);
            for gi in 0..4 {
                assert_eq!(v.granule(gi), GranuleMeta::virgin(shape));
                assert_eq!(f.granule(gi), GranuleMeta::fetched(shape, ThreadId(2)));
                assert!(v.parity_ok(gi) && f.parity_ok(gi));
            }
        }
    }

    #[test]
    fn round_trip_preserves_every_field() {
        let shape = BloomShape::B16;
        let mut m = PackedLineMeta::virgin(shape, MAX_GRANULES);
        let mut rng = 0x1234_5678u64;
        for case in 0..2000 {
            let gi = (lcg(&mut rng) as usize) % MAX_GRANULES;
            let g = GranuleMeta {
                state: LState::decode((lcg(&mut rng) & 3) as u8),
                owner: if lcg(&mut rng) & 1 == 0 {
                    None
                } else {
                    Some(ThreadId((lcg(&mut rng) % 64) as u32))
                },
                candidate: BloomVector::from_bits(shape, lcg(&mut rng) & shape.full_mask()),
            };
            m.set_granule(gi, &g);
            assert_eq!(m.granule(gi), g, "case {case}");
            assert!(m.parity_ok(gi));
        }
    }

    #[test]
    fn access_agrees_with_lockset_access_on_random_sequences() {
        for shape in [BloomShape::B16, BloomShape::B32] {
            let mut rng = 0xDEAD_BEEFu64 ^ u64::from(shape.total_bits());
            for _ in 0..200 {
                let mut packed = PackedLineMeta::virgin(shape, 2);
                let mut reference: [GranuleMeta<BloomVector>; 2] =
                    std::array::from_fn(|_| GranuleMeta::virgin(shape));
                for step in 0..50 {
                    let gi = (lcg(&mut rng) & 1) as usize;
                    let thread = ThreadId((lcg(&mut rng) % 3) as u32);
                    let kind = if lcg(&mut rng) & 1 == 0 {
                        AccessKind::Read
                    } else {
                        AccessKind::Write
                    };
                    let held = match lcg(&mut rng) % 3 {
                        0 => BloomVector::empty(shape),
                        1 => BloomVector::from_locks(shape, &[LockId(0x40)]),
                        _ => BloomVector::from_locks(shape, &[LockId(0x40), LockId(0x84)]),
                    };
                    let before = reference[gi].clone();
                    let expect = lockset_access(&mut reference[gi], thread, kind, &held);
                    let expect_changed = reference[gi] != before;
                    let (changed, got) = packed.access(gi, thread, kind, &held);
                    assert_eq!(got, expect, "{shape} step {step}");
                    assert_eq!(changed, expect_changed, "{shape} step {step}");
                    assert_eq!(packed.granule(gi), reference[gi], "{shape} step {step}");
                }
            }
        }
    }

    #[test]
    fn access_span_matches_sequential_access_for_every_kernel() {
        // Random pre-states across the whole span, then one shared
        // access: the batched span must leave every word and every
        // outcome flag exactly as the granule-at-a-time loop does.
        for shape in [BloomShape::B16, BloomShape::B32] {
            for kernel in [LaneKernel::Scalar, LaneKernel::Unroll4, LaneKernel::Simd] {
                let mut rng = 0x000B_A7C4_0001_u64 ^ u64::from(shape.total_bits());
                for case in 0..300 {
                    let granules = 1 + (lcg(&mut rng) as usize) % MAX_GRANULES;
                    let mut m = PackedLineMeta::virgin(shape, granules);
                    for gi in 0..granules {
                        let g = GranuleMeta {
                            state: LState::decode((lcg(&mut rng) & 3) as u8),
                            owner: if lcg(&mut rng) & 1 == 0 {
                                None
                            } else {
                                Some(ThreadId((lcg(&mut rng) % 5) as u32))
                            },
                            candidate: BloomVector::from_bits(
                                shape,
                                lcg(&mut rng) & shape.full_mask(),
                            ),
                        };
                        m.set_granule(gi, &g);
                    }
                    let thread = ThreadId((lcg(&mut rng) % 4) as u32);
                    let kind = if lcg(&mut rng) & 1 == 0 {
                        AccessKind::Read
                    } else {
                        AccessKind::Write
                    };
                    let held = match lcg(&mut rng) % 3 {
                        0 => BloomVector::empty(shape),
                        1 => BloomVector::from_locks(shape, &[LockId(0x40)]),
                        _ => BloomVector::full(shape),
                    };
                    let g0 = (lcg(&mut rng) as usize) % granules;
                    let g1 = g0 + 1 + (lcg(&mut rng) as usize) % (granules - g0);

                    let mut scalar = m.clone();
                    let mut expect_changed = false;
                    let mut expect_mask = 0u8;
                    for gi in g0..g1 {
                        let (ch, out) = scalar.access(gi, thread, kind, &held);
                        expect_changed |= ch;
                        expect_mask |= u8::from(out.race) << (gi - g0);
                    }
                    let got = m.access_span(g0, g1, thread, kind, &held, kernel);
                    assert_eq!(
                        (got.changed, got.race_mask),
                        (expect_changed, expect_mask),
                        "{shape} {} case {case}",
                        kernel.name()
                    );
                    assert_eq!(m, scalar, "{shape} {} case {case} words", kernel.name());
                }
            }
        }
    }

    #[test]
    fn every_granule_count_round_trips_and_clones_between_arms() {
        // Counts 1, 2, 3–4 and 5–8 take the four storage arms; every
        // pair of counts and shapes must clone (fresh and in place) to
        // an equal line, so `clone_from` is as exact as `clone`.
        let lines: Vec<PackedLineMeta> = [BloomShape::B16, BloomShape::B32]
            .into_iter()
            .flat_map(|shape| {
                (0..=MAX_GRANULES).map(move |n| {
                    let mut m = PackedLineMeta::fetched(shape, n, ThreadId(1));
                    for gi in 0..n {
                        m.access(
                            gi,
                            ThreadId(gi as u32),
                            AccessKind::Write,
                            &BloomVector::empty(shape),
                        );
                    }
                    m
                })
            })
            .collect();
        for src in &lines {
            assert_eq!(&src.clone(), src);
            for dst in &lines {
                let mut d = dst.clone();
                d.clone_from(src);
                assert_eq!(&d, src);
                assert_eq!((d.len(), d.shape()), (src.len(), src.shape()));
                for gi in 0..src.len() {
                    assert_eq!(d.word(gi), src.word(gi));
                }
            }
        }
    }

    #[test]
    fn access_span_empty_span_is_a_noop() {
        let shape = BloomShape::B16;
        let mut m = PackedLineMeta::fetched(shape, 4, ThreadId(0));
        let before = m.clone();
        let out = m.access_span(
            2,
            2,
            ThreadId(1),
            AccessKind::Write,
            &BloomVector::full(shape),
            LaneKernel::Scalar,
        );
        assert_eq!(
            out,
            SpanAccess {
                changed: false,
                race_mask: 0
            }
        );
        assert_eq!(m, before);
    }

    #[test]
    fn flash_operations_match_their_per_granule_equivalents() {
        let shape = BloomShape::B16;
        let mut packed = PackedLineMeta::virgin(shape, 4);
        let mut reference: Vec<GranuleMeta<BloomVector>> = (0..4)
            .map(|i| GranuleMeta {
                state: LState::decode(i as u8 & 3),
                owner: (i % 2 == 1).then_some(ThreadId(i as u32 / 2)),
                candidate: BloomVector::from_bits(shape, 0x0F0F ^ (i as u64)),
            })
            .collect();
        for (gi, g) in reference.iter().enumerate() {
            packed.set_granule(gi, g);
        }

        let mut forked = packed.clone();
        let mut forked_ref = reference.clone();
        forked.fork_transfer_all(ThreadId(0));
        for g in &mut forked_ref {
            crate::fork_transfer(g, ThreadId(0));
        }
        for (gi, g) in forked_ref.iter().enumerate() {
            assert_eq!(forked.granule(gi), *g);
        }

        packed.barrier_reset_all();
        for g in &mut reference {
            g.barrier_reset(shape);
        }
        for (gi, g) in reference.iter().enumerate() {
            assert_eq!(packed.granule(gi), *g);
        }
    }

    #[test]
    fn flip_bit_breaks_parity_and_degrade_restores_it() {
        let shape = BloomShape::B16;
        let mut m = PackedLineMeta::fetched(shape, 1, ThreadId(0));
        assert!(m.parity_ok(0));
        m.flip_bit(0, 5);
        assert!(!m.parity_ok(0), "a strike leaves the stored parity stale");
        m.degrade(0);
        assert!(m.parity_ok(0));
        assert_eq!(m.granule(0), GranuleMeta::virgin(shape));

        // State-bit flips address bits [V, V+2).
        let mut s = PackedLineMeta::virgin(shape, 1);
        s.flip_bit(0, shape.total_bits());
        assert_eq!(s.state(0), LState::Exclusive);
        assert!(!s.parity_ok(0));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn flip_bit_rejects_parity_and_owner_bits() {
        let mut m = PackedLineMeta::virgin(BloomShape::B16, 1);
        m.flip_bit(0, BloomShape::B16.total_bits() + 2);
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn too_many_granules_rejected() {
        let _ = PackedLineMeta::virgin(BloomShape::B16, MAX_GRANULES + 1);
    }

    #[test]
    fn word_equality_is_logical_equality() {
        let shape = BloomShape::B16;
        let a = PackedLineMeta::fetched(shape, 2, ThreadId(1));
        let mut b = PackedLineMeta::fetched(shape, 2, ThreadId(1));
        assert_eq!(a, b);
        b.set_granule(
            1,
            &GranuleMeta {
                state: LState::Exclusive,
                owner: Some(ThreadId(2)),
                candidate: BloomVector::full(shape),
            },
        );
        assert_ne!(a, b, "owner changes are visible to the word compare");
    }
}
