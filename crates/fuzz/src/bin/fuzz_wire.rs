//! Fuzzes the `HARDSRV1` frame decoders ([`hard_trace::wire`]): the
//! blocking [`read_frame`] and the push-style [`FrameAssembler`] the
//! async server reads with.
//!
//! Invariants: arbitrary bytes on the wire may produce `WireError`s,
//! never a panic — a hostile client must not be able to crash the
//! serve tier's reader. Differentially, the post-handshake bytes
//! pushed into a `FrameAssembler` at split points derived from the
//! input yield exactly the frames `read_frame` pulls, the same
//! `UnknownKind`/`TooLarge` error where `read_frame` returns one, and,
//! where `read_frame` hits EOF mid-frame, the unconsumed tail as
//! nonzero `pending()` bytes.

use hard_trace::codec::fnv1a;
use hard_trace::wire::{
    decode_busy, encode_busy, read_frame, read_handshake, write_frame, write_handshake, Frame,
    FrameAssembler, FrameKind, WireError,
};
use hard_types::Xoshiro256;
use std::process::ExitCode;

/// Frames larger than this are rejected by the decoder under test —
/// the same order of bound `hard-serve` runs with.
const MAX_PAYLOAD: u32 = 1 << 20;

fn target(data: &[u8]) {
    let mut r = std::io::Cursor::new(data);
    // A session's worth of reads: handshake, then frames to exhaustion.
    let _ = read_handshake(&mut r);
    let post = &data[r.position() as usize..];
    let mut pulled = Vec::new();
    let end = loop {
        match read_frame(&mut r, MAX_PAYLOAD) {
            Ok(frame) => {
                let _ = frame.text();
                if frame.kind == FrameKind::Busy {
                    let _ = decode_busy(&frame.payload);
                }
                pulled.push(frame);
            }
            Err(e) => break e,
        }
    };
    assemble_like_read_frame(data, post, &pulled, &end);
    // The busy codec also accepts raw payloads directly.
    let _ = decode_busy(data);
    let _ = FrameKind::from_byte(data.first().copied().unwrap_or(0));
}

/// Pushes `post` into a [`FrameAssembler`] in input-seeded pieces and
/// checks it against what [`read_frame`] made of the same bytes.
fn assemble_like_read_frame(data: &[u8], post: &[u8], pulled: &[Frame], end: &WireError) {
    let mut rng = Xoshiro256::seed_from_u64(fnv1a(data));
    let mut asm = FrameAssembler::new();
    let mut pushed = Vec::new();
    let mut failed = None;
    let mut rest = post;
    'feed: while !rest.is_empty() {
        let (piece, tail) = rest.split_at(1 + rng.gen_index(rest.len().min(64)));
        rest = tail;
        asm.push(piece);
        loop {
            match asm.next_frame(MAX_PAYLOAD) {
                Ok(Some(frame)) => pushed.push(frame),
                Ok(None) => break,
                Err(e) => {
                    failed = Some(e);
                    break 'feed;
                }
            }
        }
    }
    assert_eq!(pushed, pulled, "assembler frames diverged from read_frame");
    match (end, &failed) {
        (WireError::UnknownKind(a), Some(WireError::UnknownKind(b))) => assert_eq!(a, b),
        (
            WireError::TooLarge { len, max },
            Some(WireError::TooLarge {
                len: len_b,
                max: max_b,
            }),
        ) => assert_eq!((len, max), (len_b, max_b)),
        (WireError::Io(_), None) => {
            // Clean EOF between frames leaves nothing behind; EOF
            // mid-frame leaves exactly the partial frame buffered.
            let consumed: usize = pulled.iter().map(|f| 5 + f.payload.len()).sum();
            assert_eq!(asm.pending(), post.len() - consumed, "pending bytes");
        }
        (end, failed) => panic!("read_frame ended with {end:?}, the assembler with {failed:?}"),
    }
}

/// Well-formed sessions: mutations of valid traffic reach deeper than
/// random bytes.
fn seeds() -> Vec<Vec<u8>> {
    let mut session = Vec::new();
    write_handshake(&mut session).expect("vec write");
    write_frame(&mut session, FrameKind::Begin, b"hard").expect("vec write");
    write_frame(&mut session, FrameKind::Data, &[0x55u8; 48]).expect("vec write");
    write_frame(&mut session, FrameKind::End, b"").expect("vec write");
    write_frame(&mut session, FrameKind::Health, b"").expect("vec write");

    let mut busy = Vec::new();
    write_handshake(&mut busy).expect("vec write");
    write_frame(
        &mut busy,
        FrameKind::Busy,
        &encode_busy(250, "queue saturated"),
    )
    .expect("vec write");
    write_frame(&mut busy, FrameKind::Report, b"label=hard\nevents=12\n").expect("vec write");

    vec![session, busy]
}

fn main() -> ExitCode {
    hard_fuzz::fuzz_main("fuzz_wire", seeds(), target)
}
