//! Deterministic mutational fuzzing without cargo-fuzz.
//!
//! The build environment has no registry access, so the usual
//! `cargo fuzz` + libFuzzer stack is unavailable. This crate is the
//! in-tree stand-in: a seeded [`hard_types::Xoshiro256`]-driven
//! mutation loop that hammers a target function with corrupted inputs
//! and treats any panic as a crash. It mirrors the cargo-fuzz CLI
//! surface the CI job would otherwise use:
//!
//! ```text
//! fuzz_wire [--runs N] [--max-total-time SECS] [--seed N]
//!           [--max-len BYTES] [--crash-dir DIR] [--repro FILE] [--quiet]
//! ```
//!
//! Targets must be *total* over `&[u8]`: malformed input may return an
//! error, never panic. When a panic escapes, the offending input is
//! written to `--crash-dir` as `crash-<fnv>.bin` and the process exits
//! nonzero; `--repro FILE` replays a saved crash byte-for-byte.
//!
//! Determinism: a given `(target, seed, runs)` triple explores the
//! same input sequence on every machine, so CI failures reproduce
//! locally with the printed seed. The wall-clock bound
//! (`--max-total-time`, the flag CI's smoke job sets) is the only
//! nondeterministic cut-off, and it only ever *shortens* the run.

#![warn(missing_docs)]

use hard_trace::codec::fnv1a;
use hard_types::Xoshiro256;
use std::io::Write as _;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// How a fuzz binary runs: bounds, seed, and the crash-artifact
/// directory.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Mutated inputs to execute (the `--runs` bound).
    pub runs: u64,
    /// Wall-clock bound; the loop stops at whichever of `runs` /
    /// `max_total_time` trips first.
    pub max_total_time: Duration,
    /// Seeds the mutation schedule.
    pub seed: u64,
    /// Largest input the mutator will grow to.
    pub max_len: usize,
    /// Where crashing inputs are written.
    pub crash_dir: PathBuf,
    /// Replay this file once instead of fuzzing.
    pub repro: Option<PathBuf>,
    /// Suppress progress lines (crashes still print).
    pub quiet: bool,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig {
            runs: 200_000,
            max_total_time: Duration::from_secs(60),
            seed: 0x5EED_F022,
            max_len: 4096,
            crash_dir: PathBuf::from("fuzz-crashes"),
            repro: None,
            quiet: false,
        }
    }
}

impl FuzzConfig {
    /// Parses the process arguments.
    ///
    /// # Errors
    ///
    /// Describes the first unknown flag or malformed value.
    pub fn from_args() -> Result<FuzzConfig, String> {
        FuzzConfig::from_args_over(FuzzConfig::default())
    }

    /// [`FuzzConfig::from_args`] over a target's own defaults.
    ///
    /// # Errors
    ///
    /// Describes the first unknown flag or malformed value.
    pub fn from_args_over(mut cfg: FuzzConfig) -> Result<FuzzConfig, String> {
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
            match a.as_str() {
                "--runs" => {
                    cfg.runs = value("--runs")?
                        .parse()
                        .map_err(|e| format!("bad --runs: {e}"))?;
                }
                "--max-total-time" => {
                    cfg.max_total_time = Duration::from_secs(
                        value("--max-total-time")?
                            .parse()
                            .map_err(|e| format!("bad --max-total-time: {e}"))?,
                    );
                }
                "--seed" => {
                    cfg.seed = value("--seed")?
                        .parse()
                        .map_err(|e| format!("bad --seed: {e}"))?;
                }
                "--max-len" => {
                    cfg.max_len = value("--max-len")?
                        .parse()
                        .map_err(|e| format!("bad --max-len: {e}"))?;
                }
                "--crash-dir" => cfg.crash_dir = PathBuf::from(value("--crash-dir")?),
                "--repro" => cfg.repro = Some(PathBuf::from(value("--repro")?)),
                "--quiet" => cfg.quiet = true,
                other => return Err(format!("unknown argument: {other}")),
            }
        }
        Ok(cfg)
    }
}

/// Values that historically break length and index arithmetic.
const INTERESTING: [u64; 12] = [
    0,
    1,
    7,
    8,
    15,
    16,
    0x7F,
    0xFF,
    0xFFFF,
    u32::MAX as u64,
    u32::MAX as u64 - 15,
    u64::MAX,
];

/// Applies one random mutation in place.
fn mutate(input: &mut Vec<u8>, rng: &mut Xoshiro256, max_len: usize) {
    match rng.gen_range(7) {
        // Flip one bit.
        0 if !input.is_empty() => {
            let i = rng.gen_index(input.len());
            input[i] ^= 1u8 << rng.gen_range(8);
        }
        // Overwrite one byte.
        1 if !input.is_empty() => {
            let i = rng.gen_index(input.len());
            input[i] = rng.next_u64() as u8;
        }
        // Plant an interesting integer (LE, 1/2/4/8 bytes wide).
        2 if !input.is_empty() => {
            let v = INTERESTING[rng.gen_index(INTERESTING.len())];
            let width = 1usize << rng.gen_range(4);
            let i = rng.gen_index(input.len());
            for (k, b) in v.to_le_bytes().iter().take(width).enumerate() {
                if let Some(slot) = input.get_mut(i + k) {
                    *slot = *b;
                }
            }
        }
        // Truncate.
        3 if !input.is_empty() => {
            input.truncate(rng.gen_index(input.len()));
        }
        // Remove a span.
        4 if input.len() >= 2 => {
            let from = rng.gen_index(input.len() - 1);
            let to = from + 1 + rng.gen_index(input.len() - from - 1).min(32);
            input.drain(from..to);
        }
        // Insert random bytes.
        5 => {
            let at = rng.gen_index(input.len() + 1);
            let n = 1 + rng.gen_index(16);
            for k in 0..n {
                if input.len() >= max_len {
                    break;
                }
                input.insert(at + k, rng.next_u64() as u8);
            }
        }
        // Duplicate a span to the end (grows structure-shaped data).
        _ => {
            if input.is_empty() {
                input.push(rng.next_u64() as u8);
            } else {
                let from = rng.gen_index(input.len());
                let n = (1 + rng.gen_index(64)).min(input.len() - from);
                let span: Vec<u8> = input[from..from + n].to_vec();
                let room = max_len.saturating_sub(input.len());
                input.extend_from_slice(&span[..n.min(room)]);
            }
        }
    }
    input.truncate(max_len);
}

/// Runs `target` once, capturing any panic.
fn survives(target: &dyn Fn(&[u8]), input: &[u8]) -> Result<(), String> {
    match panic::catch_unwind(AssertUnwindSafe(|| target(input))) {
        Ok(()) => Ok(()),
        Err(payload) => Err(payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into())),
    }
}

/// The fuzz loop every `fuzz_*` binary wraps: parse flags, then mutate
/// the seed corpus against `target` until a bound trips or a panic
/// escapes. Returns the process exit code.
///
/// `seeds` should be well-formed inputs (real corpora, real frames):
/// mutations of valid data reach far deeper into a decoder than random
/// bytes.
pub fn fuzz_main(name: &str, seeds: Vec<Vec<u8>>, target: impl Fn(&[u8])) -> ExitCode {
    fuzz_main_over(name, FuzzConfig::default(), seeds, target)
}

/// [`fuzz_main`] with the target's own flag defaults, for targets
/// whose interesting inputs outgrow [`FuzzConfig::default`].
pub fn fuzz_main_over(
    name: &str,
    defaults: FuzzConfig,
    seeds: Vec<Vec<u8>>,
    target: impl Fn(&[u8]),
) -> ExitCode {
    let cfg = match FuzzConfig::from_args_over(defaults) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: {name} [--runs N] [--max-total-time SECS] [--seed N] \
                 [--max-len BYTES] [--crash-dir DIR] [--repro FILE] [--quiet]"
            );
            return ExitCode::FAILURE;
        }
    };

    // The default panic hook prints a backtrace per caught panic; the
    // loop catches thousands on a crashing build, so silence it and
    // report through the crash artifact instead.
    let default_hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let code = fuzz_loop(name, &cfg, seeds, &target);
    panic::set_hook(default_hook);
    code
}

fn fuzz_loop(
    name: &str,
    cfg: &FuzzConfig,
    mut pool: Vec<Vec<u8>>,
    target: &dyn Fn(&[u8]),
) -> ExitCode {
    if let Some(path) = &cfg.repro {
        let input = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("error: cannot read {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        return match survives(target, &input) {
            Ok(()) => {
                println!("{name}: {} did not panic", path.display());
                ExitCode::SUCCESS
            }
            Err(msg) => {
                eprintln!("{name}: {} PANICS: {msg}", path.display());
                ExitCode::FAILURE
            }
        };
    }

    // The seeds themselves must pass before anything is mutated.
    pool.push(Vec::new());
    for seed_input in &pool {
        if let Err(msg) = survives(target, seed_input) {
            eprintln!("{name}: seed input panics before any mutation: {msg}");
            return crash(name, cfg, seed_input, &msg);
        }
    }

    let mut rng = Xoshiro256::seed_from_u64(cfg.seed);
    let started = Instant::now();
    let mut executed: u64 = 0;
    while executed < cfg.runs && started.elapsed() < cfg.max_total_time {
        let mut input = pool[rng.gen_index(pool.len())].clone();
        for _ in 0..1 + rng.gen_range(8) {
            mutate(&mut input, &mut rng, cfg.max_len);
        }
        if let Err(msg) = survives(target, &input) {
            return crash(name, cfg, &input, &msg);
        }
        executed += 1;
        if !cfg.quiet && executed.is_multiple_of(100_000) {
            eprintln!(
                "{name}: {executed} runs, {:.1}s elapsed",
                started.elapsed().as_secs_f64()
            );
        }
    }
    println!(
        "{name}: ok — {executed} runs in {:.1}s (seed {}), no panics",
        started.elapsed().as_secs_f64(),
        cfg.seed
    );
    ExitCode::SUCCESS
}

/// Persists a crashing input and prints the repro command.
fn crash(name: &str, cfg: &FuzzConfig, input: &[u8], msg: &str) -> ExitCode {
    let file = cfg
        .crash_dir
        .join(format!("crash-{:016x}.bin", fnv1a(input)));
    let saved = std::fs::create_dir_all(&cfg.crash_dir)
        .and_then(|()| std::fs::File::create(&file).and_then(|mut f| f.write_all(input)));
    eprintln!("{name}: CRASH after panic: {msg}");
    match saved {
        Ok(()) => eprintln!(
            "{name}: input saved; reproduce with: {name} --repro {}",
            file.display()
        ),
        Err(e) => eprintln!(
            "{name}: could not save crash input ({e}); {} bytes: {:02x?}",
            input.len(),
            &input[..input.len().min(256)]
        ),
    }
    ExitCode::FAILURE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutation_schedule_is_deterministic() {
        let gen = |seed: u64| {
            let mut rng = Xoshiro256::seed_from_u64(seed);
            let mut input = b"HARDSRV1 deterministic".to_vec();
            for _ in 0..64 {
                mutate(&mut input, &mut rng, 128);
            }
            input
        };
        assert_eq!(gen(42), gen(42));
        assert_ne!(gen(42), gen(43), "different seeds explore differently");
    }

    #[test]
    fn survives_catches_panics() {
        let boom = |data: &[u8]| {
            assert!(data.first() != Some(&0xAA), "planted crash");
        };
        assert!(survives(&boom, b"ok").is_ok());
        let err = survives(&boom, &[0xAA]).unwrap_err();
        assert!(err.contains("planted crash"), "got: {err}");
    }

    #[test]
    fn mutate_respects_max_len() {
        let mut rng = Xoshiro256::seed_from_u64(7);
        let mut input = vec![0u8; 16];
        for _ in 0..10_000 {
            mutate(&mut input, &mut rng, 64);
            assert!(input.len() <= 64);
        }
    }
}
