//! Host-speed calibration: a benchmark-owned kernel timed around every
//! measured operation, so that an operation's time can be scaled to a
//! quiet host.
//!
//! On a shared host the same work runs up to 2× slower for minutes at a
//! time while the measuring thread stays on its CPU (its CPU time equals
//! its wall time, and a load on the container's other CPU changes
//! nothing): whatever the host runs beside it competes for the core.
//! Neither the fastest nor the median repetition of a run escapes such a
//! phase, so two sets of runs an hour apart disagree by more than any
//! bound could allow. The kernel below — a small register-machine
//! interpreter over a fixed program and a 2 MiB data array, with the
//! dispatch, data-dependent branches and cache-sized memory of the
//! simulator — slows down in the same phases. Each operation's time is
//! divided by the mean of the kernel's slowdown just before and just
//! after it.
//!
//! The kernel is the benchmark's own code: no change to the program moves
//! it, so a faster program reads faster after scaling too. It under-reacts
//! (a phase that slows the kernel 1.3× slows `run_trace` about 1.5×), so
//! scaling narrows the spread between runs rather than removing it.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// Seconds the kernel takes on a quiet core of the host the bounds were
/// set on (a 2-vCPU Intel Xeon VM), so scaled times read close to host
/// times there. Only ratios between runs of the benchmark matter.
pub const REFERENCE_SECONDS: f64 = 0.0009;

const MEM_WORDS: usize = 1 << 18;
const PROGRAM_LEN: usize = 256;
const STEPS: usize = 400_000;

#[derive(Clone, Copy)]
enum Op {
    Add(u8, u8, u8),
    Xor(u8, u8, u8),
    Mul(u8, u8, u8),
    Shr(u8, u8, u8),
    Load(u8, u8),
    Store(u8, u8),
    BranchOdd(u8, u16),
    Jump(u16),
}

/// The fixed kernel program, from a fixed xorshift stream.
fn program() -> Vec<Op> {
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    (0..PROGRAM_LEN)
        .map(|pc| {
            let r = next();
            let reg = |shift: u32| (r >> shift) as u8 & 7;
            let (a, b, c) = (reg(8), reg(16), reg(24));
            let target = ((pc as u64 + 1 + (r >> 32) % 24) % PROGRAM_LEN as u64) as u16;
            match r % 16 {
                0..=2 => Op::Add(a, b, c),
                3..=4 => Op::Xor(a, b, c),
                5 => Op::Mul(a, b, c),
                6 => Op::Shr(a, b, c),
                7..=9 => Op::Load(a, b),
                10..=11 => Op::Store(a, b),
                12..=14 => Op::BranchOdd(a, target),
                _ => Op::Jump(target),
            }
        })
        .collect()
}

/// Seconds one run of the kernel takes now (its set-up excluded).
fn kernel_seconds() -> f64 {
    static PROGRAM: OnceLock<Vec<Op>> = OnceLock::new();
    let prog = PROGRAM.get_or_init(program);
    let mut mem = vec![0u64; MEM_WORDS];
    let mut regs = [1u64, 3, 5, 7, 11, 13, 17, 19];
    let t = Instant::now();
    let mut pc = 0usize;
    for _ in 0..STEPS {
        match prog[pc] {
            Op::Add(a, b, c) => {
                regs[a as usize] = regs[b as usize].wrapping_add(regs[c as usize]);
            }
            Op::Xor(a, b, c) => {
                regs[a as usize] = regs[b as usize] ^ regs[c as usize].rotate_left(7);
            }
            Op::Mul(a, b, c) => {
                regs[a as usize] = regs[b as usize].wrapping_mul(regs[c as usize] | 1);
            }
            Op::Shr(a, b, c) => {
                regs[a as usize] = regs[b as usize] >> (regs[c as usize] & 15);
            }
            Op::Load(a, b) => regs[a as usize] = mem[regs[b as usize] as usize % MEM_WORDS],
            Op::Store(a, b) => mem[regs[b as usize] as usize % MEM_WORDS] ^= regs[a as usize],
            Op::BranchOdd(a, target) => {
                if regs[a as usize] & 1 == 1 {
                    pc = target as usize;
                    continue;
                }
            }
            Op::Jump(target) => {
                regs[0] = regs[0].wrapping_add(0x9e37_79b9);
                pc = target as usize;
                continue;
            }
        }
        pc = (pc + 1) % PROGRAM_LEN;
    }
    black_box((&regs, &mem));
    t.elapsed().as_secs_f64()
}

/// How much slower than [`REFERENCE_SECONDS`] the host runs the kernel now.
fn slowdown() -> f64 {
    kernel_seconds() / REFERENCE_SECONDS
}

/// Times `f` between two runs of the kernel; returns its host seconds,
/// the mean slowdown around it, and its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, f64, T) {
    let before = slowdown();
    let t = Instant::now();
    let out = f();
    let secs = t.elapsed().as_secs_f64();
    (secs, (before + slowdown()) / 2.0, out)
}
