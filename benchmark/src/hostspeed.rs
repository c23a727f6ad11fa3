//! How fast the host is right now: a fixed single-threaded kernel, timed
//! while nothing else of the benchmark runs. On the reference host the
//! same kernel takes 25 % more or less from one minute to the next, and
//! every time-based metric moves with it; `/proc/stat`'s steal stays under
//! 1 % throughout, so this is the noise diagnostic that tells a slow
//! repetition from a slow host.

use std::hint::black_box;
use std::time::Instant;

/// Table the kernel walks: 1 MiB, so it lives in the L2 cache and the
/// kernel is bound by the core's clock rather than by memory.
const TABLE_WORDS: usize = 1 << 17;

/// Steps of one timed pass (about 3 ms).
const STEPS: usize = 1_000_000;

/// Passes per reading; the fastest counts, so a pass that was preempted
/// does not.
const PASSES: usize = 3;

/// Milliseconds the kernel takes now.
pub fn kernel_ms() -> f64 {
    let mut table: Vec<u64> = (0..TABLE_WORDS as u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    let mut x: u64 = 88_172_645_463_325_252;
    let mut best = f64::INFINITY;
    for _ in 0..PASSES {
        let started = Instant::now();
        let mut acc = 0u64;
        for _ in 0..STEPS {
            // xorshift64 picks the next slot; each step reads and writes it.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = x as usize & (TABLE_WORDS - 1);
            acc = acc.wrapping_add(table[i]);
            table[i] = acc ^ x;
        }
        black_box(acc);
        best = best.min(started.elapsed().as_secs_f64() * 1e3);
    }
    best
}

#[cfg(test)]
mod tests {
    #[test]
    fn kernel_takes_measurable_time() {
        let ms = super::kernel_ms();
        assert!(ms > 0.0 && ms < 1_000.0, "kernel took {ms} ms");
    }
}
