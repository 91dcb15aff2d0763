//! The benchmark's host clocks.
//!
//! Wall time is unusable on a shared 2-vCPU guest (a busy neighbour
//! doubles it). CPU time excludes steal but still drifts by a third over
//! minutes: a vCPU flips, every 10-500 ms, between a fast state and one up
//! to twice slower, depending on what the host runs beside it. Every
//! host-timed call is therefore charged in CPU time and divided by the
//! speed of a reference kernel - a fixed L1-resident multiply-add chain -
//! sampled between single-thread calls on the calling thread and, for
//! `train()`, beside it on as many threads as it has ranks. The result is
//! in `ref` seconds: seconds on an undisturbed reference core.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// CPU seconds one reference sample takes on a quiet core of the host the
/// benchmark was sized on (the fast plateau of a quiet run). It only fixes
/// the unit of the `ref` clock: changing it rescales every host metric by
/// the same factor on both sides of a comparison.
pub const REF_NOMINAL_S: f64 = 0.54e-3;

/// Reference buffer: 4096 f32 = 16 KB, resident in any L1d.
const REF_ELEMS: usize = 4096;
/// Passes over the buffer per sample; fixed, so a sample is fixed work.
const REF_PASSES: usize = 2048;
/// The concurrent sampler takes shorter samples, this many to one full
/// one, so that a time slice of it holds several.
const SHORT_PER_FULL: usize = 8;
/// Niceness of the concurrent sampler: about a tenth of the CPU while the
/// call it watches is runnable.
const SAMPLER_NICE: i32 = 10;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn setpriority(which: i32, who: u32, prio: i32) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const PRIO_PROCESS: i32 = 0;

fn cpu_clock_s(clock_id: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target) and both CPU clocks are always
    // available to the calling process and thread.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds consumed by every thread of this process so far: the work
/// done by whichever threads ran, rank threads inside `train()` included.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds consumed by the calling thread so far.
fn thread_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// The reference buffer, cache-line aligned wherever it lives (heap or a
/// sampler thread's stack), so that no vector access straddles a line.
#[repr(align(64))]
struct RefBuf([f32; REF_ELEMS]);

impl RefBuf {
    fn new() -> Self {
        RefBuf([0.5; REF_ELEMS])
    }
}

/// `passes` multiply-add passes over the reference buffer.
fn ref_kernel(buf: &mut RefBuf, passes: usize) {
    for _ in 0..passes {
        for x in buf.0.iter_mut() {
            // Contracting map with fixed point 1.0: values stay normal
            // floats forever, so every pass costs the same.
            *x = *x * 0.999 + 0.001;
        }
        black_box(&mut buf.0);
    }
}

/// CPU seconds at the measured reference sample time -> `ref` seconds. A
/// call and its reference slowed by the same factor give the same result.
pub fn normalise(cpu_s: f64, ref_sample_s: f64) -> f64 {
    cpu_s * REF_NOMINAL_S / ref_sample_s
}

/// The reference kernel and the log of every sample it took this run.
pub struct RefClock {
    buf: Box<RefBuf>,
    /// CPU seconds of every sample, in order: the run's own record of
    /// how fast, and how steadily, the core ran.
    pub samples: Vec<f64>,
}

impl RefClock {
    pub fn new() -> Self {
        RefClock {
            buf: Box::new(RefBuf::new()),
            samples: Vec::with_capacity(1 << 14),
        }
    }

    /// One reference sample: a fixed chain of f32 multiply-adds over the
    /// 16 KB buffer, timed on the CPU clock.
    pub fn sample(&mut self) -> f64 {
        let t0 = process_cpu_s();
        ref_kernel(&mut self.buf, REF_PASSES);
        let dt = process_cpu_s() - t0;
        self.samples.push(dt);
        dt
    }
}

/// One timed segment: a call, or a fixed group of calls, with the
/// reference samples taken around, between and beside them.
#[derive(Clone, Copy, Debug, Default)]
pub struct Segment {
    /// CPU seconds of the timed calls.
    pub cpu_s: f64,
    /// Wall seconds of the timed calls (per-layer record only).
    pub wall_s: f64,
    /// CPU seconds of this segment's reference samples and how many full
    /// samples they amount to (a short sample counts as its share of one).
    pub ref_sum_s: f64,
    pub ref_n: f64,
}

impl Segment {
    /// Start a segment with `lead` reference samples.
    pub fn start(rc: &mut RefClock, lead: usize) -> Self {
        let mut seg = Segment::default();
        seg.reference(rc, lead);
        seg
    }

    /// Time one single-thread call into the program.
    pub fn call<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let wall = Instant::now();
        let c0 = process_cpu_s();
        let out = f();
        self.cpu_s += process_cpu_s() - c0;
        self.wall_s += wall.elapsed().as_secs_f64();
        out
    }

    /// Time one long call that runs `threads` threads of its own and
    /// cannot be cut into slices (`train()`), with the reference kernel
    /// running beside it on as many threads: each takes short samples at
    /// low priority for as long as the call lasts, whenever a thread of the
    /// call sleeps and for a time slice every few milliseconds otherwise,
    /// so the segment's reference covers the very interval, and the very
    /// CPUs, the call ran on. The samplers' own CPU time is taken off the
    /// call's.
    pub fn call_sampled<R>(
        &mut self,
        rc: &mut RefClock,
        threads: usize,
        f: impl FnOnce() -> R,
    ) -> R {
        let stop = AtomicBool::new(false);
        let sampler = || {
            // SAFETY: plain syscall wrapper; `who` 0 is the calling
            // thread. A refusal only costs the sampler its low priority,
            // so the result is not checked.
            unsafe { setpriority(PRIO_PROCESS, 0, SAMPLER_NICE) };
            let mut buf = RefBuf::new();
            let mut shorts: Vec<f64> = Vec::with_capacity(1 << 12);
            let c0 = thread_cpu_s();
            while !stop.load(Ordering::Relaxed) {
                let t0 = thread_cpu_s();
                ref_kernel(&mut buf, REF_PASSES / SHORT_PER_FULL);
                shorts.push(thread_cpu_s() - t0);
            }
            (shorts, thread_cpu_s() - c0)
        };
        let (out, cpu_s, wall_s, shorts) = std::thread::scope(|scope| {
            let samplers: Vec<_> = (0..threads).map(|_| scope.spawn(sampler)).collect();
            let wall = Instant::now();
            let c0 = process_cpu_s();
            let out = f();
            stop.store(true, Ordering::Relaxed);
            let mut cpu_s = process_cpu_s() - c0;
            let wall_s = wall.elapsed().as_secs_f64();
            let mut shorts = Vec::new();
            for s in samplers {
                let (taken, sampler_cpu_s) = s.join().expect("sampler thread panicked");
                cpu_s -= sampler_cpu_s;
                shorts.push(taken);
            }
            (out, cpu_s, wall_s, shorts)
        });
        self.cpu_s += cpu_s;
        self.wall_s += wall_s;
        for taken in &shorts {
            // Every short sample counts towards the segment's reference;
            // whole samples' worth of them enter the run's log.
            self.ref_sum_s += taken.iter().sum::<f64>();
            self.ref_n += taken.len() as f64 / SHORT_PER_FULL as f64;
            rc.samples.extend(
                taken
                    .chunks_exact(SHORT_PER_FULL)
                    .map(|full| full.iter().sum::<f64>()),
            );
        }
        out
    }

    /// Take `n` reference samples on the calling thread.
    pub fn reference(&mut self, rc: &mut RefClock, n: usize) {
        for _ in 0..n {
            self.ref_sum_s += rc.sample();
        }
        self.ref_n += n as f64;
    }

    /// Mean reference sample time over the segment.
    pub fn ref_sample_s(&self) -> f64 {
        assert!(self.ref_n > 0.0, "segment without a reference sample");
        self.ref_sum_s / self.ref_n
    }

    /// The timed calls' duration in `ref` seconds.
    pub fn ref_s(&self) -> f64 {
        normalise(self.cpu_s, self.ref_sample_s())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_slowdown_same_ref_seconds() {
        let quiet = Segment {
            cpu_s: 1.2,
            wall_s: 1.2,
            ref_sum_s: 8.0 * REF_NOMINAL_S,
            ref_n: 8.0,
        };
        // A neighbour slows the core 1.5x: the work and every reference
        // sample take 1.5x the CPU time.
        let busy = Segment {
            cpu_s: 1.2 * 1.5,
            wall_s: 3.0,
            ref_sum_s: 8.0 * REF_NOMINAL_S * 1.5,
            ref_n: 8.0,
        };
        assert!((quiet.ref_s() - 1.2).abs() < 1e-12);
        assert!((busy.ref_s() - quiet.ref_s()).abs() < 1e-12);
        // Only the work got slower: that is a real regression and shows.
        let slower = Segment {
            cpu_s: 1.2 * 1.5,
            ..quiet
        };
        assert!((slower.ref_s() - 1.8).abs() < 1e-12);
    }

    #[test]
    fn sampled_call_takes_reference_beside_it() {
        let mut rc = RefClock::new();
        let mut seg = Segment::default();
        // Like `train()`: busy for a while, then asleep, which is when the
        // low-priority samplers are sure of a CPU.
        let x = seg.call_sampled(&mut rc, 2, || {
            let t0 = Instant::now();
            let mut x = 0u64;
            while t0.elapsed().as_millis() < 50 {
                x = black_box(x + 1);
            }
            std::thread::sleep(std::time::Duration::from_millis(150));
            x
        });
        assert!(x > 0);
        assert!(seg.ref_n > 0.0, "samplers never ran");
        assert!(rc.samples.len() as f64 <= seg.ref_n);
        // No upper limit on CPU time: the process clock also counts the
        // tests that run beside this one.
        assert!(seg.cpu_s > 0.0 && seg.wall_s >= 0.2);
        assert!(seg.ref_s() > 0.0);
    }

    #[test]
    fn segment_accumulates_calls_and_samples() {
        let mut rc = RefClock::new();
        let mut seg = Segment::start(&mut rc, 2);
        let x = seg.call(|| (0..100_000u64).map(black_box).sum::<u64>());
        seg.reference(&mut rc, 1);
        assert_eq!(x, 4_999_950_000);
        assert_eq!(seg.ref_n, 3.0);
        assert_eq!(rc.samples.len(), 3);
        assert!(seg.cpu_s >= 0.0 && seg.ref_sum_s > 0.0 && seg.ref_s() >= 0.0);
    }
}
