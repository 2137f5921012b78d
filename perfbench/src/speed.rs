//! The host-speed reference: a fixed hash-set kernel that belongs to the
//! benchmark, timed in a batch before and after every iteration on each
//! CPU the workload may run on.
//!
//! On the shared 2-vCPU host the benchmark was tuned on, the speed of
//! everything but an integer-only loop stepped up and down by 20–40%:
//! for a few seconds at a time, and for minutes at a time. Each vCPU
//! steps on its own: timed at the same moment, the kernel took 0.025 s on
//! one and 0.017 s on the other, and a few seconds later 0.015 s and
//! 0.021 s. Kernel timings taken back to back on one vCPU within half a
//! second agree to about 5%. So each iteration's CPU seconds are divided
//! by the kernel's time around it, on the CPUs the iteration used: a
//! single-threaded workload is pinned to one CPU for the whole run, and
//! a parallel one is compared with the mean over all of them. The kernel
//! inserts into and probes a hash set, as the explorer and the
//! simulators' maps do; over ten minutes of 30-second windows, its time
//! followed the explorer's and the Fig. 4 drive's more closely than a
//! floating-point, a pointer-chasing or an integer loop did.
//!
//! The kernel calls no code of the repository, so a change to the program
//! cannot move it.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::BuildHasherDefault;
use std::hint::black_box;

use crate::host::process_cpu_s;
use crate::stats::median;

/// The kernel's CPU seconds at the nominal host speed. Timings are
/// rescaled to it: `run_s = raw CPU seconds × NOMINAL_S / kernel time`.
pub const NOMINAL_S: f64 = 0.02;

/// Kernel time kept at this share of the workload's time or above.
pub const SHARE: f64 = 0.1;

/// Keys inserted, then probed, per timing.
const KEYS: usize = 200_000;

/// SplitMix64: a fixed key stream.
fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs the kernel once and returns its process CPU seconds.
pub fn time_kernel() -> f64 {
    let start = process_cpu_s();
    let mut key = 0x2011;
    // SipHash with fixed keys, so every run hashes alike.
    let mut set: HashSet<u64, BuildHasherDefault<DefaultHasher>> = HashSet::default();
    for _ in 0..KEYS {
        set.insert(splitmix(&mut key) & 0xF_FFFF);
    }
    let hits = (0..KEYS)
        .filter(|_| set.contains(&(splitmix(&mut key) & 0xF_FFFF)))
        .count();
    black_box(hits);
    process_cpu_s() - start
}

/// The CPUs a thread may run on: a Linux `cpu_set_t` of 1024 bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuSet([u64; 16]);

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn sched_getcpu() -> i32;
}

impl CpuSet {
    /// The calling thread's CPUs, if the kernel reports them.
    pub fn current() -> Option<Self> {
        let mut set = CpuSet([0; 16]);
        // SAFETY: the mask is a writable buffer of exactly the size passed.
        let rc = unsafe { sched_getaffinity(0, size_of::<Self>(), set.0.as_mut_ptr()) };
        (rc == 0 && set.cpus().next().is_some()).then_some(set)
    }

    /// Only the CPU the calling thread runs on now, if the kernel says.
    pub fn here() -> Option<Self> {
        // SAFETY: takes no arguments and only reads the thread's state.
        let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
        (cpu < 1024).then(|| Self::only(cpu))
    }

    fn only(cpu: usize) -> Self {
        let mut set = CpuSet([0; 16]);
        set.0[cpu / 64] = 1 << (cpu % 64);
        set
    }

    /// The CPUs in the set, ascending.
    pub fn cpus(&self) -> impl Iterator<Item = usize> + '_ {
        (0..1024).filter(|&c| self.0[c / 64] >> (c % 64) & 1 == 1)
    }

    /// Restricts the calling thread (and threads it starts later) to the
    /// set. Returns whether the kernel accepted it.
    pub fn apply(&self) -> bool {
        // SAFETY: the mask is a readable buffer of exactly the size passed.
        unsafe { sched_setaffinity(0, size_of::<Self>(), self.0.as_ptr()) == 0 }
    }
}

/// Kernel timings around a run's iterations: batch `i` was timed just
/// before iteration `i`, and batch `i + 1` just after it. A batch holds
/// rounds; a round times the kernel once on each CPU, in order.
#[derive(Debug, Clone, Default)]
pub struct Reference {
    /// The calling thread's CPUs, restored after every batch.
    home: Option<CpuSet>,
    batches: Vec<Vec<Vec<f64>>>,
    total_s: f64,
}

impl Reference {
    /// A reference for a thread allowed on `home`, or wherever it runs
    /// when the CPUs are unknown.
    pub fn new(home: Option<CpuSet>) -> Self {
        Self {
            home,
            ..Self::default()
        }
    }

    /// Times one batch: at least one round, and more until all the
    /// batches together reach `SHARE` of `work_s`, the workload's CPU
    /// seconds so far.
    pub fn time_batch(&mut self, work_s: f64) {
        let cpus: Vec<Option<CpuSet>> = match self.home {
            Some(home) if home.cpus().nth(1).is_some() => {
                home.cpus().map(|c| Some(CpuSet::only(c))).collect()
            }
            _ => vec![None],
        };
        let mut batch = Vec::new();
        while batch.is_empty() || self.total_s < SHARE * work_s {
            let round: Vec<f64> = cpus
                .iter()
                .map(|cpu| {
                    if let Some(cpu) = cpu {
                        cpu.apply();
                    }
                    time_kernel()
                })
                .collect();
            self.total_s += round.iter().sum::<f64>();
            batch.push(round);
        }
        if let (Some(home), true) = (self.home, cpus.len() > 1) {
            home.apply();
        }
        self.batches.push(batch);
    }

    /// `NOMINAL_S` over the kernel's time around iteration `i`: the mean
    /// over CPUs of its median time on each, in the batches just before
    /// and just after the iteration. Below 1 while the host runs slow; 1
    /// without both batches.
    pub fn factor(&self, i: usize) -> f64 {
        let Some([before, after]) = self.batches.get(i..i + 2) else {
            return 1.0;
        };
        let rounds: Vec<&Vec<f64>> = before.iter().chain(after).collect();
        let per_cpu: Vec<f64> = (0..rounds[0].len())
            .map(|c| median(&rounds.iter().map(|r| r[c]).collect::<Vec<_>>()))
            .collect();
        NOMINAL_S * per_cpu.len() as f64 / per_cpu.iter().sum::<f64>()
    }

    /// Every kernel timing of the run, in order.
    pub fn timings(&self) -> Vec<f64> {
        self.batches.iter().flatten().flatten().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_iteration_is_scaled_by_the_batches_around_it() {
        let r = Reference {
            batches: vec![
                vec![vec![1.0, 3.0]],
                vec![vec![4.0, 1.0], vec![4.0, 1.0], vec![1.0, 1.0]],
                vec![vec![2.0, 5.0]],
            ],
            ..Reference::default()
        };
        // CPU 0: median of 1, 4, 4, 1 is 2.5; CPU 1: of 3, 1, 1, 1 is 1.
        assert_eq!(r.factor(0), NOMINAL_S * 2.0 / 3.5);
        // CPU 0: median of 4, 4, 1, 2 is 3; CPU 1: of 1, 1, 1, 5 is 1.
        assert_eq!(r.factor(1), NOMINAL_S * 2.0 / 4.0);
        assert_eq!(r.factor(2), 1.0);
        assert_eq!(r.timings().len(), 10);
    }

    #[test]
    fn a_cpu_set_lists_its_cpus() {
        let set = CpuSet::only(70);
        assert_eq!(set.cpus().collect::<Vec<_>>(), vec![70]);
        if let Some(home) = CpuSet::current() {
            assert!(home.cpus().next().is_some());
        }
    }
}
