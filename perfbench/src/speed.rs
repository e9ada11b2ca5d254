//! Host-speed correction for the end-to-end times.
//!
//! The benchmark runs on a few virtual CPUs of a shared host, and the
//! throughput those CPUs deliver drifts by up to 2× over seconds to minutes
//! with the neighbours' load (there is no steal time: the process keeps its
//! CPU and simply gets less done).  A median over one run cannot take out a
//! slow phase that lasts the whole run, so every diagnosis is bracketed by a
//! fixed reference kernel — allocation, hashing, ordered maps and task-set
//! bit work, the same kinds of work as the pipeline — and its wall time is
//! scaled by how fast that kernel ran around it:
//!
//! ```text
//! corrected = wall × REFERENCE_MS / mean(kernel before, kernel after)
//! ```
//!
//! The kernel is the benchmark's own code and never changes with the program,
//! so a change to the program moves the corrected time exactly as it moves
//! the wall time; only the host's speed drops out.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// The reference kernel's median wall time on the baseline machine (see
/// `NOTES.md`), in milliseconds.  Corrected times read as wall times on that
/// machine at that speed.
pub const REFERENCE_MS: f64 = 20.0;

/// Tasks the kernel's call-path tree is built over.
const KERNEL_TASKS: u64 = 10_000;

/// Width of the kernel's task sets, in 64-bit words.
const KERNEL_WORDS: usize = 64;

/// Keyed updates of the kernel's map phase.
const KERNEL_UPDATES: u32 = 60_000;

/// The host's speed, sampled by running the reference kernel between
/// diagnoses.
#[derive(Debug)]
pub(crate) struct HostSpeed {
    /// The kernel's wall time at the latest sample, in milliseconds.
    last_ms: f64,
}

impl HostSpeed {
    /// Warm the kernel up once, then take the first sample.
    pub(crate) fn new() -> Self {
        kernel_ms();
        HostSpeed {
            last_ms: kernel_ms(),
        }
    }

    /// The factor for work done since the latest sample: run the kernel
    /// again and scale by the mean of the two samples around that work.
    pub(crate) fn factor_since_last(&mut self) -> f64 {
        let now = kernel_ms();
        let factor = REFERENCE_MS / ((self.last_ms + now) / 2.0);
        self.last_ms = now;
        factor
    }

    /// The factor at the latest sample alone, for short work (a set-up)
    /// timed right after it.
    pub(crate) fn factor_now(&self) -> f64 {
        REFERENCE_MS / self.last_ms
    }
}

/// One run of the reference kernel, in milliseconds.  Its input is fixed, so
/// every run does the same work.
pub fn kernel_ms() -> f64 {
    let start = Instant::now();
    std::hint::black_box(keyed_updates() + call_path_tree());
    start.elapsed().as_secs_f64() * 1e3
}

/// A xorshift step: the kernel's fixed pseudo-random input.
fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Grouping and counting through an ordered and a hashed map.
fn keyed_updates() -> usize {
    let mut groups: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
    let mut counts: HashMap<u64, u64> = HashMap::new();
    let mut x = 0x9E37_79B9_7F4A_7C15;
    for i in 0..KERNEL_UPDATES {
        let key = next(&mut x);
        groups.entry(key % 20_000).or_default().push(i);
        *counts.entry(key % 30_000).or_default() += 1;
    }
    groups.values().map(Vec::len).sum::<usize>() + counts.len()
}

/// A prefix tree of interned frame names with a task bit set per node, as a
/// daemon's local merge builds one.
fn call_path_tree() -> usize {
    struct Node {
        children: BTreeMap<u32, usize>,
        tasks: Vec<u64>,
    }
    let node = || Node {
        children: BTreeMap::new(),
        tasks: vec![0; KERNEL_WORDS],
    };
    let mut nodes = vec![node()];
    let mut names: HashMap<String, u32> = HashMap::new();
    let mut x = 0x2545_F491_4F6C_DD1D;
    for task in 0..KERNEL_TASKS {
        let bit = task as usize % (KERNEL_WORDS * 64);
        let depth = 4 + next(&mut x) % 4;
        let mut at = 0;
        for level in 0..depth {
            let name = format!("frame_{level}_{}", next(&mut x) % 3);
            let fresh = u32::try_from(names.len()).unwrap_or(u32::MAX);
            let id = *names.entry(name).or_insert(fresh);
            let child = match nodes[at].children.get(&id) {
                Some(&child) => child,
                None => {
                    nodes.push(node());
                    let child = nodes.len() - 1;
                    nodes[at].children.insert(id, child);
                    child
                }
            };
            nodes[child].tasks[bit / 64] |= 1 << (bit % 64);
            at = child;
        }
    }
    nodes
        .iter()
        .flat_map(|n| &n.tasks)
        .map(|w| w.count_ones() as usize)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_does_the_same_work_every_time() {
        assert_eq!(keyed_updates(), keyed_updates());
        assert_eq!(call_path_tree(), call_path_tree());
        assert!(call_path_tree() > 0);
    }

    #[test]
    fn factors_are_positive_and_finite() {
        let mut speed = HostSpeed::new();
        for factor in [speed.factor_now(), speed.factor_since_last()] {
            assert!(factor.is_finite() && factor > 0.0, "{factor}");
        }
    }
}
