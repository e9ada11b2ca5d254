//! Time-evolving workloads: applications whose behaviour *changes* during the
//! sampling window.
//!
//! The 3D (trace/space/time) analysis exists because a single snapshot can mislead: a
//! task seen once inside `MPI_Barrier` might be stuck there or might merely be passing
//! through.  The workloads in this module exercise that distinction — something the
//! static ring hang cannot do — and give the test suite applications where the 2D and
//! 3D trees genuinely disagree.

use crate::app::Application;
use crate::scenario::{GroundTruth, Isolation};
use crate::vocab::FrameVocabulary;

/// A healthy iterative solver: every task cycles compute → exchange → barrier as the
/// sample index advances.  No task is stuck anywhere; the 3D tree shows every task in
/// every phase, which is exactly how a user tells "working" from "hung".
#[derive(Clone, Debug)]
pub struct IterativeSolverApp {
    tasks: u64,
    vocab: FrameVocabulary,
    /// How many samples one phase lasts before the task moves on.
    phase_length: u32,
}

impl IterativeSolverApp {
    /// A solver over `tasks` ranks whose phases last `phase_length` samples.
    pub fn new(tasks: u64, phase_length: u32, vocab: FrameVocabulary) -> Self {
        IterativeSolverApp {
            tasks: tasks.max(1),
            vocab,
            phase_length: phase_length.max(1),
        }
    }

    fn phase(&self, rank: u64, sample: u32) -> u32 {
        // Ranks are slightly out of phase with each other, as in any real bulk-
        // synchronous code between barriers.
        ((sample / self.phase_length) + (rank % 3) as u32) % 3
    }
}

impl Application for IterativeSolverApp {
    fn name(&self) -> &str {
        "iterative_solver"
    }
    fn num_tasks(&self) -> u64 {
        self.tasks
    }
    fn frame_hints(&self) -> Vec<&'static str> {
        self.vocab.dictionary_hints()
    }

    fn call_path(&self, rank: u64, _thread: u32, sample: u32, path: &mut Vec<&'static str>) {
        let v = self.vocab;
        path.clear();
        path.extend_from_slice(&[v.start(), v.main(), "timestep_loop"]);
        match self.phase(rank, sample) {
            0 => {
                path.push("compute_interior");
                path.push("stencil_inner");
            }
            1 => {
                path.push("exchange_halo");
                path.push("PMPI_Waitall");
                path.extend_from_slice(v.progress_impl());
            }
            _ => {
                path.push(v.barrier());
                path.extend_from_slice(v.barrier_impl());
            }
        }
    }
}

/// A straggler workload: most tasks finish each iteration quickly and wait in the
/// barrier, while a small set of slow ranks is still computing.  The paper's
/// equivalence-class strategy points the debugger straight at the stragglers.
#[derive(Clone, Debug)]
pub struct StragglerApp {
    tasks: u64,
    vocab: FrameVocabulary,
    truth: GroundTruth,
}

impl StragglerApp {
    /// `tasks` ranks of which `straggler_count` (spread evenly) are persistently slow.
    ///
    /// The straggler ranks live *only* in the workload's [`GroundTruth`], so the
    /// injected fault and the verdict checker's expectation cannot drift apart.
    pub fn new(tasks: u64, straggler_count: u64, vocab: FrameVocabulary) -> Self {
        let tasks = tasks.max(1);
        let straggler_count = straggler_count.min(tasks);
        let stride = (tasks / straggler_count.max(1)).max(1);
        let stragglers: Vec<u64> = (0..straggler_count).map(|i| i * stride).collect();
        StragglerApp {
            tasks,
            vocab,
            truth: GroundTruth {
                // The barrier crowd plus the straggler class; one extra when a
                // single-sample window splits the cache-miss frame off.
                class_count: (2, 3),
                isolations: vec![Isolation {
                    frame: "compute_interior",
                    ranks: stragglers,
                }],
                ubiquitous_frame: None,
                never_coincide: vec![],
            },
        }
    }

    /// The ranks that lag behind — read straight out of the ground truth.
    pub fn stragglers(&self) -> &[u64] {
        &self.truth.isolations[0].ranks
    }

    /// The machine-checkable expectation for this workload.
    pub fn ground_truth(&self) -> &GroundTruth {
        &self.truth
    }
}

impl Application for StragglerApp {
    fn name(&self) -> &str {
        "stragglers"
    }
    fn num_tasks(&self) -> u64 {
        self.tasks
    }
    fn frame_hints(&self) -> Vec<&'static str> {
        self.vocab.dictionary_hints()
    }

    fn call_path(&self, rank: u64, _thread: u32, sample: u32, path: &mut Vec<&'static str>) {
        let v = self.vocab;
        path.clear();
        path.extend_from_slice(&[v.start(), v.main(), "timestep_loop"]);
        if self.truth.is_faulty(rank) {
            path.push("compute_interior");
            if sample.is_multiple_of(2) {
                path.push("cache_miss_storm");
            }
        } else {
            path.push(v.barrier());
            path.extend_from_slice(v.barrier_impl());
        }
    }
}

/// An I/O-storm workload: at a checkpoint step every task dives into the I/O stack,
/// serialising behind the parallel file system — the application-side cousin of the
/// tool-side file-system lesson in Section VI.
#[derive(Clone, Debug)]
pub struct CheckpointStormApp {
    tasks: u64,
    vocab: FrameVocabulary,
    /// Fraction of tasks whose writes have already completed (they wait in the
    /// barrier); the rest are still inside the I/O stack.
    completed_fraction: f64,
}

impl CheckpointStormApp {
    /// A checkpoint storm over `tasks` ranks with the given completed fraction.
    ///
    /// `completed_fraction` is clamped into `[0, 1]`.  NaN is rejected outright: a
    /// NaN fraction would otherwise flow through `clamp` unchanged and silently
    /// turn *every* rank into a writer (`NaN as u64 == 0`), which is a different
    /// workload than any the caller could have meant.
    ///
    /// # Panics
    ///
    /// Panics if `completed_fraction` is NaN.
    pub fn new(tasks: u64, completed_fraction: f64, vocab: FrameVocabulary) -> Self {
        assert!(
            !completed_fraction.is_nan(),
            "CheckpointStormApp: completed_fraction must be a number in [0, 1], got NaN"
        );
        CheckpointStormApp {
            tasks: tasks.max(1),
            vocab,
            completed_fraction: completed_fraction.clamp(0.0, 1.0),
        }
    }

    /// The ranks still inside the I/O stack (the fault the scenario isolates).
    pub fn writer_ranks(&self) -> Vec<u64> {
        let cutoff = (self.tasks as f64 * self.completed_fraction) as u64;
        (cutoff..self.tasks).collect()
    }

    /// The machine-checkable expectation for this workload.
    pub fn ground_truth(&self) -> GroundTruth {
        GroundTruth {
            class_count: (2, 3),
            isolations: vec![Isolation {
                frame: "MPI_File_write_all",
                ranks: self.writer_ranks(),
            }],
            ubiquitous_frame: None,
            never_coincide: vec![],
        }
    }
}

impl Application for CheckpointStormApp {
    fn name(&self) -> &str {
        "checkpoint_storm"
    }
    fn num_tasks(&self) -> u64 {
        self.tasks
    }
    fn frame_hints(&self) -> Vec<&'static str> {
        self.vocab.dictionary_hints()
    }

    fn call_path(&self, rank: u64, _thread: u32, sample: u32, path: &mut Vec<&'static str>) {
        let v = self.vocab;
        path.clear();
        path.extend_from_slice(&[v.start(), v.main(), "write_checkpoint"]);
        let cutoff = (self.tasks as f64 * self.completed_fraction) as u64;
        if rank < cutoff {
            path.push(v.barrier());
            path.extend_from_slice(v.barrier_impl());
        } else {
            path.push("MPI_File_write_all");
            path.push("ADIOI_GEN_WriteStridedColl");
            if sample % 2 == 1 {
                path.push("pwrite64");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solver_tasks_visit_every_phase_over_time() {
        let app = IterativeSolverApp::new(16, 1, FrameVocabulary::Linux);
        let mut phases = std::collections::HashSet::new();
        for sample in 0..6 {
            phases.insert(app.main_thread_path(5, sample)[3]);
        }
        assert_eq!(phases.len(), 3, "one rank moves through all three phases");
        // At any single instant the job spans several phases.
        let mut snapshot = std::collections::HashSet::new();
        for rank in 0..16 {
            snapshot.insert(app.main_thread_path(rank, 0)[3]);
        }
        assert!(snapshot.len() >= 2);
    }

    #[test]
    fn stragglers_are_exactly_the_configured_ranks() {
        let app = StragglerApp::new(1_000, 4, FrameVocabulary::Linux);
        assert_eq!(app.stragglers().len(), 4);
        for rank in 0..1_000 {
            let computing = app.main_thread_path(rank, 1).contains(&"compute_interior");
            assert_eq!(computing, app.stragglers().contains(&rank));
        }
    }

    #[test]
    fn straggler_count_is_clamped_to_the_job() {
        let app = StragglerApp::new(4, 100, FrameVocabulary::Linux);
        assert!(app.stragglers().len() <= 4);
    }

    #[test]
    fn checkpoint_storm_splits_writers_from_waiters() {
        let app = CheckpointStormApp::new(100, 0.75, FrameVocabulary::Linux);
        let writers = (0..100)
            .filter(|&r| app.main_thread_path(r, 0).contains(&"MPI_File_write_all"))
            .count();
        assert_eq!(writers, 25);
        let extremes = CheckpointStormApp::new(10, 2.0, FrameVocabulary::Linux);
        let writers = (0..10)
            .filter(|&r| {
                extremes
                    .main_thread_path(r, 0)
                    .contains(&"MPI_File_write_all")
            })
            .count();
        assert_eq!(writers, 0, "completed fraction clamps to 1.0");
    }

    #[test]
    fn checkpoint_storm_clamps_negative_fractions_to_zero() {
        // Regression: a negative fraction means "nobody finished" (everyone still
        // writing), not an out-of-range cutoff.
        let app = CheckpointStormApp::new(10, -3.5, FrameVocabulary::Linux);
        let writers = (0..10)
            .filter(|&r| app.main_thread_path(r, 0).contains(&"MPI_File_write_all"))
            .count();
        assert_eq!(writers, 10);
        assert_eq!(app.writer_ranks(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "completed_fraction must be a number")]
    fn checkpoint_storm_rejects_nan() {
        // Regression: NaN used to slip through `clamp` and silently make every
        // rank a writer; now it is rejected at construction.
        let _ = CheckpointStormApp::new(10, f64::NAN, FrameVocabulary::Linux);
    }

    #[test]
    fn checkpoint_storm_ground_truth_matches_the_walked_paths() {
        let app = CheckpointStormApp::new(100, 0.75, FrameVocabulary::Linux);
        let truth = app.ground_truth();
        for rank in 0..100 {
            let writing = app
                .main_thread_path(rank, 0)
                .contains(&"MPI_File_write_all");
            assert_eq!(writing, truth.is_faulty(rank));
        }
        assert_eq!(truth.faulty_ranks(), (75..100).collect::<Vec<_>>());
    }

    #[test]
    fn straggler_ranks_are_fed_from_the_ground_truth() {
        let app = StragglerApp::new(1_000, 4, FrameVocabulary::Linux);
        assert_eq!(app.ground_truth().faulty_ranks(), app.stragglers().to_vec());
        assert_eq!(
            app.ground_truth().distinguishing_frame(),
            Some("compute_interior")
        );
    }
}
