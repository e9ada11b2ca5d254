//! The application abstraction and sample gathering.
//!
//! An [`Application`] is anything that can answer: "what is the call path of thread
//! `t` of rank `r` at sample `s`?"  STAT's daemons answer that question with the
//! StackWalker API against live processes; the reproduction answers it from a state
//! machine.  Everything downstream (walking, interning, local merge, the TBON merge,
//! equivalence classes) is the real tool code.

use stackwalk::{FrameTable, TaskSamples, Walker};

/// A simulated parallel application.
pub trait Application: Send + Sync {
    /// Human-readable name used in reports.
    fn name(&self) -> &str;

    /// Number of MPI tasks (ranks) in the job.
    fn num_tasks(&self) -> u64;

    /// Number of threads per task (1 for single-threaded MPI codes).
    fn threads_per_task(&self) -> u32 {
        1
    }

    /// Write the call path (outermost frame first) of `thread` of `rank` at sample
    /// `sample_index` into `path`.
    ///
    /// The buffer contract: `path` may still hold an earlier call path, and the
    /// implementation replaces it — on return `path` holds exactly this call
    /// path.  A daemon reuses one buffer for every trace it takes, so the emulated
    /// stack read allocates only while the buffer grows to the deepest path.
    /// Implementations must be deterministic in their arguments so that
    /// experiments are reproducible.
    fn call_path(&self, rank: u64, thread: u32, sample_index: u32, path: &mut Vec<&'static str>);

    /// Convenience: the call path of the main thread, in a buffer of its own.
    fn main_thread_path(&self, rank: u64, sample_index: u32) -> Vec<&'static str> {
        let mut path = Vec::new();
        self.call_path(rank, 0, sample_index, &mut path);
        path
    }

    /// Frame names this application's traces are expected to contain — the seed
    /// for the session-global frame dictionary that wire format v2 negotiates at
    /// session setup.  Hints are best-effort: a frame the application produces
    /// but does not hint still works, it just ships its name once per packet as
    /// an incremental dictionary record instead of never.
    fn frame_hints(&self) -> Vec<&'static str> {
        Vec::new()
    }
}

/// Gather `samples` stack traces from every rank of an application, exactly as a
/// whole job's worth of daemons would.  Traces from all threads of a task are
/// associated with the task (the paper's planned thread support keeps per-process
/// attribution, Section VII).
pub fn gather_samples(
    app: &dyn Application,
    samples: u32,
    table: &mut FrameTable,
) -> Vec<TaskSamples> {
    let ranks: Vec<u64> = (0..app.num_tasks()).collect();
    gather_samples_for_ranks(app, &ranks, samples, table)
}

/// Gather samples for a subset of ranks — what a single daemon does for the tasks on
/// its node.
pub fn gather_samples_for_ranks(
    app: &dyn Application,
    ranks: &[u64],
    samples: u32,
    table: &mut FrameTable,
) -> Vec<TaskSamples> {
    let mut walker = Walker::new();
    let mut path = Vec::new();
    ranks
        .iter()
        .map(|&rank| {
            let mut traces = Vec::with_capacity(samples as usize * app.threads_per_task() as usize);
            for sample in 0..samples {
                for thread in 0..app.threads_per_task() {
                    app.call_path(rank, thread, sample, &mut path);
                    traces.push(walker.walk(table, &path));
                }
            }
            TaskSamples::new(rank, traces)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TrivialApp {
        tasks: u64,
    }

    impl Application for TrivialApp {
        fn name(&self) -> &str {
            "trivial"
        }
        fn num_tasks(&self) -> u64 {
            self.tasks
        }
        fn call_path(&self, rank: u64, _thread: u32, _sample: u32, path: &mut Vec<&'static str>) {
            let leaf = if rank == 0 { "io_wait" } else { "compute" };
            path.clear();
            path.extend_from_slice(&["_start", "main", leaf]);
        }
    }

    #[test]
    fn gather_produces_one_series_per_rank() {
        let app = TrivialApp { tasks: 5 };
        let mut table = FrameTable::new();
        let samples = gather_samples(&app, 3, &mut table);
        assert_eq!(samples.len(), 5);
        for s in &samples {
            assert_eq!(s.sample_count(), 3);
        }
        // Frames were interned: 4 distinct names across the whole job.
        assert_eq!(table.len(), 4);
    }

    #[test]
    fn gather_for_ranks_restricts_to_the_subset() {
        let app = TrivialApp { tasks: 100 };
        let mut table = FrameTable::new();
        let samples = gather_samples_for_ranks(&app, &[10, 11, 12, 13], 2, &mut table);
        assert_eq!(samples.len(), 4);
        assert_eq!(samples[0].rank, 10);
        assert_eq!(samples[3].rank, 13);
    }
}
