//! Additional synthetic workloads.
//!
//! The ring hang is the paper's evaluation workload, but a debugging tool's test
//! suite needs more shapes than one: jobs where *everything* is equivalent (the best
//! case for prefix-tree compression), jobs whose ranks spread over many compute
//! kernels (the worst case), a classic message deadlock between two ranks, a
//! multithreaded job for the Section VII threading projection — and the adversarial
//! scenario workloads ([`IoStormApp`], [`OsNoiseApp`], [`CollectiveMismatchApp`],
//! [`CorruptedStackApp`]) that the fault-scenario catalogue
//! ([`crate::scenario::catalogue`]) verifies end to end against their
//! [`GroundTruth`].

use crate::app::Application;
use crate::scenario::{GroundTruth, Isolation};
use crate::vocab::FrameVocabulary;

/// A deterministic 64-bit mix used by the jitter/corruption workloads, so that
/// "random" sampling artifacts are reproducible run to run (a hard requirement of
/// [`Application::call_path`]).
fn mix(rank: u64, sample: u32) -> u64 {
    let mut x = rank
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((sample as u64).wrapping_mul(0xD1B5_4A32_D192_ED03));
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 29;
    x
}

/// Every rank is in the same place: the ideal case for STAT, whose merged tree is a
/// single path no matter how many tasks participate.
#[derive(Clone, Debug)]
pub struct AllEquivalentApp {
    tasks: u64,
    vocab: FrameVocabulary,
}

impl AllEquivalentApp {
    /// All ranks waiting in the barrier.
    pub fn new(tasks: u64, vocab: FrameVocabulary) -> Self {
        AllEquivalentApp {
            tasks: tasks.max(1),
            vocab,
        }
    }
}

impl Application for AllEquivalentApp {
    fn name(&self) -> &str {
        "all_equivalent"
    }
    fn num_tasks(&self) -> u64 {
        self.tasks
    }
    fn frame_hints(&self) -> Vec<&'static str> {
        self.vocab.dictionary_hints()
    }

    fn call_path(&self, _rank: u64, _thread: u32, _sample: u32, path: &mut Vec<&'static str>) {
        let v = self.vocab;
        path.clear();
        path.extend_from_slice(&[v.start(), v.main(), v.barrier()]);
        path.extend_from_slice(v.barrier_impl());
        path.extend_from_slice(v.progress_impl());
    }
}

/// Ranks spread across `classes` distinct compute kernels — the adversarial case
/// where the merged tree is wide and every edge label matters.
#[derive(Clone, Debug)]
pub struct ComputeSpreadApp {
    tasks: u64,
    classes: u32,
    vocab: FrameVocabulary,
}

impl ComputeSpreadApp {
    /// Spread `tasks` ranks over `classes` behaviour classes.
    pub fn new(tasks: u64, classes: u32, vocab: FrameVocabulary) -> Self {
        ComputeSpreadApp {
            tasks: tasks.max(1),
            classes: classes.max(1),
            vocab,
        }
    }

    /// Number of distinct behaviour classes.
    pub fn classes(&self) -> u32 {
        self.classes
    }
}

impl Application for ComputeSpreadApp {
    fn name(&self) -> &str {
        "compute_spread"
    }
    fn num_tasks(&self) -> u64 {
        self.tasks
    }
    fn frame_hints(&self) -> Vec<&'static str> {
        self.vocab.dictionary_hints()
    }

    fn call_path(&self, rank: u64, _thread: u32, sample: u32, path: &mut Vec<&'static str>) {
        let v = self.vocab;
        let kernels = v.compute_kernels();
        let class = (rank % self.classes as u64) as usize;
        let kernel = kernels[class % kernels.len()];
        path.clear();
        path.extend_from_slice(&[v.start(), v.main(), "timestep_loop", kernel]);
        // Alternate between the kernel body and a nested helper over time so the 3D
        // tree has temporal structure too.
        if sample % 2 == 1 {
            path.push("stencil_inner");
        }
        // Distinct classes beyond the kernel name count get a synthetic depth marker.
        if class >= kernels.len() {
            path.push("phase_extra");
        }
    }
}

/// Two ranks deadlocked against each other in blocking receives; everyone else is in
/// the barrier.  A classic "needs a debugger" situation distinct from the ring hang.
///
/// The deadlocked pair is stored *only* in the workload's [`GroundTruth`]: the
/// injected fault and the expectation the verdict checker enforces cannot drift
/// apart, because they are the same data.
#[derive(Clone, Debug)]
pub struct DeadlockPairApp {
    tasks: u64,
    vocab: FrameVocabulary,
    truth: GroundTruth,
}

impl DeadlockPairApp {
    /// Deadlock ranks 0 and 1 of a `tasks`-rank job.
    pub fn new(tasks: u64, vocab: FrameVocabulary) -> Self {
        DeadlockPairApp {
            tasks: tasks.max(2),
            vocab,
            truth: GroundTruth {
                // The barrier crowd plus the receive class; one extra for shallow
                // sampling that has not yet fanned the progress frames out.
                class_count: (2, 3),
                isolations: vec![Isolation {
                    frame: "PMPI_Recv",
                    ranks: vec![0, 1],
                }],
                ubiquitous_frame: None,
                never_coincide: vec![],
            },
        }
    }

    /// The two deadlocked ranks — read straight out of the ground truth.
    pub fn deadlocked_ranks(&self) -> (u64, u64) {
        let ranks = &self.truth.isolations[0].ranks;
        (ranks[0], ranks[1])
    }

    /// The machine-checkable expectation for this workload.
    pub fn ground_truth(&self) -> &GroundTruth {
        &self.truth
    }
}

impl Application for DeadlockPairApp {
    fn name(&self) -> &str {
        "deadlock_pair"
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
        path.extend_from_slice(&[v.start(), v.main()]);
        if self.truth.is_faulty(rank) {
            path.push("exchange_halo");
            path.push("PMPI_Recv");
            path.extend_from_slice(v.progress_impl());
        } else {
            path.push(v.barrier());
            path.extend_from_slice(v.barrier_impl());
            if sample.is_multiple_of(2) {
                path.extend_from_slice(v.progress_impl());
            }
        }
    }
}

/// A multithreaded application: each rank runs one MPI thread plus `worker_threads`
/// OpenMP-style workers.  Used for the Section VII projection, where threads act as a
/// multiplier on the data volume the tool must collect and merge.
#[derive(Clone, Debug)]
pub struct ThreadedApp {
    tasks: u64,
    worker_threads: u32,
    vocab: FrameVocabulary,
}

impl ThreadedApp {
    /// `tasks` ranks with `worker_threads` extra threads each.
    pub fn new(tasks: u64, worker_threads: u32, vocab: FrameVocabulary) -> Self {
        ThreadedApp {
            tasks: tasks.max(1),
            worker_threads,
            vocab,
        }
    }
}

impl Application for ThreadedApp {
    fn name(&self) -> &str {
        "threaded_hybrid"
    }
    fn num_tasks(&self) -> u64 {
        self.tasks
    }
    fn threads_per_task(&self) -> u32 {
        1 + self.worker_threads
    }
    fn frame_hints(&self) -> Vec<&'static str> {
        self.vocab.dictionary_hints()
    }

    fn call_path(&self, rank: u64, thread: u32, sample: u32, path: &mut Vec<&'static str>) {
        let v = self.vocab;
        path.clear();
        if thread == 0 {
            // The MPI thread behaves like the all-equivalent app.
            path.extend_from_slice(&[v.start(), v.main(), v.barrier()]);
            path.extend_from_slice(v.barrier_impl());
        } else {
            // Worker threads split between two OpenMP-style regions; which region a
            // worker is in depends on rank, thread and time, so threads genuinely
            // multiply the distinct traces the tool must manage.
            path.push(v.start());
            path.extend_from_slice(v.thread_entry());
            let region = (rank as u32 + thread + sample) % 2;
            if region == 0 {
                path.push("omp_region_a");
                path.push("dgemm_kernel");
            } else {
                path.push("omp_region_b");
                path.push("halo_pack");
            }
        }
    }
}

/// A shared-filesystem I/O storm: a few ranks are wedged opening a restart file
/// over the shared filesystem (the metadata server is serialising them away) while
/// the rest of the job has opened its file and waits in the barrier.
///
/// This is the application-side cousin of the paper's Section VI lesson — the tool
/// itself had to stop hammering the shared filesystem — turned into a debugging
/// target: the merged tree must point at exactly the wedged ranks, deep inside the
/// NFS client stack.
#[derive(Clone, Debug)]
pub struct IoStormApp {
    tasks: u64,
    vocab: FrameVocabulary,
    truth: GroundTruth,
}

impl IoStormApp {
    /// `tasks` ranks of which `stuck_count` (spread evenly) never get their open
    /// past the metadata server.
    pub fn new(tasks: u64, stuck_count: u64, vocab: FrameVocabulary) -> Self {
        let tasks = tasks.max(2);
        let stuck_count = stuck_count.clamp(1, tasks - 1);
        let stride = ((tasks - 1) / stuck_count).max(1);
        // Spread the wedged ranks evenly, skipping rank 0 so the scenario is not
        // confused with "the first daemon is slow".
        let stuck: Vec<u64> = (0..stuck_count)
            .map(|i| (1 + i * stride).min(tasks - 1))
            .collect();
        IoStormApp {
            tasks,
            vocab,
            truth: GroundTruth {
                class_count: (2, 3),
                isolations: vec![Isolation {
                    frame: "MPI_File_open",
                    ranks: stuck,
                }],
                ubiquitous_frame: None,
                never_coincide: vec![],
            },
        }
    }

    /// The ranks wedged in the shared-filesystem open — from the ground truth.
    pub fn stuck_ranks(&self) -> &[u64] {
        &self.truth.isolations[0].ranks
    }

    /// The machine-checkable expectation for this workload.
    pub fn ground_truth(&self) -> &GroundTruth {
        &self.truth
    }
}

impl Application for IoStormApp {
    fn name(&self) -> &str {
        "io_storm"
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
        path.extend_from_slice(&[v.start(), v.main(), "open_restart_file"]);
        if self.truth.is_faulty(rank) {
            path.extend_from_slice(v.shared_fs_open_impl());
            if sample.is_multiple_of(2) {
                path.push(v.shared_fs_retry());
            }
        } else {
            path.push(v.barrier());
            path.extend_from_slice(v.barrier_impl());
        }
    }
}

/// OS-noise jitter: the application is perfectly healthy (every rank in the same
/// compute kernel), but samples occasionally catch a rank mid-kernel inside an OS
/// interrupt frame.  There is nothing to diagnose — the test is that the tool does
/// not *invent* a diagnosis: every class must stay inside the compute kernel.
#[derive(Clone, Debug)]
pub struct OsNoiseApp {
    tasks: u64,
    vocab: FrameVocabulary,
    truth: GroundTruth,
}

impl OsNoiseApp {
    /// A healthy compute job over `tasks` ranks with ~8% of samples catching an
    /// OS interrupt frame on top of the kernel.
    pub fn new(tasks: u64, vocab: FrameVocabulary) -> Self {
        OsNoiseApp {
            tasks: tasks.max(1),
            vocab,
            truth: GroundTruth {
                // The undisturbed kernel class plus one class per noise frame the
                // sampling window happened to catch.
                class_count: (1, 1 + vocab.noise_frames().len()),
                isolations: vec![],
                ubiquitous_frame: Some("compute_interior"),
                never_coincide: vec![],
            },
        }
    }

    /// The machine-checkable expectation for this workload.
    pub fn ground_truth(&self) -> &GroundTruth {
        &self.truth
    }
}

impl Application for OsNoiseApp {
    fn name(&self) -> &str {
        "os_noise"
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
        path.extend_from_slice(&[
            v.start(),
            v.main(),
            "timestep_loop",
            "compute_interior",
            "stencil_inner",
        ]);
        let h = mix(rank, sample);
        if h.is_multiple_of(13) {
            let noise = v.noise_frames();
            path.push(noise[((h >> 8) % noise.len() as u64) as usize]);
        }
    }
}

/// A collective mismatch: one rank entered `PMPI_Reduce` while the rest of its
/// communicator entered `PMPI_Allreduce`.  Every rank is "stuck in MPI", so only
/// the distinguishing frame of the merged tree separates the culprit from its
/// victims — the case where a debugger without aggregation shows 208K identical
/// "waiting in a collective" backtraces.
#[derive(Clone, Debug)]
pub struct CollectiveMismatchApp {
    tasks: u64,
    vocab: FrameVocabulary,
    truth: GroundTruth,
}

impl CollectiveMismatchApp {
    /// A `tasks`-rank job whose middle rank calls the wrong reduction.
    pub fn new(tasks: u64, vocab: FrameVocabulary) -> Self {
        let tasks = tasks.max(2);
        CollectiveMismatchApp {
            tasks,
            vocab,
            truth: GroundTruth {
                class_count: (2, 3),
                isolations: vec![Isolation {
                    frame: "PMPI_Reduce",
                    ranks: vec![tasks / 2],
                }],
                ubiquitous_frame: None,
                never_coincide: vec![],
            },
        }
    }

    /// The rank that entered the wrong collective — from the ground truth.
    pub fn mismatched_rank(&self) -> u64 {
        self.truth.isolations[0].ranks[0]
    }

    /// The machine-checkable expectation for this workload.
    pub fn ground_truth(&self) -> &GroundTruth {
        &self.truth
    }
}

impl Application for CollectiveMismatchApp {
    fn name(&self) -> &str {
        "collective_mismatch"
    }
    fn num_tasks(&self) -> u64 {
        self.tasks
    }
    fn frame_hints(&self) -> Vec<&'static str> {
        self.vocab.dictionary_hints()
    }

    fn call_path(&self, rank: u64, _thread: u32, _sample: u32, path: &mut Vec<&'static str>) {
        let v = self.vocab;
        path.clear();
        path.extend_from_slice(&[v.start(), v.main(), "solve_timestep"]);
        if self.truth.is_faulty(rank) {
            path.push("PMPI_Reduce");
        } else {
            path.push("PMPI_Allreduce");
            path.push("MPIR_Allreduce_impl");
        }
        path.extend_from_slice(v.progress_impl());
    }
}

/// Corrupted stacks: a few ranks return garbage from the stack walk — an
/// unwalkable `???` frame followed by raw addresses that vary from sample to
/// sample.  The fault *is* the garbage (those ranks smashed their stacks), and the
/// test is twofold: the garbage ranks are quarantined under the `???` branch, and
/// the garbage never poisons the healthy ranks' spine of the merged tree.
#[derive(Clone, Debug)]
pub struct CorruptedStackApp {
    tasks: u64,
    vocab: FrameVocabulary,
    truth: GroundTruth,
}

impl CorruptedStackApp {
    /// `tasks` ranks of which `corrupt_count` (spread evenly, skipping rank 0)
    /// emit garbage frames.
    pub fn new(tasks: u64, corrupt_count: u64, vocab: FrameVocabulary) -> Self {
        let tasks = tasks.max(2);
        let corrupt_count = corrupt_count.clamp(1, tasks - 1);
        let stride = ((tasks - 1) / corrupt_count).max(1);
        let corrupt: Vec<u64> = (0..corrupt_count)
            .map(|i| (1 + i * stride).min(tasks - 1))
            .collect();
        let garbage = vocab.garbage_frames().len();
        CorruptedStackApp {
            tasks,
            vocab,
            truth: GroundTruth {
                // The healthy barrier class plus up to one class per distinct
                // garbage frame the corrupted ranks emitted.
                class_count: (2, 2 + garbage),
                isolations: vec![Isolation {
                    frame: vocab.unknown_frame(),
                    ranks: corrupt,
                }],
                ubiquitous_frame: None,
                never_coincide: vec![
                    (vocab.unknown_frame(), vocab.main()),
                    (vocab.unknown_frame(), vocab.barrier()),
                ],
            },
        }
    }

    /// The ranks whose stack walks return garbage — from the ground truth.
    pub fn corrupted_ranks(&self) -> &[u64] {
        &self.truth.isolations[0].ranks
    }

    /// The machine-checkable expectation for this workload.
    pub fn ground_truth(&self) -> &GroundTruth {
        &self.truth
    }
}

impl Application for CorruptedStackApp {
    fn name(&self) -> &str {
        "corrupted_stacks"
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
        if self.truth.is_faulty(rank) {
            let garbage = v.garbage_frames();
            let pick = (mix(rank, sample) % garbage.len() as u64) as usize;
            path.extend_from_slice(&[v.unknown_frame(), garbage[pick]]);
        } else {
            path.extend_from_slice(&[v.start(), v.main(), v.barrier()]);
            path.extend_from_slice(v.barrier_impl());
        }
    }
}

/// The fault archetypes a randomized campaign scenario can draw.  Each flavor
/// reuses the frame structure of one hand-written catalogue workload, so the
/// randomized population explores *placement* (which ranks, how many, at what
/// scale) rather than inventing new call-path shapes the merge was never
/// specified to handle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RandomFaultFlavor {
    /// Faulty ranks wedged before a send, like the paper's ring hang.
    SendStall,
    /// Faulty ranks stuck in blocking receives, like the deadlock pair.
    BlockedRecv,
    /// Faulty ranks wedged opening a shared file, like the I/O storm.
    WedgedOpen,
    /// Faulty ranks in the wrong collective, like the mismatch scenario.
    WrongCollective,
}

impl RandomFaultFlavor {
    /// All flavors, in the order the generator's RNG indexes them.
    pub const ALL: [RandomFaultFlavor; 4] = [
        RandomFaultFlavor::SendStall,
        RandomFaultFlavor::BlockedRecv,
        RandomFaultFlavor::WedgedOpen,
        RandomFaultFlavor::WrongCollective,
    ];

    /// Stable short label used in generated scenario names.
    pub fn label(self) -> &'static str {
        match self {
            RandomFaultFlavor::SendStall => "stall",
            RandomFaultFlavor::BlockedRecv => "recv",
            RandomFaultFlavor::WedgedOpen => "open",
            RandomFaultFlavor::WrongCollective => "collective",
        }
    }

    /// The frame that must isolate the faulty ranks for this flavor.
    pub fn distinguishing_frame(self, vocab: FrameVocabulary) -> &'static str {
        match self {
            RandomFaultFlavor::SendStall => vocab.send_stall(),
            RandomFaultFlavor::BlockedRecv => "PMPI_Recv",
            RandomFaultFlavor::WedgedOpen => "MPI_File_open",
            RandomFaultFlavor::WrongCollective => "PMPI_Reduce",
        }
    }
}

/// A randomized-campaign workload: an arbitrary set of faulty ranks placed by a
/// seeded RNG, expressed through one of the catalogue's fault archetypes.  Like
/// every hand-written workload, the injected ranks live *only* in the
/// [`GroundTruth`], so the fault and the expectation cannot drift apart.
#[derive(Clone, Debug)]
pub struct RandomFaultApp {
    tasks: u64,
    vocab: FrameVocabulary,
    flavor: RandomFaultFlavor,
    truth: GroundTruth,
}

impl RandomFaultApp {
    /// Inject `flavor` into the given `faulty_ranks` (ascending, deduplicated,
    /// never rank 0 so the fault is not confused with "the first daemon").
    pub fn new(
        tasks: u64,
        vocab: FrameVocabulary,
        flavor: RandomFaultFlavor,
        faulty_ranks: Vec<u64>,
    ) -> Self {
        let tasks = tasks.max(16);
        let mut ranks: Vec<u64> = faulty_ranks
            .into_iter()
            .map(|r| r.clamp(1, tasks - 1))
            .collect();
        ranks.sort_unstable();
        ranks.dedup();
        if ranks.is_empty() {
            ranks.push(1);
        }
        RandomFaultApp {
            tasks,
            vocab,
            flavor,
            truth: GroundTruth {
                class_count: (2, 3),
                isolations: vec![Isolation {
                    frame: flavor.distinguishing_frame(vocab),
                    ranks,
                }],
                ubiquitous_frame: None,
                never_coincide: vec![],
            },
        }
    }

    /// The drawn fault archetype.
    pub fn flavor(&self) -> RandomFaultFlavor {
        self.flavor
    }

    /// The machine-checkable expectation for this workload.
    pub fn ground_truth(&self) -> &GroundTruth {
        &self.truth
    }
}

impl Application for RandomFaultApp {
    fn name(&self) -> &str {
        match self.flavor {
            RandomFaultFlavor::SendStall => "rand_stall",
            RandomFaultFlavor::BlockedRecv => "rand_recv",
            RandomFaultFlavor::WedgedOpen => "rand_open",
            RandomFaultFlavor::WrongCollective => "rand_collective",
        }
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
        path.extend_from_slice(&[v.start(), v.main()]);
        if self.truth.is_faulty(rank) {
            match self.flavor {
                RandomFaultFlavor::SendStall => {
                    path.push("ring_step");
                    path.push(v.send_stall());
                    path.extend_from_slice(v.progress_impl());
                }
                RandomFaultFlavor::BlockedRecv => {
                    path.push("exchange_halo");
                    path.push("PMPI_Recv");
                    path.extend_from_slice(v.progress_impl());
                }
                RandomFaultFlavor::WedgedOpen => {
                    path.push("open_restart_file");
                    path.extend_from_slice(v.shared_fs_open_impl());
                }
                RandomFaultFlavor::WrongCollective => {
                    path.push("solve_timestep");
                    path.push("PMPI_Reduce");
                    path.extend_from_slice(v.progress_impl());
                }
            }
        } else {
            path.push(v.barrier());
            path.extend_from_slice(v.barrier_impl());
            if sample.is_multiple_of(2) {
                path.extend_from_slice(v.progress_impl());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::gather_samples;
    use stackwalk::FrameTable;

    #[test]
    fn all_equivalent_has_one_class() {
        let app = AllEquivalentApp::new(500, FrameVocabulary::Linux);
        let p0 = app.main_thread_path(0, 0);
        let p499 = app.main_thread_path(499, 0);
        assert_eq!(p0, p499);
    }

    #[test]
    fn compute_spread_produces_the_requested_classes() {
        let app = ComputeSpreadApp::new(1_000, 5, FrameVocabulary::Linux);
        let mut leaves = std::collections::HashSet::new();
        for rank in 0..1_000 {
            leaves.insert(app.main_thread_path(rank, 0));
        }
        assert_eq!(leaves.len(), 5);
        let wide = ComputeSpreadApp::new(100, 8, FrameVocabulary::Linux);
        let mut wide_leaves = std::collections::HashSet::new();
        for rank in 0..100 {
            wide_leaves.insert(wide.main_thread_path(rank, 0));
        }
        assert_eq!(
            wide_leaves.len(),
            8,
            "classes beyond the kernel list still distinct"
        );
    }

    #[test]
    fn deadlock_pair_isolates_two_ranks() {
        let app = DeadlockPairApp::new(64, FrameVocabulary::Linux);
        let in_recv: Vec<u64> = (0..64)
            .filter(|&r| app.main_thread_path(r, 0).contains(&"PMPI_Recv"))
            .collect();
        assert_eq!(in_recv, vec![0, 1]);
    }

    #[test]
    fn threaded_app_multiplies_gathered_traces() {
        let app = ThreadedApp::new(8, 3, FrameVocabulary::Linux);
        assert_eq!(app.threads_per_task(), 4);
        let mut table = FrameTable::new();
        let samples = gather_samples(&app, 2, &mut table);
        assert_eq!(samples.len(), 8);
        // 2 samples × 4 threads = 8 traces per task.
        assert!(samples.iter().all(|s| s.sample_count() == 8));
    }

    #[test]
    fn worker_threads_have_distinct_stacks_from_the_mpi_thread() {
        let app = ThreadedApp::new(4, 2, FrameVocabulary::BlueGeneL);
        let (mut mpi, mut worker) = (Vec::new(), Vec::new());
        app.call_path(0, 0, 0, &mut mpi);
        app.call_path(0, 1, 0, &mut worker);
        assert!(mpi.contains(&"PMPI_Barrier"));
        assert!(!worker.contains(&"PMPI_Barrier"));
        assert!(worker.contains(&"worker_main"));
    }

    #[test]
    fn deadlock_ranks_are_fed_from_the_ground_truth() {
        let app = DeadlockPairApp::new(64, FrameVocabulary::Linux);
        let (a, b) = app.deadlocked_ranks();
        assert_eq!(app.ground_truth().faulty_ranks(), vec![a, b]);
        for rank in 0..64 {
            let in_recv = app.main_thread_path(rank, 0).contains(&"PMPI_Recv");
            assert_eq!(in_recv, app.ground_truth().is_faulty(rank));
        }
    }

    #[test]
    fn io_storm_wedges_exactly_the_ground_truth_ranks() {
        let app = IoStormApp::new(1_000, 3, FrameVocabulary::Linux);
        assert_eq!(app.stuck_ranks().len(), 3);
        for rank in 0..1_000 {
            let wedged = app.main_thread_path(rank, 0).contains(&"nfs_getattr_wait");
            assert_eq!(wedged, app.ground_truth().is_faulty(rank));
        }
        // Deterministic but time-varying: the retry frame alternates.
        assert_ne!(
            app.main_thread_path(app.stuck_ranks()[0], 0),
            app.main_thread_path(app.stuck_ranks()[0], 1)
        );
    }

    #[test]
    fn os_noise_is_sparse_deterministic_and_on_top_of_the_kernel() {
        let app = OsNoiseApp::new(2_048, FrameVocabulary::Linux);
        assert!(app.ground_truth().faulty_ranks().is_empty());
        let mut noisy = 0usize;
        for rank in 0..2_048 {
            let path = app.main_thread_path(rank, 0);
            assert_eq!(path[3], "compute_interior");
            assert_eq!(path, app.main_thread_path(rank, 0), "deterministic");
            if path.len() > 5 {
                noisy += 1;
                assert!(FrameVocabulary::Linux
                    .noise_frames()
                    .contains(path.last().unwrap()));
            }
        }
        // Roughly 1 in 13 samples is noisy: sparse, but present.
        assert!(noisy > 50 && noisy < 400, "noisy samples: {noisy}");
    }

    #[test]
    fn collective_mismatch_puts_one_rank_in_the_wrong_reduction() {
        let app = CollectiveMismatchApp::new(512, FrameVocabulary::BlueGeneL);
        assert_eq!(app.mismatched_rank(), 256);
        let reducers: Vec<u64> = (0..512)
            .filter(|&r| app.main_thread_path(r, 0).contains(&"PMPI_Reduce"))
            .collect();
        assert_eq!(reducers, vec![256]);
        assert!(app.main_thread_path(0, 0).contains(&"PMPI_Allreduce"));
    }

    #[test]
    fn corrupted_stacks_emit_garbage_only_for_the_injected_ranks() {
        let app = CorruptedStackApp::new(256, 3, FrameVocabulary::Linux);
        assert_eq!(app.corrupted_ranks().len(), 3);
        for rank in 0..256 {
            let path = app.main_thread_path(rank, 0);
            if app.ground_truth().is_faulty(rank) {
                assert_eq!(path[0], "???");
                assert!(FrameVocabulary::Linux.garbage_frames().contains(&path[1]));
            } else {
                assert_eq!(path[0], "_start");
                assert!(path.contains(&"PMPI_Barrier"));
            }
        }
        // Garbage varies over time (harder on the merge than a fixed bad frame).
        let corrupt = app.corrupted_ranks()[0];
        let distinct: std::collections::HashSet<Vec<&str>> =
            (0..8).map(|s| app.main_thread_path(corrupt, s)).collect();
        assert!(distinct.len() > 1);
    }

    #[test]
    fn random_fault_app_is_driven_by_its_ground_truth() {
        for flavor in RandomFaultFlavor::ALL {
            let app = RandomFaultApp::new(128, FrameVocabulary::Linux, flavor, vec![3, 77, 3, 0]);
            // Rank 0 is clamped to 1, duplicates collapse.
            assert_eq!(app.ground_truth().faulty_ranks(), vec![1, 3, 77]);
            let frame = flavor.distinguishing_frame(FrameVocabulary::Linux);
            for rank in 0..128 {
                let flagged = app.main_thread_path(rank, 0).contains(&frame);
                assert_eq!(flagged, app.ground_truth().is_faulty(rank), "{flavor:?}");
            }
        }
    }

    #[test]
    fn random_fault_app_never_faults_an_empty_set() {
        let app = RandomFaultApp::new(
            64,
            FrameVocabulary::BlueGeneL,
            RandomFaultFlavor::SendStall,
            vec![],
        );
        assert_eq!(app.ground_truth().faulty_ranks(), vec![1]);
        assert!(app.main_thread_path(1, 0).contains(&"do_SendOrStall"));
    }

    #[test]
    fn corrupted_trees_still_gather_and_intern_cleanly() {
        // The poison test at the walker level: garbage frames intern like any
        // other name and never panic the gather.
        let app = CorruptedStackApp::new(128, 2, FrameVocabulary::BlueGeneL);
        let mut table = FrameTable::new();
        let samples = gather_samples(&app, 4, &mut table);
        assert_eq!(samples.len(), 128);
        assert!(table.len() < 32);
    }
}
