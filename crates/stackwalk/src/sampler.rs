//! The stack walker and the sampling cost model.
//!
//! Two very different things live here, mirroring the split the paper draws between
//! *structural* and *environmental* costs of stack sampling:
//!
//! * [`Walker`] is the real thing: it converts an application process's current call
//!   path into an interned [`StackTrace`].  The reproduction's application simulator
//!   (`appsim`) exposes call paths as lists of function names; walking them really
//!   builds the traces that the prefix trees in `stat-core` are merged from.
//!
//! * [`SamplingCostModel`] is the environment model behind Figures 8, 9 and 10: how
//!   long does the "gather ten traces from every local process" phase take when the
//!   daemons must first parse symbol tables that live on a shared file system, share
//!   CPU with spin-waiting MPI tasks (Atlas) or run on slow dedicated I/O nodes
//!   (BG/L), and when the binaries may or may not have been relocated to node-local
//!   RAM disks by SBRS.

use machine::cluster::Cluster;
use machine::filesystem::{FileAccessKind, FileSystem, FileSystemKind};
use simkit::prelude::*;

use crate::frame::{FrameId, FrameTable};
use crate::symtab::{working_set_of, BinaryImage};
use crate::trace::StackTrace;

/// The real stack walker.
///
/// The Dyninst StackWalker API walks a third-party process's stack via ptrace or
/// equivalent; here the "process" is a simulated MPI task that exposes its call path
/// as a list of function names, and walking means interning that path.  The walker
/// counts frames walked so tests can verify perturbation accounting.
///
/// Consecutive traces share long prefixes (every task starts in the same entry
/// point and `main`, and most sit in the same MPI call), so the walker keeps the
/// previous trace's [`FrameId`]s and symbolises only where the new path differs:
/// at position `i` it reuses the previous id when the table's name for that id is
/// `call_path[i]`, and interns otherwise.  Interning is a bijection between names
/// and ids within one table, so a reused id is exactly the id
/// [`FrameTable::intern`] would return, and the trace, the table and the counters
/// equal those of plain interning.  The name check is a non-panicking lookup in the
/// table being walked into, so a walker reused against another table can neither
/// panic nor hand out a foreign id: a mismatch just falls back to interning.
#[derive(Debug, Default)]
pub struct Walker {
    frames_walked: u64,
    traces_taken: u64,
    previous: Vec<FrameId>,
}

impl Walker {
    /// A fresh walker.
    pub fn new() -> Self {
        Walker::default()
    }

    /// Walk one call path (outermost frame first) into a trace.
    pub fn walk(&mut self, table: &mut FrameTable, call_path: &[&str]) -> StackTrace {
        StackTrace::new(self.walk_ids(table, call_path).to_vec())
    }

    /// Walk one call path (outermost frame first) and borrow its frame ids.
    ///
    /// The walker's kept ids are updated in place to this path's, so a daemon
    /// that inserts each trace straight into its trees allocates nothing per
    /// trace.  The ids, the table and the counters are those [`Walker::walk`]
    /// produces, because `walk` is this walk plus a copy.
    pub fn walk_ids(&mut self, table: &mut FrameTable, call_path: &[&str]) -> &[FrameId] {
        self.traces_taken += 1;
        self.frames_walked += call_path.len() as u64;
        self.previous.truncate(call_path.len());
        for (i, &name) in call_path.iter().enumerate() {
            match self.previous.get_mut(i) {
                Some(id) if table.get(*id) == Some(name) => {}
                Some(id) => *id = table.intern(name),
                None => self.previous.push(table.intern(name)),
            }
        }
        &self.previous
    }

    /// Total frames walked so far.
    pub fn frames_walked(&self) -> u64 {
        self.frames_walked
    }

    /// Total traces taken so far.
    pub fn traces_taken(&self) -> u64 {
        self.traces_taken
    }
}

/// Where the target application's binaries live for a sampling run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinaryPlacement {
    /// Shared images stay where the user staged them (NFS home directories).
    NfsHome,
    /// Shared images are staged on the Lustre parallel file system instead.
    LustreScratch,
    /// SBRS has relocated every shared image to each daemon's local RAM disk.
    RelocatedRamDisk,
}

impl BinaryPlacement {
    /// Series label used in Figure 10.
    pub fn label(self) -> &'static str {
        match self {
            BinaryPlacement::NfsHome => "NFS",
            BinaryPlacement::LustreScratch => "Lustre",
            BinaryPlacement::RelocatedRamDisk => "SBRS (RAM disk)",
        }
    }
}

/// Tunable constants of the sampling model.
#[derive(Clone, Debug)]
pub struct SamplingConfig {
    /// Traces gathered per task (the paper gathers ten).
    pub samples_per_task: u32,
    /// Pause between successive samples of the same task; STAT spaces samples out so
    /// the 3D trace/space/time analysis observes behaviour *over time*.
    pub sample_interval: SimDuration,
    /// Average trace depth (frames per trace) for walk-cost purposes.
    pub mean_trace_depth: u32,
    /// Cost to walk a single frame of a third-party process on a reference core.
    pub per_frame_walk: SimDuration,
    /// Fixed per-trace overhead (attach to the thread, locate the stack pointer).
    pub per_trace_overhead: SimDuration,
    /// Cost to fold one freshly gathered trace into the daemon's local prefix trees.
    pub per_trace_merge: SimDuration,
    /// Fraction of each binary image's bytes the symbol-table parse actually reads.
    pub symtab_read_fraction: f64,
    /// Whether the run predates the OS update mentioned in Section VI-B, in which
    /// case system shared libraries also live on the shared file system (this is the
    /// ~4× difference between Figure 8 and the NFS line of Figure 10).
    pub pre_os_update: bool,
    /// Run-to-run spread of shared-file-server performance (the paper saw >20%
    /// variation, and a 2× spread between two "identical" VN runs at 208K).
    pub server_load_spread: f64,
}

impl Default for SamplingConfig {
    fn default() -> Self {
        SamplingConfig {
            samples_per_task: 10,
            sample_interval: SimDuration::from_millis(150.0),
            mean_trace_depth: 14,
            per_frame_walk: SimDuration::from_micros(55.0),
            per_trace_overhead: SimDuration::from_micros(400.0),
            per_trace_merge: SimDuration::from_micros(80.0),
            symtab_read_fraction: 0.35,
            pre_os_update: false,
            server_load_spread: 0.25,
        }
    }
}

/// The per-phase breakdown of one sampling estimate.
#[derive(Clone, Debug)]
pub struct SamplingEstimate {
    /// Total wall-clock time of the sampling phase (what Figures 8–10 plot).
    pub total: SimDuration,
    /// Time until the slowest daemon finished parsing symbol tables.
    pub symbol_parse: SimDuration,
    /// Time the slowest daemon spent walking stacks (including the inter-sample
    /// pauses and CPU contention with the application).
    pub trace_walk: SimDuration,
    /// Time the slowest daemon spent folding traces into its local prefix trees.
    pub local_merge: SimDuration,
    /// Number of daemons that participated.
    pub daemons: u32,
    /// Tasks sampled per daemon.
    pub tasks_per_daemon: u32,
}

/// The sampling cost model for one cluster.
#[derive(Clone, Debug)]
pub struct SamplingCostModel {
    cluster: Cluster,
    config: SamplingConfig,
}

impl SamplingCostModel {
    /// A model over a cluster with default constants.
    pub fn new(cluster: Cluster) -> Self {
        SamplingCostModel {
            cluster,
            config: SamplingConfig::default(),
        }
    }

    /// Override the tunable constants.
    pub fn with_config(mut self, config: SamplingConfig) -> Self {
        self.config = config;
        self
    }

    /// The cluster the model is bound to.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The config in effect.
    pub fn config(&self) -> &SamplingConfig {
        &self.config
    }

    /// The binary images the daemons must parse, with their effective file systems
    /// under the given placement.
    pub fn effective_working_set(
        &self,
        placement: BinaryPlacement,
    ) -> Vec<(BinaryImage, FileSystemKind)> {
        let mut images = working_set_of(&self.cluster);
        if self.config.pre_os_update {
            // Before the OS update, several system libraries also lived on the slow
            // shared file system; model them as extra shared images.
            images.push(BinaryImage::new("/g/g0/compat/libc.so.6", 1_700 * 1024));
            images.push(BinaryImage::new("/g/g0/compat/libpthread.so.0", 140 * 1024));
        }
        images
            .into_iter()
            .map(|img| {
                let natural = self.cluster.mounts.filesystem_of(&img.path);
                let effective = if natural.is_shared() {
                    match placement {
                        BinaryPlacement::NfsHome => FileSystemKind::Nfs,
                        BinaryPlacement::LustreScratch => FileSystemKind::Lustre,
                        BinaryPlacement::RelocatedRamDisk => FileSystemKind::RamDisk,
                    }
                } else {
                    natural
                };
                (img, effective)
            })
            .collect()
    }

    /// Estimate the sampling phase for a job of `tasks` MPI tasks.
    ///
    /// The symbol-table parse phase is run through the discrete-event simulator so
    /// that queueing at the shared file server is modelled rather than assumed; the
    /// walk and local-merge phases are per-daemon arithmetic with deterministic
    /// per-daemon jitter, and the result is the maximum over daemons (the front end
    /// cannot proceed until the slowest daemon reports).
    pub fn estimate(&self, tasks: u64, placement: BinaryPlacement, seed: u64) -> SamplingEstimate {
        let shape = self.cluster.job(tasks);
        let daemons = shape.daemons;
        let tasks_per_daemon = shape.tasks_per_daemon;
        let cfg = &self.config;
        let slowdown = self.cluster.daemon_host_slowdown();

        let mut rng = DeterministicRng::new(seed ^ 0x5741_4c4b);
        // Run-level file-server load factor: reproduces the >20% run-to-run variation
        // (and the occasional 2×) the paper saw on the shared BG/L file systems.
        let server_load = rng.jitter(cfg.server_load_spread).max(0.5);

        // ---- Phase 1: symbol-table parsing, with file-server queueing. ----
        let working_set = self.effective_working_set(placement);
        let mut sim = Simulation::new(seed);
        // One server resource per file-system kind, registered in working-set
        // order; each image keeps the id of the server it is read from.
        let mut resources: Vec<(FileSystemKind, simkit::resource::ResourceId)> = Vec::new();
        let mut served = Vec::with_capacity(working_set.len());
        for (img, kind) in &working_set {
            let resource = match resources.iter().find(|(k, _)| k == kind) {
                Some(&(_, id)) => id,
                None => {
                    let id = sim.add_resource(FileSystem::of_kind(*kind).server_resource());
                    resources.push((*kind, id));
                    id
                }
            };
            served.push((img, *kind, resource));
        }
        for daemon in 0..daemons {
            // Daemons do not all arrive at the same nanosecond: stagger arrivals a
            // little so the queue build-up is realistic rather than degenerate.
            let arrival = SimTime::from_millis(rng.uniform(0.0, 5.0));
            for &(img, kind, resource) in &served {
                let fs = FileSystem::of_kind(kind);
                let read_bytes = (img.bytes as f64 * cfg.symtab_read_fraction).round() as u64;
                let mut service =
                    fs.server_service_time(FileAccessKind::SymbolTableParse, read_bytes);
                if kind.is_shared() {
                    service = service.mul_f64(server_load);
                }
                sim.schedule(arrival, Event::request(resource, daemon as u64, service));
            }
        }
        let report = sim.run();
        let symbol_parse_server = report.finished_at.saturating_since(SimTime::ZERO);
        // Client-side parse work happens per daemon after its reads complete.
        let client_parse: SimDuration = working_set
            .iter()
            .map(|(img, kind)| {
                FileSystem::of_kind(*kind)
                    .client_service_time(FileAccessKind::SymbolTableParse, img.bytes)
            })
            .sum();
        let symbol_parse = symbol_parse_server + client_parse.mul_f64(slowdown);

        // ---- Phase 2: walking stacks of the local tasks. ----
        // Per-trace cost on this machine's daemon hosts.
        let per_trace = (cfg.per_trace_overhead + cfg.per_frame_walk * cfg.mean_trace_depth as u64)
            .mul_f64(slowdown);
        let traces_per_daemon = tasks_per_daemon as u64 * cfg.samples_per_task as u64;
        // CPU contention: on Atlas the daemon shares its node with spin-waiting MPI
        // tasks, so walk time inflates with node occupancy; on BG/L the daemon owns a
        // dedicated I/O node and only pays its own slow clock (already in `slowdown`).
        let base_contention = if self.cluster.daemons_on_io_nodes() {
            1.0
        } else {
            let occupancy =
                (tasks_per_daemon as f64 / self.cluster.cores_per_compute as f64).min(1.0);
            1.0 + 0.8 * occupancy
        };
        // The slowest of `daemons` daemons: each gets an independent jitter draw, and
        // the max over more daemons is statistically larger — the paper's "higher
        // probability that a daemon encounters processes that spin or ... refuse to
        // yield the core" at larger scale.
        let mut worst_walk = SimDuration::ZERO;
        let mut worst_merge = SimDuration::ZERO;
        for daemon in 0..daemons {
            let mut drng = rng.fork(daemon as u64);
            let contention = base_contention * drng.jitter(0.25);
            let walk = per_trace.mul_f64(traces_per_daemon as f64 * contention);
            let merge = cfg
                .per_trace_merge
                .mul_f64(traces_per_daemon as f64 * slowdown * drng.jitter(0.1));
            worst_walk = worst_walk.max(walk);
            worst_merge = worst_merge.max(merge);
        }
        // The inter-sample pauses are wall-clock time regardless of scale.
        let pauses = cfg.sample_interval * (cfg.samples_per_task.saturating_sub(1)) as u64;
        let trace_walk = worst_walk + pauses;

        SamplingEstimate {
            total: symbol_parse + trace_walk + worst_merge,
            symbol_parse,
            trace_walk,
            local_merge: worst_merge,
            daemons,
            tasks_per_daemon,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine::cluster::BglMode;

    #[test]
    fn walker_interns_and_counts() {
        let mut table = FrameTable::new();
        let mut w = Walker::new();
        let t1 = w.walk(&mut table, &["_start", "main", "MPI_Barrier"]);
        let t2 = w.walk(&mut table, &["_start", "main", "MPI_Barrier"]);
        assert_eq!(t1, t2);
        assert_eq!(w.traces_taken(), 2);
        assert_eq!(w.frames_walked(), 6);
        assert_eq!(table.len(), 3);
    }

    #[test]
    fn relocated_binaries_make_sampling_constant_in_scale() {
        let model = SamplingCostModel::new(Cluster::atlas());
        let small = model.estimate(64, BinaryPlacement::RelocatedRamDisk, 1);
        let large = model.estimate(4_096, BinaryPlacement::RelocatedRamDisk, 1);
        let ratio = large.total.as_secs() / small.total.as_secs();
        assert!(
            ratio < 1.6,
            "relocated sampling should be ~flat, grew by {ratio}"
        );
        // And it lands in the ~2 s regime the paper reports.
        assert!(
            large.total.as_secs() > 0.5 && large.total.as_secs() < 6.0,
            "got {}",
            large.total.as_secs()
        );
    }

    #[test]
    fn nfs_sampling_grows_roughly_linearly_with_daemons() {
        let model = SamplingCostModel::new(Cluster::atlas());
        let a = model.estimate(512, BinaryPlacement::NfsHome, 7);
        let b = model.estimate(4_096, BinaryPlacement::NfsHome, 7);
        // 8× the daemons should cost several times more once the server saturates.
        let ratio = b.total.as_secs() / a.total.as_secs();
        assert!(ratio > 3.0, "expected server-bound growth, got {ratio}");
        assert!(b.total > b.symbol_parse, "total includes walking");
    }

    #[test]
    fn lustre_is_not_much_better_than_nfs_for_sampling() {
        let model = SamplingCostModel::new(Cluster::atlas());
        let nfs = model.estimate(1_024, BinaryPlacement::NfsHome, 3);
        let lustre = model.estimate(1_024, BinaryPlacement::LustreScratch, 3);
        let improvement = nfs.total.as_secs() / lustre.total.as_secs();
        assert!(
            improvement < 3.0,
            "paper found Lustre offered little improvement; got {improvement}x"
        );
        let sbrs = model.estimate(1_024, BinaryPlacement::RelocatedRamDisk, 3);
        assert!(sbrs.total < lustre.total);
        assert!(sbrs.total < nfs.total);
    }

    #[test]
    fn pre_os_update_runs_are_slower() {
        let cluster = Cluster::atlas();
        let recent = SamplingCostModel::new(cluster.clone());
        let cfg = SamplingConfig {
            pre_os_update: true,
            ..SamplingConfig::default()
        };
        let old = SamplingCostModel::new(cluster).with_config(cfg);
        let new_t = recent.estimate(1_024, BinaryPlacement::NfsHome, 11);
        let old_t = old.estimate(1_024, BinaryPlacement::NfsHome, 11);
        assert!(old_t.total > new_t.total);
    }

    #[test]
    fn bgl_daemons_serve_more_tasks_and_run_slower() {
        let atlas = SamplingCostModel::new(Cluster::atlas());
        let bgl = SamplingCostModel::new(Cluster::bluegene_l(BglMode::VirtualNode));
        // At equal small task counts Atlas is faster (8 vs 128 tasks per daemon),
        // matching the paper's third observation in Section VI-A.
        let a = atlas.estimate(1_024, BinaryPlacement::NfsHome, 5);
        let b = bgl.estimate(1_024, BinaryPlacement::NfsHome, 5);
        assert!(a.trace_walk < b.trace_walk);
        assert_eq!(a.tasks_per_daemon, 8);
        assert_eq!(b.tasks_per_daemon, 128);
    }

    #[test]
    fn run_to_run_variation_exists_on_shared_filesystems() {
        let model = SamplingCostModel::new(Cluster::bluegene_l(BglMode::VirtualNode));
        let times: Vec<f64> = (0..6)
            .map(|s| {
                model
                    .estimate(212_992, BinaryPlacement::NfsHome, 1000 + s)
                    .total
                    .as_secs()
            })
            .collect();
        let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = times.iter().cloned().fold(0.0_f64, f64::max);
        assert!(max / min > 1.1, "expected >10% spread, got {min}..{max}");
    }

    #[test]
    fn effective_working_set_respects_placement() {
        let model = SamplingCostModel::new(Cluster::atlas());
        let relocated = model.effective_working_set(BinaryPlacement::RelocatedRamDisk);
        assert!(relocated.iter().all(|(_, k)| !k.is_shared()));
        let nfs = model.effective_working_set(BinaryPlacement::NfsHome);
        assert!(nfs.iter().any(|(_, k)| *k == FileSystemKind::Nfs));
        // Node-local system libraries are never "relocated" — they are already local.
        assert!(nfs.iter().any(|(_, k)| !k.is_shared()));
    }

    #[test]
    fn placement_labels_match_figure_10() {
        assert_eq!(BinaryPlacement::NfsHome.label(), "NFS");
        assert_eq!(BinaryPlacement::LustreScratch.label(), "Lustre");
        assert_eq!(BinaryPlacement::RelocatedRamDisk.label(), "SBRS (RAM disk)");
    }
}
