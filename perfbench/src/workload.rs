//! The benchmark's workloads and the inputs each one generates from a seed.
//!
//! Every workload is the paper's MPI ring hang on a Blue Gene/L model.  The
//! seed reaches the program only through the generated input: the hung rank is
//! `seed % tasks`, which is always in range, so no constructor clamp fires.

use std::sync::Arc;

use appsim::scenario::FaultScenario;
use appsim::{FaultSchedule, FrameVocabulary, RingHangApp};
use machine::{BglMode, Cluster};
use stat_core::{Representation, Session, StatError, StreamingSession};

/// Trace samples gathered per task by an attach, and per task per wave by a
/// stream.
pub const SAMPLES_PER_TASK: u32 = 2;

/// The wave at which a stream's ring hang first appears (wave 0 is healthy).
pub const FAULT_WAVE: u32 = 1;

/// Waves per stream episode: one healthy wave, the fault wave, then
/// quiescent repeats, so the median wave is a quiescent one.
pub const WAVES_PER_EPISODE: u32 = 6;

/// How the workload drives the pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Drive {
    /// One-shot `Session::attach`, one diagnosis per call.
    Attach,
    /// `StreamingSession::advance`, one diagnosis per wave.
    Stream,
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// The name passed to `--workload`.
    pub name: &'static str,
    /// Blue Gene/L node mode (virtual-node doubles the tasks per node).
    pub mode: BglMode,
    /// MPI tasks in the job.
    pub tasks: u64,
    /// Tool daemons the paper-default overlay gives this job.
    pub daemons: u32,
    /// Task-set representation on the wire.
    pub representation: Representation,
    /// Attach or stream.
    pub drive: Drive,
}

/// Every workload, in the order `BENCHMARK.json` lists them with the reason
/// each one is in the benchmark.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "attach-208k",
        mode: BglMode::VirtualNode,
        tasks: 212_992,
        daemons: 1_664,
        representation: Representation::HierarchicalTaskList,
        drive: Drive::Attach,
    },
    Workload {
        name: "stream-208k",
        mode: BglMode::VirtualNode,
        tasks: 212_992,
        daemons: 1_664,
        representation: Representation::HierarchicalTaskList,
        drive: Drive::Stream,
    },
    Workload {
        name: "attach-64k-dense",
        mode: BglMode::CoProcessor,
        tasks: 65_536,
        daemons: 1_024,
        representation: Representation::GlobalBitVector,
        drive: Drive::Attach,
    },
];

impl Workload {
    /// Look a workload up by name.
    pub fn named(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The generated input: the ring hang with its hung rank drawn from `seed`.
    pub fn app(&self, seed: u64) -> RingHangApp {
        RingHangApp::new(self.tasks, FrameVocabulary::BlueGeneL).with_hung_rank(seed % self.tasks)
    }

    /// The stream's wave source: healthy waves, then the seeded ring hang from
    /// [`FAULT_WAVE`] on.
    pub fn schedule(&self, seed: u64) -> FaultSchedule {
        let app = self.app(seed);
        let scenario = FaultScenario {
            name: "ring_hang".into(),
            fault: format!("rank {} hangs before its send", app.hung_rank()),
            expected: "the hung rank and its victim isolated".into(),
            truth: app.ground_truth(),
            app: Arc::new(app),
            overlay_faults: Vec::new(),
            mid_tree_faults: Vec::new(),
        };
        FaultSchedule::new(scenario, FrameVocabulary::BlueGeneL, FAULT_WAVE)
    }

    /// Set-up: the cluster model and the session over it, under the
    /// paper-default 2-deep overlay.
    pub fn session(&self) -> Session {
        Session::builder(Cluster::bluegene_l(self.mode))
            .representation(self.representation)
            .samples_per_task(SAMPLES_PER_TASK)
            .build()
    }

    /// Set-up for a stream: the cluster model, the session and the open stream.
    pub fn open_stream(&self, schedule: FaultSchedule) -> Result<StreamingSession, StatError> {
        Session::builder(Cluster::bluegene_l(self.mode))
            .representation(self.representation)
            .streaming(SAMPLES_PER_TASK)
            .open(Box::new(schedule))
    }
}

/// The class a stream wave belongs to, by its index within an episode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WaveClass {
    /// Before the fault: the whole job in one barrier.
    Healthy,
    /// The wave at which the hang first appears.
    Fault,
    /// Later waves of the same hang: nothing new to ship.
    Quiescent,
}

impl WaveClass {
    /// All classes, in stream order.
    pub const ALL: [WaveClass; 3] = [WaveClass::Healthy, WaveClass::Fault, WaveClass::Quiescent];

    /// The class of wave `wave`.
    pub fn of(wave: u32) -> WaveClass {
        match wave {
            w if w < FAULT_WAVE => WaveClass::Healthy,
            w if w == FAULT_WAVE => WaveClass::Fault,
            _ => WaveClass::Quiescent,
        }
    }

    /// The suffix used in metric names.
    pub fn label(self) -> &'static str {
        match self {
            WaveClass::Healthy => "healthy",
            WaveClass::Fault => "fault",
            WaveClass::Quiescent => "quiescent",
        }
    }
}
