//! The closed loops: one client starts the next diagnosis when the
//! previous one has been judged.

use std::time::{Duration, Instant};

use appsim::scenario::{Diagnosis, GroundTruth};
use appsim::RingHangApp;
use stat_core::{Session, SessionReport, WaveReport};

use crate::layers::{traced_attach, CostModel, TracedAttach};
use crate::speed::HostSpeed;
use crate::trace::Tracer;
use crate::workload::{Drive, WaveClass, Workload, SAMPLES_PER_TASK, WAVES_PER_EPISODE};

/// Attach set-ups per timed batch.  One takes well under a microsecond, so a
/// batch is what makes its time measurable.
const SETUPS_PER_BATCH: u32 = 200;

/// Root span of one streaming wave.
pub(crate) const ADVANCE_SPAN: &str = "streaming.advance";

/// Root span of one stream set-up.
const OPEN_SPAN: &str = "streaming.open";

/// Everything one run measured.
#[derive(Clone, Debug, Default)]
pub struct Measured {
    /// Wall time of each timed diagnosis, in milliseconds.
    pub diagnosis_ms: Vec<f64>,
    /// The host-speed factor of each timed diagnosis (see `speed`).
    pub diagnosis_factor: Vec<f64>,
    /// Traces the timed diagnoses gathered.
    pub traces: u64,
    /// Leaf bytes of each timed diagnosis.
    pub leaf_bytes: Vec<f64>,
    /// Wall time of each set-up, in seconds.
    pub setup_s: Vec<f64>,
    /// The host-speed factor of each set-up.
    pub setup_factor: Vec<f64>,
    /// Diagnoses attempted, warm-up included.
    pub attempted: u64,
    /// What went wrong, one line per failed diagnosis or output check.
    pub failures: Vec<String>,
}

impl Measured {
    fn fail(&mut self, what: impl Into<String>) {
        self.failures.push(what.into());
    }

    /// Diagnosis times corrected for the host's speed, in milliseconds.
    pub fn corrected_diagnosis_ms(&self) -> Vec<f64> {
        corrected(&self.diagnosis_ms, &self.diagnosis_factor)
    }

    /// Set-up times corrected for the host's speed, in seconds.
    pub fn corrected_setup_s(&self) -> Vec<f64> {
        corrected(&self.setup_s, &self.setup_factor)
    }
}

fn corrected(values: &[f64], factors: &[f64]) -> Vec<f64> {
    values.iter().zip(factors).map(|(v, f)| v * f).collect()
}

/// What an untraced attach must agree with a traced one on.
#[derive(Clone, Debug)]
struct Reference {
    /// The diagnosis: classes by call path and ranks.
    diagnosis: Diagnosis,
    /// `MergeMetrics::frontend_bytes_in`.
    frontend_bytes_in: u64,
    /// `SessionReport::packet_bytes`.
    leaf_bytes: u64,
}

/// Run `workload` untraced for `budget`, judging every diagnosis.
pub fn measure(workload: &Workload, seed: u64, budget: Duration) -> Measured {
    let mut measured = Measured::default();
    match workload.drive {
        Drive::Attach => {
            let attach = AttachLoop::new(workload, seed);
            let mut speed = HostSpeed::new();
            time_setup(workload, seed, &mut measured, &speed);
            attach.untraced(&mut measured, false, &mut speed);
            let start = Instant::now();
            while start.elapsed() < budget {
                time_setup(workload, seed, &mut measured, &speed);
                attach.untraced(&mut measured, true, &mut speed);
            }
        }
        Drive::Stream => {
            stream_episodes(workload, seed, budget, &mut measured, None);
        }
    }
    measured
}

/// Time one set-up into `measured.setup_s`: the mean of a batch of session
/// builds for an attach, one stream open for a stream.  Runs take one before
/// every diagnosis, so the samples span the whole run, not a few milliseconds
/// of it.  Each is scaled by the host speed sampled just before it.
fn time_setup(workload: &Workload, seed: u64, measured: &mut Measured, speed: &HostSpeed) {
    match workload.drive {
        Drive::Attach => {
            let start = Instant::now();
            for _ in 0..SETUPS_PER_BATCH {
                std::hint::black_box(workload.session());
            }
            let batch = start.elapsed().as_secs_f64();
            measured.setup_s.push(batch / f64::from(SETUPS_PER_BATCH));
            measured.setup_factor.push(speed.factor_now());
        }
        Drive::Stream => {
            let schedule = workload.schedule(seed);
            let start = Instant::now();
            let opened = std::hint::black_box(workload.open_stream(schedule));
            measured.setup_s.push(start.elapsed().as_secs_f64());
            measured.setup_factor.push(speed.factor_now());
            if let Err(err) = opened {
                measured.attempted += 1;
                measured.fail(format!("open failed: {err}"));
            }
        }
    }
}

/// One client attaching to one seeded job, over and over.
struct AttachLoop {
    workload: Workload,
    session: Session,
    app: RingHangApp,
    truth: GroundTruth,
}

impl AttachLoop {
    fn new(workload: &Workload, seed: u64) -> Self {
        let app = workload.app(seed);
        AttachLoop {
            workload: *workload,
            session: workload.session(),
            truth: app.ground_truth(),
            app,
        }
    }

    /// One `Session::attach`, judged and checked; timed unless it is the
    /// warm-up that lets caches fill and lazy set-up finish.  The host speed
    /// is sampled right after it.
    fn untraced(
        &self,
        measured: &mut Measured,
        timed: bool,
        speed: &mut HostSpeed,
    ) -> Option<Reference> {
        measured.attempted += 1;
        let began = Instant::now();
        let judged = self.session.attach(&self.app).map(|report| {
            let diagnosis = report.diagnosis();
            let verdict = self.truth.check("ring_hang", &diagnosis);
            (report, diagnosis, verdict)
        });
        let wall = began.elapsed();
        let factor = speed.factor_since_last();
        let (report, diagnosis, verdict) = match judged {
            Ok(judged) => judged,
            Err(err) => {
                measured.fail(format!("attach failed: {err}"));
                return None;
            }
        };
        if !verdict.passed() {
            measured.fail(format!("wrong diagnosis: {}", verdict.summary()));
            return None;
        }
        if let Some(problem) = check_attach(&self.workload, &report) {
            measured.fail(problem);
            return None;
        }
        if timed {
            measured.diagnosis_ms.push(wall.as_secs_f64() * 1e3);
            measured.diagnosis_factor.push(factor);
            measured.traces += report.traces_gathered;
            measured.leaf_bytes.push(report.packet_bytes as f64);
        }
        Some(Reference {
            diagnosis,
            frontend_bytes_in: report.gather.metrics.frontend_bytes_in,
            leaf_bytes: report.packet_bytes,
        })
    }
}

/// Output checks beyond the verdict: the attach covered the whole job with
/// the expected overlay, in one walk.
fn check_attach(workload: &Workload, report: &SessionReport) -> Option<String> {
    let traces = workload.tasks * u64::from(SAMPLES_PER_TASK);
    if report.daemons != workload.daemons {
        Some(format!(
            "{} daemons, expected {}",
            report.daemons, workload.daemons
        ))
    } else if report.traces_gathered != traces {
        Some(format!(
            "{} traces, expected {traces}",
            report.traces_gathered
        ))
    } else if report.gather.metrics.tree_walks != 1 {
        Some(format!(
            "{} overlay walks, expected 1",
            report.gather.metrics.tree_walks
        ))
    } else {
        None
    }
}

/// Output checks beyond the verdict for one wave.
fn check_wave(workload: &Workload, wave: &WaveReport) -> Option<String> {
    let traces = workload.tasks * u64::from(SAMPLES_PER_TASK);
    if wave.traces_gathered != traces {
        Some(format!(
            "wave {}: {} traces, expected {traces}",
            wave.wave, wave.traces_gathered
        ))
    } else if wave.covered_tasks != workload.tasks || wave.reseeded {
        Some(format!("wave {}: lost coverage", wave.wave))
    } else {
        None
    }
}

/// One traced stream wave and what its `WaveReport` said.
#[derive(Clone, Debug)]
pub struct TracedWave {
    /// The wave's class.
    pub class: WaveClass,
    /// The diagnosis id of its `streaming.advance` span.
    pub diagnosis_id: u32,
    /// The report.
    pub report: WaveReport,
    /// `StreamingSession::resident_bytes` after the wave.
    pub resident_bytes: usize,
}

/// Run whole stream episodes — open, then [`WAVES_PER_EPISODE`] waves —
/// until `budget` has passed.  With a tracer, each wave and set-up is a root
/// span and the waves are returned.
pub fn stream_episodes(
    workload: &Workload,
    seed: u64,
    budget: Duration,
    measured: &mut Measured,
    mut tracer: Option<&mut Tracer>,
) -> Vec<TracedWave> {
    let mut waves = Vec::new();
    let mut speed = HostSpeed::new();
    let start = Instant::now();
    loop {
        let schedule = workload.schedule(seed);
        if let Some(t) = tracer.as_deref_mut() {
            t.begin_root(OPEN_SPAN);
        }
        let opened = workload.open_stream(schedule);
        if let Some(t) = tracer.as_deref_mut() {
            t.end();
        }
        let mut stream = match opened {
            Ok(stream) => stream,
            Err(err) => {
                measured.attempted += 1;
                measured.fail(format!("open failed: {err}"));
                return waves;
            }
        };
        for _ in 0..WAVES_PER_EPISODE {
            time_setup(workload, seed, measured, &speed);
            measured.attempted += 1;
            let began = Instant::now();
            let id = tracer.as_deref_mut().map(|t| t.begin_root(ADVANCE_SPAN));
            let advanced = stream.advance();
            if let Some(t) = tracer.as_deref_mut() {
                t.end();
            }
            let wall = began.elapsed();
            let factor = speed.factor_since_last();
            let report = match advanced {
                Ok(report) => report,
                Err(err) => {
                    measured.fail(format!("advance failed: {err}"));
                    break;
                }
            };
            if !report.verdict.passed() {
                measured.fail(format!("wrong diagnosis: {}", report.verdict.summary()));
                continue;
            }
            if let Some(problem) = check_wave(workload, &report) {
                measured.fail(problem);
                continue;
            }
            measured.diagnosis_ms.push(wall.as_secs_f64() * 1e3);
            measured.diagnosis_factor.push(factor);
            measured.traces += report.traces_gathered;
            measured.leaf_bytes.push(wave_leaf_bytes(&report) as f64);
            if let Some(diagnosis_id) = id {
                waves.push(TracedWave {
                    class: WaveClass::of(report.wave),
                    diagnosis_id,
                    resident_bytes: stream.resident_bytes(),
                    report,
                });
            }
        }
        if start.elapsed() >= budget {
            return waves;
        }
    }
}

/// Every byte a wave pushed into the overlay at the leaves.
pub fn wave_leaf_bytes(wave: &WaveReport) -> u64 {
    wave.packet_bytes + wave.delta_bytes + wave.reseed_bytes
}

/// The traced attach run: untraced and traced attaches alternate for
/// `budget`, so the untraced baseline of the tracing overhead runs under the
/// same machine conditions, and every traced attach is checked against the
/// untraced attach on the same seed.
pub fn trace_attaches(
    workload: &Workload,
    seed: u64,
    budget: Duration,
    tracer: &mut Tracer,
) -> (Measured, Vec<TracedAttach>, CostModel) {
    let mut measured = Measured::default();
    let attach = AttachLoop::new(workload, seed);
    let model = CostModel::predict(&attach.session, workload.tasks);
    let mut speed = HostSpeed::new();
    let mut reference = attach.untraced(&mut measured, false, &mut speed);
    let mut traced = Vec::new();
    let start = Instant::now();
    loop {
        reference = attach
            .untraced(&mut measured, true, &mut speed)
            .or(reference);
        measured.attempted += 1;
        match traced_attach(&attach.session, &attach.app, tracer) {
            Err(err) => measured.fail(format!("traced attach failed: {err}")),
            Ok(run) => match disagreement(&run, reference.as_ref()) {
                Some(problem) => measured.fail(problem),
                None => traced.push(run),
            },
        }
        if start.elapsed() >= budget {
            return (measured, traced, model);
        }
    }
}

/// Where a traced attach disagrees with its verdict or with the untraced
/// attach on the same seed.
fn disagreement(run: &TracedAttach, reference: Option<&Reference>) -> Option<String> {
    let Some(reference) = reference else {
        return Some("no untraced attach to compare against".into());
    };
    if !run.verdict.passed() {
        Some(format!("traced diagnosis wrong: {}", run.verdict.summary()))
    } else if run.diagnosis.classes != reference.diagnosis.classes {
        Some("traced classes differ from Session::attach".into())
    } else if run.counters.frontend_bytes_in != reference.frontend_bytes_in {
        Some(format!(
            "traced front-end bytes {} differ from Session::attach's {}",
            run.counters.frontend_bytes_in, reference.frontend_bytes_in
        ))
    } else if run.counters.leaf_bytes != reference.leaf_bytes {
        Some(format!(
            "traced leaf bytes {} differ from Session::attach's {}",
            run.counters.leaf_bytes, reference.leaf_bytes
        ))
    } else {
        None
    }
}
