//! Report → verdict helpers: running fault scenarios through the real pipeline.
//!
//! `appsim::scenario` defines *what* to inject and *what the tool must conclude*
//! ([`appsim::scenario::GroundTruth`]); this module supplies the missing middle —
//! it runs a scenario's application through the real [`Session`] pipeline
//! (planner-chosen topology, real daemons, real single-pass TBON reduction),
//! converts the resulting [`GatherResult`] into the representation-agnostic
//! [`Diagnosis`] the verdict checker understands, and returns the [`Verdict`].
//!
//! Scenario entries that carry [`OverlayFault`] modifiers run *degraded*: the
//! requested tool daemons are pruned with [`tbon::fault::FaultTracker`], only the
//! survivors sample their tasks, and the survivors' contributions are merged over
//! the tracker's pruned replacement shape — the exact bookkeeping a production
//! deployment does when an interactive session loses daemons mid-gather.
//!
//! ```
//! use appsim::scenario::catalogue;
//! use appsim::FrameVocabulary;
//! use machine::Cluster;
//! use stat_core::prelude::*;
//!
//! let scenarios = catalogue(64, FrameVocabulary::Linux);
//! let ring = scenarios.iter().find(|s| s.name == "ring_hang").unwrap();
//! let run = run_scenario(&Cluster::test_cluster(8, 8), ring, 3).unwrap();
//! assert!(run.verdict.passed(), "{}", run.verdict);
//! ```

use appsim::scenario::{
    DiagnosedClass, Diagnosis, FaultScenario, MidTreeCorruption, MidTreeFault, OverlayFault,
    Verdict,
};
use machine::cluster::Cluster;
use tbon::fault::{FaultTracker, FilterFault, FilterFaultKind};
use tbon::packet::EndpointId;
use tbon::topology::Topology;

use crate::daemon::StatDaemon;
use crate::error::StatError;
use crate::frontend::{GatherResult, Representation};
use crate::session::{Session, SessionReport};
use crate::taskset::TaskSetOps;

/// Convert a finished gather into the representation-agnostic [`Diagnosis`] the
/// scenario verdict checkers consume: classes by frame *name*, plus the ranks a
/// degraded gather lost.
pub fn diagnose(gather: &GatherResult, tasks: u64, lost_ranks: Vec<u64>) -> Diagnosis {
    let classes = gather
        .classes
        .iter()
        .map(|class| DiagnosedClass {
            frames: class
                .path
                .iter()
                .map(|&f| gather.frames.name(f).to_string())
                .collect(),
            ranks: class.tasks.clone(),
        })
        .collect();
    Diagnosis {
        tasks,
        lost_ranks,
        classes,
    }
}

impl SessionReport {
    /// The diagnosis this (non-degraded) session produced, ready for a
    /// [`appsim::scenario::GroundTruth::check`].
    pub fn diagnosis(&self) -> Diagnosis {
        let tasks = self
            .gather
            .tree_3d
            .tasks(self.gather.tree_3d.root())
            .count();
        diagnose(&self.gather, tasks, Vec::new())
    }
}

/// Everything one scenario run produced: the verdict plus enough context to
/// report *how* the pipeline got there.
#[derive(Clone, Debug)]
pub struct ScenarioRun {
    /// The scenario that ran.
    pub scenario: String,
    /// Daemons the planned topology started with.
    pub daemons: u32,
    /// Daemons lost to the scenario's overlay faults (0 for a healthy overlay).
    pub lost_backends: usize,
    /// The diagnosis the merged tree produced.
    pub diagnosis: Diagnosis,
    /// The ground truth's judgement of that diagnosis.
    pub verdict: Verdict,
}

/// Run one scenario through the full pipeline with the paper's default
/// (hierarchical) representation.  See [`run_scenario_with`].
pub fn run_scenario(
    cluster: &Cluster,
    scenario: &FaultScenario,
    samples_per_task: u32,
) -> Result<ScenarioRun, StatError> {
    run_scenario_with(
        cluster,
        scenario,
        samples_per_task,
        Representation::HierarchicalTaskList,
    )
}

/// Run one scenario with a planner-chosen topology and an explicit
/// representation.  See [`run_scenario_in`] for callers that have already
/// configured a session (pinned topology, emulator settings, ...).
pub fn run_scenario_with(
    cluster: &Cluster,
    scenario: &FaultScenario,
    samples_per_task: u32,
    representation: Representation,
) -> Result<ScenarioRun, StatError> {
    let session = Session::builder(cluster.clone())
        .representation(representation)
        .plan_topology()
        .samples_per_task(samples_per_task)
        .build();
    run_scenario_in(&session, scenario)
}

/// Run one scenario through an already-configured [`Session`] — whatever
/// topology choice (pinned, planned or paper-default), representation and
/// sampling depth the session carries is what the scenario executes under —
/// and judge the result against the scenario's ground truth.
pub fn run_scenario_in(
    session: &Session,
    scenario: &FaultScenario,
) -> Result<ScenarioRun, StatError> {
    let app = scenario.app.as_ref();
    let tasks = app.num_tasks();
    let samples_per_task = session.samples_per_task();
    let representation = session.representation();

    if scenario.overlay_faults.is_empty() {
        let spec = session.topology_for(tasks);
        let topology = Topology::build(spec.clone());
        let filter_faults = resolve_filter_faults(&topology, &scenario.mid_tree_faults)?;
        // Mid-tree corruption needs a session carrying the resolved faults; a
        // clean scenario runs through the caller's session untouched.
        let report = if filter_faults.is_empty() {
            session.attach(app)?
        } else {
            Session::builder(session.cluster().clone())
                .representation(representation)
                .topology(spec)
                .samples_per_task(samples_per_task)
                .filter_faults(filter_faults)
                .build()
                .attach(app)?
        };
        let diagnosis = diagnose(&report.gather, tasks, Vec::new());
        let verdict = scenario.truth.check(&scenario.name, &diagnosis);
        return Ok(ScenarioRun {
            scenario: scenario.name.clone(),
            daemons: report.daemons,
            lost_backends: 0,
            diagnosis,
            verdict,
        });
    }

    // Degraded path: prune the session's overlay, sample only the survivors,
    // merge them over the tracker's replacement shape.
    let spec = session.topology_for(tasks);
    let topology = Topology::build(spec.clone());
    let mut tracker = FaultTracker::new(topology.clone());
    for fault in &scenario.overlay_faults {
        tracker.fail(resolve_fault(&topology, *fault)?);
    }

    let total_backends = topology.backends().len();
    let surviving = tracker.surviving_backend_indices();
    let degraded_spec = tracker
        .degraded_shape()
        .ok_or(StatError::SessionNotViable {
            lost_backends: total_backends - surviving.len(),
            total_backends,
        })?;

    let daemons = StatDaemon::partition(tasks, spec.backends());
    let surviving_set: std::collections::BTreeSet<usize> = surviving.iter().copied().collect();
    let lost_ranks: Vec<u64> = daemons
        .iter()
        .enumerate()
        .filter(|(i, _)| !surviving_set.contains(i))
        .flat_map(|(_, d)| d.ranks.iter().copied())
        .collect();

    // Only the survivors spend sampling time: a dead daemon gathers nothing.
    // The degraded gather still encodes against one session-global dictionary.
    let dict = stackwalk::FrameDictionary::negotiate(app.frame_hints());
    let strategy = representation.strategy();
    let degraded_topology = Topology::build(degraded_spec.clone());
    let jobs: Vec<(&StatDaemon, EndpointId)> = surviving
        .iter()
        .filter_map(|&idx| daemons.get(idx))
        .zip(degraded_topology.backends().iter().copied())
        .collect();
    let contributions = strategy.contribute_all(&jobs, app, samples_per_task, &dict);

    // Mid-tree faults hit the *degraded* tree: the corrupted comm process is
    // one that survived the pruning and still merges its (reduced) subtree.
    let filter_faults = resolve_filter_faults(&degraded_topology, &scenario.mid_tree_faults)?;
    let merge_session = Session::builder(session.cluster().clone())
        .representation(representation)
        .topology(degraded_spec)
        .samples_per_task(samples_per_task)
        .filter_faults(filter_faults)
        .build();
    let gather = merge_session.merge(contributions, tasks, &dict)?;
    let diagnosis = diagnose(&gather, tasks, lost_ranks);
    let verdict = scenario.truth.check(&scenario.name, &diagnosis);
    Ok(ScenarioRun {
        scenario: scenario.name.clone(),
        daemons: spec.backends(),
        lost_backends: total_backends - surviving.len(),
        diagnosis,
        verdict,
    })
}

/// Resolve a scenario's abstract overlay fault to a concrete endpoint of the
/// planned topology.  An index past the addressed level's width is a
/// [`StatError::FaultOutOfRange`], never a silent clamp: the old clamping made
/// `BackendFromEnd(7)` on a 4-daemon tree indistinguishable from
/// `BackendFromEnd(3)`, so a campaign sweeping fault indices across scales
/// would quietly re-run the same fault.
pub(crate) fn resolve_fault(
    topology: &Topology,
    fault: OverlayFault,
) -> Result<EndpointId, StatError> {
    match fault {
        OverlayFault::BackendFromEnd(i) => {
            let backends = topology.backends();
            if i >= backends.len() {
                return Err(StatError::FaultOutOfRange {
                    kind: "backend",
                    index: i,
                    width: backends.len(),
                });
            }
            Ok(backends[backends.len() - 1 - i])
        }
        OverlayFault::CommProcessFromEnd(i) => {
            let comm = topology.comm_processes();
            if comm.is_empty() {
                // A flat tree has no comm processes to kill; degrade a daemon so
                // the scenario still exercises the pruned path.  (Documented
                // fallback — index 0 only, anything else is out of range.)
                if i > 0 {
                    return Err(StatError::FaultOutOfRange {
                        kind: "comm-process",
                        index: i,
                        width: 0,
                    });
                }
                let backends = topology.backends();
                Ok(backends[backends.len() - 1])
            } else if i >= comm.len() {
                Err(StatError::FaultOutOfRange {
                    kind: "comm-process",
                    index: i,
                    width: comm.len(),
                })
            } else {
                Ok(comm[comm.len() - 1 - i])
            }
        }
    }
}

/// Resolve a scenario's abstract mid-tree faults to concrete
/// [`FilterFault`]s against the tree that will actually merge.  Flat trees have
/// no communication processes, so *any* mid-tree fault on them is a
/// [`StatError::FaultOutOfRange`] — there is no interior filter state to
/// corrupt.
fn resolve_filter_faults(
    topology: &Topology,
    faults: &[MidTreeFault],
) -> Result<Vec<FilterFault>, StatError> {
    let comm = topology.comm_processes();
    faults
        .iter()
        .map(|fault| {
            if fault.comm_from_end >= comm.len() {
                return Err(StatError::FaultOutOfRange {
                    kind: "mid-tree filter",
                    index: fault.comm_from_end,
                    width: comm.len(),
                });
            }
            Ok(FilterFault {
                node: comm[comm.len() - 1 - fault.comm_from_end],
                kind: match fault.kind {
                    MidTreeCorruption::Garbage => FilterFaultKind::Garbage,
                    MidTreeCorruption::Truncate => FilterFaultKind::Truncate,
                },
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use appsim::scenario::catalogue;
    use appsim::FrameVocabulary;

    fn cluster() -> Cluster {
        Cluster::test_cluster(32, 8)
    }

    #[test]
    fn the_ring_hang_scenario_is_diagnosed_end_to_end() {
        let scenarios = catalogue(256, FrameVocabulary::BlueGeneL);
        let ring = scenarios.iter().find(|s| s.name == "ring_hang").unwrap();
        let run = run_scenario(&cluster(), ring, 3).unwrap();
        assert!(run.verdict.passed(), "{}", run.verdict);
        assert_eq!(run.lost_backends, 0);
        // The checker saw the real classes, by name.
        assert!(run
            .diagnosis
            .classes
            .iter()
            .any(|c| c.frames.iter().any(|f| f == "do_SendOrStall")));
    }

    #[test]
    fn a_degraded_scenario_reports_its_lost_ranks_and_still_passes() {
        let scenarios = catalogue(256, FrameVocabulary::Linux);
        let degraded = scenarios
            .iter()
            .find(|s| s.name == "ring_hang_daemon_loss")
            .unwrap();
        let run = run_scenario(&cluster(), degraded, 2).unwrap();
        assert!(run.verdict.passed(), "{}", run.verdict);
        assert!(run.lost_backends > 0);
        assert!(!run.diagnosis.lost_ranks.is_empty());
        // The lost ranks are exactly the tail daemon's slice: high ranks, so the
        // injected bug (ranks 1 and 2) stayed covered.
        assert!(run.diagnosis.lost_ranks.iter().all(|&r| r > 2));
        let covered: u64 = run
            .diagnosis
            .classes
            .iter()
            .map(|c| c.ranks.len() as u64)
            .sum();
        assert!(covered >= 256 - run.diagnosis.lost_ranks.len() as u64);
    }

    #[test]
    fn both_representations_reach_the_same_verdicts() {
        let scenarios = catalogue(128, FrameVocabulary::Linux);
        for scenario in &scenarios {
            let hier = run_scenario_with(
                &cluster(),
                scenario,
                3,
                Representation::HierarchicalTaskList,
            )
            .unwrap();
            let dense = run_scenario_with(&cluster(), scenario, 3, Representation::GlobalBitVector)
                .unwrap();
            assert!(hier.verdict.passed(), "{}", hier.verdict);
            assert!(dense.verdict.passed(), "{}", dense.verdict);
            assert_eq!(hier.diagnosis.classes.len(), dense.diagnosis.classes.len());
        }
    }

    #[test]
    fn a_wrong_diagnosis_is_rejected_not_papered_over() {
        // Cross-wire a scenario: run the deadlock app against the ring hang's
        // ground truth.  The harness must say FAIL, not find a way to pass.
        let scenarios = catalogue(128, FrameVocabulary::Linux);
        let ring = scenarios.iter().find(|s| s.name == "ring_hang").unwrap();
        let deadlock = scenarios
            .iter()
            .find(|s| s.name == "deadlock_pair")
            .unwrap();
        let mut crossed = deadlock.clone();
        crossed.truth = ring.truth.clone();
        let run = run_scenario(&cluster(), &crossed, 3).unwrap();
        assert!(!run.verdict.passed());
        assert!(run.verdict.failures().iter().any(|c| c.name == "isolation"));
    }

    #[test]
    fn out_of_range_backend_faults_are_typed_errors_not_silent_clamps() {
        let scenarios = catalogue(64, FrameVocabulary::Linux);
        let mut wild = scenarios
            .iter()
            .find(|s| s.name == "ring_hang")
            .unwrap()
            .clone();
        let backends = Session::builder(cluster())
            .plan_topology()
            .build()
            .topology_for(64)
            .backends() as usize;
        wild.overlay_faults = vec![appsim::scenario::OverlayFault::BackendFromEnd(backends)];
        let err = run_scenario(&cluster(), &wild, 1).unwrap_err();
        assert_eq!(
            err,
            StatError::FaultOutOfRange {
                kind: "backend",
                index: backends,
                width: backends,
            }
        );
    }

    #[test]
    fn out_of_range_comm_faults_are_typed_errors_not_silent_clamps() {
        let scenarios = catalogue(64, FrameVocabulary::Linux);
        let mut wild = scenarios
            .iter()
            .find(|s| s.name == "deadlock_pair")
            .unwrap()
            .clone();
        wild.overlay_faults = vec![appsim::scenario::OverlayFault::CommProcessFromEnd(999)];
        let err = run_scenario(&cluster(), &wild, 1).unwrap_err();
        assert!(
            matches!(
                err,
                StatError::FaultOutOfRange {
                    kind: "comm-process",
                    index: 999,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn mid_tree_corruption_is_detected_not_papered_over() {
        // Corrupt one interior node's filter output: the parent merge drops the
        // corrupted subtree (or the front end refuses to decode), so the run
        // must surface the damage — a failed verdict or a pipeline error, never
        // a clean PASS.
        use appsim::scenario::{MidTreeCorruption, MidTreeFault};
        use tbon::topology::TreeShape;
        let scenarios = catalogue(256, FrameVocabulary::BlueGeneL);
        // Pin a 2-deep tree so the topology definitely has interior nodes.
        let session = Session::builder(cluster())
            .topology(TreeShape::two_deep(32, 4))
            .samples_per_task(2)
            .build();
        for kind in [MidTreeCorruption::Garbage, MidTreeCorruption::Truncate] {
            let mut corrupted = scenarios
                .iter()
                .find(|s| s.name == "ring_hang")
                .unwrap()
                .clone();
            corrupted.mid_tree_faults = vec![MidTreeFault {
                comm_from_end: 0,
                kind,
            }];
            assert!(corrupted.is_corrupting());
            match run_scenario_in(&session, &corrupted) {
                Ok(run) => assert!(
                    !run.verdict.passed(),
                    "{kind:?} corruption produced a clean PASS:\n{}",
                    run.verdict
                ),
                Err(err) => assert!(
                    matches!(
                        err,
                        StatError::Decode { .. }
                            | StatError::RankMapMismatch { .. }
                            | StatError::Reduce(_)
                    ),
                    "unexpected error class for {kind:?}: {err}"
                ),
            }
        }
    }

    #[test]
    fn mid_tree_faults_on_a_flat_tree_are_out_of_range() {
        use appsim::scenario::{MidTreeCorruption, MidTreeFault};
        use tbon::topology::TreeShape;
        let scenarios = catalogue(64, FrameVocabulary::Linux);
        let mut corrupted = scenarios
            .iter()
            .find(|s| s.name == "ring_hang")
            .unwrap()
            .clone();
        corrupted.mid_tree_faults = vec![MidTreeFault {
            comm_from_end: 0,
            kind: MidTreeCorruption::Garbage,
        }];
        let session = Session::builder(cluster())
            .topology(TreeShape::flat(8))
            .samples_per_task(1)
            .build();
        let err = run_scenario_in(&session, &corrupted).unwrap_err();
        assert_eq!(
            err,
            StatError::FaultOutOfRange {
                kind: "mid-tree filter",
                index: 0,
                width: 0,
            }
        );
    }

    #[test]
    fn losing_every_daemon_is_an_error_not_a_panic() {
        let scenarios = catalogue(64, FrameVocabulary::Linux);
        let mut doomed = scenarios
            .iter()
            .find(|s| s.name == "ring_hang")
            .unwrap()
            .clone();
        // More faults than the topology has backends: every daemon dies.
        let backends = Session::builder(cluster())
            .plan_topology()
            .build()
            .topology_for(64)
            .backends() as usize;
        doomed.overlay_faults = (0..backends)
            .map(appsim::scenario::OverlayFault::BackendFromEnd)
            .collect();
        let err = run_scenario(&cluster(), &doomed, 1).unwrap_err();
        assert!(matches!(err, StatError::SessionNotViable { .. }));
        assert!(err.to_string().contains("no degraded session"));
    }
}
