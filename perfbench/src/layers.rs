//! The traced attach: `Session::attach` rebuilt from each layer's public
//! functions, with a span around every call.
//!
//! The decomposition follows the attach pipeline call for call —
//! dictionary negotiation, per-daemon gather → local merge → encode, one
//! multi-channel TBON reduce, the representation's finish (decode and remap),
//! classification, and the verdict — so its classes and byte counts equal an
//! untraced attach's on the same input.  The run checks that they do.

use std::time::Duration;

use appsim::scenario::{Diagnosis, Verdict};
use appsim::{Application, RingHangApp};
use stackwalk::{FrameDictionary, FrameTable};
use stat_core::serialize::{encode_dictionary, encode_rank_map, WireTaskSet};
use stat_core::{
    diagnose, encode_tree, equivalence_classes, DenseBitVector, GatherResult, MergeChannel,
    MergeMetrics, PhaseEstimator, RankMapFilter, Representation, Session, StatDaemon, StatError,
    StatMergeFilter, SubtreeTaskList, TaskSetOps,
};
use tbon::{ChannelInput, Filter, InProcessTbon, Packet, PacketTag, Topology};

use crate::trace::{Span, Tracer};

/// Name of a traced diagnosis's root span.
pub const DIAGNOSIS_SPAN: &str = "session.diagnosis";

/// The deterministic counters of one traced attach: the same input always
/// gives the same values.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Counters {
    /// Frame names in the negotiated dictionary.
    pub frames: usize,
    /// Daemons that gathered.
    pub daemons: u32,
    /// Traces gathered across daemons.
    pub traces: u64,
    /// Nodes of the daemon-local 2D and 3D trees, summed over daemons.
    pub local_nodes: u64,
    /// Bytes `encode_tree` (2D and 3D) and `encode_rank_map` produced.
    pub encoded_bytes: u64,
    /// Bytes entering the overlay at the leaves (the attach's `packet_bytes`).
    pub leaf_bytes: u64,
    /// Filter invocations across channels.
    pub filter_invocations: usize,
    /// Bytes the front end received across channels.
    pub frontend_bytes_in: u64,
    /// Bytes the front end received on the two tree channels.
    pub frontend_tree_bytes_in: u64,
    /// Largest byte volume into one node on one channel.
    pub max_node_bytes_in: u64,
    /// Bytes that crossed overlay links across channels.
    pub link_bytes: u64,
    /// Behaviour classes.
    pub classes: usize,
    /// Nodes of the merged 3D tree.
    pub tree_nodes: usize,
}

/// What one traced attach produced.
#[derive(Clone, Debug)]
pub struct TracedAttach {
    /// The diagnosis id its spans share.
    pub diagnosis_id: u32,
    /// The exact counters.
    pub counters: Counters,
    /// Σ `ReductionOutcome::filter_time` across channels.
    pub filter_cpu: Duration,
    /// The front-end remap wall (`MergedTrees::remap_wall`).
    pub remap: Duration,
    /// The diagnosis, for comparison against an untraced attach.
    pub diagnosis: Diagnosis,
    /// The ground truth's judgement of it.
    pub verdict: Verdict,
}

/// The `PhaseEstimator` prediction for the attach's overlay, beside which the
/// measured `tbon.*` bytes are reported.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CostModel {
    /// Predicted bytes into the front end (the two tree channels).
    pub frontend_bytes: u64,
    /// Predicted bytes across overlay links.
    pub link_bytes: u64,
}

impl CostModel {
    /// The prediction for `session` on a job of `tasks` tasks.
    pub fn predict(session: &Session, tasks: u64) -> CostModel {
        let estimator = PhaseEstimator::new(session.cluster().clone(), session.representation());
        let estimate = estimator.merge_estimate_shape(tasks, &session.topology_for(tasks));
        CostModel {
            frontend_bytes: estimate.frontend_bytes,
            link_bytes: estimate.total_bytes,
        }
    }

    /// Relative error of the front-end byte prediction against the measured
    /// tree-channel bytes: `(predicted - measured) / measured`.
    pub fn residual(&self, counters: &Counters) -> f64 {
        let measured = counters.frontend_tree_bytes_in.max(1) as f64;
        (self.frontend_bytes as f64 - measured) / measured
    }
}

/// Run one traced attach of `app` under `session`'s configuration, judged
/// against the app's ground truth.
pub fn traced_attach(
    session: &Session,
    app: &RingHangApp,
    tracer: &mut Tracer,
) -> Result<TracedAttach, StatError> {
    let id = tracer.begin_root(DIAGNOSIS_SPAN);
    let out = match session.representation() {
        Representation::GlobalBitVector => attach_as::<DenseBitVector>(session, app, tracer, id),
        Representation::HierarchicalTaskList => {
            attach_as::<SubtreeTaskList>(session, app, tracer, id)
        }
    };
    tracer.end();
    out
}

fn attach_as<S: WireTaskSet + Send + Sync + 'static>(
    session: &Session,
    app: &RingHangApp,
    tracer: &mut Tracer,
    diagnosis_id: u32,
) -> Result<TracedAttach, StatError> {
    let tasks = app.num_tasks();
    let samples = session.samples_per_task();
    let strategy = session.representation().strategy();
    let ships_rank_map = strategy.needs_rank_map();
    let spec = session.topology_for(tasks);
    let topology = Topology::build(spec.clone());

    let dict = tracer.span("stackwalk.negotiate", || {
        let dict = FrameDictionary::negotiate(app.frame_hints());
        let payload = encode_dictionary(&dict.negotiated_names()).len() as u64;
        InProcessTbon::new(topology.clone()).broadcast_link_bytes(payload);
        dict
    });

    let daemons = StatDaemon::partition(tasks, spec.backends());
    let mut leaves_2d = Vec::with_capacity(daemons.len());
    let mut leaves_3d = Vec::with_capacity(daemons.len());
    let mut leaves_map = Vec::with_capacity(daemons.len());
    let mut traces = 0u64;
    let mut local_nodes = 0u64;
    let mut encoded_bytes = 0u64;
    for (daemon, &leaf) in daemons.iter().zip(topology.backends()) {
        let mut table = FrameTable::new();
        let gathered = tracer.span("daemon.gather", || daemon.gather(app, samples, &mut table));
        traces += gathered
            .iter()
            .map(|t| t.sample_count() as u64)
            .sum::<u64>();
        let (tree_2d, tree_3d) =
            tracer.span("graph.build_trees", || daemon.build_trees::<S>(&gathered));
        local_nodes += (tree_2d.node_count() + tree_3d.node_count()) as u64;
        // As in `StatDaemon::contribute`, wrapping the encoded bytes in a
        // packet copies them, so it is timed with the encode.
        let (packet_2d, packet_3d, packet_map) = tracer.span("serialize.encode", || {
            (
                Packet::new(
                    PacketTag::Merged2d,
                    leaf,
                    encode_tree(&tree_2d, &table, &dict),
                ),
                Packet::new(
                    PacketTag::Merged3d,
                    leaf,
                    encode_tree(&tree_3d, &table, &dict),
                ),
                Packet::new(PacketTag::RankMap, leaf, encode_rank_map(&daemon.ranks)),
            )
        });
        encoded_bytes += [&packet_2d, &packet_3d, &packet_map]
            .iter()
            .map(|p| p.size_bytes() as u64)
            .sum::<u64>();
        leaves_2d.push(packet_2d);
        leaves_3d.push(packet_3d);
        if ships_rank_map {
            leaves_map.push(packet_map);
        }
        // `StatDaemon::contribute` frees the samples and local trees before it
        // returns, so an attach pays for this too.
        tracer.span("daemon.release", || {
            drop((gathered, tree_2d, tree_3d, table))
        });
    }
    let leaf_bytes: u64 = [&leaves_2d, &leaves_3d, &leaves_map]
        .iter()
        .flat_map(|leaves| leaves.iter())
        .map(|p| p.size_bytes() as u64)
        .sum();

    let merge_filter = StatMergeFilter::<S>::new();
    let rank_map_filter = RankMapFilter;
    let mut channels = vec![
        ChannelInput::new(MergeChannel::Tree2d.label(), leaves_2d),
        ChannelInput::new(MergeChannel::Tree3d.label(), leaves_3d),
    ];
    let mut filters: Vec<&dyn Filter> = vec![&merge_filter, &merge_filter];
    if ships_rank_map {
        channels.push(ChannelInput::new(MergeChannel::RankMap.label(), leaves_map));
        filters.push(&rank_map_filter);
    }
    let net = InProcessTbon::new(topology);
    let outcomes = tracer.span("tbon.reduce_channels", || {
        net.reduce_channels(channels, &filters)
    })?;
    let mut metrics = MergeMetrics::default();
    // The reduce span has no children, so it is the last one recorded.
    let reduce_wall = tracer.spans().last().map_or(Duration::ZERO, Span::duration);
    metrics.absorb_walk(&outcomes, reduce_wall);

    let merged = tracer.span("strategy.finish", || {
        strategy.finish(&outcomes[0], &outcomes[1], outcomes.get(2), tasks, &dict)
    })?;
    metrics.remap_wall = merged.remap_wall;

    let classes = tracer.span("equivalence.classify", || {
        equivalence_classes(&merged.tree_3d)
    });
    let gather = GatherResult {
        tree_2d: merged.tree_2d,
        tree_3d: merged.tree_3d,
        frames: merged.frames,
        classes,
        metrics,
    };

    let truth = app.ground_truth();
    let (diagnosis, verdict) = tracer.span("scenario.judge", || {
        let covered = gather.tree_3d.tasks(gather.tree_3d.root()).count();
        let diagnosis = diagnose(&gather, covered, Vec::new());
        let verdict = truth.check("ring_hang", &diagnosis);
        (diagnosis, verdict)
    });

    let counters = Counters {
        frames: dict.len(),
        daemons: spec.backends(),
        traces,
        local_nodes,
        encoded_bytes,
        leaf_bytes,
        filter_invocations: gather.metrics.filter_invocations,
        frontend_bytes_in: gather.metrics.frontend_bytes_in,
        frontend_tree_bytes_in: outcomes[..2].iter().map(|o| o.frontend_bytes_in).sum(),
        max_node_bytes_in: gather.metrics.max_node_bytes_in,
        link_bytes: gather.metrics.total_link_bytes,
        classes: gather.classes.len(),
        tree_nodes: gather.tree_3d.node_count(),
    };
    Ok(TracedAttach {
        diagnosis_id,
        counters,
        filter_cpu: gather.metrics.filter_wall,
        remap: gather.metrics.remap_wall,
        diagnosis,
        verdict,
    })
}
