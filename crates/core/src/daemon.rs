//! The STAT back-end daemon.
//!
//! One daemon runs per compute node (Atlas) or per I/O node (BG/L).  Its job is
//! small and local: attach to the MPI tasks it is responsible for, gather a window of
//! stack traces from each via the stack walker, fold them into *locally merged* 2D
//! and 3D prefix trees, and hand the serialised trees (plus its local rank list) to
//! the overlay network.  Everything global happens in the filters above it.
//!
//! The daemons are independent, as on the real machine, so a session runs them on
//! every core of the front-end host through `on_every_core`: the attach path
//! and every streaming wave share that one helper.

use std::num::NonZeroUsize;
use std::sync::{Condvar, Mutex, PoisonError};

use appsim::Application;
use stackwalk::{FrameDictionary, FrameTable, TaskSamples};
use tbon::packet::{EndpointId, Packet, PacketTag};

use crate::graph::PrefixTree;
use crate::serialize::{encode_rank_map, encode_tree, WireTaskSet};

/// A back-end daemon responsible for a contiguous slice of MPI ranks.
#[derive(Clone, Debug)]
pub struct StatDaemon {
    /// Daemon index (also its leaf position in the TBON, in backend order).
    pub id: u32,
    /// The MPI ranks this daemon gathers traces from, ascending.
    pub ranks: Vec<u64>,
    /// Total tasks in the job (needed for the global representation's domain).
    pub total_tasks: u64,
}

/// Everything a daemon contributes to one gather: serialised trees and its rank map.
#[derive(Clone, Debug)]
pub struct DaemonContribution {
    /// The daemon that produced this contribution.
    pub daemon_id: u32,
    /// Serialised locally merged 2D (trace/space) tree.
    pub tree_2d: Packet,
    /// Serialised locally merged 3D (trace/space/time) tree.
    pub tree_3d: Packet,
    /// The daemon's local rank list, for the front-end remap.
    pub rank_map: Packet,
    /// Number of traces gathered from local tasks.
    pub traces_gathered: u64,
    /// Wall-clock time this daemon spent gathering stack traces.
    pub sample_wall: std::time::Duration,
    /// Wall-clock time this daemon spent building and serialising its local trees.
    pub local_merge_wall: std::time::Duration,
}

impl StatDaemon {
    /// A daemon serving the given ranks of a `total_tasks`-task job.
    pub fn new(id: u32, ranks: Vec<u64>, total_tasks: u64) -> Self {
        StatDaemon {
            id,
            ranks,
            total_tasks,
        }
    }

    /// Partition a job of `total_tasks` ranks over `daemons` daemons the way the
    /// machines in the paper do: contiguous blocks in rank order, the earlier daemons
    /// taking the remainder.
    pub fn partition(total_tasks: u64, daemons: u32) -> Vec<StatDaemon> {
        let daemons = daemons.max(1) as u64;
        let base = total_tasks / daemons;
        let extra = total_tasks % daemons;
        let mut out = Vec::with_capacity(daemons as usize);
        let mut next_rank = 0u64;
        for d in 0..daemons {
            let count = base + if d < extra { 1 } else { 0 };
            let ranks: Vec<u64> = (next_rank..next_rank + count).collect();
            next_rank += count;
            out.push(StatDaemon::new(d as u32, ranks, total_tasks));
        }
        out
    }

    /// Number of local tasks.
    pub fn local_tasks(&self) -> u64 {
        self.ranks.len() as u64
    }

    /// Gather `samples` traces from each local task of `app`.
    pub fn gather(
        &self,
        app: &dyn Application,
        samples: u32,
        table: &mut FrameTable,
    ) -> Vec<TaskSamples> {
        appsim::gather_samples_for_ranks(app, &self.ranks, samples, table)
    }

    /// Build the locally merged 2D and 3D trees from gathered samples.
    ///
    /// The index used for each task depends on the representation: the global (dense)
    /// representation indexes by MPI rank in a job-wide domain, the hierarchical one
    /// by local position in a domain the size of this daemon's task list.
    pub fn build_trees<S: WireTaskSet>(
        &self,
        samples: &[TaskSamples],
    ) -> (PrefixTree<S>, PrefixTree<S>) {
        let hierarchical = S::TAG == 1;
        let width = if hierarchical {
            self.local_tasks()
        } else {
            self.total_tasks
        };
        let mut tree_2d = PrefixTree::<S>::new(width, hierarchical);
        let mut tree_3d = PrefixTree::<S>::new(width, hierarchical);
        for (local_pos, task) in samples.iter().enumerate() {
            let index = if hierarchical {
                local_pos as u64
            } else {
                task.rank
            };
            tree_2d.add_first_sample(task, index);
            tree_3d.add_samples(task, index);
        }
        (tree_2d, tree_3d)
    }

    /// Run one full gather-and-merge cycle and package the results for the TBON.
    ///
    /// The two daemon-local phases — sampling the application and building the local
    /// trees — are timed separately so the session can report the pipeline breakdown
    /// the paper measures.  `dict` is the session's negotiated frame dictionary:
    /// the daemon still symbolises into its own local [`FrameTable`], but the v2
    /// encoder relabels every frame to its session-global id on the way out.
    pub fn contribute<S: WireTaskSet>(
        &self,
        app: &dyn Application,
        samples: u32,
        leaf_endpoint: EndpointId,
        dict: &FrameDictionary,
    ) -> DaemonContribution {
        self.contribute_in_turn::<S>(app, samples, leaf_endpoint, dict, &Turn::ALONE)
    }

    /// [`Self::contribute`] as one daemon of a chunk run by [`on_every_core`].
    pub(crate) fn contribute_in_turn<S: WireTaskSet>(
        &self,
        app: &dyn Application,
        samples: u32,
        leaf_endpoint: EndpointId,
        dict: &FrameDictionary,
        turn: &Turn<'_>,
    ) -> DaemonContribution {
        let mut table = FrameTable::new();
        let sample_start = std::time::Instant::now();
        let gathered = self.gather(app, samples, &mut table);
        let sample_wall = sample_start.elapsed();
        let traces: u64 = gathered.iter().map(|t| t.sample_count() as u64).sum();
        let merge_start = std::time::Instant::now();
        let (tree_2d, tree_3d) = self.build_trees::<S>(&gathered);
        drop(gathered);
        turn.before_encoding(&table, dict);
        DaemonContribution {
            daemon_id: self.id,
            tree_2d: Packet::new(
                PacketTag::Merged2d,
                leaf_endpoint,
                encode_tree(&tree_2d, &table, dict),
            ),
            tree_3d: Packet::new(
                PacketTag::Merged3d,
                leaf_endpoint,
                encode_tree(&tree_3d, &table, dict),
            ),
            rank_map: Packet::new(
                PacketTag::RankMap,
                leaf_endpoint,
                encode_rank_map(&self.ranks),
            ),
            traces_gathered: traces,
            sample_wall,
            local_merge_wall: merge_start.elapsed(),
        }
    }
}

/// Run every daemon's gather → local merge → serialise cycle on every core, one
/// contribution per `(daemon, leaf)` pair, in the order given.
pub(crate) fn contribute_all<S: WireTaskSet>(
    daemons: &[(&StatDaemon, EndpointId)],
    app: &dyn Application,
    samples: u32,
    dict: &FrameDictionary,
) -> Vec<DaemonContribution> {
    let mut jobs = daemons.to_vec();
    on_every_core(&mut jobs, |(daemon, leaf), turn| {
        daemon.contribute_in_turn::<S>(app, samples, *leaf, dict, turn)
    })
}

/// Run `work` over every item on every core and return the results in item
/// order.
///
/// The items (daemons, in backend order) are split into contiguous chunks, one
/// per worker; the workers are sized like the TBON's reduction pool — the
/// machine's available parallelism, capped at the item count.  Each worker
/// finishes one item before it starts the next, so it holds one daemon's samples
/// at a time.  The calling thread only joins the workers: when it also ran a
/// chunk, its share of the packets landed in its own allocator arena and the
/// 65,536-task dense attach peaked at about 20 % more resident memory.  A panic
/// in any worker propagates to the caller with its original payload.
pub(crate) fn on_every_core<T: Send, R: Send>(
    items: &mut [T],
    work: impl Fn(&mut T, &Turn<'_>) -> R + Sync,
) -> Vec<R> {
    let items_len = items.len();
    let workers = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(4)
        .min(items_len)
        .max(1);
    let chunk_len = items_len.div_ceil(workers).max(1);
    let order = ChunkOrder {
        finished: Mutex::new(vec![false; workers]),
        changed: Condvar::new(),
    };
    let run_chunk = |chunk: usize, items: &mut [T]| -> Vec<R> {
        let turn = Turn {
            chunk,
            order: Some(&order),
        };
        let _finished = FinishOnDrop(&turn);
        items.iter_mut().map(|item| work(item, &turn)).collect()
    };
    let run_chunk = &run_chunk;
    std::thread::scope(|scope| {
        let workers: Vec<_> = items
            .chunks_mut(chunk_len)
            .enumerate()
            .map(|(chunk, items)| scope.spawn(move || run_chunk(chunk, items)))
            .collect();
        let mut out = Vec::with_capacity(items_len);
        for worker in workers {
            match worker.join() {
                Ok(results) => out.extend(results),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    })
}

/// Which chunk of an [`on_every_core`] run a daemon belongs to.
///
/// Encoding a tree interns its frame names into the session dictionary, and a
/// name the dictionary has not seen gets the next free id.  So that concurrent
/// daemons hand out exactly the ids a one-by-one run would, a daemon about to
/// encode a name the dictionary does not know first waits until every earlier
/// chunk has finished.  Names the dictionary already knows — every frame the
/// application hinted at setup — never wait.
pub(crate) struct Turn<'a> {
    chunk: usize,
    order: Option<&'a ChunkOrder>,
}

impl Turn<'_> {
    /// The turn of a daemon run on its own: nothing comes before it.
    pub(crate) const ALONE: Turn<'static> = Turn {
        chunk: 0,
        order: None,
    };

    /// Call after sampling into `table` and before encoding against `dict`.
    pub(crate) fn before_encoding(&self, table: &FrameTable, dict: &FrameDictionary) {
        if let Some(order) = self.order {
            if self.chunk > 0 && !dict.knows_all(table.names()) {
                order.await_chunks_before(self.chunk);
            }
        }
    }
}

/// Completion flags of the chunks of one [`on_every_core`] run.
struct ChunkOrder {
    finished: Mutex<Vec<bool>>,
    changed: Condvar,
}

impl ChunkOrder {
    fn await_chunks_before(&self, chunk: usize) {
        let finished = self.finished.lock().unwrap_or_else(PoisonError::into_inner);
        let released = self
            .changed
            .wait_while(finished, |done| done.iter().take(chunk).any(|&d| !d))
            .unwrap_or_else(PoisonError::into_inner);
        drop(released);
    }

    fn finish(&self, chunk: usize) {
        {
            let mut finished = self.finished.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(done) = finished.get_mut(chunk) {
                *done = true;
            }
        }
        self.changed.notify_all();
    }
}

/// Marks a chunk finished when its worker is done — or unwinds — so no later
/// chunk waits forever on a worker that panicked.
struct FinishOnDrop<'t, 'a>(&'t Turn<'a>);

impl Drop for FinishOnDrop<'_, '_> {
    fn drop(&mut self) {
        if let Some(order) = self.0.order {
            order.finish(self.0.chunk);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serialize::decode_tree;
    use crate::taskset::{DenseBitVector, SubtreeTaskList, TaskSetOps};
    use appsim::{FrameVocabulary, RingHangApp};

    #[test]
    fn partition_covers_every_rank_exactly_once() {
        let daemons = StatDaemon::partition(1_000, 7);
        assert_eq!(daemons.len(), 7);
        let mut all: Vec<u64> = daemons.iter().flat_map(|d| d.ranks.clone()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..1_000).collect::<Vec<_>>());
        // Sizes differ by at most one.
        let sizes: Vec<usize> = daemons.iter().map(|d| d.ranks.len()).collect();
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn partition_with_more_daemons_than_tasks() {
        let daemons = StatDaemon::partition(3, 8);
        let nonempty = daemons.iter().filter(|d| !d.ranks.is_empty()).count();
        assert_eq!(nonempty, 3);
        assert_eq!(daemons.len(), 8);
    }

    #[test]
    fn daemon_trees_reflect_local_tasks_only() {
        let app = RingHangApp::new(64, FrameVocabulary::Linux);
        let daemons = StatDaemon::partition(64, 8);
        let d0 = &daemons[0]; // ranks 0..8, includes the hung rank 1 and victim 2
        let mut table = FrameTable::new();
        let samples = d0.gather(&app, 2, &mut table);
        assert_eq!(samples.len(), 8);

        let (tree_2d, tree_3d) = d0.build_trees::<DenseBitVector>(&samples);
        assert_eq!(tree_2d.tasks(tree_2d.root()).count(), 8);
        assert!(tree_3d.node_count() >= tree_2d.node_count());

        let (sub_2d, _) = d0.build_trees::<SubtreeTaskList>(&samples);
        assert_eq!(sub_2d.width(), 8);
        assert_eq!(sub_2d.tasks(sub_2d.root()).count(), 8);
    }

    #[test]
    fn contribution_packets_decode_back() {
        let app = RingHangApp::new(32, FrameVocabulary::BlueGeneL);
        let dict = FrameDictionary::negotiate(app.frame_hints());
        let daemons = StatDaemon::partition(32, 4);
        let c = daemons[1].contribute::<DenseBitVector>(&app, 3, EndpointId(5), &dict);
        assert_eq!(c.daemon_id, 1);
        assert_eq!(c.traces_gathered, 8 * 3);
        let (tree, _frames): (PrefixTree<DenseBitVector>, _) =
            decode_tree(&c.tree_2d.payload).unwrap();
        assert_eq!(tree.tasks(tree.root()).members(), daemons[1].ranks);
        let map = crate::serialize::decode_rank_map(&c.rank_map.payload).unwrap();
        assert_eq!(map, daemons[1].ranks);
    }

    #[test]
    fn on_every_core_returns_results_in_item_order() {
        for len in [0usize, 1, 2, 3, 1_001] {
            let mut items: Vec<u64> = (0..len as u64).collect();
            let out = on_every_core(&mut items, |item, _| {
                *item += 1;
                *item * 2
            });
            assert_eq!(out, (1..=len as u64).map(|i| i * 2).collect::<Vec<_>>());
            assert_eq!(items, (1..=len as u64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_worker_panic_propagates_with_its_payload() {
        let mut items: Vec<u32> = (0..64).collect();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            on_every_core(&mut items, |&mut item, _| {
                assert_ne!(item, 63, "daemon 63 failed");
                item
            })
        }));
        let payload = caught.expect_err("the panic must reach the caller");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(message.contains("daemon 63 failed"), "{message}");
    }

    /// An application that hints nothing, so every frame is interned while the
    /// daemons encode; each block of ranks reaches a frame of its own.
    struct UnhintedApp;

    impl Application for UnhintedApp {
        fn name(&self) -> &str {
            "unhinted"
        }
        fn num_tasks(&self) -> u64 {
            96
        }
        fn call_path(&self, rank: u64, _thread: u32, sample: u32) -> Vec<&'static str> {
            const BLOCKS: [&str; 6] = [
                "block_a", "block_b", "block_c", "block_d", "block_e", "block_f",
            ];
            let block = BLOCKS[(rank / 16) as usize % BLOCKS.len()];
            if sample.is_multiple_of(2) {
                vec!["_start", "main", block]
            } else {
                vec!["_start", "main", block, "poll"]
            }
        }
    }

    #[test]
    fn concurrent_daemons_intern_new_frames_in_backend_order() {
        let app = UnhintedApp;
        let daemons = StatDaemon::partition(app.num_tasks(), 12);
        let jobs: Vec<(&StatDaemon, EndpointId)> = daemons
            .iter()
            .enumerate()
            .map(|(i, d)| (d, EndpointId(i as u32 + 1)))
            .collect();
        for _ in 0..8 {
            let serial_dict = FrameDictionary::default();
            let serial: Vec<DaemonContribution> = jobs
                .iter()
                .map(|&(d, leaf)| d.contribute::<SubtreeTaskList>(&app, 2, leaf, &serial_dict))
                .collect();
            let dict = FrameDictionary::default();
            let parallel = contribute_all::<SubtreeTaskList>(&jobs, &app, 2, &dict);
            assert_eq!(
                dict.snapshot().names().collect::<Vec<_>>(),
                serial_dict.snapshot().names().collect::<Vec<_>>()
            );
            assert_eq!(parallel.len(), serial.len());
            for (p, s) in parallel.iter().zip(&serial) {
                assert_eq!(p.daemon_id, s.daemon_id);
                assert_eq!(p.tree_2d.payload, s.tree_2d.payload);
                assert_eq!(p.tree_3d.payload, s.tree_3d.payload);
                assert_eq!(p.rank_map.payload, s.rank_map.payload);
            }
        }
    }

    #[test]
    fn hierarchical_contribution_is_much_smaller_for_big_jobs() {
        let app = RingHangApp::new(8_192, FrameVocabulary::BlueGeneL);
        let dict = FrameDictionary::negotiate(app.frame_hints());
        let daemons = StatDaemon::partition(8_192, 64);
        let dense = daemons[0].contribute::<DenseBitVector>(&app, 1, EndpointId(1), &dict);
        let hier = daemons[0].contribute::<SubtreeTaskList>(&app, 1, EndpointId(1), &dict);
        assert!(dense.tree_2d.size_bytes() > 10 * hier.tree_2d.size_bytes());
    }
}
