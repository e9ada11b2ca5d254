//! Property-based tests (proptest) over the core data structures and invariants:
//! task-set algebra, prefix-tree merging, wire-format round trips, topology
//! construction and the discrete-event engine's conservation laws.

use proptest::prelude::*;

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use appsim::{catalogue, Application, FrameVocabulary, ThreadedApp};
use stackwalk::{FrameId, FrameTable, StackTrace, Walker};
use stat_core::prelude::*;
use stat_core::serialize::WireTaskSet;
use tbon::topology::{Topology, TreeShape};

// ---------------------------------------------------------------------------------
// Task-set algebra
// ---------------------------------------------------------------------------------

fn rank_set(width: u64) -> impl Strategy<Value = Vec<u64>> {
    prop::collection::btree_set(0..width, 0..64).prop_map(|s| s.into_iter().collect())
}

proptest! {
    #[test]
    fn dense_and_subtree_sets_agree_on_membership(ranks in rank_set(300)) {
        let mut dense = DenseBitVector::empty(300);
        let mut subtree = SubtreeTaskList::empty(300);
        for &r in &ranks {
            dense.insert(r);
            subtree.insert(r);
        }
        prop_assert_eq!(dense.members(), subtree.members());
        prop_assert_eq!(dense.count(), ranks.len() as u64);
        for r in 0..300 {
            prop_assert_eq!(dense.contains(r), ranks.contains(&r));
        }
    }

    #[test]
    fn dense_union_is_commutative_associative_idempotent(
        a in rank_set(256),
        b in rank_set(256),
        c in rank_set(256),
    ) {
        let build = |ranks: &[u64]| {
            let mut s = DenseBitVector::empty(256);
            for &r in ranks {
                s.insert(r);
            }
            s
        };
        let (sa, sb, sc) = (build(&a), build(&b), build(&c));

        // commutative
        let mut ab = sa.clone();
        ab.union_in_place(&sb);
        let mut ba = sb.clone();
        ba.union_in_place(&sa);
        prop_assert_eq!(ab.members(), ba.members());

        // associative
        let mut ab_c = ab.clone();
        ab_c.union_in_place(&sc);
        let mut bc = sb.clone();
        bc.union_in_place(&sc);
        let mut a_bc = sa.clone();
        a_bc.union_in_place(&bc);
        prop_assert_eq!(ab_c.members(), a_bc.members());

        // idempotent
        let mut aa = sa.clone();
        aa.union_in_place(&sa);
        prop_assert_eq!(aa.members(), sa.members());
    }

    #[test]
    fn rebase_preserves_count_and_shifts_members(
        positions in rank_set(100),
        offset in 0u64..50,
    ) {
        let mut s = SubtreeTaskList::empty(100);
        for &p in &positions {
            s.insert(p);
        }
        let before = s.members();
        s.rebase(offset, 100 + offset);
        let after = s.members();
        prop_assert_eq!(after.len(), before.len());
        for (b, a) in before.iter().zip(after.iter()) {
            prop_assert_eq!(b + offset, *a);
        }
    }

    #[test]
    fn remap_through_a_permutation_preserves_population(positions in rank_set(128)) {
        let mut s = SubtreeTaskList::empty(128);
        for &p in &positions {
            s.insert(p);
        }
        // A deterministic but non-trivial permutation.
        let map: Vec<u64> = (0..128u64).map(|i| (i * 37 + 11) % 128).collect();
        let dense = s.remap_to_dense(&map, 128);
        prop_assert_eq!(dense.count(), positions.len() as u64);
        for &p in &positions {
            prop_assert!(dense.contains(map[p as usize]));
        }
    }

    #[test]
    fn rank_range_formatting_reports_the_true_count(ranks in rank_set(400)) {
        let label = format_rank_ranges(&ranks, 5);
        let count: usize = label.split(':').next().unwrap().parse().unwrap();
        prop_assert_eq!(count, ranks.len());
    }

    #[test]
    fn hierarchical_union_remap_round_trips_to_the_dense_representation(
        // Up to 6 daemons, each owning 1..32 local positions with an arbitrary
        // subset of them set.
        daemons in prop::collection::vec(
            (1u64..32).prop_flat_map(|local| {
                (Just(local), prop::collection::btree_set(0..local, 0..local as usize + 1))
            }),
            1..6,
        ),
        seed in 0u64..1_000,
    ) {
        // Assign every (daemon, local position) pair a distinct MPI rank via a
        // seeded permutation — the concatenated rank map the front end would see.
        let total: u64 = daemons.iter().map(|(local, _)| local).sum();
        let mut rank_map: Vec<u64> = (0..total).collect();
        for i in (1..rank_map.len()).rev() {
            rank_map.swap(i, ((seed.wrapping_mul(i as u64 + 7)) % (i as u64 + 1)) as usize);
        }

        // The hierarchical path: per-daemon subtree lists concatenated by
        // rebase + union (exactly what the in-network merge filter does)...
        let mut merged = SubtreeTaskList::empty(0);
        let mut dense_expected = DenseBitVector::empty(total);
        let mut offset = 0u64;
        for (local, members) in &daemons {
            let mut list = SubtreeTaskList::empty(*local);
            for &m in members {
                list.insert(m);
                dense_expected.insert(rank_map[(offset + m) as usize]);
            }
            merged.rebase(0, offset + local);
            list.rebase(offset, offset + local);
            merged.union_in_place(&list);
            offset += local;
        }
        // ...then the front-end remap through the rank map.
        let remapped = merged.remap_to_dense(&rank_map, total);

        // The round trip must agree with the dense representation built directly
        // from global ranks, member for member and lookup for lookup.
        prop_assert_eq!(remapped.members(), dense_expected.members());
        prop_assert_eq!(remapped.count(), dense_expected.count());
        for rank in 0..total {
            prop_assert_eq!(remapped.contains(rank), dense_expected.contains(rank));
        }
    }
}

// ---------------------------------------------------------------------------------
// Prefix trees
// ---------------------------------------------------------------------------------

const FRAME_POOL: &[&str] = &[
    "main",
    "MPI_Barrier",
    "MPI_Waitall",
    "progress",
    "poll",
    "compute",
    "io_wait",
];

fn arbitrary_traces(tasks: usize) -> impl Strategy<Value = Vec<Vec<usize>>> {
    // Each task gets a call path of 1..6 frame indices into FRAME_POOL.
    prop::collection::vec(
        prop::collection::vec(0..FRAME_POOL.len(), 1..6),
        tasks..=tasks,
    )
}

fn build_global(paths: &[Vec<usize>], table: &mut FrameTable) -> GlobalPrefixTree {
    let mut tree = GlobalPrefixTree::new_global(paths.len() as u64);
    for (rank, path) in paths.iter().enumerate() {
        let names: Vec<&str> = path.iter().map(|&i| FRAME_POOL[i]).collect();
        let trace = StackTrace::new(table.intern_path(&names));
        tree.add_trace(&trace, rank as u64);
    }
    tree
}

/// 1..6 daemons, each owning 1..5 tasks.  Every task has an arbitrary base call
/// path plus an optional deeper continuation observed in a later sample (the
/// temporal chains real sampling produces: the polling frames recurse further,
/// never onto a sibling branch), so some tasks' traces are a prefix of others'.
fn daemon_traces() -> impl Strategy<Value = Vec<Vec<(Vec<usize>, Vec<usize>)>>> {
    prop::collection::vec(
        prop::collection::vec(
            (
                prop::collection::vec(0..FRAME_POOL.len(), 1..6),
                prop::collection::vec(0..FRAME_POOL.len(), 0..3),
            ),
            1..5,
        ),
        1..6,
    )
}

/// The three trees one set of daemon traces merges into.
struct TraceTrees {
    total: u64,
    /// One job-wide tree fed directly with global ranks.
    dense: GlobalPrefixTree,
    /// The daemons' subtree trees concatenated, in subtree-local positions.
    merged: SubtreePrefixTree,
    /// `merged` remapped through a seeded rank permutation.
    remapped: GlobalPrefixTree,
}

fn merge_daemon_traces(daemons: &[Vec<(Vec<usize>, Vec<usize>)>], seed: u64) -> TraceTrees {
    let total: u64 = daemons.iter().map(|d| d.len() as u64).sum();
    let mut rank_map: Vec<u64> = (0..total).collect();
    for i in (1..rank_map.len()).rev() {
        rank_map.swap(
            i,
            ((seed.wrapping_mul(i as u64 + 3)) % (i as u64 + 1)) as usize,
        );
    }

    let mut table = FrameTable::new();
    let mut dense = GlobalPrefixTree::new_global(total);
    let mut merged = SubtreePrefixTree::new_subtree(0);
    let mut offset = 0u64;
    for daemon in daemons {
        let mut local_tree = SubtreePrefixTree::new_subtree(daemon.len() as u64);
        for (local, (base, extension)) in daemon.iter().enumerate() {
            let rank = rank_map[(offset + local as u64) as usize];
            let names: Vec<&str> = base.iter().map(|&i| FRAME_POOL[i]).collect();
            let trace = StackTrace::new(table.intern_path(&names));
            local_tree.add_trace(&trace, local as u64);
            dense.add_trace(&trace, rank);
            if !extension.is_empty() {
                let mut deeper = names.clone();
                deeper.extend(extension.iter().map(|&i| FRAME_POOL[i]));
                let trace = StackTrace::new(table.intern_path(&deeper));
                local_tree.add_trace(&trace, local as u64);
                dense.add_trace(&trace, rank);
            }
        }
        merged.merge(local_tree);
        offset += daemon.len() as u64;
    }
    let remapped = merged.remap(&rank_map, total);
    TraceTrees {
        total,
        dense,
        merged,
        remapped,
    }
}

/// The original per-member definition of `equivalence_classes`, kept as the
/// oracle for the word-level one: for every node, hash every child's members,
/// then keep the node's members outside that set.
fn oracle_classes<S: TaskSetOps>(tree: &PrefixTree<S>) -> Vec<EquivalenceClass> {
    let mut classes: Vec<EquivalenceClass> = Vec::new();
    for (node, _, _) in tree.iter_nodes() {
        let deeper: std::collections::HashSet<u64> = tree
            .children(node)
            .iter()
            .flat_map(|&c| tree.tasks(c).iter_members())
            .collect();
        let terminal: Vec<u64> = tree
            .tasks(node)
            .iter_members()
            .filter(|t| !deeper.contains(t))
            .collect();
        if !terminal.is_empty() {
            classes.push(EquivalenceClass {
                path: tree.path_to(node),
                tasks: terminal,
            });
        }
    }
    classes.sort_by(|a, b| {
        b.tasks
            .len()
            .cmp(&a.tasks.len())
            .then_with(|| a.path.cmp(&b.path))
    });
    classes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_task_is_classified_exactly_once(paths in arbitrary_traces(24)) {
        let mut table = FrameTable::new();
        let tree = build_global(&paths, &mut table);
        let classes = equivalence_classes(&tree);
        let mut all: Vec<u64> = classes.iter().flat_map(|c| c.tasks.clone()).collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..24u64).collect::<Vec<_>>());
    }

    #[test]
    fn global_merge_is_commutative_in_classes(
        left in arbitrary_traces(12),
        right in arbitrary_traces(12),
    ) {
        // Build the two halves over a shared 24-task domain.
        let mut table = FrameTable::new();
        let build_half = |paths: &[Vec<usize>], offset: u64, table: &mut FrameTable| {
            let mut tree = GlobalPrefixTree::new_global(24);
            for (i, path) in paths.iter().enumerate() {
                let names: Vec<&str> = path.iter().map(|&i| FRAME_POOL[i]).collect();
                let trace = StackTrace::new(table.intern_path(&names));
                tree.add_trace(&trace, offset + i as u64);
            }
            tree
        };
        let a = build_half(&left, 0, &mut table);
        let b = build_half(&right, 12, &mut table);

        let mut ab = a.clone();
        ab.merge_ref(&b);
        let mut ba = b.clone();
        ba.merge_ref(&a);

        let classes_of = |t: &GlobalPrefixTree| {
            let mut cs: Vec<Vec<u64>> =
                equivalence_classes(t).into_iter().map(|c| c.tasks).collect();
            cs.sort();
            cs
        };
        prop_assert_eq!(classes_of(&ab), classes_of(&ba));
        prop_assert_eq!(ab.node_count(), ba.node_count());
    }

    #[test]
    fn hierarchical_and_global_agree_after_remap(paths in arbitrary_traces(16)) {
        let mut table = FrameTable::new();
        let global = build_global(&paths, &mut table);

        // Split the 16 tasks over 4 "daemons", build subtree trees, merge and remap.
        let mut merged: Option<SubtreePrefixTree> = None;
        let mut rank_map: Vec<u64> = Vec::new();
        for daemon in 0..4usize {
            let mut tree = SubtreePrefixTree::new_subtree(4);
            for local in 0..4usize {
                let rank = daemon * 4 + local;
                let names: Vec<&str> = paths[rank].iter().map(|&i| FRAME_POOL[i]).collect();
                let trace = StackTrace::new(table.intern_path(&names));
                tree.add_trace(&trace, local as u64);
                rank_map.push(rank as u64);
            }
            merged = Some(match merged.take() {
                None => tree,
                Some(mut acc) => {
                    acc.merge(tree);
                    acc
                }
            });
        }
        let remapped = merged.unwrap().remap(&rank_map, 16);

        let classes_of = |t: &GlobalPrefixTree| {
            let mut cs: Vec<Vec<u64>> =
                equivalence_classes(t).into_iter().map(|c| c.tasks).collect();
            cs.sort();
            cs
        };
        prop_assert_eq!(classes_of(&global), classes_of(&remapped));
    }

    #[test]
    fn dense_and_hierarchical_merges_produce_identical_global_trees(
        // 1..6 daemons, each owning 1..5 tasks with arbitrary call paths — the
        // equivalence guard that licenses the zero-copy merge, the word-level
        // concatenation and the run-copying remap: whatever the daemons saw, the
        // dense merge and the hierarchical merge + remap must build the *same*
        // global tree, node for node and member for member.
        daemons in prop::collection::vec(
            prop::collection::vec(prop::collection::vec(0..FRAME_POOL.len(), 1..6), 1..5),
            1..6,
        ),
        seed in 0u64..1_000,
    ) {
        let total: u64 = daemons.iter().map(|d| d.len() as u64).sum();
        // A seeded permutation assigns every concatenated position an MPI rank.
        let mut rank_map: Vec<u64> = (0..total).collect();
        for i in (1..rank_map.len()).rev() {
            rank_map.swap(i, ((seed.wrapping_mul(i as u64 + 13)) % (i as u64 + 1)) as usize);
        }

        let mut table = FrameTable::new();
        // Dense path: one job-wide tree fed directly with global ranks.
        let mut dense = GlobalPrefixTree::new_global(total);
        // Hierarchical path: per-daemon subtree trees folded with the by-value
        // merge (exactly what the in-network filter chain does), then remapped.
        let mut merged = SubtreePrefixTree::new_subtree(0);
        let mut offset = 0u64;
        for daemon in &daemons {
            let mut local_tree = SubtreePrefixTree::new_subtree(daemon.len() as u64);
            for (local, path) in daemon.iter().enumerate() {
                let names: Vec<&str> = path.iter().map(|&i| FRAME_POOL[i]).collect();
                let trace = StackTrace::new(table.intern_path(&names));
                local_tree.add_trace(&trace, local as u64);
                dense.add_trace(&trace, rank_map[(offset + local as u64) as usize]);
            }
            merged.merge(local_tree);
            offset += daemon.len() as u64;
        }
        let remapped = merged.remap(&rank_map, total);

        // Identical global trees: same node count, and every node carries the same
        // (path, member set) — leaves included.
        prop_assert_eq!(remapped.node_count(), dense.node_count());
        let shape_of = |t: &GlobalPrefixTree| {
            let mut nodes: Vec<(Vec<_>, Vec<u64>)> = (1..t.node_count())
                .map(|n| (t.path_to(n), t.tasks(n).members()))
                .collect();
            nodes.sort();
            nodes
        };
        prop_assert_eq!(shape_of(&remapped), shape_of(&dense));
        prop_assert_eq!(
            remapped.tasks(remapped.root()).members(),
            dense.tasks(dense.root()).members()
        );
    }

    #[test]
    fn equivalence_classes_partition_arbitrary_merged_trees(
        daemons in daemon_traces(),
        seed in 0u64..1_000,
    ) {
        let trees = merge_daemon_traces(&daemons, seed);

        // Both merge paths must produce a true partition of the job.
        for tree in [&trees.dense, &trees.remapped] {
            let classes = equivalence_classes(tree);
            let sizes: usize = classes.iter().map(|c| c.tasks.len()).sum();
            prop_assert_eq!(sizes as u64, trees.total, "class sizes must sum to the task count");
            let mut all: Vec<u64> = classes.iter().flat_map(|c| c.tasks.clone()).collect();
            all.sort_unstable();
            // Sorted-equal to 0..total == exhaustive AND pairwise disjoint.
            prop_assert_eq!(all, (0..trees.total).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn word_level_classify_matches_the_per_member_oracle(
        daemons in daemon_traces(),
        seed in 0u64..1_000,
    ) {
        // The same classes — paths, ranks and order — as the original
        // hash-every-child definition, on dense trees, on un-remapped subtree
        // trees (subtree-local positions) and on remapped trees.
        let trees = merge_daemon_traces(&daemons, seed);
        prop_assert_eq!(equivalence_classes(&trees.dense), oracle_classes(&trees.dense));
        prop_assert_eq!(equivalence_classes(&trees.merged), oracle_classes(&trees.merged));
        prop_assert_eq!(equivalence_classes(&trees.remapped), oracle_classes(&trees.remapped));
    }

    #[test]
    fn wire_format_round_trips_arbitrary_trees(
        paths in arbitrary_traces(20),
        hinted in 0..=FRAME_POOL.len(),
    ) {
        // Negotiate an arbitrary prefix of the vocabulary: the rest of the
        // frames must ship as incremental dictionary records and still resolve.
        let dict = FrameDictionary::negotiate(FRAME_POOL.iter().take(hinted).copied());
        let mut table = FrameTable::new();
        let tree = build_global(&paths, &mut table);
        let bytes = encode_tree(&tree, &table, &dict);
        let (back, frames): (GlobalPrefixTree, WireFrames) = decode_tree(&bytes).unwrap();
        prop_assert_eq!(back.node_count(), tree.node_count());
        prop_assert_eq!(back.width(), tree.width());
        prop_assert_eq!(
            back.tasks(back.root()).members(),
            tree.tasks(tree.root()).members()
        );
        // Re-encoding the decoded tree through its wire frames is a fixed point.
        let bytes2 = encode_merged_tree(&back, &frames);
        prop_assert_eq!(bytes.len(), bytes2.len());
    }

    #[test]
    fn v2_packets_round_trip_and_reject_foreign_versions(
        paths in arbitrary_traces(12),
        version_byte in 0u8..=255,
        cut in 1usize..64,
    ) {
        // Satellite of the frame-length truncation fix: both representations
        // round-trip through v2, and version-mismatched or truncated buffers
        // come back as *typed* errors — never a panic, never a garbage tree.
        let dict = FrameDictionary::negotiate(FRAME_POOL.iter().copied());
        let mut table = FrameTable::new();
        let global = build_global(&paths, &mut table);
        let mut subtree = SubtreePrefixTree::new_subtree(paths.len() as u64);
        for (pos, path) in paths.iter().enumerate() {
            let names: Vec<&str> = path.iter().map(|&i| FRAME_POOL[i]).collect();
            let trace = StackTrace::new(table.intern_path(&names));
            subtree.add_trace(&trace, pos as u64);
        }

        let global_bytes = encode_tree(&global, &table, &dict);
        let subtree_bytes = encode_tree(&subtree, &table, &dict);
        let (g_back, _): (GlobalPrefixTree, WireFrames) = decode_tree(&global_bytes).unwrap();
        let (s_back, _): (SubtreePrefixTree, WireFrames) = decode_tree(&subtree_bytes).unwrap();
        prop_assert_eq!(g_back.node_count(), global.node_count());
        prop_assert_eq!(s_back.node_count(), subtree.node_count());

        // Any foreign version byte is a typed Version error (v2 itself aside).
        let mut foreign = global_bytes.clone();
        foreign[4] = version_byte;
        match decode_tree::<DenseBitVector>(&foreign) {
            Ok(_) => prop_assert_eq!(version_byte, 2),
            Err(DecodeError::Version { found }) => {
                prop_assert_ne!(version_byte, 2);
                prop_assert_eq!(found, version_byte);
            }
            Err(other) => prop_assert!(false, "expected Version, got {other:?}"),
        }

        // Every truncation of the buffer decodes to a typed error, not a tree.
        let keep = global_bytes.len().saturating_sub(cut);
        prop_assert!(decode_tree::<DenseBitVector>(&global_bytes[..keep]).is_err());
    }
}

// ---------------------------------------------------------------------------------
// Prefix reuse: the walker's previous trace and the tree's insertion cursor
// ---------------------------------------------------------------------------------

/// Call paths 0..8 deep over the first four frames of `FRAME_POOL`: with so few
/// names, consecutive paths share prefixes of every length and diverge at every
/// depth, and empty, shrinking and growing paths all come up.
fn prefix_heavy_path() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0..4usize, 0..8)
}

/// Every prefix of every inserted trace (the empty prefix is the root) mapped to
/// the task positions that reached it — the prefix tree's definition, with no
/// tree in it.
type PrefixOracle = BTreeMap<Vec<FrameId>, BTreeSet<u64>>;

fn record_prefixes(oracle: &mut PrefixOracle, frames: &[FrameId], index: u64) {
    for depth in 0..=frames.len() {
        oracle
            .entry(frames[..depth].to_vec())
            .or_default()
            .insert(index);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn walker_ids_match_plain_interning(
        walks in prop::collection::vec((0usize..2, prefix_heavy_path()), 1..40),
    ) {
        // One walker, two tables in turn.  The second table starts with two
        // names in another order, so an id the walker kept from the first table
        // either names a different frame there or is out of its range.
        let mut walker = Walker::new();
        let mut tables = [FrameTable::new(), FrameTable::new()];
        let mut oracles = [FrameTable::new(), FrameTable::new()];
        for name in [FRAME_POOL[3], FRAME_POOL[2]] {
            tables[1].intern(name);
            oracles[1].intern(name);
        }
        let mut frames = 0u64;
        for (which, path) in &walks {
            let names: Vec<&str> = path.iter().map(|&f| FRAME_POOL[f]).collect();
            let trace = walker.walk(&mut tables[*which], &names);
            let expected = oracles[*which].intern_path(&names);
            prop_assert_eq!(trace.frames(), &expected[..]);
            frames += names.len() as u64;
        }
        for (table, oracle) in tables.iter().zip(&oracles) {
            prop_assert_eq!(
                table.names().collect::<Vec<_>>(),
                oracle.names().collect::<Vec<_>>()
            );
        }
        prop_assert_eq!(walker.traces_taken(), walks.len() as u64);
        prop_assert_eq!(walker.frames_walked(), frames);
    }

    #[test]
    fn cursor_insertion_matches_the_prefix_oracle(
        ops in prop::collection::vec((0u8..10, prefix_heavy_path(), 0u64..16), 1..48),
    ) {
        // Ops 0..=6 insert into the tree, 7 replaces it by its clone (cursor and
        // all), 8 and 9 merge in a one-trace tree by value or by reference.
        let mut tree = GlobalPrefixTree::new_global(16);
        let mut oracle = PrefixOracle::new();
        oracle.insert(Vec::new(), BTreeSet::new());
        let mut inserted: Vec<Vec<FrameId>> = Vec::new();
        for (op, path, index) in &ops {
            let frames: Vec<FrameId> = path.iter().map(|&f| FrameId(f as u32)).collect();
            let trace = StackTrace::new(frames.clone());
            match op {
                0..=6 => {
                    tree.add_trace(&trace, *index);
                    inserted.push(frames.clone());
                }
                7 => {
                    tree = tree.clone();
                    continue;
                }
                _ => {
                    let mut other = GlobalPrefixTree::new_global(16);
                    other.add_trace(&trace, *index);
                    if *op == 8 {
                        tree.merge(other);
                    } else {
                        tree.merge_ref(&other);
                    }
                }
            }
            record_prefixes(&mut oracle, &frames, *index);
        }

        let mut seen = PrefixOracle::new();
        for node in 0..tree.node_count() {
            let tasks: BTreeSet<u64> = tree.tasks(node).members().into_iter().collect();
            prop_assert!(seen.insert(tree.path_to(node), tasks).is_none());
            let mut frames: Vec<FrameId> = tree
                .children(node)
                .iter()
                .filter_map(|&c| tree.frame(c))
                .collect();
            frames.sort_unstable();
            frames.dedup();
            prop_assert_eq!(frames.len(), tree.children(node).len());
        }
        prop_assert_eq!(tree.node_count(), oracle.len());
        prop_assert_eq!(seen, oracle);

        // Node order: a tree built by inserts alone numbers its nodes in the
        // order their prefixes first appear, shallow before deep — the order a
        // probe at every frame creates them in.
        let mut plain = GlobalPrefixTree::new_global(16);
        let mut first_seen: Vec<Vec<FrameId>> = vec![Vec::new()];
        for frames in &inserted {
            plain.add_trace(&StackTrace::new(frames.clone()), 0);
            for depth in 1..=frames.len() {
                let prefix = frames[..depth].to_vec();
                if !first_seen.contains(&prefix) {
                    first_seen.push(prefix);
                }
            }
        }
        let order: Vec<Vec<FrameId>> = (0..plain.node_count()).map(|n| plain.path_to(n)).collect();
        prop_assert_eq!(order, first_seen);
    }
}

// ---------------------------------------------------------------------------------
// Fused daemon sampling
// ---------------------------------------------------------------------------------

/// An application whose sample clock starts at `base`: `StatDaemon::gather`
/// always samples from index 0, so gathering from this is the oracle for a
/// fused walk that starts at `base`.
struct ClockShifted<'a> {
    inner: &'a dyn Application,
    base: u32,
}

impl Application for ClockShifted<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn num_tasks(&self) -> u64 {
        self.inner.num_tasks()
    }
    fn threads_per_task(&self) -> u32 {
        self.inner.threads_per_task()
    }
    fn call_path(&self, rank: u64, thread: u32, sample: u32, path: &mut Vec<&'static str>) {
        self.inner.call_path(rank, thread, sample + self.base, path);
    }
    fn frame_hints(&self) -> Vec<&'static str> {
        self.inner.frame_hints()
    }
}

/// Every fault-catalogue workload plus a multithreaded one, over `vocab`.
fn sampling_apps(tasks: u64, vocab: FrameVocabulary) -> Vec<Arc<dyn Application>> {
    let mut apps: Vec<Arc<dyn Application>> =
        catalogue(tasks, vocab).into_iter().map(|s| s.app).collect();
    apps.push(Arc::new(ThreadedApp::new(tasks, 3, vocab)));
    apps
}

/// Every node of a tree as `(frame, parent, members)`, in node order.
type NodeRows = Vec<(Option<FrameId>, Option<usize>, Vec<u64>)>;

fn node_rows<S: TaskSetOps>(tree: &PrefixTree<S>) -> NodeRows {
    (0..tree.node_count())
        .map(|n| (tree.frame(n), tree.parent(n), tree.tasks(n).members()))
        .collect()
}

/// The fused walk-and-insert of `daemon` over `app` from sample `base` equals
/// `build_trees` over `gather` of the clock-shifted app: the same nodes, frame
/// table, trace count and encoded packets.  `hinted` encodes against the app's
/// negotiated dictionary, otherwise against an empty one, so every frame is
/// unhinted and ships as an incremental dictionary record.
fn fused_sampling_matches_gather_then_build<S: WireTaskSet>(
    app: &dyn Application,
    daemon: &StatDaemon,
    base: u32,
    samples: u32,
    hinted: bool,
) {
    let mut fused_table = FrameTable::new();
    let (fused_2d, fused_3d, traces) =
        daemon.sample_trees::<S>(app, base, samples, &mut fused_table);

    let mut table = FrameTable::new();
    let gathered = daemon.gather(&ClockShifted { inner: app, base }, samples, &mut table);
    let (oracle_2d, oracle_3d) = daemon.build_trees::<S>(&gathered);

    let oracle_traces: usize = gathered.iter().map(|t| t.sample_count()).sum();
    assert_eq!(traces, oracle_traces as u64);
    assert_eq!(
        fused_table.names().collect::<Vec<_>>(),
        table.names().collect::<Vec<_>>()
    );
    let hints = if hinted {
        app.frame_hints()
    } else {
        Vec::new()
    };
    for (fused, oracle) in [(&fused_2d, &oracle_2d), (&fused_3d, &oracle_3d)] {
        assert_eq!(node_rows(fused), node_rows(oracle));
        let fused_dict = FrameDictionary::negotiate(hints.iter().copied());
        let oracle_dict = FrameDictionary::negotiate(hints.iter().copied());
        assert_eq!(
            encode_tree(fused, &fused_table, &fused_dict),
            encode_tree(oracle, &table, &oracle_dict)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn fused_sampling_matches_gather_then_build_trees(
        bgl in 0u8..2,
        pick in 0usize..64,
        first in 0u64..64,
        len in 0u64..40,
        base in 0u32..40,
        samples in 1u32..=4,
        hinted in 0u8..2,
    ) {
        let tasks = 64;
        let vocab = if bgl == 1 { FrameVocabulary::BlueGeneL } else { FrameVocabulary::Linux };
        let apps = sampling_apps(tasks, vocab);
        let app = apps[pick % apps.len()].as_ref();
        let ranks: Vec<u64> = (first..(first + len).min(tasks)).collect();
        let daemon = StatDaemon::new(3, ranks, tasks);
        fused_sampling_matches_gather_then_build::<DenseBitVector>(
            app, &daemon, base, samples, hinted == 1,
        );
        fused_sampling_matches_gather_then_build::<SubtreeTaskList>(
            app, &daemon, base, samples, hinted == 1,
        );
    }

    #[test]
    fn borrowing_walk_matches_walk(
        walks in prop::collection::vec((0usize..2, prefix_heavy_path()), 1..40),
    ) {
        // Two walkers over the same sequence, each across two tables in turn
        // (the second seeded in another id order): one copies every trace out,
        // the other only borrows the ids.
        let mut copying = Walker::new();
        let mut borrowing = Walker::new();
        let mut copy_tables = [FrameTable::new(), FrameTable::new()];
        let mut borrow_tables = [FrameTable::new(), FrameTable::new()];
        for name in [FRAME_POOL[3], FRAME_POOL[2]] {
            copy_tables[1].intern(name);
            borrow_tables[1].intern(name);
        }
        for (which, path) in &walks {
            let names: Vec<&str> = path.iter().map(|&f| FRAME_POOL[f]).collect();
            let trace = copying.walk(&mut copy_tables[*which], &names);
            let ids = borrowing.walk_ids(&mut borrow_tables[*which], &names);
            prop_assert_eq!(trace.frames(), ids);
        }
        for (copied, borrowed) in copy_tables.iter().zip(&borrow_tables) {
            prop_assert_eq!(
                copied.names().collect::<Vec<_>>(),
                borrowed.names().collect::<Vec<_>>()
            );
        }
        prop_assert_eq!(copying.traces_taken(), borrowing.traces_taken());
        prop_assert_eq!(copying.frames_walked(), borrowing.frames_walked());
    }
}

// ---------------------------------------------------------------------------------
// Streaming deltas and temporal folds
// ---------------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tree_deltas_round_trip_to_the_union(
        prev_paths in arbitrary_traces(16),
        next_paths in arbitrary_traces(16),
    ) {
        // The streaming contract (`PrefixTree::delta_from` ↔ `merge_aligned`):
        // whatever a daemon's acknowledged cumulative tree looked like and
        // whatever this wave observed, applying the delta to the old tree
        // reconstructs exactly the union of the two — node for node, member
        // for member.
        let mut table = FrameTable::new();
        let prev = build_global(&prev_paths, &mut table);
        let next = build_global(&next_paths, &mut table);

        let mut expected = prev.clone();
        expected.merge_ref(&next);

        let delta = next.delta_from(&prev);
        let mut reconstructed = prev.clone();
        reconstructed.merge_aligned(delta);

        let shape_of = |t: &GlobalPrefixTree| {
            let mut nodes: Vec<(Vec<_>, Vec<u64>)> = (1..t.node_count())
                .map(|n| (t.path_to(n), t.tasks(n).members()))
                .collect();
            nodes.sort();
            nodes
        };
        prop_assert_eq!(shape_of(&reconstructed), shape_of(&expected));
        prop_assert_eq!(
            reconstructed.tasks(reconstructed.root()).members(),
            expected.tasks(expected.root()).members()
        );

        // A fully quiescent wave (nothing new against the union) deltas to a
        // lone empty root, and folding that stub is the identity.
        let quiescent = prev.delta_from(&expected);
        prop_assert_eq!(quiescent.node_count(), 1);
        let before = shape_of(&expected);
        let mut unchanged = expected.clone();
        unchanged.merge_aligned(quiescent);
        prop_assert_eq!(shape_of(&unchanged), before);
    }
}

proptest! {
    // Each case streams a full session; a handful of randomized shapes is
    // plenty on top of the deterministic coverage in tests/streaming.rs.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn waves_of_incremental_folds_equal_one_batched_merge(
        tasks in 16u64..=128,
        fault_wave in 0u32..3,
        extra_waves in 1u32..4,
        rep_choice in 0u8..2,
    ) {
        use appsim::{FaultSchedule, FrameVocabulary};
        use machine::cluster::Cluster;

        let scenario = appsim::scenario::catalogue(tasks, FrameVocabulary::BlueGeneL)
            .into_iter()
            .find(|s| s.name == "ring_hang")
            .expect("the catalogue always carries ring_hang");
        let representation = if rep_choice == 1 {
            Representation::HierarchicalTaskList
        } else {
            Representation::GlobalBitVector
        };
        let mut stream = Session::builder(Cluster::test_cluster(16, 8))
            .representation(representation)
            .streaming(1)
            .open(Box::new(FaultSchedule::new(
                scenario,
                FrameVocabulary::BlueGeneL,
                fault_wave,
            )))
            .expect("the stream opens");

        // However many waves run and wherever the fault lands, the resident
        // state built by folding per-wave deltas equals one batched merge of
        // every daemon's full cumulative tree — at every single wave.
        for _ in 0..(fault_wave + extra_waves) {
            let report = stream.advance().expect("the wave advances");
            prop_assert_eq!(report.covered_tasks, tasks);
            let incremental = stream.incremental_canonical();
            prop_assert!(!incremental.is_empty());
            prop_assert_eq!(incremental, stream.batched_canonical());
        }
    }
}

// ---------------------------------------------------------------------------------
// Topologies
// ---------------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn built_topologies_always_validate(backends in 1u32..3_000, depth in 1u32..4) {
        let topo = Topology::build(TreeShape::balanced(backends, depth));
        prop_assert!(topo.validate().is_ok(), "{:?}", topo.validate());
        prop_assert_eq!(topo.backends().len() as u32, backends.max(1));
        prop_assert_eq!(topo.subtree_backends(topo.frontend()), backends.max(1));
    }

    #[test]
    fn explicit_two_deep_specs_validate(backends in 1u32..2_000, comm in 1u32..64) {
        let topo = Topology::build(TreeShape::two_deep(backends, comm));
        prop_assert!(topo.validate().is_ok());
        let total: u32 = topo
            .comm_processes()
            .iter()
            .map(|&cp| topo.node(cp).children.len() as u32)
            .sum();
        prop_assert_eq!(total, backends.max(1));
    }

    #[test]
    fn arbitrary_tree_shapes_build_reachable_trees(
        backends in 1u32..4_096,
        fan_in in 2u32..=64,
        depth in 1u32..=6,
    ) {
        // Any fan-in × depth shape — most of them inexpressible under the old
        // closed Flat/TwoDeep/ThreeDeep enum — must build a structurally valid
        // tree whose levels match the shape exactly.
        let shape = TreeShape::uniform_with_depth(backends, fan_in, depth);
        prop_assert_eq!(shape.depth(), depth);
        let topo = Topology::build(shape.clone());
        prop_assert!(topo.validate().is_ok(), "{:?}", topo.validate());

        // Level widths of the built tree match the shape level for level.
        prop_assert_eq!(topo.levels().len(), shape.level_widths.len());
        for (level, ids) in topo.levels().iter().enumerate() {
            prop_assert_eq!(ids.len() as u32, shape.level_widths[level]);
        }

        // Every backend is reachable from the front end by walking child links.
        let mut seen = vec![false; topo.len()];
        let mut stack = vec![topo.frontend()];
        while let Some(id) = stack.pop() {
            seen[id.0 as usize] = true;
            stack.extend(topo.node(id).children.iter().copied());
        }
        for &backend in topo.backends() {
            prop_assert!(seen[backend.0 as usize], "{} unreachable", backend);
        }

        // The front end's subtree is the whole daemon population.
        prop_assert_eq!(topo.subtree_backends(topo.frontend()), backends.max(1));
        prop_assert_eq!(topo.backends().len() as u32, backends.max(1));
    }
}

// ---------------------------------------------------------------------------------
// Discrete-event engine conservation laws
// ---------------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_scheduled_request_completes_exactly_once(
        requests in prop::collection::vec((0u64..1_000, 1u64..50), 1..80),
        slots in 1usize..4,
    ) {
        use simkit::prelude::*;
        let mut sim = Simulation::new(7);
        let server = sim.add_resource(Resource::fifo("srv", slots));
        let mut total_service = SimDuration::ZERO;
        for (i, (start_ms, service_ms)) in requests.iter().enumerate() {
            let service = SimDuration::from_millis(*service_ms as f64);
            total_service += service;
            sim.schedule(
                SimTime::from_millis(*start_ms as f64),
                Event::request(server, i as u64, service),
            );
        }
        let report = sim.run();
        prop_assert_eq!(report.completed_requests, requests.len() as u64);
        // The run can never finish before the last arrival plus its own service, nor
        // before the total service divided by the parallel slots.
        let busy = report.resource("srv").unwrap().busy_time;
        prop_assert_eq!(busy.as_nanos(), total_service.as_nanos());
        prop_assert!(report.finished_at.as_secs() >= total_service.as_secs() / slots as f64);
    }
}
