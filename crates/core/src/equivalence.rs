//! Process equivalence classes.
//!
//! STAT exists to shrink a debugging problem: instead of attaching a heavyweight
//! debugger to 208K processes, attach it to one representative of each *behaviour
//! class*.  A behaviour class is simply a distinct root-to-leaf path of the merged
//! prefix tree together with the set of tasks on it; the ring hang, for instance,
//! collapses 212,992 tasks into three classes (barrier / waitall / stalled-send), and
//! the user debugs three processes.

use stackwalk::{FrameId, FrameTable};

use crate::graph::{GlobalPrefixTree, PrefixTree};
use crate::taskset::{format_rank_ranges, MemberIter, TaskSetOps};

/// One behaviour class: a call path and the tasks that exhibit it.
#[derive(Clone, Debug, PartialEq)]
pub struct EquivalenceClass {
    /// The call path, outermost frame first.
    pub path: Vec<FrameId>,
    /// The member tasks, ascending.  For a global tree these are MPI ranks; for a
    /// subtree tree they are subtree-local positions (remap before presenting them).
    pub tasks: Vec<u64>,
}

impl EquivalenceClass {
    /// Number of member tasks.
    pub fn size(&self) -> usize {
        self.tasks.len()
    }

    /// A representative task to hand to a heavyweight debugger (the smallest member,
    /// matching STAT's default of picking the lowest rank).
    pub fn representative(&self) -> Option<u64> {
        self.tasks.first().copied()
    }

    /// Render the path as `frame > frame > frame`.
    pub fn path_string(&self, table: &FrameTable) -> String {
        self.path
            .iter()
            .map(|&f| table.name(f))
            .collect::<Vec<_>>()
            .join(" > ")
    }

    /// Render the member set the way Figure 1 labels edges.
    pub fn tasks_string(&self) -> String {
        format_rank_ranges(&self.tasks, 8)
    }
}

/// Extract the behaviour classes of a merged tree.
///
/// A task belongs to the class of the *deepest* node its traces reach: for every
/// node, the class members are the tasks on that node's incoming edge that do not
/// appear on any of its children's edges.  (Taking only leaves would mis-classify a
/// task whose entire trace is a prefix of some other task's trace.)
///
/// The class of a node is computed with word-level set algebra,
/// `tasks(node) AND NOT OR(tasks(children))`, one AND-NOT per packed word of
/// each child, so classification costs O(nodes × words) and never touches a task
/// one by one.  Only non-empty classes are expanded into rank lists.
pub fn equivalence_classes<S: TaskSetOps>(tree: &PrefixTree<S>) -> Vec<EquivalenceClass> {
    let mut classes: Vec<EquivalenceClass> = Vec::new();
    // The node's words with every child's words cleared; reused across nodes.
    let mut terminal: Vec<u64> = Vec::new();
    for (node, _, _) in tree.iter_nodes() {
        terminal.clear();
        terminal.extend_from_slice(tree.tasks(node).words());
        for &child in tree.children(node) {
            // Zipped, not indexed: a child set of another width can neither
            // panic here nor clear a position outside the node's words.
            for (word, &deeper) in terminal.iter_mut().zip(tree.tasks(child).words()) {
                *word &= !deeper;
            }
        }
        if terminal.iter().any(|&word| word != 0) {
            classes.push(EquivalenceClass {
                path: tree.path_to(node),
                tasks: MemberIter::new(&terminal).collect(),
            });
        }
    }
    // Largest classes first: the user looks at the outliers (smallest classes) last
    // in the visualisation but the sort makes reports deterministic.
    classes.sort_by(|a, b| {
        b.tasks
            .len()
            .cmp(&a.tasks.len())
            .then_with(|| a.path.cmp(&b.path))
    });
    classes
}

/// Pick the minimal set of representative ranks a heavyweight debugger should attach
/// to: one per class.  This is the "reduce the problem search space to a manageable
/// subset of tasks" step of the paper's petascale debugging strategy.
pub fn debugger_attach_set(tree: &GlobalPrefixTree) -> Vec<u64> {
    let mut reps: Vec<u64> = equivalence_classes(tree)
        .iter()
        .filter_map(EquivalenceClass::representative)
        .collect();
    reps.sort_unstable();
    reps.dedup();
    reps
}

/// Summary statistics about how well the classes compress the job.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClassSummary {
    /// Total tasks covered by any class.
    pub tasks: u64,
    /// Number of classes.
    pub classes: usize,
    /// Size of the largest class.
    pub largest: usize,
    /// Size of the smallest class.
    pub smallest: usize,
}

/// Compute the summary for a merged tree.
pub fn summarize<S: TaskSetOps>(tree: &PrefixTree<S>) -> ClassSummary {
    let classes = equivalence_classes(tree);
    ClassSummary {
        tasks: tree.tasks(tree.root()).count(),
        classes: classes.len(),
        largest: classes
            .iter()
            .map(EquivalenceClass::size)
            .max()
            .unwrap_or(0),
        smallest: classes
            .iter()
            .map(EquivalenceClass::size)
            .min()
            .unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use appsim::{gather_samples, Application, FrameVocabulary, RingHangApp};

    fn ring_tree(tasks: u64) -> (GlobalPrefixTree, FrameTable) {
        // Three samples per task, merged into the 3D tree — the same tree the front
        // end extracts classes from.
        let app = RingHangApp::new(tasks, FrameVocabulary::BlueGeneL);
        let mut table = FrameTable::new();
        let samples = gather_samples(&app, 3, &mut table);
        let mut tree = GlobalPrefixTree::new_global(app.num_tasks());
        for s in &samples {
            tree.add_samples(s, s.rank);
        }
        (tree, table)
    }

    #[test]
    fn ring_hang_collapses_to_three_classes() {
        let (tree, table) = ring_tree(1_024);
        let classes = equivalence_classes(&tree);
        assert_eq!(classes.len(), 3);
        // Largest class: everyone in the barrier.
        assert_eq!(classes[0].size(), 1_022);
        assert!(classes[0].path_string(&table).contains("PMPI_Barrier"));
        // The two singletons are ranks 1 and 2.
        let singles: Vec<u64> = classes[1..].iter().flat_map(|c| c.tasks.clone()).collect();
        assert_eq!(
            {
                let mut s = singles.clone();
                s.sort_unstable();
                s
            },
            vec![1, 2]
        );
    }

    #[test]
    fn attach_set_is_one_task_per_class() {
        let (tree, _) = ring_tree(4_096);
        let attach = debugger_attach_set(&tree);
        assert_eq!(attach.len(), 3);
        assert!(
            attach.contains(&0),
            "barrier class representative is rank 0"
        );
        assert!(attach.contains(&1));
        assert!(attach.contains(&2));
    }

    #[test]
    fn summary_reports_compression() {
        let (tree, _) = ring_tree(512);
        let s = summarize(&tree);
        assert_eq!(s.tasks, 512);
        assert_eq!(s.classes, 3);
        assert_eq!(s.largest, 510);
        assert_eq!(s.smallest, 1);
    }

    #[test]
    fn class_rendering_matches_figure_1_style() {
        let (tree, table) = ring_tree(1_024);
        let classes = equivalence_classes(&tree);
        let barrier = &classes[0];
        assert!(barrier.tasks_string().starts_with("1022:[0,3-"));
        assert!(barrier
            .path_string(&table)
            .starts_with("_start_blrts > main"));
        assert_eq!(barrier.representative(), Some(0));
    }

    #[test]
    fn empty_tree_has_no_classes() {
        let tree = GlobalPrefixTree::new_global(8);
        assert!(equivalence_classes(&tree).is_empty());
        let s = summarize(&tree);
        assert_eq!(s.classes, 0);
        assert_eq!(s.largest, 0);
    }
}
