//! Synthetic trace generation.
//!
//! STATBench's key idea is that, for evaluating the *tool*, the application can be
//! replaced by a trace generator with a handful of knobs: how deep the stacks are,
//! how many distinct behaviour (equivalence) classes exist, where in the stack the
//! classes diverge, and how the classes are spread over the tasks.  Those knobs span
//! the space between STAT's best case (every task identical — the merged tree is one
//! path) and its worst case (every task different — the merged tree is as wide as the
//! job).

use appsim::Application;

/// The shape knobs of a synthetic workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceShape {
    /// Frames in every trace (stack depth).
    pub depth: u32,
    /// Number of distinct behaviour classes across the job.
    pub classes: u32,
    /// Depth at which classes diverge: frames above this are shared by every task
    /// (the common `_start → main → solver …` spine), frames below differ per class.
    pub divergence_depth: u32,
    /// How many of the trailing frames vary *per sample* (models progress-engine
    /// polling noise; 0 makes every sample identical).
    pub temporal_frames: u32,
}

impl TraceShape {
    /// The shape STATBench used as its default: moderately deep stacks, a shared
    /// spine, and a handful of classes.
    pub fn typical() -> Self {
        TraceShape {
            depth: 16,
            classes: 8,
            divergence_depth: 10,
            temporal_frames: 2,
        }
    }

    /// The tool's best case: one class, no temporal variation.
    pub fn best_case(depth: u32) -> Self {
        TraceShape {
            depth,
            classes: 1,
            divergence_depth: depth,
            temporal_frames: 0,
        }
    }

    /// The tool's adversarial case: every task its own class.
    pub fn worst_case(depth: u32, tasks: u32) -> Self {
        TraceShape {
            depth,
            classes: tasks.max(1),
            divergence_depth: depth / 2,
            temporal_frames: 1,
        }
    }

    fn clamped(self) -> Self {
        let depth = self.depth.max(2);
        TraceShape {
            depth,
            classes: self.classes.max(1),
            divergence_depth: self.divergence_depth.clamp(1, depth),
            temporal_frames: self.temporal_frames.min(depth / 2),
        }
    }
}

/// A synthetic application generating traces of a given shape.
///
/// Frame names are drawn from a fixed synthetic vocabulary (`spine_k`, `class_c_k`,
/// `poll_v`) so that the number of *distinct* frames — and therefore the size of the
/// frame table travelling with each packet — is controlled by the shape, not by the
/// job size, just as in the real tool.
#[derive(Clone, Debug)]
pub struct SyntheticApp {
    tasks: u64,
    shape: TraceShape,
}

impl SyntheticApp {
    /// A synthetic job of `tasks` tasks with the given trace shape.
    pub fn new(tasks: u64, shape: TraceShape) -> Self {
        SyntheticApp {
            tasks: tasks.max(1),
            shape: shape.clamped(),
        }
    }

    /// The shape in effect (after clamping).
    pub fn shape(&self) -> TraceShape {
        self.shape
    }

    /// The behaviour class of a rank: classes are striped over ranks, matching
    /// STATBench's uniform spread.
    pub fn class_of(&self, rank: u64) -> u32 {
        (rank % self.shape.classes as u64) as u32
    }

    fn frame_name(kind: &str, a: u32, b: u32) -> &'static str {
        // Synthetic frame names must be 'static for the Application trait; intern
        // them in a process-wide leak-once table.  The vocabulary is bounded by the
        // shape (depth × classes), so the leak is bounded and shared across apps.
        use std::collections::HashMap;
        use std::sync::{Mutex, OnceLock};
        type NameTable = Mutex<HashMap<(String, u32, u32), &'static str>>;
        static NAMES: OnceLock<NameTable> = OnceLock::new();
        let table = NAMES.get_or_init(|| Mutex::new(HashMap::new()));
        let mut table = table.lock().expect("frame-name table lock");
        let key = (kind.to_string(), a, b);
        if let Some(&name) = table.get(&key) {
            return name;
        }
        let name: &'static str = Box::leak(format!("{kind}_{a}_{b}").into_boxed_str());
        table.insert(key, name);
        name
    }
}

impl Application for SyntheticApp {
    fn name(&self) -> &str {
        "statbench_synthetic"
    }

    fn num_tasks(&self) -> u64 {
        self.tasks
    }

    fn frame_hints(&self) -> Vec<&'static str> {
        let shape = self.shape;
        let mut hints = Vec::new();
        for level in 0..shape.divergence_depth {
            hints.push(Self::frame_name("spine", level, 0));
        }
        // Hinting is best-effort: cap the per-class enumeration so adversarial
        // many-class shapes don't pre-intern an unbounded vocabulary — unhinted
        // class frames simply ship as incremental dictionary records.
        for class in 0..shape.classes.min(256) {
            for level in shape.divergence_depth..shape.depth.saturating_sub(shape.temporal_frames) {
                hints.push(Self::frame_name("class", class, level));
            }
        }
        for k in 0..shape.temporal_frames {
            hints.push(Self::frame_name("poll", k, 0));
        }
        hints
    }

    fn call_path(&self, rank: u64, _thread: u32, sample_index: u32, path: &mut Vec<&'static str>) {
        let shape = self.shape;
        let class = self.class_of(rank);
        path.clear();
        // Shared spine.
        for level in 0..shape.divergence_depth {
            path.push(Self::frame_name("spine", level, 0));
        }
        // Class-specific frames.
        for level in shape.divergence_depth..shape.depth.saturating_sub(shape.temporal_frames) {
            path.push(Self::frame_name("class", class, level));
        }
        // Temporal (per-sample) frames: the sample is caught at a varying depth of a
        // fixed polling chain, so every shallower variant is a prefix of the deepest
        // one — the same structure the ring test's progress engine produces.
        if shape.temporal_frames > 0 {
            let reps = (1 + sample_index % 3).min(shape.temporal_frames);
            for k in 0..reps {
                path.push(Self::frame_name("poll", k, 0));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_have_the_requested_depth() {
        let app = SyntheticApp::new(100, TraceShape::typical());
        // The deepest sample of the polling chain reaches the full requested depth;
        // shallower samples are prefixes of it.
        let deepest = (0..3)
            .map(|s| app.main_thread_path(0, s).len())
            .max()
            .unwrap();
        assert_eq!(deepest as u32, app.shape().depth);
        let shallowest = (0..3)
            .map(|s| app.main_thread_path(0, s).len())
            .min()
            .unwrap();
        assert!(shallowest as u32 >= app.shape().depth - app.shape().temporal_frames);
    }

    #[test]
    fn class_count_controls_distinct_paths() {
        for classes in [1u32, 4, 16] {
            let shape = TraceShape {
                classes,
                ..TraceShape::typical()
            };
            let app = SyntheticApp::new(256, shape);
            let distinct: std::collections::HashSet<Vec<&str>> =
                (0..256).map(|r| app.main_thread_path(r, 0)).collect();
            assert_eq!(distinct.len() as u32, classes);
        }
    }

    #[test]
    fn spine_is_shared_across_classes() {
        let app = SyntheticApp::new(64, TraceShape::typical());
        let a = app.main_thread_path(0, 0);
        let b = app.main_thread_path(1, 0);
        let shared = a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count();
        assert_eq!(shared as u32, app.shape().divergence_depth);
    }

    #[test]
    fn temporal_frames_vary_with_the_sample_index() {
        let shape = TraceShape {
            temporal_frames: 2,
            ..TraceShape::typical()
        };
        let app = SyntheticApp::new(8, shape);
        let s0 = app.main_thread_path(3, 0);
        let s1 = app.main_thread_path(3, 1);
        assert_ne!(s0, s1);
        // The shallower sample is a prefix of the deeper one.
        assert_eq!(&s1[..s0.len()], &s0[..]);
    }

    #[test]
    fn best_and_worst_cases_bracket_the_class_count() {
        let best = SyntheticApp::new(1_000, TraceShape::best_case(12));
        let distinct_best: std::collections::HashSet<Vec<&str>> =
            (0..1_000).map(|r| best.main_thread_path(r, 0)).collect();
        assert_eq!(distinct_best.len(), 1);

        let worst = SyntheticApp::new(200, TraceShape::worst_case(12, 200));
        let distinct_worst: std::collections::HashSet<Vec<&str>> =
            (0..200).map(|r| worst.main_thread_path(r, 0)).collect();
        assert_eq!(distinct_worst.len(), 200);
    }

    #[test]
    fn degenerate_shapes_are_clamped_not_panicking() {
        let app = SyntheticApp::new(
            4,
            TraceShape {
                depth: 0,
                classes: 0,
                divergence_depth: 99,
                temporal_frames: 99,
            },
        );
        let path = app.main_thread_path(0, 0);
        assert!(path.len() >= 2);
    }
}
