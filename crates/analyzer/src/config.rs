//! Analyzer policy: which modules are hot-path, which are word-math, and how many
//! waivers each lint is allowed to accumulate.
//!
//! The policy is code, not a config file, on purpose: changing it is a reviewed
//! diff with a rationale in the commit, exactly like changing a lint.  The budgets
//! are the "committed waiver budget" of `results/ANALYSIS.md` — `--deny` fails if
//! any lint's waiver count grows past its budget, so silencing the analyzer is
//! always a conscious, reviewed act.

/// Analyzer policy: module designations and waiver budgets.
#[derive(Clone, Debug)]
pub struct Config {
    /// Modules on the TBON hot path, where panic-freedom is enforced (relative-path
    /// suffixes, `/`-separated).  A tool-side panic here is indistinguishable, at
    /// 208K cores, from the hang the tool is diagnosing.
    pub hot_path_modules: Vec<String>,
    /// Word-level task-set / remap modules where bare narrowing casts are banned.
    pub word_math_modules: Vec<String>,
    /// Methods whose `Result` must never be discarded with a bare statement.
    pub result_methods: Vec<String>,
    /// Per-lint waiver budgets: `(lint id, max waivers across the workspace)`.
    /// Lints absent from this list allow no waivers at all.
    pub waiver_budgets: Vec<(String, usize)>,
}

impl Config {
    /// The committed policy for this workspace.
    pub fn workspace() -> Config {
        let s = |x: &[&str]| x.iter().map(|v| v.to_string()).collect::<Vec<_>>();
        Config {
            hot_path_modules: s(&[
                "crates/tbon/src/network.rs",
                "crates/tbon/src/packet.rs",
                "crates/core/src/graph.rs",
                "crates/core/src/taskset.rs",
                "crates/core/src/serialize.rs",
                "crates/tbon/src/delta.rs",
                "crates/core/src/streaming.rs",
                "crates/core/src/equivalence.rs",
                "crates/core/src/daemon.rs",
                "crates/core/src/session.rs",
                "crates/stackwalk/src/dictionary.rs",
                "crates/appsim/src/app.rs",
                "crates/stackwalk/src/sampler.rs",
                "crates/appsim/src/ring.rs",
            ]),
            word_math_modules: s(&[
                "crates/core/src/taskset.rs",
                "crates/core/src/graph.rs",
                "crates/core/src/serialize.rs",
                "crates/tbon/src/packet.rs",
                "crates/tbon/src/delta.rs",
                "crates/core/src/equivalence.rs",
            ]),
            result_methods: s(&[
                "send",
                "try_send",
                "recv",
                "try_recv",
                "write",
                "write_all",
                "write_fmt",
                "flush",
                "wait",
                "lock",
                "try_lock",
            ]),
            // The committed waiver inventory (see results/ANALYSIS.md).  Budgets are
            // set to the current count: adding a waiver REQUIRES bumping the budget
            // here, in the same reviewed diff as the waiver itself.
            waiver_budgets: vec![
                ("hot-path-panic".to_string(), 8),
                ("truncating-cast".to_string(), 9),
                ("discarded-result".to_string(), 1),
                ("condvar-discipline".to_string(), 0),
                ("lock-hold-hygiene".to_string(), 0),
            ],
        }
    }

    /// A permissive policy for fixture tests: every analyzed file is treated as
    /// hot-path and word-math, and budgets are high enough to never bind (but
    /// small enough to print readably in golden reports), so fixtures exercise
    /// each lint without path gymnastics.
    pub fn fixtures() -> Config {
        let all = vec![".rs".to_string()];
        Config {
            hot_path_modules: all.clone(),
            word_math_modules: all,
            result_methods: Config::workspace().result_methods,
            waiver_budgets: vec![
                ("hot-path-panic".to_string(), 99),
                ("truncating-cast".to_string(), 99),
                ("discarded-result".to_string(), 99),
                ("condvar-discipline".to_string(), 99),
                ("lock-hold-hygiene".to_string(), 99),
            ],
        }
    }

    /// Whether a relative path is designated hot-path.
    pub fn is_hot_path(&self, rel_path: &str) -> bool {
        self.hot_path_modules
            .iter()
            .any(|m| rel_path.ends_with(m.as_str()))
    }

    /// Whether a relative path is designated word-math.
    pub fn is_word_math(&self, rel_path: &str) -> bool {
        self.word_math_modules
            .iter()
            .any(|m| rel_path.ends_with(m.as_str()))
    }

    /// The waiver budget for a lint (0 when unlisted).
    pub fn budget(&self, lint: &str) -> usize {
        self.waiver_budgets
            .iter()
            .find(|(l, _)| l == lint)
            .map(|(_, n)| *n)
            .unwrap_or(0)
    }
}
