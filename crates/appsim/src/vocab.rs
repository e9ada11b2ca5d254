//! Frame vocabularies for the two evaluation platforms.
//!
//! Figure 1 of the paper shows the actual frame names STAT collected on BG/L:
//! `_start_blrts`, `PMPI_Barrier`, `BGLMP_GIBarrier`, `BGLML_Messager_advance`, the
//! recursive `BGLML_Messager_CMadvance` polling chain, and so on.  On a Linux/MPICH
//! cluster the equivalent frames have different names (`_start`, `MPID_Progress_wait`,
//! `poll_active_fboxes`, ...).  Keeping the vocabulary per platform makes the example
//! output recognisably similar to the paper's figure and exercises the tool with
//! realistically deep, realistically named traces.

/// The frame names used to build call paths on a given platform.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameVocabulary {
    /// Linux cluster frames (Atlas-style, MPICH/MVAPICH naming).
    Linux,
    /// BlueGene/L frames, as they appear in Figure 1.
    BlueGeneL,
}

impl FrameVocabulary {
    /// The process entry point.
    pub fn start(self) -> &'static str {
        match self {
            FrameVocabulary::Linux => "_start",
            FrameVocabulary::BlueGeneL => "_start_blrts",
        }
    }

    /// The user main function.
    pub fn main(self) -> &'static str {
        "main"
    }

    /// The public barrier entry point.
    pub fn barrier(self) -> &'static str {
        "PMPI_Barrier"
    }

    /// The public waitall entry point.
    pub fn waitall(self) -> &'static str {
        "PMPI_Waitall"
    }

    /// The frame in which the ring test's buggy rank hangs before its send.
    pub fn send_stall(self) -> &'static str {
        "do_SendOrStall"
    }

    /// The platform's barrier implementation frames, outermost first.
    pub fn barrier_impl(self) -> &'static [&'static str] {
        match self {
            FrameVocabulary::Linux => &["MPIR_Barrier_impl", "MPIR_Barrier_intra"],
            FrameVocabulary::BlueGeneL => &["MPIDI_BGLGI_Barrier", "BGLMP_GIBarrier"],
        }
    }

    /// The platform's progress-engine frames, outermost first.
    pub fn progress_impl(self) -> &'static [&'static str] {
        match self {
            FrameVocabulary::Linux => &["MPID_Progress_wait", "MPIDI_CH3I_Progress"],
            FrameVocabulary::BlueGeneL => &["MPID_Progress_wait", "BGLML_pollfcn"],
        }
    }

    /// One step of the platform's low-level polling chain.  The 3D trace/space/time
    /// tree in Figure 1 shows these frames recursing to different depths in different
    /// samples; callers append between one and `max_poll_depth` copies.
    pub fn poll_step(self) -> &'static [&'static str] {
        match self {
            FrameVocabulary::Linux => &["poll_active_fboxes"],
            FrameVocabulary::BlueGeneL => &["BGLML_Messager_advance", "BGLML_Messager_CMadvance"],
        }
    }

    /// Maximum polling recursion depth seen in samples.
    pub fn max_poll_depth(self) -> usize {
        match self {
            FrameVocabulary::Linux => 2,
            FrameVocabulary::BlueGeneL => 3,
        }
    }

    /// The deepest call path an application over this vocabulary builds: the ring
    /// test's barrier crowd at the deepest polling recursion (entry point, `main`,
    /// the barrier and its implementation, the progress engine, then
    /// `max_poll_depth` polling steps).
    #[cfg(test)]
    pub(crate) fn max_path_depth(self) -> usize {
        3 + self.barrier_impl().len()
            + self.progress_impl().len()
            + self.max_poll_depth() * self.poll_step().len()
    }

    /// A frame that appears when a task is caught inside a timing call
    /// (`gettimeofday` shows up in Figure 1).
    pub fn timer(self) -> &'static str {
        "__gettimeofday"
    }

    /// Compute-phase frame names for multi-class workloads.
    pub fn compute_kernels(self) -> &'static [&'static str] {
        &[
            "compute_interior",
            "compute_halo",
            "apply_boundary",
            "reduce_residual",
            "write_checkpoint",
        ]
    }

    /// Worker-thread entry frames for multithreaded workloads (Section VII).
    pub fn thread_entry(self) -> &'static [&'static str] {
        match self {
            FrameVocabulary::Linux => &["start_thread", "worker_main"],
            FrameVocabulary::BlueGeneL => &["_pthread_start", "worker_main"],
        }
    }

    /// The shared-filesystem open path a rank wedges in during an I/O storm,
    /// outermost first — the application-side cousin of the Section VI lesson that
    /// shared-filesystem access serialises at scale.
    pub fn shared_fs_open_impl(self) -> &'static [&'static str] {
        &["MPI_File_open", "ADIO_GEN_OpenColl", "nfs_getattr_wait"]
    }

    /// The frame under [`shared_fs_open_impl`](Self::shared_fs_open_impl) a wedged
    /// rank is caught in on alternate samples (the RPC retry sleep).
    pub fn shared_fs_retry(self) -> &'static str {
        "rpc_wait_bit_killable"
    }

    /// OS-noise frames: a sample can catch a rank mid-kernel inside one of these
    /// interrupt/housekeeping routines instead of (strictly speaking, on top of)
    /// its application frame.
    pub fn noise_frames(self) -> &'static [&'static str] {
        &["timer_interrupt", "__do_softirq", "tlb_flush_ipi"]
    }

    /// The placeholder frame a failed stack walk reports for an unwalkable stack.
    pub fn unknown_frame(self) -> &'static str {
        "???"
    }

    /// Garbage frames a corrupted stack walk can emit below
    /// [`unknown_frame`](Self::unknown_frame): raw addresses and sentinel text.
    pub fn garbage_frames(self) -> &'static [&'static str] {
        &[
            "0x0000000000000000",
            "0x00007fffdeadbeef",
            "<signal handler called>",
            "__stack_chk_fail",
        ]
    }

    /// Every frame name this vocabulary can produce — the default seed for the
    /// session-global frame dictionary wire format v2 negotiates.  Order is
    /// stable (entry points first, then MPI internals, then workload frames) so
    /// the negotiated id space is deterministic across runs.
    pub fn dictionary_hints(self) -> Vec<&'static str> {
        let mut hints = vec![
            self.start(),
            self.main(),
            self.barrier(),
            self.waitall(),
            self.send_stall(),
            self.timer(),
            self.shared_fs_retry(),
            self.unknown_frame(),
        ];
        hints.extend_from_slice(self.barrier_impl());
        hints.extend_from_slice(self.progress_impl());
        hints.extend_from_slice(self.poll_step());
        hints.extend_from_slice(self.compute_kernels());
        hints.extend_from_slice(self.thread_entry());
        hints.extend_from_slice(self.shared_fs_open_impl());
        hints.extend_from_slice(self.noise_frames());
        hints.extend_from_slice(self.garbage_frames());
        hints
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn platform_entry_points_differ() {
        assert_eq!(FrameVocabulary::Linux.start(), "_start");
        assert_eq!(FrameVocabulary::BlueGeneL.start(), "_start_blrts");
        assert_eq!(
            FrameVocabulary::Linux.main(),
            FrameVocabulary::BlueGeneL.main()
        );
    }

    #[test]
    fn bgl_vocabulary_matches_figure_1() {
        let v = FrameVocabulary::BlueGeneL;
        assert!(v.barrier_impl().contains(&"BGLMP_GIBarrier"));
        assert!(v.progress_impl().contains(&"BGLML_pollfcn"));
        assert!(v.poll_step().contains(&"BGLML_Messager_CMadvance"));
        assert_eq!(v.timer(), "__gettimeofday");
        assert_eq!(v.send_stall(), "do_SendOrStall");
    }

    #[test]
    fn poll_depths_are_positive() {
        assert!(FrameVocabulary::Linux.max_poll_depth() >= 1);
        assert!(FrameVocabulary::BlueGeneL.max_poll_depth() >= 1);
    }

    #[test]
    fn dictionary_hints_cover_the_vocabulary() {
        for v in [FrameVocabulary::Linux, FrameVocabulary::BlueGeneL] {
            let hints = v.dictionary_hints();
            assert!(hints.contains(&v.start()));
            assert!(hints.contains(&v.send_stall()));
            assert!(hints.contains(&v.unknown_frame()));
            for step in v.poll_step() {
                assert!(hints.contains(step));
            }
            assert!(hints.len() > 20);
        }
    }
}
