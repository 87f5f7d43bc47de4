//! The search executor: the paper's host launch sequence, written once.
//!
//! CUDASW++ runs every search the same way: stage the query profile,
//! launch one inter-task kernel per occupancy-sized group of short
//! sequences, then one intra-task kernel over the long ones. This module
//! holds those steps, and every entry point drives them:
//!
//! * [`CudaSwDriver::search`] uploads each group and runs it with no
//!   recovery;
//! * [`CudaSwDriver::search_staged`] runs them on device-resident images;
//! * [`CudaSwDriver::search_resilient_checkpointed`] wraps
//!   `CudaSwDriver::execute_chunk` in its recovery ladder;
//! * [`crate::variants::run_intra_variant`] reuses the improved-kernel
//!   set-up (`launch_improved`).
//!
//! Two things stay with the entry points. The §VII streamed-H2D session
//! scope: `search` opens one session per search, `stage_database` one per
//! staged lifetime, and the recovery ladder one per chunk, so that
//! checkpoint replay stays bit-exact. And the allocator marks that
//! release per-launch scratch.
//!
//! Phase accounting accumulates in a `PhaseTally` launch by launch, so a
//! [`SearchResult`]'s [`RunStats`] never depend on what the ambient
//! metrics registry held before the search.

use crate::balance::residue_balanced_bins;
use crate::checkpoint::ChunkPhase;
use crate::driver::{CudaSwDriver, IntraKernelChoice, SearchResult};
use crate::inter_task::{InterTaskKernel, TILE_COLS};
use crate::intra_improved::{ImprovedIntraKernel, ImprovedParams, VariantConfig};
use crate::intra_orig::{IntraPair, OriginalIntraKernel};
use crate::seqstore::{pack_residues, GroupImage, ProfileImage, SeqImage};
use gpu_sim::stats::{LaunchStats, RunStats};
use gpu_sim::{GpuDevice, GpuError, TexRef};
use sw_align::{GapPenalties, PackedProfile};
use sw_db::Sequence;

/// The per-query device artefacts the kernels read.
pub(crate) struct QueryImage {
    /// The packed query profile, bound to texture.
    pub profile: ProfileImage,
    /// The packed query residues, bound to texture (read only by the
    /// original intra-task kernel).
    pub residues: Option<TexRef>,
}

/// Stage the packed query `profile` and, when given, the packed query
/// `residues`. Copy seconds are added to `xfer`.
pub(crate) fn stage_query(
    dev: &mut GpuDevice,
    profile: &PackedProfile,
    residues: Option<&[u8]>,
    xfer: &mut f64,
) -> Result<QueryImage, GpuError> {
    let (profile, secs) = ProfileImage::upload(dev, profile)?;
    *xfer += secs;
    let residues = match residues {
        Some(query) => {
            let words = pack_residues(query);
            let ptr = dev.alloc(words.len().max(1))?;
            *xfer += dev.copy_to_device(ptr, &words)?;
            Some(dev.bind_texture(ptr, words.len().max(1)))
        }
        None => None,
    };
    Ok(QueryImage { profile, residues })
}

/// Upload one sequence image per entry of `seqs`, as intra-task pairs.
pub(crate) fn upload_pairs(
    dev: &mut GpuDevice,
    seqs: &[Sequence],
    xfer: &mut f64,
) -> Result<Vec<IntraPair>, GpuError> {
    seqs.iter()
        .map(|seq| {
            let (img, secs) = SeqImage::upload(dev, seq)?;
            *xfer += secs;
            Ok(IntraPair {
                tex: img.tex,
                len: img.len,
                score: img.score,
            })
        })
        .collect()
}

/// Read each pair's score word into `out`.
pub(crate) fn read_pair_scores(
    dev: &mut GpuDevice,
    pairs: &[IntraPair],
    out: &mut [i32],
    xfer: &mut f64,
) -> Result<(), GpuError> {
    for (score, pair) in out.iter_mut().zip(pairs) {
        let (v, secs) = dev.copy_from_device(pair.score, 1)?;
        *xfer += secs;
        *score = v[0] as i32;
    }
    Ok(())
}

/// Set up and launch the improved intra-task kernel over `pairs`.
///
/// The shared-memory strip boundary only fits short sequences, so
/// `variant.boundary_in_shared` falls back to the global boundary when the
/// longest pair does not fit. `balanced` replaces one block per pair with
/// SaLoBa residue-balanced bins, one per SM at most.
#[allow(clippy::too_many_arguments)]
pub(crate) fn launch_improved(
    dev: &mut GpuDevice,
    pairs: &[IntraPair],
    profile: &ProfileImage,
    gaps: GapPenalties,
    params: ImprovedParams,
    mut variant: VariantConfig,
    balanced: bool,
    label: &str,
) -> Result<LaunchStats, GpuError> {
    let max_len = pairs.iter().map(|p| p.len).max().unwrap_or(1);
    if variant.boundary_in_shared {
        let needed = (4 * params.threads_per_block as usize + 2 * max_len) * 4;
        if needed > dev.spec.shared_mem_per_sm as usize {
            variant.boundary_in_shared = false;
        }
    }
    let boundary = dev.alloc(ImprovedIntraKernel::boundary_words(pairs.len(), max_len))?;
    let local_spill = dev.alloc(ImprovedIntraKernel::spill_words(pairs.len(), &params))?;
    let schedule = balanced.then(|| {
        let lengths: Vec<usize> = pairs.iter().map(|p| p.len).collect();
        residue_balanced_bins(&lengths, (dev.spec.sm_count as usize).min(pairs.len()))
    });
    let kernel = ImprovedIntraKernel {
        pairs,
        profile,
        gaps,
        boundary,
        boundary_stride: max_len,
        local_spill,
        params,
        variant,
        step_latency_cycles: 30,
        schedule: schedule.as_deref(),
    };
    let blocks = schedule.as_ref().map_or(pairs.len(), Vec::len) as u32;
    dev.launch(&kernel, blocks, label)
}

/// Per-phase launch aggregates of one search, accumulated launch by
/// launch and mirrored into the `cudasw.core.phase.*` counters.
#[derive(Debug, Default)]
pub(crate) struct PhaseTally {
    inter: RunStats,
    intra: RunStats,
}

impl PhaseTally {
    fn phase_mut(&mut self, phase: ChunkPhase) -> &mut RunStats {
        match phase {
            ChunkPhase::Inter => &mut self.inter,
            ChunkPhase::Intra => &mut self.intra,
        }
    }

    /// Fold one completed launch into `phase`.
    pub fn note(&mut self, phase: ChunkPhase, stats: &LaunchStats) {
        self.phase_mut(phase).add(stats);
        let labels = [("phase", phase.label())];
        obs::counter_add("cudasw.core.phase.launches", &labels, 1.0);
        obs::counter_add("cudasw.core.phase.cells", &labels, stats.cells() as f64);
        obs::counter_add("cudasw.core.phase.seconds", &labels, stats.seconds);
        obs::counter_add(
            "cudasw.core.phase.global_transactions",
            &labels,
            stats.global_transactions() as f64,
        );
    }

    /// Fold a replayed checkpoint chunk into `phase`, from the
    /// `cudasw.core.phase.*` counters of its recorded metrics delta.
    pub fn replay(&mut self, phase: ChunkPhase, delta: &obs::MetricsRegistry) {
        let labels = [("phase", phase.label())];
        let count = |name: &str| delta.counter_sum(name, &labels);
        self.phase_mut(phase).merge(&RunStats {
            launches: count("cudasw.core.phase.launches") as u32,
            cells: count("cudasw.core.phase.cells") as u64,
            seconds: count("cudasw.core.phase.seconds"),
            global_transactions: count("cudasw.core.phase.global_transactions") as u64,
        });
    }

    /// The finished search result.
    pub fn result(
        self,
        scores: Vec<i32>,
        transfer_seconds: f64,
        fraction_long: f64,
        threshold: usize,
        query_len: usize,
    ) -> SearchResult {
        SearchResult {
            scores,
            inter: self.inter,
            intra: self.intra,
            transfer_seconds,
            fraction_long,
            threshold,
            query_len,
        }
    }
}

impl CudaSwDriver {
    /// Upload one chunk of a phase's sequences and run it: an inter-task
    /// group image or a batch of intra-task pairs. Scores land in `out`,
    /// copy seconds in `xfer`.
    pub(crate) fn execute_chunk(
        &mut self,
        phase: ChunkPhase,
        chunk: &[Sequence],
        query: &QueryImage,
        out: &mut [i32],
        xfer: &mut f64,
    ) -> Result<LaunchStats, GpuError> {
        match phase {
            ChunkPhase::Inter => {
                let (group, secs) = GroupImage::upload(&mut self.dev, chunk)?;
                *xfer += secs;
                self.launch_inter(&group, query, out, xfer)
            }
            ChunkPhase::Intra => {
                let pairs = upload_pairs(&mut self.dev, chunk, xfer)?;
                self.launch_intra(&pairs, query, out, xfer)
            }
        }
    }

    /// Run one inter-task group already on the device: size the §VII
    /// staging panel, allocate the boundary and edge scratch, launch,
    /// credit the stream overlap and read the scores into `out`.
    pub(crate) fn launch_inter(
        &mut self,
        group: &GroupImage,
        query: &QueryImage,
        out: &mut [i32],
        xfer: &mut f64,
    ) -> Result<LaunchStats, GpuError> {
        let dc = self.config.device;
        let max_cols = group.lengths.iter().copied().max().unwrap_or(0);
        let panel = if dc.boundary_staging || dc.shared_only {
            InterTaskKernel::panel_cols(
                self.config.inter_threads_per_block,
                self.dev.spec.shared_mem_per_sm,
            )
        } else {
            0
        };
        // Staged order runs when boundary staging is on, or when the
        // shared-memory-only kernel applies (whole group in one panel).
        let use_panel =
            panel >= TILE_COLS && (dc.boundary_staging || (dc.shared_only && max_cols <= panel));
        let panel_cols = if use_panel { panel } else { 0 };
        let boundary = self.dev.alloc(if panel_cols > 0 {
            1 // staged order never touches the global boundary planes
        } else {
            InterTaskKernel::boundary_words(group.width, max_cols).max(1)
        })?;
        let edge_words =
            InterTaskKernel::edge_words(group.width, query.profile.query_len, panel_cols, max_cols);
        let edge = (edge_words > 0)
            .then(|| self.dev.alloc(edge_words))
            .transpose()?;
        let kernel = InterTaskKernel {
            group,
            profile: &query.profile,
            gaps: self.config.params.gaps,
            boundary,
            max_cols,
            threads_per_block: self.config.inter_threads_per_block,
            panel_cols,
            edge,
        };
        let stats = self
            .dev
            .launch(&kernel, kernel.grid_blocks(), "inter_task")?;
        self.credit_overlap(&stats);
        let (raw, secs) = self.dev.copy_from_device(group.scores, group.width)?;
        *xfer += secs;
        for (score, word) in out.iter_mut().zip(raw) {
            *score = word as i32;
        }
        Ok(stats)
    }

    /// Run one intra-task launch over `pairs` already on the device with
    /// the configured kernel, and read the scores into `out`.
    pub(crate) fn launch_intra(
        &mut self,
        pairs: &[IntraPair],
        query: &QueryImage,
        out: &mut [i32],
        xfer: &mut f64,
    ) -> Result<LaunchStats, GpuError> {
        let stats = match self.config.intra {
            IntraKernelChoice::Original => {
                let residues = query.residues.ok_or_else(|| GpuError::InvalidLaunch {
                    reason: "the original intra-task kernel reads the packed query".into(),
                })?;
                let query_len = query.profile.query_len;
                let wavefront = self
                    .dev
                    .alloc(OriginalIntraKernel::wavefront_words(pairs.len(), query_len))?;
                let kernel = OriginalIntraKernel {
                    pairs,
                    query: residues,
                    query_len,
                    matrix: &self.config.params.matrix,
                    gaps: self.config.params.gaps,
                    wavefront,
                    threads_per_block: 256,
                    step_latency_cycles: self.dev.spec.global_latency_cycles as u64,
                };
                self.dev.launch(&kernel, pairs.len() as u32, "intra_orig")?
            }
            IntraKernelChoice::Improved(mut variant) => {
                if self.config.device.pipeline_fusion {
                    // §VII fusion: one fill/flush per alignment.
                    variant.continuous_pipeline = true;
                }
                launch_improved(
                    &mut self.dev,
                    pairs,
                    &query.profile,
                    self.config.params.gaps,
                    self.config.improved,
                    variant,
                    self.config.device.balanced_intra,
                    "intra_improved",
                )?
            }
        };
        self.credit_overlap(&stats);
        read_pair_scores(&mut self.dev, pairs, out, xfer)?;
        Ok(stats)
    }

    /// §VII streamed copy: a launch's time hides the body of later H2D
    /// copies in the open stream session. Bytes moved are unchanged.
    fn credit_overlap(&mut self, stats: &LaunchStats) {
        if self.config.device.streamed_h2d {
            self.dev.add_h2d_overlap_credit(stats.seconds);
        }
    }
}
