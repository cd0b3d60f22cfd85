//! Builds training iterations on the simulated hardware.
//!
//! [`IterationScenario`] owns one rank's [`RankSim`] and knows how to submit
//! the forward and backward phases (ZeRO-3 all-gathers, compute, activation
//! checkpointing, gradient reduce-scatter and flush) plus the primitive
//! update-phase operations (CPU/GPU subgroup updates, downscaling,
//! prefetch/flush over dedicated streams) that update schedulers in
//! `dos-core` compose into the paper's Figure 5 schedules.

use dos_collectives::RingCost;
use dos_hal::{OpId, OpSpec, RankSim, SimError, SimTime, StreamId};
use dos_telemetry::Timeline;
use dos_zero::{SubgroupSpec, ZeroPartition};

use crate::config::{GradientPath, TrainConfig};

/// The two completion points of a subgroup flush (Algorithm 1's
/// `async_flush_out`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushHandles {
    /// FP16 parameters are updated on the GPU (D2D `.half()` done); the next
    /// iteration may consume them.
    pub params_ready: OpId,
    /// The FP32 state (p, m, v) has fully drained to the host.
    pub flushed: OpId,
}

/// One rank's simulated training iteration builder.
#[derive(Debug, Clone)]
pub struct IterationScenario {
    /// The configuration being simulated.
    pub cfg: TrainConfig,
    /// The simulated rank (engine, resources, streams, memory pools).
    pub rank: RankSim,
    subgroups: Vec<SubgroupSpec>,
    nvlink_stream: StreamId,
    flush_stream: StreamId,
    iteration: usize,
    micro_step: usize,
}

impl IterationScenario {
    /// Creates the scenario for data-parallel rank 0 (the largest shard
    /// under uneven partitioning, hence the conservative choice) and
    /// records the steady-state allocations (FP16 parameter shard, static
    /// optimizer residents).
    pub fn new(cfg: TrainConfig) -> IterationScenario {
        Self::new_for_rank(cfg, 0)
    }

    /// Creates the scenario for an arbitrary rank. Because the update phase
    /// invokes blocking collectives at iteration boundaries, "the slowest
    /// process in the group dictates the iteration time" (§5.4) — see
    /// [`IterationOptions::rank`](crate::IterationOptions::rank).
    ///
    /// # Panics
    ///
    /// Panics if `dp_rank >= cfg.world`.
    pub fn new_for_rank(cfg: TrainConfig, dp_rank: usize) -> IterationScenario {
        assert!(dp_rank < cfg.world, "rank {dp_rank} out of range");
        let mut rank = RankSim::new(&cfg.profile);
        let nvlink_stream = rank.sim.add_stream("nvlink");
        let flush_stream = rank.sim.add_stream("grad-flush");
        let part = ZeroPartition::new(cfg.stage, cfg.world, dp_rank);
        let total = cfg.spec.param_count() as usize;
        let subgroups = part.subgroups(total, cfg.offload.subgroup_params);

        // Steady-state GPU allocations.
        rank.hbm.alloc(SimTime::ZERO, part.gpu_param_bytes(total as u64), "fp16-params");
        let static_bytes =
            (12.0 * (total as f64 / cfg.world as f64) * cfg.offload.gpu_resident_ratio) as u64;
        if static_bytes > 0 {
            rank.hbm.alloc(SimTime::ZERO, static_bytes, "static-optimizer");
        }
        // Host-side optimizer state + FP32 gradient buffer.
        let per_rank = (total / cfg.world) as u64;
        rank.dram.alloc(SimTime::ZERO, 12 * per_rank - static_bytes, "host-optimizer");
        rank.dram.alloc(SimTime::ZERO, 4 * per_rank, "host-grads");
        // Pinned FP16 staging (downscaled params awaiting H2D + flush window).
        rank.dram.alloc(SimTime::ZERO, 2 * per_rank, "host-pinned-staging");

        IterationScenario {
            cfg,
            rank,
            subgroups,
            nvlink_stream,
            flush_stream,
            iteration: 0,
            micro_step: 0,
        }
    }

    /// This rank's optimizer subgroups, in parameter order.
    pub fn subgroups(&self) -> &[SubgroupSpec] {
        &self.subgroups
    }

    /// The iteration index the next `run_forward` will build.
    pub fn iteration(&self) -> usize {
        self.iteration
    }

    fn ring(&self) -> RingCost {
        RingCost::new(
            self.cfg.world,
            self.cfg.profile.nvlink_bw,
            self.cfg.profile.op_latency.as_secs(),
        )
    }

    fn layer_params(&self) -> f64 {
        self.cfg.spec.param_count() as f64 / self.cfg.spec.num_layers as f64
    }

    /// Duration of an update-phase PCIe transfer of `bytes` at the effective
    /// optimizer-state rate (`B` of Eq. 1, expressed in FP32 params/s).
    fn update_xfer_secs(&self, bytes: f64) -> f64 {
        bytes / (4.0 * self.cfg.profile.update_b_pps)
    }

    // ----------------------------------------------------------------
    // Forward phase
    // ----------------------------------------------------------------

    /// Submits the forward pass; returns the op that completes it.
    ///
    /// Per layer: a ZeRO-3 ring all-gather of the layer's FP16 parameters
    /// (overlapped with the previous layer's compute, as DeepSpeed
    /// prefetches) followed by the layer's GEMMs. Activations (or
    /// checkpoints) are allocated as layers complete.
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn run_forward(&mut self, after: Option<OpId>) -> Result<OpId, SimError> {
        let cfg = self.cfg.clone();
        let layers = cfg.spec.num_layers;
        let flops_per_layer = cfg.spec.forward_flops(cfg.micro_batch) / layers as f64;
        let gemm_secs = flops_per_layer / cfg.profile.gpu_flops;
        let ring = self.ring();
        let gather_total_bytes = 2.0 * self.layer_params();
        let gather_secs = if cfg.stage.shards_parameters() && cfg.world > 1 {
            ring.all_gather(gather_total_bytes)
        } else {
            0.0
        };
        let act_bytes_per_layer = if cfg.offload.activation_checkpointing {
            cfg.spec.activation_checkpoint_bytes(cfg.micro_batch) / layers as u64
        } else {
            cfg.spec.activation_bytes(cfg.micro_batch) / layers as u64
        };

        let phase = "forward";
        let mut prev_compute = after;
        for l in 0..layers {
            let mut gather_op = None;
            if gather_secs > 0.0 {
                let mut spec = OpSpec::occupy(
                    self.rank.res.nvlink,
                    SimTime::from_secs(gather_secs),
                    gather_total_bytes * (cfg.world - 1) as f64 / cfg.world as f64,
                )
                .on(self.nvlink_stream)
                .label(format!("allgather:l{l}"))
                .phase(phase);
                if let Some(op) = after.filter(|_| l == 0) {
                    spec = spec.after(op);
                }
                gather_op = Some(self.rank.sim.submit(spec)?);
            }
            let mut spec = OpSpec::occupy(
                self.rank.res.gpu,
                SimTime::from_secs(gemm_secs),
                flops_per_layer,
            )
            .on(self.rank.streams.compute)
            .label(format!("fwd:l{l}"))
            .phase(phase);
            if let Some(op) = gather_op {
                spec = spec.after(op);
            }
            if let Some(op) = prev_compute {
                spec = spec.after(op);
            }
            let compute = self.rank.sim.submit(spec)?;
            self.rank.hbm.alloc(
                self.rank.sim.finish_time(compute),
                act_bytes_per_layer,
                format!("act:l{l}"),
            );
            prev_compute = Some(compute);
        }
        Ok(prev_compute.expect("at least one layer"))
    }

    // ----------------------------------------------------------------
    // Backward phase
    // ----------------------------------------------------------------

    /// Submits the backward pass; returns the op after which all of this
    /// rank's FP32 gradients are resident in the host gradient buffer
    /// (ready for the update phase).
    ///
    /// Per layer (in reverse): ZeRO-3 all-gather, activation recompute (if
    /// checkpointing), backward GEMMs, gradient reduce-scatter across ranks,
    /// and the gradient flush to host using the configured
    /// [`GradientPath`].
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn run_backward(&mut self, after: OpId) -> Result<OpId, SimError> {
        let cfg = self.cfg.clone();
        let layers = cfg.spec.num_layers;
        let fwd_flops_layer = cfg.spec.forward_flops(cfg.micro_batch) / layers as f64;
        let bwd_flops_layer = 2.0 * fwd_flops_layer;
        let gemm_bwd_secs = bwd_flops_layer / cfg.profile.gpu_flops;
        let recompute_secs = if cfg.offload.activation_checkpointing {
            fwd_flops_layer / cfg.profile.gpu_flops
        } else {
            0.0
        };
        let ring = self.ring();
        let gather_total_bytes = 2.0 * self.layer_params();
        let gather_secs = if cfg.stage.shards_parameters() && cfg.world > 1 {
            ring.all_gather(gather_total_bytes)
        } else {
            0.0
        };
        let rs_secs = if cfg.stage.shards_gradients() && cfg.world > 1 {
            ring.reduce_scatter(gather_total_bytes)
        } else {
            0.0
        };
        let act_bytes_per_layer = if cfg.offload.activation_checkpointing {
            cfg.spec.activation_checkpoint_bytes(cfg.micro_batch) / layers as u64
        } else {
            cfg.spec.activation_bytes(cfg.micro_batch) / layers as u64
        };
        // Parameters whose gradients this rank flushes per layer.
        let flush_params = self.layer_params() / cfg.world as f64;

        let phase = "backward";
        let accumulate = self.micro_step > 0;
        let mut prev = after;
        let mut flush_ops: Vec<OpId> = Vec::new();
        for l in (0..layers).rev() {
            let mut gather_op = None;
            if gather_secs > 0.0 {
                let spec = OpSpec::occupy(
                    self.rank.res.nvlink,
                    SimTime::from_secs(gather_secs),
                    gather_total_bytes * (cfg.world - 1) as f64 / cfg.world as f64,
                )
                .on(self.nvlink_stream)
                .after(if l == layers - 1 { after } else { prev })
                .label(format!("allgather-b:l{l}"))
                .phase(phase);
                gather_op = Some(self.rank.sim.submit(spec)?);
            }
            if recompute_secs > 0.0 {
                let mut spec = OpSpec::occupy(
                    self.rank.res.gpu,
                    SimTime::from_secs(recompute_secs),
                    fwd_flops_layer,
                )
                .on(self.rank.streams.compute)
                .after(prev)
                .label(format!("recompute:l{l}"))
                .phase(phase);
                if let Some(op) = gather_op {
                    spec = spec.after(op);
                }
                prev = self.rank.sim.submit(spec)?;
            }
            let mut spec = OpSpec::occupy(
                self.rank.res.gpu,
                SimTime::from_secs(gemm_bwd_secs),
                bwd_flops_layer,
            )
            .on(self.rank.streams.compute)
            .after(prev)
            .label(format!("bwd:l{l}"))
            .phase(phase);
            if let Some(op) = gather_op {
                spec = spec.after(op);
            }
            let compute = self.rank.sim.submit(spec)?;
            // Activations of this layer are released once backward used them.
            self.rank.hbm.free(
                self.rank.sim.finish_time(compute),
                act_bytes_per_layer,
                format!("act:l{l}"),
            );
            prev = compute;

            let mut grads_ready = compute;
            if rs_secs > 0.0 {
                let spec = OpSpec::occupy(
                    self.rank.res.nvlink,
                    SimTime::from_secs(rs_secs),
                    gather_total_bytes * (cfg.world - 1) as f64 / cfg.world as f64,
                )
                .on(self.nvlink_stream)
                .after(compute)
                .label(format!("reduce-scatter:l{l}"))
                .phase(phase);
                grads_ready = self.rank.sim.submit(spec)?;
            }
            let flush =
                self.flush_layer_grads(l, flush_params, grads_ready, phase, accumulate)?;
            flush_ops.push(flush);
        }
        // Backward completes when compute and every flush are done.
        let join = self.rank.sim.join(self.rank.streams.compute, flush_ops)?;
        let done = self
            .rank
            .sim
            .submit(OpSpec::marker().on(self.rank.streams.compute).after(join).after(prev))?;
        self.micro_step = (self.micro_step + 1) % self.cfg.grad_accumulation.max(1);
        if self.micro_step == 0 {
            self.iteration += 1;
        }
        Ok(done)
    }

    /// Gradient flush for one layer's rank-share of gradients.
    ///
    /// With gradient accumulation, micro-steps after the first fetch the
    /// previously accumulated gradients back to the GPU and accumulate
    /// there — §3 observes this H2D traffic during the backward pass
    /// because `old_grad.add_(new_grad)` is orders of magnitude faster on
    /// the GPU than on the CPU.
    fn flush_layer_grads(
        &mut self,
        layer: usize,
        params: f64,
        after: OpId,
        phase: &str,
        accumulate: bool,
    ) -> Result<OpId, SimError> {
        let p = self.cfg.profile.clone();
        let bytes16 = 2.0 * params;
        let bytes32 = 4.0 * params;
        let after = if accumulate {
            // Fetch the running FP16 gradient sum and add on the GPU.
            let fetch = self.rank.sim.submit(
                OpSpec::transfer(self.rank.res.h2d, bytes16)
                    .on(self.rank.streams.h2d)
                    .after(after)
                    .label(format!("h2d-accum-grads:l{layer}"))
                    .phase(phase),
            )?;
            self.rank.sim.submit(
                OpSpec::occupy(
                    self.rank.res.gpu,
                    SimTime::from_secs(bytes16 / p.conv.g32_g16),
                    bytes16,
                )
                .on(self.rank.streams.compute)
                .after(fetch)
                .label(format!("gpu-accumulate:l{layer}"))
                .phase(phase),
            )?
        } else {
            after
        };
        // Blocking baselines run the flush on the compute stream; the
        // overlapped design uses a dedicated stream.
        let stream = if self.cfg.overlap_backward {
            self.flush_stream
        } else {
            self.rank.streams.compute
        };
        match self.cfg.gradient_path {
            GradientPath::LegacyFp16Flush => {
                // (1) allocate an unpinned FP16 staging buffer on the host,
                // (2) D2H into it at the pageable rate,
                // (3) upscale FP16->FP32 on the CPU.
                let alloc = self.rank.sim.submit(
                    OpSpec::occupy(
                        self.rank.res.host_mem,
                        SimTime::from_secs(bytes16 / p.host_alloc_bw),
                        bytes16,
                    )
                    .on(stream)
                    .after(after)
                    .label(format!("alloc-staging:l{layer}"))
                    .phase(phase),
                )?;
                let d2h = self.rank.sim.submit(
                    OpSpec::occupy(
                        self.rank.res.d2h,
                        SimTime::from_secs(bytes16 / p.pcie_d2h_pageable),
                        bytes16,
                    )
                    .on(stream)
                    .after(alloc)
                    .label(format!("d2h-grads16:l{layer}"))
                    .phase(phase),
                )?;
                self.rank.sim.submit(
                    OpSpec::occupy(
                        self.rank.res.cpu,
                        SimTime::from_secs(bytes32 / p.conv.h32_h16),
                        bytes32,
                    )
                    .on(stream)
                    .after(d2h)
                    .label(format!("host-upscale:l{layer}"))
                    .phase(phase),
                )
            }
            GradientPath::Fp32OnGpu => {
                // Chunk-wise FP16->FP32 on the GPU, then pinned FP32 DMA.
                let convert = self.rank.sim.submit(
                    OpSpec::occupy(
                        self.rank.res.gpu,
                        SimTime::from_secs(bytes32 / p.conv.g32_g16),
                        bytes32,
                    )
                    .on(stream)
                    .after(after)
                    .label(format!("gpu-upscale:l{layer}"))
                    .phase(phase),
                )?;
                self.rank.sim.submit(
                    OpSpec::transfer(self.rank.res.d2h, bytes32)
                        .on(stream)
                        .after(convert)
                        .label(format!("d2h-grads32:l{layer}"))
                        .phase(phase),
                )
            }
        }
    }

    // ----------------------------------------------------------------
    // Update-phase primitives (composed by dos-core schedulers)
    // ----------------------------------------------------------------

    /// Applies the DRAM-contention slowdown to CPU work (call when PCIe
    /// traffic will run concurrently with CPU updates; Figure 15's CPU dip).
    pub fn apply_update_contention(&mut self) {
        let f = self.cfg.profile.dram_contention_cpu_factor;
        self.rank.sim.set_throughput_scale(self.rank.res.cpu, f);
    }

    /// Removes the contention slowdown.
    pub fn clear_update_contention(&mut self) {
        self.rank.sim.set_throughput_scale(self.rank.res.cpu, 1.0);
    }

    /// CPU update of one subgroup (duration `S / U_c`).
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn cpu_update(&mut self, sg: &SubgroupSpec, after: &[OpId]) -> Result<OpId, SimError> {
        let secs = sg.len() as f64 / self.cfg.profile.cpu_update_pps();
        self.rank.sim.submit(
            OpSpec::compute(self.rank.res.cpu, secs)
                .on(self.rank.streams.cpu)
                .after_all(after.iter().copied())
                .label(format!("cpu-update:sg{}", sg.id))
                .phase("update"),
        )
    }

    /// CPU FP32→FP16 downscale of one subgroup's parameters (`S / D_c`).
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn cpu_downscale(&mut self, sg: &SubgroupSpec, after: &[OpId]) -> Result<OpId, SimError> {
        let secs = sg.len() as f64 / self.cfg.profile.cpu_downscale_pps();
        self.rank.sim.submit(
            OpSpec::compute(self.rank.res.cpu, secs)
                .on(self.rank.streams.cpu)
                .after_all(after.iter().copied())
                .label(format!("downscale:sg{}", sg.id))
                .phase("update"),
        )
    }

    /// H2D transfer of one subgroup's downscaled FP16 parameters
    /// (`S / (2B)`), on the general H2D stream.
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn h2d_updated_params(
        &mut self,
        sg: &SubgroupSpec,
        after: &[OpId],
    ) -> Result<OpId, SimError> {
        let bytes = 2.0 * sg.len() as f64;
        self.rank.sim.submit(
            OpSpec::occupy(
                self.rank.res.h2d,
                SimTime::from_secs(self.update_xfer_secs(bytes)),
                bytes,
            )
            .on(self.rank.streams.h2d)
            .after_all(after.iter().copied())
            .label(format!("h2d-params16:sg{}", sg.id))
            .phase("update"),
        )
    }

    /// GPU update of one subgroup (duration `S / U_g`).
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn gpu_update(&mut self, sg: &SubgroupSpec, after: &[OpId]) -> Result<OpId, SimError> {
        let secs = sg.len() as f64 / self.cfg.profile.gpu_update_pps;
        self.rank.sim.submit(
            OpSpec::compute(self.rank.res.gpu, secs)
                .on(self.rank.streams.compute)
                .after_all(after.iter().copied())
                .label(format!("gpu-update:sg{}", sg.id))
                .phase("update"),
        )
    }

    /// Asynchronous prefetch of one subgroup's FP32 state (p, m, v) to the
    /// GPU over the three dedicated streams (Algorithm 1,
    /// `async_prefetch_in`). Allocates the transient GPU buffer. Returns the
    /// join op.
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn prefetch_subgroup(
        &mut self,
        sg: &SubgroupSpec,
        after: &[OpId],
    ) -> Result<OpId, SimError> {
        let bytes = 4.0 * sg.len() as f64;
        let secs = self.update_xfer_secs(bytes);
        let streams =
            [self.rank.streams.momentum, self.rank.streams.variance, self.rank.streams.param];
        let names = ["momentum", "variance", "param"];
        let mut ops = Vec::with_capacity(3);
        for (stream, name) in streams.into_iter().zip(names) {
            ops.push(self.rank.sim.submit(
                OpSpec::occupy(self.rank.res.h2d, SimTime::from_secs(secs), bytes)
                    .on(stream)
                    .after_all(after.iter().copied())
                    .label(format!("prefetch-{name}:sg{}", sg.id))
                    .phase("update"),
            )?);
        }
        let join = self.rank.sim.join(self.rank.streams.param, ops)?;
        let t = self.rank.sim.finish_time(join);
        self.rank.hbm.alloc(t, sg.optimizer_bytes(), format!("sg-buffer:{}", sg.id));
        Ok(join)
    }

    /// Asynchronous flush of one GPU-updated subgroup (Algorithm 1,
    /// `async_flush_out`): D2D FP32→FP16 of the parameters on the GPU, then
    /// p, m, v D2H on the dedicated streams. Frees the transient GPU buffer.
    ///
    /// Returns both the op after which the *FP16 parameters* are usable by
    /// the next iteration (the D2D `.half()` copy) and the op after which
    /// the optimizer state has fully drained to the host — the D2H part may
    /// spill into the next iteration (Figure 5's dotted line).
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn flush_subgroup(
        &mut self,
        sg: &SubgroupSpec,
        after: &[OpId],
    ) -> Result<FlushHandles, SimError> {
        let bytes32 = 4.0 * sg.len() as f64;
        // model16[x] <- p_tmp.half() : D2D on the parameter stream.
        let halve = self.rank.sim.submit(
            OpSpec::occupy(
                self.rank.res.gpu,
                SimTime::from_secs(bytes32 / self.cfg.profile.conv.g32_g16),
                bytes32,
            )
            .on(self.rank.streams.param)
            .after_all(after.iter().copied())
            .label(format!("d2d-half:sg{}", sg.id))
            .phase("update"),
        )?;
        let secs = self.update_xfer_secs(bytes32);
        // The flush drains on the D2H stream while the *next* subgroup's
        // prefetch proceeds on the dedicated H2D streams into a second
        // transient buffer — the double-buffered overlap Figure 5 (bottom)
        // shows between `flush S3` and `prefetch S6`.
        let names = ["momentum", "variance", "param"];
        let mut ops = Vec::with_capacity(3);
        for name in names {
            ops.push(self.rank.sim.submit(
                OpSpec::occupy(self.rank.res.d2h, SimTime::from_secs(secs), bytes32)
                    .on(self.rank.streams.d2h)
                    .after(halve)
                    .label(format!("flush-{name}:sg{}", sg.id))
                    .phase("update"),
            )?);
        }
        let join = self.rank.sim.join(self.rank.streams.d2h, ops)?;
        let t = self.rank.sim.finish_time(join);
        self.rank.hbm.free(t, sg.optimizer_bytes(), format!("sg-buffer:{}", sg.id));
        Ok(FlushHandles { params_ready: halve, flushed: join })
    }

    /// Converts the engine trace into a telemetry [`Timeline`].
    pub fn timeline(&self) -> Timeline {
        let mut tl = Timeline::new();
        for iv in self.rank.sim.trace() {
            let resource = match iv.resource {
                Some(r) => self.rank.sim.resource_name(r).to_string(),
                None => continue,
            };
            tl.push(dos_telemetry::Span {
                resource,
                label: iv.label.clone(),
                phase: iv.phase.clone(),
                start: iv.start.as_secs(),
                end: iv.end.as_secs(),
                work: iv.work,
            });
        }
        tl
    }

    /// Replays the engine schedule into `tracer` on the simulated clock,
    /// one track per stream (see [`dos_hal::Simulator::record_into`]).
    pub fn record_into(&self, tracer: &dos_telemetry::Tracer) {
        self.rank.sim.record_into(tracer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dos_hal::HardwareProfile;
    use dos_nn::ModelSpec;

    fn scenario(name: &str) -> IterationScenario {
        IterationScenario::new(TrainConfig::baseline(
            ModelSpec::by_name(name).unwrap(),
            HardwareProfile::jlse_h100(),
        ))
    }

    #[test]
    fn subgroup_count_matches_shard() {
        let scn = scenario("20B");
        let per_rank = scn.cfg.params_per_rank();
        assert_eq!(scn.subgroups().len(), per_rank.div_ceil(100_000_000));
    }

    #[test]
    fn forward_then_backward_orders_phases() {
        let mut scn = scenario("7B");
        let fwd = scn.run_forward(None).unwrap();
        let bwd = scn.run_backward(fwd).unwrap();
        let t_fwd = scn.rank.sim.finish_time(fwd);
        let t_bwd = scn.rank.sim.finish_time(bwd);
        assert!(t_bwd > t_fwd);
        assert_eq!(scn.iteration(), 1);
        let tl = scn.timeline();
        let (f0, f1) = tl.phase_bounds("forward").unwrap();
        let (b0, b1) = tl.phase_bounds("backward").unwrap();
        assert!(f0 < f1 && b0 < b1);
        assert!(b1 > f1);
    }

    #[test]
    fn backward_is_longer_than_forward_with_checkpointing() {
        let mut scn = scenario("7B");
        let fwd = scn.run_forward(None).unwrap();
        let bwd = scn.run_backward(fwd).unwrap();
        let fwd_secs = scn.rank.sim.finish_time(fwd).as_secs();
        let bwd_secs = scn.rank.sim.finish_time(bwd).as_secs() - fwd_secs;
        // 3x compute plus blocking flushes.
        assert!(bwd_secs > 2.0 * fwd_secs, "fwd {fwd_secs}, bwd {bwd_secs}");
    }

    #[test]
    fn legacy_flush_is_much_slower_than_fp32_on_gpu() {
        let mut legacy = scenario("20B");
        let fwd = legacy.run_forward(None).unwrap();
        let bwd = legacy.run_backward(fwd).unwrap();
        let legacy_secs = legacy.rank.sim.finish_time(bwd).as_secs();

        let cfg = TrainConfig::deep_optimizer_states(
            ModelSpec::by_name("20B").unwrap(),
            HardwareProfile::jlse_h100(),
        );
        let mut dos = IterationScenario::new(cfg);
        let fwd = dos.run_forward(None).unwrap();
        let bwd = dos.run_backward(fwd).unwrap();
        let dos_secs = dos.rank.sim.finish_time(bwd).as_secs();
        assert!(
            legacy_secs > 1.5 * dos_secs,
            "legacy fwd+bwd {legacy_secs}s vs DOS {dos_secs}s"
        );
    }

    #[test]
    fn update_primitives_have_model_durations() {
        let mut scn = scenario("20B");
        let sg = scn.subgroups()[0];
        let p = scn.cfg.profile.clone();
        let c = scn.cpu_update(&sg, &[]).unwrap();
        let cpu_secs = scn.rank.sim.finish_time(c).as_secs();
        assert!((cpu_secs - sg.len() as f64 / p.cpu_update_pps()).abs() < 1e-9);
        let g = scn.gpu_update(&sg, &[]).unwrap();
        let gpu_end = scn.rank.sim.finish_time(g).as_secs();
        assert!(gpu_end < cpu_secs, "gpu update should be much faster");
    }

    #[test]
    fn prefetch_occupies_h2d_for_3s_over_b() {
        let mut scn = scenario("20B");
        let sg = scn.subgroups()[0];
        let join = scn.prefetch_subgroup(&sg, &[]).unwrap();
        let secs = scn.rank.sim.finish_time(join).as_secs();
        let expected = 3.0 * sg.len() as f64 / scn.cfg.profile.update_b_pps;
        assert!((secs - expected).abs() / expected < 1e-6, "{secs} vs {expected}");
    }

    #[test]
    fn prefetch_and_flush_balance_hbm() {
        let mut scn = scenario("20B");
        let sg = scn.subgroups()[0];
        let pre = scn.prefetch_subgroup(&sg, &[]).unwrap();
        let upd = scn.gpu_update(&sg, &[pre]).unwrap();
        let flush = scn.flush_subgroup(&sg, &[upd]).unwrap();
        assert!(flush.params_ready < flush.flushed);
        scn.rank.hbm.validate().unwrap();
    }

    #[test]
    fn contention_slows_cpu_updates() {
        let mut scn = scenario("20B");
        let sg = scn.subgroups()[0];
        scn.apply_update_contention();
        let c = scn.cpu_update(&sg, &[]).unwrap();
        let slowed = scn.rank.sim.finish_time(c).as_secs();
        scn.clear_update_contention();
        let base = sg.len() as f64 / scn.cfg.profile.cpu_update_pps();
        assert!(slowed > base * 1.2, "contention not applied: {slowed} vs {base}");
    }
}
