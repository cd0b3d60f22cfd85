//! Property tests of the functional interleaved pipeline: for *any*
//! gradients, subgroup size, stride, and resident set, the threaded
//! hybrid update is bitwise identical to the sequential baseline.

use dos_core::{hybrid_update, DeepOptimizerStates, PipelineConfig, StridePolicy, UpdatePlan};
use dos_hal::HardwareProfile;
use dos_nn::ModelSpec;
use dos_optim::{MixedPrecisionState, UpdateRule};
use dos_sim::{simulate_iteration, IterationScenario, TrainConfig};
use dos_tensor::F16;
use dos_zero::partition_into_subgroups;
use proptest::prelude::*;

fn rules() -> impl Strategy<Value = UpdateRule> {
    prop_oneof![
        Just(UpdateRule::adam()),
        Just(UpdateRule::adamw(0.05)),
        Just(UpdateRule::adagrad()),
        Just(UpdateRule::rmsprop()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn hybrid_is_bitwise_equal_to_sequential(
        n in 1usize..600,
        sg_size in 1usize..100,
        stride in 1usize..8,
        residents in 0usize..4,
        lr in 1e-4f32..0.1,
        rule in rules(),
        seed in any::<u32>(),
    ) {
        let init: Vec<f32> =
            (0..n).map(|i| (((i as u32).wrapping_mul(seed) % 1000) as f32 / 1000.0) - 0.5).collect();
        let grads: Vec<f32> =
            (0..n).map(|i| (((i as u32).wrapping_add(seed) % 997) as f32 / 997.0) - 0.5).collect();
        let subgroups = partition_into_subgroups(n, sg_size);

        let mut reference = MixedPrecisionState::new(init.clone(), rule, lr);
        reference.full_step(&grads);
        let ref_fp16: Vec<F16> = reference.downscale_range(0..n);

        let mut hybrid = MixedPrecisionState::new(init, rule, lr);
        let cfg = PipelineConfig {
            stride: StridePolicy::Fixed(stride),
            static_residents: residents.min(subgroups.len()),
            ..PipelineConfig::default()
        };
        let report = hybrid_update(&mut hybrid, &grads, &subgroups, cfg).unwrap();

        prop_assert_eq!(reference.params(), hybrid.params());
        prop_assert_eq!(reference.momentum(), hybrid.momentum());
        prop_assert_eq!(reference.variance(), hybrid.variance());
        prop_assert_eq!(&report.fp16_params[..], &ref_fp16[..]);
        // A healthy step places exactly what the plan says it places.
        let plan = UpdatePlan::new(subgroups.len(), residents, Some(stride));
        prop_assert_eq!(report.device_subgroups, plan.n_device());
        prop_assert_eq!(report.cpu_subgroups, plan.n_cpu());
    }

    /// The simulated schedule sends exactly the plan's subgroups to the
    /// GPU — the two clocks place through the same `UpdatePlan`.
    #[test]
    fn simulated_schedule_submits_the_plans_gpu_set(
        target in 1usize..40,
        residents in 0usize..6,
        stride in 0usize..6,
        residents_at_tail in any::<bool>(),
    ) {
        let mut cfg = TrainConfig::deep_optimizer_states(
            ModelSpec::by_name("7B").unwrap(),
            HardwareProfile::jlse_h100(),
        );
        cfg.offload.subgroup_params = cfg.params_per_rank().div_ceil(target);
        let sgs = IterationScenario::new(cfg.clone()).subgroups().to_vec();
        cfg.offload.gpu_resident_ratio = residents.min(sgs.len()) as f64 / sgs.len() as f64;
        let policy = if stride == 0 { StridePolicy::CpuOnly } else { StridePolicy::Fixed(stride) };

        let report =
            simulate_iteration(&cfg, &DeepOptimizerStates { stride: policy, residents_at_tail })
                .unwrap();
        let mut on_gpu: Vec<usize> = report
            .timeline
            .spans()
            .iter()
            .filter_map(|s| s.label.strip_prefix("gpu-update:sg")?.parse().ok())
            .collect();
        on_gpu.sort_unstable();

        let plan = UpdatePlan::with_resident_ratio(
            sgs.len(),
            cfg.offload.gpu_resident_ratio,
            policy.resolve(|| None),
        )
        .residents_at_tail(residents_at_tail);
        let planned: Vec<usize> =
            sgs.iter().enumerate().filter(|(i, _)| plan.on_device(*i)).map(|(_, s)| s.id).collect();
        prop_assert_eq!(on_gpu, planned);
    }

    /// Multiple consecutive hybrid steps with changing strides track the
    /// sequential trajectory exactly.
    #[test]
    fn multi_step_stride_changes_are_safe(
        n in 8usize..200,
        sg_size in 2usize..40,
        steps in 1usize..5,
    ) {
        let init: Vec<f32> = (0..n).map(|i| (i as f32 * 0.31).sin()).collect();
        let subgroups = partition_into_subgroups(n, sg_size);
        let mut seq = MixedPrecisionState::new(init.clone(), UpdateRule::adam(), 0.01);
        let mut hyb = MixedPrecisionState::new(init, UpdateRule::adam(), 0.01);
        for s in 0..steps {
            let grads: Vec<f32> = (0..n).map(|i| ((i + s) as f32 * 0.7).cos() * 0.1).collect();
            seq.full_step(&grads);
            let cfg = PipelineConfig {
                stride: StridePolicy::Fixed(1 + (s % 4)),
                static_residents: s % 3,
                ..PipelineConfig::default()
            };
            hybrid_update(&mut hyb, &grads, &subgroups, cfg).unwrap();
        }
        prop_assert_eq!(seq.params(), hyb.params());
    }
}
