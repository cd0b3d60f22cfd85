//! Integration tests of the extension features through the public surface:
//! the extended zoo's host-DRAM overflow, schedule explanation,
//! checkpointing in training, and the calibration bridge.

use dos::core::{explain_schedule, PerfModel};
use dos::hal::HardwareProfile;
use dos::nn::ModelSpec;
use dos::sim::{simulate_training, simulate_training_with, CheckpointPolicy, TrainConfig};
use dos_runtime::{run_iteration, ConfigError, RuntimeConfig};

/// §6's NVMe tier through the JSON config. There is one offload tier,
/// host DRAM: the extended zoo's host-offloaded FP32 optimizer state
/// overflows the testbed's 512 GB (§5.3's remark on LLaMA-33B) and is
/// reported as `host_oom`, and a document asking for an NVMe tier is
/// refused at parse as an unknown field, a typed error rather than a
/// panic or a silently ignored key.
#[test]
fn nvme_tier_via_json() {
    for name in ["33B", "65B"] {
        let json = format!(r#"{{ "model": "{name}" }}"#);
        let r = run_iteration(&RuntimeConfig::from_json(&json).unwrap()).unwrap();
        assert!(r.host_oom.is_some(), "{name} must overflow 512 GB DRAM");
        assert!(r.oom.is_none(), "{name}: {:?}", r.oom);
    }

    let err = RuntimeConfig::from_json(r#"{ "model": "65B", "nvme_offload": true }"#)
        .unwrap_err();
    assert!(matches!(err, ConfigError::Parse(_)), "{err:?}");
    assert!(err.to_string().contains("unknown field"), "{err}");
    assert!(err.to_string().contains("nvme_offload"), "{err}");
}

/// The explanation, the prediction, and the simulation agree on the 20B
/// schedule within a reasonable band.
#[test]
fn explanation_matches_simulation() {
    let cfg = TrainConfig::deep_optimizer_states(
        ModelSpec::by_name("20B").unwrap(),
        HardwareProfile::jlse_h100(),
    );
    let e = explain_schedule(&cfg);
    assert_eq!(e.stride, Some(2));
    let r = dos::sim::simulate_iteration(&cfg, &dos::core::DeepOptimizerStates::default())
        .unwrap();
    let err = (e.predicted_chosen_secs - r.update_secs).abs() / r.update_secs;
    assert!(
        err < 0.15,
        "prediction {:.2}s vs simulated {:.2}s ({:.0}% off)",
        e.predicted_chosen_secs,
        r.update_secs,
        err * 100.0
    );
}

/// Checkpointing policies through the simulated trainer keep iteration
/// stability intact.
#[test]
fn checkpointing_preserves_stability() {
    let cfg = TrainConfig::deep_optimizer_states(
        ModelSpec::by_name("13B").unwrap(),
        HardwareProfile::jlse_h100(),
    );
    let sched = dos::core::DeepOptimizerStates::default();
    let plain = simulate_training(&cfg, &sched, 9).unwrap();
    let policy =
        CheckpointPolicy { every: std::num::NonZeroUsize::new(3).unwrap(), asynchronous: true };
    let (ckpt, _) = simulate_training_with(&cfg, &sched, 9, Some(policy)).unwrap();
    assert!(plain.is_stable(1, 0.05));
    // Async checkpoints must not destabilize the cadence either.
    let durs = ckpt.iteration_durations();
    let mean = durs[1..].iter().sum::<f64>() / (durs.len() - 1) as f64;
    for d in &durs[1..] {
        assert!((d - mean).abs() < 0.1 * mean, "cadence wobble: {durs:?}");
    }
}

/// The calibration report plugs into the same PerfModel type the profiles
/// use, end to end.
#[test]
fn calibration_bridges_into_the_model() {
    let report = dos::core::calibrate(1 << 16);
    let machine_model = report.perf_model(HardwareProfile::jlse_h100().gpu_update_pps);
    let profile_model =
        PerfModel::new(HardwareProfile::jlse_h100().perf_model_inputs());
    // Both are valid solver instances; the profile one must give the
    // paper's k = 2, the host one whatever this machine deserves.
    assert_eq!(profile_model.optimal_stride(), Some(2));
    let _ = machine_model.optimal_stride();
}

/// Extended-zoo lookups work everywhere a Table 2 name does.
#[test]
fn extended_zoo_is_first_class() {
    for name in ["33B", "65B"] {
        let spec = ModelSpec::by_name(name).unwrap();
        let cfg = TrainConfig::deep_optimizer_states(spec, HardwareProfile::jlse_h100());
        assert!(cfg.params_per_rank() > 7_000_000_000);
        let json = format!(r#"{{ "model": "{name}" }}"#);
        let rc = RuntimeConfig::from_json(&json).unwrap();
        assert!(rc.resolve().is_ok());
    }
}
