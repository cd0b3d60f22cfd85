//! Decision pins for the shared sweep + hysteresis gate.
//!
//! Both gate callers — the simulated-engine [`Controller`] and the
//! functional-trainer [`WallClockTuner`] — are driven over *recorded*
//! sample streams (a fixed sequence of effective PCIe rates), and their
//! full decision logs are pinned verbatim. The gate extraction must not
//! change a single decision, threshold crossing, or rendered gain.

use dos_control::{
    Controller, ControllerConfig, IterationController, WallClockTuner, WallClockTunerConfig,
};
use dos_core::StridePolicy;
use dos_hal::HardwareProfile;
use dos_nn::ModelSpec;
use dos_sim::{IterationReport, ResourceUtilization, TrainConfig};
use dos_telemetry::{EventKind, Timeline, TraceEvent};

fn train() -> TrainConfig {
    TrainConfig::deep_optimizer_states(
        ModelSpec::by_name("20B").expect("20B in the zoo"),
        HardwareProfile::jlse_h100(),
    )
}

/// A synthetic report whose only informative spans are PCIe transfers at
/// an effective rate of `b_eff` params/s per direction (same construction
/// as the controller's own unit tests).
fn report_with_b(b_eff: f64) -> IterationReport {
    let s = 1.0e8_f64;
    let mut tl = Timeline::new();
    tl.record("pcie.h2d", "h2d-params16:sg0", "update", 0.0, 2.0 * s / (4.0 * b_eff), 2.0 * s);
    tl.record("pcie.d2h", "flush-momentum:sg0", "update", 0.0, 4.0 * s / (4.0 * b_eff), 4.0 * s);
    IterationReport {
        scheduler: "test".into(),
        model: "20B".into(),
        forward_secs: 0.0,
        backward_secs: 0.0,
        update_secs: 1.0,
        total_secs: 1.0,
        spill_secs: 0.0,
        tflops_per_gpu: 0.0,
        update_pps_per_rank: 0.0,
        gpu_peak_bytes: 0,
        oom: None,
        host_oom: None,
        update_utilization: ResourceUtilization::default(),
        timeline: tl,
    }
}

/// The recorded degradation/recovery stream both pins replay: healthy,
/// slow decay, hard degradation, then full recovery.
const B_STREAM: [f64; 12] = [
    4.0e9, 4.0e9, 2.0e9, 1.2e9, 0.8e9, 0.5e9, 0.5e9, 0.5e9, 4.0e9, 4.0e9, 4.0e9, 4.0e9,
];

fn controller_decision_log() -> Vec<String> {
    let cfg = train();
    let mut ctl = Controller::new(ControllerConfig::default(), &cfg);
    for (i, &b) in B_STREAM.iter().enumerate() {
        let _ = ctl.plan_iteration(i, &cfg);
        ctl.observe_iteration(i, &report_with_b(b));
    }
    let _ = ctl.plan_iteration(B_STREAM.len(), &cfg);
    ctl.decisions().iter().map(|d| format!("{:?} {}", d.kind, d.detail)).collect()
}

fn tuner_decision_log() -> (Vec<String>, StridePolicy, usize) {
    let mk = |resource: &str, name: &str, dur: f64, work: f64| TraceEvent {
        track: "cpu".into(),
        name: name.into(),
        phase: "update".into(),
        resource: resource.into(),
        start: 0.0,
        dur,
        work,
        depth: 0,
        kind: EventKind::Span,
    };
    let events_at = |b: f64| {
        vec![
            mk("cpu", "update:sg0", 0.6, 1.0e9),
            mk("gpu", "update:sg1", 0.1, 2.5e9),
            mk("pcie.h2d", "prefetch:sg1", 1.0e9 / b, 4.0 * 1.0e9),
            mk("pcie.d2h", "flush:sg1", 1.0e9 / b, 4.0 * 1.0e9),
        ]
    };
    let cfg = WallClockTunerConfig { alpha: 1.0, ..WallClockTunerConfig::default() };
    let mut tuner = WallClockTuner::new(cfg, 5_000_000_000, 100_000_000);
    for &b in &B_STREAM {
        tuner.observe(&events_at(b));
    }
    let log = tuner.decisions().iter().map(|d| format!("{:?} {}", d.kind, d.detail)).collect();
    (log, tuner.stride_policy(), tuner.retunes())
}

#[test]
fn controller_decisions_on_recorded_stream_are_pinned() {
    let want = vec![
        "Seed seed:k2",
        "Retune k2->k3 (predicted gain 19.2%)",
        "Retune k3->k4 (predicted gain 15.4%)",
        "Retune k4->k7 (predicted gain 20.2%)",
        "Retune k7->k8 (predicted gain 5.3%)",
        "Ladder descend:residents-only (eq1 unsolvable, was k8)",
        "Recover recover:dos k8 (predicted gain 29.8%)",
        "Retune k8->k3 (predicted gain 23.8%)",
    ];
    assert_eq!(controller_decision_log(), want);
}

#[test]
fn tuner_decisions_on_recorded_stream_are_pinned() {
    // The stream is in the fused step's shape: one `update:sg*` span of
    // 0.6 s per 1e9 params carries `1/U_c + 1/D_c` (0.5 s + 0.1 s when the
    // downscale had a span of its own), so the CPU term — and every
    // decision — is the two-span stream's. Equation 1's CPU-only retreat
    // stays out of reach on this stream (the tuner's unit tests exercise
    // the ladder).
    let want = vec![
        "Retune k2->k3 (predicted gain 12.6%)",
        "Retune k3->k6 (predicted gain 26.5%)",
        "Retune k6->k8 (predicted gain 11.5%)",
        "Retune k8->k3 (predicted gain 23.8%)",
    ];
    let (log, policy, retunes) = tuner_decision_log();
    assert_eq!(log, want);
    assert_eq!(policy, StridePolicy::Fixed(3));
    assert_eq!(retunes, 4);
}
