//! Output checks: the sequential twin the `step_*` warm-up steps are
//! compared with, bit for bit, and the conditions every operation must meet.
//!
//! The twin runs once per run, in the parent, and leaves only digests; a
//! child compares its trainer's state with them after each warm-up step, so
//! the twin's time and memory are in no child's set-up or peak RSS.

use dos::core::PipelineReport;
use dos::optim::{MixedPrecisionState, UpdateRule};
use dos::runtime::FunctionalReport;
use dos::tensor::{kernels, F16};
use dos::train::{Trainer, TrainerError};

use crate::inputs::{digest_combine, digest_f16, digest_f32, grad_stream, init_stream};
use crate::workloads::{StepShape, TRAIN_ITERS, WARMUP_STEPS};

/// Learning rate `Trainer::from_json` uses when the document names none.
pub const DEFAULT_LR: f32 = 0.01;

/// Digests of the state a correct step leaves behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepDigest {
    /// FP32 master parameters.
    pub params: u64,
    /// First moment.
    pub momentum: u64,
    /// Second moment.
    pub variance: u64,
    /// The step's FP16 output vector.
    pub fp16: u64,
}

impl StepDigest {
    /// Digests of a state and the FP16 vector its last step produced.
    pub fn of(params: &[f32], momentum: &[f32], variance: &[f32], fp16: &[F16]) -> StepDigest {
        StepDigest {
            params: digest_f32(params),
            momentum: digest_f32(momentum),
            variance: digest_f32(variance),
            fp16: digest_f16(fp16),
        }
    }

    /// `p:m:v:f` in hex, for a child's command line.
    pub fn encode(&self) -> String {
        format!(
            "{:x}:{:x}:{:x}:{:x}",
            self.params, self.momentum, self.variance, self.fp16
        )
    }

    /// Parses [`StepDigest::encode`]'s output.
    pub fn decode(text: &str) -> Option<StepDigest> {
        let mut it = text.split(':').map(|h| u64::from_str_radix(h, 16).ok());
        let d = StepDigest {
            params: it.next()??,
            momentum: it.next()??,
            variance: it.next()??,
            fp16: it.next()??,
        };
        it.next().is_none().then_some(d)
    }
}

/// One step of the sequential twin: the monolithic update over the whole
/// shard followed by a full downscale — what the interleaved pipeline must
/// equal bit for bit, for any stride.
pub fn sequential_twin(state: &mut MixedPrecisionState, grads: &[f32]) -> Vec<F16> {
    state.full_step(grads);
    let mut fp16 = vec![F16::ZERO; state.len()];
    kernels::downscale(state.params(), &mut fp16);
    fp16
}

/// Runs `twin` for the warm-up steps over the inputs of `seed` and returns
/// one digest per step.
pub fn twin_digests_with(
    shape: &StepShape,
    seed: u64,
    mut twin: impl FnMut(&mut MixedPrecisionState, &[f32]) -> Vec<F16>,
) -> Vec<StepDigest> {
    let grads = grad_stream(seed, shape.params);
    let mut state = MixedPrecisionState::new(
        init_stream(seed, shape.params),
        UpdateRule::adam(),
        DEFAULT_LR,
    );
    (0..WARMUP_STEPS)
        .map(|_| {
            let fp16 = twin(&mut state, &grads);
            StepDigest::of(state.params(), state.momentum(), state.variance(), &fp16)
        })
        .collect()
}

/// The digests of the [`sequential_twin`].
pub fn twin_digests(shape: &StepShape, seed: u64) -> Vec<StepDigest> {
    twin_digests_with(shape, seed, sequential_twin)
}

/// What every `step_*` operation must be: `Ok`, not degraded, full length.
///
/// # Errors
///
/// Returns what was wrong with the step.
pub fn check_step_report(
    result: Result<PipelineReport, TrainerError>,
    params: usize,
) -> Result<PipelineReport, String> {
    let report = result.map_err(|e| format!("step failed: {e}"))?;
    if let Some(d) = &report.degraded {
        return Err(format!("step degraded: {}", d.reason));
    }
    if report.fp16_params.len() != params {
        return Err(format!(
            "fp16 vector has {} of {params} values",
            report.fp16_params.len()
        ));
    }
    Ok(report)
}

/// Compares a trainer's state after a warm-up step with the twin's digest.
///
/// # Errors
///
/// Names the first array that differs.
pub fn check_against_twin(
    want: &StepDigest,
    trainer: &Trainer,
    report: &PipelineReport,
) -> Result<(), String> {
    let got = StepDigest::of(
        trainer.params(),
        trainer.momentum(),
        trainer.variance(),
        &report.fp16_params,
    );
    for (what, g, w) in [
        ("params", got.params, want.params),
        ("momentum", got.momentum, want.momentum),
        ("variance", got.variance, want.variance),
        ("fp16_params", got.fp16, want.fp16),
    ] {
        if g != w {
            return Err(format!(
                "{what} differ from the sequential twin ({g:x} != {w:x})"
            ));
        }
    }
    Ok(())
}

/// What every `train_dp2` operation must be: ranks bit-identical, no
/// degraded step, every loss finite, the last loss below the first. Returns
/// the call's output digest (all losses and the final parameters).
///
/// # Errors
///
/// Returns what was wrong with the call.
pub fn check_train_report(report: &FunctionalReport) -> Result<u64, String> {
    if !report.ranks_consistent {
        return Err("ranks ended with different parameters".into());
    }
    if report.degraded_steps > 0 {
        return Err(format!("{} degraded update steps", report.degraded_steps));
    }
    if report.losses.len() != TRAIN_ITERS {
        return Err(format!(
            "{} losses for {TRAIN_ITERS} iterations",
            report.losses.len()
        ));
    }
    if let Some(bad) = report.losses.iter().find(|l| !l.is_finite()) {
        return Err(format!("non-finite loss {bad}"));
    }
    let (first, last) = (report.losses[0], report.losses[TRAIN_ITERS - 1]);
    if last >= first {
        return Err(format!("loss did not decrease: {first} -> {last}"));
    }
    Ok(digest_combine(&[
        digest_f32(&report.losses),
        digest_f32(&report.final_params),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: StepShape = StepShape {
        params: 1000,
        subgroup: 64,
        interleaved: true,
    };

    /// Runs the warm-up steps of a real trainer against `digests`.
    fn verify(shape: &StepShape, seed: u64, digests: &[StepDigest]) -> Result<(), String> {
        let grads = grad_stream(seed, shape.params);
        let mut trainer =
            Trainer::from_json(&shape.trainer_json(), init_stream(seed, shape.params)).unwrap();
        for want in digests {
            let report = check_step_report(trainer.step(&grads), shape.params)?;
            check_against_twin(want, &trainer, &report)?;
        }
        Ok(())
    }

    #[test]
    fn the_pipeline_matches_the_sequential_twin() {
        for interleaved in [true, false] {
            let shape = StepShape {
                interleaved,
                ..TINY
            };
            verify(&shape, 3, &twin_digests(&shape, 3)).unwrap();
        }
    }

    #[test]
    fn a_deliberately_wrong_twin_fails_the_check() {
        // A twin that applies the gradient twice is caught on the first step.
        let wrong = twin_digests_with(&TINY, 3, |state, grads| {
            state.full_step(grads);
            sequential_twin(state, grads)
        });
        let err = verify(&TINY, 3, &wrong).unwrap_err();
        assert!(err.contains("differ from the sequential twin"), "{err}");

        // A twin that is right about the FP32 state but rounds the FP16
        // output differently (truncation instead of nearest-even) is caught
        // on that array alone.
        let lossy = twin_digests_with(&TINY, 3, |state, grads| {
            let mut fp16 = sequential_twin(state, grads);
            fp16[17] = F16::from_bits(fp16[17].to_bits() ^ 1);
            fp16
        });
        let err = verify(&TINY, 3, &lossy).unwrap_err();
        assert!(err.starts_with("fp16_params differ"), "{err}");

        // And inputs of another seed do not pass for this seed's.
        assert!(verify(&TINY, 4, &twin_digests(&TINY, 3)).is_err());
    }

    #[test]
    fn digests_survive_the_command_line() {
        let d = twin_digests(&TINY, 1)[0];
        assert_eq!(StepDigest::decode(&d.encode()), Some(d));
        assert_eq!(StepDigest::decode("1:2:3"), None);
        assert_eq!(StepDigest::decode("1:2:3:4:5"), None);
        assert_eq!(StepDigest::decode("1:2:x:4"), None);
    }

    #[test]
    fn short_or_failed_steps_are_rejected() {
        let mut trainer = Trainer::from_json(&TINY.trainer_json(), init_stream(1, 1000)).unwrap();
        let err = check_step_report(trainer.step(&[0.0; 5]), 1000).unwrap_err();
        assert!(err.starts_with("step failed"), "{err}");
        let ok = trainer.step(&grad_stream(1, 1000));
        assert!(check_step_report(ok, 1001)
            .unwrap_err()
            .contains("of 1001 values"));
    }

    #[test]
    fn train_reports_are_held_to_every_condition() {
        let good = FunctionalReport {
            losses: (0..TRAIN_ITERS).map(|i| 5.0 - i as f32 * 0.01).collect(),
            ranks_consistent: true,
            final_params: vec![0.5; 8],
            degraded_steps: 0,
            monitor_addr: None,
            recoveries: 0,
            final_world: 2,
        };
        let digest = check_train_report(&good).unwrap();
        assert_eq!(check_train_report(&good.clone()), Ok(digest));

        let mut bad = good.clone();
        bad.ranks_consistent = false;
        assert!(check_train_report(&bad).is_err());
        let mut bad = good.clone();
        bad.losses[3] = f32::NAN;
        assert!(check_train_report(&bad).unwrap_err().contains("non-finite"));
        let mut bad = good.clone();
        bad.losses[TRAIN_ITERS - 1] = 6.0;
        assert!(check_train_report(&bad)
            .unwrap_err()
            .contains("did not decrease"));
        let mut bad = good.clone();
        bad.final_params[0] = 0.25;
        assert_ne!(check_train_report(&bad), Ok(digest));
        let mut bad = good;
        bad.degraded_steps = 1;
        assert!(check_train_report(&bad).is_err());
    }
}
