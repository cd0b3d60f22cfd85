//! The benchmark's contract in one place: workloads, metric names, units,
//! directions and bounds. `BENCHMARK.json` is generated from these tables
//! (`run.sh schema`), the binaries emit exactly these names, and both a unit
//! test and every run compare the file with the tables.

use serde::Value;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric of the contract.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Permanent name; later issues cite it.
    pub name: &'static str,
    /// Unit printed with every value.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// For end-to-end metrics: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

/// One workload of the contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadDef {
    /// Permanent name.
    pub name: &'static str,
    /// Why the workload exists (one line).
    pub why: &'static str,
}

/// Wall budget of one whole invocation, in seconds: children, set-ups and
/// warm-ups included.
pub const RUN_SECONDS: u64 = 28;

/// The command the driver runs from the root of a checkout.
pub const COMMAND: [&str; 3] = ["bash", "benchmark/run.sh", "bench"];

/// Directories that hold the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["benchmark"];

/// The four gated workloads.
pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "step_dram",
        why: "The paper's case: 16.8M params, ~300 MB far beyond L2, every 2nd subgroup staged \
              to the device worker; staging copies, write-back, hand-off and the FP16 vector \
              cost as much as the kernels",
    },
    WorkloadDef {
        name: "step_cpu_only",
        why: "Same shard, cpu_only: the ZeRO-3-offload baseline that bypasses arena, channels \
              and worker; kernel changes show largest here, arena/pipeline changes must show no \
              change",
    },
    WorkloadDef {
        name: "step_cache",
        why: "262,144 params in 32 subgroups: the state fits L2, so per-step fixed costs (spawn \
              + join, 80 arena leases, channel sends, span labels) dominate; machinery added \
              for big shards shows its cost here",
    },
    WorkloadDef {
        name: "train_dp2",
        why: "Full stack, world 2: data, nn, collectives, zero shard, pipeline; nn ~85 %, \
              collectives ~10 %, optimizer <5 %, so optimizer-kernel work must show no change \
              and nn/collectives/data work shows only here",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

/// What a user of the system sees; printed with `--trace 0`.
pub const END_TO_END: [MetricDef; 3] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("throughput_per_cpu_s", "1/s", Better::Higher, 0.20),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.10),
];

/// Metrics of single layers; printed with `--trace 1`. No bounds.
pub const PER_LAYER: [MetricDef; 70] = [
    hi("optim.uc_params_per_s", "1/s"),
    hi("optim.writeback_gb_per_s", "GB/s"),
    hi("tensor.downscale_params_per_s", "1/s"),
    hi("tensor.upscale_params_per_s", "1/s"),
    hi("core.arena.stage_gb_per_s", "GB/s"),
    hi("core.arena.f16_lease_params_per_s", "1/s"),
    lo("core.arena.lease_ns", "ns"),
    hi("core.arena.reuse_ratio", "ratio"),
    lo("core.arena.high_water_mb", "MiB"),
    lo("sync.spawn_join_us", "us"),
    lo("sync.channel_roundtrip_ns", "ns"),
    lo("core.pipeline.step_ms", "ms"),
    lo("core.pipeline.serial_sum_ms", "ms"),
    lo("core.pipeline.critical_floor_ms", "ms"),
    hi("core.pipeline.overlap_frac", "ratio"),
    lo("core.pipeline.sched_overhead_ms", "ms"),
    hi("core.pipeline.device_share", "ratio"),
    lo("core.pipeline.closure_gap_frac", "ratio"),
    hi("core.pipeline.eq1_k_star", "count"),
    lo("core.pipeline.eq1_pred_err_frac", "ratio"),
    lo("core.zenflow.step_ms", "ms"),
    lo("core.zenflow.drain_ms", "ms"),
    hi("core.zenflow.hot_share", "ratio"),
    lo("core.zenflow.max_age", "count"),
    lo("train.step_median_ms", "ms"),
    lo("train.step_tail_ms", "ms"),
    hi("train.step_tail_pct", "pct"),
    hi("train.step_samples", "count"),
    lo("train.facade_overhead_frac", "ratio"),
    lo("train.build_s", "s"),
    lo("train.allocs_per_step", "count"),
    lo("train.alloc_mb_per_step", "MiB"),
    lo("train.final_loss", "loss"),
    lo("train.ckpt.capture_ms", "ms"),
    hi("train.ckpt.encode_mb_per_s", "MB/s"),
    hi("train.ckpt.decode_mb_per_s", "MB/s"),
    lo("train.ckpt.save_ms", "ms"),
    lo("train.ckpt.load_ms", "ms"),
    lo("train.ckpt.bytes_per_param", "B/param"),
    lo("data.setup_s", "s"),
    lo("data.next_batch_us", "us"),
    lo("nn.fwd_bwd_ms", "ms"),
    lo("nn.gather_scatter_ms", "ms"),
    hi("nn.tokens_per_s", "1/s"),
    lo("collectives.allreduce_ms", "ms"),
    lo("collectives.reduce_scatter_ms", "ms"),
    lo("collectives.all_gather_ms", "ms"),
    lo("collectives.uds_allreduce_ms", "ms"),
    hi("collectives.frame_codec_mb_per_s", "MB/s"),
    lo("collectives.bytes_per_iter", "B"),
    hi("runtime.phase_fwdbwd_frac", "ratio"),
    lo("runtime.phase_comm_frac", "ratio"),
    lo("runtime.phase_update_frac", "ratio"),
    lo("runtime.unattributed_frac", "ratio"),
    lo("runtime.trace_overhead_frac", "ratio"),
    lo("runtime.dp1_iter_ms", "ms"),
    lo("telemetry.span_ns", "ns"),
    lo("telemetry.flight_span_ns", "ns"),
    lo("telemetry.spans_per_step", "count"),
    lo("telemetry.est_overhead_frac", "ratio"),
    lo("telemetry.trace_overhead_frac", "ratio"),
    lo("telemetry.analyze_ms", "ms"),
    lo("sim.pred_step_ms", "ms"),
    lo("sim.pred_err_frac", "ratio"),
    lo("sim.host_us_per_iter", "us"),
    hi("proc.wall_throughput_per_s", "1/s"),
    lo("proc.cpu_ms_per_op", "ms"),
    hi("proc.parallelism", "ratio"),
    lo("proc.setup_wall_s", "s"),
    hi("host.speed", "ratio"),
];

/// Looks a metric up by name in both tables.
pub fn metric(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

fn s(text: &str) -> Value {
    Value::Str(text.to_string())
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Map(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn metric_value(m: &MetricDef) -> Value {
    let mut fields = vec![
        ("name", s(m.name)),
        ("unit", s(m.unit)),
        ("better", s(m.better.as_str())),
    ];
    if let Some(b) = m.bound {
        fields.push(("bound", Value::Float(b)));
    }
    obj(fields)
}

/// The contract as the value tree of `BENCHMARK.json`.
pub fn benchmark_value() -> Value {
    obj(vec![
        (
            "command",
            Value::Seq(COMMAND.iter().map(|c| s(c)).collect()),
        ),
        ("paths", Value::Seq(PATHS.iter().map(|p| s(p)).collect())),
        ("run_seconds", Value::Int(RUN_SECONDS as i64)),
        (
            "workloads",
            Value::Seq(
                WORKLOADS
                    .iter()
                    .map(|w| obj(vec![("name", s(w.name)), ("why", s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Seq(END_TO_END.iter().map(metric_value).collect()),
        ),
        (
            "per_layer",
            Value::Seq(PER_LAYER.iter().map(metric_value).collect()),
        ),
    ])
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut text = serde_json::to_string_pretty(&benchmark_value())
        .expect("the in-tree serializer does not fail on a value tree");
    text.push('\n');
    text
}

/// Compares the text of a `BENCHMARK.json` with the tables: same keys, same
/// names, units, directions, bounds, workloads, command and run length.
///
/// # Errors
///
/// Returns a description of the first difference, or of a parse failure.
pub fn validate(text: &str) -> Result<(), String> {
    let got: Value = serde_json::from_str(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let want = benchmark_value();
    if got == want {
        return Ok(());
    }
    // Narrow the difference down to a key and, inside a list, an entry.
    let (g, w) = (
        got.as_map().ok_or("BENCHMARK.json is not an object")?,
        want.as_map(),
    );
    let w = w.expect("the tables render to an object");
    let keys = |m: &[(String, Value)]| m.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>();
    if keys(g) != keys(w) {
        return Err(format!("keys {:?}, expected {:?}", keys(g), keys(w)));
    }
    for ((key, gv), (_, wv)) in g.iter().zip(w) {
        if gv == wv {
            continue;
        }
        if let (Some(gs), Some(ws)) = (gv.as_seq(), wv.as_seq()) {
            if gs.len() != ws.len() {
                return Err(format!(
                    "{key}: {} entries, expected {}",
                    gs.len(),
                    ws.len()
                ));
            }
            if let Some(i) = (0..gs.len()).find(|&i| gs[i] != ws[i]) {
                return Err(format!("{key}[{i}]: {:?}, expected {:?}", gs[i], ws[i]));
            }
        }
        return Err(format!("{key}: {gv:?}, expected {wv:?}"));
    }
    Err("BENCHMARK.json differs from the benchmark's tables".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str, max: usize, extra: &str) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    /// Checks the tables against the limits the driver enforces on
    /// `BENCHMARK.json` (counts, name and unit alphabets, lengths, bounds).
    ///
    /// # Errors
    ///
    /// Returns the first violated limit.
    fn check_limits() -> Result<(), String> {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            let first_ok = name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric());
            if !first_ok || !name_ok(name, 64, "_.-") {
                return Err(format!("bad name {name:?}"));
            }
            if !seen.insert(name) {
                return Err(format!("name {name:?} used twice"));
            }
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            if !name_ok(m.unit, 16, "_/%.-") {
                return Err(format!("bad unit {:?} of {}", m.unit, m.name));
            }
        }
        for m in &END_TO_END {
            match m.bound {
                Some(b) if b > 0.0 && b <= 0.25 => {}
                other => return Err(format!("bound {other:?} of {} outside (0, 0.25]", m.name)),
            }
        }
        if !END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower)
        {
            return Err("end_to_end lacks setup_s in s, lower".into());
        }
        for w in &WORKLOADS {
            if w.why.len() > 200 || w.why.contains('\n') {
                return Err(format!(
                    "why of {} is not one line of at most 200 characters",
                    w.name
                ));
            }
        }
        if !(1..=60).contains(&RUN_SECONDS) {
            return Err(format!("run_seconds {RUN_SECONDS} outside 1..=60"));
        }
        if benchmark_json().len() > 64 * 1024 {
            return Err("BENCHMARK.json would exceed 64 KiB".into());
        }
        Ok(())
    }

    #[test]
    fn tables_are_inside_the_drivers_limits() {
        check_limits().unwrap();
        assert_eq!(WORKLOADS.len(), 4);
        assert_eq!(END_TO_END.len(), 3);
        assert_eq!(PER_LAYER.len(), 70);
    }

    #[test]
    fn the_committed_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        validate(&text).unwrap();
    }

    #[test]
    fn validate_names_the_entry_that_differs() {
        validate(&benchmark_json()).unwrap();
        let renamed = benchmark_json().replace("\"optim.uc_params_per_s\"", "\"optim.uc_pps\"");
        let err = validate(&renamed).unwrap_err();
        assert!(err.contains("per_layer[0]"), "{err}");
        let rebound = benchmark_json().replace("0.2\n", "0.3\n");
        assert!(validate(&rebound).is_err() || rebound == benchmark_json());
        assert!(validate("{").is_err());
        assert!(validate("[]").is_err());
    }

    #[test]
    fn every_name_resolves_and_end_to_end_has_bounds() {
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert_eq!(metric(m.name).map(|d| d.unit), Some(m.unit));
        }
        assert!(END_TO_END.iter().all(|m| m.bound.is_some()));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        assert!(metric("nope").is_none());
    }
}
