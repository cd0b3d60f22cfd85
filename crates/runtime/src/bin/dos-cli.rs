//! `dos-cli` — run a Deep Optimizer States training simulation from a
//! DeepSpeed-style JSON config file.
//!
//! `dos-cli --help` prints one usage line per subcommand (the `COMMANDS`
//! table below); the flags of each:
//!
//! ```text
//! <config.json>: simulate the config's training run (the default mode).
//!   --iterations N   simulate N iterations (default: 1, with breakdown)
//!   --compare        also run the ZeRO-3 and TwinFlow baselines
//!   --explain        print the schedule Equation 1 derives first
//!
//! trace: simulate one iteration with tracing and export a Chrome
//! trace-event JSON (open it in ui.perfetto.dev or chrome://tracing).
//!   --out FILE       write the trace JSON here (default: trace.json)
//!   --analyze        print the overlap/stall analysis and exit nonzero
//!                    if any analyzer invariant is violated
//!
//! conformance: run the differential oracle matrix (Eq. 1 model vs
//! simulator vs functional pipeline) and exit nonzero on any divergence.
//!   --quick          reduced matrix (2 models, strides 1..3, 2 ratios)
//!   --json           emit the DivergenceReport as JSON instead of a table
//!   --filter SUBSTR  only run cells whose coordinates contain SUBSTR,
//!                    e.g. `20B/`, `zero3-offload`, `adamw/k=3`,
//!                    `zenflow-async` (stall-free updates)
//!
//! chaos: run a seeded fault-injection campaign (device-worker kills,
//! torn checkpoints, PCIe degradation windows, transient transfer
//! failures) and exit nonzero if any robustness invariant breaks.
//!   --seed N         campaign seed (default: 0; same seed, same faults)
//!   --faults SPEC    comma-separated subset of degrade, transfer-fail,
//!                    worker-kill, ckpt-corrupt (default: all)
//!   --trace-out FILE also export the faulted iteration's Chrome trace,
//!                    fault instants included
//!   --flight-out FILE write the monitored worker-kill check's automatic
//!                    flight-recorder dump here (with --transport-faults,
//!                    the transport check's dump — it runs last)
//!   --transport-faults SPEC  also run DP=4 training over a
//!                    fault-injected collective transport; SPEC grammar:
//!                    drop:P, dup:P, delay:LO..HI, disconnect:rankR@iterN,
//!                    part:A-B@LO..HI (comma-separated). Transient-only
//!                    plans must stay bitwise; permanent failures must
//!                    degrade elastically at reduced world size.
//!
//! monitor: run real training while serving live metrics over HTTP —
//! `/metrics` (Prometheus text format), `/metrics.json`, and `/health`
//! (the online anomaly detectors' board). The run self-scrapes its own
//! endpoint and exits nonzero if the payload is invalid. Accepts either a
//! trainer document (with `"params"`) or a simulator config like
//! `examples/quickstart.json` (a representative trainer is derived).
//!   --listen ADDR    bind address (default: 127.0.0.1:0, ephemeral port)
//!   --iterations N   optimizer steps to run (default: 8)
//!   --seed N         seed for the deterministic data streams (default: 0)
//!   --prom-out FILE  write the final Prometheus payload here
//!   --health-out FILE write the final health snapshot JSON here
//!   --flight-dir DIR directory for automatic flight-recorder dumps
//!
//! autotune: race the adaptive control plane against the static Equation 1
//! arm under a pinned fault plan; exit nonzero if the controller fails its
//! acceptance bar (fault-free: parity with static within 5%; faulted: it
//! must not lose).
//!   --iterations N   iterations to race (default: 12)
//!   --seed N         fault-plan seed (default: 0)
//!   --faults SPEC    comma-separated degradation windows, each
//!                    resource:FROM..UNTIL@SCALE, e.g. pcie.h2d:3..8@0.15
//!   --trace-out FILE export one adaptive iteration's Chrome trace with
//!                    the control:* decision instants on their own track
//!   --json           emit the outcome as JSON instead of a table
//!
//! calibrate: measure Equation 1's CPU-side inputs on this machine with
//! the reproduction's own kernels and solve for the update stride. The
//! report names the kernel path the CPU selected (`kernel_path` in
//! --json), so a rate quoted from another machine says what produced it.
//!   --elements N     parameters per kernel invocation (default: 1 << 22)
//!   --rounds N       timed rounds behind each median (default: 5)
//!   --ug PPS         GPU update rate to assume, params/s (default: 25e9,
//!                    the H100 profile's nominal)
//!   --json           emit the measurements as JSON instead of a table
//!
//! serve: run the multi-tenant control plane over a submission file —
//! admission control against the profile's budgets, weighted-deficit
//! fair-share scheduling with time-sliced leases, and checkpoint-based
//! preemption proven bitwise against an uninterrupted run. Exits nonzero
//! if any serving gate fails: lost jobs, double-granted leases, starved
//! tenants, unbounded p99 admission-to-start latency, or aggregate
//! throughput under 85% of the Equation 1 packing oracle.
//!   --jobs N         expand the file's jobs as prototypes into a seeded
//!                    open-loop schedule of N jobs (default: run the file
//!                    as-is; the CI smoke uses --jobs 200)
//!   --open-loop RATE arrival rate, jobs per virtual second (default:
//!                    derived from Equation 1 job cost, slightly above
//!                    the cluster's drain rate; implies --jobs 200)
//!   --seed S         seed for per-job data streams + arrival jitter
//!   --listen ADDR    serve /metrics, /metrics.json, and the /tenants
//!                    table while running, then self-scrape and verify
//!                    tenant-labelled series are present
//!   --ckpt-dir DIR   preempt through an on-disk checkpoint store
//!                    (default: in-memory checkpoints)
//!   --trace-out FILE export the Chrome trace, serve:* instants included
//!   --out FILE       write the ServeReport JSON here
//!   --json           emit the ServeReport as JSON instead of a table
//!   --require-preemption  also fail unless the run preempted at least
//!                    once and proved resume bitwise-identical
//!
//! check: deterministic schedule exploration of the hybrid update
//! pipeline, the collective rendezvous, the serve coordinator, and the
//! ZenFlow cross-iteration asynchronous updates (cooperative scheduler,
//! sleep-set-pruned DFS + seeded random walks, bitwise parity with the
//! sequential oracle at every terminal schedule) plus differential
//! fuzzing through the tri-oracle; exit nonzero on any divergence,
//! deadlock, or panic.
//!   --schedules N    target distinct schedules across the suite
//!                    (default: 1200)
//!   --fuzz N         sampled fuzz cases (default: 24)
//!   --seed S         seed for random walks and fuzz sampling (default: 0)
//!   --corpus DIR     regression corpus to replay (default: tests/corpus
//!                    when it exists; pass --corpus '' to skip)
//!   --scenario PREFIX explore only scenarios whose coordinate starts with
//!                    PREFIX (e.g. `zf` for the ZenFlow cross-iteration
//!                    suite, `rdv` for the collective rendezvous)
//!   --json           emit the CheckReport as JSON instead of a summary
//!   --replay TOKEN   replay one failing schedule token (dc1:…) and exit
//!                    nonzero iff it still reproduces
//! ```
//!
//! Example config:
//!
//! ```json
//! { "model": "20B", "deep_optimizer_states": { "enabled": true } }
//! ```

#![forbid(unsafe_code)]

use std::process::ExitCode;

use dos_runtime::cli::{exit_code, wants_help, CliError, Flags};
use dos_runtime::{
    run_autotune, run_chaos, run_iteration, run_monitor, run_training, trace_iteration,
    with_quiet_injected_panics, AutotuneOptions, ChaosOptions, FaultKind, MonitorOptions,
    RuntimeConfig,
};

/// One subcommand: its name, its usage line, and its body, which gets the
/// arguments after the name and answers `Ok(true)` when every gate held.
type Command = (&'static str, &'static str, fn(&[String]) -> Result<bool, CliError>);

/// Every subcommand. The first entry is the fallback: a first argument
/// that names no command is the default mode's config path.
const COMMANDS: &[Command] = &[
    ("", "dos-cli <config.json> [--iterations N] [--compare] [--explain]", run_default),
    ("trace", "dos-cli trace <config.json> [--out trace.json] [--analyze]", run_trace),
    ("conformance", "dos-cli conformance [--quick] [--json] [--filter SUBSTR]", run_conformance),
    (
        "chaos",
        "dos-cli chaos <config.json> [--seed N] [--faults SPEC] [--trace-out FILE] [--flight-out FILE] [--transport-faults SPEC]",
        run_chaos_cmd,
    ),
    (
        "monitor",
        "dos-cli monitor <config.json> [--listen ADDR] [--iterations N] [--seed N] [--prom-out FILE] [--health-out FILE] [--flight-dir DIR]",
        run_monitor_cmd,
    ),
    (
        "autotune",
        "dos-cli autotune <config.json> [--iterations N] [--seed N] [--faults SPEC] [--trace-out FILE] [--json]",
        run_autotune_cmd,
    ),
    ("calibrate", "dos-cli calibrate [--elements N] [--rounds N] [--ug PPS] [--json]", run_calibrate),
    (
        "serve",
        "dos-cli serve <jobs.json> [--jobs N] [--open-loop RATE] [--seed S] [--listen ADDR] [--ckpt-dir DIR] [--trace-out FILE] [--out FILE] [--json] [--require-preemption]",
        run_serve_cmd,
    ),
    (
        "check",
        "dos-cli check [--schedules N] [--fuzz N] [--seed S] [--scenario PREFIX] [--json] [--corpus DIR] [--replay TOKEN]",
        run_check_cmd,
    ),
];

fn read_file(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// Reads and parses a simulator config file.
fn load_config(path: &str) -> Result<RuntimeConfig, String> {
    RuntimeConfig::from_json(&read_file(path)?).map_err(|e| e.to_string())
}

/// Serializes `value` as pretty JSON, naming it `what` on failure.
fn pretty<T: serde::Serialize>(value: &T, what: &str) -> Result<String, String> {
    serde_json::to_string_pretty(value).map_err(|e| format!("cannot serialize {what}: {e}"))
}

fn write_file(path: &str, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Runs the multi-tenant control plane over a submission file;
/// `Ok(true)` means every serving gate held.
fn run_serve_cmd(rest: &[String]) -> Result<bool, CliError> {
    let mut flags = Flags::new(rest);
    let jobs: Option<usize> = flags.value("--jobs")?;
    let rate: Option<f64> = flags.value("--open-loop")?;
    let seed: u64 = flags.value("--seed")?.unwrap_or(0);
    let listen: Option<String> = flags.value("--listen")?;
    let ckpt_dir: Option<std::path::PathBuf> = flags.value("--ckpt-dir")?;
    let trace_out: Option<String> = flags.value("--trace-out")?;
    let out: Option<String> = flags.value("--out")?;
    let json = flags.switch("--json");
    let require_preemption = flags.switch("--require-preemption");
    let spec = dos_serve::ServeSpec::from_json(&read_file(flags.one("submission file path")?)?)?;
    spec.validate()?;
    let profile = spec.resolve_profile()?;

    let submission = if jobs.is_some() || rate.is_some() {
        let opts = dos_serve::OpenLoopOptions {
            jobs: jobs.unwrap_or(200),
            seed,
            rate_jobs_per_sec: rate,
        };
        dos_serve::open_loop_schedule(&profile, &spec.jobs, &opts)?
    } else {
        spec.jobs.clone()
    };
    let submitted = submission.len();

    let mut coord = dos_serve::Coordinator::new(profile, dos_serve::ServeOptions {
        checkpoint_dir: ckpt_dir,
        ..dos_serve::ServeOptions::default()
    });

    // The endpoint serves the live registry and the tenant table while
    // the virtual-time run executes; it stops when dropped.
    let server = listen
        .map(|addr| {
            dos_telemetry::MetricsServer::start_with_routes(
                &addr,
                coord.tracer().metrics().clone(),
                None,
                vec![("/tenants".to_string(), coord.tenants_doc().route())],
            )
            .map_err(|e| format!("metrics server: {e}"))
        })
        .transpose()?;

    let report = coord.run(submission).map_err(|e| e.to_string())?;

    if let Some(server) = &server {
        let addr = server.addr();
        let (status, prom) = dos_telemetry::http_get(addr, "/metrics")?;
        if status != 200 || !prom.contains("tenant=\"") {
            return Err(format!(
                "self-scrape of {addr}/metrics invalid (status {status}, tenant labels {})",
                if prom.contains("tenant=\"") { "present" } else { "missing" }
            )
            .into());
        }
        dos_telemetry::parse_prometheus(&prom)
            .map_err(|e| format!("self-scraped payload does not parse: {e}"))?;
        let (status, tenants) = dos_telemetry::http_get(addr, "/tenants")?;
        let table: Vec<dos_serve::TenantReport> = serde_json::from_str(&tenants)
            .map_err(|e| format!("/tenants payload does not parse: {e}"))?;
        if status != 200 || table.is_empty() {
            return Err(format!("/tenants invalid (status {status}, {} rows)", table.len()).into());
        }
        eprintln!("self-scrape of {addr} valid: tenant-labelled metrics + /tenants table");
    }

    if let Some(path) = &trace_out {
        write_file(path, &pretty(&dos_telemetry::chrome_trace(coord.tracer()), "trace")?)?;
    }

    let rendered = pretty(&report, "report")?;
    if let Some(path) = &out {
        write_file(path, &rendered)?;
    }
    if json {
        println!("{rendered}");
    } else {
        println!(
            "served {submitted} job(s): {} completed, {} rejected, {} failed in {:.3e} virtual s",
            report.completed, report.rejected, report.failed, report.makespan_secs,
        );
        println!(
            "  throughput {:.3e} params/s = {:.1}% of the packing oracle ({:.3e})",
            report.aggregate_pps,
            report.oracle_ratio * 100.0,
            report.oracle_pps,
        );
        println!(
            "  waits: mean {:.3e}s, p99 {:.3e}s, max {:.3e}s (bound {:.3e}s); {} preemption(s), {} migration(s)",
            report.mean_wait_secs,
            report.p99_wait_secs,
            report.max_wait_secs,
            report.wait_bound_secs,
            report.preemptions,
            report.migrations,
        );
        for t in &report.tenants {
            println!(
                "  {:>10} | w {:>4.1} | {}/{} done | {} preempt | max wait {:.3e}s | gap {:.3e}s",
                t.tenant, t.weight, t.completed, t.jobs, t.preemptions, t.max_wait_secs,
                t.max_service_gap_secs,
            );
        }
        if let Some(proof) = &report.proof {
            println!(
                "  preemption proof: {}/{} resumed over {} preemption(s), bitwise {}",
                proof.tenant,
                proof.name,
                proof.preemptions,
                if proof.bitwise_identical { "identical" } else { "DIVERGED" },
            );
        }
    }
    if let Err(gate) = report.healthy() {
        eprintln!("serving gate failed: {gate}");
        return Ok(false);
    }
    if require_preemption && report.preemptions == 0 {
        eprintln!("serving gate failed: no preemption exercised (--require-preemption)");
        return Ok(false);
    }
    if require_preemption && !report.proof.as_ref().is_some_and(|p| p.bitwise_identical) {
        eprintln!("serving gate failed: no bitwise preemption proof (--require-preemption)");
        return Ok(false);
    }
    Ok(true)
}

/// Runs schedule exploration + differential fuzzing (or replays one
/// token); `Ok(true)` means no divergence.
fn run_check_cmd(rest: &[String]) -> Result<bool, CliError> {
    let mut opts = dos_check::CheckOptions::default();
    let mut flags = Flags::new(rest);
    flags.set("--schedules", &mut opts.schedules)?;
    flags.set("--fuzz", &mut opts.fuzz)?;
    flags.set("--seed", &mut opts.seed)?;
    opts.scenario_filter = flags.value("--scenario")?;
    let json = flags.switch("--json");
    let replay: Option<String> = flags.value("--replay")?;
    let corpus: Option<String> = flags.value("--corpus")?;
    flags.none()?;

    // Fault scenarios intentionally panic the virtual device worker; the
    // pipeline contains and recovers from those.
    with_quiet_injected_panics(|| {
        if let Some(token) = replay {
            return match dos_check::replay_token(&token)? {
                Some(failure) => {
                    println!("token reproduces: {failure}");
                    Ok(false)
                }
                None => {
                    println!("schedule replayed clean (terminal state matches the oracle)");
                    Ok(true)
                }
            };
        }

        opts.corpus_dir = match corpus {
            Some(dir) if dir.is_empty() => None,
            Some(dir) => Some(dir.into()),
            // Default: the committed corpus, when running from the repo root.
            None => {
                let default = std::path::PathBuf::from("tests/corpus");
                default.is_dir().then_some(default)
            }
        };
        let report = dos_check::run_check(&opts)?;
        if json {
            println!("{}", report.render_json());
        } else {
            print!("{}", report.render_human());
        }
        Ok(report.passed)
    })
}

/// Races the adaptive controller against the static arm; `Ok(true)` means
/// the controller met its acceptance bar.
fn run_autotune_cmd(rest: &[String]) -> Result<bool, CliError> {
    let mut opts = AutotuneOptions::default();
    let mut flags = Flags::new(rest);
    flags.set_positive("--iterations", &mut opts.iterations)?;
    flags.set("--seed", &mut opts.seed)?;
    if let Some(spec) = flags.value::<String>("--faults")? {
        opts.faults = spec
            .split(',')
            .map(|s| dos_control::DegradationSpec::parse(s.trim()))
            .collect::<Result<Vec<_>, _>>()?;
    }
    opts.trace_out = flags.value("--trace-out")?;
    let json = flags.switch("--json");
    let config = load_config(flags.one("config path")?)?;
    let outcome = run_autotune(&config, &opts)?;
    if json {
        println!("{}", pretty(&outcome, "outcome")?);
    } else {
        print!("{}", outcome.report.render_table());
        println!(
            "{} control instants traced; verdict: {}",
            outcome.control_instants,
            if outcome.passed { "PASS" } else { "FAIL" },
        );
    }
    Ok(outcome.passed)
}

/// Measures Equation 1's CPU-side inputs on this machine; `Ok(true)`
/// unless the measurements are unusable.
fn run_calibrate(rest: &[String]) -> Result<bool, CliError> {
    let mut elements: usize = 1 << 22;
    let mut rounds: usize = 5;
    let mut ug: f64 = 25.0e9;
    let mut flags = Flags::new(rest);
    flags.set_positive("--elements", &mut elements)?;
    flags.set_positive("--rounds", &mut rounds)?;
    flags.set("--ug", &mut ug)?;
    let json = flags.switch("--json");
    flags.none()?;
    if !(ug.is_finite() && ug > 0.0) {
        return Err(CliError::Usage("--ug must be a positive rate".to_string()));
    }
    let report = dos_core::calibrate_with(elements, rounds);
    let model = report.perf_model(ug);
    let stride = model.optimal_stride();
    if json {
        #[derive(serde::Serialize)]
        struct SpreadOut {
            cpu_update: f64,
            cpu_downscale: f64,
            staging: f64,
        }
        #[derive(serde::Serialize)]
        struct CalibrateOut {
            elements: usize,
            rounds: usize,
            cpu_update_pps: f64,
            cpu_downscale_pps: f64,
            kernel_path: &'static str,
            staging_pps: f64,
            gpu_update_pps: f64,
            spread: SpreadOut,
            optimal_stride: Option<usize>,
        }
        let out = CalibrateOut {
            elements: report.elements,
            rounds: report.rounds,
            cpu_update_pps: report.cpu_update_pps,
            cpu_downscale_pps: report.cpu_downscale_pps,
            kernel_path: dos_tensor::kernels::dispatch_path(),
            staging_pps: report.staging_pps,
            gpu_update_pps: ug,
            spread: SpreadOut {
                cpu_update: report.spread.cpu_update,
                cpu_downscale: report.spread.cpu_downscale,
                staging: report.spread.staging,
            },
            optimal_stride: stride,
        };
        println!("{}", pretty(&out, "report")?);
    } else {
        println!(
            "calibrated over {} elements, median of {} rounds (spread = (max-min)/median):",
            report.elements, report.rounds,
        );
        println!(
            "  U_c (CPU Adam update) {:>10.3e} params/s  spread {:>5.1}%",
            report.cpu_update_pps,
            report.spread.cpu_update * 100.0,
        );
        println!(
            "  D_c (FP32->FP16)      {:>10.3e} params/s  spread {:>5.1}%",
            report.cpu_downscale_pps,
            report.spread.cpu_downscale * 100.0,
        );
        println!("      kernel path: {}", dos_tensor::kernels::dispatch_path());
        println!(
            "  B   (staging proxy)   {:>10.3e} params/s  spread {:>5.1}%",
            report.staging_pps,
            report.spread.staging * 100.0,
        );
        println!("  U_g (assumed)         {ug:>10.3e} params/s");
        match stride {
            Some(k) => println!("Equation 1 update stride: k = {k}"),
            None => println!(
                "Equation 1 update stride: none (this CPU is fast enough that interleaving never pays)"
            ),
        }
        if report.spread.max() > 0.25 {
            println!(
                "warning: round spread above 25% — the machine was noisy; rerun with more --rounds"
            );
        }
    }
    Ok(true)
}

/// Runs the seeded chaos campaign; `Ok(true)` means every invariant held.
fn run_chaos_cmd(rest: &[String]) -> Result<bool, CliError> {
    let mut opts = ChaosOptions::default();
    let mut flags = Flags::new(rest);
    flags.set("--seed", &mut opts.seed)?;
    if let Some(spec) = flags.value::<String>("--faults")? {
        opts.faults = FaultKind::parse_spec(&spec)?;
    }
    opts.trace_out = flags.value("--trace-out")?;
    opts.flight_out = flags.value("--flight-out")?;
    opts.transport_faults = flags.value("--transport-faults")?;
    let config = load_config(flags.one("config path")?)?;
    let report = run_chaos(&config, &opts).map_err(|e| e.to_string())?;
    print!("{}", report.render());
    Ok(report.passed())
}

/// Runs real training with the metrics endpoint live; `Ok(true)` means
/// every self-scrape served a valid payload.
fn run_monitor_cmd(rest: &[String]) -> Result<bool, CliError> {
    let mut opts = MonitorOptions::default();
    let mut flags = Flags::new(rest);
    flags.set("--listen", &mut opts.listen)?;
    flags.set_positive("--iterations", &mut opts.iterations)?;
    flags.set("--seed", &mut opts.seed)?;
    opts.prom_out = flags.value("--prom-out")?;
    opts.health_out = flags.value("--health-out")?;
    opts.flight_dir = flags.value("--flight-dir")?;
    let outcome = run_monitor(&read_file(flags.one("config path")?)?, &opts)?;
    eprintln!(
        "monitored {} iteration(s) on {}: {} degraded, {} health event(s); payload valid",
        outcome.iterations, outcome.addr, outcome.degraded_steps, outcome.health_events
    );
    Ok(true)
}

/// Runs the differential conformance matrix; `Ok(true)` means conformant.
fn run_conformance(rest: &[String]) -> Result<bool, CliError> {
    let mut flags = Flags::new(rest);
    let quick = flags.switch("--quick");
    let json = flags.switch("--json");
    let filter: Option<String> = flags.value("--filter")?;
    flags.none()?;
    let oracle = if quick { dos_oracle::Oracle::quick() } else { dos_oracle::Oracle::full() };
    let outcome = oracle.run_filtered(filter.as_deref());
    if let Some(f) = &filter {
        if outcome.report.cells_checked == 0 {
            return Err(format!("--filter `{f}` matched no conformance cells").into());
        }
    }
    if json {
        println!("{}", pretty(&outcome.report, "report")?);
    } else {
        print!("{}", outcome.report.render_table());
    }
    Ok(outcome.report.is_conformant())
}

/// Simulates one traced iteration and exports a Chrome trace-event JSON;
/// `Ok(true)` means the export (and, with `--analyze`, every analyzer
/// invariant) held.
fn run_trace(rest: &[String]) -> Result<bool, CliError> {
    let mut flags = Flags::new(rest);
    let out: String = flags.value("--out")?.unwrap_or_else(|| "trace.json".to_string());
    let analyze = flags.switch("--analyze");
    let config = load_config(flags.one("config path")?)?;
    let (report, tracer) = trace_iteration(&config).map_err(|e| e.to_string())?;

    let trace = dos_telemetry::chrome_trace(&tracer);
    let rendered = pretty(&trace, "trace")?;
    // The file is only useful if a consumer can read it back; verify the
    // round trip before writing.
    let back: dos_telemetry::ChromeTrace = serde_json::from_str(&rendered)
        .map_err(|e| format!("exported trace does not parse back: {e}"))?;
    if back != trace {
        return Err("exported trace does not round-trip losslessly".into());
    }
    write_file(&out, &rendered)?;
    println!(
        "{}: {} events on {} tracks, {:.3} simulated seconds -> {out}",
        report.scheduler,
        tracer.len(),
        tracer.tracks().len(),
        report.total_secs,
    );
    println!("open in https://ui.perfetto.dev or chrome://tracing");

    if analyze {
        let analysis = dos_telemetry::analyze_tracer(&tracer);
        println!();
        print!("{}", analysis.render());
        let violations = analysis.validate();
        if !violations.is_empty() {
            for v in &violations {
                eprintln!("analyzer invariant violated: {v}");
            }
            return Ok(false);
        }
    }
    Ok(true)
}

/// The default mode: simulates the config (and, with `--compare`, the
/// ZeRO-3 and TwinFlow baselines); `Ok(true)` once every line printed.
fn run_default(rest: &[String]) -> Result<bool, CliError> {
    let mut iterations = 1;
    let mut flags = Flags::new(rest);
    flags.set_positive("--iterations", &mut iterations)?;
    let compare = flags.switch("--compare");
    let explain = flags.switch("--explain");
    let config_path = flags.one("config path")?;
    let json = std::fs::read_to_string(config_path).map_err(|e| {
        let commands: Vec<&str> = COMMANDS[1..].iter().map(|c| c.0).collect();
        format!(
            "`{config_path}` is neither a command ({}) nor a readable file ({e})",
            commands.join(", ")
        )
    })?;
    let config = RuntimeConfig::from_json(&json).map_err(|e| e.to_string())?;

    if explain {
        let train = config.resolve().map_err(|e| e.to_string())?;
        println!("{}\n", dos_core::explain_schedule(&train));
    }

    let mut variants = vec![config.clone()];
    if compare {
        let mut baseline = config.clone();
        baseline.deep_optimizer_states.enabled = false;
        baseline.gpu_resident_ratio = 0.0;
        variants.push(baseline);
        let mut twin = config.clone();
        twin.deep_optimizer_states.enabled = false;
        twin.gpu_resident_ratio = config.gpu_resident_ratio.max(0.2);
        variants.push(twin);
    }

    let mut reference: Option<f64> = None;
    for cfg in &variants {
        if iterations == 1 {
            let r = run_iteration(cfg).map_err(|e| e.to_string())?;
            println!(
                "{:>22} | fwd {:7.3}s | bwd {:7.3}s | upd {:7.3}s | total {:7.3}s | {:5.1} TFLOP/s/GPU{}{}",
                r.scheduler,
                r.forward_secs,
                r.backward_secs,
                r.update_secs,
                r.total_secs,
                r.tflops_per_gpu,
                r.oom.as_deref().map(|_| " | GPU OOM").unwrap_or(""),
                r.host_oom.as_deref().map(|_| " | HOST OOM").unwrap_or(""),
            );
            note_speedup(&mut reference, r.total_secs);
        } else {
            let r = run_training(cfg, iterations).map_err(|e| e.to_string())?;
            println!(
                "{:>22} | {} iterations | total {:9.2}s | avg {:7.3}s/iter | stable: {}",
                r.scheduler,
                r.iterations,
                r.total_secs,
                r.avg_iteration_secs,
                r.is_stable(2, 0.05),
            );
            note_speedup(&mut reference, r.total_secs);
        }
    }
    Ok(true)
}

fn note_speedup(reference: &mut Option<f64>, total: f64) {
    match reference {
        None => *reference = Some(total),
        Some(first) => println!("{:>22}   ({:.2}x the first line's time)", "", total / *first),
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let named = COMMANDS[1..].iter().find(|c| Some(c.0) == raw.first().map(String::as_str));
    let (&(name, usage, run), rest) = match named {
        Some(command) => (command, &raw[1..]),
        None => (&COMMANDS[0], &raw[..]),
    };
    if wants_help(rest) {
        // `dos-cli --help` lists every command, `dos-cli <cmd> --help` one.
        for (_, line, _) in COMMANDS.iter().filter(|c| name.is_empty() || c.0 == name) {
            println!("{line}");
        }
        return ExitCode::SUCCESS;
    }
    exit_code(run(rest), usage, 1)
}
