//! Crash-consistent functional checkpointing of model + optimizer state.
//!
//! One motivation the paper gives for host-offloaded optimizer state (§2)
//! is cheap checkpointing: the large FP32 tensors already live in host
//! memory, so they can be flushed to persistent storage asynchronously
//! without blocking the GPUs (the DataStates-LLM line of work). This module
//! provides that for the functional engine, hardened against the failure
//! modes a real run sees:
//!
//! * **Atomic writes** — [`TrainingCheckpoint::save`] writes to a temp file
//!   in the target directory, fsyncs, and atomically renames over the
//!   destination (then fsyncs the directory), so a crash mid-write never
//!   leaves a half-written file under the checkpoint's name.
//! * **Self-validating format** — a versioned header with an embedded
//!   FNV-1a checksum and payload length, so truncation and bit flips are
//!   detected as typed [`CheckpointError`]s instead of being restored as
//!   garbage.
//! * **Retention + fallback** — a [`CheckpointStore`] keeps the last N
//!   checkpoints and [`CheckpointStore::latest_valid`] falls back to the
//!   newest one that still validates.
//! * **Async flush** — [`AsyncCheckpointer`] writes on a background thread
//!   while training continues, with at most one write in flight.

use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use dos_core::sync::JoinHandle;

use serde::{Deserialize, Serialize};

use dos_nn::VisitParams;
use dos_optim::MixedPrecisionState;

/// Magic prefix of the on-disk format; the digit after it is the version.
const MAGIC: &str = "DOSCKPT";
/// Current format version.
const VERSION: u32 = 1;

/// Everything that can go wrong persisting or restoring a checkpoint.
#[derive(Debug)]
#[non_exhaustive]
pub enum CheckpointError {
    /// An underlying filesystem operation failed.
    Io(io::Error),
    /// The file does not start with the `DOSCKPT<version>` magic — it is
    /// not a checkpoint (or its header was destroyed).
    BadMagic {
        /// What the first line actually contained (lossily decoded).
        found: String,
    },
    /// The file is a checkpoint of a format version this build cannot read.
    UnsupportedVersion {
        /// The version the file declares.
        found: u32,
    },
    /// The payload is shorter than the header promised (a torn write or a
    /// truncated copy).
    Truncated {
        /// Payload bytes the header declared.
        expected: usize,
        /// Payload bytes actually present.
        got: usize,
    },
    /// The payload's checksum does not match the header's (bit rot or
    /// in-place corruption).
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum computed over the payload.
        got: u64,
    },
    /// The file's structure is invalid in some other way (bad header
    /// field, trailing bytes, undecodable payload).
    Corrupt {
        /// What exactly failed to parse.
        detail: String,
    },
    /// The snapshot does not fit the model it is being restored into.
    ShapeMismatch {
        /// Parameter count the model expects.
        expected: usize,
        /// Parameter count the snapshot holds.
        got: usize,
    },
    /// No checkpoint in the store's directory survived validation.
    NoValidCheckpoint {
        /// The directory that was searched.
        dir: PathBuf,
        /// How many candidate files were found and rejected.
        rejected: usize,
    },
    /// The background writer thread panicked.
    WriterPanicked,
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::BadMagic { found } => {
                write!(f, "not a checkpoint file: expected `{MAGIC}{VERSION}` header, found `{found}`")
            }
            CheckpointError::UnsupportedVersion { found } => {
                write!(f, "unsupported checkpoint format version {found} (this build reads {VERSION})")
            }
            CheckpointError::Truncated { expected, got } => {
                write!(f, "truncated checkpoint: header declares {expected} payload bytes, found {got}")
            }
            CheckpointError::ChecksumMismatch { expected, got } => {
                write!(f, "checkpoint checksum mismatch: header {expected:#018x}, payload {got:#018x}")
            }
            CheckpointError::Corrupt { detail } => write!(f, "corrupt checkpoint: {detail}"),
            CheckpointError::ShapeMismatch { expected, got } => {
                write!(f, "checkpoint shape mismatch: model has {expected} params, snapshot has {got}")
            }
            CheckpointError::NoValidCheckpoint { dir, rejected } => {
                write!(
                    f,
                    "no valid checkpoint in {} ({rejected} candidate(s) rejected)",
                    dir.display()
                )
            }
            CheckpointError::WriterPanicked => write!(f, "background checkpoint writer panicked"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// FNV-1a, 64-bit: tiny, dependency-free, and plenty to catch torn writes
/// and bit flips (this is corruption *detection*, not authentication).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A consistent snapshot of training state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainingCheckpoint {
    /// The model's (device) parameters at capture time.
    pub params: Vec<f32>,
    /// The FP32 optimizer state (master params, momentum, variance, step).
    pub optimizer: MixedPrecisionState,
    /// Iterations completed when captured.
    pub iteration: usize,
}

impl TrainingCheckpoint {
    /// Captures a snapshot from a model and its optimizer state.
    ///
    /// The copy is taken eagerly (host memory is cheap relative to the GPU
    /// tier it stands in for), so training may mutate both immediately
    /// after this returns.
    pub fn capture(
        model: &mut impl VisitParams,
        optimizer: &MixedPrecisionState,
        iteration: usize,
    ) -> TrainingCheckpoint {
        TrainingCheckpoint {
            params: model.gather_params(),
            optimizer: optimizer.clone(),
            iteration,
        }
    }

    /// Restores the snapshot into a model; returns the optimizer state to
    /// resume with.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::ShapeMismatch`] if the model's parameter
    /// count differs from the snapshot's (the model is left untouched).
    pub fn restore(
        &self,
        model: &mut impl VisitParams,
    ) -> Result<MixedPrecisionState, CheckpointError> {
        let expected = model.num_params();
        if expected != self.params.len() {
            return Err(CheckpointError::ShapeMismatch { expected, got: self.params.len() });
        }
        model.scatter_params(&self.params);
        model.zero_grads();
        Ok(self.optimizer.clone())
    }

    /// Serializes the snapshot into the self-validating on-disk format:
    ///
    /// ```text
    /// DOSCKPT1\n<fnv1a-64 hex>\n<payload length>\n<JSON payload>
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Corrupt`] if serialization itself fails
    /// (it should not for well-formed state).
    pub fn to_bytes(&self) -> Result<Vec<u8>, CheckpointError> {
        let payload = serde_json::to_vec(self)
            .map_err(|e| CheckpointError::Corrupt { detail: format!("serialize: {e}") })?;
        let mut out = format!(
            "{MAGIC}{VERSION}\n{:016x}\n{}\n",
            fnv1a64(&payload),
            payload.len()
        )
        .into_bytes();
        out.extend_from_slice(&payload);
        Ok(out)
    }

    /// Parses and validates the on-disk format produced by
    /// [`TrainingCheckpoint::to_bytes`].
    ///
    /// # Errors
    ///
    /// Any deviation — wrong magic, unknown version, short payload,
    /// checksum mismatch, trailing bytes, undecodable JSON, optimizer
    /// moments whose lengths differ from the parameters' — returns the
    /// corresponding typed [`CheckpointError`]; corrupted input is never
    /// silently restored.
    pub fn from_bytes(bytes: &[u8]) -> Result<TrainingCheckpoint, CheckpointError> {
        let mut rest = bytes;
        let mut next_line = |what: &str| -> Result<&str, CheckpointError> {
            let nl = rest.iter().position(|&b| b == b'\n').ok_or_else(|| {
                CheckpointError::Corrupt { detail: format!("missing {what} line") }
            })?;
            let (line, tail) = rest.split_at(nl);
            rest = &tail[1..];
            std::str::from_utf8(line)
                .map_err(|_| CheckpointError::Corrupt { detail: format!("non-UTF-8 {what} line") })
        };

        let magic = match next_line("magic") {
            Ok(m) => m.to_string(),
            // A file too short to even hold the header reads as not-a-checkpoint.
            Err(_) => {
                return Err(CheckpointError::BadMagic {
                    found: String::from_utf8_lossy(&bytes[..bytes.len().min(16)]).into_owned(),
                })
            }
        };
        match magic.strip_prefix(MAGIC) {
            Some(ver) => match ver.parse::<u32>() {
                Ok(v) if v == VERSION => {}
                Ok(v) => return Err(CheckpointError::UnsupportedVersion { found: v }),
                Err(_) => return Err(CheckpointError::BadMagic { found: magic }),
            },
            None => return Err(CheckpointError::BadMagic { found: magic }),
        }

        let checksum_line = next_line("checksum")?.to_string();
        let expected_sum = u64::from_str_radix(&checksum_line, 16).map_err(|_| {
            CheckpointError::Corrupt { detail: format!("bad checksum field `{checksum_line}`") }
        })?;
        let len_line = next_line("payload-length")?.to_string();
        let expected_len: usize = len_line.parse().map_err(|_| CheckpointError::Corrupt {
            detail: format!("bad payload-length field `{len_line}`"),
        })?;

        if rest.len() < expected_len {
            return Err(CheckpointError::Truncated { expected: expected_len, got: rest.len() });
        }
        if rest.len() > expected_len {
            return Err(CheckpointError::Corrupt {
                detail: format!("{} trailing bytes after payload", rest.len() - expected_len),
            });
        }
        let got_sum = fnv1a64(rest);
        if got_sum != expected_sum {
            return Err(CheckpointError::ChecksumMismatch { expected: expected_sum, got: got_sum });
        }
        let ckpt: TrainingCheckpoint = serde_json::from_slice(rest)
            .map_err(|e| CheckpointError::Corrupt { detail: format!("payload decode: {e}") })?;
        // The decoder fills the optimizer's three vectors independently; a
        // state whose moments do not match its parameters is not one any
        // constructor builds, and the update step relies on that.
        let opt = &ckpt.optimizer;
        let (p, m, v) = (opt.params().len(), opt.momentum().len(), opt.variance().len());
        if m != p || v != p {
            return Err(CheckpointError::Corrupt {
                detail: format!("optimizer state lengths differ: p {p}, m {m}, v {v}"),
            });
        }
        Ok(ckpt)
    }

    /// Writes the snapshot to `path` crash-consistently: serialize, write
    /// to a temp file in the same directory, fsync it, atomically rename
    /// over `path`, then fsync the directory. A crash at any point leaves
    /// either the old file or the new one — never a torn mix.
    ///
    /// # Errors
    ///
    /// Returns I/O or serialization errors; on error the destination is
    /// untouched (a stale temp file may remain).
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let bytes = self.to_bytes()?;
        let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        if let Err(e) = fs::rename(&tmp, path) {
            let _ = fs::remove_file(&tmp);
            return Err(e.into());
        }
        if let Some(dir) = dir {
            // Persist the rename itself. Opening a directory read-only for
            // fsync is POSIX-specific; where unsupported, skip silently.
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }

    /// Reads and validates a snapshot from `path`.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] if the file cannot be read, or any
    /// of the validation errors of [`TrainingCheckpoint::from_bytes`].
    pub fn load(path: &Path) -> Result<TrainingCheckpoint, CheckpointError> {
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        TrainingCheckpoint::from_bytes(&bytes)
    }
}

/// A retention directory of checkpoints: `ckpt-<iteration>.dos` files, the
/// newest `keep` retained, with fallback to the newest *valid* one when
/// recovering from a crash that corrupted or truncated the latest.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    keep: usize,
    tracer: Option<dos_telemetry::Tracer>,
}

impl CheckpointStore {
    /// Opens (creating if needed) a store rooted at `dir`, retaining the
    /// newest `keep` checkpoints (`keep` is clamped to at least 1).
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>, keep: usize) -> Result<CheckpointStore, CheckpointError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(CheckpointStore { dir, keep: keep.max(1), tracer: None })
    }

    /// Attaches a tracer so recovery incidents are recorded: a fallback
    /// past rejected checkpoint files emits a `fault:checkpoint:fallback`
    /// instant (which also triggers the tracer's flight-recorder dump).
    #[must_use]
    pub fn with_tracer(mut self, tracer: dos_telemetry::Tracer) -> CheckpointStore {
        self.tracer = Some(tracer);
        self
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The on-disk path a given iteration's checkpoint gets.
    pub fn path_for(&self, iteration: usize) -> PathBuf {
        self.dir.join(format!("ckpt-{iteration:08}.dos"))
    }

    /// Checkpoint files currently in the store, oldest first.
    pub fn list(&self) -> Vec<PathBuf> {
        let mut files: Vec<PathBuf> = fs::read_dir(&self.dir)
            .into_iter()
            .flatten()
            .flatten()
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("ckpt-") && n.ends_with(".dos"))
            })
            .collect();
        files.sort();
        files
    }

    /// Saves `checkpoint` under its iteration's name (atomically), then
    /// prunes checkpoints beyond the retention limit, oldest first.
    ///
    /// # Errors
    ///
    /// Returns the save error, if any; pruning failures are ignored (a
    /// leftover old checkpoint is harmless).
    pub fn save(&self, checkpoint: &TrainingCheckpoint) -> Result<PathBuf, CheckpointError> {
        let path = self.path_for(checkpoint.iteration);
        checkpoint.save(&path)?;
        let files = self.list();
        if files.len() > self.keep {
            for old in &files[..files.len() - self.keep] {
                let _ = fs::remove_file(old);
            }
        }
        Ok(path)
    }

    /// Loads the newest checkpoint that validates, skipping (and counting)
    /// any that are truncated, corrupt, or unreadable — the crash-recovery
    /// entry point.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::NoValidCheckpoint`] when every candidate
    /// fails validation (or none exist).
    pub fn latest_valid(&self) -> Result<(TrainingCheckpoint, PathBuf), CheckpointError> {
        let mut rejected = 0;
        for path in self.list().into_iter().rev() {
            match TrainingCheckpoint::load(&path) {
                Ok(ckpt) => {
                    if rejected > 0 {
                        // Recovered, but not from the newest file: that is
                        // an incident worth a flight-recorder dump.
                        if let Some(t) = &self.tracer {
                            t.instant_at("faults", "fault:checkpoint:fallback", "fault", t.now());
                        }
                    }
                    return Ok((ckpt, path));
                }
                Err(_) => rejected += 1,
            }
        }
        Err(CheckpointError::NoValidCheckpoint { dir: self.dir.clone(), rejected })
    }
}

/// Writes checkpoints on a background thread so training continues
/// unblocked; at most one write is in flight (a new request waits for the
/// previous one, bounding staging memory like the paper's pinned windows).
#[derive(Debug, Default)]
pub struct AsyncCheckpointer {
    in_flight: Option<(PathBuf, JoinHandle<Result<(), CheckpointError>>)>,
}

impl AsyncCheckpointer {
    /// Creates an idle checkpointer.
    pub fn new() -> AsyncCheckpointer {
        AsyncCheckpointer::default()
    }

    /// Starts writing `checkpoint` to `path` in the background, first
    /// draining any previous in-flight write.
    ///
    /// # Errors
    ///
    /// Returns the error of the *previous* write if it failed.
    pub fn save_async(
        &mut self,
        checkpoint: TrainingCheckpoint,
        path: impl Into<PathBuf>,
    ) -> Result<(), CheckpointError> {
        self.drain()?;
        let path = path.into();
        let thread_path = path.clone();
        let handle = dos_core::sync::spawn(move || checkpoint.save(&thread_path));
        self.in_flight = Some((path, handle));
        Ok(())
    }

    /// Starts writing `checkpoint` into `store` in the background
    /// (retention pruning included), first draining any previous write.
    ///
    /// # Errors
    ///
    /// Returns the error of the *previous* write if it failed.
    pub fn save_async_in(
        &mut self,
        checkpoint: TrainingCheckpoint,
        store: &CheckpointStore,
    ) -> Result<(), CheckpointError> {
        self.drain()?;
        let path = store.path_for(checkpoint.iteration);
        let store = store.clone();
        let handle = dos_core::sync::spawn(move || store.save(&checkpoint).map(|_| ()));
        self.in_flight = Some((path, handle));
        Ok(())
    }

    /// Whether a write is currently in flight (without blocking).
    pub fn is_writing(&self) -> bool {
        self.in_flight.as_ref().is_some_and(|(_, h)| !h.is_finished())
    }

    /// Blocks until any in-flight write completes.
    ///
    /// # Errors
    ///
    /// Returns the write's error, if any; a panicked writer thread surfaces
    /// as [`CheckpointError::WriterPanicked`].
    pub fn drain(&mut self) -> Result<(), CheckpointError> {
        if let Some((_, handle)) = self.in_flight.take() {
            handle.join().map_err(|_| CheckpointError::WriterPanicked)??;
        }
        Ok(())
    }
}

impl Drop for AsyncCheckpointer {
    fn drop(&mut self) {
        // Destructors must not fail: ignore errors, finish the write.
        let _ = self.drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dos_nn::{Gpt, GptConfig};
    use dos_optim::UpdateRule;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Gpt, MixedPrecisionState) {
        let mut rng = StdRng::seed_from_u64(11);
        let model = Gpt::new(GptConfig::tiny(), &mut rng);
        let state =
            MixedPrecisionState::new(model.gather_params(), UpdateRule::adam(), 1e-2);
        (model, state)
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("dos-ckpt-test-{name}-{}.dos", std::process::id()))
    }

    #[test]
    fn save_load_round_trip() {
        let (mut model, mut state) = setup();
        state.full_step(&vec![0.01; state.len()]);
        let ckpt = TrainingCheckpoint::capture(&mut model, &state, 7);
        let path = tmp("roundtrip");
        ckpt.save(&path).unwrap();
        let loaded = TrainingCheckpoint::load(&path).unwrap();
        assert_eq!(loaded, ckpt);
        assert_eq!(loaded.iteration, 7);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_is_human_inspectable_and_versioned() {
        let (mut model, state) = setup();
        let bytes = TrainingCheckpoint::capture(&mut model, &state, 1).to_bytes().unwrap();
        assert!(bytes.starts_with(b"DOSCKPT1\n"));
        let round = TrainingCheckpoint::from_bytes(&bytes).unwrap();
        assert_eq!(round.iteration, 1);
    }

    #[test]
    fn truncation_is_a_typed_error() {
        let (mut model, state) = setup();
        let ckpt = TrainingCheckpoint::capture(&mut model, &state, 3);
        let bytes = ckpt.to_bytes().unwrap();
        // Cut mid-payload: header intact, payload short.
        let cut = &bytes[..bytes.len() - 100];
        match TrainingCheckpoint::from_bytes(cut) {
            Err(CheckpointError::Truncated { expected, got }) => {
                assert_eq!(expected, got + 100);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
        // Empty and header-only files are typed errors too.
        assert!(TrainingCheckpoint::from_bytes(&[]).is_err());
        assert!(TrainingCheckpoint::from_bytes(b"DOSCKPT1\n").is_err());
    }

    #[test]
    fn bit_flips_are_caught_by_the_checksum() {
        let (mut model, state) = setup();
        let ckpt = TrainingCheckpoint::capture(&mut model, &state, 3);
        let mut bytes = ckpt.to_bytes().unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        match TrainingCheckpoint::from_bytes(&bytes) {
            Err(CheckpointError::ChecksumMismatch { expected, got }) => {
                assert_ne!(expected, got);
            }
            // A flip that breaks JSON before the checksum check can't
            // happen (checksum runs first), but a flip landing in the
            // header is a different typed error — also acceptable.
            Err(_) => {}
            Ok(_) => panic!("corrupted checkpoint restored silently"),
        }
    }

    #[test]
    fn mismatched_optimizer_lengths_are_corrupt() {
        let state = MixedPrecisionState::new(vec![1.0, 2.0], UpdateRule::adam(), 0.5);
        let ckpt = TrainingCheckpoint { params: vec![1.0, 2.0], optimizer: state, iteration: 0 };
        let json = String::from_utf8(serde_json::to_vec(&ckpt).unwrap()).unwrap();
        // A hand-built file whose checksum is right but whose `v` is short.
        let short_v = json.replacen("\"v\":[0.0,0.0]", "\"v\":[0.0]", 1);
        assert_ne!(short_v, json, "payload layout changed: {json}");
        let sum = fnv1a64(short_v.as_bytes());
        let mut file = format!("DOSCKPT1\n{sum:016x}\n{}\n", short_v.len()).into_bytes();
        file.extend_from_slice(short_v.as_bytes());
        match TrainingCheckpoint::from_bytes(&file) {
            Err(CheckpointError::Corrupt { detail }) => {
                assert!(detail.contains("lengths differ"), "{detail}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn wrong_version_and_magic_are_rejected() {
        let err = TrainingCheckpoint::from_bytes(b"DOSCKPT9\n0\n0\n").unwrap_err();
        assert!(matches!(err, CheckpointError::UnsupportedVersion { found: 9 }));
        let err = TrainingCheckpoint::from_bytes(b"{\"json\": true}\n").unwrap_err();
        assert!(matches!(err, CheckpointError::BadMagic { .. }));
    }

    #[test]
    fn restore_rejects_mismatched_models() {
        let (mut model, state) = setup();
        let mut ckpt = TrainingCheckpoint::capture(&mut model, &state, 1);
        ckpt.params.pop();
        match ckpt.restore(&mut model) {
            Err(CheckpointError::ShapeMismatch { expected, got }) => {
                assert_eq!(expected, got + 1);
            }
            other => panic!("expected ShapeMismatch, got {other:?}"),
        }
    }

    #[test]
    fn resume_matches_uninterrupted_training() {
        let (mut model_a, mut state_a) = setup();
        let (mut model_b, mut state_b) = setup();
        let tokens = [1usize, 2, 3, 4];
        let targets = [2usize, 3, 4, 5];

        let train_step = |m: &mut Gpt, s: &mut MixedPrecisionState| {
            m.loss_and_backward(&tokens, &targets, 1, 4);
            let grads = m.gather_grads();
            s.full_step(&grads);
            m.scatter_params(s.params());
            m.zero_grads();
        };

        // A: 4 uninterrupted steps.
        for _ in 0..4 {
            train_step(&mut model_a, &mut state_a);
        }
        // B: 2 steps, checkpoint to disk, restore into fresh objects, 2 more.
        for _ in 0..2 {
            train_step(&mut model_b, &mut state_b);
        }
        let path = tmp("resume");
        TrainingCheckpoint::capture(&mut model_b, &state_b, 2).save(&path).unwrap();
        let (mut model_c, _) = setup();
        let loaded = TrainingCheckpoint::load(&path).unwrap();
        let mut state_c = loaded.restore(&mut model_c).unwrap();
        for _ in 0..2 {
            train_step(&mut model_c, &mut state_c);
        }
        assert_eq!(model_a.gather_params(), model_c.gather_params());
        assert_eq!(state_a.params(), state_c.params());
        assert_eq!(state_a.step_count(), state_c.step_count());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn store_retains_and_falls_back_to_newest_valid() {
        let dir = std::env::temp_dir()
            .join(format!("dos-ckpt-store-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir, 2).unwrap();
        let (mut model, mut state) = setup();
        for it in 1..=4 {
            state.full_step(&vec![0.001 * it as f32; state.len()]);
            store.save(&TrainingCheckpoint::capture(&mut model, &state, it)).unwrap();
        }
        // Retention: only the newest 2 remain.
        let files = store.list();
        assert_eq!(files.len(), 2);
        assert_eq!(files[0], store.path_for(3));
        assert_eq!(files[1], store.path_for(4));

        // Undamaged: the newest wins.
        let (ckpt, path) = store.latest_valid().unwrap();
        assert_eq!(ckpt.iteration, 4);
        assert_eq!(path, store.path_for(4));

        // Truncate the newest (a crash mid-copy): fall back to iteration 3.
        let bytes = std::fs::read(store.path_for(4)).unwrap();
        std::fs::write(store.path_for(4), &bytes[..bytes.len() / 2]).unwrap();
        let (ckpt, path) = store.latest_valid().unwrap();
        assert_eq!(ckpt.iteration, 3);
        assert_eq!(path, store.path_for(3));

        // Destroy both: typed failure with the rejection count.
        std::fs::write(store.path_for(3), b"garbage").unwrap();
        match store.latest_valid() {
            Err(CheckpointError::NoValidCheckpoint { rejected, .. }) => assert_eq!(rejected, 2),
            other => panic!("expected NoValidCheckpoint, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fallback_recovery_emits_a_fault_instant_and_flight_dump() {
        let dir = std::env::temp_dir()
            .join(format!("dos-ckpt-fallback-trace-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let tracer = dos_telemetry::Tracer::with_flight(64);
        let store = CheckpointStore::open(&dir, 2).unwrap().with_tracer(tracer.clone());
        let (mut model, mut state) = setup();
        for it in 1..=2 {
            state.full_step(&vec![0.001 * it as f32; state.len()]);
            store.save(&TrainingCheckpoint::capture(&mut model, &state, it)).unwrap();
        }
        // A clean recovery stays quiet.
        store.latest_valid().unwrap();
        assert!(tracer.events().iter().all(|e| e.name != "fault:checkpoint:fallback"));

        // Truncate the newest: recovery falls back and records the incident.
        let bytes = std::fs::read(store.path_for(2)).unwrap();
        std::fs::write(store.path_for(2), &bytes[..bytes.len() / 2]).unwrap();
        let (ckpt, _) = store.latest_valid().unwrap();
        assert_eq!(ckpt.iteration, 1);
        assert!(tracer.events().iter().any(|e| e.name == "fault:checkpoint:fallback"));
        let dump = tracer.flight().unwrap().last_dump().expect("fault: triggers auto dump");
        assert_eq!(dump.reason, "fault:checkpoint:fallback");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_save_leaves_no_temp_files() {
        let dir = std::env::temp_dir()
            .join(format!("dos-ckpt-atomic-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir, 3).unwrap();
        let (mut model, state) = setup();
        store.save(&TrainingCheckpoint::capture(&mut model, &state, 1)).unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains("tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp files left behind: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn async_writer_overlaps_and_drains() {
        let (mut model, state) = setup();
        let ckpt = TrainingCheckpoint::capture(&mut model, &state, 0);
        let path = tmp("async");
        let mut writer = AsyncCheckpointer::new();
        writer.save_async(ckpt.clone(), &path).unwrap();
        // Training can proceed here while the write is in flight.
        writer.drain().unwrap();
        assert!(!writer.is_writing());
        assert_eq!(TrainingCheckpoint::load(&path).unwrap(), ckpt);
        // Back-to-back saves drain the previous write first.
        writer.save_async(ckpt.clone(), &path).unwrap();
        writer.save_async(ckpt.clone(), &path).unwrap();
        writer.drain().unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn async_writer_reports_errors_on_drain() {
        let (mut model, state) = setup();
        let ckpt = TrainingCheckpoint::capture(&mut model, &state, 0);
        let mut writer = AsyncCheckpointer::new();
        writer.save_async(ckpt, "/nonexistent-dir/ckpt.dos").unwrap();
        assert!(writer.drain().is_err());
    }
}
