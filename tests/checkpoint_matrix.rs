//! Kill/resume crash-recovery matrix for checkpointed training.
//!
//! The contract under test (see `m3_optim::checkpoint` and `m3_core::ckpt`):
//!
//! * Every durable step of a checkpoint publish can fail (fault injection
//!   via `m3_core::faults`) and the result is always a typed error, no
//!   `.tmp` staging litter, and no clobbered prior checkpoint.
//! * Training killed at arbitrary batch boundaries (a real `abort()` in a
//!   child process — no destructors) leaves an intact newest checkpoint,
//!   and **deterministic resume is bit-identical** to an uninterrupted run,
//!   across thread counts 1/2/4, in-memory and memory-mapped backings, and
//!   dense and CSR layouts.
//! * Corrupt, torn or truncated checkpoints are skipped with typed errors
//!   during the resume scan — never a panic — falling back to the newest
//!   older intact snapshot.
//! * Divergence aborts with `OptimError::Diverged` and never checkpoints a
//!   non-finite state.

use std::path::Path;

use m3::core::ckpt::{
    checkpoint_path, find_latest_intact, list_checkpoints, write_checkpoint, CheckpointFile,
    TrainProgress,
};
use m3::core::faults::{self, FaultKind, FaultOp, FaultPlan};
use m3::core::CoreError;
use m3::ml::MlError;
use m3::prelude::*;

const SEED: u64 = 0x5eed_c4c7;

/// Dense classification fixture (the `sgd_convergence` battery's).
fn dense_problem(n: usize) -> (DenseMatrix, Vec<f64>) {
    let generator = LinearProblem::classification(vec![1.5, -2.0, 0.5, 0.25, -1.0], 0.3, 0.05, 77);
    generator.materialize(n)
}

/// The dense fixture with ~2/3 of its entries zeroed, as CSR + dense twin.
fn sparse_problem(n: usize) -> (CsrMatrix, Vec<f64>) {
    let (x, y) = dense_problem(n);
    let mut data = x.as_slice().to_vec();
    for (i, v) in data.iter_mut().enumerate() {
        if (i * 2654435761) % 3 != 0 {
            *v = 0.0;
        }
    }
    let dense = DenseMatrix::from_vec(data, x.n_rows(), x.n_cols()).unwrap();
    (CsrMatrix::from_dense(&dense), y)
}

fn sgd_config(epochs: usize) -> AsyncSgd {
    AsyncSgd::new()
        .learning_rate(0.5)
        .batch_size(32)
        .epochs(epochs)
        .seed(SEED)
}

fn trainer_with(sgd: AsyncSgd) -> LogisticRegression {
    LogisticRegression::new(LogisticConfig {
        solver: Solver::Sgd(sgd),
        ..Default::default()
    })
}

fn ctx_with(threads: usize) -> ExecContext {
    ExecContext::new().with_threads(threads)
}

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: {x} vs {y}");
    }
}

fn assert_no_tmp_litter(dir: &Path) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let name = entry.unwrap().file_name();
        assert!(
            !name.to_string_lossy().ends_with(".tmp"),
            "staging litter left behind: {name:?}"
        );
    }
}

fn sample_progress() -> TrainProgress {
    TrainProgress {
        epoch: 1,
        next_batch: 2,
        n_examples: 64,
        seed: 7,
        batch_size: 8,
        epochs: 4,
        eval_every: 1,
        sampling: 1,
        mode: 0,
        learning_rate: 0.1,
        decay: 0.01,
        evaluations: 10,
        sequence: 0,
    }
}

/// Durable steps of one clean checkpoint publish, restricted to `op`.
fn count_publish_steps(op: Option<FaultOp>) -> u64 {
    let dir = tempfile::tempdir().unwrap();
    faults::arm(
        dir.path(),
        FaultPlan {
            trigger_at: None,
            kind: FaultKind::Fail,
            op,
        },
    );
    write_checkpoint(
        checkpoint_path(dir.path(), 0),
        &sample_progress(),
        &[1.0, -2.0, 3.5],
        &[0.9, 0.5],
    )
    .unwrap();
    let report = faults::disarm(dir.path());
    assert!(!report.triggered);
    report.matching_steps
}

/// Fail (or tear) one step of a checkpoint publish with an intact prior
/// checkpoint present, and assert the recovery invariants.
fn run_publish_fault(step: u64, kind: FaultKind, op: Option<FaultOp>) {
    let params = [1.0, -2.0, 3.5];
    let history = [0.9, 0.5];
    let dir = tempfile::tempdir().unwrap();
    let prior = checkpoint_path(dir.path(), 0);
    write_checkpoint(&prior, &sample_progress(), &params, &history).unwrap();

    faults::arm(
        dir.path(),
        FaultPlan {
            trigger_at: Some(step),
            kind,
            op,
        },
    );
    let next = checkpoint_path(dir.path(), 1);
    let result = write_checkpoint(&next, &sample_progress(), &params, &history);
    let report = faults::disarm(dir.path());
    assert!(report.triggered, "{kind:?}: step {step} never ran");

    let err = result.expect_err(&format!(
        "{kind:?}: publish survived a fault at step {step}"
    ));
    assert!(
        err.to_string().contains("injected fault"),
        "{kind:?}: step {step}: expected a typed injected-fault error, got: {err}"
    );
    assert!(
        !faults::tmp_sibling(&next).exists(),
        "{kind:?}: step {step}: staging file left behind"
    );
    // The prior checkpoint is untouched and fully verifies.
    CheckpointFile::open_verified(&prior)
        .unwrap_or_else(|e| panic!("{kind:?}: step {step}: prior checkpoint damaged: {e}"));
    // The new path is absent, or intact if the fault landed after the
    // atomic publish.
    if next.exists() {
        CheckpointFile::open_verified(&next)
            .unwrap_or_else(|e| panic!("{kind:?}: step {step}: half-published checkpoint: {e}"));
    }
    // The resume scan still finds an intact checkpoint — typed, no panic.
    let scan = find_latest_intact(dir.path()).unwrap();
    assert!(
        scan.newest.is_some(),
        "{kind:?}: step {step}: nothing to resume from"
    );
}

#[test]
fn every_failed_publish_step_leaves_prior_checkpoints_intact() {
    let steps = count_publish_steps(None);
    assert!(steps >= 5, "expected several durable steps, saw {steps}");
    for step in 0..steps {
        run_publish_fault(step, FaultKind::Fail, None);
    }
    let writes = count_publish_steps(Some(FaultOp::Write));
    assert!(writes >= 2, "expected buffered write steps, saw {writes}");
    for step in 0..writes {
        run_publish_fault(step, FaultKind::ShortWrite, Some(FaultOp::Write));
    }
}

#[test]
fn fault_log_names_every_durable_step_of_a_publish() {
    let dir = tempfile::tempdir().unwrap();
    let path = checkpoint_path(dir.path(), 0);
    faults::arm(dir.path(), FaultPlan::count_only());
    write_checkpoint(&path, &sample_progress(), &[1.0, 2.0], &[]).unwrap();
    let report = faults::disarm(dir.path());
    let ops: Vec<FaultOp> = report.log.iter().map(|s| s.op).collect();
    for needed in [
        FaultOp::Write,
        FaultOp::Flush,
        FaultOp::SyncFile,
        FaultOp::Rename,
        FaultOp::SyncDir,
    ] {
        assert!(
            ops.contains(&needed),
            "checkpoint publish never performed {needed:?}; log: {ops:?}"
        );
    }
    // Every step acted on the staging file or its directory — the final
    // path only ever appears as a rename target.
    let tmp = faults::tmp_sibling(&path);
    for step in &report.log {
        assert!(
            step.path == tmp || step.path == dir.path(),
            "step {:?} acted on unexpected path {}",
            step.op,
            step.path.display()
        );
    }
}

#[test]
fn training_surfaces_checkpoint_faults_as_typed_errors() {
    let (x, y) = dense_problem(200);
    let ctx = ExecContext::serial();
    let dir = tempfile::tempdir().unwrap();
    let cfg = CheckpointConfig::new(dir.path()).every_batches(2).retain(4);

    // Let the first publish succeed, then fail a durable step of the second.
    let steps = count_publish_steps(None);
    faults::arm(
        dir.path(),
        FaultPlan {
            trigger_at: Some(steps + 2),
            kind: FaultKind::Fail,
            op: None,
        },
    );
    let result = Estimator::fit(
        &trainer_with(sgd_config(6).checkpoint(cfg.clone())),
        &x,
        &y,
        &ctx,
    );
    let report = faults::disarm(dir.path());
    assert!(report.triggered);
    let err = result.expect_err("fit must fail when a checkpoint write fails");
    assert!(
        matches!(err, MlError::Optim(OptimError::Checkpoint(_))),
        "expected a typed checkpoint error, got: {err}"
    );
    assert_no_tmp_litter(dir.path());
    // The first publish survived intact; resuming from it finishes the run
    // to the exact bits of an uninterrupted one.
    assert_eq!(list_checkpoints(dir.path()).unwrap().len(), 1);
    let reference = Estimator::fit(&trainer_with(sgd_config(6)), &x, &y, &ctx).unwrap();
    let resumed = Estimator::fit(
        &trainer_with(sgd_config(6).checkpoint(cfg).resume(true)),
        &x,
        &y,
        &ctx,
    )
    .unwrap();
    assert_bits_eq(&reference.weights, &resumed.weights, "resume after fault");
    assert_eq!(reference.bias.to_bits(), resumed.bias.to_bits());
}

fn kill_cfg(dir: &Path) -> CheckpointConfig {
    CheckpointConfig::new(dir).every_batches(2).retain(3)
}

/// Child half of the kill matrix: trains with checkpointing while
/// `M3_CKPT_KILL_AFTER` aborts the process at the configured publish.  The
/// trailing `exit(3)` keeps the parent from mistaking a completed run for a
/// kill.  A no-op outside the child environment.
#[test]
fn kill_resume_child_worker() {
    let Some(dir) = std::env::var_os("M3_CKPT_CHILD_DIR") else {
        return;
    };
    let (x, y) = dense_problem(240);
    let ctx = ExecContext::serial();
    let trainer = trainer_with(sgd_config(6).checkpoint(kill_cfg(Path::new(&dir))));
    let _ = Estimator::fit(&trainer, &x, &y, &ctx);
    std::process::exit(3);
}

#[test]
fn killed_training_resumes_bit_identically() {
    if std::env::var_os("M3_CKPT_CHILD_DIR").is_some() {
        return; // only the worker test runs in the child
    }
    let (x, y) = dense_problem(240);
    let ctx = ExecContext::serial();
    let reference = Estimator::fit(&trainer_with(sgd_config(6)), &x, &y, &ctx).unwrap();

    // Pseudo-random kill points over the run's 24 publishes (batch cadence
    // of 2 over 6 epochs × 8 batches), reproducible across runs.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let kill_points: Vec<u64> = (0..4)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            1 + (state >> 33) % 20
        })
        .collect();

    let exe = std::env::current_exe().expect("test binary path");
    for kill_after in kill_points {
        let dir = tempfile::tempdir().unwrap();
        let output = std::process::Command::new(&exe)
            .args(["kill_resume_child_worker", "--exact", "--test-threads", "1"])
            .env("M3_CKPT_CHILD_DIR", dir.path())
            .env("M3_CKPT_KILL_AFTER", kill_after.to_string())
            .output()
            .expect("failed to re-exec the kill worker");
        assert!(
            !output.status.success(),
            "child survived kill_after={kill_after}"
        );

        // The abort leaves no staging litter, and the newest checkpoint is
        // intact (publishes complete before the kill fires).
        assert_no_tmp_litter(dir.path());
        let scan = find_latest_intact(dir.path()).unwrap();
        let newest = scan
            .newest
            .as_ref()
            .unwrap_or_else(|| panic!("no intact checkpoint after kill_after={kill_after}"));
        assert!(scan.skipped.is_empty());
        // The kill fired mid-run: the surviving snapshot predates the end.
        assert!(newest.progress().epoch < 6);

        let resumed = Estimator::fit(
            &trainer_with(sgd_config(6).checkpoint(kill_cfg(dir.path())).resume(true)),
            &x,
            &y,
            &ctx,
        )
        .unwrap();
        assert_bits_eq(
            &reference.weights,
            &resumed.weights,
            &format!("kill_after={kill_after}"),
        );
        assert_eq!(reference.bias.to_bits(), resumed.bias.to_bits());
    }
}

/// Run one fit with checkpointing, then a second fit resuming from the
/// newest surviving snapshot, and return both models.
fn checkpoint_then_resume(
    fit: impl Fn(&LogisticRegression) -> LogisticModel,
) -> (LogisticModel, LogisticModel) {
    let dir = tempfile::tempdir().unwrap();
    // 80 total batches and a cadence of 3: the newest surviving checkpoint
    // sits mid-epoch, so the resume genuinely replays a tail.
    let cfg = CheckpointConfig::new(dir.path()).every_batches(3).retain(2);
    let full = fit(&trainer_with(sgd_config(8).checkpoint(cfg.clone())));
    let resumed = fit(&trainer_with(sgd_config(8).checkpoint(cfg).resume(true)));
    (full, resumed)
}

#[test]
fn deterministic_resume_matrix_threads_backings_layouts() {
    let (x, y) = dense_problem(300);
    let (csr, ys) = sparse_problem(300);
    let dir = tempfile::tempdir().unwrap();
    let mapped = m3::core::alloc::persist_matrix(dir.path().join("sgd.m3"), &x).unwrap();
    let mapped_csr =
        m3::core::sparse::persist_csr(dir.path().join("sgd.m3csr"), &csr, None).unwrap();

    let plain = trainer_with(sgd_config(8));
    let dense_ref = Estimator::fit(&plain, &x, &y, &ctx_with(1)).unwrap();
    let sparse_ref = plain.fit_sparse(&csr, &ys, &ctx_with(1)).unwrap();

    for threads in [1usize, 2, 4] {
        let ctx = ctx_with(threads);
        let combos: [(&str, &LogisticModel, (LogisticModel, LogisticModel)); 4] = [
            (
                "dense mem",
                &dense_ref,
                checkpoint_then_resume(|t| Estimator::fit(t, &x, &y, &ctx).unwrap()),
            ),
            (
                "dense mmap",
                &dense_ref,
                checkpoint_then_resume(|t| Estimator::fit(t, &mapped, &y, &ctx).unwrap()),
            ),
            (
                "csr mem",
                &sparse_ref,
                checkpoint_then_resume(|t| t.fit_sparse(&csr, &ys, &ctx).unwrap()),
            ),
            (
                "csr mmap",
                &sparse_ref,
                checkpoint_then_resume(|t| t.fit_sparse(&mapped_csr, &ys, &ctx).unwrap()),
            ),
        ];
        for (label, reference, (full, resumed)) in combos {
            for (run, model) in [("checkpointed", &full), ("resumed", &resumed)] {
                assert_bits_eq(
                    &reference.weights,
                    &model.weights,
                    &format!("{label} {run} @ {threads} threads"),
                );
                assert_eq!(
                    reference.bias.to_bits(),
                    model.bias.to_bits(),
                    "{label} {run}"
                );
            }
        }
    }
    assert!(dense_ref.accuracy(&x, &y) > 0.9);
}

#[test]
fn corrupt_newest_checkpoints_fall_back_to_an_older_intact_one() {
    let (x, y) = dense_problem(200);
    let ctx = ExecContext::serial();
    let reference = Estimator::fit(&trainer_with(sgd_config(5)), &x, &y, &ctx).unwrap();

    let dir = tempfile::tempdir().unwrap();
    let cfg = CheckpointConfig::new(dir.path()).every_batches(4).retain(3);
    Estimator::fit(
        &trainer_with(sgd_config(5).checkpoint(cfg.clone())),
        &x,
        &y,
        &ctx,
    )
    .unwrap();

    // Corrupt the newest checkpoint's payload and truncate the second-newest.
    let files = list_checkpoints(dir.path()).unwrap();
    assert_eq!(files.len(), 3, "retention must keep exactly 3");
    let (_, newest) = files.last().unwrap();
    let mut bytes = std::fs::read(newest).unwrap();
    bytes[4096 + 9] ^= 0x01;
    std::fs::write(newest, &bytes).unwrap();
    let (_, second) = &files[files.len() - 2];
    let bytes = std::fs::read(second).unwrap();
    std::fs::write(second, &bytes[..bytes.len() - 7]).unwrap();

    // The scan skips both with typed errors and lands on the oldest.
    let scan = find_latest_intact(dir.path()).unwrap();
    assert_eq!(scan.skipped.len(), 2);
    assert!(
        matches!(scan.skipped[0].1, CoreError::ChecksumMismatch { .. }),
        "corrupt payload must fail its checksum: {}",
        scan.skipped[0].1
    );
    assert!(
        matches!(scan.skipped[1].1, CoreError::SizeMismatch { .. }),
        "truncated file must fail the size check: {}",
        scan.skipped[1].1
    );
    assert_eq!(scan.newest.as_ref().unwrap().sequence(), files[0].0);

    // Resume replays from the older snapshot to the exact reference bits.
    let resumed = Estimator::fit(
        &trainer_with(sgd_config(5).checkpoint(cfg).resume(true)),
        &x,
        &y,
        &ctx,
    )
    .unwrap();
    assert_bits_eq(
        &reference.weights,
        &resumed.weights,
        "resume past corrupt checkpoints",
    );
    assert_eq!(reference.bias.to_bits(), resumed.bias.to_bits());
}

#[test]
fn divergence_never_checkpoints_a_non_finite_state() {
    let (x, y) = dense_problem(200);
    let ctx = ExecContext::serial();
    let dir = tempfile::tempdir().unwrap();
    let cfg = CheckpointConfig::new(dir.path())
        .every_batches(1)
        .retain(64);
    let trainer = trainer_with(sgd_config(5).learning_rate(1e12).checkpoint(cfg));
    let err = Estimator::fit(&trainer, &x, &y, &ctx).expect_err("lr = 1e12 must diverge");
    assert!(
        matches!(err, MlError::Optim(OptimError::Diverged { .. })),
        "expected a typed divergence error, got: {err}"
    );
    // Whatever was checkpointed before the divergence is finite and intact.
    for (_, path) in list_checkpoints(dir.path()).unwrap() {
        let f = CheckpointFile::open_verified(&path).unwrap();
        assert!(f.params().iter().all(|v| v.is_finite()));
        assert!(f.history().iter().all(|v| v.is_finite()));
    }
    assert_no_tmp_litter(dir.path());
}

#[test]
fn hogwild_checkpoints_at_epoch_boundaries_and_resumes() {
    let (x, y) = dense_problem(300);
    let ctx = ctx_with(4);
    let dir = tempfile::tempdir().unwrap();
    let cfg = CheckpointConfig::new(dir.path()).every_epochs(2).retain(2);
    let sgd = sgd_config(8).decay(0.05).mode(UpdateMode::Hogwild);
    let trained = Estimator::fit(
        &trainer_with(sgd.clone().checkpoint(cfg.clone())),
        &x,
        &y,
        &ctx,
    )
    .unwrap();
    assert!(trained.accuracy(&x, &y) > 0.85);

    // Epoch-boundary snapshots only, and exactly `retain` survivors.
    let files = list_checkpoints(dir.path()).unwrap();
    assert_eq!(files.len(), 2);
    for (_, path) in &files {
        let f = CheckpointFile::open_verified(path).unwrap();
        assert_eq!(f.progress().next_batch, 0, "Hogwild snapshots mid-epoch");
    }

    // The newest snapshot is the finished run: resuming reconstructs the
    // exact trained model without re-running a single batch.
    let resumed = Estimator::fit(
        &trainer_with(sgd.checkpoint(cfg).resume(true)),
        &x,
        &y,
        &ctx,
    )
    .unwrap();
    assert_bits_eq(
        &trained.weights,
        &resumed.weights,
        "hogwild reconstruction from the final snapshot",
    );
    assert_eq!(trained.bias.to_bits(), resumed.bias.to_bits());
}

#[test]
fn write_behind_checkpointing_matches_synchronous_results() {
    let (x, y) = dense_problem(200);
    let ctx = ExecContext::serial();
    let reference = Estimator::fit(&trainer_with(sgd_config(6)), &x, &y, &ctx).unwrap();

    let dir = tempfile::tempdir().unwrap();
    let cfg = CheckpointConfig::new(dir.path())
        .every_batches(2)
        .retain(2)
        .write_behind(true);
    let trained = Estimator::fit(
        &trainer_with(sgd_config(6).checkpoint(cfg.clone())),
        &x,
        &y,
        &ctx,
    )
    .unwrap();
    assert_bits_eq(
        &reference.weights,
        &trained.weights,
        "write-behind must not change the math",
    );

    // The queue drained at finish: an intact checkpoint is on disk and
    // resuming from it reaches the reference bits.
    assert!(find_latest_intact(dir.path()).unwrap().newest.is_some());
    let resumed = Estimator::fit(
        &trainer_with(sgd_config(6).checkpoint(cfg).resume(true)),
        &x,
        &y,
        &ctx,
    )
    .unwrap();
    assert_bits_eq(
        &reference.weights,
        &resumed.weights,
        "resume from a write-behind checkpoint",
    );
}

#[test]
fn deterministic_resume_matrix_passes_under_forced_scalar_kernels() {
    // The kernel path is cached per process: re-exec the deterministic
    // tests with M3_FORCE_SCALAR=1 (this test short-circuits in the child).
    if m3::linalg::dispatch::force_scalar_requested() {
        assert_eq!(
            m3::linalg::dispatch::active(),
            m3::linalg::KernelPath::Scalar,
            "M3_FORCE_SCALAR=1 must pin the scalar kernel path"
        );
        return;
    }
    let exe = std::env::current_exe().expect("test binary path");
    let output = std::process::Command::new(exe)
        .args(["deterministic", "--test-threads", "1"])
        .env("M3_FORCE_SCALAR", "1")
        .output()
        .expect("failed to re-exec the checkpoint battery");
    assert!(
        output.status.success(),
        "checkpoint battery failed under M3_FORCE_SCALAR=1:\n--- stdout ---\n{}\n--- stderr ---\n{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr),
    );
}
