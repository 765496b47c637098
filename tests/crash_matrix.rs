//! Crash matrix: kill persistence at **every** durable I/O step and assert
//! the on-disk state is always either the intact previous artifact or no
//! artifact at all — never a half-visible file, and never a panic.
//!
//! The fault layer (`m3_core::faults`) counts the steps of one successful
//! build, then the matrix re-runs the build once per step with that step
//! failing.  Every failure must surface as a typed [`CoreError`] (wrapped
//! in the crate-appropriate error type), the `.tmp` staging file must be
//! gone, and whatever sits at the artifact path must still pass a full
//! checksum verification.
//!
//! Each test arms its fault plans scoped to its own temporary directory,
//! so the tests run concurrently without seeing each other's faults.

use std::path::{Path, PathBuf};

use m3::core::builder::DatasetBuilder;
use m3::core::faults::{self, FaultKind, FaultOp, FaultPlan};
use m3::core::{CoreError, CsrFile, CsrFileBuilder, Dataset, ModelFile};
use m3::ml::LinearModel;
use m3::serve::ModelRegistry;

/// One artifact family under test: how to build version `v` of it at
/// `path`, and how to reopen + checksum-verify whatever is on disk.
struct Family {
    name: &'static str,
    build: fn(&Path, u64) -> Result<(), String>,
    verify: fn(&Path) -> Result<(), String>,
}

fn build_dataset(path: &Path, version: u64) -> Result<(), String> {
    let mut b = DatasetBuilder::create(path, 3).map_err(|e| e.to_string())?;
    for r in 0..4u64 {
        let x = (version * 10 + r) as f64;
        b.push_row(&[x, x + 0.5, x + 0.25], Some(r as f64))
            .map_err(|e| e.to_string())?;
    }
    b.finish().map_err(|e| e.to_string()).map(|_| ())
}

fn verify_dataset(path: &Path) -> Result<(), String> {
    Dataset::open_verified(path)
        .map_err(|e| e.to_string())
        .map(|_| ())
}

fn build_csr(path: &Path, version: u64) -> Result<(), String> {
    let mut b = CsrFileBuilder::create(path, 3, 5, 4, true).map_err(|e| e.to_string())?;
    let v = version as f64;
    b.push_row(&[0, 3], &[v, v + 1.0], 1.0)
        .map_err(|e| e.to_string())?;
    b.push_row(&[2], &[v - 0.5], 0.0)
        .map_err(|e| e.to_string())?;
    b.push_row(&[4], &[2.0 * v], 1.0)
        .map_err(|e| e.to_string())?;
    b.finish().map_err(|e| e.to_string()).map(|_| ())
}

fn verify_csr(path: &Path) -> Result<(), String> {
    CsrFile::open_verified(path)
        .map_err(|e| e.to_string())
        .map(|_| ())
}

fn build_model(path: &Path, version: u64) -> Result<(), String> {
    let model = LinearModel {
        weights: vec![version as f64; 6].into(),
        bias: -(version as f64),
    };
    model.save(path).map_err(|e| e.to_string()).map(|_| ())
}

fn verify_model(path: &Path) -> Result<(), String> {
    ModelFile::open_verified(path)
        .map_err(|e| e.to_string())
        .map(|_| ())
}

fn build_graph(path: &Path, version: u64) -> Result<(), String> {
    let mut b = m3::core::GraphFileBuilder::create(path, 4, 5).map_err(|e| e.to_string())?;
    // Version-dependent adjacency so old and new images differ.
    let t = (version % 2) as u32;
    for row in [vec![1, 3], vec![], vec![t, 3], vec![2]] {
        b.push_node(&row).map_err(|e| e.to_string())?;
    }
    b.finish().map_err(|e| e.to_string()).map(|_| ())
}

fn verify_graph(path: &Path) -> Result<(), String> {
    m3::core::GraphFile::open_verified(path)
        .map_err(|e| e.to_string())
        .map(|_| ())
}

const FAMILIES: [Family; 4] = [
    Family {
        name: "dataset",
        build: build_dataset,
        verify: verify_dataset,
    },
    Family {
        name: "csr",
        build: build_csr,
        verify: verify_csr,
    },
    Family {
        name: "model",
        build: build_model,
        verify: verify_model,
    },
    Family {
        name: "graph",
        build: build_graph,
        verify: verify_graph,
    },
];

/// Steps of one successful build, restricted to `op` (None = all).
fn count_steps(family: &Family, op: Option<FaultOp>) -> u64 {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().join("count.bin");
    faults::arm(
        dir.path(),
        FaultPlan {
            trigger_at: None,
            kind: FaultKind::Fail,
            op,
        },
    );
    let built = (family.build)(&path, 1);
    let report = faults::disarm(dir.path());
    built.unwrap_or_else(|e| panic!("{}: counting build failed: {e}", family.name));
    assert!(!report.triggered);
    report.matching_steps
}

/// After an interrupted rebuild of `path`, the disk must hold either the
/// intact old artifact, the intact new one (the fault hit after the atomic
/// publish), or nothing — and no `.tmp` litter.
fn assert_consistent(
    family: &Family,
    path: &Path,
    old_bytes: &[u8],
    new_bytes: &[u8],
    context: &str,
) {
    let tmp = faults::tmp_sibling(path);
    assert!(
        !tmp.exists(),
        "{}: {context}: staging file {} left behind",
        family.name,
        tmp.display()
    );
    if !path.exists() {
        return;
    }
    let on_disk = std::fs::read(path).unwrap();
    assert!(
        on_disk == old_bytes || on_disk == new_bytes,
        "{}: {context}: artifact is neither the old nor the new version",
        family.name
    );
    (family.verify)(path).unwrap_or_else(|e| {
        panic!(
            "{}: {context}: surviving artifact fails verification: {e}",
            family.name
        )
    });
}

/// Byte image of version `v` of `family`, built cleanly.  Builds are
/// deterministic, so this is the exact image an uninterrupted rebuild would
/// publish.
fn clean_image(family: &Family, version: u64) -> Vec<u8> {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().join("image.bin");
    (family.build)(&path, version).unwrap();
    std::fs::read(&path).unwrap()
}

/// The full matrix for one family and one fault kind: fail (or short-write)
/// each step of a rebuild over an existing artifact, then each step of a
/// fresh build with no previous artifact.
fn run_matrix(family: &Family, kind: FaultKind, op: Option<FaultOp>) {
    let steps = count_steps(family, op);
    assert!(
        steps >= 3,
        "{}: expected several fault-injectable steps, saw {steps}",
        family.name
    );
    let old_bytes = clean_image(family, 1);
    let new_bytes = clean_image(family, 2);

    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().join("artifact.bin");

    for step in 0..steps {
        // Rebuild over an existing good artifact.
        std::fs::write(&path, &old_bytes).unwrap();
        faults::arm(
            dir.path(),
            FaultPlan {
                trigger_at: Some(step),
                kind,
                op,
            },
        );
        let result = (family.build)(&path, 2);
        let report = faults::disarm(dir.path());
        assert!(report.triggered, "{}: step {step} never ran", family.name);
        let err = result.expect_err(&format!(
            "{}: build survived an injected fault at step {step}",
            family.name
        ));
        assert!(
            err.contains("injected fault"),
            "{}: step {step}: expected a typed injected-fault error, got: {err}",
            family.name
        );
        assert_consistent(
            family,
            &path,
            &old_bytes,
            &new_bytes,
            &format!("rebuild, fault at step {step}"),
        );

        // Fresh build with no previous artifact: the path must stay absent
        // unless the fault landed after the publish.
        let fresh = dir.path().join(format!("fresh-{step}.bin"));
        faults::arm(
            dir.path(),
            FaultPlan {
                trigger_at: Some(step),
                kind,
                op,
            },
        );
        let result = (family.build)(&fresh, 2);
        faults::disarm(dir.path());
        assert!(result.is_err());
        assert_consistent(
            family,
            &fresh,
            &[],
            &new_bytes,
            &format!("fresh build, fault at step {step}"),
        );
    }

    // A clean rebuild right after the matrix must succeed and verify: the
    // failed runs leaked no global state.
    (family.build)(&path, 3).unwrap();
    (family.verify)(&path).unwrap();
}

#[test]
fn every_failed_step_leaves_an_intact_or_absent_artifact() {
    for family in &FAMILIES {
        run_matrix(family, FaultKind::Fail, None);
    }
}

#[test]
fn torn_writes_never_publish_a_corrupt_artifact() {
    for family in &FAMILIES {
        // Only buffered/direct writes can tear; mapped builders (csr,
        // model) may have no Write steps after creation — skip those.
        let writes = {
            let dir = tempfile::tempdir().unwrap();
            let path = dir.path().join("w.bin");
            faults::arm(
                dir.path(),
                FaultPlan {
                    trigger_at: None,
                    kind: FaultKind::Fail,
                    op: Some(FaultOp::Write),
                },
            );
            let built = (family.build)(&path, 1);
            let report = faults::disarm(dir.path());
            built.unwrap();
            report.matching_steps
        };
        if writes > 0 {
            run_matrix(family, FaultKind::ShortWrite, Some(FaultOp::Write));
        }
    }
}

#[test]
fn reopening_after_every_fault_yields_typed_errors_never_panics() {
    // Interrupt a dataset build at its very first step, then throw every
    // reader at the leftovers: all must return typed errors.
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().join("never-built.m3ds");
    faults::arm(dir.path(), FaultPlan::fail_at(0, None));
    assert!(build_dataset(&path, 1).is_err());
    faults::disarm(dir.path());
    assert!(!path.exists());
    assert!(matches!(
        Dataset::open(&path),
        Err(CoreError::Io { .. } | CoreError::BadHeader { .. })
    ));
    assert!(CsrFile::open(&path).is_err());
    assert!(ModelFile::open(&path).is_err());
    assert!(m3::core::GraphFile::open(&path).is_err());
}

#[test]
fn truncated_or_corrupt_graph_files_are_refused() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().join("adjacency.m3g");
    build_graph(&path, 1).unwrap();
    let bytes = std::fs::read(&path).unwrap();

    // Chop the indices section short: open must report the size mismatch.
    std::fs::write(&path, &bytes[..bytes.len() - 512]).unwrap();
    let err = m3::core::GraphFile::open(&path);
    if std::env::var_os("M3_VERIFY").is_some_and(|v| v != "0") {
        assert!(err.is_err(), "M3_VERIFY open accepted a truncated graph");
    } else {
        assert!(
            matches!(err, Err(CoreError::SizeMismatch { .. })),
            "expected a size mismatch, got: {err:?}"
        );
    }

    // Flip one neighbor id: the header still parses, so only the checksum
    // sweep can refuse the file.
    let mut flipped = bytes.clone();
    let indices_offset = {
        let graph = {
            std::fs::write(&path, &bytes).unwrap();
            m3::core::GraphFile::open(&path).unwrap()
        };
        graph.header().indices_offset as usize
    };
    flipped[indices_offset + 2] ^= 0x11;
    std::fs::write(&path, &flipped).unwrap();
    let err = m3::core::GraphFile::open_verified(&path).unwrap_err();
    assert!(
        matches!(err, CoreError::ChecksumMismatch { ref section, .. } if section == "indices"),
        "expected an indices checksum mismatch, got: {err}"
    );
}

/// A spill write of the R-MAT generator fails on one of four workers in
/// the middle of its sampling pass: the generator returns a typed I/O
/// error (no panic, no hang), the other workers stop claiming work, the
/// previous artifact at the path survives untouched (or none appears), and
/// no spill file is left behind.
#[test]
fn rmat_spill_fault_mid_sampling_stops_every_worker() {
    use m3::core::ExecContext;
    use m3::data::{generate_rmat_ctx, DataError, RmatConfig};

    // Thirty-one sample blocks and a budget that lets buckets buffer
    // 64 KiB each: the sampling pass alone makes ~500 spill writes from
    // all four workers (~810 for the whole run).  After the fault each
    // worker finishes at most its current block, about 20 writes, so a
    // failed run makes ~70; workers that kept claiming would make ~500.
    let cfg = RmatConfig::new(12, 2_000_000)
        .with_seed(3)
        .with_mem_budget(16 << 20);
    let ctx = ExecContext::new().with_threads(4);
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().join("rmat.m3g");
    let spill = dir.path().join("rmat.m3g.spill");

    faults::arm(
        dir.path(),
        FaultPlan::fail_at(u64::MAX, Some(FaultOp::Write)),
    );
    generate_rmat_ctx(&path, &cfg, &ctx).unwrap();
    let clean = faults::disarm(dir.path());
    let old_bytes = std::fs::read(&path).unwrap();

    for fresh in [false, true] {
        if fresh {
            std::fs::remove_file(&path).unwrap();
        }
        faults::arm(dir.path(), FaultPlan::fail_at(20, Some(FaultOp::Write)));
        let err = generate_rmat_ctx(&path, &cfg, &ctx).unwrap_err();
        let failed = faults::disarm(dir.path());
        assert!(failed.triggered);
        assert!(
            matches!(&err, DataError::Io(e) if e.to_string().contains("injected fault")),
            "expected a typed injected I/O error, got: {err}"
        );
        // The builder was never created: no staging step ran.
        let tmp = faults::tmp_sibling(&path);
        assert!(
            failed.log.iter().all(|step| step.path == spill),
            "{:?}",
            failed.log
        );
        assert!(
            failed.matching_steps < clean.matching_steps / 4,
            "workers kept spilling after the fault: {} of {} steps",
            failed.matching_steps,
            clean.matching_steps
        );
        assert!(!spill.exists(), "spill file left behind");
        assert!(!tmp.exists(), "staging file left behind");
        if fresh {
            assert!(!path.exists(), "a failed generation published a graph");
        } else {
            assert_eq!(std::fs::read(&path).unwrap(), old_bytes);
        }
    }
}

#[test]
fn corrupted_sections_are_caught_before_the_registry_publishes() {
    let dir = tempfile::tempdir().unwrap();
    let good = dir.path().join("good.m3m");
    let corrupt = dir.path().join("corrupt.m3m");
    build_model(&good, 1).unwrap();
    build_model(&corrupt, 2).unwrap();

    // Flip one payload byte past the header page; the header still parses,
    // so only the checksum pass can catch this.
    let mut bytes = std::fs::read(&corrupt).unwrap();
    let payload = 4096 + 17;
    bytes[payload] ^= 0x40;
    std::fs::write(&corrupt, &bytes).unwrap();

    // The corruption is in the payload, invisible to header validation: a
    // plain open succeeds — unless M3_VERIFY is set process-wide (as the
    // CI fault-injection job does), which folds the checksum pass into
    // every open.
    let plain = ModelFile::open(&corrupt);
    if std::env::var_os("M3_VERIFY").is_some_and(|v| v != "0") {
        assert!(plain.is_err(), "M3_VERIFY open accepted a corrupt payload");
    } else {
        plain.unwrap();
    }
    let err = ModelFile::open_verified(&corrupt).unwrap_err();
    assert!(
        matches!(err, CoreError::ChecksumMismatch { ref section, .. } if section == "payload"),
        "expected a payload checksum mismatch, got: {err}"
    );

    // The serving registry always verifies: the corrupt artifact is
    // rejected before any reader can observe it, the last good model keeps
    // serving, and health degrades until a good swap lands.
    let registry = ModelRegistry::open(&good).unwrap();
    assert_eq!(registry.version(), 1);
    let swap_err = registry.swap_from(&corrupt).unwrap_err();
    assert!(swap_err.to_string().contains("checksum mismatch"));
    assert_eq!(registry.version(), 1, "failed swap must not publish");
    assert_eq!(registry.current().source, good);
    let health = registry.health();
    assert!(health.degraded());
    assert!(health
        .last_swap_error
        .unwrap()
        .contains("checksum mismatch"));

    // A later good swap clears the degradation.
    registry.swap_from(&good).unwrap();
    assert!(!registry.health().degraded());
    assert_eq!(registry.version(), 2);
}

#[test]
fn delay_faults_slow_but_do_not_break_persistence() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().join("slow.m3ds");
    faults::arm(
        dir.path(),
        FaultPlan {
            trigger_at: Some(0),
            kind: FaultKind::Delay(std::time::Duration::from_millis(5)),
            op: None,
        },
    );
    build_dataset(&path, 1).unwrap();
    let report = faults::disarm(dir.path());
    assert!(report.triggered);
    verify_dataset(&path).unwrap();
}

#[test]
fn fault_log_names_every_durable_step_of_a_model_save() {
    let dir = tempfile::tempdir().unwrap();
    let path: PathBuf = dir.path().join("logged.m3m");
    faults::arm(dir.path(), FaultPlan::count_only());
    build_model(&path, 1).unwrap();
    let report = faults::disarm(dir.path());
    let ops: Vec<FaultOp> = report.log.iter().map(|s| s.op).collect();
    // A mapped-builder save: pre-size, msync, fsync, publish, durable dir.
    for needed in [
        FaultOp::SetLen,
        FaultOp::FlushMap,
        FaultOp::SyncFile,
        FaultOp::Rename,
        FaultOp::SyncDir,
    ] {
        assert!(
            ops.contains(&needed),
            "model save never performed {needed:?}; log: {ops:?}"
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
