//! Randomised property tests over the core invariants of the workspace:
//! storage round-trips, in-memory/mmap equivalence, optimiser and clustering
//! invariants, and the paging-simulator cache bounds.
//!
//! Originally written with `proptest`; this build environment is offline, so
//! the cases are now driven by seeded loops over the vendored `rand` — the
//! invariants checked are unchanged.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use m3::prelude::*;

const CASES: u64 = 24;

/// Writing any matrix to a file and mapping it back yields identical bytes,
/// and every row view matches the source row.
#[test]
fn mmap_round_trip_preserves_every_row() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let rows = rng.gen_range(1usize..40);
        let cols = rng.gen_range(1usize..24);
        let seed: u32 = rng.gen_range(0u32..u32::MAX);
        let data: Vec<f64> = (0..rows * cols)
            .map(|i| ((i as u64 + seed as u64) % 1000) as f64 * 0.25 - 100.0)
            .collect();
        let matrix = DenseMatrix::from_vec(data, rows, cols).unwrap();
        let dir = tempfile::tempdir().unwrap();
        let mapped = m3::core::alloc::persist_matrix(dir.path().join("p.m3"), &matrix).unwrap();
        assert_eq!(mapped.shape(), matrix.shape());
        assert_eq!(mapped.as_slice(), matrix.as_slice());
        for r in 0..rows {
            assert_eq!(RowStore::row(&mapped, r), matrix.row(r));
        }
    }
}

/// The dataset container preserves features and labels exactly.
#[test]
fn dataset_container_round_trip() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(1000 + case);
        let rows = rng.gen_range(1usize..30);
        let cols = rng.gen_range(1usize..16);
        let label_scale = rng.gen_range(0usize..10);
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("c.m3ds");
        let mut builder = m3::core::builder::DatasetBuilder::create(&path, cols).unwrap();
        let mut expected_rows = Vec::new();
        let mut expected_labels = Vec::new();
        for r in 0..rows {
            let row: Vec<f64> = (0..cols).map(|c| (r * cols + c) as f64 * 0.5).collect();
            let label = (r % (label_scale + 1)) as f64;
            builder.push_row(&row, Some(label)).unwrap();
            expected_rows.push(row);
            expected_labels.push(label);
        }
        builder.finish().unwrap();
        let dataset = Dataset::open(&path).unwrap();
        assert_eq!(dataset.n_rows(), rows);
        assert_eq!(dataset.labels().unwrap(), &expected_labels[..]);
        for (r, expected) in expected_rows.iter().enumerate() {
            assert_eq!(RowStore::row(&dataset, r), &expected[..]);
        }
    }
}

/// A seeded random sparse matrix with adversarial structure: empty rows,
/// rows ending early, and (optionally) trailing all-zero columns that only
/// an explicit `n_features` can represent.
fn random_csr(rng: &mut StdRng, rows: usize, cols: usize) -> CsrMatrix {
    let mut builder = CsrBuilder::new(cols);
    let mut idx = Vec::new();
    let mut val = Vec::new();
    for _ in 0..rows {
        idx.clear();
        val.clear();
        if rng.gen_range(0u32..5) != 0 {
            for c in 0..cols {
                if rng.gen_range(0.0f64..1.0) < 0.35 {
                    idx.push(c as u32);
                    // Values that stress text round-tripping.
                    val.push(rng.gen_range(-4.0f64..4.0) / 3.0);
                }
            }
        }
        builder.push_row(&idx, &val).unwrap();
    }
    builder.finish()
}

/// Random sparse matrix → libsvm text → CSR → densify equals the original,
/// bit for bit, including empty rows and strictly-increasing duplicate-free
/// index ordering.
#[test]
fn libsvm_csr_round_trip_preserves_every_entry() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(7000 + case);
        let rows = rng.gen_range(1usize..30);
        let cols = rng.gen_range(1usize..20);
        let matrix = random_csr(&mut rng, rows, cols);
        let labels: Vec<f64> = (0..rows).map(|r| (r % 3) as f64).collect();

        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("rt.svm");
        m3::data::write_libsvm_csr(&path, &matrix, &labels).unwrap();
        let (back, back_labels) = m3::data::read_libsvm_csr(&path, Some(cols)).unwrap();
        assert_eq!(back, matrix, "case {case}");
        assert_eq!(back_labels, labels);
        assert_eq!(
            back.to_dense().as_slice(),
            matrix.to_dense().as_slice(),
            "densified twin must match bit for bit"
        );
        // Index ordering is strictly increasing (duplicate-free) per row.
        for r in 0..back.n_rows() {
            let (idx, _) = back.row(r);
            assert!(idx.windows(2).all(|p| p[0] < p[1]));
        }

        // The dense writer round-trips through the dense reader too.
        let dense = matrix.to_dense();
        m3::data::write_libsvm(&path, &dense, &labels).unwrap();
        let parsed = m3::data::read_libsvm(&path, Some(cols)).unwrap();
        assert_eq!(parsed.features.as_slice(), dense.as_slice());
    }
}

/// Trailing all-zero columns survive a round trip only through an explicit
/// `n_features`, and inference recovers exactly the largest used column.
#[test]
fn libsvm_round_trip_with_trailing_zero_columns() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(7500 + case);
        let rows = rng.gen_range(1usize..20);
        let used_cols = rng.gen_range(1usize..10);
        let padding = rng.gen_range(1usize..6);
        let mut matrix = random_csr(&mut rng, rows, used_cols);
        // Guarantee at least one entry in the last used column so inference
        // has a definite answer.
        if !matrix
            .indices()
            .iter()
            .any(|&c| c as usize == used_cols - 1)
        {
            let mut b = CsrBuilder::new(used_cols);
            b.push_row(&[(used_cols - 1) as u32], &[1.5]).unwrap();
            for r in 0..matrix.n_rows() {
                let (i, v) = matrix.row(r);
                b.push_row(i, v).unwrap();
            }
            matrix = b.finish();
        }
        let total_cols = used_cols + padding;
        let labels = vec![1.0; matrix.n_rows()];

        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("pad.svm");
        m3::data::write_libsvm_csr(&path, &matrix, &labels).unwrap();

        // Explicit n_features widens the matrix with all-zero columns.
        let (wide, _) = m3::data::read_libsvm_csr(&path, Some(total_cols)).unwrap();
        assert_eq!(wide.shape(), (matrix.n_rows(), total_cols));
        assert_eq!(wide.nnz(), matrix.nnz());
        assert_eq!(wide.indices(), matrix.indices());
        assert_eq!(wide.values(), matrix.values());
        // Inference recovers the largest used column.
        let (inferred, _) = m3::data::read_libsvm_csr(&path, None).unwrap();
        assert_eq!(inferred.n_cols(), used_cols);
    }
}

/// The streaming libsvm→binary-CSR converter produces exactly the arrays the
/// in-memory parser does, for any input.
#[test]
fn libsvm_binary_conversion_matches_in_memory_parse() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(8000 + case);
        let rows = rng.gen_range(1usize..25);
        let cols = rng.gen_range(1usize..16);
        let matrix = random_csr(&mut rng, rows, cols);
        let labels: Vec<f64> = (0..rows).map(|r| f64::from(r % 2 == 0)).collect();

        let dir = tempfile::tempdir().unwrap();
        let text = dir.path().join("conv.svm");
        let binary = dir.path().join("conv.m3csr");
        m3::data::write_libsvm_csr(&text, &matrix, &labels).unwrap();
        let file = m3::data::convert_libsvm_to_csr(&text, &binary, Some(cols)).unwrap();
        assert_eq!(file.shape(), matrix.shape());
        assert_eq!(file.indptr(), matrix.indptr());
        assert_eq!(file.indices(), matrix.indices());
        assert_eq!(file.values(), matrix.values());
        assert_eq!(file.labels().unwrap(), &labels[..]);
        assert_eq!(file.to_csr_matrix().unwrap(), matrix);
    }
}

/// The logistic loss gradient always matches central differences.
#[test]
fn logistic_gradient_matches_numerical_everywhere() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(2000 + case);
        let seed: u64 = rng.gen_range(0u64..1000);
        let l2 = rng.gen_range(0.0f64..0.5);
        let (x, y) = LinearProblem::random_classification(4, 0.1, seed).materialize(40);
        let ctx = ExecContext::serial();
        let loss = m3::ml::logistic::LogisticLoss::new(&x, &y, l2, &ctx);
        let w: Vec<f64> = (0..5)
            .map(|i| ((seed >> i) % 7) as f64 * 0.1 - 0.3)
            .collect();
        let err = m3::optim::function::gradient_check(&loss, &w, 1e-5);
        assert!(err < 1e-5, "gradient error {err}");
    }
}

/// k-means inertia never increases from one Lloyd iteration to the next.
#[test]
fn kmeans_inertia_is_monotone() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(3000 + case);
        let seed: u64 = rng.gen_range(0u64..u64::MAX / 2);
        let k = rng.gen_range(2usize..5);
        let (x, _) = GaussianBlobs::new(k, 4, 15.0, 1.0, seed % 512).materialize(80);
        let trainer = KMeans::new(KMeansConfig {
            k,
            max_iterations: 12,
            tolerance: 0.0,
            seed: seed.wrapping_add(1),
            ..Default::default()
        });
        let model = UnsupervisedEstimator::fit(&trainer, &x, &ExecContext::new()).unwrap();
        let mut previous = f64::INFINITY;
        for &inertia in &model.inertia_history {
            assert!(inertia <= previous + 1e-9);
            previous = inertia;
        }
    }
}

/// L-BFGS never increases a convex quadratic objective between iterations
/// and ends close to its optimum.
#[test]
fn lbfgs_descends_convex_quadratics() {
    struct Quad {
        scale: Vec<f64>,
        center: Vec<f64>,
    }
    impl m3::optim::DifferentiableFunction for Quad {
        fn dimension(&self) -> usize {
            self.scale.len()
        }
        fn value(&self, w: &[f64]) -> f64 {
            w.iter()
                .zip(&self.scale)
                .zip(&self.center)
                .map(|((wi, a), c)| a * (wi - c).powi(2))
                .sum()
        }
        fn gradient(&self, w: &[f64], g: &mut [f64]) {
            for i in 0..w.len() {
                g[i] = 2.0 * self.scale[i] * (w[i] - self.center[i]);
            }
        }
    }
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(4000 + case);
        let d = rng.gen_range(2usize..6);
        let scale: Vec<f64> = (0..d).map(|_| rng.gen_range(0.1f64..5.0)).collect();
        let center: Vec<f64> = (0..d).map(|_| rng.gen_range(-3.0f64..3.0)).collect();
        let f = Quad {
            scale,
            center: center.clone(),
        };
        let result = Lbfgs::new().run(&f, vec![0.0; d]);
        let mut previous = f64::INFINITY;
        for &v in &result.value_history {
            assert!(v <= previous + 1e-9);
            previous = v;
        }
        for (w, c) in result.weights.iter().zip(&center) {
            assert!((w - c).abs() < 1e-3, "weight {w} vs centre {c}");
        }
    }
}

/// The simulated page cache never reports more hits+misses than accesses and
/// never exceeds its capacity.
#[test]
fn page_cache_invariants() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(5000 + case);
        let capacity = rng.gen_range(1usize..64);
        let n_accesses = rng.gen_range(1usize..200);
        let accesses: Vec<u64> = (0..n_accesses).map(|_| rng.gen_range(0u64..128)).collect();
        let mut cache = m3::vmsim::PageCache::new(capacity);
        for &page in &accesses {
            cache.access(page);
            assert!(cache.len() <= capacity);
        }
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, accesses.len() as u64);
        assert!(stats.evictions <= stats.misses);
    }
}

/// Mini-batch epoch plans are pure functions of `(seed, epoch)`: rebuilding
/// the sampler reproduces every batch bit for bit.
#[test]
fn minibatch_plans_are_reproducible() {
    use m3::optim::Batch;
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(9000 + case);
        let n = rng.gen_range(1usize..400);
        let batch_size = rng.gen_range(1usize..64);
        let seed: u64 = rng.gen_range(0u64..u64::MAX / 2);
        for scheme in [
            SamplingScheme::Sequential,
            SamplingScheme::ShuffledChunks,
            SamplingScheme::ShuffledEpochs,
            SamplingScheme::UniformRandom,
        ] {
            let a = MinibatchSampler::new(n, batch_size, scheme, seed).unwrap();
            let b = MinibatchSampler::new(n, batch_size, scheme, seed).unwrap();
            for epoch in [0usize, 1, 7] {
                let pa = a.epoch(epoch);
                let pb = b.epoch(epoch);
                assert_eq!(pa.n_batches(), pb.n_batches());
                for i in 0..pa.n_batches() {
                    match (pa.batch(i), pb.batch(i)) {
                        (Batch::Range(x), Batch::Range(y)) => assert_eq!(x, y),
                        (Batch::Indices(x), Batch::Indices(y)) => assert_eq!(x, y),
                        _ => panic!("batch kind changed between identical samplers"),
                    }
                }
            }
        }
    }
}

/// Without-replacement schemes visit every row exactly once per epoch, and
/// batch boundaries never split or duplicate a row.
#[test]
fn minibatch_epochs_visit_every_row_exactly_once() {
    use m3::optim::Batch;
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(9100 + case);
        let n = rng.gen_range(1usize..300);
        let batch_size = rng.gen_range(1usize..48);
        let seed: u64 = rng.gen_range(0u64..1 << 40);
        let effective = batch_size.min(n);
        for scheme in [
            SamplingScheme::Sequential,
            SamplingScheme::ShuffledChunks,
            SamplingScheme::ShuffledEpochs,
        ] {
            let sampler = MinibatchSampler::new(n, batch_size, scheme, seed).unwrap();
            assert_eq!(sampler.n_batches(), n.div_ceil(effective));
            for epoch in 0..3 {
                let plan = sampler.epoch(epoch);
                let mut visits = vec![0usize; n];
                for b in 0..plan.n_batches() {
                    let batch = plan.batch(b);
                    assert!(!batch.is_empty(), "{scheme:?} produced an empty batch");
                    assert!(batch.len() <= effective, "{scheme:?} oversized a batch");
                    match batch {
                        Batch::Range(r) => {
                            for i in r {
                                visits[i] += 1;
                            }
                        }
                        Batch::Indices(ix) => {
                            for &i in ix {
                                visits[i] += 1;
                            }
                        }
                    }
                }
                assert!(
                    visits.iter().all(|&v| v == 1),
                    "{scheme:?} epoch {epoch}: a row was skipped or duplicated"
                );
            }
        }
    }
}

/// The with-replacement scheme always draws full batches of in-range rows.
#[test]
fn minibatch_uniform_random_draws_full_in_range_batches() {
    use m3::optim::Batch;
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(9200 + case);
        let n = rng.gen_range(1usize..200);
        let batch_size = rng.gen_range(1usize..32);
        let effective = batch_size.min(n);
        let sampler =
            MinibatchSampler::new(n, batch_size, SamplingScheme::UniformRandom, 9200 + case)
                .unwrap();
        let plan = sampler.epoch(case as usize % 5);
        assert_eq!(plan.n_batches(), n.div_ceil(effective));
        for b in 0..plan.n_batches() {
            match plan.batch(b) {
                Batch::Indices(ix) => {
                    assert_eq!(ix.len(), effective, "with-replacement batches are full");
                    assert!(ix.iter().all(|&i| i < n));
                }
                Batch::Range(_) => panic!("UniformRandom must gather indices"),
            }
        }
    }
}

/// Degenerate sampler configurations fail with typed errors instead of
/// panicking or silently producing empty plans.
#[test]
fn minibatch_degenerate_configurations_are_rejected() {
    use m3::optim::SamplerError;
    for scheme in [
        SamplingScheme::Sequential,
        SamplingScheme::ShuffledChunks,
        SamplingScheme::ShuffledEpochs,
        SamplingScheme::UniformRandom,
    ] {
        assert!(matches!(
            MinibatchSampler::new(10, 0, scheme, 1),
            Err(SamplerError::ZeroBatchSize)
        ));
        assert!(matches!(
            MinibatchSampler::new(0, 8, scheme, 1),
            Err(SamplerError::EmptyDataset)
        ));
    }
    // The errors are real `std::error::Error`s with useful messages.
    let e = MinibatchSampler::new(10, 0, SamplingScheme::Sequential, 1).unwrap_err();
    assert!(e.to_string().contains("batch size"));
    let e = MinibatchSampler::new(0, 8, SamplingScheme::Sequential, 1).unwrap_err();
    assert!(e.to_string().contains("0 examples"));
}

/// Row-range splitting covers every row exactly once for any inputs.
#[test]
fn split_rows_partitions_exactly() {
    for case in 0..CASES * 4 {
        let mut rng = StdRng::seed_from_u64(6000 + case);
        let n_rows = rng.gen_range(0usize..500);
        let n_chunks = rng.gen_range(0usize..17);
        let ranges = m3::linalg::parallel::split_rows(n_rows, n_chunks);
        let total: usize = ranges.iter().map(|r| r.len()).sum();
        assert_eq!(total, n_rows);
        let mut previous_end = 0;
        for r in &ranges {
            assert_eq!(r.start, previous_end);
            previous_end = r.end;
        }
    }
}

/// A valid `TrainProgress` drawn from `rng`, sized for `n_params` params.
fn random_progress(rng: &mut StdRng) -> m3::core::TrainProgress {
    let epochs = rng.gen_range(1u64..20);
    let batch_size = rng.gen_range(1u64..64);
    let n_examples = rng.gen_range(1u64..500);
    m3::core::TrainProgress {
        epoch: rng.gen_range(0..=epochs),
        next_batch: rng.gen_range(0..=n_examples.div_ceil(batch_size)),
        n_examples,
        seed: rng.gen(),
        batch_size,
        epochs,
        eval_every: rng.gen_range(0u64..5),
        sampling: rng.gen_range(0u32..4),
        mode: rng.gen_range(0u32..2),
        learning_rate: rng.gen_range(1e-4f64..10.0),
        decay: rng.gen_range(0.0f64..1.0),
        evaluations: rng.gen_range(0u64..10_000),
        sequence: rng.gen_range(0u64..1_000),
    }
}

/// Checkpoint containers round-trip bit-exactly and refuse corruption,
/// truncation, wrong-kind and wrong-version files with typed errors.
#[test]
fn checkpoint_refuses_corruption_truncation_and_wrong_kind() {
    use m3::core::ckpt::{checkpoint_path, write_checkpoint, CheckpointFile};
    use m3::core::CoreError;

    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(9000 + case);
        let n_params = rng.gen_range(1usize..200);
        let n_history = rng.gen_range(0usize..30);
        let params: Vec<f64> = (0..n_params).map(|_| rng.gen_range(-5.0f64..5.0)).collect();
        let history: Vec<f64> = (0..n_history).map(|_| rng.gen_range(0.0f64..3.0)).collect();
        let progress = random_progress(&mut rng);

        let dir = tempfile::tempdir().unwrap();
        let path = checkpoint_path(dir.path(), progress.sequence);
        write_checkpoint(&path, &progress, &params, &history).unwrap();

        // Bit-exact round trip.
        let file = CheckpointFile::open_verified(&path).unwrap();
        assert_eq!(file.progress(), &progress, "case {case}");
        for (a, b) in file.params().iter().zip(&params) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in file.history().iter().zip(&history) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let pristine = std::fs::read(&path).unwrap();

        // Flip one random payload byte: open_verified must report a
        // checksum mismatch in a payload section, never a panic.
        let mut corrupt = pristine.clone();
        let payload_len = corrupt.len() - 4096;
        let victim = 4096 + rng.gen_range(0usize..payload_len);
        corrupt[victim] ^= 1 << rng.gen_range(0u32..8);
        std::fs::write(&path, &corrupt).unwrap();
        let err = CheckpointFile::open_verified(&path).unwrap_err();
        assert!(
            matches!(err, CoreError::ChecksumMismatch { ref section, .. }
                if section == "params" || section == "history"),
            "case {case}: expected a payload checksum mismatch, got: {err}"
        );

        // Truncate at a random point: SizeMismatch (or BadHeader when the
        // cut lands inside the header page).
        let cut = rng.gen_range(0usize..pristine.len());
        std::fs::write(&path, &pristine[..cut]).unwrap();
        let err = CheckpointFile::open(&path).unwrap_err();
        assert!(
            matches!(
                err,
                CoreError::SizeMismatch { .. } | CoreError::BadHeader { .. }
            ),
            "case {case}: truncation at {cut} gave: {err}"
        );

        // Wrong kind: a model artifact at a checkpoint path is refused on
        // magic alone.
        let model = m3::ml::LinearModel {
            weights: params.clone().into(),
            bias: 0.5,
        };
        model.save(&path).unwrap();
        assert!(matches!(
            CheckpointFile::open(&path),
            Err(CoreError::BadHeader { .. })
        ));

        // Wrong version: bump the version field of a pristine image.
        let mut wrong_version = pristine.clone();
        wrong_version[8] = wrong_version[8].wrapping_add(1);
        std::fs::write(&path, &wrong_version).unwrap();
        let err = CheckpointFile::open(&path).unwrap_err();
        assert!(
            matches!(err, CoreError::BadHeader { ref reason } if reason.contains("version")),
            "case {case}: expected a version error, got: {err}"
        );
    }
}

/// The retention policy keeps exactly `retain` checkpoints — always the
/// newest ones, oldest pruned first — for any save count and retain limit.
#[test]
fn checkpoint_retention_keeps_exactly_the_newest_k() {
    use m3::core::ckpt::list_checkpoints;
    use m3::optim::Checkpointer;

    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(11_000 + case);
        let retain = rng.gen_range(1usize..6);
        let saves = rng.gen_range(1usize..12);
        let params: Vec<f64> = (0..4).map(|_| rng.gen_range(-1.0f64..1.0)).collect();
        let mut progress = random_progress(&mut rng);

        let dir = tempfile::tempdir().unwrap();
        let cfg = CheckpointConfig::new(dir.path()).retain(retain);
        let mut ckpt = Checkpointer::new(&cfg).unwrap();
        for s in 0..saves {
            progress.evaluations = s as u64;
            ckpt.save(progress, &params, &[]).unwrap();
        }
        ckpt.finish().unwrap();

        let survivors = list_checkpoints(dir.path()).unwrap();
        assert_eq!(
            survivors.len(),
            saves.min(retain),
            "case {case}: retain {retain}, saves {saves}"
        );
        let sequences: Vec<u64> = survivors.iter().map(|&(seq, _)| seq).collect();
        let newest: Vec<u64> = (saves.saturating_sub(retain)..saves)
            .map(|s| s as u64)
            .collect();
        assert_eq!(
            sequences, newest,
            "case {case}: oldest must be pruned first"
        );
    }
}

/// R-MAT generation is a pure function of its config — regenerating with the
/// same seed reproduces the file byte for byte, at any thread count and any
/// sort budget — and every published adjacency list is sorted,
/// duplicate-free, loop-free and in range, with the summary's edge count
/// matching the container header exactly.  The last cases span several
/// sample blocks, so the sampling pass really runs on several workers.
#[test]
fn rmat_generation_is_deterministic_and_well_formed() {
    use m3::core::{AdjacencyStore, ExecContext};
    for case in 0..16u64 {
        let mut rng = StdRng::seed_from_u64(9000 + case);
        let (scale, n_edges) = if case < 12 {
            (rng.gen_range(4u32..10), rng.gen_range(50u64..2500))
        } else {
            (rng.gen_range(8u32..15), rng.gen_range(70_000u64..200_000))
        };
        let cfg = m3::data::RmatConfig::new(scale, n_edges)
            .with_seed(rng.gen())
            .with_symmetric(rng.gen_bool(0.5))
            .with_mem_budget(64 << 10);
        let dir = tempfile::tempdir().unwrap();
        let first = dir.path().join("first.m3g");
        let again = dir.path().join("again.m3g");
        let summary = m3::data::generate_rmat(&first, &cfg).unwrap();
        let reference = std::fs::read(&first).unwrap();
        for budget in [64usize << 10, 1 << 20, 1 << 30] {
            for ctx in [
                ExecContext::serial(),
                ExecContext::new().with_threads(4),
                ExecContext::new(),
            ] {
                let threads = ctx.threads();
                let cfg = cfg.clone().with_mem_budget(budget);
                m3::data::generate_rmat_ctx(&again, &cfg, &ctx).unwrap();
                assert!(
                    std::fs::read(&again).unwrap() == reference,
                    "case {case}: budget {budget}, {threads} threads changed the bytes"
                );
            }
        }

        let graph = m3::core::GraphFile::open_verified(&first).unwrap();
        assert_eq!(graph.n_nodes() as u64, 1u64 << scale, "case {case}");
        assert_eq!(graph.n_edges() as u64, summary.written_edges, "case {case}");
        assert_eq!(summary.requested_edges, n_edges, "case {case}");
        let mut walked = 0usize;
        for v in 0..graph.n_nodes() {
            let row = graph.neighbors(v);
            assert!(
                row.windows(2).all(|w| w[0] < w[1]),
                "case {case}: node {v} adjacency must be strictly increasing"
            );
            assert!(
                row.iter().all(|&t| (t as usize) < graph.n_nodes()),
                "case {case}: node {v} has an out-of-range neighbor"
            );
            assert!(!row.contains(&(v as u32)), "case {case}: self-loop at {v}");
            walked += row.len();
        }
        assert_eq!(
            walked,
            graph.n_edges(),
            "case {case}: indptr spans all edges"
        );
    }
}

/// Degenerate R-MAT configurations are rejected up front with a typed
/// configuration error and leave nothing on disk.
#[test]
fn rmat_degenerate_configs_are_rejected() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().join("never.m3g");
    let good = m3::data::RmatConfig::new(6, 100);
    let bad = [
        m3::data::RmatConfig {
            scale: 0,
            ..good.clone()
        },
        m3::data::RmatConfig {
            scale: 32,
            ..good.clone()
        },
        m3::data::RmatConfig {
            n_edges: 0,
            ..good.clone()
        },
        m3::data::RmatConfig {
            a: -0.2,
            b: 0.6,
            c: 0.3,
            d: 0.3,
            ..good.clone()
        },
        m3::data::RmatConfig {
            a: 0.5,
            b: 0.5,
            c: 0.5,
            d: 0.5,
            ..good.clone()
        },
        m3::data::RmatConfig {
            b: f64::INFINITY,
            ..good.clone()
        },
        good.with_mem_budget(100),
    ];
    for (i, cfg) in bad.into_iter().enumerate() {
        let err = m3::data::generate_rmat(&path, &cfg).unwrap_err();
        assert!(
            matches!(err, m3::data::DataError::InvalidConfig(_)),
            "config {i}: expected InvalidConfig, got {err}"
        );
        assert!(!path.exists(), "config {i}: rejection must not touch disk");
    }
}
