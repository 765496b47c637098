//! k-means clustering (Lloyd's algorithm) with k-means++ initialisation and a
//! mini-batch variant.
//!
//! The paper's second workload: "k-means (10 iterations, 5 clusters)".  Each
//! Lloyd iteration is one sequential sweep over the rows of a [`RowStore`] —
//! assign every point to its nearest centroid while accumulating per-cluster
//! sums — followed by a tiny centroid update.  Exactly the access pattern the
//! OS read-ahead machinery (and the `m3-vmsim` model of it) rewards; the
//! sweep itself is driven by the shared [`ExecContext`], and the per-row
//! assignment runs through the fused distance-argmin kernel
//! ([`m3_linalg::kernels::nearest_centroid`]), which evaluates all `k`
//! centroids in one pass over the row (four at a time on the SIMD path).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use m3_core::storage::RowStore;
use m3_core::{ExecContext, ParamMatrix};
use m3_linalg::{ops, DenseMatrix};

use crate::api::{Model, UnsupervisedEstimator};
use crate::{MlError, Result};

/// Centroid initialisation strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KMeansInit {
    /// Pick `k` distinct rows uniformly at random.
    Random,
    /// k-means++ seeding (D² sampling): slower to initialise, much better
    /// starting inertia.
    PlusPlus,
}

/// Hyper-parameters for [`KMeans`].
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iterations: usize,
    /// Stop early when the relative inertia improvement falls below this
    /// tolerance (set to `0.0` to always run `max_iterations`, the paper's
    /// protocol).
    pub tolerance: f64,
    /// Initialisation strategy.
    pub init: KMeansInit,
    /// RNG seed for initialisation.
    pub seed: u64,
    /// Legacy worker-thread count (`0` = all hardware threads), honoured only
    /// by the deprecated inherent [`KMeans::fit`] shim.  The estimator API
    /// takes execution policy from its [`ExecContext`].
    pub n_threads: usize,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        Self {
            k: 8,
            max_iterations: 100,
            tolerance: 1e-6,
            init: KMeansInit::PlusPlus,
            seed: 0xC1_05_7E,
            n_threads: 0,
        }
    }
}

impl KMeansConfig {
    /// The paper's configuration: 5 clusters, exactly 10 Lloyd iterations.
    pub fn paper() -> Self {
        Self {
            k: 5,
            max_iterations: 10,
            tolerance: 0.0,
            ..Self::default()
        }
    }
}

/// k-means trainer.
#[derive(Debug, Clone, Default)]
pub struct KMeans {
    config: KMeansConfig,
}

/// A fitted k-means model.
///
/// The centroids live in a [`ParamMatrix`]: owned after training, or a
/// zero-copy view into a memory-mapped artifact after [`KMeansModel::load`].
#[derive(Debug, Clone)]
pub struct KMeansModel {
    /// Cluster centroids (`k × n_cols`).
    pub centroids: ParamMatrix,
    /// Final within-cluster sum of squared distances.
    pub inertia: f64,
    /// Number of Lloyd iterations performed.
    pub iterations: usize,
    /// Inertia after each iteration.
    pub inertia_history: Vec<f64>,
}

impl KMeans {
    /// Create a trainer with the given configuration.
    pub fn new(config: KMeansConfig) -> Self {
        Self { config }
    }

    /// Cluster the rows of `data`.
    ///
    /// # Errors
    /// Fails when `k == 0`, the data is empty, or there are fewer rows than
    /// clusters.
    #[deprecated(
        since = "0.1.0",
        note = "use `UnsupervisedEstimator::fit(&self, data, &ExecContext)` instead"
    )]
    pub fn fit<S: RowStore + Sync + ?Sized>(&self, data: &S) -> Result<KMeansModel> {
        UnsupervisedEstimator::fit(
            self,
            data,
            &ExecContext::new().with_threads(self.config.n_threads),
        )
    }
}

impl UnsupervisedEstimator for KMeans {
    type Model = KMeansModel;

    fn fit<S: RowStore + Sync + ?Sized>(&self, data: &S, ctx: &ExecContext) -> Result<KMeansModel> {
        let k = self.config.k;
        let n = data.n_rows();
        let d = data.n_cols();
        if k == 0 {
            return Err(MlError::InvalidData("k must be at least 1".to_string()));
        }
        if n == 0 || d == 0 {
            return Err(MlError::InvalidData("clustering data is empty".to_string()));
        }
        if n < k {
            return Err(MlError::InvalidData(format!(
                "cannot form {k} clusters from {n} rows"
            )));
        }

        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut centroids = match self.config.init {
            KMeansInit::Random => init_random(data, k, &mut rng),
            KMeansInit::PlusPlus => init_plus_plus(data, k, &mut rng),
        };

        let mut inertia_history = Vec::with_capacity(self.config.max_iterations);
        let mut previous_inertia = f64::INFINITY;
        let mut iterations = 0;

        while iterations < self.config.max_iterations {
            let sweep = assignment_sweep(data, &centroids, ctx);
            iterations += 1;
            inertia_history.push(sweep.inertia);

            // Update step: new centroid = mean of assigned points; empty
            // clusters keep their previous centroid (mlpack's behaviour).
            for c in 0..k {
                if sweep.counts[c] > 0 {
                    let inv = 1.0 / sweep.counts[c] as f64;
                    let row = centroids.row_mut(c);
                    for (j, v) in row.iter_mut().enumerate() {
                        *v = sweep.sums[c * d + j] * inv;
                    }
                }
            }

            let improvement =
                (previous_inertia - sweep.inertia) / previous_inertia.abs().max(1e-300);
            previous_inertia = sweep.inertia;
            if self.config.tolerance > 0.0 && improvement.abs() < self.config.tolerance {
                break;
            }
        }

        // One final sweep to report the inertia of the *final* centroids.
        let final_sweep = assignment_sweep(data, &centroids, ctx);
        Ok(KMeansModel {
            centroids: centroids.into(),
            inertia: final_sweep.inertia,
            iterations,
            inertia_history,
        })
    }
}

/// Result of one assignment sweep.
struct SweepResult {
    /// Per-cluster element-wise sums (`k * d`).
    sums: Vec<f64>,
    /// Per-cluster point counts.
    counts: Vec<u64>,
    /// Total within-cluster sum of squared distances.
    inertia: f64,
}

/// Assign every row to its nearest centroid, accumulating per-cluster sums,
/// counts and the total inertia, in parallel over the context's fixed
/// row chunks.
fn assignment_sweep<S: RowStore + Sync + ?Sized>(
    data: &S,
    centroids: &DenseMatrix,
    ctx: &ExecContext,
) -> SweepResult {
    let d = data.n_cols();
    let k = centroids.n_rows();
    ctx.map_reduce_rows(
        data,
        |chunk| {
            let mut sums = vec![0.0; k * d];
            let mut counts = vec![0u64; k];
            let mut inertia = 0.0;
            for row in chunk.data.chunks_exact(d) {
                let (best, dist) = nearest_centroid(row, centroids);
                inertia += dist;
                counts[best] += 1;
                ops::add_assign(&mut sums[best * d..(best + 1) * d], row);
            }
            SweepResult {
                sums,
                counts,
                inertia,
            }
        },
        SweepResult {
            sums: vec![0.0; k * d],
            counts: vec![0u64; k],
            inertia: 0.0,
        },
        |mut acc, part| {
            ops::add_assign(&mut acc.sums, &part.sums);
            for (a, b) in acc.counts.iter_mut().zip(&part.counts) {
                *a += b;
            }
            acc.inertia += part.inertia;
            acc
        },
    )
}

/// Index of the nearest centroid and the squared distance to it, via the
/// fused distance-argmin kernel (ties resolve to the lowest index).
fn nearest_centroid(row: &[f64], centroids: &DenseMatrix) -> (usize, f64) {
    m3_linalg::kernels::nearest_centroid(row, centroids.as_slice(), centroids.n_rows())
}

/// Random initialisation: `k` distinct rows.
fn init_random<S: RowStore + ?Sized>(data: &S, k: usize, rng: &mut StdRng) -> DenseMatrix {
    let n = data.n_rows();
    let mut chosen = std::collections::BTreeSet::new();
    while chosen.len() < k {
        chosen.insert(rng.gen_range(0..n));
    }
    let mut centroids = DenseMatrix::zeros(k, data.n_cols());
    for (c, &row_idx) in chosen.iter().enumerate() {
        centroids.row_mut(c).copy_from_slice(data.row(row_idx));
    }
    centroids
}

/// k-means++ (D²) initialisation.  Before each choice after the first, one
/// pass over the data brings every row's distance to its nearest chosen
/// centroid up to date — `k - 1` passes in all.
fn init_plus_plus<S: RowStore + ?Sized>(data: &S, k: usize, rng: &mut StdRng) -> DenseMatrix {
    let n = data.n_rows();
    let d = data.n_cols();
    let mut centroids = DenseMatrix::zeros(k, d);

    let first = rng.gen_range(0..n);
    centroids.row_mut(0).copy_from_slice(data.row(first));

    // Squared distance of every point to its nearest chosen centroid.
    let mut distances: Vec<f64> = Vec::new();
    for c in 1..k {
        let newest = centroids.row(c - 1);
        if c == 1 {
            distances = (0..n)
                .map(|r| ops::squared_distance(data.row(r), newest))
                .collect();
        } else {
            for (r, dist) in distances.iter_mut().enumerate() {
                let new_dist = ops::squared_distance(data.row(r), newest);
                if new_dist < *dist {
                    *dist = new_dist;
                }
            }
        }
        let total: f64 = distances.iter().sum();
        let chosen = if total <= 0.0 {
            rng.gen_range(0..n)
        } else {
            let mut target = rng.gen::<f64>() * total;
            let mut pick = n - 1;
            for (i, &dist) in distances.iter().enumerate() {
                if target < dist {
                    pick = i;
                    break;
                }
                target -= dist;
            }
            pick
        };
        centroids.row_mut(c).copy_from_slice(data.row(chosen));
    }
    centroids
}

impl KMeansModel {
    /// Index of the cluster nearest to `row`.
    pub fn predict_row(&self, row: &[f64]) -> usize {
        m3_linalg::kernels::nearest_centroid(row, self.centroids.as_slice(), self.k()).0
    }

    /// Cluster assignments for every row of `data`.
    pub fn predict<S: RowStore + ?Sized>(&self, data: &S) -> Vec<usize> {
        (0..data.n_rows())
            .map(|r| self.predict_row(data.row(r)))
            .collect()
    }

    /// Within-cluster sum of squared distances of `data` under this model.
    pub fn inertia_of<S: RowStore + ?Sized>(&self, data: &S) -> f64 {
        (0..data.n_rows())
            .map(|r| {
                m3_linalg::kernels::nearest_centroid(
                    data.row(r),
                    self.centroids.as_slice(),
                    self.k(),
                )
                .1
            })
            .sum()
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.n_rows()
    }
}

impl Model for KMeansModel {
    fn n_features(&self) -> usize {
        self.centroids.n_cols()
    }

    /// The nearest cluster index, as `f64` (the trait's uniform row output).
    fn predict_row(&self, row: &[f64]) -> f64 {
        KMeansModel::predict_row(self, row) as f64
    }

    /// Fused chunk kernel: distance-argmin over all centroids per row.
    fn predict_chunk(&self, chunk: m3_core::chunked::RowChunk<'_>, out: &mut Vec<f64>) {
        let start = out.len();
        out.resize(start + chunk.n_rows(), 0.0);
        m3_linalg::kernels::nearest_centroid_chunk(
            chunk.data,
            self.centroids.as_slice(),
            self.k(),
            &mut out[start..],
        );
    }

    /// Negative inertia over `data` (higher is better); `labels` are ignored.
    fn score(&self, data: &dyn RowStore, _labels: &[f64]) -> f64 {
        -self.inertia_of(data)
    }
}

/// Mini-batch k-means (Sculley 2010) — the "online learning" counterpart of
/// Lloyd's algorithm, included for the paper's future-work direction.  Each
/// step samples a batch of rows, assigns them, and moves the affected
/// centroids by a per-centroid decaying learning rate.
#[derive(Debug, Clone)]
pub struct MiniBatchKMeans {
    /// Shared configuration (k, init, seed).
    pub config: KMeansConfig,
    /// Rows sampled per step.
    pub batch_size: usize,
    /// Number of mini-batch steps.
    pub n_steps: usize,
}

impl MiniBatchKMeans {
    /// Create a mini-batch trainer.
    pub fn new(config: KMeansConfig, batch_size: usize, n_steps: usize) -> Self {
        Self {
            config,
            batch_size: batch_size.max(1),
            n_steps,
        }
    }

    /// Cluster the rows of `data` using mini-batch updates.
    ///
    /// # Errors
    /// Same conditions as [`KMeans::fit`].
    #[deprecated(
        since = "0.1.0",
        note = "use `UnsupervisedEstimator::fit(&self, data, &ExecContext)` instead"
    )]
    pub fn fit<S: RowStore + Sync + ?Sized>(&self, data: &S) -> Result<KMeansModel> {
        UnsupervisedEstimator::fit(
            self,
            data,
            &ExecContext::new().with_threads(self.config.n_threads),
        )
    }
}

impl UnsupervisedEstimator for MiniBatchKMeans {
    type Model = KMeansModel;

    fn fit<S: RowStore + Sync + ?Sized>(&self, data: &S, ctx: &ExecContext) -> Result<KMeansModel> {
        let k = self.config.k;
        let n = data.n_rows();
        if k == 0 || n == 0 || data.n_cols() == 0 {
            return Err(MlError::InvalidData("empty data or k == 0".to_string()));
        }
        if n < k {
            return Err(MlError::InvalidData(format!(
                "cannot form {k} clusters from {n} rows"
            )));
        }
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut centroids = match self.config.init {
            KMeansInit::Random => init_random(data, k, &mut rng),
            KMeansInit::PlusPlus => init_plus_plus(data, k, &mut rng),
        };
        let mut counts = vec![0u64; k];

        // Stochastic row sampling: tell the OS not to read ahead.
        data.advise(m3_core::AccessPattern::Random);
        for _ in 0..self.n_steps {
            // Sample a batch and apply per-centroid gradient-style updates.
            for _ in 0..self.batch_size.min(n) {
                let row = data.row(rng.gen_range(0..n));
                let (best, _) = nearest_centroid(row, &centroids);
                counts[best] += 1;
                let lr = 1.0 / counts[best] as f64;
                let centroid = centroids.row_mut(best);
                for (cv, rv) in centroid.iter_mut().zip(row) {
                    *cv += lr * (rv - *cv);
                }
            }
        }

        let sweep = assignment_sweep(data, &centroids, ctx);
        Ok(KMeansModel {
            centroids: centroids.into(),
            inertia: sweep.inertia,
            iterations: self.n_steps,
            inertia_history: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3_data::{GaussianBlobs, RowGenerator};

    fn blobs(n: usize) -> (DenseMatrix, GaussianBlobs) {
        let gen = GaussianBlobs::with_centers(
            vec![
                vec![0.0, 0.0, 0.0],
                vec![10.0, 10.0, 10.0],
                vec![-10.0, 10.0, 0.0],
            ],
            0.7,
            13,
        );
        let (m, _) = gen.materialize(n);
        (m, gen)
    }

    fn fit(trainer: &KMeans, data: &DenseMatrix, ctx: &ExecContext) -> KMeansModel {
        UnsupervisedEstimator::fit(trainer, data, ctx).unwrap()
    }

    #[test]
    fn recovers_well_separated_clusters() {
        let (x, gen) = blobs(300);
        let model = fit(
            &KMeans::new(KMeansConfig {
                k: 3,
                max_iterations: 50,
                ..Default::default()
            }),
            &x,
            &ExecContext::new(),
        );
        assert_eq!(model.k(), 3);
        // Every learnt centroid should be close to a distinct true centre.
        let mut matched = [false; 3];
        for c in 0..3 {
            let learnt = model.centroids.row(c);
            let (best, dist) = gen
                .centers()
                .iter()
                .enumerate()
                .map(|(i, truth)| (i, ops::distance(learnt, truth)))
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                .unwrap();
            assert!(
                dist < 1.0,
                "centroid {c} is {dist} from its nearest true centre"
            );
            matched[best] = true;
        }
        assert!(matched.iter().all(|&m| m), "each true centre matched once");
    }

    #[test]
    fn inertia_decreases_monotonically() {
        let (x, _) = blobs(200);
        let model = fit(
            &KMeans::new(KMeansConfig {
                k: 3,
                max_iterations: 20,
                tolerance: 0.0,
                init: KMeansInit::Random,
                ..Default::default()
            }),
            &x,
            &ExecContext::new(),
        );
        let mut previous = f64::INFINITY;
        for &inertia in &model.inertia_history {
            assert!(
                inertia <= previous + 1e-9,
                "inertia increased: {inertia} > {previous}"
            );
            previous = inertia;
        }
        assert!(model.inertia <= model.inertia_history[0]);
    }

    #[test]
    fn paper_config_runs_exactly_ten_iterations() {
        let (x, _) = blobs(100);
        let mut config = KMeansConfig::paper();
        config.k = 3; // only 3 true clusters in the fixture
        let model = fit(&KMeans::new(config), &x, &ExecContext::new());
        assert_eq!(model.iterations, 10);
        assert_eq!(model.inertia_history.len(), 10);
    }

    #[test]
    fn plus_plus_is_no_worse_than_random_on_average() {
        let (x, _) = blobs(300);
        let inertia = |init| {
            fit(
                &KMeans::new(KMeansConfig {
                    k: 3,
                    max_iterations: 1,
                    tolerance: 0.0,
                    init,
                    seed: 4,
                    ..Default::default()
                }),
                &x,
                &ExecContext::new(),
            )
            .inertia
        };
        // After a single iteration, ++ seeding should already be competitive.
        assert!(inertia(KMeansInit::PlusPlus) <= inertia(KMeansInit::Random) * 1.5);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (x, _) = blobs(150);
        let run = |seed| {
            fit(
                &KMeans::new(KMeansConfig {
                    k: 3,
                    seed,
                    ..Default::default()
                }),
                &x,
                &ExecContext::new(),
            )
            .centroids
        };
        assert_eq!(run(7).as_slice(), run(7).as_slice());
    }

    #[test]
    fn parallel_and_serial_sweeps_are_bit_identical() {
        let (x, _) = blobs(123);
        let config = KMeansConfig {
            k: 3,
            max_iterations: 5,
            tolerance: 0.0,
            ..Default::default()
        };
        let run = |threads| {
            fit(
                &KMeans::new(config.clone()),
                &x,
                &ExecContext::new()
                    .with_threads(threads)
                    .with_chunk_bytes(m3_core::PAGE_SIZE)
                    .with_parallel_threshold(0), // force the pool at test scale
            )
        };
        let serial = run(1);
        let parallel = run(4);
        for (a, b) in serial
            .centroids
            .as_slice()
            .iter()
            .zip(parallel.centroids.as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(serial.inertia.to_bits(), parallel.inertia.to_bits());
    }

    #[test]
    fn deprecated_inherent_fit_matches_trait_fit() {
        let (x, _) = blobs(90);
        let trainer = KMeans::new(KMeansConfig {
            k: 3,
            max_iterations: 5,
            ..Default::default()
        });
        #[allow(deprecated)]
        let old = KMeans::fit(&trainer, &x).unwrap();
        let new = UnsupervisedEstimator::fit(&trainer, &x, &ExecContext::new()).unwrap();
        assert_eq!(old.centroids.as_slice(), new.centroids.as_slice());
    }

    #[test]
    fn predictions_match_nearest_centroid() {
        let (x, _) = blobs(60);
        let model = fit(
            &KMeans::new(KMeansConfig {
                k: 3,
                ..Default::default()
            }),
            &x,
            &ExecContext::new(),
        );
        let preds = model.predict(&x);
        assert_eq!(preds.len(), 60);
        for (r, &c) in preds.iter().enumerate() {
            assert_eq!(c, model.predict_row(x.row(r)));
            assert!(c < 3);
        }
        assert!((model.inertia_of(&x) - model.inertia).abs() < 1e-9);
        // Model-trait view: f64 cluster ids and negative-inertia score.
        let as_model: &dyn Model = &model;
        let batch = as_model.predict_batch(&x);
        for (p, &c) in batch.iter().zip(&preds) {
            assert_eq!(*p, c as f64);
        }
        assert!((as_model.score(&x, &[]) + model.inertia).abs() < 1e-9);
    }

    #[test]
    fn in_memory_and_mmap_clustering_agree() {
        let (x, _) = blobs(120);
        let dir = tempfile::tempdir().unwrap();
        let mapped = m3_core::alloc::persist_matrix(dir.path().join("km.m3"), &x).unwrap();
        let trainer = KMeans::new(KMeansConfig {
            k: 3,
            seed: 99,
            ..Default::default()
        });
        let ctx = ExecContext::new().with_threads(2);
        let a = fit(&trainer, &x, &ctx);
        let b = UnsupervisedEstimator::fit(&trainer, &mapped, &ctx).unwrap();
        for (va, vb) in a.centroids.as_slice().iter().zip(b.centroids.as_slice()) {
            assert_eq!(va.to_bits(), vb.to_bits());
        }
    }

    #[test]
    fn mini_batch_reaches_reasonable_inertia() {
        let (x, _) = blobs(300);
        let ctx = ExecContext::new();
        let full = fit(
            &KMeans::new(KMeansConfig {
                k: 3,
                ..Default::default()
            }),
            &x,
            &ctx,
        );
        let mini = UnsupervisedEstimator::fit(
            &MiniBatchKMeans::new(
                KMeansConfig {
                    k: 3,
                    ..Default::default()
                },
                32,
                50,
            ),
            &x,
            &ctx,
        )
        .unwrap();
        assert!(
            mini.inertia < full.inertia * 3.0,
            "mini-batch inertia {} vs full {}",
            mini.inertia,
            full.inertia
        );
    }

    /// FNV-1a over the centroid bits.
    fn centroid_digest(model: &KMeansModel) -> u64 {
        model
            .centroids
            .as_slice()
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .fold(0xCBF2_9CE4_8422_2325, |h, b| {
                (h ^ b as u64).wrapping_mul(0x0100_0000_01B3)
            })
    }

    #[test]
    fn plus_plus_seeding_matches_golden_centroids() {
        // Digests recorded before the seeding dropped its unused final
        // distance pass; zero Lloyd iterations leave the seeds themselves.
        let (x, _) = blobs(200);
        for (k, iterations, golden, inertia) in [
            (3, 0, 0xA06B_699A_3E30_A3EA, 0x4078_D0BB_1845_D2F4),
            (3, 5, 0xCA4F_F197_235D_2C90, 0x4071_94E2_E147_F543),
            (5, 0, 0xF2AC_DCDA_24DE_2BF1, 0x4074_22A3_0E3B_A807),
            (5, 5, 0xD817_C031_B9E3_DC2C, 0x406C_CB25_6BC7_852A),
        ] {
            let model = fit(
                &KMeans::new(KMeansConfig {
                    k,
                    max_iterations: iterations,
                    tolerance: 0.0,
                    init: KMeansInit::PlusPlus,
                    seed: 7,
                    ..Default::default()
                }),
                &x,
                &ExecContext::serial(),
            );
            assert_eq!(centroid_digest(&model), golden, "k={k} it={iterations}");
            assert_eq!(model.inertia.to_bits(), inertia, "k={k} it={iterations}");
        }
    }

    /// A store that counts the rows read through it.
    struct CountingStore<'a> {
        inner: &'a DenseMatrix,
        rows_read: std::cell::Cell<usize>,
    }

    impl RowStore for CountingStore<'_> {
        fn n_rows(&self) -> usize {
            self.inner.n_rows()
        }
        fn n_cols(&self) -> usize {
            self.inner.n_cols()
        }
        fn row(&self, i: usize) -> &[f64] {
            self.rows_read.set(self.rows_read.get() + 1);
            self.inner.row(i)
        }
        fn rows_slice(&self, start: usize, end: usize) -> &[f64] {
            self.rows_read
                .set(self.rows_read.get() + end.saturating_sub(start));
            self.inner.rows_slice(start, end)
        }
    }

    #[test]
    fn plus_plus_seeding_makes_k_minus_one_passes() {
        let (x, _) = blobs(120);
        let n = x.n_rows();
        for k in 1..=6 {
            let store = CountingStore {
                inner: &x,
                rows_read: std::cell::Cell::new(0),
            };
            init_plus_plus(&store, k, &mut StdRng::seed_from_u64(3));
            // `k - 1` full passes, plus one read per chosen centroid.
            assert_eq!(store.rows_read.get(), (k - 1) * n + k, "k={k}");
        }
    }

    #[test]
    fn validation_errors() {
        let (x, _) = blobs(10);
        let ctx = ExecContext::new();
        let err = |config: KMeansConfig| {
            UnsupervisedEstimator::fit(&KMeans::new(config), &x, &ctx).is_err()
        };
        assert!(err(KMeansConfig {
            k: 0,
            ..Default::default()
        }));
        assert!(err(KMeansConfig {
            k: 11,
            ..Default::default()
        }));
        let empty = DenseMatrix::zeros(0, 2);
        assert!(UnsupervisedEstimator::fit(&KMeans::default(), &empty, &ctx).is_err());
        assert!(UnsupervisedEstimator::fit(
            &MiniBatchKMeans::new(
                KMeansConfig {
                    k: 20,
                    ..Default::default()
                },
                8,
                5
            ),
            &x,
            &ctx
        )
        .is_err());
    }
}
