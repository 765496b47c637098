//! Streaming R-MAT / power-law graph generation straight into the
//! `m3-core` [`GraphFile`] container.
//!
//! The generator never materialises the graph in RAM.  It runs in two
//! external passes over one spill file next to the output.  Steps 1 and 2a
//! run on every executor of an [`ExecContext`]:
//!
//! 1. **Sample** — every requested edge is a pure function of
//!    `(seed, edge index)` (a SplitMix64 stream drives the R-MAT quadrant
//!    recursion), so generation is deterministic and restartable.  Workers
//!    claim fixed blocks of edge indices from a shared cursor.  Each worker
//!    synthesises its block, drops self-loops, and partitions the packed
//!    `(src << 32) | dst` pairs by the high bits of `src`.  It then appends
//!    each bucket's run to that bucket's pending buffer; a full buffer is
//!    written to a fresh extent at the end of the spill file.  Which worker
//!    appends first is a race, but a bucket's *contents* are not, and step
//!    2a sorts them anyway.
//! 2. **Sort + publish** — (a) workers claim whole buckets.  Each bucket is
//!    loaded alone (its extents plus its pending edges), sorted,
//!    deduplicated and written back over its own extents, which yields the
//!    exact final edge count.  (b) One serial forward sweep over the sorted
//!    buckets streams rows into [`GraphFileBuilder`], which publishes the
//!    `M3GRPH01` artifact crash-safely.
//!
//! The published bytes depend only on the [`RmatConfig`] — never on the
//! thread count or the bucket fan-out.  The fan-out is sized from
//! [`RmatConfig::mem_budget`] divided by the worker count and from the
//! configured skew, so the buckets that step 2a sorts at the same time are
//! expected to fit the budget together.  Each bucket's pending buffer holds
//! at most its share of the budget (clamped to 4–64 KiB).  Peak memory is
//! therefore about twice `mem_budget` (pending buffers plus the buckets
//! being sorted) plus 2 MiB of sample-block buffers per worker.  It does
//! not grow with the edge count, the spill file holds one copy of the
//! edges, and the output file appears atomically or not at all.
//!
//! Spill writes go through [`m3_core::faults`].  The first failing worker
//! stops the others from claiming more work, its error is returned, and
//! the spill file is removed either way.

use std::fs;
use std::io::Write;
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use m3_core::{faults, ExecContext, GraphFile, GraphFileBuilder};

use crate::{DataError, Result};

/// Configuration for the R-MAT generator.
///
/// The classic R-MAT recursion (Chakrabarti, Zhan & Faloutsos, SDM 2004)
/// splits the adjacency matrix into quadrants with probabilities
/// `a` (top-left), `b` (top-right), `c` (bottom-left) and `d` (bottom-right)
/// and recurses `scale` times; `a > d` produces the skewed power-law degree
/// distributions seen in real graphs.  The Graph500 reference parameters are
/// `a = 0.57, b = 0.19, c = 0.19, d = 0.05`, which [`RmatConfig::new`] uses
/// as the default.
#[derive(Debug, Clone)]
pub struct RmatConfig {
    /// Number of vertices is `2^scale`.  Must be in `1..=31` so vertex ids
    /// fit the container's `u32` neighbor encoding.
    pub scale: u32,
    /// Number of directed edge samples to draw (before self-loop and
    /// duplicate removal, and before symmetric mirroring).
    pub n_edges: u64,
    /// Top-left quadrant probability.
    pub a: f64,
    /// Top-right quadrant probability.
    pub b: f64,
    /// Bottom-left quadrant probability.
    pub c: f64,
    /// Bottom-right quadrant probability.
    pub d: f64,
    /// Seed for the deterministic edge stream.
    pub seed: u64,
    /// Mirror every sampled edge so the output adjacency is symmetric
    /// (required by label-propagation connected components).
    pub symmetric: bool,
    /// Target bytes for the in-memory portion of the external sort.  The
    /// bucket fan-out is derived from this; it is a target, not a hard cap.
    pub mem_budget: usize,
}

impl RmatConfig {
    /// Graph500 reference parameters at the given scale and edge count.
    pub fn new(scale: u32, n_edges: u64) -> Self {
        RmatConfig {
            scale,
            n_edges,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            d: 0.05,
            seed: 0x4D33_5247, // "M3RG"
            symmetric: true,
            mem_budget: 256 << 20,
        }
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style symmetry override.
    pub fn with_symmetric(mut self, symmetric: bool) -> Self {
        self.symmetric = symmetric;
        self
    }

    /// Builder-style sort-budget override (bytes).
    pub fn with_mem_budget(mut self, bytes: usize) -> Self {
        self.mem_budget = bytes;
        self
    }

    /// Number of vertices implied by `scale`.
    pub fn n_nodes(&self) -> u64 {
        1u64 << self.scale
    }

    fn validate(&self) -> Result<()> {
        if self.scale == 0 || self.scale > 31 {
            return Err(DataError::InvalidConfig(format!(
                "rmat scale must be in 1..=31, got {}",
                self.scale
            )));
        }
        if self.n_edges == 0 {
            return Err(DataError::InvalidConfig(
                "rmat edge count must be positive".into(),
            ));
        }
        let probs = [self.a, self.b, self.c, self.d];
        if probs.iter().any(|p| !p.is_finite() || *p < 0.0) {
            return Err(DataError::InvalidConfig(format!(
                "rmat quadrant probabilities must be non-negative and finite, got \
                 a={} b={} c={} d={}",
                self.a, self.b, self.c, self.d
            )));
        }
        let sum: f64 = probs.iter().sum();
        if (sum - 1.0).abs() > 1e-6 {
            return Err(DataError::InvalidConfig(format!(
                "rmat quadrant probabilities must sum to 1, got {sum}"
            )));
        }
        if self.mem_budget < 64 << 10 {
            return Err(DataError::InvalidConfig(format!(
                "rmat mem_budget must be at least 64 KiB, got {}",
                self.mem_budget
            )));
        }
        Ok(())
    }
}

/// What [`generate_rmat`] actually wrote.
#[derive(Debug, Clone)]
pub struct RmatSummary {
    /// Vertex count of the published graph (`2^scale`).
    pub n_nodes: u64,
    /// Directed edge samples drawn (`RmatConfig::n_edges`).
    pub requested_edges: u64,
    /// Directed edges in the published file after mirroring and dedup.
    pub written_edges: u64,
    /// Samples discarded because `src == dst`.
    pub self_loops_dropped: u64,
    /// Directed edges discarded as exact duplicates.
    pub duplicates_dropped: u64,
}

/// SplitMix64: tiny, fast, and a pure function of its state — the whole edge
/// stream is reproducible from `(seed, edge index)` alone.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[inline]
fn unit_f64(x: u64) -> f64 {
    // 53 high bits -> [0, 1).
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The `(row, col)` bits of the quadrant `r` falls in: `[0, a)` top-left,
/// `[a, a+b)` top-right, `[a+b, a+b+c)` bottom-left, the rest bottom-right.
/// Written as plain comparisons combined without short-circuiting, so the
/// sampling loop has no data-dependent branch.
#[inline]
fn quadrant(r: f64, a: f64, ab: f64, abc: f64) -> (u32, u32) {
    let row_bit = r >= ab;
    let col_bit = ((r >= a) & (r < ab)) | (r >= abc);
    (row_bit as u32, col_bit as u32)
}

/// One R-MAT sample: recurse `scale` levels, choosing a quadrant per level.
#[inline]
fn rmat_edge(cfg: &RmatConfig, edge_index: u64) -> (u32, u32) {
    let mut state = cfg
        .seed
        .wrapping_add((edge_index ^ 0x5851_F42D_4C95_7F2D).wrapping_mul(0x2545_F491_4F6C_DD1D));
    let ab = cfg.a + cfg.b;
    let abc = ab + cfg.c;
    let mut src = 0u32;
    let mut dst = 0u32;
    for _ in 0..cfg.scale {
        let r = unit_f64(splitmix64(&mut state));
        let (row_bit, col_bit) = quadrant(r, cfg.a, ab, abc);
        src = (src << 1) | row_bit;
        dst = (dst << 1) | col_bit;
    }
    (src, dst)
}

/// Edge indices a pass-1 worker claims at a time.  Fixed, so neither the
/// work split nor the spill contents depend on the thread count.
const SAMPLE_BLOCK: u64 = 64 << 10;

/// Bounds on how many packed edges a bucket buffers before writing them
/// out (4 KiB to 64 KiB); within them, all buffers together fit the sort
/// budget.
const FLUSH_EDGES: std::ops::RangeInclusive<usize> = 512..=8 << 10;

/// Edges moved per read or write of the spill file (64 KiB), so a bucket
/// is never held twice (once packed, once as bytes).
const IO_CHUNK_EDGES: usize = 8 << 10;

/// One spill bucket: edges not yet written, and where the written ones are.
struct Bucket {
    pending: Vec<u64>,
    /// Byte ranges of the spill file holding this bucket's edges, in order.
    extents: Vec<Range<u64>>,
}

/// Spill buckets partitioned by the high bits of `src`, all stored in one
/// sibling file of the output (removed on drop, success or not).  Writers
/// reserve space at the end of the file with an atomic cursor and write
/// there positionally, so pass-1 workers flush concurrently, and each
/// bucket's pending buffer has its own lock.
struct SpillBuckets {
    path: PathBuf,
    file: fs::File,
    end: AtomicU64,
    shift: u32,
    flush_edges: usize,
    buckets: Vec<Mutex<Bucket>>,
}

/// `Write` at an advancing offset of a shared file.
struct WriteAt<'a> {
    file: &'a fs::File,
    offset: u64,
}

impl Write for WriteAt<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.file.write_at(buf, self.offset)?;
        self.offset += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl SpillBuckets {
    fn create(output: &Path, n_buckets: usize, shift: u32, mem_budget: usize) -> Result<Self> {
        let mut name = output
            .file_name()
            .map(|n| n.to_os_string())
            .unwrap_or_else(|| "graph".into());
        name.push(".spill");
        let path = output.with_file_name(name);
        // Earlier versions spilled into a directory of this name; clear one
        // left by a crashed run.  A stale file is truncated below.
        if path.is_dir() {
            fs::remove_dir_all(&path)?;
        }
        let file = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        let flush_edges =
            (mem_budget / 8 / n_buckets).clamp(*FLUSH_EDGES.start(), *FLUSH_EDGES.end());
        Ok(SpillBuckets {
            path,
            file,
            end: AtomicU64::new(0),
            shift,
            flush_edges,
            buckets: (0..n_buckets)
                .map(|_| {
                    Mutex::new(Bucket {
                        pending: Vec::with_capacity(flush_edges),
                        extents: Vec::new(),
                    })
                })
                .collect(),
        })
    }

    fn n_buckets(&self) -> usize {
        self.buckets.len()
    }

    fn bucket_of(&self, packed: u64) -> usize {
        (packed >> (32 + self.shift)) as usize
    }

    fn lock(&self, bucket: usize) -> std::sync::MutexGuard<'_, Bucket> {
        // A worker that panicked mid-append is re-raised by the pool; the
        // bucket itself stays a valid edge list.
        self.buckets[bucket]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Edges a bucket holds, pending and written.
    fn len(&self, bucket: usize) -> usize {
        let guard = self.lock(bucket);
        let written: u64 = guard.extents.iter().map(|e| e.end - e.start).sum();
        guard.pending.len() + written as usize / 8
    }

    /// Replace `edges` with a bucket's pending edges and take its extents,
    /// leaving the bucket empty (its buffer keeps its allocation).
    fn take_into(&self, bucket: usize, edges: &mut Vec<u64>) -> Vec<Range<u64>> {
        let mut guard = self.lock(bucket);
        edges.clear();
        edges.append(&mut guard.pending);
        std::mem::take(&mut guard.extents)
    }

    /// Partition a block of packed edges by bucket (a counting sort through
    /// `scratch`) and append each bucket's run to its pending buffer.  A
    /// buffer the run would push past `flush_edges` is written out first,
    /// and a run of `flush_edges` or more is written out directly.
    fn append(&self, edges: &[u64], scratch: &mut Vec<u64>) -> Result<()> {
        let n_buckets = self.n_buckets();
        let mut bounds = vec![0usize; n_buckets + 1];
        for &packed in edges {
            bounds[self.bucket_of(packed) + 1] += 1;
        }
        for bucket in 0..n_buckets {
            bounds[bucket + 1] += bounds[bucket];
        }
        let mut next = bounds.clone();
        scratch.resize(edges.len(), 0);
        for &packed in edges {
            let slot = &mut next[self.bucket_of(packed)];
            scratch[*slot] = packed;
            *slot += 1;
        }
        for bucket in 0..n_buckets {
            let run = &scratch[bounds[bucket]..bounds[bucket + 1]];
            if run.is_empty() {
                continue;
            }
            let mut guard = self.lock(bucket);
            let Bucket { pending, extents } = &mut *guard;
            // Never grow the buffer: buffers reallocated on pool threads
            // leave freed memory resident in those threads' arenas.
            if pending.len() + run.len() > self.flush_edges && !pending.is_empty() {
                extents.push(self.write_new(pending)?);
                pending.clear();
            }
            if run.len() >= self.flush_edges {
                extents.push(self.write_new(run)?);
            } else {
                pending.extend_from_slice(run);
            }
        }
        Ok(())
    }

    /// Write `edges` at `offset` through the fault layer.
    fn write_at(&self, offset: u64, edges: &[u64]) -> Result<()> {
        let mut out = WriteAt {
            file: &self.file,
            offset,
        };
        let mut bytes = Vec::with_capacity(edges.len().min(IO_CHUNK_EDGES) * 8);
        for chunk in edges.chunks(IO_CHUNK_EDGES) {
            bytes.clear();
            for packed in chunk {
                bytes.extend_from_slice(&packed.to_le_bytes());
            }
            faults::write_all(&mut out, &bytes, &self.path)?;
        }
        Ok(())
    }

    /// Write `edges` at the end of the file; returns the extent they fill.
    fn write_new(&self, edges: &[u64]) -> Result<Range<u64>> {
        let len = edges.len() as u64 * 8;
        let offset = self.end.fetch_add(len, Ordering::Relaxed);
        self.write_at(offset, edges)?;
        Ok(offset..offset + len)
    }

    /// Write `edges` over a bucket's old `extents`, in order, and append
    /// what does not fit; returns the extents now holding `edges`.
    /// Rewriting cached pages in place is far cheaper than truncating or
    /// unlinking and writing afresh, and keeps the file at one copy of the
    /// edges.
    fn store(&self, extents: &[Range<u64>], edges: &[u64]) -> Result<Vec<Range<u64>>> {
        let mut rest = edges;
        let mut stored = Vec::new();
        for extent in extents {
            if rest.is_empty() {
                break;
            }
            let n = (((extent.end - extent.start) / 8) as usize).min(rest.len());
            self.write_at(extent.start, &rest[..n])?;
            stored.push(extent.start..extent.start + n as u64 * 8);
            rest = &rest[n..];
        }
        if !rest.is_empty() {
            stored.push(self.write_new(rest)?);
        }
        Ok(stored)
    }

    /// Append the edges stored in `extents` to `edges`.
    fn read(&self, extents: &[Range<u64>], edges: &mut Vec<u64>) -> Result<()> {
        let mut bytes = vec![0u8; IO_CHUNK_EDGES * 8];
        for extent in extents {
            let mut offset = extent.start;
            while offset < extent.end {
                let chunk =
                    &mut bytes[..(extent.end - offset).min(IO_CHUNK_EDGES as u64 * 8) as usize];
                self.file.read_exact_at(chunk, offset)?;
                edges.extend(
                    chunk
                        .chunks_exact(8)
                        .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte chunk"))),
                );
                offset += chunk.len() as u64;
            }
        }
        Ok(())
    }
}

impl Drop for SpillBuckets {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// Pick the bucket fan-out: smallest power of two whose expected *largest*
/// bucket (the low-id hot bucket, shrinking by the dominant row marginal per
/// partition level) fits one worker's share of the sort budget, so
/// `workers` buckets sorted at once fit it together.  Capped at 1 024
/// buckets.
fn bucket_levels(cfg: &RmatConfig, workers: usize) -> u32 {
    let samples = cfg
        .n_edges
        .saturating_mul(if cfg.symmetric { 2 } else { 1 });
    let total_bytes = samples.saturating_mul(8) as f64;
    let budget = (cfg.mem_budget / workers.max(1)) as f64;
    let skew = (cfg.a + cfg.b).max(cfg.c + cfg.d).max(0.5);
    let mut levels = 0u32;
    let mut hot = total_bytes;
    while hot > budget && levels < cfg.scale.min(10) {
        hot *= skew;
        levels += 1;
    }
    levels
}

/// Run `worker` on up to every executor of `ctx`, never more than there are
/// blocks.  Workers pull `block`-sized ranges of `0..n` from a shared cursor
/// through the `claim` closure they are handed.  The first error stops
/// every worker from claiming more and is returned once all have drained.
///
/// Each worker gets its own `scratch`, made here on the calling thread:
/// memory that a pool thread allocates stays resident in that thread's
/// allocator arena after it is freed, long after the pool is gone.
fn run_claiming<S, W>(
    ctx: &ExecContext,
    n: u64,
    block: u64,
    scratch: impl Fn() -> S,
    worker: W,
) -> Result<()>
where
    S: Send,
    W: Fn(&mut S, &mut dyn FnMut() -> Option<Range<u64>>) -> Result<()> + Sync,
{
    let cursor = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let first_error = Mutex::new(None);
    let blocks = usize::try_from(n.div_ceil(block)).unwrap_or(usize::MAX);
    let threads = ctx.resolve_threads().min(blocks);
    let scratch = Mutex::new((0..threads).map(|_| scratch()).collect::<Vec<S>>());
    ctx.run_epoch_workers(threads, || {
        let mut mine = scratch
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop()
            .expect("run_epoch_workers starts at most `threads` executors");
        let mut claim = || {
            if stop.load(Ordering::Relaxed) {
                return None;
            }
            let start = cursor.fetch_add(block, Ordering::Relaxed);
            (start < n).then(|| start..n.min(start + block))
        };
        if let Err(e) = worker(&mut mine, &mut claim) {
            stop.store(true, Ordering::Relaxed);
            first_error
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .get_or_insert(e);
        }
    });
    first_error
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .map_or(Ok(()), Err)
}

/// Generate an R-MAT graph and publish it at `path` as an `M3GRPH01`
/// container, returning what was written.  Runs on a default
/// [`ExecContext`] (every hardware thread); see [`generate_rmat_ctx`].
pub fn generate_rmat(path: impl AsRef<Path>, cfg: &RmatConfig) -> Result<RmatSummary> {
    generate_rmat_ctx(path, cfg, &ExecContext::new())
}

/// [`generate_rmat`] on the executors of `ctx`.  See the module docs for
/// the two-pass external pipeline; peak memory tracks
/// [`RmatConfig::mem_budget`], not the edge count, and the published bytes
/// are the same for every thread count.
pub fn generate_rmat_ctx(
    path: impl AsRef<Path>,
    cfg: &RmatConfig,
    ctx: &ExecContext,
) -> Result<RmatSummary> {
    let path = path.as_ref();
    cfg.validate()?;
    let n_nodes = cfg.n_nodes();

    let levels = bucket_levels(cfg, ctx.resolve_threads());
    let n_buckets = 1usize << levels;
    let spill = SpillBuckets::create(path, n_buckets, cfg.scale - levels, cfg.mem_budget)?;

    // Pass 1: sample edges, drop self-loops, spill packed (src, dst) pairs.
    let self_loops = AtomicU64::new(0);
    let buffers = || {
        let edges = 2 * SAMPLE_BLOCK as usize;
        (Vec::with_capacity(edges), Vec::with_capacity(edges))
    };
    run_claiming(
        ctx,
        cfg.n_edges,
        SAMPLE_BLOCK,
        buffers,
        |(sampled, scratch), claim| {
            let mut loops = 0u64;
            while let Some(indices) = claim() {
                sampled.clear();
                for i in indices {
                    let (src, dst) = rmat_edge(cfg, i);
                    if src == dst {
                        loops += 1;
                        continue;
                    }
                    sampled.push(((src as u64) << 32) | dst as u64);
                    if cfg.symmetric {
                        sampled.push(((dst as u64) << 32) | src as u64);
                    }
                }
                spill.append(sampled, scratch)?;
            }
            self_loops.fetch_add(loops, Ordering::Relaxed);
            Ok(())
        },
    )?;

    // Pass 2a: sort + dedup each bucket (its spilled and still-pending
    // edges) in isolation to learn exact totals.
    let written = AtomicU64::new(0);
    let duplicates = AtomicU64::new(0);
    let largest = (0..n_buckets).map(|b| spill.len(b)).max().unwrap_or(0);
    let sort_buffer = || Vec::with_capacity(largest);
    run_claiming(ctx, n_buckets as u64, 1, sort_buffer, |edges, claim| {
        while let Some(buckets) = claim() {
            let bucket = buckets.start as usize;
            let extents = spill.take_into(bucket, edges);
            spill.read(&extents, edges)?;
            let before = edges.len();
            edges.sort_unstable();
            edges.dedup();
            duplicates.fetch_add((before - edges.len()) as u64, Ordering::Relaxed);
            written.fetch_add(edges.len() as u64, Ordering::Relaxed);
            let stored = spill.store(&extents, edges)?;
            spill.lock(bucket).extents = stored;
        }
        Ok(())
    })?;
    let written_edges = written.into_inner();

    // Pass 2b: stream the sorted buckets into the crash-safe builder.
    // Buckets are ordered by the high bits of `src` and sorted within, so a
    // single forward walk emits every row in order; vertices with no
    // out-edges get explicit empty rows.
    let mut builder = GraphFileBuilder::create(path, n_nodes as usize, written_edges as usize)?;
    let mut row: Vec<u32> = Vec::new();
    let mut current: u64 = 0;
    let mut edges = Vec::with_capacity(largest);
    for bucket in 0..n_buckets {
        let extents = spill.take_into(bucket, &mut edges);
        spill.read(&extents, &mut edges)?;
        for &packed in &edges {
            let src = packed >> 32;
            let dst = (packed & 0xFFFF_FFFF) as u32;
            while current < src {
                builder.push_node(&row)?;
                row.clear();
                current += 1;
            }
            row.push(dst);
        }
    }
    while current < n_nodes {
        builder.push_node(&row)?;
        row.clear();
        current += 1;
    }
    builder.finish()?;
    drop(spill);

    Ok(RmatSummary {
        n_nodes,
        requested_edges: cfg.n_edges,
        written_edges,
        self_loops_dropped: self_loops.into_inner(),
        duplicates_dropped: duplicates.into_inner(),
    })
}

/// Convenience wrapper: generate and immediately reopen for reading.
pub fn generate_rmat_graph(path: impl AsRef<Path>, cfg: &RmatConfig) -> Result<GraphFile> {
    generate_rmat(&path, cfg)?;
    Ok(GraphFile::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3_core::AdjacencyStore;

    fn small_cfg() -> RmatConfig {
        RmatConfig::new(8, 2_000).with_mem_budget(64 << 10)
    }

    #[test]
    fn generates_a_valid_sorted_graph() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("rmat.m3g");
        let summary = generate_rmat(&path, &small_cfg()).unwrap();
        let graph = GraphFile::open_verified(&path).unwrap();
        assert_eq!(graph.n_nodes() as u64, summary.n_nodes);
        assert_eq!(graph.n_edges() as u64, summary.written_edges);
        assert_eq!(
            summary.written_edges + summary.duplicates_dropped,
            2 * (summary.requested_edges - summary.self_loops_dropped),
            "every surviving sample is either written or a duplicate"
        );
        let mut seen_edges = 0usize;
        for v in 0..graph.n_nodes() {
            let row = graph.neighbors(v);
            assert!(
                row.windows(2).all(|w| w[0] < w[1]),
                "row {v} must be strictly increasing"
            );
            assert!(row.iter().all(|&t| (t as u64) < summary.n_nodes));
            assert!(!row.contains(&(v as u32)), "self-loop survived at {v}");
            seen_edges += row.len();
        }
        assert_eq!(seen_edges, graph.n_edges());
        // No spill residue next to the artifact.
        assert!(!path.with_file_name("rmat.m3g.spill").exists());
    }

    #[test]
    fn symmetric_output_has_both_directions() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("sym.m3g");
        let graph = generate_rmat_graph(&path, &small_cfg()).unwrap();
        for v in 0..graph.n_nodes() {
            for &t in graph.neighbors(v) {
                assert!(
                    graph.neighbors(t as usize).contains(&(v as u32)),
                    "edge {v}->{t} has no mirror"
                );
            }
        }
    }

    #[test]
    fn same_seed_same_file_different_seed_different_edges() {
        let dir = tempfile::tempdir().unwrap();
        let a = dir.path().join("a.m3g");
        let b = dir.path().join("b.m3g");
        let c = dir.path().join("c.m3g");
        generate_rmat(&a, &small_cfg().with_seed(7)).unwrap();
        generate_rmat(&b, &small_cfg().with_seed(7)).unwrap();
        generate_rmat(&c, &small_cfg().with_seed(8)).unwrap();
        let bytes_a = std::fs::read(&a).unwrap();
        assert_eq!(bytes_a, std::fs::read(&b).unwrap(), "seeded determinism");
        assert_ne!(bytes_a, std::fs::read(&c).unwrap(), "seed must matter");
    }

    #[test]
    fn bucket_fanout_is_independent_of_results() {
        // Shrinking the budget changes only the external-sort fan-out,
        // never the published bytes.
        let dir = tempfile::tempdir().unwrap();
        let one = dir.path().join("one.m3g");
        let many = dir.path().join("many.m3g");
        let cfg = small_cfg();
        assert_eq!(bucket_levels(&cfg.clone().with_mem_budget(1 << 30), 1), 0);
        generate_rmat(&one, &cfg.clone().with_mem_budget(1 << 30)).unwrap();
        generate_rmat(&many, &cfg.with_mem_budget(64 << 10)).unwrap();
        assert_eq!(std::fs::read(one).unwrap(), std::fs::read(many).unwrap());
    }

    #[test]
    fn more_workers_split_the_budget_into_more_buckets() {
        let cfg = RmatConfig::new(16, 200_000).with_mem_budget(1 << 20);
        let levels: Vec<u32> = [1, 2, 4].map(|w| bucket_levels(&cfg, w)).to_vec();
        assert!(levels.windows(2).all(|w| w[0] < w[1]), "{levels:?}");
        assert_eq!(bucket_levels(&cfg, 0), levels[0], "0 workers count as 1");
        // The fan-out stays capped at 1 024 buckets.
        assert_eq!(bucket_levels(&cfg.with_mem_budget(64 << 10), 64), 10);
    }

    #[test]
    fn pending_buffers_fit_the_budget_within_bounds() {
        let dir = tempfile::tempdir().unwrap();
        let output = dir.path().join("g.m3g");
        for (n_buckets, budget, flush) in [
            (1024, 8 << 20, 1024),
            (1024, 64 << 10, 512),
            (1, 1 << 30, 8 << 10),
            (16, 1 << 20, 8 << 10),
        ] {
            let spill = SpillBuckets::create(&output, n_buckets, 0, budget).unwrap();
            assert_eq!(spill.flush_edges, flush, "{n_buckets} buckets, {budget} B");
        }
        assert!(
            !dir.path().join("g.m3g.spill").exists(),
            "dropped spill file"
        );
    }

    /// The selector `rmat_edge` used before it went branch-free.
    fn quadrant_branchy(r: f64, a: f64, ab: f64, abc: f64) -> (u32, u32) {
        if r < a {
            (0, 0)
        } else if r < ab {
            (0, 1)
        } else if r < abc {
            (1, 0)
        } else {
            (1, 1)
        }
    }

    #[test]
    fn branch_free_quadrant_matches_the_branchy_selector() {
        let params: [(f64, f64, f64); 7] = [
            (0.57, 0.19, 0.19),
            (0.25, 0.25, 0.25),
            (0.45, 0.0, 0.3),
            (0.5, 0.3, 0.0),
            (0.0, 0.5, 0.5),
            (1.0, 0.0, 0.0),
            (0.0, 0.0, 0.0),
        ];
        let mut state = 0xD1CE_u64;
        for (a, b, c) in params {
            let ab = a + b;
            let abc = ab + c;
            let mut probes = vec![0.0, 1.0 - f64::EPSILON / 2.0];
            // Exactly on each boundary, and one ulp either side of it.
            for edge in [a, ab, abc] {
                probes.extend([edge.next_down(), edge, edge.next_up()]);
            }
            probes.extend((0..10_000).map(|_| unit_f64(splitmix64(&mut state))));
            for r in probes {
                assert_eq!(
                    quadrant(r, a, ab, abc),
                    quadrant_branchy(r, a, ab, abc),
                    "r={r} a={a} b={b} c={c}"
                );
            }
        }
    }

    /// FNV-1a over the published bytes.
    fn digest(path: &Path) -> u64 {
        std::fs::read(path)
            .unwrap()
            .iter()
            .fold(0xCBF2_9CE4_8422_2325, |h, &b| {
                (h ^ b as u64).wrapping_mul(0x0100_0000_01B3)
            })
    }

    #[test]
    fn golden_bytes_at_every_thread_count() {
        // Digests recorded with the serial generator that preceded the
        // pooled one.  100 000 samples span two sample blocks, and the
        // 64 KiB budget fans out to the full 1 024 buckets.
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("golden.m3g");
        let cfg = RmatConfig::new(12, 100_000)
            .with_seed(0x5EED)
            .with_mem_budget(64 << 10);
        let cases = [
            (cfg.clone(), 0x3CBE_6A03_705A_A328, 137_370, 61_976),
            (
                cfg.with_symmetric(false),
                0x8A2F_4D82_E105_65BD,
                77_040,
                22_633,
            ),
        ];
        for (cfg, golden, written, duplicates) in cases {
            for ctx in [
                ExecContext::serial(),
                ExecContext::new().with_threads(2),
                ExecContext::new().with_threads(4),
            ] {
                let summary = generate_rmat_ctx(&path, &cfg, &ctx).unwrap();
                let threads = ctx.threads();
                assert_eq!(digest(&path), golden, "{threads} threads");
                assert_eq!(summary.written_edges, written, "{threads} threads");
                assert_eq!(summary.duplicates_dropped, duplicates, "{threads} threads");
                assert_eq!(summary.self_loops_dropped, 327, "{threads} threads");
            }
        }
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("bad.m3g");
        let bad = [
            RmatConfig {
                scale: 0,
                ..small_cfg()
            },
            RmatConfig {
                scale: 32,
                ..small_cfg()
            },
            RmatConfig {
                n_edges: 0,
                ..small_cfg()
            },
            RmatConfig {
                a: -0.1,
                b: 0.5,
                c: 0.3,
                d: 0.3,
                ..small_cfg()
            },
            RmatConfig {
                a: 0.9,
                b: 0.9,
                c: 0.1,
                d: 0.1,
                ..small_cfg()
            },
            RmatConfig {
                d: f64::NAN,
                ..small_cfg()
            },
            small_cfg().with_mem_budget(1024),
        ];
        for cfg in bad {
            let err = generate_rmat(&path, &cfg).unwrap_err();
            assert!(
                matches!(err, DataError::InvalidConfig(_)),
                "expected InvalidConfig, got {err}"
            );
            assert!(!path.exists(), "rejected config must not leave a file");
        }
    }

    #[test]
    fn asymmetric_mode_skips_mirroring() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("dir.m3g");
        let summary = generate_rmat(&path, &small_cfg().with_symmetric(false)).unwrap();
        assert_eq!(
            summary.written_edges + summary.duplicates_dropped,
            summary.requested_edges - summary.self_loops_dropped,
        );
    }
}
