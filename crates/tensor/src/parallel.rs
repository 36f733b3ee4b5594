//! Chunked multi-threaded primitives for large gradient vectors.
//!
//! The ImageNet-scale benchmarks in the paper compress vectors with up to 144M
//! elements; a single pass is memory-bandwidth bound, so these helpers split the
//! buffer into contiguous chunks and execute them on a
//! [`Runtime`](sidco_runtime::Runtime): the persistent NUMA-aware
//! work-stealing pool ([`WorkStealing`](sidco_runtime::WorkStealing)) or, for
//! a single worker, [`Inline`](sidco_runtime::Inline). Each primitive has one
//! entry point, the `*_on` form taking the runtime explicitly; the engine in
//! `sidco-core` is the front end that picks the runtime.
//!
//! # Determinism contract
//!
//! Every function here partitions its input into chunks of a **fixed chunk size**
//! ([`DEFAULT_CHUNK_SIZE`] unless the caller picks another), *never* a size derived
//! from the runtime's worker count. Each chunk writes its partial result into
//! its own slot, and slots are always merged in chunk order. The runtime
//! therefore only decides *where and when* the (identical) chunk list
//! executes, so every reduction and selection below is **bit-identical across
//! worker counts and steal orders**. The engine in `sidco-core` builds on this
//! to guarantee that compressors produce the same `SparseGradient` at 1, 2 or
//! 64 threads. (Across *machines* the guarantee holds up to platform `libm`
//! rounding: the moment passes call `ln`, whose last bit may differ between
//! libc implementations, which can move a fitted threshold by one ulp.)

use crate::sparse::SparseGradient;
use crate::threshold::cap_largest;
use crate::topk::{top_k, TopKAlgorithm};
use sidco_runtime::Runtime;
use sidco_stats::moments::{AbsMoments, SignedMoments};
use std::sync::Mutex;

/// Default number of elements per chunk (64Ki). Small enough to expose
/// parallelism on megabyte-scale gradients, large enough that the per-chunk
/// bookkeeping is negligible.
pub const DEFAULT_CHUNK_SIZE: usize = 1 << 16;

/// Applies `f` to every fixed-size chunk of `data` on an explicit
/// [`Runtime`], and returns the per-chunk results **in chunk order**.
///
/// The chunk decomposition depends only on `chunk_size`, and every chunk
/// writes its result into its own pre-allocated slot, so the result vector is
/// identical for every runtime, worker count, and steal order.
///
/// `f` receives the chunk index and the chunk slice; the element offset of chunk
/// `c` is `c * chunk_size`.
///
/// # Panics
///
/// Panics if `chunk_size == 0`.
pub fn map_chunks_on<T, R, F>(data: &[T], chunk_size: usize, runtime: &dyn Runtime, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    assert!(chunk_size > 0, "chunk_size must be positive");
    let num_chunks = data.len().div_ceil(chunk_size);
    if num_chunks == 0 {
        return Vec::new();
    }
    if runtime.parallelism() <= 1 || num_chunks == 1 {
        return data
            .chunks(chunk_size)
            .enumerate()
            .map(|(c, chunk)| f(c, chunk))
            .collect();
    }
    // One slot per chunk: the runtime decides where each index runs, the slot
    // layout (and the in-order drain below) fixes the merge order.
    let slots: Vec<Mutex<Option<R>>> = (0..num_chunks).map(|_| Mutex::new(None)).collect();
    runtime.run_indexed(num_chunks, &|c| {
        let start = c * chunk_size;
        let end = (start + chunk_size).min(data.len());
        let result = f(c, &data[start..end]);
        *slots[c].lock().expect("chunk slot poisoned") = Some(result);
    });
    slots
        .into_iter()
        .enumerate()
        .map(|(c, slot)| {
            slot.into_inner()
                .expect("chunk slot poisoned")
                .unwrap_or_else(|| panic!("runtime never executed chunk {c}"))
        })
        .collect()
}

/// Computes [`AbsMoments`] of a gradient in fixed-size chunks on `runtime`.
///
/// Bit-identical across worker counts (see the module docs); within
/// floating-point reassociation error of [`AbsMoments::compute`].
pub fn abs_moments_on(grad: &[f32], chunk_size: usize, runtime: &dyn Runtime) -> AbsMoments {
    let parts = map_chunks_on(grad, chunk_size, runtime, |_, chunk| {
        AbsMoments::compute(chunk)
    });
    merge_abs_moments(&parts)
}

/// Computes the shifted exceedance moments (`|g| - threshold` for
/// `|g| >= threshold`, the peaks-over-threshold input of Lemma 2) in
/// fixed-size chunks on `runtime`.
pub fn exceedance_moments_on(
    grad: &[f32],
    threshold: f64,
    chunk_size: usize,
    runtime: &dyn Runtime,
) -> AbsMoments {
    let parts = map_chunks_on(grad, chunk_size, runtime, |_, chunk| {
        AbsMoments::compute_exceedances(chunk, threshold)
    });
    merge_abs_moments(&parts)
}

/// Computes [`SignedMoments`] in fixed-size chunks on `runtime` (the
/// Gaussian-fit input of the GaussianKSGD baseline).
pub fn signed_moments_on(grad: &[f32], chunk_size: usize, runtime: &dyn Runtime) -> SignedMoments {
    let parts = map_chunks_on(grad, chunk_size, runtime, |_, chunk| {
        SignedMoments::compute(chunk)
    });
    merge_signed_moments(&parts)
}

/// Counts elements with `|g| >= threshold` in fixed-size chunks on
/// `runtime`. Exact (integer sum), so always equal to
/// [`crate::threshold::count_above_threshold`].
pub fn count_above_threshold_on(
    grad: &[f32],
    threshold: f64,
    chunk_size: usize,
    runtime: &dyn Runtime,
) -> usize {
    map_chunks_on(grad, chunk_size, runtime, |_, chunk| {
        crate::threshold::count_above_threshold(chunk, threshold)
    })
    .into_iter()
    .sum()
}

/// Parallel `C_η` operator: selects all elements with `|g| >= threshold` into a
/// sparse gradient using per-chunk index/value buffers that are concatenated in
/// chunk order — no re-sorting is needed because chunk order *is* index order.
///
/// Bit-identical to [`crate::threshold::select_above_threshold`] for every
/// runtime and `chunk_size` value (the per-element comparison is unchanged).
pub fn select_above_threshold_on(
    grad: &[f32],
    threshold: f64,
    chunk_size: usize,
    runtime: &dyn Runtime,
) -> SparseGradient {
    let t = threshold as f32;
    let parts: Vec<(Vec<u32>, Vec<f32>)> = map_chunks_on(grad, chunk_size, runtime, |c, chunk| {
        let offset = (c * chunk_size) as u32;
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for (i, &g) in chunk.iter().enumerate() {
            if g.abs() >= t {
                indices.push(offset + i as u32);
                values.push(g);
            }
        }
        (indices, values)
    });
    concat_sparse_parts(parts, grad.len())
}

/// Parallel exact Top-k via chunked partial selection: each chunk selects its
/// own top `min(k, chunk_len)` candidates, then one exact selection over the
/// (much smaller) candidate set picks the global top `k`.
///
/// The effective chunk size is raised to at least `2k` so every chunk discards
/// at least half of its elements — a smaller chunk would nominate itself
/// wholesale and degenerate into a sequential full materialisation.
///
/// Ties at the selection boundary are broken deterministically by ascending
/// index, and the returned indices are sorted ascending, so the result depends
/// only on `(grad, k, chunk_size)` — never on the runtime. Uses quickselect
/// within each chunk; [`top_k_on_with`] exposes the per-chunk algorithm.
pub fn top_k_on(
    grad: &[f32],
    k: usize,
    chunk_size: usize,
    runtime: &dyn Runtime,
) -> SparseGradient {
    top_k_on_with(grad, k, chunk_size, runtime, TopKAlgorithm::QuickSelect)
}

/// [`top_k_on`] with an explicit per-chunk selection algorithm (the
/// algorithm can change which tied-magnitude candidates each chunk nominates,
/// but never the result's dependence on the runtime).
pub fn top_k_on_with(
    grad: &[f32],
    k: usize,
    chunk_size: usize,
    runtime: &dyn Runtime,
    algorithm: TopKAlgorithm,
) -> SparseGradient {
    let k = k.min(grad.len());
    if k == 0 {
        return SparseGradient::empty(grad.len());
    }
    if k == grad.len() {
        let indices: Vec<u32> = (0..grad.len() as u32).collect();
        return SparseGradient::new(indices, grad.to_vec(), grad.len());
    }
    // Keep every chunk at least 2k elements so the partial stage always
    // discards at least half of each chunk; a smaller chunk would nominate
    // itself wholesale. The effective size is a pure function of
    // (k, chunk_size) — never of the runtime — so determinism per
    // configuration holds.
    let chunk_size = chunk_size.max(2 * k);
    let parts: Vec<(Vec<u32>, Vec<f32>)> = map_chunks_on(grad, chunk_size, runtime, |c, chunk| {
        let offset = (c * chunk_size) as u32;
        let local = top_k(chunk, k.min(chunk.len()), algorithm);
        let mut pairs: Vec<(u32, f32)> = local.iter().map(|(i, v)| (offset + i, v)).collect();
        pairs.sort_by_key(|&(i, _)| i);
        pairs.into_iter().unzip()
    });
    let total: usize = parts.iter().map(|(i, _)| i.len()).sum();
    let mut candidates = Vec::with_capacity(total);
    for (indices, values) in parts {
        candidates.extend(indices.into_iter().zip(values));
    }
    // Global cut over the (index-sorted) candidates: cap_largest applies the
    // same magnitude-descending / index-ascending tie-break contract.
    cap_largest(SparseGradient::from_pairs(candidates, grad.len()), k)
}

/// Concatenates per-chunk `(indices, values)` buffers into one sparse gradient,
/// reserving the exact total size first.
fn concat_sparse_parts(parts: Vec<(Vec<u32>, Vec<f32>)>, dense_len: usize) -> SparseGradient {
    let total: usize = parts.iter().map(|(i, _)| i.len()).sum();
    let mut indices = Vec::with_capacity(total);
    let mut values = Vec::with_capacity(total);
    for (i, v) in parts {
        indices.extend(i);
        values.extend(v);
    }
    SparseGradient::new(indices, values, dense_len)
}

/// Merges per-chunk absolute moments into the moments of the concatenated data.
///
/// A single part is returned as-is (bit-exact with the sequential computation);
/// multiple parts are combined in slice order so the result is deterministic for
/// a fixed chunk decomposition.
fn merge_abs_moments(parts: &[AbsMoments]) -> AbsMoments {
    if parts.len() == 1 {
        return parts[0];
    }
    let total: usize = parts.iter().map(|p| p.count).sum();
    if total == 0 {
        return AbsMoments {
            count: 0,
            positive_count: 0,
            mean: 0.0,
            variance: 0.0,
            mean_ln: 0.0,
            max: 0.0,
        };
    }
    let positive: usize = parts.iter().map(|p| p.positive_count).sum();
    let n = total as f64;
    let mean = parts.iter().map(|p| p.mean * p.count as f64).sum::<f64>() / n;
    // E[X²] per part = var + mean², combine then re-centre.
    let second_moment = parts
        .iter()
        .map(|p| (p.variance + p.mean * p.mean) * p.count as f64)
        .sum::<f64>()
        / n;
    let variance = (second_moment - mean * mean).max(0.0);
    let mean_ln = if positive > 0 {
        parts
            .iter()
            .map(|p| p.mean_ln * p.positive_count as f64)
            .sum::<f64>()
            / positive as f64
    } else {
        0.0
    };
    let max = parts.iter().fold(0.0f64, |m, p| m.max(p.max));
    AbsMoments {
        count: total,
        positive_count: positive,
        mean,
        variance,
        mean_ln,
        max,
    }
}

/// Merges per-chunk signed moments into the moments of the concatenated data.
fn merge_signed_moments(parts: &[SignedMoments]) -> SignedMoments {
    if parts.len() == 1 {
        return parts[0];
    }
    let total: usize = parts.iter().map(|p| p.count).sum();
    if total == 0 {
        return SignedMoments {
            count: 0,
            mean: 0.0,
            variance: 0.0,
            min: 0.0,
            max: 0.0,
        };
    }
    let n = total as f64;
    let mean = parts.iter().map(|p| p.mean * p.count as f64).sum::<f64>() / n;
    let second_moment = parts
        .iter()
        .map(|p| (p.variance + p.mean * p.mean) * p.count as f64)
        .sum::<f64>()
        / n;
    let variance = (second_moment - mean * mean).max(0.0);
    let min = parts
        .iter()
        .filter(|p| p.count > 0)
        .fold(f64::INFINITY, |m, p| m.min(p.min));
    let max = parts
        .iter()
        .filter(|p| p.count > 0)
        .fold(f64::NEG_INFINITY, |m, p| m.max(p.max));
    SignedMoments {
        count: total,
        mean,
        variance,
        min,
        max,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use sidco_runtime::{handle, Inline, RuntimeKind};

    fn random_gradient(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
    }

    /// The shared runtime for a worker budget: [`Inline`] at 1, the pool
    /// above.
    fn runtime(threads: usize) -> &'static dyn Runtime {
        handle(RuntimeKind::Pool, threads)
    }

    #[test]
    fn parallel_moments_match_sequential() {
        let grad = random_gradient(300_000, 61);
        let seq = AbsMoments::compute(&grad);
        for threads in [1, 2, 4] {
            let par = abs_moments_on(&grad, DEFAULT_CHUNK_SIZE, runtime(threads));
            assert_eq!(par.count, seq.count);
            assert_eq!(par.positive_count, seq.positive_count);
            assert!((par.mean - seq.mean).abs() < 1e-9);
            assert!((par.variance - seq.variance).abs() < 1e-9);
            assert!((par.mean_ln - seq.mean_ln).abs() < 1e-9);
            assert!((par.max - seq.max).abs() < 1e-12);
        }
    }

    #[test]
    fn moments_are_bit_identical_across_thread_counts() {
        // Chunking depends only on the chunk size, so every worker count
        // produces the exact same bits as the inline runtime.
        let grad = random_gradient(500_000, 71);
        let reference = abs_moments_on(&grad, DEFAULT_CHUNK_SIZE, &Inline);
        let signed_ref = signed_moments_on(&grad, 1 << 12, &Inline);
        let exceed_ref = exceedance_moments_on(&grad, 0.5, 1 << 12, &Inline);
        for threads in [2, 3, 7] {
            let pool = runtime(threads);
            assert_eq!(abs_moments_on(&grad, DEFAULT_CHUNK_SIZE, pool), reference);
            assert_eq!(signed_moments_on(&grad, 1 << 12, pool), signed_ref);
            assert_eq!(exceedance_moments_on(&grad, 0.5, 1 << 12, pool), exceed_ref);
        }
    }

    #[test]
    fn parallel_count_matches_sequential() {
        let grad = random_gradient(300_000, 62);
        let seq = crate::threshold::count_above_threshold(&grad, 0.5);
        for threads in [1, 3, 7] {
            assert_eq!(
                count_above_threshold_on(&grad, 0.5, DEFAULT_CHUNK_SIZE, runtime(threads)),
                seq
            );
        }
    }

    #[test]
    fn small_inputs_fall_back_to_sequential() {
        let grad = random_gradient(100, 63);
        let pool = runtime(7);
        let par = abs_moments_on(&grad, DEFAULT_CHUNK_SIZE, pool);
        let seq = AbsMoments::compute(&grad);
        assert_eq!(par, seq);
        assert_eq!(
            count_above_threshold_on(&grad, 0.2, DEFAULT_CHUNK_SIZE, pool),
            crate::threshold::count_above_threshold(&grad, 0.2)
        );
    }

    #[test]
    fn merge_handles_empty_parts() {
        let empty = AbsMoments::compute(&[]);
        let merged = merge_abs_moments(&[empty, empty]);
        assert_eq!(merged.count, 0);
        assert_eq!(merged.mean, 0.0);
        let merged = merge_signed_moments(&[SignedMoments::compute(&[]); 2]);
        assert_eq!(merged.count, 0);
        assert_eq!(merged.min, 0.0);
    }

    #[test]
    fn map_chunks_preserves_chunk_order() {
        let data: Vec<f32> = (0..1000).map(|i| i as f32).collect();
        for threads in [1, 2, 3, 7] {
            let firsts = map_chunks_on(&data, 64, runtime(threads), |c, chunk| (c, chunk[0]));
            assert_eq!(firsts.len(), 1000usize.div_ceil(64));
            for (c, &(idx, first)) in firsts.iter().enumerate() {
                assert_eq!(idx, c);
                assert_eq!(first, (c * 64) as f32);
            }
        }
        assert!(map_chunks_on(&[] as &[f32], 64, runtime(3), |_, _| 0).is_empty());
    }

    #[test]
    fn pool_and_inline_runtimes_produce_identical_bits() {
        use sidco_runtime::{NumaTopology, WorkStealing};
        let grad = random_gradient(100_000, 77);
        // A multi-socket synthetic topology forces cross-socket placement and
        // stealing even on single-socket hosts.
        let pool = WorkStealing::with_topology(4, NumaTopology::synthetic(2, 2));
        for chunk in [97usize, 1 << 12] {
            assert_eq!(
                abs_moments_on(&grad, chunk, &pool),
                abs_moments_on(&grad, chunk, &Inline)
            );
            assert_eq!(
                signed_moments_on(&grad, chunk, &pool),
                signed_moments_on(&grad, chunk, &Inline)
            );
            assert_eq!(
                exceedance_moments_on(&grad, 0.4, chunk, &pool),
                exceedance_moments_on(&grad, 0.4, chunk, &Inline)
            );
            assert_eq!(
                count_above_threshold_on(&grad, 0.4, chunk, &pool),
                count_above_threshold_on(&grad, 0.4, chunk, &Inline)
            );
            assert_eq!(
                select_above_threshold_on(&grad, 0.4, chunk, &pool),
                select_above_threshold_on(&grad, 0.4, chunk, &Inline)
            );
            assert_eq!(
                top_k_on(&grad, 1_717, chunk, &pool),
                top_k_on(&grad, 1_717, chunk, &Inline)
            );
        }
        let stats = pool.stats();
        assert!(stats.chunks_executed > 0);
        assert_eq!(stats.threads_spawned, 4);
    }

    #[test]
    fn parallel_select_is_bit_identical_to_sequential() {
        let grad = random_gradient(200_000, 64);
        let seq = crate::threshold::select_above_threshold(&grad, 0.4);
        for threads in [1, 2, 7] {
            for chunk in [97, 1 << 12, 1 << 20] {
                let par = select_above_threshold_on(&grad, 0.4, chunk, runtime(threads));
                assert_eq!(par, seq);
            }
        }
    }

    #[test]
    fn chunked_topk_matches_count_and_magnitudes() {
        let grad = random_gradient(50_000, 65);
        for &k in &[1usize, 17, 500, 5_000] {
            let exact = top_k(&grad, k, TopKAlgorithm::FullSort);
            let mut exact_mags: Vec<f32> = exact.values().iter().map(|v| v.abs()).collect();
            exact_mags.sort_by(|a, b| b.partial_cmp(a).unwrap());
            let reference = top_k_on(&grad, k, 1 << 10, &Inline);
            for threads in [2, 3, 7] {
                assert_eq!(top_k_on(&grad, k, 1 << 10, runtime(threads)), reference);
            }
            assert_eq!(reference.nnz(), k);
            let mut mags: Vec<f32> = reference.values().iter().map(|v| v.abs()).collect();
            mags.sort_by(|a, b| b.partial_cmp(a).unwrap());
            assert_eq!(mags, exact_mags, "k={k}");
        }
    }

    #[test]
    fn chunked_topk_breaks_ties_by_index() {
        let grad = [1.0f32; 64];
        let s = top_k_on(&grad, 10, 8, runtime(3));
        assert_eq!(s.nnz(), 10);
        let expected: Vec<u32> = (0..10).collect();
        assert_eq!(s.indices(), expected.as_slice());
    }

    #[test]
    fn chunked_topk_edge_cases() {
        let grad = [1.0f32, -2.0, 3.0];
        let pool = runtime(3);
        assert_eq!(top_k_on(&grad, 0, 2, pool).nnz(), 0);
        assert_eq!(top_k_on(&grad, 3, 2, pool).nnz(), 3);
        assert_eq!(top_k_on(&grad, 10, 2, pool).nnz(), 3);
        assert_eq!(top_k_on(&[], 5, 2, pool).nnz(), 0);
    }
}
