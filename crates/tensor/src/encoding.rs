//! Wire encodings for sparse gradients.
//!
//! The default wire format (4-byte index + 4-byte value per element) doubles the
//! payload relative to the values alone. The paper cites follow-up work on cheaper
//! index encodings (Huffman/entropy coding of the index stream); this module
//! implements the two standard practical options so the network model can account
//! for them:
//!
//! * [`delta_varint_encode`] — sort indices, delta-encode, LEB128-varint the gaps
//!   (small gaps at high densities cost 1–2 bytes instead of 4); the index
//!   stream shards across a runtime's workers with per-chunk boundary-gap
//!   stitching ([`delta_varint_encode_on`]), byte-identical to the serial
//!   encoder;
//! * [`bitmap_encode`] — a `d`-bit presence bitmap plus the packed values, which wins
//!   whenever the density exceeds ~1/32.
//!
//! [`best_encoding`] picks the cheapest of the three for a given sparse gradient,
//! which is what a production integration would transmit.

use crate::sparse::SparseGradient;

/// Which wire encoding a sparse gradient was packed with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EncodingKind {
    /// Raw `(u32 index, f32 value)` pairs.
    RawPairs,
    /// Sorted indices, delta + LEB128 varint encoded, followed by packed values.
    DeltaVarint,
    /// Presence bitmap of `d` bits followed by packed values.
    Bitmap,
}

/// An encoded sparse gradient: the chosen encoding plus the byte payload.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedGradient {
    kind: EncodingKind,
    bytes: Vec<u8>,
    dense_len: usize,
    nnz: usize,
}

impl EncodedGradient {
    /// The encoding that was used.
    pub fn kind(&self) -> EncodingKind {
        self.kind
    }

    /// Total wire size in bytes.
    pub fn wire_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Number of encoded non-zero elements.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Length of the original dense vector.
    pub fn dense_len(&self) -> usize {
        self.dense_len
    }

    /// The raw payload.
    pub fn payload(&self) -> &[u8] {
        &self.bytes
    }
}

fn push_varint(out: &mut Vec<u8>, mut value: u32) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

fn read_varint(bytes: &[u8], cursor: &mut usize) -> Option<u32> {
    let mut value = 0u32;
    let mut shift = 0u32;
    loop {
        let byte = *bytes.get(*cursor)?;
        *cursor += 1;
        value |= ((byte & 0x7f) as u32) << shift;
        if byte & 0x80 == 0 {
            return Some(value);
        }
        shift += 7;
        if shift > 28 {
            return None;
        }
    }
}

/// Encodes a sparse gradient as raw `(u32, f32)` pairs (the baseline format whose
/// size [`SparseGradient::wire_bytes`] reports).
pub fn raw_encode(sparse: &SparseGradient) -> EncodedGradient {
    let mut bytes = Vec::with_capacity(sparse.nnz() * 8);
    for (i, v) in sparse.iter() {
        bytes.extend_from_slice(&i.to_le_bytes());
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    EncodedGradient {
        kind: EncodingKind::RawPairs,
        bytes,
        dense_len: sparse.dense_len(),
        nnz: sparse.nnz(),
    }
}

/// Parallel variant of [`raw_encode`] on an explicit
/// [`Runtime`](sidco_runtime::Runtime): the pair stream is split into shards
/// of `pairs_per_chunk` pairs, encoded concurrently and concatenated in
/// shard order, so the payload is **byte-identical** to [`raw_encode`] for
/// every runtime and shard size.
///
/// # Panics
///
/// Panics if `pairs_per_chunk` is zero.
pub fn raw_encode_on(
    sparse: &SparseGradient,
    pairs_per_chunk: usize,
    runtime: &dyn sidco_runtime::Runtime,
) -> EncodedGradient {
    let values = sparse.values();
    let parts = crate::parallel::map_chunks_on(
        sparse.indices(),
        pairs_per_chunk,
        runtime,
        |c, idx_chunk| {
            let offset = c * pairs_per_chunk;
            let mut bytes = Vec::with_capacity(idx_chunk.len() * 8);
            for (j, &i) in idx_chunk.iter().enumerate() {
                bytes.extend_from_slice(&i.to_le_bytes());
                bytes.extend_from_slice(&values[offset + j].to_le_bytes());
            }
            bytes
        },
    );
    let mut bytes = Vec::with_capacity(sparse.nnz() * 8);
    for part in parts {
        bytes.extend(part);
    }
    EncodedGradient {
        kind: EncodingKind::RawPairs,
        bytes,
        dense_len: sparse.dense_len(),
        nnz: sparse.nnz(),
    }
}

/// Encodes a sparse gradient with sorted delta-varint indices followed by the values
/// (re-ordered to match the sorted index order).
pub fn delta_varint_encode(sparse: &SparseGradient) -> EncodedGradient {
    let mut pairs: Vec<(u32, f32)> = sparse.iter().collect();
    pairs.sort_by_key(|&(i, _)| i);
    let mut bytes = Vec::with_capacity(sparse.nnz() * 5);
    push_varint(&mut bytes, sparse.nnz() as u32);
    let mut prev = 0u32;
    for &(i, _) in &pairs {
        let gap = i - prev;
        push_varint(&mut bytes, gap);
        prev = i;
    }
    for &(_, v) in &pairs {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    EncodedGradient {
        kind: EncodingKind::DeltaVarint,
        bytes,
        dense_len: sparse.dense_len(),
        nnz: sparse.nnz(),
    }
}

/// Parallel variant of [`delta_varint_encode`] on an explicit
/// [`Runtime`](sidco_runtime::Runtime): shards the sorted index stream into
/// chunks of `pairs_per_chunk` pairs encoded concurrently. Whether sharding
/// pays for a given payload is the caller's decision (the engine's
/// `encode_varint` applies a crossover and falls back to the serial encoder).
///
/// The delta encoding looks inherently serial — every gap depends on the
/// previous index — but once the pair list is sorted the predecessor of a
/// chunk's first element is simply the last index of the previous chunk, so
/// each shard **stitches its boundary gap** from a single O(1) lookup into
/// the shared sorted array and encodes independently. Concatenating the
/// per-chunk gap streams (in chunk order) and the per-chunk value streams
/// reproduces the serial byte stream exactly, so the payload is
/// **byte-identical** to [`delta_varint_encode`] for every runtime and
/// shard size.
///
/// # Panics
///
/// Panics if `pairs_per_chunk` is zero.
pub fn delta_varint_encode_on(
    sparse: &SparseGradient,
    pairs_per_chunk: usize,
    runtime: &dyn sidco_runtime::Runtime,
) -> EncodedGradient {
    // Sort exactly like the serial encoder (same comparator, same stable
    // sort), so gap streams match bit-for-bit.
    let mut pairs: Vec<(u32, f32)> = sparse.iter().collect();
    pairs.sort_by_key(|&(i, _)| i);

    // One parallel job produces both sections per shard: chunk c's first gap
    // is stitched against the last index of chunk c-1 (or 0 for the first
    // chunk) — the O(1) lookup that makes the parallel stream lossless.
    let pairs_ref = &pairs;
    let parts: Vec<(Vec<u8>, Vec<u8>)> =
        crate::parallel::map_chunks_on(pairs_ref, pairs_per_chunk, runtime, |c, chunk| {
            let mut prev = if c == 0 {
                0
            } else {
                pairs_ref[c * pairs_per_chunk - 1].0
            };
            let mut gaps = Vec::with_capacity(chunk.len() * 2);
            let mut values = Vec::with_capacity(chunk.len() * 4);
            for &(i, v) in chunk {
                push_varint(&mut gaps, i - prev);
                prev = i;
                values.extend_from_slice(&v.to_le_bytes());
            }
            (gaps, values)
        });

    // Assemble: header, then every gap shard, then every value shard — both
    // in chunk (= sorted index) order, byte-identical to the serial stream.
    let mut bytes = Vec::with_capacity(sparse.nnz() * 5);
    push_varint(&mut bytes, sparse.nnz() as u32);
    for (gaps, _) in &parts {
        bytes.extend_from_slice(gaps);
    }
    for (_, values) in &parts {
        bytes.extend_from_slice(values);
    }
    EncodedGradient {
        kind: EncodingKind::DeltaVarint,
        bytes,
        dense_len: sparse.dense_len(),
        nnz: sparse.nnz(),
    }
}

/// Decodes a [`delta_varint_encode`]d payload back into a sparse gradient.
///
/// Returns `None` if the payload is malformed.
pub fn delta_varint_decode(encoded: &EncodedGradient) -> Option<SparseGradient> {
    if encoded.kind != EncodingKind::DeltaVarint {
        return None;
    }
    let bytes = &encoded.bytes;
    let mut cursor = 0usize;
    let nnz = read_varint(bytes, &mut cursor)? as usize;
    let mut indices = Vec::with_capacity(nnz);
    let mut current = 0u32;
    for j in 0..nnz {
        let gap = read_varint(bytes, &mut cursor)?;
        current = if j == 0 {
            gap
        } else {
            current.checked_add(gap)?
        };
        indices.push(current);
    }
    let mut values = Vec::with_capacity(nnz);
    for _ in 0..nnz {
        let chunk = bytes.get(cursor..cursor + 4)?;
        values.push(f32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]));
        cursor += 4;
    }
    if indices.iter().any(|&i| (i as usize) >= encoded.dense_len) {
        return None;
    }
    Some(SparseGradient::new(indices, values, encoded.dense_len))
}

/// Encodes a sparse gradient as a presence bitmap (`ceil(d/8)` bytes) followed by the
/// values in index order.
pub fn bitmap_encode(sparse: &SparseGradient) -> EncodedGradient {
    let dense_len = sparse.dense_len();
    let mut bitmap = vec![0u8; dense_len.div_ceil(8)];
    let mut pairs: Vec<(u32, f32)> = sparse.iter().collect();
    pairs.sort_by_key(|&(i, _)| i);
    for &(i, _) in &pairs {
        bitmap[(i as usize) / 8] |= 1 << (i % 8);
    }
    let mut bytes = bitmap;
    for &(_, v) in &pairs {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    EncodedGradient {
        kind: EncodingKind::Bitmap,
        bytes,
        dense_len,
        nnz: sparse.nnz(),
    }
}

/// Picks the smallest of the three encodings for this gradient.
pub fn best_encoding(sparse: &SparseGradient) -> EncodedGradient {
    let raw = raw_encode(sparse);
    let varint = delta_varint_encode(sparse);
    let bitmap = bitmap_encode(sparse);
    let mut best = raw;
    if varint.wire_bytes() < best.wire_bytes() {
        best = varint;
    }
    if bitmap.wire_bytes() < best.wire_bytes() {
        best = bitmap;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use sidco_runtime::{handle, Runtime, RuntimeKind};

    /// The shared runtime for a worker budget: inline at 1, the pool above.
    fn runtime(threads: usize) -> &'static dyn Runtime {
        handle(RuntimeKind::Pool, threads)
    }

    fn random_sparse(dense_len: usize, nnz: usize, seed: u64) -> SparseGradient {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut chosen = std::collections::BTreeSet::new();
        while chosen.len() < nnz {
            chosen.insert(rng.gen_range(0..dense_len as u32));
        }
        let pairs: Vec<(u32, f32)> = chosen
            .into_iter()
            .map(|i| (i, rng.gen_range(-1.0f32..1.0)))
            .collect();
        SparseGradient::from_pairs(pairs, dense_len)
    }

    #[test]
    fn raw_encoding_matches_wire_bytes_accounting() {
        let sparse = random_sparse(10_000, 100, 1);
        let encoded = raw_encode(&sparse);
        assert_eq!(encoded.wire_bytes(), sparse.wire_bytes());
        assert_eq!(encoded.kind(), EncodingKind::RawPairs);
        assert_eq!(encoded.nnz(), 100);
        assert_eq!(encoded.dense_len(), 10_000);
        assert_eq!(encoded.payload().len(), encoded.wire_bytes());
    }

    #[test]
    fn parallel_raw_encoding_is_byte_identical() {
        for &(d, k) in &[(1_000usize, 10usize), (2_000_000, 200_000)] {
            let sparse = random_sparse(d, k, 9);
            let reference = raw_encode(&sparse);
            for threads in [1, 2, 7] {
                let parallel = raw_encode_on(&sparse, 1 << 15, runtime(threads));
                assert_eq!(parallel.payload(), reference.payload());
                assert_eq!(parallel.kind(), EncodingKind::RawPairs);
                assert_eq!(parallel.nnz(), reference.nnz());
            }
        }
    }

    #[test]
    fn parallel_delta_varint_is_byte_identical_to_serial() {
        for &(d, k) in &[
            (1_000usize, 10usize),
            (100_000, 1_000),
            (2_000_000, 150_000),
        ] {
            let sparse = random_sparse(d, k, 21);
            let reference = delta_varint_encode(&sparse);
            for threads in [1usize, 2, 7] {
                // Shard sizes that split mid-stream, including one smaller
                // than the varint width transitions and one spanning all.
                for pairs in [7usize, 1 << 10, 1 << 15, usize::MAX >> 1] {
                    let parallel = delta_varint_encode_on(&sparse, pairs, runtime(threads));
                    assert_eq!(
                        parallel.payload(),
                        reference.payload(),
                        "d={d} k={k} threads={threads} pairs={pairs}"
                    );
                    assert_eq!(parallel.kind(), EncodingKind::DeltaVarint);
                    assert_eq!(parallel.nnz(), reference.nnz());
                    assert_eq!(parallel.dense_len(), reference.dense_len());
                }
            }
        }
    }

    #[test]
    fn parallel_delta_varint_runs_on_the_pool_runtime() {
        use sidco_runtime::{NumaTopology, WorkStealing};
        let sparse = random_sparse(500_000, 40_000, 22);
        let reference = delta_varint_encode(&sparse);
        let pool = WorkStealing::with_topology(3, NumaTopology::synthetic(2, 2));
        let encoded = delta_varint_encode_on(&sparse, 1 << 10, &pool);
        assert_eq!(encoded.payload(), reference.payload());
        // The parallel stream still roundtrips through the serial decoder.
        let decoded = delta_varint_decode(&encoded).expect("roundtrip");
        assert_eq!(decoded.to_dense().as_slice(), sparse.to_dense().as_slice());
    }

    #[test]
    fn parallel_delta_varint_handles_unsorted_and_empty_inputs() {
        // from_pairs keeps the given order; the encoder must sort first.
        let sparse =
            SparseGradient::from_pairs(vec![(90, 1.0f32), (5, -2.0), (40, 3.0), (6, 0.5)], 100);
        let reference = delta_varint_encode(&sparse);
        for threads in [1usize, 3] {
            assert_eq!(
                delta_varint_encode_on(&sparse, 2, runtime(threads)).payload(),
                reference.payload()
            );
        }
        let empty = SparseGradient::empty(64);
        assert_eq!(
            delta_varint_encode_on(&empty, 2, runtime(3)).payload(),
            delta_varint_encode(&empty).payload()
        );
    }

    #[test]
    fn delta_varint_roundtrip_is_lossless() {
        for &(d, k) in &[(1_000usize, 10usize), (100_000, 1_000), (50_000, 5_000)] {
            let sparse = random_sparse(d, k, 2);
            let encoded = delta_varint_encode(&sparse);
            let decoded = delta_varint_decode(&encoded).expect("roundtrip");
            assert_eq!(decoded.dense_len(), sparse.dense_len());
            // Values at each index match (order inside the struct may differ).
            assert_eq!(decoded.to_dense().as_slice(), sparse.to_dense().as_slice());
        }
    }

    #[test]
    fn delta_varint_is_smaller_than_raw_for_typical_ratios() {
        // At δ = 0.01 the average index gap is 100 < 2^14, so gaps fit in ≤ 2 bytes.
        let sparse = random_sparse(1_000_000, 10_000, 3);
        let raw = raw_encode(&sparse).wire_bytes();
        let varint = delta_varint_encode(&sparse).wire_bytes();
        assert!(
            (varint as f64) < 0.8 * raw as f64,
            "varint {varint} should be well below raw {raw}"
        );
    }

    #[test]
    fn bitmap_wins_at_high_density() {
        let sparse = random_sparse(10_000, 2_500, 4); // 25% density
        let raw = raw_encode(&sparse).wire_bytes();
        let bitmap = bitmap_encode(&sparse).wire_bytes();
        assert!(bitmap < raw);
        assert_eq!(best_encoding(&sparse).kind(), EncodingKind::Bitmap);
    }

    #[test]
    fn varint_or_raw_wins_at_low_density() {
        let sparse = random_sparse(1_000_000, 100, 5); // 0.01% density
        let best = best_encoding(&sparse);
        assert_ne!(best.kind(), EncodingKind::Bitmap);
        assert!(best.wire_bytes() <= raw_encode(&sparse).wire_bytes());
    }

    #[test]
    fn decode_rejects_wrong_kind_and_truncated_payloads() {
        let sparse = random_sparse(1_000, 10, 6);
        assert!(delta_varint_decode(&raw_encode(&sparse)).is_none());
        let mut encoded = delta_varint_encode(&sparse);
        encoded.bytes.truncate(encoded.bytes.len() / 2);
        assert!(delta_varint_decode(&encoded).is_none());
    }

    #[test]
    fn empty_gradient_encodings() {
        let sparse = SparseGradient::empty(100);
        assert_eq!(raw_encode(&sparse).wire_bytes(), 0);
        let varint = delta_varint_encode(&sparse);
        assert_eq!(delta_varint_decode(&varint).unwrap().nnz(), 0);
        assert_eq!(bitmap_encode(&sparse).wire_bytes(), 13);
    }
}
