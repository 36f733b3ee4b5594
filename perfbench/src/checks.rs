//! Output checks made apart from the program: each recomputes what a correct
//! result must be from the inputs alone and compares. Every check returns a
//! description of the first discrepancy it finds.

use sidco::dist::FleetReport;
use sidco::tensor::encoding::{delta_varint_decode, EncodedGradient};
use sidco::tensor::SparseGradient;

type Check = Result<(), String>;

/// The sent `(index, value)` pairs in index order. A sparse gradient does
/// not promise sorted indices (DGC's hierarchical stage emits them in
/// selection order), so every comparison below is of index-sorted pairs.
fn sorted_pairs(sent: &SparseGradient) -> Vec<(u32, f32)> {
    let mut pairs: Vec<(u32, f32)> = sent.iter().collect();
    pairs.sort_by_key(|p| p.0);
    pairs
}

/// Every sent value is the gradient's value at its index, and no index is
/// sent twice or out of range. Returns the sent indices in order.
fn sent_values_match(grad: &[f32], sent: &SparseGradient) -> Result<Vec<u32>, String> {
    if sent.dense_len() != grad.len() {
        return Err(format!(
            "dense length {} != gradient length {}",
            sent.dense_len(),
            grad.len()
        ));
    }
    let pairs = sorted_pairs(sent);
    if let Some(w) = pairs.windows(2).find(|w| w[0].0 == w[1].0) {
        return Err(format!("index {} sent twice", w[0].0));
    }
    for &(i, v) in &pairs {
        match grad.get(i as usize) {
            Some(g) if g.to_bits() == v.to_bits() => {}
            Some(g) => return Err(format!("value at {i} is {v}, gradient holds {g}")),
            None => return Err(format!("index {i} out of range")),
        }
    }
    Ok(pairs.into_iter().map(|p| p.0).collect())
}

/// Top-k: the sent index set equals the first `k` of an independent sort by
/// descending magnitude, ties broken by lower index. The program documents its
/// tie-break at the selection boundary as arbitrary, so an index may differ
/// from the reference only where its magnitude equals the k-th magnitude.
pub fn top_k(grad: &[f32], k: usize, sent: &SparseGradient) -> Check {
    let indices = sent_values_match(grad, sent)?;
    let k = k.min(grad.len());
    if sent.nnz() != k {
        return Err(format!("sent {} elements, k = {k}", sent.nnz()));
    }
    if k == 0 {
        return Ok(());
    }
    let mut order: Vec<u32> = (0..grad.len() as u32).collect();
    order.sort_unstable_by(|&a, &b| {
        let (ma, mb) = (grad[a as usize].abs(), grad[b as usize].abs());
        mb.total_cmp(&ma).then(a.cmp(&b))
    });
    let boundary = grad[order[k - 1] as usize].abs();
    let mut reference: Vec<u32> = order[..k].to_vec();
    reference.sort_unstable();
    for (&got, &want) in indices.iter().zip(&reference) {
        if got != want {
            let tied =
                grad[got as usize].abs() == boundary && grad[want as usize].abs() == boundary;
            if !tied {
                return Err(format!("index {got} sent where the reference has {want}"));
            }
        }
    }
    Ok(())
}

/// A threshold scheme sends exactly `{i : |g_i| >= t}` for the threshold `t`
/// it reports, recounted here.
pub fn threshold_set(grad: &[f32], threshold: f64, sent: &SparseGradient) -> Check {
    let indices = sent_values_match(grad, sent)?;
    let mut sent_iter = indices.iter().peekable();
    for (i, g) in grad.iter().enumerate() {
        let above = g.abs() as f64 >= threshold;
        let was_sent = sent_iter.next_if(|&&j| j as usize == i).is_some();
        if above != was_sent {
            return Err(format!(
                "element {i} (|g| = {}) {} at threshold {threshold}",
                g.abs(),
                if above {
                    "above but not sent"
                } else {
                    "sent below"
                }
            ));
        }
    }
    Ok(())
}

/// DGC sends `{i : |g_i| >= t}` for its sampled threshold, unless that set
/// overshoots and its hierarchical stage keeps the `k` largest survivors, in
/// which case the result is the exact top-k.
pub fn dgc(grad: &[f32], threshold: f64, k: usize, sent: &SparseGradient) -> Check {
    match threshold_set(grad, threshold, sent) {
        Ok(()) => Ok(()),
        Err(exact) => {
            if sent.nnz() == k && sent.values().iter().all(|v| v.abs() as f64 >= threshold) {
                top_k(grad, k, sent).map_err(|e| format!("hierarchical stage: {e}"))
            } else {
                Err(exact)
            }
        }
    }
}

/// Random-k sends exactly `k` distinct in-range indices with their values.
pub fn random_k(grad: &[f32], k: usize, sent: &SparseGradient) -> Check {
    sent_values_match(grad, sent)?;
    if sent.nnz() != k.min(grad.len()) {
        return Err(format!("sent {} elements, k = {k}", sent.nnz()));
    }
    Ok(())
}

/// The wire bytes decode back to exactly the sparse gradient that was sent
/// (the encoding orders pairs by index).
pub fn wire_round_trip(encoded: &EncodedGradient, sent: &SparseGradient) -> Check {
    let decoded = delta_varint_decode(encoded).ok_or("wire bytes do not decode")?;
    if decoded.dense_len() != sent.dense_len() {
        return Err("decoded dense length differs from the sent one".into());
    }
    let same = decoded.nnz() == sent.nnz()
        && decoded
            .iter()
            .zip(sorted_pairs(sent))
            .all(|((i, a), (j, b))| i == j && a.to_bits() == b.to_bits());
    if !same {
        return Err("decoded pairs differ from the sent ones".into());
    }
    Ok(())
}

/// The shared link is busy for exactly the total wire demand (work
/// conservation), to a relative 1e-9.
pub fn link_conserves_work(link_busy_seconds: f64, total_wire_seconds: f64) -> Check {
    let tol = 1e-9 * total_wire_seconds.abs().max(1e-30);
    if (link_busy_seconds - total_wire_seconds).abs() > tol {
        return Err(format!(
            "link busy {link_busy_seconds} s != total wire demand {total_wire_seconds} s"
        ));
    }
    Ok(())
}

/// Fair share starves no tenant: every job ends within its local work plus
/// `N ×` its wire work.
pub fn no_starvation(report: &FleetReport) -> Check {
    let n = report.jobs.len() as f64;
    for job in &report.jobs {
        let bound = job.local_seconds + n * job.wire_seconds;
        if job.makespan() > bound * (1.0 + 1e-9) {
            return Err(format!(
                "{}: makespan {} exceeds local + N·wire = {bound}",
                job.name,
                job.makespan()
            ));
        }
    }
    Ok(())
}

/// Fair share finishes the fleet no later than running the jobs one at a time.
pub fn beats_serialization(fleet_end: f64, serialized_end: f64) -> Check {
    if fleet_end > serialized_end * (1.0 + 1e-12) {
        return Err(format!(
            "fleet ends at {fleet_end}, after serialized end {serialized_end}"
        ));
    }
    Ok(())
}

/// The last iteration's loss is below `fraction` of the first one's.
pub fn loss_falls(losses: &[f64], fraction: f64) -> Check {
    match (losses.first(), losses.last()) {
        (Some(&first), Some(&last)) if last.is_finite() && last < fraction * first => Ok(()),
        (Some(first), Some(last)) => Err(format!(
            "final loss {last} not below {fraction} × first loss {first}"
        )),
        _ => Err("empty loss trajectory".into()),
    }
}

/// Two loss trajectories are bit-identical.
pub fn bit_identical(a: &[f64], b: &[f64]) -> Check {
    if a.len() != b.len() {
        return Err(format!("trajectory lengths {} != {}", a.len(), b.len()));
    }
    match a
        .iter()
        .zip(b)
        .position(|(x, y)| x.to_bits() != y.to_bits())
    {
        None => Ok(()),
        Some(i) => Err(format!("iteration {i}: loss {} != {}", a[i], b[i])),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sidco::tensor::encoding::delta_varint_encode;
    use sidco::tensor::threshold::select_above_threshold;
    use sidco::tensor::topk::{top_k as program_top_k, TopKAlgorithm};

    fn gradient() -> Vec<f32> {
        (0..4096u32)
            .map(|i| {
                let x = ((i.wrapping_mul(2_654_435_761) >> 7) % 10_007) as f32 / 10_007.0;
                if i % 3 == 0 {
                    -x
                } else {
                    x
                }
            })
            .collect()
    }

    fn without(sent: &SparseGradient, drop: usize) -> SparseGradient {
        let pairs = sent
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != drop)
            .map(|(_, p)| p)
            .collect();
        SparseGradient::from_pairs(pairs, sent.dense_len())
    }

    #[test]
    fn top_k_accepts_the_program_and_rejects_a_dropped_index() {
        let grad = gradient();
        let sent = program_top_k(&grad, 41, TopKAlgorithm::QuickSelect);
        top_k(&grad, 41, &sent).expect("program top-k passes");
        assert!(top_k(&grad, 41, &without(&sent, 7)).is_err());
        // Swapping a selected index for an unselected one is caught too.
        let mut pairs: Vec<(u32, f32)> = without(&sent, 0).iter().collect();
        let outsider = (0..grad.len() as u32)
            .find(|i| !sent.indices().contains(i))
            .expect("k < d");
        pairs.push((outsider, grad[outsider as usize]));
        pairs.sort_by_key(|p| p.0);
        assert!(top_k(&grad, 41, &SparseGradient::from_pairs(pairs, grad.len())).is_err());
    }

    #[test]
    fn threshold_set_rejects_a_sub_threshold_value() {
        let grad = gradient();
        let t = 0.9;
        let sent = select_above_threshold(&grad, t);
        threshold_set(&grad, t, &sent).expect("exact selection passes");
        let below = grad
            .iter()
            .position(|g| (g.abs() as f64) < t)
            .expect("some below");
        let mut pairs: Vec<(u32, f32)> = sent.iter().collect();
        pairs.push((below as u32, grad[below]));
        pairs.sort_by_key(|p| p.0);
        let corrupted = SparseGradient::from_pairs(pairs, grad.len());
        assert!(threshold_set(&grad, t, &corrupted).is_err());
        // DGC's hierarchical escape hatch does not excuse it either.
        assert!(dgc(&grad, t, corrupted.nnz(), &corrupted).is_err());
        assert!(threshold_set(&grad, t, &without(&sent, 3)).is_err());
    }

    #[test]
    fn wire_round_trip_rejects_a_flipped_byte() {
        let grad = gradient();
        let sent = program_top_k(&grad, 64, TopKAlgorithm::QuickSelect);
        let wire = delta_varint_encode(&sent);
        wire_round_trip(&wire, &sent).expect("faithful encoding passes");
        // The same payload with one value byte flipped.
        let mut values = sent.values().to_vec();
        let mut bytes = values[5].to_le_bytes();
        bytes[1] ^= 0x10;
        values[5] = f32::from_le_bytes(bytes);
        let flipped = SparseGradient::new(sent.indices().to_vec(), values, sent.dense_len());
        let flipped_wire = delta_varint_encode(&flipped);
        let differing = wire
            .payload()
            .iter()
            .zip(flipped_wire.payload())
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(differing, 1, "exactly one wire byte differs");
        assert!(wire_round_trip(&flipped_wire, &sent).is_err());
    }

    #[test]
    fn random_k_rejects_a_short_or_repeated_selection() {
        let grad = gradient();
        let sent = program_top_k(&grad, 10, TopKAlgorithm::QuickSelect);
        random_k(&grad, 10, &sent).expect("ten distinct indices pass");
        assert!(random_k(&grad, 10, &without(&sent, 0)).is_err());
        let mut pairs: Vec<(u32, f32)> = without(&sent, 0).iter().collect();
        pairs.push(pairs[0]);
        assert!(random_k(&grad, 10, &SparseGradient::from_pairs(pairs, grad.len())).is_err());
    }

    #[test]
    fn checks_accept_unsorted_indices() {
        let grad = gradient();
        let sent = program_top_k(&grad, 41, TopKAlgorithm::QuickSelect);
        let mut pairs: Vec<(u32, f32)> = sent.iter().collect();
        pairs.reverse();
        let reversed = SparseGradient::from_pairs(pairs, grad.len());
        top_k(&grad, 41, &reversed).expect("order does not matter");
        wire_round_trip(&delta_varint_encode(&reversed), &reversed).expect("round trip");
    }

    #[test]
    fn link_check_rejects_lost_work() {
        link_conserves_work(2.5, 2.5).expect("conserved");
        assert!(link_conserves_work(2.5 * (1.0 - 1e-6), 2.5).is_err());
        assert!(link_conserves_work(2.6, 2.5).is_err());
    }

    #[test]
    fn training_checks() {
        loss_falls(&[2.0, 1.5, 0.5], 0.5).expect("falls");
        assert!(loss_falls(&[2.0, 1.5, 1.2], 0.5).is_err());
        assert!(loss_falls(&[2.0, f64::NAN], 0.5).is_err());
        bit_identical(&[1.0, 0.5], &[1.0, 0.5]).expect("equal");
        assert!(bit_identical(&[1.0, 0.5], &[1.0, 0.5 + f64::EPSILON]).is_err());
        assert!(beats_serialization(2.0, 1.0).is_err());
    }
}
