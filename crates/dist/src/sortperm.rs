//! The distributed `SORTPERM` step: assign consecutive labels to a frontier
//! in `(parent label, degree, vertex)` order.
//!
//! Two routes to the bit-identical labeling:
//!
//! * [`dist_sortperm`] — the paper's *specialized bucket sort* (§IV-B).
//!   Parent labels are contiguous (they were assigned consecutively last
//!   level), so every tuple is routed straight to its bucket owner with one
//!   AllToAll and placed by streaming — linear local work, realized here as
//!   the same two-pass counting sort the shared-memory kernels use.
//! * [`dist_sortperm_samplesort`] — the "state-of-the-art general sorting
//!   library" baseline: a PSRS/HykSort-style sample sort that cannot exploit
//!   the bucket structure. Same permutation, strictly higher simulated cost
//!   (comparison sorts plus the extra sampling/splitter collectives).

use crate::clock::SimClock;
use crate::vec::{DistDenseVec, DistSparseVec};
use rcm_sparse::{Label, Vidx};

/// Bytes of one `(parent, degree, vertex)` tuple on the wire.
const TUPLE_BYTES: u64 = 16;
/// Bytes of one `(vertex, label)` result pair on the wire.
const LABEL_BYTES: u64 = 12;

/// `⌈log₂(m)⌉`-ish comparison-sort depth (≥ 1 so costs stay strictly
/// ordered for tiny inputs).
fn lg(m: usize) -> usize {
    (usize::BITS - m.max(1).leading_zeros()) as usize
}

/// Comparison-sort data path (the general-sort baseline): sort
/// `(value, degree, vertex)` lexicographically and hand out labels
/// `nv, nv+1, …`.
fn sortperm_data(
    x: &DistSparseVec<Label>,
    degrees: &DistDenseVec<Vidx>,
    nv: Label,
) -> (DistSparseVec<Label>, usize) {
    assert_eq!(x.layout, degrees.layout, "SORTPERM: layout mismatch");
    let mut tuples: Vec<(Label, Vidx, Vidx)> = x
        .parts
        .iter()
        .enumerate()
        .flat_map(|(rank, part)| {
            let (s, _) = x.layout.local_range(rank);
            part.iter()
                .map(move |&(g, value)| (value, degrees.parts[rank][g as usize - s], g))
        })
        .collect();
    tuples.sort_unstable();
    let count = tuples.len();
    let labeled: Vec<(Vidx, Label)> = tuples
        .iter()
        .enumerate()
        .map(|(k, &(_, _, g))| (g, nv + k as Label))
        .collect();
    (
        DistSparseVec::from_entries(x.layout.clone(), labeled),
        count,
    )
}

/// Bucketed data path of the specialized sort: a two-pass counting sort
/// keyed on the (contiguous) parent label — count, exclusive prefix sum,
/// scatter of `(degree, vertex)` pairs into one flat buffer — followed by a
/// per-bucket `(degree, vertex)` sort. Bit-identical to [`sortperm_data`]'s
/// full lexicographic sort because vertex ids are unique, but the bucket
/// placement is the streaming linear pass the cost model charges for.
fn sortperm_data_counting(
    x: &DistSparseVec<Label>,
    degrees: &DistDenseVec<Vidx>,
    value_range: (Label, Label),
    nv: Label,
) -> (DistSparseVec<Label>, usize) {
    assert_eq!(x.layout, degrees.layout, "SORTPERM: layout mismatch");
    let (lo, hi) = value_range;
    let nb = (hi - lo).max(0) as usize;
    let mut offs = vec![0usize; nb + 1];
    let mut count = 0usize;
    for part in &x.parts {
        count += part.len();
        for &(_, value) in part {
            offs[(value - lo) as usize + 1] += 1;
        }
    }
    for b in 0..nb {
        offs[b + 1] += offs[b];
    }
    let mut buf = vec![(0 as Vidx, 0 as Vidx); count];
    for (rank, part) in x.parts.iter().enumerate() {
        let (s, _) = x.layout.local_range(rank);
        for &(g, value) in part {
            let b = (value - lo) as usize;
            buf[offs[b]] = (degrees.parts[rank][g as usize - s], g);
            offs[b] += 1;
        }
    }
    let mut start = 0usize;
    for &end in &offs[..nb] {
        buf[start..end].sort_unstable();
        start = end;
    }
    let labeled: Vec<(Vidx, Label)> = buf
        .iter()
        .enumerate()
        .map(|(k, &(_, g))| (g, nv + k as Label))
        .collect();
    (
        DistSparseVec::from_entries(x.layout.clone(), labeled),
        count,
    )
}

/// The paper's specialized distributed bucket sort.
///
/// `value_range` is the half-open label range of the previous frontier
/// (the possible parent values); `nv` the first label to assign. Returns
/// the labels as a sparse vector (entries `(vertex, label)`) plus the
/// number of labeled vertices.
pub fn dist_sortperm(
    x: &DistSparseVec<Label>,
    degrees: &DistDenseVec<Vidx>,
    value_range: (Label, Label),
    nv: Label,
    clock: &mut SimClock,
) -> (DistSparseVec<Label>, usize) {
    debug_assert!(
        x.iter_entries()
            .all(|(_, v)| v >= value_range.0 && v < value_range.1),
        "SORTPERM: value outside the declared bucket range"
    );
    let (out, count) = sortperm_data_counting(x, degrees, value_range, nv);

    let p = x.layout.nprocs();
    let max_send = x.max_part_nnz();
    // ProcGrid guarantees p >= 1.
    let recv = count.div_ceil(p);
    // Streaming bucket placement: linear in the touched tuples.
    clock.charge_elems(max_send + recv + 1);
    if p > 1 {
        let machine = *clock.machine();
        let t = machine.t_alltoall(p, TUPLE_BYTES * max_send as u64)
            + machine.t_allreduce(p, 8) // ExScan of bucket counts
            + machine.t_alltoall(p, LABEL_BYTES * recv as u64); // labels home
        clock.charge_comm(
            t,
            (2 * p * (p - 1) + p) as u64,
            TUPLE_BYTES * count as u64 + LABEL_BYTES * count as u64,
        );
    }
    (out, count)
}

/// PSRS-style general sample sort over the same tuples — the §IV-B
/// baseline. Identical output to [`dist_sortperm`], strictly higher cost.
pub fn dist_sortperm_samplesort(
    x: &DistSparseVec<Label>,
    degrees: &DistDenseVec<Vidx>,
    nv: Label,
    clock: &mut SimClock,
) -> (DistSparseVec<Label>, usize) {
    let (out, count) = sortperm_data(x, degrees, nv);

    let p = x.layout.nprocs();
    let max_send = x.max_part_nnz();
    // ProcGrid guarantees p >= 1.
    let recv = count.div_ceil(p);
    let samples = (p - 1).max(1).min(count.max(1));
    // Local comparison sort, splitter search, and merge of received runs —
    // each a log factor the bucket sort avoids, plus sample handling.
    clock.charge_elems(
        max_send * lg(max_send) + recv * lg(recv) + samples * lg(samples) + max_send + recv + 2,
    );
    if p > 1 {
        let machine = *clock.machine();
        let t = machine.t_tree(p, TUPLE_BYTES * samples as u64) // gather samples
            + machine.t_tree(p, TUPLE_BYTES * (p as u64 - 1)) // broadcast splitters
            + machine.t_alltoall(p, TUPLE_BYTES * max_send as u64)
            + machine.t_allreduce(p, 8)
            + machine.t_alltoall(p, LABEL_BYTES * recv as u64);
        clock.charge_comm(
            t,
            (2 * p * (p - 1) + 3 * p) as u64,
            TUPLE_BYTES * (count + samples + p) as u64 + LABEL_BYTES * count as u64,
        );
    }
    (out, count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Phase;
    use crate::grid::ProcGrid;
    use crate::machine::MachineModel;
    use crate::vec::VecLayout;

    fn setup(n: usize, procs: usize) -> (DistSparseVec<Label>, DistDenseVec<Vidx>) {
        let layout = VecLayout::new(n, ProcGrid::square(procs).unwrap());
        let degrees: Vec<Vidx> = (0..n as Vidx).map(|v| (v * 7 + 3) % 5).collect();
        let entries: Vec<(Vidx, Label)> = (0..n as Vidx)
            .filter(|v| v % 3 != 1)
            .map(|v| (v, (v % 4) as Label))
            .collect();
        (
            DistSparseVec::from_entries(layout.clone(), entries),
            DistDenseVec::from_global(layout, &degrees),
        )
    }

    fn labels_of(v: &DistSparseVec<Label>) -> Vec<(Vidx, Label)> {
        v.iter_entries().collect()
    }

    #[test]
    fn sortperm_orders_by_value_degree_vertex() {
        let (x, d) = setup(12, 4);
        let mut clock = SimClock::new(MachineModel::edison(), 1);
        clock.set_phase(Phase::OrderingSort);
        let (labels, count) = dist_sortperm(&x, &d, (0, 4), 100, &mut clock);
        assert_eq!(count, x.total_nnz());
        // Reconstruct the tuple order from the assigned labels.
        let mut by_label: Vec<(Label, Vidx)> = labels_of(&labels)
            .into_iter()
            .map(|(g, l)| (l, g))
            .collect();
        by_label.sort_unstable();
        let keys: Vec<(Label, Vidx, Vidx)> = by_label
            .iter()
            .map(|&(_, g)| ((g % 4) as Label, (g * 7 + 3) % 5, g))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "labels must follow (value, degree, vertex)");
        assert_eq!(by_label[0].0, 100);
        assert_eq!(by_label.last().unwrap().0, 100 + count as Label - 1);
    }

    #[test]
    fn samplesort_identical_output_higher_cost_on_all_grids() {
        for procs in [1usize, 4, 9, 16] {
            let (x, d) = setup(20, procs);
            let mut c1 = SimClock::new(MachineModel::edison(), 1);
            let mut c2 = SimClock::new(MachineModel::edison(), 1);
            let (bucket, n1) = dist_sortperm(&x, &d, (0, 4), 7, &mut c1);
            let (sample, n2) = dist_sortperm_samplesort(&x, &d, 7, &mut c2);
            assert_eq!(n1, n2);
            assert_eq!(labels_of(&bucket), labels_of(&sample), "{procs} procs");
            assert!(
                c2.now() > c1.now(),
                "{procs} procs: samplesort {} must cost more than bucket {}",
                c2.now(),
                c1.now()
            );
        }
    }
}
