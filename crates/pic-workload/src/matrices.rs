//! Computation and communication matrices.
//!
//! The computation matrix is dense (`R × T` counts — Fig 1a renders it as a
//! heat map). The communication matrix is `R × R × T` in the paper but
//! overwhelmingly sparse in practice (a rank exchanges particles with a
//! handful of neighbours), so it is stored as per-sample sorted triples.

use crate::json::PrettyJson;
use pic_types::radix::radix_sort_by_key;
use pic_types::Rank;
use serde::{Deserialize, Serialize};

/// Dense `R × T` matrix of per-rank particle counts over samples.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompMatrix {
    ranks: usize,
    /// Row-major `[sample][rank]`, flattened.
    data: Vec<u32>,
}

impl CompMatrix {
    /// An empty matrix for `ranks` processors.
    pub fn new(ranks: usize) -> CompMatrix {
        CompMatrix {
            ranks,
            data: Vec::new(),
        }
    }

    /// An empty matrix for `ranks` processors with room for `samples`
    /// rows, so appending them never reallocates.
    pub(crate) fn with_capacity(ranks: usize, samples: usize) -> CompMatrix {
        CompMatrix {
            ranks,
            data: Vec::with_capacity(ranks * samples),
        }
    }

    /// Build directly from per-sample count rows.
    ///
    /// # Panics
    /// Panics if any row's length differs from `ranks`.
    pub fn from_rows(ranks: usize, rows: Vec<Vec<u32>>) -> CompMatrix {
        let mut m = CompMatrix::new(ranks);
        for r in rows {
            m.push_sample(&r);
        }
        m
    }

    /// Append one sample's counts.
    pub fn push_sample(&mut self, counts: &[u32]) {
        assert_eq!(counts.len(), self.ranks, "count row arity");
        self.data.extend_from_slice(counts);
    }

    /// Processor count `R`.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// Sample count `T`: whole rows only, so a ragged tail is not counted.
    pub fn samples(&self) -> usize {
        self.data.len().checked_div(self.ranks).unwrap_or(0)
    }

    /// Number of stored counts; `R × T` unless the matrix is ragged.
    pub fn cells(&self) -> usize {
        self.data.len()
    }

    /// Count for `rank` at `sample` (the paper's `P_comp[i][j]`).
    #[inline]
    pub fn get(&self, rank: Rank, sample: usize) -> u32 {
        self.data[sample * self.ranks + rank.index()]
    }

    /// One sample's counts across all ranks.
    pub fn sample_row(&self, sample: usize) -> &[u32] {
        &self.data[sample * self.ranks..(sample + 1) * self.ranks]
    }

    /// Maximum count over ranks, per sample — the Fig 5 series.
    pub fn peak_series(&self) -> Vec<u32> {
        (0..self.samples())
            .map(|t| self.sample_row(t).iter().copied().max().unwrap_or(0))
            .collect()
    }

    /// The overall peak count (critical-path workload).
    pub fn peak(&self) -> u32 {
        self.data.iter().copied().max().unwrap_or(0)
    }

    /// Total count at one sample (should equal `N_p` for real particles).
    pub fn sample_total(&self, sample: usize) -> u64 {
        self.sample_row(sample).iter().map(|&c| c as u64).sum()
    }

    /// Write this matrix as one JSON object (`ranks`, then the row-major
    /// `data`), the shape its derived `Serialize` has.
    pub(crate) fn write_json(&self, w: &mut PrettyJson) {
        w.begin_object();
        w.key("ranks");
        w.uint(self.ranks as u64);
        w.key("data");
        w.uints(self.data.iter().map(|&c| u64::from(c)));
        w.end_object();
    }

    /// CSV rendering: one line per rank, one column per sample — the raw
    /// data behind the Fig 1a heat map.
    pub fn to_csv(&self) -> String {
        let mut s = String::new();
        for r in 0..self.ranks {
            let row: Vec<String> = (0..self.samples())
                .map(|t| self.get(Rank::from_index(r), t).to_string())
                .collect();
            s.push_str(&row.join(","));
            s.push('\n');
        }
        s
    }
}

/// Sparse `R × R × T` communication matrix: per sample, sorted
/// `(from, to, count)` triples.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct CommMatrix {
    /// `entries[t]` lists the migrations between samples `t-1` and `t`;
    /// `entries\[0\]` is empty (no predecessor).
    pub entries: Vec<Vec<(u32, u32, u32)>>,
}

impl CommMatrix {
    /// A matrix with one (empty) slot per sample.
    pub fn with_samples(t: usize) -> CommMatrix {
        CommMatrix {
            entries: vec![Vec::new(); t],
        }
    }

    /// The paper's `P_comm[i][j][k]`: particles moving from `from` to `to`
    /// at sample `k`.
    pub fn get(&self, from: Rank, to: Rank, sample: usize) -> u32 {
        self.entries[sample]
            .iter()
            .find(|&&(f, t, _)| f == from.0 && t == to.0)
            .map(|&(_, _, c)| c)
            .unwrap_or(0)
    }

    /// Total particles moved at one sample.
    pub fn sample_total(&self, sample: usize) -> u64 {
        self.entries[sample].iter().map(|&(_, _, c)| c as u64).sum()
    }

    /// Total particles moved over the whole run.
    pub fn total(&self) -> u64 {
        (0..self.entries.len()).map(|t| self.sample_total(t)).sum()
    }
}

/// Sparse sorted migration triples between two ownership snapshots —
/// shared by the generator and by ground-truth collection.
///
/// Every move is keyed `from << bits | to`, where `bits` is the width of
/// the largest rank id that moved, so one radix sort of the keys orders
/// the moves by `(from, to)` and equal pairs become runs to count.
///
/// # Panics
/// Panics if the snapshots have different lengths.
pub fn migration_pairs(prev: &[Rank], cur: &[Rank]) -> Vec<(u32, u32, u32)> {
    assert_eq!(prev.len(), cur.len(), "ownership snapshots must align");
    let mut ids = 0u32;
    let mut moves: Vec<(u64, u32)> = (prev.iter().zip(cur))
        .filter(|(a, b)| a != b)
        .map(|(a, b)| {
            ids |= a.0 | b.0;
            (u64::from(b.0), a.0)
        })
        .collect();
    let bits = u32::BITS - ids.leading_zeros();
    for (key, from) in &mut moves {
        *key |= u64::from(*from) << bits;
    }
    radix_sort_by_key(&mut moves, &mut Vec::new(), 2 * bits);
    let mut out: Vec<(u32, u32, u32)> = Vec::new();
    for (key, from) in moves {
        let to = (key & ((1 << bits) - 1)) as u32;
        match out.last_mut() {
            Some(last) if last.0 == from && last.1 == to => last.2 += 1,
            _ => out.push((from, to, 1)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn comp_matrix_shape_and_access() {
        let mut m = CompMatrix::new(3);
        assert_eq!(m.samples(), 0);
        m.push_sample(&[1, 2, 3]);
        m.push_sample(&[4, 0, 2]);
        assert_eq!(m.ranks(), 3);
        assert_eq!(m.samples(), 2);
        assert_eq!(m.get(Rank::new(1), 0), 2);
        assert_eq!(m.get(Rank::new(0), 1), 4);
        assert_eq!(m.sample_row(1), &[4, 0, 2]);
        assert_eq!(m.peak_series(), vec![3, 4]);
        assert_eq!(m.peak(), 4);
        assert_eq!(m.sample_total(0), 6);
    }

    #[test]
    #[should_panic]
    fn comp_matrix_wrong_arity_panics() {
        CompMatrix::new(2).push_sample(&[1, 2, 3]);
    }

    #[test]
    fn comp_matrix_csv() {
        let m = CompMatrix::from_rows(2, vec![vec![1, 2], vec![3, 4]]);
        assert_eq!(m.to_csv(), "1,3\n2,4\n");
    }

    #[test]
    fn comm_matrix_lookup() {
        let mut c = CommMatrix::with_samples(2);
        c.entries[1] = vec![(0, 1, 5), (2, 0, 3)];
        assert_eq!(c.get(Rank::new(0), Rank::new(1), 1), 5);
        assert_eq!(c.get(Rank::new(1), Rank::new(0), 1), 0);
        assert_eq!(c.sample_total(1), 8);
        assert_eq!(c.sample_total(0), 0);
        assert_eq!(c.total(), 8);
    }

    #[test]
    fn migration_pairs_aggregate_and_sort() {
        let prev = vec![Rank(2), Rank(0), Rank(0), Rank(1)];
        let cur = vec![Rank(0), Rank(1), Rank(1), Rank(1)];
        let m = migration_pairs(&prev, &cur);
        assert_eq!(m, vec![(0, 1, 2), (2, 0, 1)]);
        assert!(migration_pairs(&cur, &cur).is_empty());
    }

    #[test]
    #[should_panic]
    fn migration_pairs_length_mismatch_panics() {
        migration_pairs(&[Rank(0)], &[Rank(0), Rank(1)]);
    }

    /// Owner vectors whose rank ids reach 100 000 (and `u32::MAX`), with
    /// few or many ranks in play and any share of particles staying put.
    fn owner_pair() -> impl Strategy<Value = (Vec<Rank>, Vec<Rank>)> {
        (
            prop_oneof![
                Just(2u32),
                1u32..64,
                Just(4176),
                Just(100_001),
                Just(u32::MAX)
            ],
            proptest::collection::vec((any::<u32>(), any::<u32>(), 0u8..4), 0..600),
        )
            .prop_map(|(ranks, draws)| {
                draws
                    .into_iter()
                    .map(|(a, b, stay)| {
                        let from = Rank(a % ranks);
                        (from, if stay == 0 { from } else { Rank(b % ranks) })
                    })
                    .unzip()
            })
    }

    proptest! {
        #[test]
        fn migration_pairs_match_sort_unstable_oracle((prev, cur) in owner_pair()) {
            prop_assert_eq!(
                migration_pairs(&prev, &cur),
                crate::reference::migration_pairs_sorted(&prev, &cur)
            );
        }
    }
}
