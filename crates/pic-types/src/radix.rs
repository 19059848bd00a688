//! The one stable sort of the replay engine's integer keys.
//!
//! Ghost grouping (packed cell-range keys), Hilbert assignment (curve
//! ranks) and migration diffs (`(from, to)` rank pairs) all order
//! `(key, payload)` pairs by an integer key of known width.
//! [`radix_sort_by_key`] does that in `⌈bits / 11⌉` counting passes with no
//! comparisons.

/// Bits one pass sorts on: an 11-bit histogram (8 KiB) stays in L1.
const DIGIT_BITS: u32 = 11;
const BUCKETS: usize = 1 << DIGIT_BITS;

/// Stable LSD radix sort of `pairs` by key, where every key is below
/// `2^key_bits` (`key_bits ≤ 64`). `tmp` is the scatter buffer; its
/// contents on entry do not matter.
///
/// One pass per 11-bit digit of the key (`⌈key_bits / 11⌉`, at most six),
/// with the pass count a compile-time constant of the loop that runs, so
/// the histograms live on the stack and the per-key digit loop unrolls.
/// All histograms are filled in one read of the keys, and a pass whose
/// digit every key shares is skipped. Stability is the contract the
/// callers rely on: pairs that arrive with ascending payloads leave exactly
/// as `sort_unstable()` on the pairs would leave them.
pub fn radix_sort_by_key(pairs: &mut Vec<(u64, u32)>, tmp: &mut Vec<(u64, u32)>, key_bits: u32) {
    debug_assert!(key_bits <= 64);
    debug_assert!(pairs
        .iter()
        .all(|&(k, _)| key_bits >= 64 || k >> key_bits == 0));
    if pairs.len() < 2 {
        return;
    }
    match key_bits.div_ceil(DIGIT_BITS) {
        0 => {}
        1 => sort_passes::<1>(pairs, tmp),
        2 => sort_passes::<2>(pairs, tmp),
        3 => sort_passes::<3>(pairs, tmp),
        4 => sort_passes::<4>(pairs, tmp),
        5 => sort_passes::<5>(pairs, tmp),
        _ => sort_passes::<6>(pairs, tmp),
    }
}

/// [`radix_sort_by_key`] over the low `PASSES` digits of the keys.
fn sort_passes<const PASSES: usize>(pairs: &mut Vec<(u64, u32)>, tmp: &mut Vec<(u64, u32)>) {
    let digit =
        |key: u64, pass: usize| (key >> (pass as u32 * DIGIT_BITS)) as usize & (BUCKETS - 1);
    let mut counts = [[0u32; BUCKETS]; PASSES];
    for &(key, _) in pairs.iter() {
        for (pass, hist) in counts.iter_mut().enumerate() {
            hist[digit(key, pass)] += 1;
        }
    }
    // Every pass overwrites all of `tmp`, so stale pairs need no clearing.
    tmp.resize(pairs.len(), (0, 0));
    for (pass, hist) in counts.iter_mut().enumerate() {
        // A digit every key shares orders nothing.
        if hist[digit(pairs[0].0, pass)] as usize == pairs.len() {
            continue;
        }
        let mut start = 0u32;
        for c in hist.iter_mut() {
            start += std::mem::replace(c, start);
        }
        for &pair in pairs.iter() {
            let at = &mut hist[digit(pair.0, pass)];
            tmp[*at as usize] = pair;
            *at += 1;
        }
        std::mem::swap(pairs, tmp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    #[test]
    fn radix_sort_orders_pairs_like_sort_unstable() {
        let mut rng = SplitMix64::new(5);
        let mut tmp = vec![(7, 7); 3];
        // Every key width a caller passes (curve ranks, rank pairs, cell
        // keys) and both ends; for each, (pairs, distinct keys): empty, one
        // pair, one key throughout (every pass skipped), few keys (long
        // runs), and keys over the whole width.
        for key_bits in [0, 1, 7, 11, 12, 14, 22, 26, 34, 42, 63, 64] {
            let draw =
                |rng: &mut SplitMix64| rng.next_u64().checked_shr(64 - key_bits).unwrap_or(0);
            for (n, distinct) in [(0, 1), (1, 1), (500, 1), (5000, 7), (5000, u64::MAX)] {
                let palette: Vec<u64> = (0..distinct.min(64)).map(|_| draw(&mut rng)).collect();
                let mut pairs: Vec<(u64, u32)> = (0..n)
                    .map(|i| {
                        let key = if distinct == u64::MAX {
                            draw(&mut rng)
                        } else {
                            palette[rng.next_u64() as usize % palette.len()]
                        };
                        (key, i)
                    })
                    .collect();
                let mut expect = pairs.clone();
                expect.sort_unstable();
                radix_sort_by_key(&mut pairs, &mut tmp, key_bits);
                assert_eq!(pairs, expect, "bits={key_bits} n={n} distinct={distinct}");
            }
        }
    }

    #[test]
    fn radix_sort_is_stable_on_unordered_payloads() {
        // Payloads that do not arrive ascending keep their arrival order
        // within a key: the property that makes the sort stable, not just
        // equal to sorting the pairs.
        let mut pairs: Vec<(u64, u32)> =
            (0..2000u32).map(|i| (u64::from(i % 5), 9999 - i)).collect();
        let mut expect = pairs.clone();
        expect.sort_by_key(|&(k, _)| k);
        radix_sort_by_key(&mut pairs, &mut Vec::new(), 3);
        assert_eq!(pairs, expect);
    }
}
