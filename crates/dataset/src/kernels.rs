//! Chunked, autovectorizer-friendly set kernels.
//!
//! Every base of the paper is computed almost entirely out of two
//! primitives: word-wise bitset intersection + popcount (dense extents)
//! and sorted-list intersection (tid-lists, itemset intents). Those inner
//! loops dominate once the algorithmic passes are fixed, so they live
//! here as standalone kernels over raw `&[u64]` / `&[T]` slices, shared
//! by [`BitSet`], the engine backends, and [`Itemset`].
//!
//! Two techniques, both measured (not asserted) by the `counting` bench's
//! kernel ablation and property-tested equal to the [`scalar`] reference
//! implementations:
//!
//! * **Chunked popcount accumulation** — the counting kernels walk the
//!   word arrays in fixed 8×`u64` chunks and dispatch once per call on a
//!   cached CPUID probe: when the CPU has a hardware `popcnt` (which the
//!   default `x86-64` baseline LLVM builds for cannot assume, so the
//!   instruction never appears without the runtime check), the chunk
//!   body is four independent popcount accumulator chains — `popcnt`
//!   retires one per cycle but carries 3 cycles of latency plus a false
//!   output dependency on older cores, so a single serial sum would run
//!   at a third of throughput. Everywhere else the words stream through
//!   a Harley–Seal carry-save adder network with the `ones`/`twos`/
//!   `fours` residues carried **across** chunks: seven CSA steps
//!   compress eight words into one `eights` word, so the loop performs
//!   one bit-trick popcount per eight words instead of eight, and the
//!   residues are folded exactly once at the end. The straight-line
//!   chunk bodies (no data-dependent branches) are also what the
//!   autovectorizer wants when wider units are available.
//! * **Galloping (exponential-search) sorted intersection** — when one
//!   list is ≥ [`GALLOP_RATIO`]× longer than the other (rare item meets
//!   frequent item: the common case below the first levels), the merge
//!   walks the short list and exponential-searches the long one, for
//!   `O(short · log(long/short))` instead of `O(short + long)`. Balanced
//!   inputs take a branch-light two-pointer merge whose cursor bumps
//!   compile to conditional moves rather than mispredicted branches.
//!
//! [`BitSet`]: crate::BitSet
//! [`Itemset`]: crate::Itemset

/// Length-ratio threshold at which sorted-list intersection switches
/// from the linear merge to galloping: with the long list under this
/// multiple of the short one, the exponential searches touch about as
/// much memory as the merge would and lose on branchiness.
pub const GALLOP_RATIO: usize = 16;

/// Words per chunk of the counting kernels — 8×`u64` = 512 bits, the
/// Harley–Seal compression width (and two cache lines of each operand).
pub const CHUNK_WORDS: usize = 8;

/// Words per cache block of the blocked batch-counting loops: 256×`u64`
/// = 2 KiB per operand = 16384 objects. A candidate tile's item covers
/// stay L1/L2-resident across the whole tile at this size, instead of
/// each candidate streaming its full covers from memory.
pub const BLOCK_WORDS: usize = 256;

/// Carry-save adder: compresses three one-bit-per-lane addends into a
/// (carry, sum) pair — the compression step of the Harley–Seal popcount.
#[inline(always)]
fn csa(a: u64, b: u64, c: u64) -> (u64, u64) {
    let u = a ^ b;
    ((a & b) | (u & c), u ^ c)
}

/// Streaming Harley–Seal popcount over `len` words fed through `f(i)`
/// (the word producer: a load, an AND, an AND-NOT …): whole 8-word
/// chunks through the CSA network with the `ones`/`twos`/`fours`
/// residues carried across chunks — one in-loop popcount (of `eights`)
/// per chunk, three residue popcounts total — then the ragged tail
/// word-by-word. The portable path of [`chunked_count`].
#[inline(always)]
fn harley_seal_count(len: usize, mut f: impl FnMut(usize) -> u64) -> usize {
    let chunks = len / CHUNK_WORDS;
    let (mut ones, mut twos, mut fours) = (0u64, 0u64, 0u64);
    let mut eights_total = 0usize;
    for c in 0..chunks {
        let base = c * CHUNK_WORDS;
        let (twos_a, o) = csa(f(base), f(base + 1), ones);
        let (twos_b, o) = csa(f(base + 2), f(base + 3), o);
        let (fours_a, t) = csa(twos_a, twos_b, twos);
        let (twos_a, o) = csa(f(base + 4), f(base + 5), o);
        let (twos_b, o) = csa(f(base + 6), f(base + 7), o);
        let (fours_b, t) = csa(twos_a, twos_b, t);
        let (eights, fo) = csa(fours_a, fours_b, fours);
        ones = o;
        twos = t;
        fours = fo;
        eights_total += eights.count_ones() as usize;
    }
    let mut total = 8 * eights_total
        + 4 * fours.count_ones() as usize
        + 2 * twos.count_ones() as usize
        + ones.count_ones() as usize;
    for i in chunks * CHUNK_WORDS..len {
        total += f(i).count_ones() as usize;
    }
    total
}

/// The counting kernels compiled with the `popcnt` target feature:
/// every `count_ones()` in here lowers to the hardware instruction.
/// Four round-robin accumulator chains keep it at its one-per-cycle
/// throughput despite its 3-cycle latency (and the false output
/// dependency of older cores). The slice kernels walk `as_chunks`
/// arrays so no bounds check survives into the loop — the generic
/// closure fallback cannot get that for free, because a
/// `#[target_feature]` function is an inlining barrier and the caller's
/// length proofs stop at it.
///
/// # Safety
///
/// Every function requires a CPU with `popcnt` — callers hold a
/// [`is_x86_feature_detected!`](std::arch::is_x86_feature_detected)
/// check.
#[cfg(target_arch = "x86_64")]
mod popcnt {
    use super::CHUNK_WORDS;

    /// Folds one 8-word chunk into the four accumulator chains.
    macro_rules! fold_chunk {
        ($acc:ident, $($w:expr),+) => {{
            let mut k = 0usize;
            $(
                $acc[k & 3] += ($w).count_ones() as usize;
                k += 1;
            )+
            let _ = k;
        }};
    }

    /// Hardware-popcnt population count.
    #[target_feature(enable = "popcnt")]
    pub(super) fn count(words: &[u64]) -> usize {
        let (chunks, tail) = words.as_chunks::<CHUNK_WORDS>();
        let mut acc = [0usize; 4];
        for c in chunks {
            fold_chunk!(acc, c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]);
        }
        acc.iter().sum::<usize>() + tail.iter().map(|w| w.count_ones() as usize).sum::<usize>()
    }

    /// Hardware-popcnt AND + count.
    #[target_feature(enable = "popcnt")]
    pub(super) fn and_count(a: &[u64], b: &[u64]) -> usize {
        let (ca, ta) = a.as_chunks::<CHUNK_WORDS>();
        let (cb, tb) = b.as_chunks::<CHUNK_WORDS>();
        let mut acc = [0usize; 4];
        for (x, y) in ca.iter().zip(cb) {
            fold_chunk!(
                acc,
                x[0] & y[0],
                x[1] & y[1],
                x[2] & y[2],
                x[3] & y[3],
                x[4] & y[4],
                x[5] & y[5],
                x[6] & y[6],
                x[7] & y[7]
            );
        }
        acc.iter().sum::<usize>()
            + ta.iter()
                .zip(tb)
                .map(|(x, y)| (x & y).count_ones() as usize)
                .sum::<usize>()
    }

    /// Hardware-popcnt AND-NOT + count.
    #[target_feature(enable = "popcnt")]
    pub(super) fn and_not_count(a: &[u64], b: &[u64]) -> usize {
        let (ca, ta) = a.as_chunks::<CHUNK_WORDS>();
        let (cb, tb) = b.as_chunks::<CHUNK_WORDS>();
        let mut acc = [0usize; 4];
        for (x, y) in ca.iter().zip(cb) {
            fold_chunk!(
                acc,
                x[0] & !y[0],
                x[1] & !y[1],
                x[2] & !y[2],
                x[3] & !y[3],
                x[4] & !y[4],
                x[5] & !y[5],
                x[6] & !y[6],
                x[7] & !y[7]
            );
        }
        acc.iter().sum::<usize>()
            + ta.iter()
                .zip(tb)
                .map(|(x, y)| (x & !y).count_ones() as usize)
                .sum::<usize>()
    }

    /// Hardware-popcnt chunked loop over an arbitrary word producer —
    /// the dispatch target for the fused (mutating) and multi-operand
    /// kernels. `f` is invoked in index order, so mutating producers
    /// see the same sequence as the portable path.
    #[target_feature(enable = "popcnt")]
    pub(super) fn chunked(len: usize, mut f: impl FnMut(usize) -> u64) -> usize {
        let chunks = len / CHUNK_WORDS;
        let mut acc = [0usize; 4];
        for c in 0..chunks {
            let base = c * CHUNK_WORDS;
            fold_chunk!(
                acc,
                f(base),
                f(base + 1),
                f(base + 2),
                f(base + 3),
                f(base + 4),
                f(base + 5),
                f(base + 6),
                f(base + 7)
            );
        }
        let mut total = acc.iter().sum::<usize>();
        for i in chunks * CHUNK_WORDS..len {
            total += f(i).count_ones() as usize;
        }
        total
    }
}

/// Whether this CPU has the hardware `popcnt` instruction — one cached
/// CPUID probe behind an atomic load, so the per-call dispatch cost is
/// negligible next to even an 8-word kernel.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn has_popcnt() -> bool {
    std::arch::is_x86_feature_detected!("popcnt")
}

/// Runs the chunked counting loop over `len` words, dispatching on the
/// cached CPUID probe: hardware `popcnt` chains when the CPU has the
/// instruction, the streaming Harley–Seal network otherwise. `f` is
/// invoked exactly once per index, in order, on both paths.
#[inline(always)]
fn chunked_count(len: usize, f: impl FnMut(usize) -> u64) -> usize {
    #[cfg(target_arch = "x86_64")]
    if has_popcnt() {
        // SAFETY: `has_popcnt` just confirmed the target feature.
        return unsafe { popcnt::chunked(len, f) };
    }
    harley_seal_count(len, f)
}

/// Population count of a word slice.
pub fn count(words: &[u64]) -> usize {
    #[cfg(target_arch = "x86_64")]
    if has_popcnt() {
        // SAFETY: `has_popcnt` just confirmed the target feature.
        return unsafe { popcnt::count(words) };
    }
    harley_seal_count(words.len(), |i| words[i])
}

/// `|a ∩ b|`: popcount of the word-wise AND, without materializing it.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn and_count(a: &[u64], b: &[u64]) -> usize {
    assert_eq!(a.len(), b.len(), "word length mismatch");
    #[cfg(target_arch = "x86_64")]
    if has_popcnt() {
        // SAFETY: `has_popcnt` just confirmed the target feature.
        return unsafe { popcnt::and_count(a, b) };
    }
    harley_seal_count(a.len(), |i| a[i] & b[i])
}

/// `|a ∖ b|`: popcount of the word-wise AND-NOT, without materializing
/// it — how much of `a` does `b` miss.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn and_not_count(a: &[u64], b: &[u64]) -> usize {
    assert_eq!(a.len(), b.len(), "word length mismatch");
    #[cfg(target_arch = "x86_64")]
    if has_popcnt() {
        // SAFETY: `has_popcnt` just confirmed the target feature.
        return unsafe { popcnt::and_not_count(a, b) };
    }
    harley_seal_count(a.len(), |i| a[i] & !b[i])
}

/// Whether `a ⊆ b` as bit sets, chunk-at-a-time with an early exit: the
/// first 8-word chunk containing a bit of `a ∖ b` stops the scan.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn is_subset(a: &[u64], b: &[u64]) -> bool {
    assert_eq!(a.len(), b.len(), "word length mismatch");
    let chunks = a.len() / CHUNK_WORDS;
    for c in 0..chunks {
        let base = c * CHUNK_WORDS;
        let mut acc = 0u64;
        for i in 0..CHUNK_WORDS {
            acc |= a[base + i] & !b[base + i];
        }
        if acc != 0 {
            return false;
        }
    }
    a[chunks * CHUNK_WORDS..]
        .iter()
        .zip(&b[chunks * CHUNK_WORDS..])
        .all(|(&x, &y)| x & !y == 0)
}

/// Whether any word is non-zero, chunk-at-a-time with an early exit.
pub fn any(words: &[u64]) -> bool {
    let chunks = words.len() / CHUNK_WORDS;
    for c in 0..chunks {
        let base = c * CHUNK_WORDS;
        let mut acc = 0u64;
        for i in 0..CHUNK_WORDS {
            acc |= words[base + i];
        }
        if acc != 0 {
            return true;
        }
    }
    words[chunks * CHUNK_WORDS..].iter().any(|&w| w != 0)
}

/// In-place `a ← a ∧ b`.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn and_assign(a: &mut [u64], b: &[u64]) {
    assert_eq!(a.len(), b.len(), "word length mismatch");
    for (x, &y) in a.iter_mut().zip(b) {
        *x &= y;
    }
}

/// In-place `a ← a ∨ b`.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn or_assign(a: &mut [u64], b: &[u64]) {
    assert_eq!(a.len(), b.len(), "word length mismatch");
    for (x, &y) in a.iter_mut().zip(b) {
        *x |= y;
    }
}

/// In-place `a ← a ∧ ¬b`.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn and_not_assign(a: &mut [u64], b: &[u64]) {
    assert_eq!(a.len(), b.len(), "word length mismatch");
    for (x, &y) in a.iter_mut().zip(b) {
        *x &= !y;
    }
}

/// Fused in-place intersect + count: `a ← a ∧ b`, returning the
/// popcount of the result in the same pass — kills the separate count
/// sweep of the intersect-then-count pattern on every extent refinement.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn and_assign_count(a: &mut [u64], b: &[u64]) -> usize {
    assert_eq!(a.len(), b.len(), "word length mismatch");
    let len = a.len();
    chunked_count(len, |i| {
        let w = a[i] & b[i];
        a[i] = w;
        w
    })
}

/// Fused intersect-into + count: `out ← a ∧ b` (overwriting `out`,
/// which is resized to match), returning the popcount of the result in
/// the same pass — the allocation-free form behind
/// [`BitSet::intersect_count_into`](crate::BitSet::intersect_count_into).
///
/// # Panics
///
/// Panics if `a` and `b` differ in length.
pub fn and_into_count(out: &mut Vec<u64>, a: &[u64], b: &[u64]) -> usize {
    assert_eq!(a.len(), b.len(), "word length mismatch");
    out.clear();
    out.resize(a.len(), 0);
    let len = a.len();
    chunked_count(len, |i| {
        let w = a[i] & b[i];
        out[i] = w;
        w
    })
}

/// Popcount of the word-wise AND of every operand over the word range
/// `start..end`, without materializing it — the cache-blocked candidate
/// counting primitive. Callers tile `start..end` in [`BLOCK_WORDS`]
/// steps so each operand's block is loaded once per tile and reused
/// across every candidate touching it. No operands means the empty
/// intersection of covers, i.e. the full range.
///
/// # Panics
///
/// Panics if any operand is shorter than `end`.
pub fn and_many_count_range(operands: &[&[u64]], start: usize, end: usize) -> usize {
    match operands {
        [] => 64 * (end - start),
        [a] => chunked_count(end - start, |i| a[start + i]),
        [a, b] => chunked_count(end - start, |i| a[start + i] & b[start + i]),
        [a, b, rest @ ..] => chunked_count(end - start, |i| {
            rest.iter()
                .fold(a[start + i] & b[start + i], |acc, s| acc & s[start + i])
        }),
    }
}

/// Advances `cursor` through sorted `list` to the first position whose
/// element is `>= target`, by exponential (galloping) search from the
/// current cursor. Returns the new cursor (== `list.len()` when every
/// remaining element is smaller).
#[inline]
fn gallop_to<T: Ord>(list: &[T], mut cursor: usize, target: &T) -> usize {
    // Exponential probe: find a bracket [cursor + step/2, cursor + step]
    // containing the boundary.
    let mut step = 1usize;
    while cursor + step < list.len() && list[cursor + step] < *target {
        cursor += step;
        step <<= 1;
    }
    let hi = (cursor + step).min(list.len());
    // Binary search the bracket.
    let mut lo = cursor;
    let mut hi = hi;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if list[mid] < *target {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Whether the adaptive intersection kernels gallop for these lengths:
/// one side at least [`GALLOP_RATIO`]× the other (and the short side
/// non-empty).
#[inline]
pub fn should_gallop(a_len: usize, b_len: usize) -> bool {
    let (short, long) = if a_len <= b_len {
        (a_len, b_len)
    } else {
        (b_len, a_len)
    };
    short > 0 && long >= short.saturating_mul(GALLOP_RATIO)
}

/// Branch-light linear merge intersection: cursor bumps are computed
/// from comparisons instead of taken branches, so balanced inputs do
/// not pay a misprediction per element.
fn merge_intersect<T: Ord + Copy>(a: &[T], b: &[T], out: &mut Vec<T>) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        if x == y {
            out.push(x);
            i += 1;
            j += 1;
        } else {
            i += usize::from(x < y);
            j += usize::from(y < x);
        }
    }
}

/// Branch-light linear merge intersection count.
fn merge_intersect_count<T: Ord + Copy>(a: &[T], b: &[T]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        n += usize::from(x == y);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    n
}

/// Galloping intersection: walks the short list, exponential-searching
/// the long one from a monotone cursor.
fn gallop_intersect<T: Ord + Copy>(short: &[T], long: &[T], out: &mut Vec<T>) {
    let mut cursor = 0;
    for &x in short {
        cursor = gallop_to(long, cursor, &x);
        if cursor == long.len() {
            break;
        }
        if long[cursor] == x {
            out.push(x);
            cursor += 1;
        }
    }
}

/// Galloping intersection count.
fn gallop_intersect_count<T: Ord + Copy>(short: &[T], long: &[T]) -> usize {
    let mut cursor = 0;
    let mut n = 0;
    for &x in short {
        cursor = gallop_to(long, cursor, &x);
        if cursor == long.len() {
            break;
        }
        if long[cursor] == x {
            n += 1;
            cursor += 1;
        }
    }
    n
}

/// Adaptive sorted intersection: gallops when the lengths are skewed by
/// at least [`GALLOP_RATIO`], merges branch-light when balanced. Both
/// inputs must be strictly sorted; the output is.
pub fn intersect_sorted<T: Ord + Copy>(a: &[T], b: &[T]) -> Vec<T> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    if should_gallop(a.len(), b.len()) {
        if a.len() <= b.len() {
            gallop_intersect(a, b, &mut out);
        } else {
            gallop_intersect(b, a, &mut out);
        }
    } else {
        merge_intersect(a, b, &mut out);
    }
    out
}

/// Adaptive sorted intersection size, without materializing it.
pub fn intersect_count_sorted<T: Ord + Copy>(a: &[T], b: &[T]) -> usize {
    if should_gallop(a.len(), b.len()) {
        if a.len() <= b.len() {
            gallop_intersect_count(a, b)
        } else {
            gallop_intersect_count(b, a)
        }
    } else {
        merge_intersect_count(a, b)
    }
}

/// Adaptive in-place sorted intersection: `a ← a ∩ b`, compacting `a`
/// in one pass. Gallops through `b` when it is ≥ [`GALLOP_RATIO`]×
/// longer than `a` — the closure-by-intersection shape, where a shrunk
/// intent meets a long transaction row.
pub fn intersect_in_place<T: Ord + Copy>(a: &mut Vec<T>, b: &[T]) {
    if should_gallop(a.len(), b.len()) && a.len() <= b.len() {
        let mut write = 0;
        let mut cursor = 0;
        for read in 0..a.len() {
            let x = a[read];
            cursor = gallop_to(b, cursor, &x);
            if cursor == b.len() {
                break;
            }
            if b[cursor] == x {
                a[write] = x;
                write += 1;
                cursor += 1;
            }
        }
        a.truncate(write);
        return;
    }
    // Branch-light merge compaction (also the `a` much longer than `b`
    // case: the write cursor never outruns the read cursor, so galloping
    // through `a` would complicate compaction for no asymptotic win —
    // the merge is O(|a|) and |a| dominates anyway).
    let mut write = 0;
    let mut read = 0;
    let mut j = 0;
    while read < a.len() && j < b.len() {
        let (x, y) = (a[read], b[j]);
        if x == y {
            a[write] = x;
            write += 1;
            read += 1;
            j += 1;
        } else {
            read += usize::from(x < y);
            j += usize::from(y < x);
        }
    }
    a.truncate(write);
}

/// Scalar reference implementations of every kernel above.
///
/// These are the seed's original one-word-at-a-time / two-pointer loops,
/// retained verbatim for two jobs: the property tests pin each chunked
/// or galloping kernel bit-for-bit equal to its scalar twin across
/// ragged and skewed inputs, and the `counting` bench's kernel ablation
/// measures the chunked/galloping win against them instead of asserting
/// it. They are not called on any hot path.
pub mod scalar {
    /// One-accumulator word-at-a-time popcount.
    pub fn count(words: &[u64]) -> usize {
        words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// One-accumulator word-at-a-time AND + popcount.
    pub fn and_count(a: &[u64], b: &[u64]) -> usize {
        assert_eq!(a.len(), b.len(), "word length mismatch");
        a.iter()
            .zip(b)
            .map(|(x, y)| (x & y).count_ones() as usize)
            .sum()
    }

    /// One-accumulator word-at-a-time AND-NOT + popcount.
    pub fn and_not_count(a: &[u64], b: &[u64]) -> usize {
        assert_eq!(a.len(), b.len(), "word length mismatch");
        a.iter()
            .zip(b)
            .map(|(x, y)| (x & !y).count_ones() as usize)
            .sum()
    }

    /// Word-at-a-time subset test.
    pub fn is_subset(a: &[u64], b: &[u64]) -> bool {
        assert_eq!(a.len(), b.len(), "word length mismatch");
        a.iter().zip(b).all(|(x, y)| x & !y == 0)
    }

    /// Classic branchy two-pointer sorted intersection.
    pub fn intersect_sorted<T: Ord + Copy>(a: &[T], b: &[T]) -> Vec<T> {
        let mut out = Vec::with_capacity(a.len().min(b.len()));
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out
    }

    /// Classic branchy two-pointer sorted intersection count.
    pub fn intersect_count_sorted<T: Ord + Copy>(a: &[T], b: &[T]) -> usize {
        let (mut i, mut j, mut n) = (0, 0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    n += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic word patterns with mixed density.
    fn words(len: usize, seed: u64) -> Vec<u64> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            })
            .collect()
    }

    /// Word lengths covering empty, sub-chunk, exact-chunk, chunk+1, and
    /// multi-chunk boundaries (8-word chunks).
    const RAGGED: [usize; 9] = [0, 1, 2, 7, 8, 9, 16, 17, 40];

    #[test]
    fn counting_kernels_match_scalar_on_ragged_lengths() {
        for &len in &RAGGED {
            let a = words(len, 0xA5A5);
            let b = words(len, 0x5A5A);
            assert_eq!(count(&a), scalar::count(&a), "count len={len}");
            assert_eq!(and_count(&a, &b), scalar::and_count(&a, &b), "len={len}");
            assert_eq!(
                and_not_count(&a, &b),
                scalar::and_not_count(&a, &b),
                "len={len}"
            );
            assert_eq!(is_subset(&a, &b), scalar::is_subset(&a, &b), "len={len}");
            let masked: Vec<u64> = a.iter().zip(&b).map(|(x, y)| x & y).collect();
            assert!(is_subset(&masked, &a), "len={len}");
            assert!(is_subset(&masked, &b), "len={len}");
        }
    }

    #[test]
    fn fused_assign_kernels_match_two_pass() {
        for &len in &RAGGED {
            let a = words(len, 3);
            let b = words(len, 11);
            let expect: Vec<u64> = a.iter().zip(&b).map(|(x, y)| x & y).collect();

            let mut in_place = a.clone();
            let n = and_assign_count(&mut in_place, &b);
            assert_eq!(in_place, expect, "len={len}");
            assert_eq!(n, scalar::count(&expect), "len={len}");

            let mut out = vec![!0u64; 3]; // stale content must be overwritten
            let n = and_into_count(&mut out, &a, &b);
            assert_eq!(out, expect, "len={len}");
            assert_eq!(n, scalar::count(&expect), "len={len}");
        }
    }

    #[test]
    fn and_many_count_range_matches_fold() {
        let a = words(40, 1);
        let b = words(40, 2);
        let c = words(40, 3);
        for (start, end) in [(0usize, 40usize), (0, 0), (8, 40), (3, 21), (32, 40)] {
            let span = end - start;
            assert_eq!(and_many_count_range(&[], start, end), 64 * span);
            assert_eq!(
                and_many_count_range(&[&a], start, end),
                scalar::count(&a[start..end])
            );
            assert_eq!(
                and_many_count_range(&[&a, &b], start, end),
                scalar::and_count(&a[start..end], &b[start..end])
            );
            let abc: Vec<u64> = (start..end).map(|i| a[i] & b[i] & c[i]).collect();
            assert_eq!(
                and_many_count_range(&[&a, &b, &c], start, end),
                scalar::count(&abc)
            );
        }
    }

    #[test]
    fn any_finds_lone_bits_at_chunk_boundaries() {
        assert!(!any(&[]));
        assert!(!any(&vec![0u64; 40]));
        for pos in [0usize, 7, 8, 15, 16, 39] {
            let mut w = vec![0u64; 40];
            w[pos] = 1 << 63;
            assert!(any(&w), "word {pos}");
        }
    }

    #[test]
    fn gallop_ratio_switch() {
        assert!(!should_gallop(0, 100));
        assert!(!should_gallop(100, 0));
        assert!(!should_gallop(10, 100));
        assert!(should_gallop(10, 160));
        assert!(should_gallop(160, 10));
        assert!(!should_gallop(10, 159));
    }

    fn sorted_list(len: usize, stride: usize, offset: u32) -> Vec<u32> {
        (0..len as u32)
            .map(|i| i * stride as u32 + offset)
            .collect()
    }

    #[test]
    fn adaptive_intersection_matches_scalar_on_skew_grid() {
        // Length pairs spanning balanced, mildly skewed, and ≥16:1
        // (gallop-triggering) shapes, with strides that interleave.
        let shapes = [
            (0usize, 0usize),
            (0, 10),
            (1, 1),
            (1, 40),
            (5, 7),
            (64, 64),
            (4, 64),
            (4, 65),
            (30, 480),
            (100, 1600),
            (3, 1000),
        ];
        for &(la, lb) in &shapes {
            for (sa, sb) in [(1, 1), (2, 3), (1, 7), (5, 1)] {
                let a = sorted_list(la, sa, 0);
                let b = sorted_list(lb, sb, 1);
                let expect = scalar::intersect_sorted(&a, &b);
                assert_eq!(intersect_sorted(&a, &b), expect, "{la}x{sa} vs {lb}x{sb}");
                assert_eq!(
                    intersect_count_sorted(&a, &b),
                    expect.len(),
                    "{la}x{sa} vs {lb}x{sb}"
                );
                // Symmetric.
                assert_eq!(intersect_sorted(&b, &a), expect, "{la}x{sa} vs {lb}x{sb}");
                let mut in_place = a.clone();
                intersect_in_place(&mut in_place, &b);
                assert_eq!(in_place, expect, "{la}x{sa} vs {lb}x{sb}");
                let mut in_place = b.clone();
                intersect_in_place(&mut in_place, &a);
                assert_eq!(in_place, expect, "{la}x{sa} vs {lb}x{sb}");
            }
        }
    }

    #[test]
    fn gallop_to_brackets_every_boundary() {
        let list = sorted_list(100, 3, 0); // 0, 3, 6, ..., 297
        for target in [0u32, 1, 3, 148, 150, 297, 298, 1000] {
            let expect = list.partition_point(|&x| x < target);
            for start in [0usize, 1, 5, 50] {
                if start <= expect {
                    assert_eq!(gallop_to(&list, start, &target), expect, "target {target}");
                }
            }
        }
    }

    /// The complexity-sensitive pin: on a ≥16:1 skewed pair the adaptive
    /// kernel must perform sublinearly many comparisons in the long
    /// list's length, where the two-pointer scalar walks all of it.
    #[test]
    fn gallop_does_sublinear_comparisons_on_skewed_pairs() {
        use std::cell::Cell;
        thread_local! {
            static COMPARISONS: Cell<usize> = const { Cell::new(0) };
        }

        #[derive(Clone, Copy, PartialEq, Eq)]
        struct Counted(u32);
        impl PartialOrd for Counted {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Counted {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                COMPARISONS.with(|c| c.set(c.get() + 1));
                self.0.cmp(&other.0)
            }
        }

        let short: Vec<Counted> = (0..64u32).map(|i| Counted(i * 251)).collect();
        let long: Vec<Counted> = (0..16_384u32).map(Counted).collect();
        let reset = || COMPARISONS.with(|c| c.replace(0));

        reset();
        let expect = scalar::intersect_count_sorted(&short, &long);
        let scalar_cmps = reset();
        let got = intersect_count_sorted(&short, &long);
        let adaptive_cmps = reset();

        assert_eq!(got, expect);
        assert!(
            scalar_cmps >= long.len() / 2,
            "two-pointer must walk most of the long list: {scalar_cmps}"
        );
        // 64 gallops into 16384 elements: ~64·(2·log2(256)) comparisons.
        // A quarter of the long list is a generous ceiling that a linear
        // walk cannot meet.
        assert!(
            adaptive_cmps < long.len() / 4,
            "gallop did {adaptive_cmps} comparisons on a {}-element list",
            long.len()
        );

        // Same pin for the in-place (Itemset::intersect_with) shape.
        let mut in_place = short.clone();
        reset();
        intersect_in_place(&mut in_place, &long);
        let in_place_cmps = reset();
        assert_eq!(in_place.len(), expect);
        assert!(
            in_place_cmps < long.len() / 4,
            "in-place gallop did {in_place_cmps} comparisons"
        );
    }
}
