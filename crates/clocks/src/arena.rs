//! Flat arena storage for fixed-width clock vectors.
//!
//! The detection algorithms consume large numbers of scope-projected
//! snapshot timestamps, all of the same width `n`. Storing each as its own
//! heap-allocated [`VectorClock`](crate::VectorClock) costs one allocation
//! per snapshot and scatters the comparisons the Figure 3 loop makes across
//! the heap. A [`ClockArena`] instead packs every clock into one `Vec<u64>`
//! with stride `n`; rows are handed out as [`ClockRow`] slice views carrying
//! the same `causal_order` / componentwise-compare API as `VectorClock`.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Deref, Index};

use crate::{CausalOrder, ProcessId, VectorClock};

/// Causal comparison of two raw component slices (the slice-level form of
/// [`VectorClock::causal_order`]).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn slice_causal_order(a: &[u64], b: &[u64]) -> CausalOrder {
    assert_eq!(
        a.len(),
        b.len(),
        "cannot compare vector clocks of different widths"
    );
    let mut less = false;
    let mut greater = false;
    for (x, y) in a.iter().zip(b) {
        match x.cmp(y) {
            Ordering::Less => less = true,
            Ordering::Greater => greater = true,
            Ordering::Equal => {}
        }
        if less && greater {
            return CausalOrder::Concurrent;
        }
    }
    match (less, greater) {
        (false, false) => CausalOrder::Equal,
        (true, false) => CausalOrder::Before,
        (false, true) => CausalOrder::After,
        (true, true) => CausalOrder::Concurrent,
    }
}

/// A borrowed, fixed-width clock vector: one row of a [`ClockArena`].
///
/// Derefs to `&[u64]`, so indexing and iteration work as on a slice, and
/// mirrors the comparison API of [`VectorClock`].
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct ClockRow<'a> {
    components: &'a [u64],
}

impl<'a> ClockRow<'a> {
    /// Wraps a raw component slice as a clock view.
    pub fn new(components: &'a [u64]) -> Self {
        ClockRow { components }
    }

    /// Read-only view of the raw components.
    pub fn as_slice(&self) -> &'a [u64] {
        self.components
    }

    /// Returns the component for `p`, or `None` if out of range.
    pub fn get(&self, p: ProcessId) -> Option<u64> {
        self.components.get(p.index()).copied()
    }

    /// Determines the causal relationship to another timestamp.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn causal_order(&self, other: ClockRow<'_>) -> CausalOrder {
        slice_causal_order(self.components, other.components)
    }

    /// `true` iff `self → other` in the happened-before order.
    pub fn happened_before(&self, other: ClockRow<'_>) -> bool {
        self.causal_order(other) == CausalOrder::Before
    }

    /// `true` iff the two timestamps are concurrent (`self ‖ other`).
    pub fn concurrent(&self, other: ClockRow<'_>) -> bool {
        self.causal_order(other) == CausalOrder::Concurrent
    }

    /// Componentwise `≤` (reflexive happened-before).
    pub fn le(&self, other: ClockRow<'_>) -> bool {
        matches!(
            self.causal_order(other),
            CausalOrder::Equal | CausalOrder::Before
        )
    }

    /// Copies the row into an owned [`VectorClock`].
    pub fn to_vector_clock(&self) -> VectorClock {
        VectorClock::from_components(self.components.to_vec())
    }

    /// Size of this clock in bytes when transmitted (one `u64` per
    /// component), matching [`VectorClock::wire_size`].
    pub fn wire_size(&self) -> usize {
        self.components.len() * 8
    }
}

impl Deref for ClockRow<'_> {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        self.components
    }
}

impl Index<ProcessId> for ClockRow<'_> {
    type Output = u64;

    fn index(&self, p: ProcessId) -> &u64 {
        &self.components[p.index()]
    }
}

// Kept beside the `ProcessId` impl: with only that one, integer indexing
// would no longer fall through `Deref` to the slice.
impl Index<usize> for ClockRow<'_> {
    type Output = u64;

    fn index(&self, i: usize) -> &u64 {
        &self.components[i]
    }
}

impl fmt::Debug for ClockRow<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ClockRow({:?})", self.components)
    }
}

impl fmt::Display for ClockRow<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, c) in self.components.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "]")
    }
}

/// Flat storage for clock vectors of a fixed width.
///
/// All rows share one backing `Vec<u64>` with stride [`stride`](Self::stride),
/// so building an arena of `m` clocks performs `O(1)` allocations (amortized
/// — exactly one when constructed [`with_capacity`](Self::with_capacity))
/// instead of `m`.
///
/// # Example
///
/// ```rust
/// use wcp_clocks::{CausalOrder, ClockArena};
///
/// let mut arena = ClockArena::with_capacity(3, 2);
/// let a = arena.push(&[1, 0, 0]);
/// let b = arena.push(&[1, 1, 0]);
/// assert_eq!(arena.row(a).causal_order(arena.row(b)), CausalOrder::Before);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClockArena {
    stride: usize,
    data: Vec<u64>,
}

impl ClockArena {
    /// Creates an empty arena whose rows are `stride` components wide.
    pub fn new(stride: usize) -> Self {
        ClockArena {
            stride,
            data: Vec::new(),
        }
    }

    /// Creates an empty arena pre-sized for `rows` clocks, so filling it to
    /// that size performs no further allocations.
    pub fn with_capacity(stride: usize, rows: usize) -> Self {
        ClockArena {
            stride,
            data: Vec::with_capacity(stride * rows),
        }
    }

    /// Creates an arena of `rows` all-zero clocks, for callers that fill
    /// rows out of order.
    pub fn zeroed(stride: usize, rows: usize) -> Self {
        ClockArena {
            stride,
            data: vec![0; stride * rows],
        }
    }

    /// Width of every row.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Number of rows stored.
    pub fn len(&self) -> usize {
        self.data.len().checked_div(self.stride).unwrap_or(0)
    }

    /// Returns `true` if no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Appends a row, returning its index.
    ///
    /// # Panics
    ///
    /// Panics if `components` is not exactly [`stride`](Self::stride) wide.
    pub fn push(&mut self, components: &[u64]) -> usize {
        assert_eq!(
            components.len(),
            self.stride,
            "row width must equal the arena stride"
        );
        let id = self.len();
        self.data.extend_from_slice(components);
        id
    }

    /// Returns the row at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn row(&self, index: usize) -> ClockRow<'_> {
        let start = index * self.stride;
        ClockRow::new(&self.data[start..start + self.stride])
    }

    /// Mutable view of the row at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn row_mut(&mut self, index: usize) -> &mut [u64] {
        let start = index * self.stride;
        &mut self.data[start..start + self.stride]
    }

    /// Overwrites row `dst` with a copy of row `src`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn copy_row(&mut self, src: usize, dst: usize) {
        let s = self.stride;
        self.data.copy_within(src * s..src * s + s, dst * s);
    }

    /// Raises row `dst` to the componentwise maximum of itself and row
    /// `src`: the vector-clock join.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` or either index is out of range.
    pub fn join_row(&mut self, dst: usize, src: usize) {
        assert_ne!(src, dst, "cannot join a row with itself");
        let s = self.stride;
        let (out, from) = if src < dst {
            let (head, tail) = self.data.split_at_mut(dst * s);
            (&mut tail[..s], &head[src * s..src * s + s])
        } else {
            let (head, tail) = self.data.split_at_mut(src * s);
            (&mut head[dst * s..dst * s + s], &tail[..s])
        };
        for (o, &x) in out.iter_mut().zip(from) {
            *o = (*o).max(x);
        }
    }

    /// Iterates over all rows in insertion order.
    pub fn rows(&self) -> impl Iterator<Item = ClockRow<'_>> {
        self.data
            .chunks_exact(self.stride.max(1))
            .map(ClockRow::new)
    }

    /// Read-only view of the whole backing buffer.
    pub fn as_flat_slice(&self) -> &[u64] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_row_round_trip() {
        let mut arena = ClockArena::with_capacity(3, 2);
        let a = arena.push(&[1, 2, 3]);
        let b = arena.push(&[4, 5, 6]);
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.row(a).as_slice(), &[1, 2, 3]);
        assert_eq!(arena.row(b).as_slice(), &[4, 5, 6]);
        assert_eq!(arena.as_flat_slice(), &[1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn zeroed_rows_fill_in_place() {
        let mut arena = ClockArena::zeroed(2, 2);
        arena.row_mut(1)[1] = 9;
        arena.row_mut(0).copy_from_slice(&[7, 8]);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.row(0).as_slice(), &[7, 8]);
        assert_eq!(arena.row(1).as_slice(), &[0, 9]);
    }

    #[test]
    fn rows_copy_join_and_update_in_place() {
        let mut arena = ClockArena::new(3);
        arena.push(&[1, 0, 4]);
        arena.push(&[0, 2, 3]);
        let copy = arena.push(&[9, 9, 9]);
        arena.copy_row(0, copy);
        assert_eq!(arena.row(copy).as_slice(), &[1, 0, 4]);
        arena.join_row(copy, 1);
        arena.row_mut(copy)[2] += 1;
        assert_eq!(arena.row(copy).as_slice(), &[1, 2, 5]);
        arena.join_row(0, copy); // a later row into an earlier one
        assert_eq!(arena.row(0).as_slice(), &[1, 2, 5]);
        assert_eq!(arena.row(1).as_slice(), &[0, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "itself")]
    fn join_row_with_itself_panics() {
        let mut arena = ClockArena::new(2);
        arena.push(&[1, 2]);
        arena.join_row(0, 0);
    }

    #[test]
    #[should_panic(expected = "stride")]
    fn push_wrong_width_panics() {
        ClockArena::new(3).push(&[1, 2]);
    }

    #[test]
    fn row_comparisons_match_vector_clock() {
        let cases: [(&[u64], &[u64]); 4] = [
            (&[1, 2], &[1, 2]),
            (&[1, 2], &[1, 3]),
            (&[1, 3], &[1, 2]),
            (&[1, 3], &[2, 2]),
        ];
        for (a, b) in cases {
            let mut arena = ClockArena::new(2);
            let ia = arena.push(a);
            let ib = arena.push(b);
            let va = VectorClock::from_components(a.to_vec());
            let vb = VectorClock::from_components(b.to_vec());
            assert_eq!(
                arena.row(ia).causal_order(arena.row(ib)),
                va.causal_order(&vb),
                "{a:?} vs {b:?}"
            );
            assert_eq!(
                arena.row(ia).happened_before(arena.row(ib)),
                va.happened_before(&vb)
            );
            assert_eq!(arena.row(ia).concurrent(arena.row(ib)), va.concurrent(&vb));
            assert_eq!(arena.row(ia).le(arena.row(ib)), va.le(&vb));
        }
    }

    #[test]
    fn row_mirrors_vector_clock_accessors() {
        let mut arena = ClockArena::new(3);
        let i = arena.push(&[5, 0, 7]);
        let row = arena.row(i);
        assert_eq!(row.get(ProcessId::new(0)), Some(5));
        assert_eq!(row.get(ProcessId::new(3)), None);
        assert_eq!(row.wire_size(), 24);
        assert_eq!(row.to_string(), "[5,0,7]");
        assert_eq!(row[2], 7);
        assert_eq!(row[ProcessId::new(2)], 7);
        assert_eq!(
            row.to_vector_clock(),
            VectorClock::from_components(vec![5, 0, 7])
        );
    }

    #[test]
    fn empty_arena_properties() {
        let arena = ClockArena::new(4);
        assert!(arena.is_empty());
        assert_eq!(arena.len(), 0);
        assert_eq!(arena.rows().count(), 0);
        assert_eq!(ClockArena::new(0).len(), 0);
    }

    #[test]
    fn slice_causal_order_matches_vector_clock_exhaustively() {
        // Every pair of 2-wide clocks with components in 0..3.
        for a0 in 0..3u64 {
            for a1 in 0..3u64 {
                for b0 in 0..3u64 {
                    for b1 in 0..3u64 {
                        let a = [a0, a1];
                        let b = [b0, b1];
                        let va = VectorClock::from_components(a.to_vec());
                        let vb = VectorClock::from_components(b.to_vec());
                        assert_eq!(slice_causal_order(&a, &b), va.causal_order(&vb));
                    }
                }
            }
        }
    }
}
