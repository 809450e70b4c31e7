//! Permuted copies of a relation: the probe index for non-prefix keys.
//!
//! A sealed [`TupleStore`] answers a probe on a column *prefix* directly
//! with [`TupleStore::prefix_range`]. A probe on any other key positions
//! needs the rows re-sorted with the key columns first. [`PermutedStore`]
//! is that re-sorted copy: the key columns move to the front, the remaining
//! columns keep their relative order, and [`pos_of`](PermutedStore::pos_of)
//! leads each original column back to its permuted position. Rows sharing a
//! key therefore enumerate in the relation's own row order restricted to
//! the key.
//!
//! The same type serves the evaluator (read-only, memoized per
//! [`Structure`](crate::Structure) snapshot through
//! [`Structure::permuted_index`](crate::Structure::permuted_index)) and
//! incremental maintenance (a persistent copy it keeps current with
//! [`insert_rows`](PermutedStore::insert_rows) and
//! [`remove_rows`](PermutedStore::remove_rows)).

use std::ops::Range;

use crate::elem::Elem;
use crate::store::TupleStore;

/// A sealed copy of a relation with the key columns permuted to the front.
#[derive(Clone, Debug)]
pub struct PermutedStore {
    /// `perm[k]` = original column stored at permuted position `k` (key
    /// columns first, remaining columns ascending).
    perm: Vec<usize>,
    /// `pos_of[i]` = permuted position of original column `i`.
    pos_of: Vec<usize>,
    store: TupleStore,
}

impl PermutedStore {
    /// An empty permuted store of `arity` columns keyed on `key_positions`
    /// (distinct original column indices, in key order).
    fn new(arity: usize, key_positions: &[usize]) -> PermutedStore {
        debug_assert!(key_positions.iter().all(|&i| i < arity));
        let mut perm = key_positions.to_vec();
        perm.extend((0..arity).filter(|i| !key_positions.contains(i)));
        let mut pos_of = vec![0usize; arity];
        for (k, &i) in perm.iter().enumerate() {
            pos_of[i] = k;
        }
        PermutedStore {
            perm,
            pos_of,
            store: TupleStore::new(arity),
        }
    }

    /// The permuted copy of every row of the sealed store `rows`: one pass
    /// that reorders each row's columns, then one sort.
    pub fn build(rows: &TupleStore, key_positions: &[usize]) -> PermutedStore {
        let mut p = PermutedStore::new(rows.arity(), key_positions);
        p.store = p.permute(rows);
        p
    }

    /// `rows` (original column order) reordered into this store's column
    /// order, as a sealed store.
    fn permute(&self, rows: &TupleStore) -> TupleStore {
        let mut out = TupleStore::with_capacity(self.perm.len(), rows.len());
        for t in rows.iter() {
            out.push_with(|buf| buf.extend(self.perm.iter().map(|&i| t.get(i))));
        }
        out.seal();
        out
    }

    /// Add the rows of the sealed store `rows` (original column order) by
    /// one sorted-run merge.
    pub fn insert_rows(&mut self, rows: &TupleStore) {
        if !rows.is_empty() {
            let p = self.permute(rows);
            self.store.merge(&p);
        }
    }

    /// Drop the rows of the sealed store `rows` (original column order) by
    /// one galloping difference.
    pub fn remove_rows(&mut self, rows: &TupleStore) {
        if !rows.is_empty() {
            let p = self.permute(rows);
            self.store = self.store.difference(&p);
        }
    }

    /// The permuted rows, sorted with the key columns leading.
    #[inline]
    pub fn store(&self) -> &TupleStore {
        &self.store
    }

    /// `pos_of()[i]` is the permuted position of original column `i`.
    #[inline]
    pub fn pos_of(&self) -> &[usize] {
        &self.pos_of
    }

    /// The rows of [`store`](PermutedStore::store) whose key columns equal
    /// `key`.
    #[inline]
    pub fn probe(&self, key: &[Elem]) -> Range<usize> {
        self.store.prefix_range(key)
    }

    /// Heap bytes held by the permuted copy and its column maps.
    pub fn heap_bytes(&self) -> usize {
        self.store.heap_bytes()
            + (self.perm.capacity() + self.pos_of.capacity()) * std::mem::size_of::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::Row;

    fn store(rows: &[[u32; 3]]) -> TupleStore {
        let mut s = TupleStore::new(3);
        for r in rows {
            s.push(&r.map(Elem)[..]);
        }
        s.seal();
        s
    }

    fn probe(p: &PermutedStore, key: &[u32]) -> Vec<Vec<u32>> {
        let key: Vec<Elem> = key.iter().map(|&v| Elem(v)).collect();
        p.probe(&key)
            .map(|r| {
                let row = p.store().row(r);
                p.pos_of().iter().map(|&k| row.get(k).0).collect()
            })
            .collect()
    }

    #[test]
    fn key_columns_lead_and_rows_decode_in_original_order() {
        let rows = store(&[[0, 1, 2], [3, 1, 0], [2, 5, 2], [1, 1, 1]]);
        let p = PermutedStore::build(&rows, &[2, 1]);
        assert_eq!(p.pos_of(), &[2, 1, 0]);
        assert_eq!(p.store().row(0).to_elems(), vec![Elem(0), Elem(1), Elem(3)]);
        assert_eq!(probe(&p, &[2]), vec![vec![0, 1, 2], vec![2, 5, 2]]);
        assert_eq!(probe(&p, &[2, 5]), vec![vec![2, 5, 2]]);
        assert!(probe(&p, &[4]).is_empty());
    }

    #[test]
    fn batch_maintenance_matches_a_rebuild() {
        let all = store(&[[0, 1, 2], [3, 1, 0], [2, 5, 2], [1, 1, 1]]);
        let mut p = PermutedStore::new(3, &[1]);
        p.insert_rows(&store(&[[0, 1, 2], [3, 1, 0], [9, 9, 9]]));
        p.insert_rows(&store(&[[2, 5, 2], [1, 1, 1]]));
        p.remove_rows(&store(&[[9, 9, 9]]));
        assert_eq!(p.store(), PermutedStore::build(&all, &[1]).store());
        assert_eq!(
            probe(&p, &[1]),
            vec![vec![0, 1, 2], vec![1, 1, 1], vec![3, 1, 0]]
        );
    }
}
