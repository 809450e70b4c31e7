//! The join executor shared by semi-naive evaluation and incremental
//! maintenance.
//!
//! Both engines enumerate the satisfying assignments of one rule body
//! along a precomputed order of [`JoinStep`]s ([`crate::plan`]). What
//! differs is only where a step's candidate rows come from, so that is the
//! one thing a caller supplies, as a [`RowSource`]:
//!
//! - the evaluator's source probes its [`IndexPool`](crate::index) and
//!   scans the input relations and the accumulated IDBs;
//! - the maintenance source reads the committed relations through a view
//!   (post-update, pre-update, mid-DRed or stable), which excludes some
//!   committed rows and adds some extra ones.
//!
//! The semi-naive delta, and every maintenance delta or frontier, is not a
//! source concern: the plan puts the atom reading it at step 0, and
//! [`join`] scans the given seed rows there. Negated atoms are guards the
//! plan schedules once every argument is bound; the source answers them
//! with one membership call.

use hp_structures::{Elem, Row, TupleStore};

use crate::index::ResolvedRow;
use crate::plan::{AtomPlan, JoinStep};

/// Where a join step's candidate rows come from.
pub(crate) trait RowSource {
    /// Hand `visit` every row of the positive `atom` joined by `step` that
    /// agrees with `key` on the step's bound positions (`key[k]` is the
    /// value for `step.bound[k]`), in original column order. Stops, and
    /// returns `false`, as soon as `visit` does.
    fn rows<F: FnMut(ResolvedRow<'_>) -> bool>(
        &self,
        step: &JoinStep,
        atom: &AtomPlan,
        key: &[Elem],
        visit: F,
    ) -> bool;

    /// True when `key`, every argument of the negated `atom` in position
    /// order, is a row of the atom's relation.
    fn contains(&self, atom: &AtomPlan, key: &[Elem]) -> bool;
}

/// Enumerate every extension of `asg` through `steps`, calling `emit` once
/// per complete assignment. With `seeds`, step 0 scans those rows instead
/// of asking the source. Returns `false` iff `emit` stopped the walk.
///
/// Slots bound before the call (the head of a rederivation order) stay
/// as they are; no rollback is needed between candidates because the plan
/// guarantees that a step reads only slots bound on its prefix.
pub(crate) fn join<S: RowSource, E: FnMut(&[Elem]) -> bool>(
    src: &S,
    atoms: &[AtomPlan],
    steps: &[JoinStep],
    seeds: Option<&TupleStore>,
    asg: &mut [Elem],
    emit: &mut E,
) -> bool {
    let Some(seeds) = seeds else {
        return walk(src, atoms, steps, 0, asg, emit);
    };
    let step = &steps[0];
    debug_assert!(step.bound.is_empty(), "the seed step binds first");
    seeds
        .iter()
        .all(|t| !bind(step, t, asg) || walk(src, atoms, steps, 1, asg, emit))
}

fn walk<S: RowSource, E: FnMut(&[Elem]) -> bool>(
    src: &S,
    atoms: &[AtomPlan],
    steps: &[JoinStep],
    depth: usize,
    asg: &mut [Elem],
    emit: &mut E,
) -> bool {
    let Some(step) = steps.get(depth) else {
        return emit(asg);
    };
    // Only a probe (or a guard) has bound positions: the plan scans a
    // positive atom exactly when nothing of it is bound yet.
    debug_assert!(step.index.is_some() || step.bound.is_empty() || atoms[step.atom].negated);
    let key: Vec<Elem> = step.bound.iter().map(|&(_, s)| asg[s]).collect();
    let atom = &atoms[step.atom];
    if atom.negated {
        return src.contains(atom, &key) || walk(src, atoms, steps, depth + 1, asg, emit);
    }
    src.rows(step, atom, &key, |t| {
        !bind(step, t, asg) || walk(src, atoms, steps, depth + 1, asg, emit)
    })
}

/// Check a candidate row against the step's repeated-variable positions
/// and, when they agree, bind the step's fresh slots from it.
#[inline]
fn bind<R: Row>(step: &JoinStep, t: R, asg: &mut [Elem]) -> bool {
    if step.repeats.iter().any(|&(i, j)| t.at(i) != t.at(j)) {
        return false;
    }
    for &(i, s) in &step.binds {
        asg[s] = t.at(i);
    }
    true
}
