//! Bottom-up evaluation: naive stages and indexed semi-naive fixpoints.
//!
//! The engine has two entry points:
//!
//! - **naive stages** ([`Program::stages`], [`Program::apply_operator`]) —
//!   scan-based recomputation of every stage, kept oracle-simple in
//!   [`crate::reference`]; returns a [`StageSequence`] that says whether
//!   the least fixpoint was actually verified within the cap;
//! - **semi-naive fixpoints** ([`Program::evaluate`] /
//!   [`Program::evaluate_with`]) — delta rounds over precomputed join
//!   plans ([`crate::plan`]), run sequentially on the calling thread. Each
//!   round's `(rule × delta atom)` work items go through the join executor
//!   that incremental maintenance also uses ([`crate::join`]): a delta
//!   item scans its delta as the seed of step 0, and every later step
//!   reads the evaluator's row source — the probe indexes of
//!   [`crate::index`], or a scan of an input relation or an accumulated
//!   IDB. Items run in a fixed order and every derived tuple lands in an
//!   ordered set, so relations, stage counts and fuel stops are
//!   deterministic.

use std::fmt;

use hp_guard::{Budget, Budgeted, Gauge, GaugeState};
use hp_structures::{Elem, Relation, Structure, StructureError, TupleStore};

use crate::ast::{PredRef, Program};
use crate::index::{IndexPool, ProbeIter, ResolvedRow};
use crate::join::{join, RowSource};
use crate::plan::{AtomPlan, JoinStep, ProgramPlan};

/// User-reachable misuse of the evaluation APIs, reported as a typed error
/// instead of a panic.
///
/// The resumable entry points ([`Program::resume_budgeted`], the
/// incremental-maintenance APIs on [`crate::MaterializedDb`]) accept state
/// produced by earlier calls; handing them state from a *different* program
/// or database is a caller bug that the library can detect cheaply, so it
/// refuses with a descriptive error rather than corrupting the computation
/// or asserting.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum EvalError {
    /// A checkpoint was handed to a program it did not come from (IDB
    /// count, names, or arities disagree).
    CheckpointMismatch {
        /// What disagreed between the checkpoint and the program.
        detail: String,
    },
    /// A materialized database was handed to a program it was not built
    /// from, or its vocabulary disagrees with the update batch.
    ProgramMismatch {
        /// What disagreed between the database and the program.
        detail: String,
    },
    /// An update batch contained invalid tuples (arity or element range).
    Structure(StructureError),
    /// The requested operation does not support programs with negated
    /// body literals (today: incremental view maintenance, whose
    /// counting/DRed machinery is sound only for monotone programs).
    NegationUnsupported {
        /// The operation that was refused.
        operation: String,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::CheckpointMismatch { detail } => {
                write!(f, "checkpoint does not match this program: {detail}")
            }
            EvalError::ProgramMismatch { detail } => {
                write!(f, "database does not match this program: {detail}")
            }
            EvalError::Structure(e) => write!(f, "invalid update batch: {e}"),
            EvalError::NegationUnsupported { operation } => {
                write!(
                    f,
                    "{operation} does not support stratified negation; \
                     re-evaluate the program from scratch instead"
                )
            }
        }
    }
}

impl std::error::Error for EvalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EvalError::Structure(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StructureError> for EvalError {
    fn from(e: StructureError) -> Self {
        EvalError::Structure(e)
    }
}

/// An IDB relation instance: a columnar, sorted set of tuples.
///
/// Since the arena-backed store landed this is [`hp_structures::Relation`]
/// itself — the evaluator's accumulated IDBs, deltas, and checkpoints share
/// one physical representation with EDB relations, and the per-round
/// delta-merge is a sorted-run merge instead of per-tuple set inserts.
pub type IdbRelation = Relation;

/// Configuration for [`Program::evaluate_with`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EvalConfig {
    /// Cap on the number of Φ rounds, `None` (the default) to run to the
    /// least fixpoint. When the cap stops evaluation early the result
    /// carries the relations of stage Φ^cap and
    /// [`FixpointResult::converged`] is `false`.
    pub max_stages: Option<usize>,
}

impl EvalConfig {
    /// The default configuration: uncapped.
    pub fn new() -> EvalConfig {
        EvalConfig::default()
    }

    /// Cap the number of Φ rounds.
    pub fn with_max_stages(mut self, max_stages: usize) -> EvalConfig {
        self.max_stages = Some(max_stages);
        self
    }
}

/// Measured cost of one stratum of a semi-naive evaluation.
///
/// Recorded by the budgeted and unbudgeted fixpoint entry points, one
/// entry per stratum *entered* (in ascending stratum order). Positive
/// programs have a single entry for stratum 0. The oracle-simple
/// reference evaluator and the incremental-maintenance path do not
/// profile; their results carry an empty profile.
#[derive(Clone, Debug, PartialEq)]
pub struct StratumProfile {
    /// The stratum index (ascending; 0 for positive programs).
    pub stratum: usize,
    /// Semi-naive delta rounds spent inside this stratum.
    pub stages: usize,
    /// Tuples derived by this stratum's rules (sum over rounds of the
    /// round's new-delta sizes — the same count the fuel charge uses).
    pub derived: u64,
    /// Fuel charged against the gauge while this stratum ran
    /// (`1 + derived` per round, matching the evaluator's tick schedule).
    pub fuel: u64,
    /// Wall-clock time spent inside this stratum. On a resumed run the
    /// interrupted stratum's entry covers only the post-resume work.
    pub elapsed: std::time::Duration,
}

/// The result of evaluating a program on a structure.
#[derive(Clone, Debug)]
pub struct FixpointResult {
    pub(crate) idb_names: Vec<String>,
    pub(crate) goal: Option<usize>,
    /// Final relations, one per IDB.
    pub relations: Vec<IdbRelation>,
    /// Number of iterations of the simultaneous operator Φ performed (the
    /// `m₀` of §2.3 when `converged`; 0 for the empty fixpoint).
    pub stages: usize,
    /// True when `relations` is the least fixpoint. Always true for
    /// uncapped evaluation; false when [`EvalConfig::max_stages`] stopped
    /// the rounds before the fixpoint was reached.
    pub converged: bool,
    /// Per-stratum measured cost (rounds, derived tuples, fuel,
    /// wall-clock), one entry per stratum entered. Empty for the
    /// reference evaluator and the incremental-maintenance path, which
    /// do not profile.
    pub profile: Vec<StratumProfile>,
}

impl FixpointResult {
    /// The relation computed for a named IDB.
    pub fn idb(&self, name: &str) -> Option<&IdbRelation> {
        self.idb_names
            .iter()
            .position(|n| n == name)
            .map(|i| &self.relations[i])
    }

    /// The relation of the program's designated goal IDB (`# goal:`
    /// pragma, or the IDB named `Goal` by convention), when one exists.
    pub fn goal(&self) -> Option<&IdbRelation> {
        self.goal.map(|g| &self.relations[g])
    }
}

/// The naive stage sequence `Φ⁰ ⊆ Φ¹ ⊆ ⋯` of [`Program::stages`], together
/// with whether the least fixpoint was verified.
///
/// The seed API returned a bare `Vec` that silently truncated at the cap —
/// a capped prefix was indistinguishable from a converged sequence, so a
/// wrong `m₀` could feed boundedness claims (Theorem 7.5 reasons about the
/// true least fixpoint). `converged` makes the distinction explicit; audit
/// any use of [`StageSequence::last`] against it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageSequence {
    /// Element `m` is `Φ^m` (element 0 is all-empty), up to and including
    /// the last computed stage.
    pub stages: Vec<Vec<IdbRelation>>,
    /// True when `Φ^{m+1} = Φ^m` was **observed** for the final element —
    /// i.e. the sequence provably reached the least fixpoint. False when
    /// the cap stopped iteration first (the final element may or may not be
    /// the fixpoint; it was never checked).
    pub converged: bool,
}

impl StageSequence {
    /// The last computed stage — the least fixpoint iff
    /// [`StageSequence::converged`].
    pub fn last(&self) -> &[IdbRelation] {
        self.stages.last().expect("stage 0 always present")
    }

    /// Number of operator applications performed (the `m₀` of §2.3 when
    /// converged).
    pub fn applications(&self) -> usize {
        self.stages.len() - 1
    }
}

/// A unit of per-round work: one rule, optionally seeded by one IDB body
/// atom reading the delta.
type WorkItem = (usize, Option<usize>);

/// The evaluator's rows: probes of the index pool, and scans of the input
/// relations and the accumulated IDBs. The semi-naive delta is not read
/// through it: a delta order scans the delta as its seed.
struct EvalSource<'a> {
    a: &'a Structure,
    idb: &'a [IdbRelation],
    pool: &'a IndexPool<'a>,
}

impl RowSource for EvalSource<'_> {
    fn rows<F: FnMut(ResolvedRow<'_>) -> bool>(
        &self,
        step: &JoinStep,
        atom: &AtomPlan,
        key: &[Elem],
        visit: F,
    ) -> bool {
        let mut rows = match step.index {
            Some(spec) => self.pool.get(spec).probe(key),
            None => ProbeIter::scan(self.relation(atom.pred).store()),
        };
        rows.all(visit)
    }

    /// A negated IDB atom reads a strictly lower stratum, whose delta
    /// drained before this stratum started, so the accumulated relation is
    /// its final value.
    fn contains(&self, atom: &AtomPlan, key: &[Elem]) -> bool {
        self.relation(atom.pred).contains(key)
    }
}

impl EvalSource<'_> {
    fn relation(&self, pred: PredRef) -> &Relation {
        match pred {
            PredRef::Edb(sym) => self.a.relation(sym),
            PredRef::Idb(p) => &self.idb[p],
        }
    }
}

/// A resumable snapshot of a budgeted semi-naive evaluation, returned as
/// the `partial` of an exhausted [`Program::evaluate_budgeted`] /
/// [`Program::resume_budgeted`] run.
///
/// The snapshot is taken at a **round boundary**: [`EvalCheckpoint::partial`]
/// holds the relations after `partial.stages` delta rounds (with
/// `converged == false`), and the pending delta plus the fuel position are
/// kept privately so [`Program::resume_budgeted`] can continue the very
/// same computation. Resuming with extra fuel `f2` after exhausting `f1`
/// lands at exactly the state of a single `f1 + f2` run (see
/// [`hp_guard::Budget::resume`]).
#[derive(Clone, Debug)]
pub struct EvalCheckpoint {
    /// The best-effort partial result: relations of stage Φ^{stages}, with
    /// [`FixpointResult::converged`] `false`.
    pub partial: FixpointResult,
    delta: Vec<IdbRelation>,
    /// The stratum whose delta rounds were interrupted (always 0 for
    /// positive programs).
    stratum: usize,
    fuel: GaugeState,
}

impl EvalCheckpoint {
    /// Cumulative fuel charged when the snapshot was taken (one unit per
    /// round plus one per tuple newly derived in it, across all runs of a
    /// resume chain).
    pub fn fuel_spent(&self) -> u64 {
        self.fuel.spent
    }
}

impl Program {
    /// Fresh all-empty IDB relations with the program's arities (stage Φ⁰).
    pub(crate) fn empty_idbs(&self) -> Vec<IdbRelation> {
        self.idbs()
            .iter()
            .map(|&(_, arity)| Relation::new(arity))
            .collect()
    }

    /// One application of the simultaneous monotone operator Φ (§2.3).
    pub fn apply_operator(&self, a: &Structure, idb: &[IdbRelation]) -> Vec<IdbRelation> {
        self.apply_operator_with(&ProgramPlan::new(self), a, idb)
    }

    /// The naive stage sequence `Φ⁰ ⊆ Φ¹ ⊆ ⋯`, capped at `max_stages`
    /// applications. The result says whether the least fixpoint was reached
    /// within the cap — a capped prefix no longer masquerades as `Φ^{m₀}`.
    pub fn stages(&self, a: &Structure, max_stages: usize) -> StageSequence {
        let plan = ProgramPlan::new(self);
        let mut stages = vec![self.empty_idbs()];
        let mut converged = false;
        for _ in 0..max_stages {
            let cur = stages.last().expect("non-empty");
            let next = self.apply_operator_with(&plan, a, cur);
            if &next == cur {
                converged = true;
                break;
            }
            stages.push(next);
        }
        StageSequence { stages, converged }
    }

    /// Semi-naive evaluation to the least fixpoint with the default
    /// configuration (uncapped). Also records the stage count of the
    /// **naive** operator (which is what boundedness is about) by counting
    /// delta rounds — for Datalog the two coincide: the semi-naive rounds
    /// compute exactly the naive stages.
    pub fn evaluate(&self, a: &Structure) -> FixpointResult {
        self.evaluate_with(a, &EvalConfig::default())
    }

    /// Semi-naive evaluation through the indexed join core, with an
    /// optional stage cap (see [`EvalConfig`]).
    pub fn evaluate_with(&self, a: &Structure, cfg: &EvalConfig) -> FixpointResult {
        self.fixpoint(a, cfg, Budget::unlimited().gauge(), None)
            .unwrap_or_else(|_| unreachable!("an unlimited budget cannot exhaust"))
    }

    /// Budgeted semi-naive evaluation: like [`Program::evaluate_with`] but
    /// charged against `budget` — one fuel unit per round plus one per
    /// tuple newly derived in it, checked at round boundaries (so fuel
    /// stops are deterministic; the wall clock and interrupt token are
    /// also polled there). On exhaustion the [`EvalCheckpoint`] partial
    /// holds the relations of the last completed round and can be handed
    /// to [`Program::resume_budgeted`].
    // The large Err variants below are the point of the budgeted API:
    // exhaustion carries a full checkpoint so callers can resume.
    #[allow(clippy::result_large_err)]
    pub fn evaluate_budgeted(
        &self,
        a: &Structure,
        cfg: &EvalConfig,
        budget: &Budget,
    ) -> Budgeted<FixpointResult, EvalCheckpoint> {
        self.fixpoint(a, cfg, budget.gauge(), None)
    }

    /// Continue an exhausted [`Program::evaluate_budgeted`] run from its
    /// checkpoint with a fresh allowance. The checkpoint must come from
    /// the same program and structure; a checkpoint whose IDB shape
    /// (count, names, or arities) disagrees with this program is rejected
    /// with [`EvalError::CheckpointMismatch`] instead of corrupting the
    /// resumed run. Fuel accounting is cumulative (`budget`'s fuel is
    /// added on top of the prior limit), so a run split as `f1` then `f2`
    /// stops at exactly the same rounds — and reaches the same fixpoint —
    /// as a single `f1 + f2` run.
    #[allow(clippy::result_large_err)]
    pub fn resume_budgeted(
        &self,
        a: &Structure,
        cfg: &EvalConfig,
        checkpoint: EvalCheckpoint,
        budget: &Budget,
    ) -> Result<Budgeted<FixpointResult, EvalCheckpoint>, EvalError> {
        self.check_checkpoint(&checkpoint)?;
        let gauge = budget.resume(checkpoint.fuel);
        Ok(self.fixpoint(a, cfg, gauge, Some(checkpoint)))
    }

    /// Validate that a checkpoint's IDB shape matches this program.
    fn check_checkpoint(&self, cp: &EvalCheckpoint) -> Result<(), EvalError> {
        let idbs = self.idbs();
        if cp.partial.relations.len() != idbs.len() {
            return Err(EvalError::CheckpointMismatch {
                detail: format!(
                    "checkpoint has {} IDB relations, program has {}",
                    cp.partial.relations.len(),
                    idbs.len()
                ),
            });
        }
        for (i, (name, arity)) in idbs.iter().enumerate() {
            if cp.partial.idb_names[i] != *name {
                return Err(EvalError::CheckpointMismatch {
                    detail: format!(
                        "IDB {i} is named {:?} in the checkpoint but {name:?} in the program",
                        cp.partial.idb_names[i]
                    ),
                });
            }
            if cp.partial.relations[i].arity() != *arity {
                return Err(EvalError::CheckpointMismatch {
                    detail: format!(
                        "IDB {name:?} has arity {} in the checkpoint but {arity} in the program",
                        cp.partial.relations[i].arity()
                    ),
                });
            }
        }
        if cp.stratum >= self.num_strata() {
            return Err(EvalError::CheckpointMismatch {
                detail: format!(
                    "checkpoint stopped in stratum {}, but the program has {} strata",
                    cp.stratum,
                    self.num_strata()
                ),
            });
        }
        Ok(())
    }

    /// The shared semi-naive engine behind the budgeted and unbudgeted
    /// entry points: stratum-ordered delta rounds charged against `gauge`,
    /// optionally continuing from a checkpoint taken at a round boundary.
    ///
    /// Strata run in ascending order; within each stratum the engine is
    /// the classical semi-naive loop over that stratum's rules, with
    /// same-stratum positive IDB atoms as the delta seeds. A negated
    /// literal only ever reads a strictly lower stratum, which is sealed
    /// (its delta has drained) by the time the reading stratum starts, so
    /// negation-as-complement is sound. Positive programs collapse to the
    /// single stratum 0 and take exactly the pre-negation code path: same
    /// rounds, same stage counts, same fuel tick sequence.
    #[allow(clippy::result_large_err)]
    fn fixpoint(
        &self,
        a: &Structure,
        cfg: &EvalConfig,
        mut gauge: Gauge,
        resume: Option<EvalCheckpoint>,
    ) -> Budgeted<FixpointResult, EvalCheckpoint> {
        let plan = ProgramPlan::new(self);
        let n_idb = self.idbs().len();
        let idb_strata = self.strata();
        let num_strata = self.num_strata();
        let rule_strata: Vec<usize> = (0..plan.rules.len())
            .map(|ri| self.rule_stratum(ri))
            .collect();
        let mut pool = IndexPool::new(&plan, a);
        let checkpoint = |idb: Vec<IdbRelation>,
                          delta: Vec<IdbRelation>,
                          stages: usize,
                          stratum: usize,
                          profile: Vec<StratumProfile>,
                          fuel: GaugeState| {
            EvalCheckpoint {
                partial: FixpointResult {
                    idb_names: self.idbs().iter().map(|(n, _)| n.clone()).collect(),
                    goal: self.goal_index(),
                    relations: idb,
                    stages,
                    converged: false,
                    profile,
                },
                delta,
                stratum,
                fuel,
            }
        };
        let mut profile: Vec<StratumProfile> = Vec::new();
        let (mut idb, mut delta, mut stages, start_stratum, mut mid_stratum) = match resume {
            Some(cp) => {
                // Shape validation happened in `check_checkpoint` before the
                // public entry points reached this engine.
                debug_assert_eq!(cp.partial.relations.len(), n_idb);
                // The fresh indexes must already contain the merged IDB
                // tuples; the pending delta is absorbed by the loop below
                // exactly as in an uninterrupted run.
                pool.absorb(&plan, &cp.partial.relations)
                    .unwrap_or_else(|e| panic!("{e}"));
                // Completed-strata costs survive the interruption; the
                // resumed stratum's entry covers only post-resume work.
                profile = cp.partial.profile;
                (
                    cp.partial.relations,
                    cp.delta,
                    cp.partial.stages,
                    cp.stratum,
                    true,
                )
            }
            None => (self.empty_idbs(), self.empty_idbs(), 0, 0, false),
        };
        let mut converged = true;
        'strata: for s in start_stratum..num_strata {
            let stratum_start = std::time::Instant::now();
            let stratum_stages_entry = stages;
            let stratum_fuel_entry = gauge.spent();
            let mut stratum_derived: u64 = 0;
            // Round 0 of stratum `s`: the stratum's rules against the IDBs
            // accumulated so far (sealed lower strata; this stratum's own
            // predicates are still empty, so everything derived is new).
            // A resumed run re-enters its interrupted stratum directly at
            // the delta loop, pending delta in hand.
            if !std::mem::take(&mut mid_stratum) {
                delta = self.empty_idbs();
                let items = round0_items(&plan, &rule_strata, s);
                let src = EvalSource {
                    a,
                    idb: &idb,
                    pool: &pool,
                };
                let results = run_items(&plan, &src, &delta, &items);
                for (h, out) in &results {
                    delta[*h].merge_store(out);
                }
                let derived: u64 = delta.iter().map(|d| d.len() as u64).sum();
                stratum_derived += derived;
                if let Err(stop) = gauge.tick(1 + derived) {
                    let fuel = stop.state();
                    return Err(stop.with_partial(checkpoint(idb, delta, stages, s, profile, fuel)));
                }
            }
            loop {
                if delta.iter().all(|d| d.is_empty()) {
                    break; // stratum sealed; move on to the next
                }
                if cfg.max_stages.is_some_and(|cap| stages >= cap) {
                    converged = false;
                    profile.push(StratumProfile {
                        stratum: s,
                        stages: stages - stratum_stages_entry,
                        derived: stratum_derived,
                        fuel: gauge.spent() - stratum_fuel_entry,
                        elapsed: stratum_start.elapsed(),
                    });
                    break 'strata;
                }
                if let Err(stop) = gauge.check() {
                    let fuel = stop.state();
                    return Err(stop.with_partial(checkpoint(idb, delta, stages, s, profile, fuel)));
                }
                stages += 1;
                // Row-id capacity exhaustion (> u32::MAX rows in one IDB
                // index arena) is unrecoverable mid-fixpoint; surface the
                // typed error loudly instead of wrapping.
                pool.absorb(&plan, &delta).unwrap_or_else(|e| panic!("{e}"));
                for (acc, d) in idb.iter_mut().zip(&delta) {
                    acc.merge(d);
                }
                // One work item per (stratum rule, same-stratum positive IDB
                // body atom): the standard semi-naive split. Lower-stratum
                // atoms have drained deltas and seed nothing.
                let items: Vec<WorkItem> = plan
                    .rules
                    .iter()
                    .enumerate()
                    .filter(|&(ri, _)| rule_strata[ri] == s)
                    .flat_map(|(ri, rp)| {
                        rp.idb_atoms
                            .iter()
                            .filter(|&&bi| match rp.atoms[bi].pred {
                                PredRef::Idb(p) => idb_strata[p] == s,
                                PredRef::Edb(_) => false,
                            })
                            .map(move |&bi| (ri, Some(bi)))
                    })
                    .collect();
                let src = EvalSource {
                    a,
                    idb: &idb,
                    pool: &pool,
                };
                let results = run_items(&plan, &src, &delta, &items);
                // New facts = (round output) \ (accumulated IDB): a galloping
                // sorted-set difference, then one sorted-run merge per head.
                let mut next_delta: Vec<IdbRelation> = self.empty_idbs();
                for (h, out) in &results {
                    let fresh = out.difference(idb[*h].store());
                    next_delta[*h].merge_store(&fresh);
                }
                delta = next_delta;
                let derived: u64 = delta.iter().map(|d| d.len() as u64).sum();
                stratum_derived += derived;
                if let Err(stop) = gauge.tick(1 + derived) {
                    let fuel = stop.state();
                    return Err(stop.with_partial(checkpoint(idb, delta, stages, s, profile, fuel)));
                }
            }
            profile.push(StratumProfile {
                stratum: s,
                stages: stages - stratum_stages_entry,
                derived: stratum_derived,
                fuel: gauge.spent() - stratum_fuel_entry,
                elapsed: stratum_start.elapsed(),
            });
        }
        Ok(FixpointResult {
            idb_names: self.idbs().iter().map(|(n, _)| n.clone()).collect(),
            goal: self.goal_index(),
            relations: idb,
            stages,
            converged,
            profile,
        })
    }
}

/// Round 0's work items for stratum `s`: every stratum-`s` rule with a
/// seed order. Rules with a positive atom on a stratum-`s` IDB have none
/// (see [`crate::plan::RulePlan::seed_order`]): that relation is still
/// empty, so they would derive nothing; the delta rounds seed them once
/// it has tuples.
fn round0_items(plan: &ProgramPlan, rule_strata: &[usize], s: usize) -> Vec<WorkItem> {
    plan.rules
        .iter()
        .enumerate()
        .filter(|&(ri, rp)| rule_strata[ri] == s && rp.seed_order.is_some())
        .map(|(ri, _)| (ri, None))
        .collect()
}

/// Run one round's work items in order and return each item's
/// `(head IDB, derived tuples)`. A delta item seeds its order with the
/// delta of its delta atom's predicate.
fn run_items(
    plan: &ProgramPlan,
    src: &EvalSource<'_>,
    delta: &[IdbRelation],
    items: &[WorkItem],
) -> Vec<(usize, TupleStore)> {
    items
        .iter()
        .map(|&(ri, delta_atom)| {
            let rp = &plan.rules[ri];
            let (steps, seeds) = match delta_atom {
                None => (
                    rp.seed_order
                        .as_deref()
                        .expect("round 0 runs only rules with a seed order"),
                    None,
                ),
                Some(d) => {
                    let PredRef::Idb(p) = rp.atoms[d].pred else {
                        unreachable!("delta atoms are IDB atoms")
                    };
                    let steps = rp.delta_orders[d].as_deref();
                    (
                        steps.expect("delta atom is an IDB atom"),
                        Some(delta[p].store()),
                    )
                }
            };
            // Derivations land in the store's pending delta (no per-tuple
            // ordering work); one seal per item sorts and dedups them.
            let mut out = TupleStore::new(rp.head_args.len());
            let mut asg = vec![Elem(0); rp.var_count];
            join(src, &rp.atoms, steps, seeds, &mut asg, &mut |asg| {
                out.push_with(|buf| buf.extend(rp.head_args.iter().map(|&s| asg[s])));
                true
            });
            out.seal();
            (rp.head, out)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hp_structures::generators::{directed_cycle, directed_path, down_tree, random_digraph};
    use hp_structures::Vocabulary;

    fn tc() -> Program {
        Program::parse(
            "T(x,y) :- E(x,y).\nT(x,y) :- E(x,z), T(z,y).",
            &Vocabulary::digraph(),
        )
        .unwrap()
    }

    #[test]
    fn tc_on_path() {
        let r = tc().evaluate(&directed_path(5));
        assert_eq!(r.idb("T").unwrap().len(), 10);
        assert!(r.idb("T").unwrap().contains(&[Elem(0), Elem(4)]));
        assert!(!r.idb("T").unwrap().contains(&[Elem(4), Elem(0)]));
        assert!(r.idb("U").is_none());
        assert!(r.converged);
    }

    #[test]
    fn round0_skips_rules_reading_their_own_stratum() {
        // Stratum 0: T's base rule seeds round 0, its recursive rule reads
        // the empty T. Stratum 1: N reads T (lower) and negates it, Goal
        // reads N (same stratum).
        let p = Program::parse(
            "T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).\n\
             N(x,y) :- T(x,z), E(z,y), not T(x,y).\nGoal(x,y) :- N(x,y).\n\
             Goal(x,y) :- Goal(y,x).",
            &Vocabulary::digraph(),
        )
        .unwrap();
        let plan = ProgramPlan::new(&p);
        let rule_strata: Vec<usize> = (0..plan.rules.len()).map(|ri| p.rule_stratum(ri)).collect();
        let rules = |s: usize| -> Vec<usize> {
            round0_items(&plan, &rule_strata, s)
                .into_iter()
                .map(|(ri, delta)| {
                    assert_eq!(delta, None);
                    ri
                })
                .collect()
        };
        assert_eq!(rules(0), vec![0]);
        assert_eq!(p.rule_stratum(2), 1);
        assert_eq!(rules(1), vec![2]);
    }

    #[test]
    fn tc_on_cycle_is_complete() {
        let r = tc().evaluate(&directed_cycle(4));
        assert_eq!(r.idb("T").unwrap().len(), 16);
    }

    #[test]
    fn profile_covers_every_stratum_and_sums_to_totals() {
        // Positive program: one entry for stratum 0.
        let r = tc().evaluate(&directed_path(5));
        assert_eq!(r.profile.len(), 1);
        assert_eq!(r.profile[0].stratum, 0);
        assert_eq!(r.profile[0].stages, r.stages);
        assert_eq!(r.profile[0].derived, 10);

        // Stratified negation: one entry per stratum, entries partition
        // the stage count, and the fuel charges sum to the gauge's spend.
        let p = Program::parse(
            "T(x,y) :- E(x,y).\nT(x,y) :- E(x,z), T(z,y).\nN(x,y) :- E(x,z), E(z,y), not T(x,y).\n\
             Goal(x,y) :- N(x,y).",
            &Vocabulary::digraph(),
        )
        .unwrap();
        let r = p
            .evaluate_budgeted(
                &directed_path(5),
                &EvalConfig::default(),
                &Budget::unlimited(),
            )
            .unwrap();
        assert_eq!(r.profile.len(), p.num_strata());
        assert_eq!(r.profile.iter().map(|s| s.stages).sum::<usize>(), r.stages);
        let strata: Vec<usize> = r.profile.iter().map(|s| s.stratum).collect();
        assert_eq!(strata, (0..p.num_strata()).collect::<Vec<_>>());
    }

    #[test]
    fn naive_and_semi_naive_agree() {
        let p = tc();
        for seed in 0..8 {
            let a = random_digraph(7, 12, seed);
            let naive = p.stages(&a, 64);
            assert!(naive.converged, "seed {seed}");
            let semi = p.evaluate(&a);
            assert_eq!(&semi.relations[..], naive.last(), "seed {seed}");
            // Stage counts agree: stages() returns Φ^0..Φ^{m0}.
            assert_eq!(naive.applications(), semi.stages, "seed {seed}");
        }
    }

    #[test]
    fn stages_grow_monotonically() {
        let p = tc();
        let a = directed_path(6);
        let st = p.stages(&a, 64);
        for w in st.stages.windows(2) {
            for (r0, r1) in w[0].iter().zip(&w[1]) {
                assert!(r0.is_subset(r1));
            }
        }
        // Path of length 5: TC needs 5 stages, verified as the fixpoint.
        assert_eq!(st.applications(), 5);
        assert!(st.converged);
    }

    #[test]
    fn stage_cap_is_not_silent() {
        let p = tc();
        // The old failure shape: TC of a 9-edge path needs 9 stages; a cap
        // of 3 used to hand back Φ^0..Φ^3 looking exactly like a converged
        // sequence. Now the truncation is explicit.
        let st = p.stages(&directed_path(10), 3);
        assert_eq!(st.stages.len(), 4); // Φ^0..Φ^3
        assert!(!st.converged, "cap hit must not report convergence");
        // Exactly at the fixpoint the equality check still runs: cap 9
        // computes Φ^9 but cannot verify it, cap 10 proves it.
        assert!(!p.stages(&directed_path(10), 9).converged);
        let verified = p.stages(&directed_path(10), 10);
        assert!(verified.converged);
        assert_eq!(verified.applications(), 9);
    }

    #[test]
    fn capped_evaluate_reports_non_convergence() {
        let p = tc();
        let a = directed_path(8);
        let full = p.evaluate(&a);
        assert!(full.converged);
        assert_eq!(full.stages, 7);
        for cap in 0..=7 {
            let r = p.evaluate_with(&a, &EvalConfig::new().with_max_stages(cap));
            assert_eq!(r.converged, cap >= 7, "cap {cap}");
            assert_eq!(r.stages, cap.min(7), "cap {cap}");
            // Capped relations are exactly the naive stage Φ^cap.
            let naive = p.stages(&a, cap);
            assert_eq!(&r.relations[..], naive.last(), "cap {cap}");
        }
    }

    #[test]
    fn multi_idb_reachability() {
        let v = Vocabulary::from_pairs([("Down", 2), ("Leaf", 1)]);
        let p = Program::parse(
            "Reach(x) :- Leaf(x).\nReach(x) :- Down(x,y), Reach(y).\nGoal() :- Reach(x).",
            &v,
        )
        .unwrap();
        let t = down_tree(3);
        let r = p.evaluate(&t);
        // Every node reaches a leaf in a complete tree.
        assert_eq!(r.idb("Reach").unwrap().len(), t.universe_size());
        assert_eq!(r.idb("Goal").unwrap().len(), 1); // the empty tuple
    }

    #[test]
    fn zero_ary_goal_false_when_unreachable() {
        let p = Program::parse("Goal() :- E(x,x).", &Vocabulary::digraph()).unwrap();
        let r = p.evaluate(&directed_path(4));
        assert!(r.idb("Goal").unwrap().is_empty());
        let r2 = p.evaluate(&directed_cycle(1));
        assert_eq!(r2.idb("Goal").unwrap().len(), 1);
    }

    #[test]
    fn empty_structure_evaluates() {
        let p = tc();
        let a = Structure::new(Vocabulary::digraph(), 0);
        let r = p.evaluate(&a);
        assert!(r.idb("T").unwrap().is_empty());
        assert_eq!(r.stages, 0);
        assert!(r.converged);
    }

    #[test]
    fn repeated_variables_in_rule() {
        // Loop detection: L(x) :- E(x,x).
        let p = Program::parse("L(x) :- E(x,x).", &Vocabulary::digraph()).unwrap();
        let mut a = directed_path(3);
        a.add_tuple_ids(0, &[1, 1]).unwrap();
        let r = p.evaluate(&a);
        assert_eq!(r.idb("L").unwrap().len(), 1);
        assert!(r.idb("L").unwrap().contains(&[Elem(1)]));
    }

    #[test]
    fn nonlinear_rule_with_duplicate_idb_atoms() {
        // Nonlinear TC: both body atoms are the same IDB predicate, so each
        // round runs two delta variants of the same rule.
        let p = Program::parse(
            "T(x,y) :- E(x,y).\nT(x,y) :- T(x,z), T(z,y).",
            &Vocabulary::digraph(),
        )
        .unwrap();
        let a = directed_path(6);
        let r = p.evaluate(&a);
        assert_eq!(r.idb("T").unwrap().len(), 15);
        let naive = p.stages(&a, 16);
        assert!(naive.converged);
        assert_eq!(&r.relations[..], naive.last());
        // Nonlinear TC doubles the frontier distance per round: the 5-edge
        // path converges in 4 rounds, not 5 — and semi-naive delta rounds
        // count exactly the naive stages.
        assert_eq!(r.stages, naive.applications());
        assert_eq!(r.stages, 4);
    }

    #[test]
    fn budgeted_exhaustion_checkpoints_and_resumes_to_fixpoint() {
        let p = tc();
        let a = directed_path(8);
        let full = p.evaluate(&a);
        let cfg = EvalConfig::new();
        let e = p
            .evaluate_budgeted(&a, &cfg, &Budget::fuel(3))
            .expect_err("3 fuel cannot finish TC on a 7-edge path");
        assert_eq!(e.resource, hp_guard::Resource::Fuel);
        assert!(!e.partial.partial.converged);
        assert!(e.partial.fuel_spent() >= 3);
        // Every checkpointed relation is a subset of the true fixpoint.
        for (partial, fixed) in e.partial.partial.relations.iter().zip(&full.relations) {
            assert!(partial.is_subset(fixed));
        }
        let r = p
            .resume_budgeted(&a, &cfg, e.partial, &Budget::unlimited())
            .expect("checkpoint comes from this program")
            .expect("unlimited resume reaches the fixpoint");
        assert_eq!(r.relations, full.relations);
        assert_eq!(r.stages, full.stages);
        assert!(r.converged);
    }

    #[test]
    fn foreign_checkpoint_is_a_typed_error() {
        // A checkpoint from one program handed to another must come back as
        // `EvalError::CheckpointMismatch`, not a panic or a corrupted run.
        let p = tc();
        let a = directed_path(8);
        let cfg = EvalConfig::new();
        let e = p
            .evaluate_budgeted(&a, &cfg, &Budget::fuel(3))
            .expect_err("3 fuel cannot finish TC on a 7-edge path");

        // Different IDB count.
        let two_idbs =
            Program::parse("T(x,y) :- E(x,y).\nU(x) :- T(x,x).", &Vocabulary::digraph()).unwrap();
        let err = two_idbs
            .resume_budgeted(&a, &cfg, e.partial.clone(), &Budget::unlimited())
            .expect_err("IDB count differs");
        assert!(matches!(err, EvalError::CheckpointMismatch { .. }), "{err}");

        // Same count, different IDB name.
        let renamed = Program::parse(
            "U(x,y) :- E(x,y).\nU(x,y) :- E(x,z), U(z,y).",
            &Vocabulary::digraph(),
        )
        .unwrap();
        let err = renamed
            .resume_budgeted(&a, &cfg, e.partial.clone(), &Budget::unlimited())
            .expect_err("IDB name differs");
        assert!(matches!(err, EvalError::CheckpointMismatch { .. }), "{err}");
        assert!(err.to_string().contains("checkpoint"), "{err}");

        // Same count and name, different arity.
        let unary = Program::parse("T(x) :- E(x,x).", &Vocabulary::digraph()).unwrap();
        let err = unary
            .resume_budgeted(&a, &cfg, e.partial.clone(), &Budget::unlimited())
            .expect_err("IDB arity differs");
        assert!(matches!(err, EvalError::CheckpointMismatch { .. }), "{err}");

        // The same checkpoint still resumes cleanly on its own program.
        let r = p
            .resume_budgeted(&a, &cfg, e.partial, &Budget::unlimited())
            .expect("own checkpoint matches")
            .expect("unlimited resume finishes");
        assert_eq!(r.relations, p.evaluate(&a).relations);
    }

    #[test]
    fn fuel_split_equals_straight_run() {
        // Budget monotonicity at the engine level: for every split point,
        // f1 then f2 lands exactly where a single f1+f2 run lands.
        let p = tc();
        let a = directed_path(9);
        let cfg = EvalConfig::new();
        for f1 in 1..28u64 {
            for f2 in [1u64, 4, 17, 200] {
                let straight = p.evaluate_budgeted(&a, &cfg, &Budget::fuel(f1 + f2));
                let split = match p.evaluate_budgeted(&a, &cfg, &Budget::fuel(f1)) {
                    Ok(r) => Ok(r),
                    Err(e) => p
                        .resume_budgeted(&a, &cfg, e.partial, &Budget::fuel(f2))
                        .expect("checkpoint comes from this program"),
                };
                match (straight, split) {
                    (Ok(s), Ok(t)) => {
                        assert_eq!(s.relations, t.relations, "f1={f1} f2={f2}");
                        assert_eq!(s.stages, t.stages, "f1={f1} f2={f2}");
                    }
                    (Err(s), Err(t)) => {
                        let (s, t) = (s.partial, t.partial);
                        assert_eq!(s.partial.relations, t.partial.relations, "f1={f1} f2={f2}");
                        assert_eq!(s.partial.stages, t.partial.stages, "f1={f1} f2={f2}");
                        assert_eq!(s.delta, t.delta, "f1={f1} f2={f2}");
                        assert_eq!(s.fuel, t.fuel, "f1={f1} f2={f2}");
                    }
                    (s, t) => panic!(
                        "split and straight runs disagree on exhaustion for f1={f1} f2={f2}: \
                         straight ok={} split ok={}",
                        s.is_ok(),
                        t.is_ok()
                    ),
                }
            }
        }
    }

    #[test]
    fn reference_evaluator_agrees_with_indexed() {
        let p = tc();
        for seed in 0..6 {
            let a = random_digraph(9, 20, seed);
            let reference = p.evaluate_reference(&a);
            let indexed = p.evaluate(&a);
            assert_eq!(reference.relations, indexed.relations, "seed {seed}");
            assert_eq!(reference.stages, indexed.stages, "seed {seed}");
        }
    }
}
