//! Incremental view maintenance on EDB updates.
//!
//! A [`MaterializedDb`] keeps a program's least fixpoint materialized next
//! to its input structure. [`Program::evaluate_incremental`] then folds a
//! batch of EDB insertions and deletions into that fixpoint without
//! recomputing it from scratch:
//!
//! * **non-recursive strata** (singleton SCCs of the predicate dependency
//!   graph without a self-loop) are maintained by the *counting* algorithm —
//!   a per-tuple derivation count is stored beside the relation's
//!   [`TupleStore`] run in a [`CountedStore`], and a signed, telescoped
//!   delta-join pass adjusts the counts: a tuple leaves the relation exactly
//!   when its count reaches zero;
//! * **recursive SCCs** are maintained by *DRed* (delete and re-derive):
//!   an over-approximation of the deleted tuples is propagated to a
//!   fixpoint, every over-deleted tuple with a surviving alternative
//!   derivation is revived, and insertions run as a warm-started semi-naive
//!   fixpoint over the repaired state.
//!
//! Strata come from a condensation of the program's IDB dependency graph
//! ([`crate::strongly_connected_components`], topologically ordered).
//! Delta joins reuse the join-order machinery of [`crate::plan`] — each
//! rule gets one seeded order per body occurrence plus a fully-prebound
//! rederivation order — and run through the evaluator's join executor
//! ([`crate::join`]). Their row source reads each atom's committed
//! relation through a [`View`] of it (post-update, pre-update, mid-DRed or
//! stable). A probe on a prefix key reads the committed sealed store
//! directly; a probe on any other key reads a persistent
//! [`PermutedStore`] copy, which each batch updates by sorted-run merge
//! and difference instead of rebuilding.
//!
//! Maintenance is budgeted and resumable under the same law as
//! [`Program::resume_budgeted`]: the gauge is charged at SCC boundaries, an
//! exhausted run returns an [`IncCheckpoint`] (the database keeps the
//! already-committed strata and refuses further updates until resumed), and
//! resuming with fuel `f2` after exhausting `f1` lands at exactly the state
//! of a single `f1 + f2` run.

use std::collections::HashMap;

use hp_guard::{Budget, Budgeted, Gauge, GaugeState};
use hp_structures::{
    CountedStore, Elem, PermutedStore, Relation, Row, Structure, StructureError, SymbolId,
    TupleStore, Vocabulary,
};

use crate::ast::{PredRef, Program};
use crate::eval::{EvalError, FixpointResult};
use crate::index::{is_prefix, ProbeIter, ResolvedRow};
use crate::join::{join, RowSource};
use crate::plan::{
    plan_steps, plan_steps_prebound, AtomPlan, IndexSpec, JoinStep, ProgramPlan, RulePlan,
};
use crate::strata::idb_components;

// ---------------------------------------------------------------------------
// Update batches
// ---------------------------------------------------------------------------

/// A batch of EDB tuples to insert or delete, one [`TupleStore`] per
/// vocabulary symbol. Build two of these (insertions and deletions) and hand
/// them to [`Program::evaluate_incremental`].
///
/// Batch semantics: a tuple listed in both the insertion and the deletion
/// batch is **kept** (insertions win); inserting a present tuple and
/// deleting an absent one are no-ops.
#[derive(Clone, Debug)]
pub struct EdbDelta {
    vocab: Vocabulary,
    stores: Vec<TupleStore>,
}

impl EdbDelta {
    /// An empty batch over `vocab`.
    pub fn new(vocab: &Vocabulary) -> EdbDelta {
        EdbDelta {
            vocab: vocab.clone(),
            stores: vocab
                .iter()
                .map(|(_, s)| TupleStore::new(s.arity))
                .collect(),
        }
    }

    /// Add one tuple for symbol `sym`.
    ///
    /// # Panics
    ///
    /// If `t.len()` differs from the symbol's arity. Element range is
    /// checked later, against the target database's universe, by
    /// [`Program::evaluate_incremental`].
    pub fn push(&mut self, sym: SymbolId, t: &[Elem]) {
        assert_eq!(
            t.len(),
            self.vocab.arity(sym),
            "tuple arity does not match symbol {}",
            self.vocab.symbol(sym).name
        );
        self.stores[sym.index()].push(t);
    }

    /// Add one tuple by raw element ids — convenience for tests and
    /// examples.
    ///
    /// # Panics
    ///
    /// As [`EdbDelta::push`].
    pub fn push_ids(&mut self, sym: usize, t: &[u32]) {
        let row: Vec<Elem> = t.iter().map(|&e| Elem(e)).collect();
        self.push(SymbolId::from(sym), &row);
    }

    /// True when no tuple was added to any symbol.
    pub fn is_empty(&self) -> bool {
        self.stores.iter().all(|s| s.is_empty())
    }

    /// Total number of tuples in the batch (duplicates included).
    pub fn len(&self) -> usize {
        self.stores.iter().map(|s| s.len() + s.pending_len()).sum()
    }
}

// ---------------------------------------------------------------------------
// Maintenance plan: SCC condensation + per-rule join orders
// ---------------------------------------------------------------------------

/// One strongly connected component of the IDB dependency graph.
#[derive(Clone, Debug)]
struct SccInfo {
    /// Member IDB indices, ascending.
    members: Vec<usize>,
    /// True when the component is recursive (more than one member, or a
    /// self-loop) and must be maintained by DRed instead of counting.
    recursive: bool,
}

/// What maintenance adds to one rule's [`RulePlan`]: one seeded join order
/// per body occurrence (the signed-delta work items) and a fully
/// head-prebound rederivation order.
#[derive(Clone, Debug)]
struct MaintRule {
    /// `(later, earlier)` head argument positions carrying the same
    /// variable: a concrete head tuple must agree on them before its slots
    /// can be prebound.
    head_repeats: Vec<(usize, usize)>,
    /// Naive order over all atoms — used to (re)build derivation counts.
    full_order: Vec<JoinStep>,
    /// Order seeded by body occurrence `i` scanning a delta, one per atom.
    seeded_orders: Vec<Vec<JoinStep>>,
    /// Order with every head variable prebound — the DRed rederivation
    /// probe for one concrete head tuple.
    rederive_order: Vec<JoinStep>,
}

/// Per-program maintenance metadata, built once per [`MaterializedDb`].
#[derive(Clone, Debug)]
struct MaintPlan {
    /// The evaluator's rule plans (head, dense slots, atoms), aligned with
    /// [`Program::rules`].
    rules: Vec<RulePlan>,
    /// Maintenance orders, aligned with `rules`.
    maint: Vec<MaintRule>,
    specs: Vec<IndexSpec>,
    rules_by_head: Vec<Vec<usize>>,
    /// Condensation of the IDB dependency graph, topologically ordered
    /// (producers before consumers).
    sccs: Vec<SccInfo>,
    /// SCC id of each IDB.
    scc_of: Vec<usize>,
}

impl MaintPlan {
    fn new(p: &Program) -> MaintPlan {
        let n_idb = p.idbs().len();
        let rules = ProgramPlan::new(p).rules;
        let mut specs: Vec<IndexSpec> = Vec::new();
        let mut rules_by_head: Vec<Vec<usize>> = vec![Vec::new(); n_idb];
        let maint = rules
            .iter()
            .enumerate()
            .map(|(ri, rp)| {
                rules_by_head[rp.head].push(ri);
                let mut head_repeats = Vec::new();
                for (i, &s) in rp.head_args.iter().enumerate() {
                    if let Some(j) = rp.head_args[..i].iter().position(|&t| t == s) {
                        head_repeats.push((i, j));
                    }
                }
                let mut prebound = vec![false; rp.var_count];
                for &s in &rp.head_args {
                    prebound[s] = true;
                }
                MaintRule {
                    head_repeats,
                    full_order: plan_steps(&rp.atoms, rp.var_count, None, &mut specs),
                    seeded_orders: (0..rp.atoms.len())
                        .map(|ai| plan_steps(&rp.atoms, rp.var_count, Some(ai), &mut specs))
                        .collect(),
                    rederive_order: plan_steps_prebound(
                        &rp.atoms,
                        rp.var_count,
                        &prebound,
                        &mut specs,
                    ),
                }
            })
            .collect();
        let mut scc_of = vec![0usize; n_idb];
        let sccs = idb_components(p.rules(), n_idb)
            .into_iter()
            .enumerate()
            .map(|(id, members)| {
                for &m in &members {
                    scc_of[m] = id;
                }
                let reads_itself = |m: usize| {
                    rules.iter().any(|rp| {
                        rp.head == m && rp.atoms.iter().any(|a| a.pred == PredRef::Idb(m))
                    })
                };
                let recursive = members.len() > 1 || reads_itself(members[0]);
                SccInfo { members, recursive }
            })
            .collect();
        MaintPlan {
            rules,
            maint,
            specs,
            rules_by_head,
            sccs,
            scc_of,
        }
    }
}

// ---------------------------------------------------------------------------
// The materialized database
// ---------------------------------------------------------------------------

/// A program's input structure together with its materialized least
/// fixpoint, derivation counts for the non-recursive strata, and the
/// persistent secondary indexes the maintenance joins probe.
///
/// Build one with [`MaterializedDb::new`], then apply update batches with
/// [`Program::evaluate_incremental`]. The database owns the structure; read
/// access goes through [`MaterializedDb::structure`] and
/// [`MaterializedDb::idb`].
#[derive(Clone, Debug)]
pub struct MaterializedDb {
    program: Program,
    plan: MaintPlan,
    structure: Structure,
    idb: Vec<Relation>,
    /// Derivation counts, `Some` exactly for non-recursive singleton SCCs.
    counts: Vec<Option<CountedStore>>,
    /// Derivation depths, `Some` exactly for members of recursive SCCs:
    /// every tuple has a derivation whose in-SCC supporters all carry
    /// strictly smaller depths. DRed's deletion phase uses them to only
    /// cascade past tuples with no shallower alternative support.
    depths: Vec<Option<DepthMap>>,
    /// Monotone upper bound over every assigned depth; fresh and revived
    /// tuples get depths above it, keeping the invariant without renumbering.
    depth_clock: u64,
    /// One entry per [`MaintPlan`] index spec: a persistent
    /// [`PermutedStore`] kept equal to the committed relation by batch
    /// merge/difference, or `None` for a prefix-keyed spec, whose probes
    /// read the committed store itself.
    indexes: Vec<Option<PermutedStore>>,
    /// True while a budget-exhausted maintenance run awaits
    /// [`Program::resume_incremental`]; fresh updates are refused until
    /// then.
    in_flight: bool,
}

impl MaterializedDb {
    /// Evaluate `program` on `structure` to its least fixpoint and
    /// materialize the result for incremental maintenance.
    pub fn new(program: &Program, structure: Structure) -> Result<MaterializedDb, EvalError> {
        if program.has_negation() {
            return Err(EvalError::NegationUnsupported {
                operation: "incremental view maintenance".to_string(),
            });
        }
        if structure.vocab() != program.edb() {
            return Err(EvalError::ProgramMismatch {
                detail: "structure vocabulary differs from the program's EDB".to_string(),
            });
        }
        let idb = program.evaluate(&structure).relations;
        let plan = MaintPlan::new(program);
        let indexes = plan
            .specs
            .iter()
            .map(|spec| {
                let committed = match spec.pred {
                    PredRef::Edb(sym) => structure.relation(sym).store(),
                    PredRef::Idb(i) => idb[i].store(),
                };
                (!is_prefix(&spec.key_positions))
                    .then(|| PermutedStore::build(committed, &spec.key_positions))
            })
            .collect();
        let n_idb = idb.len();
        let mut db = MaterializedDb {
            program: program.clone(),
            plan,
            structure,
            idb,
            counts: Vec::new(),
            depths: Vec::new(),
            depth_clock: 0,
            indexes,
            in_flight: false,
        };
        let deltas = Deltas::empty(program);
        let ctx = db.ctx(&deltas, None, None);
        let mut counts: Vec<Option<CountedStore>> = vec![None; n_idb];
        let mut depths: Vec<Option<DepthMap>> = vec![None; n_idb];
        let mut depth_clock = 0u64;
        for (si, scc) in ctx.plan.sccs.iter().enumerate() {
            if scc.recursive {
                depth_clock = depth_clock.max(build_depths(&ctx, si, &mut depths));
            } else {
                let p = scc.members[0];
                counts[p] = Some(build_counts(&ctx, p));
            }
        }
        db.counts = counts;
        db.depths = depths;
        db.depth_clock = depth_clock;
        Ok(db)
    }

    /// The current input structure (reflecting every committed batch).
    pub fn structure(&self) -> &Structure {
        &self.structure
    }

    /// The materialized relation of IDB `i`.
    pub fn idb(&self, i: usize) -> &Relation {
        &self.idb[i]
    }

    /// All materialized IDB relations, aligned with
    /// [`Program::idbs`](crate::Program::idbs).
    pub fn relations(&self) -> &[Relation] {
        &self.idb
    }

    /// True while an exhausted maintenance run awaits
    /// [`Program::resume_incremental`].
    pub fn is_in_flight(&self) -> bool {
        self.in_flight
    }

    /// A join context over the committed state, reading per-predicate
    /// deltas from `deltas` and, for the `Cur` view, the DRed `overlay`
    /// filtered by the depth `gate`.
    fn ctx<'a>(
        &'a self,
        deltas: &'a Deltas,
        overlay: Option<Overlay<'a>>,
        gate: Option<DepthGate<'a>>,
    ) -> Ctx<'a> {
        Ctx {
            plan: &self.plan,
            structure: &self.structure,
            idb: &self.idb,
            indexes: &self.indexes,
            deltas,
            overlay,
            gate,
        }
    }

    /// Keep every permuted copy of `pred` equal to its committed relation
    /// after `removed` left it and `inserted` joined it.
    fn update_indexes(&mut self, pred: PredRef, removed: &TupleStore, inserted: &TupleStore) {
        for (spec, index) in self.plan.specs.iter().zip(&mut self.indexes) {
            if let Some(index) = index.as_mut().filter(|_| spec.pred == pred) {
                index.remove_rows(removed);
                index.insert_rows(inserted);
            }
        }
    }
}

/// Rebuild the derivation counts for non-recursive IDB `p` from the
/// committed relations: one full (all-`New`) enumeration per rule, one
/// count unit per satisfying assignment.
fn build_counts(ctx: &Ctx<'_>, p: usize) -> CountedStore {
    let mut cs = CountedStore::new(ctx.idb[p].arity());
    for &ri in &ctx.plan.rules_by_head[p] {
        let views = vec![View::New; ctx.plan.rules[ri].atoms.len()];
        let steps = &ctx.plan.maint[ri].full_order;
        ctx.derive(ri, steps, &views, None, |head| cs.push(head, 1));
    }
    let delta = cs.apply();
    debug_assert!(delta.removed.is_empty());
    debug_assert_eq!(delta.inserted.len(), ctx.idb[p].len());
    cs
}

/// Assign derivation depths to every tuple of recursive SCC `scc` by
/// replaying its semi-naive stages over the committed relations: stage-`r`
/// tuples derive from stage-`< r` members (read as `Cur` through a
/// shadow-everything / reveal-known overlay) and committed externals.
/// Returns the number of stages, an upper bound on every assigned depth.
fn build_depths(ctx: &Ctx<'_>, scc: usize, depths: &mut [Option<DepthMap>]) -> u64 {
    let members = &ctx.plan.sccs[scc].members;
    let empty_stores =
        || -> Vec<TupleStore> { ctx.idb.iter().map(|r| TupleStore::new(r.arity())).collect() };
    let removed: Vec<TupleStore> = (0..ctx.idb.len())
        .map(|p| {
            if is_member(ctx.plan, PredRef::Idb(p), scc) {
                ctx.idb[p].store().clone()
            } else {
                TupleStore::new(ctx.idb[p].arity())
            }
        })
        .collect();
    let mut known: Vec<Relation> = ctx.idb.iter().map(|r| Relation::new(r.arity())).collect();
    let added: Vec<Relation> = known.clone();
    let mut frontier = empty_stores();
    for &p in members {
        depths[p] = Some(DepthMap::new());
    }
    let mut round = 0u64;
    loop {
        round += 1;
        let mut cand = empty_stores();
        let rctx = Ctx {
            overlay: Some(Overlay {
                removed: &removed,
                revived: &known,
                added: &added,
            }),
            ..*ctx
        };
        for &p in members {
            for &ri in &ctx.plan.rules_by_head[p] {
                let (rp, mr) = (&ctx.plan.rules[ri], &ctx.plan.maint[ri]);
                let views = scc_views(ctx.plan, rp, scc, View::New);
                if round == 1 {
                    rctx.derive(ri, &mr.full_order, &views, None, |head| cand[p].push(head));
                    continue;
                }
                for (ai, atom) in rp.atoms.iter().enumerate() {
                    let PredRef::Idb(q) = atom.pred else {
                        continue;
                    };
                    if ctx.plan.scc_of[q] == scc && !frontier[q].is_empty() {
                        let steps = &mr.seeded_orders[ai];
                        rctx.derive(ri, steps, &views, Some(&frontier[q]), |head| {
                            cand[p].push(head)
                        });
                    }
                }
            }
        }
        let mut any = false;
        for &p in members {
            cand[p].seal();
            let fresh = cand[p].difference(known[p].store());
            let map = depths[p].as_mut().expect("member map was just created");
            for t in fresh.iter() {
                map.insert(t.to_vec().into(), round);
            }
            known[p].merge_store(&fresh);
            any = any || !fresh.is_empty();
            frontier[p] = fresh;
        }
        if !any {
            break;
        }
    }
    for &p in members {
        debug_assert_eq!(
            known[p].len(),
            ctx.idb[p].len(),
            "depth replay must reconstruct the fixpoint"
        );
    }
    round
}

// ---------------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------------

/// A resumable snapshot of a budget-exhausted incremental maintenance run,
/// returned as the `partial` of [`Program::evaluate_incremental_budgeted`] /
/// [`Program::resume_incremental`].
///
/// The snapshot is taken at a **stratum boundary**: every SCC before
/// `next_scc` is fully committed to the database, none after it has been
/// touched, and the recorded per-predicate deltas let later strata
/// reconstruct their pre-update views. Resuming with fuel `f2` after
/// exhausting `f1` lands at exactly the state of a single `f1 + f2` run.
#[derive(Clone, Debug)]
pub struct IncCheckpoint {
    next_scc: usize,
    deltas: Deltas,
    stages: usize,
    fuel: GaugeState,
}

impl IncCheckpoint {
    /// Cumulative fuel charged when the snapshot was taken, across all runs
    /// of a resume chain.
    pub fn fuel_spent(&self) -> u64 {
        self.fuel.spent
    }

    /// Number of strata already committed to the database.
    pub fn committed_strata(&self) -> usize {
        self.next_scc
    }

    /// Maintenance rounds performed so far.
    pub fn stages(&self) -> usize {
        self.stages
    }
}

// ---------------------------------------------------------------------------
// Join driver
// ---------------------------------------------------------------------------

/// Which state of a relation an atom occurrence reads during maintenance.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum View {
    /// Post-update committed state (EDB after the batch, lower strata after
    /// their maintenance).
    New,
    /// Pre-update state, reconstructed as `committed ∖ plus ∪ minus` from
    /// the recorded per-predicate deltas.
    Old,
    /// Mid-DRed state of an SCC member: committed rows that are not
    /// over-deleted (or were revived), plus the rows added so far.
    Cur,
    /// Tuples present both before and after the batch: `committed ∖ plus`.
    /// Used by the deletion-phase support check, whose witnesses must not
    /// lean on tuples this batch inserted (insertions are re-played by the
    /// insertion phase, which revives anything the check over-deleted).
    Stable,
}

/// Per-tuple derivation depths of one recursive SCC's members, keyed by the
/// tuple's row. Any assignment where every alive tuple has a derivation
/// whose in-SCC supporters all carry strictly smaller depths works; the
/// maintenance code keeps that invariant with a monotone clock.
type DepthMap = HashMap<Box<[Elem]>, u64>;

/// Depth filter applied on top of a `Cur` view during the deletion-phase
/// support check: an SCC-member candidate only counts as support when its
/// recorded depth is strictly below the examined tuple's depth. Kills then
/// propagate strictly depth-upward, so a kept tuple's witness can only be
/// invalidated by a later kill that re-triggers its examination — no
/// under-deletion.
#[derive(Clone, Copy)]
struct DepthGate<'a> {
    depths: &'a [Option<DepthMap>],
    limit: u64,
}

impl DepthGate<'_> {
    /// May row `t` of member predicate `p` support the examined tuple?
    /// Unknown rows get depth `∞`, i.e. never support (safe: at worst an
    /// over-deletion, which the rederive phase revives).
    fn admits(&self, p: usize, t: &[Elem]) -> bool {
        self.depths[p]
            .as_ref()
            .and_then(|m| m.get(t))
            .is_some_and(|&d| d < self.limit)
    }
}

/// Per-predicate effective deltas of one maintenance run: what actually
/// changed in the EDB, and what each already-processed stratum's
/// maintenance changed in its IDB.
#[derive(Clone, Debug)]
struct Deltas {
    edb_plus: Vec<TupleStore>,
    edb_minus: Vec<TupleStore>,
    idb_plus: Vec<TupleStore>,
    idb_minus: Vec<TupleStore>,
}

impl Deltas {
    fn empty(p: &Program) -> Deltas {
        let edb: Vec<TupleStore> = p
            .edb()
            .iter()
            .map(|(_, s)| TupleStore::new(s.arity))
            .collect();
        let idb: Vec<TupleStore> = p.idbs().iter().map(|&(_, a)| TupleStore::new(a)).collect();
        Deltas {
            edb_plus: edb.clone(),
            edb_minus: edb,
            idb_plus: idb.clone(),
            idb_minus: idb,
        }
    }

    fn plus(&self, pred: PredRef) -> &TupleStore {
        match pred {
            PredRef::Edb(sym) => &self.edb_plus[sym.index()],
            PredRef::Idb(i) => &self.idb_plus[i],
        }
    }

    fn minus(&self, pred: PredRef) -> &TupleStore {
        match pred {
            PredRef::Edb(sym) => &self.edb_minus[sym.index()],
            PredRef::Idb(i) => &self.idb_minus[i],
        }
    }
}

/// The in-progress DRed state of one recursive SCC, overlaid on the
/// committed relations to form the `Cur` view. All three vectors are
/// indexed by IDB id; non-members stay empty.
#[derive(Clone, Copy)]
struct Overlay<'a> {
    /// The deletion over-approximation `D`.
    removed: &'a [TupleStore],
    /// Over-deleted tuples with a surviving alternative derivation.
    revived: &'a [Relation],
    /// Tuples added by the insertion phase.
    added: &'a [Relation],
}

/// Shared read-only state for one maintenance round's join items.
#[derive(Clone, Copy)]
struct Ctx<'a> {
    plan: &'a MaintPlan,
    structure: &'a Structure,
    idb: &'a [Relation],
    indexes: &'a [Option<PermutedStore>],
    deltas: &'a Deltas,
    overlay: Option<Overlay<'a>>,
    gate: Option<DepthGate<'a>>,
}

impl Ctx<'_> {
    fn committed(&self, pred: PredRef) -> &TupleStore {
        match pred {
            PredRef::Edb(sym) => self.structure.relation(sym).store(),
            PredRef::Idb(i) => self.idb[i].store(),
        }
    }

    /// Walk rule `ri` along `steps` with its atoms read in `views`
    /// (`seeds`, when given, scanned as step 0) and call `emit` per
    /// complete assignment. Returns `false` iff `emit` stopped the walk.
    fn join(
        &self,
        ri: usize,
        steps: &[JoinStep],
        views: &[View],
        seeds: Option<&TupleStore>,
        asg: &mut [Elem],
        emit: &mut impl FnMut(&[Elem]) -> bool,
    ) -> bool {
        let src = ViewSource { ctx: self, views };
        join(&src, &self.plan.rules[ri].atoms, steps, seeds, asg, emit)
    }

    /// [`Ctx::join`] from empty slots, calling `f` with the head tuple of
    /// every satisfying assignment.
    fn derive(
        &self,
        ri: usize,
        steps: &[JoinStep],
        views: &[View],
        seeds: Option<&TupleStore>,
        mut f: impl FnMut(&[Elem]),
    ) {
        let rp = &self.plan.rules[ri];
        let mut asg = vec![Elem(0); rp.var_count];
        let mut head = Vec::with_capacity(rp.head_args.len());
        self.join(ri, steps, views, seeds, &mut asg, &mut |asg| {
            head.clear();
            head.extend(rp.head_args.iter().map(|&s| asg[s]));
            f(&head);
            true
        });
    }
}

/// The maintenance rows of one rule: each atom reads the committed
/// relation (a prefix probe or scan of its sealed store, or a probe of its
/// permuted copy) through the view the rule's item assigns it. A view
/// takes rows out of the committed state and adds extra ones:
///
/// | view     | excluded              | extra   | depth gate |
/// |----------|-----------------------|---------|------------|
/// | `New`    | —                     | —       | —          |
/// | `Old`    | `plus`                | `minus` | —          |
/// | `Stable` | `plus`                | —       | —          |
/// | `Cur`    | `removed ∖ revived`   | `added` | when set   |
struct ViewSource<'a> {
    ctx: &'a Ctx<'a>,
    views: &'a [View],
}

impl RowSource for ViewSource<'_> {
    fn rows<F: FnMut(ResolvedRow<'_>) -> bool>(
        &self,
        step: &JoinStep,
        atom: &AtomPlan,
        key: &[Elem],
        mut visit: F,
    ) -> bool {
        let ctx = self.ctx;
        let pred = atom.pred;
        let committed = ctx.committed(pred);
        let rows = match step.index {
            None => ProbeIter::scan(committed),
            Some(si) => match &ctx.indexes[si] {
                Some(copy) => ProbeIter::permuted(copy, key),
                None => ProbeIter::prefix(committed, key),
            },
        };
        let (excluded, kept, extra, gate) = match self.views[step.atom] {
            View::New => (None, None, None, None),
            View::Old => (
                Some(ctx.deltas.plus(pred)),
                None,
                Some(ctx.deltas.minus(pred)),
                None,
            ),
            View::Stable => (Some(ctx.deltas.plus(pred)), None, None, None),
            View::Cur => {
                let ov = ctx.overlay.expect("Cur view requires an overlay");
                let PredRef::Idb(p) = pred else {
                    unreachable!("Cur views are only assigned to SCC members")
                };
                (
                    Some(&ov.removed[p]),
                    Some(ov.revived[p].store()),
                    Some(ov.added[p].store()),
                    ctx.gate.map(|g| (g, p)),
                )
            }
        };
        let excluded = excluded.filter(|x| !x.is_empty());
        let mut scratch = Vec::new();
        let mut admitted = |t: ResolvedRow<'_>| match gate {
            None => true,
            Some((g, p)) => {
                scratch.clear();
                t.append_to(&mut scratch);
                g.admits(p, &scratch)
            }
        };
        for t in rows {
            if excluded.is_some_and(|x| x.contains(t) && !kept.is_some_and(|k| k.contains(t))) {
                continue;
            }
            if admitted(t) && !visit(t) {
                return false;
            }
        }
        let matches_key =
            |t: ResolvedRow<'_>| step.bound.iter().zip(key).all(|(&(i, _), &k)| t.at(i) == k);
        extra
            .into_iter()
            .flat_map(|x| x.iter().map(ResolvedRow::Direct))
            .all(|t| !matches_key(t) || !admitted(t) || visit(t))
    }

    fn contains(&self, _: &AtomPlan, _: &[Elem]) -> bool {
        unreachable!("materialized databases refuse programs with negation")
    }
}

/// True when the over-deleted head tuple `t` of IDB `p` has a surviving
/// derivation: some rule body matches with SCC members read as `Cur`
/// (excluding `t` itself unless revived) and everything else as
/// `external`. The deletion-phase support check passes [`View::Stable`]
/// (and sets the context's depth gate), so its witnesses use only
/// pre-existing external tuples and strictly shallower members; the
/// revival phase passes [`View::New`].
fn rederives(ctx: &Ctx<'_>, scc: usize, p: usize, t: &[Elem], external: View) -> bool {
    ctx.plan.rules_by_head[p].iter().any(|&ri| {
        let (rp, mr) = (&ctx.plan.rules[ri], &ctx.plan.maint[ri]);
        if mr.head_repeats.iter().any(|&(i, j)| t[i] != t[j]) {
            return false;
        }
        let views = scc_views(ctx.plan, rp, scc, external);
        let mut asg = vec![Elem(0); rp.var_count];
        for (i, &s) in rp.head_args.iter().enumerate() {
            asg[s] = t[i];
        }
        // The walk stops at the first witness.
        !ctx.join(ri, &mr.rederive_order, &views, None, &mut asg, &mut |_| {
            false
        })
    })
}

/// Views for a rule during DRed: SCC members read `Cur`, everything else
/// reads `external`.
fn scc_views(plan: &MaintPlan, rp: &RulePlan, scc: usize, external: View) -> Vec<View> {
    rp.atoms
        .iter()
        .map(|a| {
            if is_member(plan, a.pred, scc) {
                View::Cur
            } else {
                external
            }
        })
        .collect()
}

fn is_member(plan: &MaintPlan, pred: PredRef, scc: usize) -> bool {
    matches!(pred, PredRef::Idb(q) if plan.scc_of[q] == scc)
}

// ---------------------------------------------------------------------------
// Maintenance engine
// ---------------------------------------------------------------------------

/// Apply the update batch to the EDB: compute effective per-symbol deltas
/// against the committed structure, mutate it, and keep the EDB secondary
/// indexes in sync. Validates every inserted tuple **before** any mutation
/// so a bad batch leaves the database untouched.
fn commit_edb(
    db: &mut MaterializedDb,
    plus: &EdbDelta,
    minus: &EdbDelta,
) -> Result<Deltas, EvalError> {
    let mut deltas = Deltas::empty(&db.program);
    let universe = db.structure.universe_size();
    let n_sym = db.program.edb().len();
    let mut plus_sealed: Vec<TupleStore> = Vec::with_capacity(n_sym);
    let mut minus_sealed: Vec<TupleStore> = Vec::with_capacity(n_sym);
    for i in 0..n_sym {
        let mut p = plus.stores[i].clone();
        p.seal();
        for t in p.iter() {
            for e in t.iter() {
                if e.index() >= universe {
                    return Err(EvalError::Structure(StructureError::ElementOutOfRange {
                        element: e.0,
                        universe,
                    }));
                }
            }
        }
        let mut m = minus.stores[i].clone();
        m.seal();
        plus_sealed.push(p);
        minus_sealed.push(m);
    }
    for i in 0..n_sym {
        let sym = SymbolId::from(i);
        if plus_sealed[i].is_empty() && minus_sealed[i].is_empty() {
            continue;
        }
        let committed = db.structure.relation(sym).store();
        // Insertions win over same-batch deletions; already-present
        // insertions and absent deletions are no-ops.
        let eff_plus = plus_sealed[i].difference(committed);
        let eff_minus = minus_sealed[i]
            .difference(&plus_sealed[i])
            .intersection(committed);
        db.structure
            .extend_tuples(sym, eff_plus.iter())
            .map_err(EvalError::Structure)?;
        db.structure.remove_tuples(sym, &eff_minus);
        db.update_indexes(PredRef::Edb(sym), &eff_minus, &eff_plus);
        deltas.edb_plus[i] = eff_plus;
        deltas.edb_minus[i] = eff_minus;
    }
    Ok(deltas)
}

impl MaterializedDb {
    /// Commit one stratum's change to IDB `p` (the two sets are disjoint)
    /// and record it as `p`'s delta for the consumers downstream.
    fn commit_idb(
        &mut self,
        deltas: &mut Deltas,
        p: usize,
        removed: TupleStore,
        inserted: TupleStore,
    ) {
        self.idb[p].remove_tuples(&removed);
        self.idb[p].merge_store(&inserted);
        self.update_indexes(PredRef::Idb(p), &removed, &inserted);
        deltas.idb_minus[p] = removed;
        deltas.idb_plus[p] = inserted;
    }
}

/// The seeded work items over the rules of `members`: every
/// `(rule, body occurrence, seed rows)` for which `seeds_of` names
/// non-empty seed rows for the occurrence's predicate.
fn seeded_items<'s>(
    plan: &MaintPlan,
    members: &[usize],
    seeds_of: impl Fn(PredRef) -> Option<&'s TupleStore>,
) -> Vec<(usize, usize, &'s TupleStore)> {
    let mut items = Vec::new();
    for &p in members {
        for &ri in &plan.rules_by_head[p] {
            for (ai, atom) in plan.rules[ri].atoms.iter().enumerate() {
                if let Some(seeds) = seeds_of(atom.pred).filter(|s| !s.is_empty()) {
                    items.push((ri, ai, seeds));
                }
            }
        }
    }
    items
}

/// Maintain one non-recursive singleton stratum by counting: one signed,
/// telescoped delta pass per `(rule, body occurrence)` with a non-empty
/// delta, folded into the stratum's [`CountedStore`]. Returns
/// `(rounds, changed_tuples)`.
fn counting_scc(db: &mut MaterializedDb, deltas: &mut Deltas, p: usize) -> (usize, usize) {
    let mut pending = CountedStore::new(db.idb[p].arity());
    {
        let d: &Deltas = deltas;
        let minus = seeded_items(&db.plan, &[p], |pred| Some(d.minus(pred)));
        let plus = seeded_items(&db.plan, &[p], |pred| Some(d.plus(pred)));
        if minus.is_empty() && plus.is_empty() {
            return (0, 0);
        }
        let ctx = db.ctx(d, None, None);
        for (items, sign) in [(minus, -1i64), (plus, 1)] {
            for (ri, ai, seeds) in items {
                // Telescoped views: occurrences before the seed read the
                // post-update state, occurrences after it the pre-update
                // state, so summing the signed items is exactly New − Old
                // at the derivation-count level.
                let views: Vec<View> = (0..ctx.plan.rules[ri].atoms.len())
                    .map(|j| if j < ai { View::New } else { View::Old })
                    .collect();
                let steps = &ctx.plan.maint[ri].seeded_orders[ai];
                ctx.derive(ri, steps, &views, Some(seeds), |head| {
                    pending.push(head, sign)
                });
            }
        }
    }
    let counts = db.counts[p]
        .as_mut()
        .expect("non-recursive strata carry counts");
    counts.absorb_pending(pending);
    let delta = counts.apply();
    let changed = delta.inserted.len() + delta.removed.len();
    db.commit_idb(deltas, p, delta.removed, delta.inserted);
    (1, changed)
}

/// Maintain one recursive SCC by DRed. Returns `(rounds, changed_tuples)`.
fn dred_scc(db: &mut MaterializedDb, deltas: &mut Deltas, scc: usize) -> (usize, usize) {
    let members: Vec<usize> = db.plan.sccs[scc].members.clone();
    let arities: Vec<usize> = db.idb.iter().map(Relation::arity).collect();
    let empty_stores =
        || -> Vec<TupleStore> { arities.iter().map(|&a| TupleStore::new(a)).collect() };
    let mut removed = empty_stores();
    let mut revived: Vec<Relation> = arities.iter().map(|&a| Relation::new(a)).collect();
    let mut added: Vec<Relation> = revived.clone();
    let mut rounds = 0usize;
    let mut clock = db.depth_clock;
    // Phase A: propagate a deletion over-approximation `D` to a fixpoint.
    // Round 0 is seeded by the external deletions (EDB and lower strata);
    // later rounds by the tuples newly admitted to `D`, with every other
    // occurrence reading the pre-update state. A candidate only enters `D`
    // if it has no surviving support from strictly shallower members and
    // stable externals — kills propagate strictly depth-upward, so a kept
    // tuple is re-examined whenever a witness supporter dies later, and the
    // cascade stays local when alternative derivations abound.
    let mut frontier = empty_stores();
    let mut first = true;
    loop {
        let d: &Deltas = deltas;
        let items = seeded_items(&db.plan, &members, |pred| {
            round_seeds(
                &db.plan,
                scc,
                first.then_some(d.minus(pred)),
                &frontier,
                pred,
            )
        });
        if items.is_empty() {
            break;
        }
        rounds += 1;
        let mut cand = empty_stores();
        let ctx = db.ctx(d, None, None);
        for (ri, ai, seeds) in items {
            let rp = &ctx.plan.rules[ri];
            let h = rp.head;
            let views = vec![View::Old; rp.atoms.len()];
            let steps = &ctx.plan.maint[ri].seeded_orders[ai];
            ctx.derive(ri, steps, &views, Some(seeds), |head| {
                if ctx.idb[h].contains(head) && !removed[h].contains(head) {
                    cand[h].push(head);
                }
            });
        }
        let mut kills = empty_stores();
        for &p in &members {
            cand[p].seal();
            for t in cand[p].difference(&removed[p]).iter() {
                let t = t.to_vec();
                let limit = db.depths[p]
                    .as_ref()
                    .and_then(|m| m.get(t.as_slice()))
                    .copied()
                    .unwrap_or(0);
                let overlay = Overlay {
                    removed: &removed,
                    revived: &revived,
                    added: &added,
                };
                let gate = DepthGate {
                    depths: &db.depths,
                    limit,
                };
                let gctx = db.ctx(d, Some(overlay), Some(gate));
                if !rederives(&gctx, scc, p, &t, View::Stable) {
                    kills[p].push(&t);
                }
            }
        }
        let mut any = false;
        for &p in &members {
            kills[p].seal();
            any = any || !kills[p].is_empty();
            removed[p].merge(&kills[p]);
            frontier[p] = std::mem::replace(&mut kills[p], TupleStore::new(0));
        }
        first = false;
        if !any {
            break;
        }
    }

    // Phase B: revive every over-deleted tuple with a surviving alternative
    // derivation; revivals can support further revivals, so iterate.
    loop {
        let mut cands: Vec<(usize, Vec<Elem>)> = Vec::new();
        for &p in &members {
            for t in removed[p].difference(revived[p].store()).iter() {
                cands.push((p, t.to_vec()));
            }
        }
        if cands.is_empty() {
            break;
        }
        rounds += 1;
        let hits: Vec<bool> = {
            let overlay = Overlay {
                removed: &removed,
                revived: &revived,
                added: &added,
            };
            let ctx = db.ctx(deltas, Some(overlay), None);
            cands
                .iter()
                .map(|(p, t)| rederives(&ctx, scc, *p, t, View::New))
                .collect()
        };
        let mut any = false;
        clock += 1;
        for ((p, t), hit) in cands.iter().zip(hits) {
            if hit {
                revived[*p].insert(t);
                db.depths[*p]
                    .as_mut()
                    .expect("recursive members carry depths")
                    .insert(t.as_slice().into(), clock);
                any = true;
            }
        }
        if !any {
            break;
        }
    }

    // Phase C: warm-started semi-naive insertion over the repaired state.
    // Round 0 is seeded by the external insertions; later rounds by the
    // SCC tuples that became true last round (fresh or revived).
    let mut frontier = empty_stores();
    let mut first = true;
    loop {
        let d: &Deltas = deltas;
        let items = seeded_items(&db.plan, &members, |pred| {
            round_seeds(
                &db.plan,
                scc,
                first.then_some(d.plus(pred)),
                &frontier,
                pred,
            )
        });
        if items.is_empty() {
            break;
        }
        rounds += 1;
        let mut cand = empty_stores();
        let overlay = Overlay {
            removed: &removed,
            revived: &revived,
            added: &added,
        };
        let ctx = db.ctx(d, Some(overlay), None);
        for (ri, ai, seeds) in items {
            let rp = &ctx.plan.rules[ri];
            let views = scc_views(ctx.plan, rp, scc, View::New);
            let steps = &ctx.plan.maint[ri].seeded_orders[ai];
            ctx.derive(ri, steps, &views, Some(seeds), |head| {
                cand[rp.head].push(head)
            });
        }
        let mut any = false;
        clock += 1;
        for &p in &members {
            cand[p].seal();
            let mut fresh = TupleStore::new(arities[p]);
            let mut revive = TupleStore::new(arities[p]);
            for t in cand[p].iter() {
                if added[p].contains(t) {
                    continue;
                }
                if db.idb[p].contains(t) {
                    if removed[p].contains(t) && !revived[p].contains(t) {
                        revive.push(t);
                    }
                } else {
                    fresh.push(t);
                }
            }
            fresh.seal();
            revive.seal();
            let map = db.depths[p]
                .as_mut()
                .expect("recursive members carry depths");
            for t in fresh.iter().chain(revive.iter()) {
                map.insert(t.to_vec().into(), clock);
            }
            added[p].merge_store(&fresh);
            revived[p].merge_store(&revive);
            let mut next = fresh;
            next.merge(&revive);
            any = any || !next.is_empty();
            frontier[p] = next;
        }
        first = false;
        if !any {
            break;
        }
    }

    // Commit: the confirmed deletions are `D ∖ revived`, the insertions are
    // the fresh tuples.
    let mut changed = 0usize;
    for &p in &members {
        let final_minus = removed[p].difference(revived[p].store());
        let final_plus = added[p].store().clone();
        changed += final_minus.len() + final_plus.len();
        let map = db.depths[p]
            .as_mut()
            .expect("recursive members carry depths");
        for t in final_minus.iter() {
            map.remove(t.to_vec().as_slice());
        }
        db.commit_idb(deltas, p, final_minus, final_plus);
    }
    db.depth_clock = clock;
    (rounds, changed)
}

/// The seed rows of one DRed propagation round for an atom on `pred`: on
/// the first round (`external` is the batch's delta of `pred`) a non-member
/// atom's delta, later a member atom's `frontier`.
fn round_seeds<'s>(
    plan: &MaintPlan,
    scc: usize,
    external: Option<&'s TupleStore>,
    frontier: &'s [TupleStore],
    pred: PredRef,
) -> Option<&'s TupleStore> {
    match (external, pred) {
        (Some(delta), _) => (!is_member(plan, pred, scc)).then_some(delta),
        (None, PredRef::Idb(q)) if plan.scc_of[q] == scc => Some(&frontier[q]),
        (None, _) => None,
    }
}

/// Run maintenance from stratum `first_scc` on, charging the gauge at SCC
/// boundaries: a `check` before each stratum and a `tick` of
/// `1 + changed_tuples` after it commits, mirroring the per-round charge of
/// the full evaluator.
// The large Err variant is the point of the budgeted API: exhaustion
// carries a full checkpoint so callers can resume (same as eval.rs).
#[allow(clippy::result_large_err)]
fn maintain(
    db: &mut MaterializedDb,
    mut gauge: Gauge,
    mut deltas: Deltas,
    first_scc: usize,
    mut stages: usize,
) -> Budgeted<FixpointResult, IncCheckpoint> {
    let n_scc = db.plan.sccs.len();
    for si in first_scc..n_scc {
        if let Err(stop) = gauge.check() {
            db.in_flight = true;
            return Err(stop.with_partial(checkpoint(si, deltas, stages, &gauge)));
        }
        let (rounds, changed) = if db.plan.sccs[si].recursive {
            dred_scc(db, &mut deltas, si)
        } else {
            counting_scc(db, &mut deltas, db.plan.sccs[si].members[0])
        };
        stages += rounds;
        if let Err(stop) = gauge.tick(1 + changed as u64) {
            db.in_flight = true;
            return Err(stop.with_partial(checkpoint(si + 1, deltas, stages, &gauge)));
        }
    }
    db.in_flight = false;
    Ok(FixpointResult {
        idb_names: db.program.idbs().iter().map(|(n, _)| n.clone()).collect(),
        goal: db.program.goal_index(),
        relations: db.idb.clone(),
        stages,
        converged: true,
        profile: Vec::new(),
    })
}

fn checkpoint(next_scc: usize, deltas: Deltas, stages: usize, gauge: &Gauge) -> IncCheckpoint {
    IncCheckpoint {
        next_scc,
        deltas,
        stages,
        fuel: gauge.state(),
    }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

impl Program {
    /// Fold an EDB update batch into a materialized database and return the
    /// maintained fixpoint — bit-identical relations to a from-scratch
    /// [`Program::evaluate`] on the updated structure.
    ///
    /// [`FixpointResult::stages`] counts *maintenance rounds* (delta
    /// passes across all strata), not the full evaluator's Φ rounds; an
    /// update nothing depends on reports 0 stages.
    pub fn evaluate_incremental(
        &self,
        db: &mut MaterializedDb,
        plus: &EdbDelta,
        minus: &EdbDelta,
    ) -> Result<FixpointResult, EvalError> {
        self.evaluate_incremental_budgeted(db, plus, minus, &Budget::unlimited())
            .map(|r| r.expect("unlimited budgets cannot exhaust"))
    }

    /// Budgeted incremental maintenance. On exhaustion the returned
    /// [`IncCheckpoint`] snapshots the run at a stratum boundary — already
    /// maintained strata stay committed in `db`, which refuses further
    /// update batches until [`Program::resume_incremental`] completes the
    /// run. The resume law of [`Program::resume_budgeted`] holds: fuel `f1`
    /// then `f2` is indistinguishable from a single `f1 + f2` run.
    pub fn evaluate_incremental_budgeted(
        &self,
        db: &mut MaterializedDb,
        plus: &EdbDelta,
        minus: &EdbDelta,
        budget: &Budget,
    ) -> Result<Budgeted<FixpointResult, IncCheckpoint>, EvalError> {
        if self.has_negation() {
            return Err(EvalError::NegationUnsupported {
                operation: "incremental view maintenance".to_string(),
            });
        }
        self.check_db(db)?;
        if db.in_flight {
            return Err(EvalError::ProgramMismatch {
                detail: "maintenance is in progress on this database; resume it first".to_string(),
            });
        }
        if plus.vocab != *self.edb() || minus.vocab != *self.edb() {
            return Err(EvalError::ProgramMismatch {
                detail: "update batch vocabulary differs from the program's EDB".to_string(),
            });
        }
        let deltas = commit_edb(db, plus, minus)?;
        Ok(maintain(db, budget.gauge(), deltas, 0, 0))
    }

    /// Resume a budget-exhausted maintenance run from its checkpoint,
    /// continuing at the first unmaintained stratum with cumulative fuel
    /// accounting.
    pub fn resume_incremental(
        &self,
        db: &mut MaterializedDb,
        checkpoint: IncCheckpoint,
        budget: &Budget,
    ) -> Result<Budgeted<FixpointResult, IncCheckpoint>, EvalError> {
        self.check_db(db)?;
        if !db.in_flight {
            return Err(EvalError::CheckpointMismatch {
                detail: "no maintenance run is in progress on this database".to_string(),
            });
        }
        if checkpoint.next_scc > db.plan.sccs.len()
            || checkpoint.deltas.edb_plus.len() != self.edb().len()
            || checkpoint.deltas.idb_plus.len() != self.idbs().len()
        {
            return Err(EvalError::CheckpointMismatch {
                detail: "checkpoint shape does not match this program".to_string(),
            });
        }
        let gauge = budget.resume(checkpoint.fuel);
        Ok(maintain(
            db,
            gauge,
            checkpoint.deltas,
            checkpoint.next_scc,
            checkpoint.stages,
        ))
    }

    /// Cheap identity check: was `db` built for (a clone of) this program?
    fn check_db(&self, db: &MaterializedDb) -> Result<(), EvalError> {
        if self.edb() != db.program.edb()
            || self.idbs() != db.program.idbs()
            || self.rules() != db.program.rules()
        {
            return Err(EvalError::ProgramMismatch {
                detail: "materialized database was built for a different program".to_string(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gallery;
    use hp_structures::generators::directed_path;

    fn delta_pair(vocab: &Vocabulary) -> (EdbDelta, EdbDelta) {
        (EdbDelta::new(vocab), EdbDelta::new(vocab))
    }

    #[test]
    fn reach_keeps_one_permuted_copy() {
        // The maintenance orders of reach probe S[0], R[0], E[0] and E[1].
        // The first three are prefix keys that the committed stores serve
        // directly; only E keyed on its target needs a permuted copy.
        let v = Vocabulary::from_pairs([("E", 2), ("S", 1)]);
        let e = v.lookup("E").unwrap();
        let p = Program::parse("R(x) :- S(x).\nR(y) :- R(x), E(x,y).", &v).unwrap();
        let mut a = Structure::new(v.clone(), 6);
        for (u, w) in [(0u32, 1), (1, 2), (2, 3), (3, 1), (4, 5)] {
            a.add_tuple_ids(e.index(), &[u, w]).unwrap();
        }
        a.add_tuple_ids(1, &[0]).unwrap();
        let mut db = MaterializedDb::new(&p, a.clone()).unwrap();
        let copies: Vec<&IndexSpec> = db
            .plan
            .specs
            .iter()
            .zip(&db.indexes)
            .filter(|(_, copy)| copy.is_some())
            .map(|(spec, _)| spec)
            .collect();
        assert_eq!(copies.len(), 1);
        assert_eq!(copies[0].pred, PredRef::Edb(e));
        assert_eq!(copies[0].key_positions, vec![1]);

        let (mut plus, minus) = delta_pair(p.edb());
        plus.push_ids(e.index(), &[2, 4]);
        let r = p.evaluate_incremental(&mut db, &plus, &minus).unwrap();
        a.add_tuple_ids(e.index(), &[2, 4]).unwrap();
        assert_eq!(r.relations, p.evaluate(&a).relations);

        let (plus, mut minus) = delta_pair(p.edb());
        minus.push_ids(e.index(), &[0, 1]);
        let r = p.evaluate_incremental(&mut db, &plus, &minus).unwrap();
        assert!(a.remove_tuple(e, &[Elem(0), Elem(1)]));
        assert_eq!(r.relations, p.evaluate(&a).relations);

        // The copy followed both batches.
        let copy = db.indexes.iter().flatten().next().unwrap();
        let rebuilt = PermutedStore::build(a.relation(e).store(), &[1]);
        assert_eq!(copy.store(), rebuilt.store());
    }

    #[test]
    fn single_edge_insert_matches_full_eval() {
        let p = gallery::transitive_closure();
        let a = directed_path(5);
        let mut db = MaterializedDb::new(&p, a.clone()).unwrap();
        let (mut plus, minus) = delta_pair(p.edb());
        plus.push_ids(0, &[4, 0]); // close the cycle
        let r = p.evaluate_incremental(&mut db, &plus, &minus).unwrap();
        let mut b = a;
        let _ = b.add_tuple_ids(0, &[4, 0]);
        let full = p.evaluate(&b);
        assert_eq!(r.relations, full.relations);
        assert_eq!(db.relations(), &full.relations[..]);
    }

    #[test]
    fn single_edge_delete_matches_full_eval() {
        let p = gallery::transitive_closure();
        let a = directed_path(6);
        let mut db = MaterializedDb::new(&p, a.clone()).unwrap();
        let (plus, mut minus) = delta_pair(p.edb());
        minus.push_ids(0, &[2, 3]); // cut the path in the middle
        let r = p.evaluate_incremental(&mut db, &plus, &minus).unwrap();
        let mut b = a;
        assert!(b.remove_tuple(SymbolId::from(0usize), &[Elem(2), Elem(3)]));
        let full = p.evaluate(&b);
        assert_eq!(r.relations, full.relations);
    }

    #[test]
    fn delete_then_reinsert_restores_everything() {
        let p = gallery::transitive_closure();
        let a = directed_path(6);
        let mut db = MaterializedDb::new(&p, a.clone()).unwrap();
        let before: Vec<Relation> = db.relations().to_vec();
        let (plus0, mut minus0) = delta_pair(p.edb());
        minus0.push_ids(0, &[3, 4]);
        p.evaluate_incremental(&mut db, &plus0, &minus0).unwrap();
        let (mut plus1, minus1) = delta_pair(p.edb());
        plus1.push_ids(0, &[3, 4]);
        let r = p.evaluate_incremental(&mut db, &plus1, &minus1).unwrap();
        assert_eq!(r.relations, before);
        assert_eq!(db.structure().relation(SymbolId::from(0usize)).len(), 5);
    }

    #[test]
    fn nonrecursive_counting_keeps_multiply_derived_tuples() {
        // two_hop is non-recursive: H(x,y) has one derivation per length-2
        // path. Deleting one of two parallel mid-edges must keep the pair.
        let p = gallery::two_hop();
        let mut a = Structure::new(Vocabulary::digraph(), 4);
        for (u, v) in [(0u32, 1), (0, 2), (1, 3), (2, 3)] {
            let _ = a.add_tuple_ids(0, &[u, v]);
        }
        let mut db = MaterializedDb::new(&p, a.clone()).unwrap();
        let (plus, mut minus) = delta_pair(p.edb());
        minus.push_ids(0, &[1, 3]);
        let r = p.evaluate_incremental(&mut db, &plus, &minus).unwrap();
        // (0,3) survives via 0→2→3.
        assert!(r.relations[0].contains(&[Elem(0), Elem(3)]));
        let mut b = a;
        assert!(b.remove_tuple(SymbolId::from(0usize), &[Elem(1), Elem(3)]));
        assert_eq!(r.relations, p.evaluate(&b).relations);
    }

    #[test]
    fn noop_batch_reports_zero_stages() {
        let p = gallery::transitive_closure();
        let a = directed_path(4);
        let mut db = MaterializedDb::new(&p, a).unwrap();
        let (mut plus, mut minus) = delta_pair(p.edb());
        plus.push_ids(0, &[0, 1]); // already present
        minus.push_ids(0, &[3, 0]); // absent
        let r = p.evaluate_incremental(&mut db, &plus, &minus).unwrap();
        assert_eq!(r.stages, 0);
        assert!(r.converged);
    }

    #[test]
    fn mismatched_database_is_a_typed_error() {
        let p = gallery::transitive_closure();
        let q = gallery::cycle_detection();
        let mut db = MaterializedDb::new(&p, directed_path(3)).unwrap();
        let (plus, minus) = delta_pair(q.edb());
        let err = q.evaluate_incremental(&mut db, &plus, &minus).unwrap_err();
        assert!(matches!(err, EvalError::ProgramMismatch { .. }));
    }

    #[test]
    fn out_of_range_insert_is_rejected_before_mutation() {
        let p = gallery::transitive_closure();
        let a = directed_path(3);
        let mut db = MaterializedDb::new(&p, a.clone()).unwrap();
        let (mut plus, minus) = delta_pair(p.edb());
        plus.push_ids(0, &[0, 99]);
        let err = p.evaluate_incremental(&mut db, &plus, &minus).unwrap_err();
        assert!(matches!(err, EvalError::Structure(_)));
        // Untouched: a follow-up no-op batch still matches full eval.
        let (plus2, minus2) = delta_pair(p.edb());
        let r = p.evaluate_incremental(&mut db, &plus2, &minus2).unwrap();
        assert_eq!(r.relations, p.evaluate(&a).relations);
    }
}
