//! The predicate dependency graph (PDG) with its SCC condensation — the
//! substrate every program-level analysis pass runs over.
//!
//! Nodes are the program's IDB predicates; there is an edge `h → q`
//! whenever some rule with head `h` mentions `q` in its body ("`h`
//! depends on `q`"). The graph is condensed into strongly connected
//! components by [`hp_datalog::strongly_connected_components`];
//! components come out in **topological order with dependencies first**,
//! which is exactly the evaluation order a forward dataflow analysis
//! wants (and, reversed, the order a backward one wants). Recursion lives
//! entirely inside the recursive SCCs, so per-SCC questions — is this
//! component recursive, how many same-component atoms does its widest
//! rule carry — localize the HP008/HP016 classifications the paper's §7
//! reasons about.

use std::collections::BTreeSet;

use hp_datalog::{strongly_connected_components, PredRef};

use crate::facts::ProgramFacts;

/// The predicate dependency graph of a program, with rule cross-indexes
/// and the SCC condensation precomputed.
#[derive(Clone, Debug)]
pub struct Pdg {
    /// `deps[h]` = IDB indices occurring in bodies of rules with head `h`
    /// (positive *and* negated occurrences — a negated guard is still a
    /// dependency, both for demand and for evaluation order).
    deps: Vec<BTreeSet<usize>>,
    /// `neg_deps[h]` ⊆ `deps[h]` = IDB indices with a **negated**
    /// occurrence in some body of a rule with head `h`. Edge polarity is
    /// what stratification is about: a program is stratifiable iff no
    /// strongly connected component contains a negative edge.
    neg_deps: Vec<BTreeSet<usize>>,
    /// Reverse edges: `dependents[q]` = heads whose rules mention `q`.
    dependents: Vec<BTreeSet<usize>>,
    /// `rules_of[h]` = indices of rules whose head is IDB `h`.
    rules_of: Vec<Vec<usize>>,
    /// `rules_using[q]` = indices of rules with an IDB-`q` body atom.
    rules_using: Vec<Vec<usize>>,
    /// SCC index of each predicate. SCC indices are topological:
    /// dependencies always live in an SCC with a **smaller or equal**
    /// index, with equality exactly for same-component edges.
    scc_of: Vec<usize>,
    /// Members of each SCC, in topological order (dependencies first).
    sccs: Vec<Vec<usize>>,
}

impl Pdg {
    /// Build the graph and its condensation from program facts.
    /// Out-of-range IDB indices (possible in raw, unvalidated facts) are
    /// ignored, matching the robustness contract of [`ProgramFacts`].
    pub fn new(facts: &ProgramFacts) -> Pdg {
        let n = facts.idbs.len();
        let mut deps = vec![BTreeSet::new(); n];
        let mut neg_deps = vec![BTreeSet::new(); n];
        let mut dependents = vec![BTreeSet::new(); n];
        let mut rules_of = vec![Vec::new(); n];
        let mut rules_using = vec![Vec::new(); n];
        for (ri, r) in facts.rules.iter().enumerate() {
            let PredRef::Idb(h) = r.head.pred else {
                continue;
            };
            if h >= n {
                continue;
            }
            rules_of[h].push(ri);
            let mut used_here: BTreeSet<usize> = BTreeSet::new();
            for a in &r.body {
                if let PredRef::Idb(q) = a.pred {
                    if q < n {
                        deps[h].insert(q);
                        if a.negated {
                            neg_deps[h].insert(q);
                        }
                        dependents[q].insert(h);
                        used_here.insert(q);
                    }
                }
            }
            for q in used_here {
                rules_using[q].push(ri);
            }
        }
        // Edges point at dependencies, so Tarjan's completion order is
        // already topological with dependencies first.
        let adj: Vec<Vec<usize>> = deps.iter().map(|d| d.iter().copied().collect()).collect();
        let sccs = strongly_connected_components(&adj);
        let mut scc_of = vec![0usize; n];
        for (s, members) in sccs.iter().enumerate() {
            for &p in members {
                scc_of[p] = s;
            }
        }
        Pdg {
            deps,
            neg_deps,
            dependents,
            rules_of,
            rules_using,
            scc_of,
            sccs,
        }
    }

    /// Number of predicates (nodes).
    pub fn num_preds(&self) -> usize {
        self.deps.len()
    }

    /// IDB predicates the given predicate's rules depend on.
    pub fn deps(&self, p: usize) -> &BTreeSet<usize> {
        &self.deps[p]
    }

    /// IDB predicates with a **negated** occurrence in the bodies of
    /// `p`'s rules (a subset of [`deps`](Pdg::deps)).
    pub fn neg_deps(&self, p: usize) -> &BTreeSet<usize> {
        &self.neg_deps[p]
    }

    /// True when some rule body negates an IDB predicate (negated EDB
    /// guards carry no dependency edge and do not count).
    pub fn has_negative_edge(&self) -> bool {
        self.neg_deps.iter().any(|s| !s.is_empty())
    }

    /// True when SCC `s` contains a negative edge — i.e. some member's
    /// rules negate another member (or itself). A program is
    /// stratifiable iff **no** SCC has one (Apt–Blair–Walker).
    pub fn scc_has_negative_edge(&self, s: usize) -> bool {
        self.sccs[s]
            .iter()
            .any(|&p| self.neg_deps[p].iter().any(|&q| self.scc_of[q] == s))
    }

    /// IDB predicates whose rules mention `p` in a body.
    pub fn dependents(&self, p: usize) -> &BTreeSet<usize> {
        &self.dependents[p]
    }

    /// Indices of rules whose head is `p`.
    pub fn rules_of(&self, p: usize) -> &[usize] {
        &self.rules_of[p]
    }

    /// Indices of rules with an IDB-`p` body atom.
    pub fn rules_using(&self, p: usize) -> &[usize] {
        &self.rules_using[p]
    }

    /// Number of strongly connected components.
    pub fn scc_count(&self) -> usize {
        self.sccs.len()
    }

    /// SCC index of a predicate. Indices are topological: every
    /// dependency of `p` outside its own SCC has a strictly smaller SCC
    /// index.
    pub fn scc_of(&self, p: usize) -> usize {
        self.scc_of[p]
    }

    /// Members of an SCC (ascending predicate indices).
    pub fn scc_members(&self, s: usize) -> &[usize] {
        &self.sccs[s]
    }

    /// All SCCs in topological order, dependencies first.
    pub fn sccs(&self) -> impl Iterator<Item = &[usize]> {
        self.sccs.iter().map(|m| m.as_slice())
    }

    /// True when the SCC contains a cycle: more than one member, or a
    /// single member with a self-loop. Exactly the recursive components.
    pub fn is_recursive_scc(&self, s: usize) -> bool {
        let m = &self.sccs[s];
        m.len() > 1 || self.deps[m[0]].contains(&m[0])
    }

    /// True when predicate `p` is (transitively) recursive, i.e. lives in
    /// a recursive SCC.
    pub fn is_recursive_pred(&self, p: usize) -> bool {
        self.is_recursive_scc(self.scc_of[p])
    }

    /// The **recursion width** of an SCC: the maximum, over rules whose
    /// head lies in the SCC, of the number of body atoms whose predicate
    /// also lies in the SCC. Width 0 means nonrecursive, 1 linear
    /// recursion, ≥ 2 nonlinear (the doubly recursive transitive closure
    /// has width 2). Refines the whole-program HP008 class per component.
    pub fn scc_recursion_width(&self, facts: &ProgramFacts, s: usize) -> usize {
        let mut width = 0;
        for &p in &self.sccs[s] {
            for &ri in &self.rules_of[p] {
                let w = facts.rules[ri]
                    .body
                    .iter()
                    .filter(
                        |a| matches!(a.pred, PredRef::Idb(q) if q < self.scc_of.len() && self.scc_of[q] == s),
                    )
                    .count();
                width = width.max(w);
            }
        }
        width
    }

    /// Predicates reachable from `start` by following dependency edges
    /// (`backward = false`: what does `start` depend on?) or dependent
    /// edges (`backward = true`: what depends on `start`?). Includes the
    /// start set itself.
    pub fn reachable(
        &self,
        start: impl IntoIterator<Item = usize>,
        backward: bool,
    ) -> BTreeSet<usize> {
        let edges = if backward {
            &self.dependents
        } else {
            &self.deps
        };
        let mut seen = BTreeSet::new();
        let mut stack: Vec<usize> = start.into_iter().filter(|&p| p < edges.len()).collect();
        while let Some(p) = stack.pop() {
            if seen.insert(p) {
                stack.extend(edges[p].iter().copied());
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hp_datalog::{gallery, Program};
    use hp_structures::Vocabulary;

    fn facts(text: &str) -> ProgramFacts {
        ProgramFacts::of_program(&Program::parse(text, &Vocabulary::digraph()).unwrap())
    }

    #[test]
    fn tc_is_one_recursive_scc() {
        let f = ProgramFacts::of_program(&gallery::transitive_closure());
        let g = Pdg::new(&f);
        assert_eq!(g.num_preds(), 1);
        assert_eq!(g.scc_count(), 1);
        assert!(g.is_recursive_scc(0));
        assert_eq!(g.scc_recursion_width(&f, 0), 1);
    }

    #[test]
    fn doubly_recursive_tc_has_width_two() {
        let f = facts("T(x,y) :- E(x,y).\nT(x,y) :- T(x,z), T(z,y).");
        let g = Pdg::new(&f);
        assert_eq!(g.scc_recursion_width(&f, g.scc_of(0)), 2);
    }

    #[test]
    fn condensation_is_topological() {
        // Goal -> U -> T, T recursive; Goal and U nonrecursive.
        let f =
            facts("T(x,y) :- E(x,y).\nT(x,y) :- E(x,z), T(z,y).\nU(x) :- T(x,x).\nGoal() :- U(x).");
        let g = Pdg::new(&f);
        assert_eq!(g.scc_count(), 3);
        let (t, u, goal) = (0, 1, 2);
        assert!(g.scc_of(t) < g.scc_of(u));
        assert!(g.scc_of(u) < g.scc_of(goal));
        assert!(g.is_recursive_scc(g.scc_of(t)));
        assert!(!g.is_recursive_scc(g.scc_of(u)));
        assert_eq!(g.scc_recursion_width(&f, g.scc_of(u)), 0);
    }

    #[test]
    fn mutual_recursion_is_one_scc() {
        let f = facts(
            "Even(x,y) :- E(x,z), Odd(z,y).\nOdd(x,y) :- E(x,y).\nOdd(x,y) :- E(x,z), Even(z,y).",
        );
        let g = Pdg::new(&f);
        assert_eq!(g.scc_count(), 1);
        assert_eq!(g.scc_members(0), &[0, 1]);
        assert!(g.is_recursive_scc(0));
        assert_eq!(g.scc_recursion_width(&f, 0), 1);
    }

    #[test]
    fn reachability_both_directions() {
        let f = facts("T(x,y) :- E(x,y).\nU(x) :- T(x,x).\nV(x) :- E(x,x).\nGoal() :- U(x).");
        let g = Pdg::new(&f);
        let (t, u, v, goal) = (0, 1, 2, 3);
        let fwd = g.reachable([goal], false);
        assert!(fwd.contains(&t) && fwd.contains(&u) && fwd.contains(&goal));
        assert!(!fwd.contains(&v));
        let bwd = g.reachable([t], true);
        assert_eq!(bwd, BTreeSet::from([t, u, goal]));
    }

    #[test]
    fn rule_cross_indexes() {
        let f = facts("T(x,y) :- E(x,y).\nT(x,y) :- E(x,z), T(z,y).\nGoal() :- T(x,x).");
        let g = Pdg::new(&f);
        assert_eq!(g.rules_of(0), &[0, 1]);
        assert_eq!(g.rules_of(1), &[2]);
        assert_eq!(g.rules_using(0), &[1, 2]);
        assert!(g.rules_using(1).is_empty());
        assert_eq!(g.dependents(0), &BTreeSet::from([0, 1]));
    }

    #[test]
    fn polarity_tracked_on_edges() {
        let f = ProgramFacts::of_program(&gallery::non_reachability());
        let g = Pdg::new(&f);
        let (t, nr) = (0, 1);
        assert!(g.has_negative_edge());
        assert!(g.deps(nr).contains(&t), "negated dep still a dep");
        assert_eq!(g.neg_deps(nr), &BTreeSet::from([t]));
        assert!(g.neg_deps(t).is_empty());
        // Both SCCs are negative-edge-free: the program is stratifiable.
        assert!((0..g.scc_count()).all(|s| !g.scc_has_negative_edge(s)));
        // A negated EDB guard adds no edge at all.
        let f = ProgramFacts::of_program(&gallery::set_difference());
        assert!(!Pdg::new(&f).has_negative_edge());
    }

    #[test]
    fn negative_edge_inside_scc_detected() {
        // Unstratifiable win/move: Win negates itself. Program::parse
        // rejects it, so build raw facts by hand.
        use hp_datalog::{DatalogAtom, Rule};
        let v = Vocabulary::from_pairs([("Move", 2)]);
        let m = v.lookup("Move").unwrap();
        let f = ProgramFacts::from_parts(
            v,
            vec![("Win".to_string(), 1)],
            vec![Rule {
                head: DatalogAtom::positive(PredRef::Idb(0), vec![0]),
                body: vec![
                    DatalogAtom::positive(PredRef::Edb(m), vec![0, 1]),
                    DatalogAtom {
                        pred: PredRef::Idb(0),
                        args: vec![1],
                        negated: true,
                    },
                ],
            }],
            vec!["x".to_string(), "y".to_string()],
        );
        let g = Pdg::new(&f);
        assert!(g.scc_has_negative_edge(g.scc_of(0)));
    }

    #[test]
    fn empty_program_graph() {
        let f = ProgramFacts::from_parts(Vocabulary::digraph(), vec![], vec![], vec![]);
        let g = Pdg::new(&f);
        assert_eq!(g.num_preds(), 0);
        assert_eq!(g.scc_count(), 0);
        assert!(g.reachable([], false).is_empty());
    }
}
