//! Strongly connected components of a predicate dependency graph.
//!
//! One iterative Tarjan walk serves the program's stratification
//! ([`Program::strata`](crate::Program::strata)), the maintenance engine
//! (which processes the IDB condensation component by component) and the
//! analysis crate's predicate dependency graph.

use crate::ast::{PredRef, Rule};

/// The strongly connected components of the directed graph `adj` (node
/// `v` has an edge to every node in `adj[v]`), each with its members in
/// ascending order.
///
/// Components come out in Tarjan's completion order: a component is
/// emitted only after every component reachable from it. With edges
/// pointing from a predicate to the predicates its rules read, that is
/// dependencies first. Roots are visited in ascending node order and
/// successors in `adj` order, so the numbering is deterministic.
pub fn strongly_connected_components(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    const UNSEEN: usize = usize::MAX;
    let n = adj.len();
    let mut index = vec![UNSEEN; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next = 0usize;
    let mut comps: Vec<Vec<usize>> = Vec::new();
    for start in 0..n {
        if index[start] != UNSEEN {
            continue;
        }
        // Explicit DFS frames: (node, position in adj[node]).
        let mut call: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(frame) = call.last_mut() {
            let v = frame.0;
            if frame.1 == 0 {
                index[v] = next;
                low[v] = next;
                next += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if frame.1 < adj[v].len() {
                let w = adj[v][frame.1];
                frame.1 += 1;
                if index[w] == UNSEEN {
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("Tarjan stack holds the root");
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    comps.push(comp);
                }
                call.pop();
                if let Some(parent) = call.last_mut() {
                    low[parent.0] = low[parent.0].min(low[v]);
                }
            }
        }
    }
    comps
}

/// The strongly connected components of the IDB dependency graph of
/// `rules` over `n` IDBs, producers before consumers: a component comes
/// after every component its rules read. Each component is recursive
/// exactly when it has several members or a member reads itself.
pub(crate) fn idb_components(rules: &[Rule], n: usize) -> Vec<Vec<usize>> {
    let mut comps = strongly_connected_components(&idb_dependencies(rules, n));
    // Tarjan emits consumers before their producers; reversed, producers
    // come first.
    comps.reverse();
    comps
}

/// Adjacency of the IDB dependency graph: an edge `b → h` for every rule
/// with head `h` and an IDB body atom `b` (producers point at consumers),
/// each edge once.
fn idb_dependencies(rules: &[Rule], n: usize) -> Vec<Vec<usize>> {
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for rule in rules {
        let PredRef::Idb(h) = rule.head.pred else {
            unreachable!("validated: rule heads are IDB atoms")
        };
        for atom in &rule.body {
            if let PredRef::Idb(b) = atom.pred {
                if !adj[b].contains(&h) {
                    adj[b].push(h);
                }
            }
        }
    }
    adj
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn components_come_out_after_everything_they_reach() {
        // 0 → 1 ⇄ 2 → 3, 4 isolated with a self-loop.
        let adj = vec![vec![1], vec![2], vec![1, 3], vec![], vec![4]];
        assert_eq!(
            strongly_connected_components(&adj),
            vec![vec![3], vec![1, 2], vec![0], vec![4]]
        );
    }
}
