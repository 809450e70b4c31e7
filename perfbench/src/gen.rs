//! Seeded input generators. The same seed gives the same inputs.

use std::time::Instant;

use hp_datalog::Program;
use hp_structures::{Structure, StructureBuilder, Vocabulary};

/// The seed of the committed `BENCH_*` inputs; the reach graph it makes
/// at 10⁶ edges reaches a pinned number of elements.
pub const DEFAULT_SEED: u64 = 0xE5CA1E;

/// xorshift64*, the generator of the repository's scale benches.
pub struct XorShift(u64);

impl XorShift {
    /// The stream for `seed`. Even seeds keep the historic state
    /// `seed | 1`, so [`DEFAULT_SEED`] reproduces the committed inputs;
    /// odd seeds flip bit 32 instead, so no two small seeds share a stream.
    pub fn new(seed: u64) -> XorShift {
        XorShift(if seed.is_multiple_of(2) {
            seed | 1
        } else {
            seed ^ 1 << 32
        })
    }

    /// A stream for one named part of a workload's inputs.
    pub fn derived(seed: u64, salt: u64) -> XorShift {
        XorShift::new(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c16))
    }

    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    pub fn below(&mut self, n: usize) -> u32 {
        (self.next() % n as u64) as u32
    }
}

/// A structure and the milliseconds `StructureBuilder::build` took.
pub struct Built {
    pub structure: Structure,
    pub build_ms: f64,
}

fn build(b: StructureBuilder) -> Built {
    let t = Instant::now();
    let structure = b.build();
    Built {
        structure,
        build_ms: t.elapsed().as_secs_f64() * 1e3,
    }
}

/// `R(x) :- S(x).  R(y) :- R(x), E(x,y).` over `{E/2, S/1}`.
pub fn reach_program() -> Program {
    Program::parse("R(x) :- S(x).\nR(y) :- R(x), E(x,y).", &reach_vocab())
        .expect("the reach program parses")
}

pub fn reach_vocab() -> Vocabulary {
    Vocabulary::from_pairs([("E", 2), ("S", 1)])
}

/// `n` elements, `m` random directed edges, element 0 the source: the
/// input of `incremental_scale` and `columnar_scale`.
pub fn reach_structure(n: usize, m: usize, seed: u64) -> Built {
    let mut rng = XorShift::new(seed);
    let mut b = Structure::builder(reach_vocab(), n).tuple(1, &[0]);
    for _ in 0..m {
        let u = rng.below(n);
        let w = rng.below(n);
        b = b.tuple(0, &[u, w]);
    }
    build(b)
}

/// Random DAG move graph over `{Move/2, Pos/1}`: every element is a
/// position and each of `m` draws adds a move from the lower to the
/// higher id, as in `columnar_scale`.
pub fn game_structure(n: usize, m: usize, seed: u64) -> Built {
    let v = Vocabulary::from_pairs([("Move", 2), ("Pos", 1)]);
    let mut rng = XorShift::derived(seed, 0x5712A7);
    let mut b = Structure::builder(v, n);
    for x in 0..n as u32 {
        b = b.tuple(1, &[x]);
    }
    for _ in 0..m {
        let u = rng.below(n);
        let w = rng.below(n);
        if u != w {
            b = b.tuple(0, &[u.min(w), u.max(w)]);
        }
    }
    build(b)
}

/// Elements reachable from element 0 along `E`, counted by breadth-first
/// search: an oracle for the reach program independent of the evaluator.
pub fn bfs_reached(a: &Structure) -> usize {
    let n = a.universe_size();
    let e = a.vocab().lookup("E").expect("reach vocabulary has E");
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    for t in a.relation(e).iter() {
        adj[t.get(0).0 as usize].push(t.get(1).0);
    }
    let mut seen = vec![false; n];
    let mut queue = vec![0u32];
    seen[0] = true;
    let mut head = 0;
    while head < queue.len() {
        let u = queue[head] as usize;
        head += 1;
        for &w in &adj[u] {
            if !std::mem::replace(&mut seen[w as usize], true) {
                queue.push(w);
            }
        }
    }
    queue.len()
}
