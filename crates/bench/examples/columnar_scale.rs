//! E-scale measurement behind the "Columnar tuple storage" table in
//! EXPERIMENTS.md: single-source reachability over random EDBs of
//! 10³–10⁶ edges, timing bulk load, the indexed semi-naive engine, and
//! (at the sizes where it is feasible) the scan-join reference evaluator,
//! plus the memory-footprint comparison of the arena layout against the
//! boxed-tuple model it replaced.
//!
//! The workload matches `benches/datalog.rs`: `R(x) :- S(x).` /
//! `R(y) :- R(x), E(x,y).` over `{E/2, S/1}`, `n = m/4` elements,
//! xorshift64* edge stream seeded with `0xE5CA1E`, element 0 marked.
//!
//! Usage: `columnar_scale [MAX_EXP] [--json PATH]` — rows for
//! 10³ … 10^MAX_EXP edges (default 6; CI passes 5 to keep the smoke run
//! short). With `--json PATH` a machine-readable snapshot (the committed
//! `BENCH_scale.json`) is written alongside the table.
//!
//! A second table runs the stratified-negation family: `win_move(2)`
//! (eight strata of game-value approximation over `{Move/2, Pos/1}`) on
//! random DAG move graphs of 10³–10⁵ positions, timing the stratum-
//! ordered engine and, at the sizes where it is feasible, the scan-join
//! reference oracle (asserted bit-identical).
//!
//! The "boxed" column is the analytic footprint of the seed
//! representation (`BTreeSet<Vec<Elem>>`, counted as one 24-byte
//! `(ptr, len, cap)` header plus a separate `arity × 4`-byte heap buffer
//! per tuple, ignoring allocator rounding and B-tree node overhead — a
//! lower bound on what the old layout actually used). The "arena" column
//! is the measured `heap_bytes()` of the columnar stores.

use std::time::Instant;

use hp_preservation::datalog::gallery;
use hp_preservation::prelude::*;

/// Deterministic xorshift64* stream, identical to the bench harness.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

fn reach_program() -> Program {
    let v = Vocabulary::from_pairs([("E", 2), ("S", 1)]);
    Program::parse("R(x) :- S(x).\nR(y) :- R(x), E(x,y).", &v).unwrap()
}

/// `n` elements, `m` random directed edges (bulk-loaded through the
/// builder), element 0 marked as the source.
fn random_reach_structure(n: usize, m: usize, seed: u64) -> Structure {
    let v = Vocabulary::from_pairs([("E", 2), ("S", 1)]);
    let mut rng = XorShift(seed | 1);
    let mut b = Structure::builder(v, n).tuple(1, &[0]);
    for _ in 0..m {
        let u = (rng.next() % n as u64) as u32;
        let w = (rng.next() % n as u64) as u32;
        b = b.tuple(0, &[u, w]);
    }
    b.build()
}

/// Analytic bytes of `rows` tuples of the given arity in the seed
/// boxed-tuple representation.
fn boxed_bytes(rows: usize, arity: usize) -> usize {
    rows * (24 + 4 * arity)
}

/// Random DAG move graph over `{Move/2, Pos/1}`: every element is a
/// position and each of `m` draws adds a move oriented low → high id, so
/// the game is well-founded and `win_move(k)`'s top layer is the exact
/// value on positions within `k` moves of a sink.
fn random_game_structure(n: usize, m: usize, seed: u64) -> Structure {
    let v = Vocabulary::from_pairs([("Move", 2), ("Pos", 1)]);
    let mut rng = XorShift(seed | 1);
    let mut b = Structure::builder(v, n);
    for x in 0..n as u32 {
        b = b.tuple(1, &[x]);
    }
    for _ in 0..m {
        let u = (rng.next() % n as u64) as u32;
        let w = (rng.next() % n as u64) as u32;
        if u != w {
            b = b.tuple(0, &[u.min(w), u.max(w)]);
        }
    }
    b.build()
}

fn main() {
    let mut max_exp: u32 = 6;
    let mut json_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--json" {
            json_path = Some(args.next().expect("--json needs a PATH"));
        } else {
            max_exp = a.parse().expect("MAX_EXP must be a small integer");
        }
    }
    assert!((3..=7).contains(&max_exp), "MAX_EXP must be in 3..=7");
    let mut json_rows: Vec<String> = Vec::new();
    let p = reach_program();
    println!(
        "{:>9} {:>9} {:>10} {:>10} {:>10} {:>9} {:>12} {:>12}",
        "edges", "n", "load_ms", "eval_ms", "ref_ms", "R_tuples", "arena_B", "boxed_B"
    );
    for exp in 3..=max_exp {
        let m = 10usize.pow(exp);
        let n = m / 4;
        let t0 = Instant::now();
        let a = random_reach_structure(n, m, 0xE5CA1E);
        let load_ms = t0.elapsed().as_secs_f64() * 1e3;

        let t1 = Instant::now();
        let fix = p.evaluate(&a);
        let eval_ms = t1.elapsed().as_secs_f64() * 1e3;

        // The scan-join reference is quadratic in practice; keep it to the
        // sizes where a single run stays in seconds.
        let ref_ms = if m <= 100_000 {
            let t2 = Instant::now();
            let r = p.evaluate_reference(&a);
            assert_eq!(r.relations, fix.relations, "engines disagree at m={m}");
            format!("{:.1}", t2.elapsed().as_secs_f64() * 1e3)
        } else {
            "-".to_string()
        };

        let arena: usize = a.heap_bytes()
            + fix
                .relations
                .iter()
                .map(Relation::heap_bytes)
                .sum::<usize>();
        let boxed: usize = a
            .relations()
            .map(|(sym, rel)| boxed_bytes(rel.len(), a.vocab().arity(sym)))
            .sum::<usize>()
            + fix
                .relations
                .iter()
                .map(|r| boxed_bytes(r.len(), r.arity()))
                .sum::<usize>();
        println!(
            "{:>9} {:>9} {:>10.1} {:>10.1} {:>10} {:>9} {:>12} {:>12}",
            m,
            n,
            load_ms,
            eval_ms,
            ref_ms,
            fix.relations[0].len(),
            arena,
            boxed
        );
        json_rows.push(format!(
            "    {{\"edges\": {m}, \"n\": {n}, \"load_ms\": {load_ms:.3}, \
             \"eval_ms\": {eval_ms:.3}, \"ref_ms\": {}, \"reached\": {}, \
             \"arena_bytes\": {arena}, \"boxed_bytes\": {boxed}}}",
            if ref_ms == "-" {
                "null".to_string()
            } else {
                ref_ms.clone()
            },
            fix.relations[0].len()
        ));
    }

    // Stratified-negation family: win_move(2) — eight strata, each
    // evaluated to its fixpoint before the next reads its negated guards
    // as membership probes against the sealed store.
    let wm = gallery::win_move(2);
    let mut wm_rows: Vec<String> = Vec::new();
    println!("\nwin_move(2): stratified negation (8 strata), random DAG move graphs, m = 2n");
    println!(
        "{:>9} {:>9} {:>10} {:>10} {:>9}",
        "positions", "moves", "eval1_ms", "ref_ms", "lose_top"
    );
    for exp in 3..=max_exp.min(5) {
        let n = 10usize.pow(exp);
        let m = 2 * n;
        let a = random_game_structure(n, m, 0x5712A7);

        let t0 = Instant::now();
        let fix = wm.evaluate(&a);
        let eval1_ms = t0.elapsed().as_secs_f64() * 1e3;

        let ref_ms = if n <= 10_000 {
            let t1 = Instant::now();
            let r = wm.evaluate_reference(&a);
            assert_eq!(r.relations, fix.relations, "oracle disagrees at n={n}");
            format!("{:.1}", t1.elapsed().as_secs_f64() * 1e3)
        } else {
            "-".to_string()
        };

        let lose_top = fix.relations.last().expect("win_move has IDBs").len();
        println!("{n:>9} {m:>9} {eval1_ms:>10.1} {ref_ms:>10} {lose_top:>9}");
        wm_rows.push(format!(
            "    {{\"positions\": {n}, \"moves\": {m}, \"eval1_ms\": {eval1_ms:.3}, \
             \"ref_ms\": {}, \"lose_top\": {lose_top}}}",
            if ref_ms == "-" {
                "null".to_string()
            } else {
                ref_ms.clone()
            }
        ));
    }

    if let Some(path) = json_path {
        let json = format!(
            "{{\n  \"bench\": \"columnar_scale\",\n  \"workload\": \
             \"single-source reachability, xorshift64* edges, n = m/4\",\n  \
             \"rows\": [\n{}\n  ],\n  \"win_move\": {{\n    \"workload\": \
             \"win_move(2), 8 strata, random DAG move graphs, m = 2n\",\n    \
             \"rows\": [\n{}\n    ]\n  }}\n}}\n",
            json_rows.join(",\n"),
            wm_rows
                .iter()
                .map(|r| format!("  {r}"))
                .collect::<Vec<_>>()
                .join(",\n")
        );
        std::fs::write(&path, json).expect("write BENCH json");
        println!("wrote {path}");
    }
}
