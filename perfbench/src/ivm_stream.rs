//! `ivm_stream`: single-edge writes against a materialized view. A
//! `MaterializedDb` of the reachability program over a random digraph
//! with 10⁶ edges is built in set-up; a seeded stream then inserts a
//! fresh random edge and deletes it again. Main operation: the insert's
//! maintenance. Side operation: the delete's.

use std::time::Instant;

use hp_datalog::{EdbDelta, MaterializedDb};
use hp_structures::{Elem, Relation};

use crate::gen::{reach_program, reach_structure, XorShift, DEFAULT_SEED};
use crate::stats::Sample;
use crate::{measure_loop, ms_since, Ctx, Interleave, Op, Outcome};

const EDGES: usize = 1_000_000;
const SETUPS: usize = 3;
/// Insert/delete cycles measured at the least.
const MIN_CYCLES: usize = 100;
/// Elements reached at 10⁶ edges for [`DEFAULT_SEED`].
const PINNED_REACHED: usize = 245_087;

fn idb_bytes(rels: &[Relation]) -> usize {
    rels.iter().map(Relation::heap_bytes).sum()
}

pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::new(Op::new("insert", 0.9), Op::new("delete", 0.9));
    let p = reach_program();
    let n = EDGES / 4;

    let mut build_ms = Sample::default();
    let mut materialize_ms = Sample::default();
    let mut db = None;
    for _ in 0..SETUPS {
        drop(db.take());
        let t = Instant::now();
        let built = reach_structure(n, EDGES, ctx.seed);
        let m = Instant::now();
        let fresh = ctx
            .tracer
            .span("datalog.materialize", 0, || {
                MaterializedDb::new(&p, built.structure)
            })
            .map_err(|e| format!("MaterializedDb::new failed: {e}"))?;
        materialize_ms.push(ms_since(m));
        out.setup_s.push(t.elapsed().as_secs_f64());
        build_ms.push(built.build_ms);
        db = Some(fresh);
    }
    let mut db = db.expect("at least one set-up");
    let reached = db.relations()[0].len();
    if ctx.seed == DEFAULT_SEED && reached != PINNED_REACHED {
        return Err(format!("reached {reached}, pinned {PINNED_REACHED}"));
    }
    let edb_tuples = db.structure().total_tuples();
    let e = p.edb().lookup("E").expect("reach vocabulary has E");

    let empty = EdbDelta::new(p.edb());
    let mut rng = XorShift::derived(ctx.seed, 0x1D1);
    let mut change = Sample::default();
    let mut stages = Sample::default();
    let mut interleave = Interleave::new(&ctx.tracer);
    let tracing = ctx.tracer.enabled();
    let budget = ctx.budget();
    let tracer = &mut ctx.tracer;
    out.measured_s = measure_loop(budget, MIN_CYCLES, |rep| {
        interleave.start(tracer, rep);
        // A fresh edge: not already in E.
        let (u, w) = loop {
            let (u, w) = (rng.below(n), rng.below(n));
            if !db.structure().contains_tuple(e, &[Elem(u), Elem(w)]) {
                break (u, w);
            }
        };
        let mut edge = EdbDelta::new(p.edb());
        edge.push_ids(0, &[u, w]);
        let before = db.relations()[0].len();

        let t = Instant::now();
        let ins = tracer
            .span("datalog.insert", rep as u64, || {
                p.evaluate_incremental(&mut db, &edge, &empty)
            })
            .map_err(|e| format!("insert of ({u},{w}) failed: {e}"))?;
        let ms = ms_since(t);
        out.main.ms.push(ms);
        interleave.record(rep, ms);
        let grown = db.relations()[0].len();
        if grown < before || ins.relations[0].len() != grown {
            return Err(format!(
                "insert of ({u},{w}) took reach from {before} to {grown}"
            ));
        }

        let t = Instant::now();
        let del = tracer
            .span("datalog.delete", rep as u64, || {
                p.evaluate_incremental(&mut db, &empty, &edge)
            })
            .map_err(|e| format!("delete of ({u},{w}) failed: {e}"))?;
        out.side.ms.push(ms_since(t));
        // Insert-then-delete is a round trip.
        if db.relations()[0].len() != before || del.relations[0].len() != before {
            return Err(format!(
                "delete of ({u},{w}) did not restore {before} reached"
            ));
        }
        change.push((grown - before) as f64);
        change.push((grown - before) as f64);
        stages.push(ins.stages as f64);
        stages.push(del.stages as f64);
        out.attempted += 2;
        Ok(())
    })?;

    // The maintained view must equal a from-scratch fixpoint of the final
    // EDB, which must be the EDB we started from.
    if db.structure().total_tuples() != edb_tuples {
        return Err("the stream did not restore the EDB".to_string());
    }
    let t = Instant::now();
    let full = p.evaluate(db.structure());
    let full_ms = ms_since(t);
    if db.relations() != &full.relations[..] {
        return Err("the maintained view diverged from a fresh evaluation".to_string());
    }

    let (ins, del) = (out.main.ms.median(), out.side.ms.median());
    out.note(format!(
        "insert p50 {ins:.3} ms, delete p50 {del:.3} ms (n={} each) against full eval {full_ms:.1} ms \
         and materialize {:.1} ms; mean IDB change per delta {:.2}",
        out.main.ms.len(),
        materialize_ms.median(),
        change.mean()
    ));
    if tracing {
        out.overhead(&interleave);
        out.layer("structures.build_ms", build_ms.median());
        out.layer("structures.edb_bytes", db.structure().heap_bytes() as f64);
        out.layer("structures.idb_bytes", idb_bytes(db.relations()) as f64);
        out.layer("datalog.materialize_ms", materialize_ms.median());
        out.layer("datalog.full_eval_ms", full_ms);
        out.layer("datalog.insert_speedup", full_ms / ins);
        out.layer("datalog.delete_speedup", full_ms / del);
        out.layer("datalog.idb_change_per_delta", change.mean());
        out.layer("datalog.inc_stages", stages.median());
    }
    Ok(out)
}
