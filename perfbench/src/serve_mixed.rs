//! `serve_mixed`: a closed loop of 2 client connections against the
//! line-delimited protocol of `hp_serve::Server` on a Unix socket; each
//! client sends its next line only after the reply. The seed EDB has
//! 10⁵ random `E` edges over 25 000 elements and 8 `S` sources. Main
//! operation: a query round trip. Side operation: an update round trip.
//!
//! Request mix: 60% cacheable `S`-anchored conjunctive queries from a
//! pool of 8 shapes (two need the non-prefix index `E(y,x)` with `x`
//! bound), 15% renamed duplicates of them (hits through the canonical
//! key), 10% `no_cache` pool queries, 5% a recursive query (cache
//! bypass), 5% pool queries with 1 fuel (the partial ladder), and 5%
//! single-edge `E` inserts or deletes on a churn pool of 64 edges out of
//! the sources.
//!
//! The traced run also replays a sample of client 0's request stream
//! in-process through the public layer functions, one request at a
//! time, to attribute `QueryService::handle` time without spans inside
//! the service.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use hp_analysis::goal_core_key;
use hp_datalog::{EvalConfig, Program};
use hp_guard::{Budget, Interrupt};
use hp_serve::json::{self, Json};
use hp_serve::{
    parse_request, CacheOutcome, QueryRequest, QueryService, Request, Response, Server,
    ServiceConfig,
};
use hp_structures::{Structure, Vocabulary};

use crate::gen::{Built, XorShift};
use crate::stats::Sample;
use crate::trace::Tracer;
use crate::{ms_since, Ctx, Interleave, Op, Outcome};

const NODES: usize = 25_000;
const EDGES: usize = 100_000;
const SOURCES: usize = 8;
const CHURN: usize = 64;
const CLIENTS: u64 = 2;
const SETUPS: usize = 21;
/// The closed loop is reported as medians over this many equal windows,
/// so a stretch of lost CPU shorter than half the run does not move it.
const WINDOWS: usize = 5;
/// Requests each client sends, unmeasured, on its connection before the
/// measured loop. For the first 10–20 s of traffic, while the resume
/// tokens of 1-fuel partials fill up to the snapshots they may pin and
/// the connection threads' heaps grow, writes are 2–3× slower and reads
/// about 1.3×.
const WARM_UP: usize = 10_000;
/// Requests of client 0 replayed in-process by the traced run.
const REPLAY: usize = 4_000;

/// The cacheable pool: eight `S`-anchored shapes with distinct cores.
const POOL: [&str; 8] = [
    "Goal(y) :- S(x), E(x,y).",
    "Goal(z) :- S(x), E(x,y), E(y,z).",
    "Goal(y) :- S(x), E(y,x).",
    "Goal(z) :- S(x), E(y,x), E(y,z).",
    "Goal(x,z) :- S(x), E(x,y), E(y,z), E(x,z).",
    "Goal(w) :- S(x), E(x,y), E(y,z), E(z,w).",
    "Goal(x) :- S(x), E(x,y), E(y,x).",
    "Goal(x,y) :- S(x), E(x,y), S(y).",
];

/// The pool under a variable renaming: the same canonical cores, so the
/// same cache keys. Atom order is kept, since the planner follows it.
const POOL_RENAMED: [&str; 8] = [
    "Goal(b) :- S(a), E(a,b).",
    "Goal(c) :- S(a), E(a,b), E(b,c).",
    "Goal(b) :- S(a), E(b,a).",
    "Goal(c) :- S(a), E(b,a), E(b,c).",
    "Goal(a,c) :- S(a), E(a,b), E(b,c), E(a,c).",
    "Goal(d) :- S(a), E(a,b), E(b,c), E(c,d).",
    "Goal(a) :- S(a), E(a,b), E(b,a).",
    "Goal(a,b) :- S(a), E(a,b), S(b).",
];

/// Paths between sources through sources: recursive, so never cached.
const RECURSIVE: &str = "Goal(x,y) :- S(x), E(x,y), S(y). Goal(x,z) :- Goal(x,y), E(y,z), S(z).";

#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    Pool,
    Renamed,
    NoCache,
    Recursive,
    Fuel1,
    Update,
}

fn query(program: &str, extra: &str) -> String {
    format!(
        "{{\"op\":\"query\",\"program\":{}{extra}}}",
        json::escape(program)
    )
}

/// The next request of a client's seeded stream.
fn request(rng: &mut XorShift, churn: &[(u32, u32)]) -> (Kind, String) {
    let shape = rng.below(POOL.len()) as usize;
    match rng.below(100) {
        0..=59 => (Kind::Pool, query(POOL[shape], "")),
        60..=74 => (Kind::Renamed, query(POOL_RENAMED[shape], "")),
        75..=84 => (Kind::NoCache, query(POOL[shape], ",\"no_cache\":true")),
        85..=89 => (Kind::Recursive, query(RECURSIVE, "")),
        90..=94 => (Kind::Fuel1, query(POOL[shape], ",\"fuel\":1")),
        _ => {
            let (u, w) = churn[rng.below(churn.len()) as usize];
            let verb = if rng.next().is_multiple_of(2) {
                "insert"
            } else {
                "delete"
            };
            (
                Kind::Update,
                format!("{{\"op\":\"update\",\"{verb}\":{{\"E\":[[{u},{w}]]}}}}"),
            )
        }
    }
}

struct Inputs {
    edb: Built,
    churn: Vec<(u32, u32)>,
}

fn inputs(seed: u64) -> Inputs {
    let v = Vocabulary::from_pairs([("E", 2), ("S", 1)]);
    let mut rng = XorShift::derived(seed, 0x5E7E);
    let mut sources = Vec::new();
    while sources.len() < SOURCES {
        let s = rng.below(NODES);
        if !sources.contains(&s) {
            sources.push(s);
        }
    }
    let mut b = Structure::builder(v, NODES);
    for &s in &sources {
        b = b.tuple(1, &[s]);
    }
    for _ in 0..EDGES {
        let (u, w) = (rng.below(NODES), rng.below(NODES));
        b = b.tuple(0, &[u, w]);
    }
    let churn = (0..CHURN)
        .map(|i| (sources[i % SOURCES], rng.below(NODES)))
        .collect();
    let t = Instant::now();
    let structure = b.build();
    Inputs {
        edb: Built {
            structure,
            build_ms: ms_since(t),
        },
        churn,
    }
}

/// One line-delimited connection.
struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    buf: String,
}

impl Conn {
    fn open(path: &Path) -> Result<Conn, String> {
        let writer =
            UnixStream::connect(path).map_err(|e| format!("connect {}: {e}", path.display()))?;
        let reader = BufReader::new(
            writer
                .try_clone()
                .map_err(|e| format!("clone socket: {e}"))?,
        );
        Ok(Conn {
            reader,
            writer,
            buf: String::new(),
        })
    }

    /// Send one request line and parse the reply line.
    fn call(&mut self, line: &str) -> Result<Json, String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        self.buf.clear();
        let n = self
            .reader
            .read_line(&mut self.buf)
            .map_err(|e| format!("receive: {e}"))?;
        if n == 0 {
            return Err("the server closed the connection".to_string());
        }
        json::parse(self.buf.trim_end()).map_err(|e| format!("untyped reply {:?}: {e}", self.buf))
    }
}

fn status(reply: &Json) -> &str {
    reply.get("status").and_then(Json::as_str).unwrap_or("")
}

fn rows_of(reply: &Json) -> Result<Vec<Vec<u32>>, String> {
    let rows = reply
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("reply has no rows")?;
    let mut out: Vec<Vec<u32>> = rows
        .iter()
        .map(|r| {
            r.as_arr()
                .ok_or("row is not an array")?
                .iter()
                .map(|e| {
                    e.as_u64()
                        .map(|v| v as u32)
                        .ok_or("element is not a number")
                })
                .collect()
        })
        .collect::<Result<_, _>>()?;
    out.sort();
    Ok(out)
}

/// Checks a reply against what its request kind allows. With two
/// clients and the default admission depth nothing is shed, so a typed
/// `overloaded`, `error` or `fault` reply is a failure like a wrong one.
fn check_reply(kind: Kind, reply: &Json, line: &str) -> Result<(), String> {
    let cache = reply.get("cache").and_then(Json::as_str);
    let ok = match (kind, status(reply)) {
        (Kind::Update, "ok") => reply.get("epoch").is_some(),
        (Kind::Pool | Kind::Renamed, "ok") => matches!(cache, Some("hit" | "miss" | "coalesced")),
        (Kind::NoCache | Kind::Recursive, "ok") => cache == Some("bypass"),
        (Kind::Fuel1, "ok") => cache.is_some(),
        (Kind::Fuel1, "partial") => reply.get("rows").is_some(),
        _ => false,
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "reply {reply:?} does not fit {kind:?} request {line}"
        ))
    }
}

/// What one client saw in one window of the measured loop.
#[derive(Clone)]
struct Window {
    reads: Sample,
    writes: Sample,
    requests: u64,
    /// Seconds into the loop when the window's first request was sent
    /// and its last reply received.
    first: f64,
    last: f64,
}

impl Window {
    /// Replies per second while the client was in the window.
    fn rate(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        self.requests as f64 / (self.last - self.first)
    }
}

struct ClientLog {
    windows: Vec<Window>,
    measured_s: f64,
    interleave: Interleave,
    attempted: u64,
    replay: Vec<String>,
}

fn client(
    id: u64,
    path: &Path,
    seed: u64,
    churn: &[(u32, u32)],
    budget: Duration,
    warm: &Barrier,
    tracer: &mut Tracer,
) -> Result<ClientLog, String> {
    let mut conn = Conn::open(path)?;
    let warm_up = (|| {
        let mut rng = XorShift::derived(seed, 0x3A4A + id);
        for _ in 0..WARM_UP {
            let (kind, line) = request(&mut rng, churn);
            check_reply(kind, &conn.call(&line)?, &line)?;
        }
        Ok::<(), String>(())
    })();
    warm.wait();
    warm_up?;
    let mut rng = XorShift::derived(seed, 0xC11E47 + id);
    let mut log = ClientLog {
        windows: vec![
            Window {
                reads: Sample::default(),
                writes: Sample::default(),
                requests: 0,
                first: f64::INFINITY,
                last: 0.0,
            };
            WINDOWS
        ],
        measured_s: 0.0,
        interleave: Interleave::new(tracer),
        attempted: 0,
        replay: Vec::new(),
    };
    let start = Instant::now();
    let mut seq = 0;
    while start.elapsed() < budget {
        let sent = start.elapsed().as_secs_f64();
        let window = ((sent / budget.as_secs_f64() * WINDOWS as f64) as usize).min(WINDOWS - 1);
        let (kind, line) = request(&mut rng, churn);
        if id == 0 && log.replay.len() < REPLAY {
            log.replay.push(line.clone());
        }
        log.interleave.start(tracer, seq);
        let name = if kind == Kind::Update {
            "client.write"
        } else {
            "client.read"
        };
        let t = Instant::now();
        let reply = tracer.span(name, id << 32 | seq as u64, || conn.call(&line))?;
        let ms = ms_since(t);
        log.attempted += 1;
        check_reply(kind, &reply, &line)?;
        let win = &mut log.windows[window];
        win.requests += 1;
        win.first = win.first.min(sent);
        win.last = start.elapsed().as_secs_f64();
        if kind == Kind::Update {
            win.writes.push(ms);
        } else {
            win.reads.push(ms);
            log.interleave.record(seq, ms);
        }
        seq += 1;
    }
    log.measured_s = start.elapsed().as_secs_f64();
    Ok(log)
}

/// Answer rows of `program` evaluated from scratch on `a`, sorted.
fn expected_rows(program: &str, a: &Structure) -> Result<Vec<Vec<u32>>, String> {
    let p = Program::parse(program, a.vocab()).map_err(|e| format!("{program}: {e}"))?;
    let r = p.evaluate(a);
    let goal = r.goal().ok_or("program has no goal")?;
    let mut rows: Vec<Vec<u32>> = goal
        .iter()
        .map(|t| t.iter().map(|e| e.0).collect())
        .collect();
    rows.sort();
    Ok(rows)
}

/// Every query shape answered at the final epoch must equal a fresh
/// evaluation on the pinned snapshot.
fn check_final(path: &Path, svc: &QueryService) -> Result<usize, String> {
    let snap = svc.epochs().pin();
    let mut conn = Conn::open(path)?;
    let mut lines = Vec::new();
    for (a, b) in POOL.iter().zip(POOL_RENAMED) {
        lines.push((*a, query(a, "")));
        lines.push((b, query(b, "")));
        lines.push((*a, query(a, ",\"no_cache\":true")));
    }
    lines.push((RECURSIVE, query(RECURSIVE, "")));
    for (program, line) in &lines {
        let reply = conn.call(line)?;
        if status(&reply) != "ok" || reply.get("epoch").and_then(Json::as_u64) != Some(snap.epoch) {
            return Err(format!(
                "final check of {program}: reply {reply:?} at epoch {}",
                snap.epoch
            ));
        }
        if rows_of(&reply)? != expected_rows(program, &snap.structure)? {
            return Err(format!(
                "final check of {program}: rows differ from Program::evaluate"
            ));
        }
    }
    Ok(lines.len())
}

fn socket_path(ctx: &Ctx) -> std::path::PathBuf {
    ctx.state_dir
        .join(format!("serve-{}.sock", std::process::id()))
}

pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    // The read tail is p90. About 15% of reads are slow evaluations
    // (non-prefix shapes, the recursive query, misses after each write),
    // and p90 lies among the cheapest of them; above p95 two of them queue
    // behind each other, which doubles whenever the host takes a vCPU away.
    let mut out = Outcome::new(Op::new("read", 0.9), Op::new("write", 0.9));
    let path = socket_path(ctx);

    let mut build_ms = Sample::default();
    let mut state = None;
    for _ in 0..SETUPS {
        if let Some((server, _, _, _)) = state.take() {
            Server::shutdown(server);
        }
        let t = Instant::now();
        let inp = inputs(ctx.seed);
        build_ms.push(inp.edb.build_ms);
        let edb_bytes = inp.edb.structure.heap_bytes();
        let svc = Arc::new(QueryService::new(
            inp.edb.structure,
            ServiceConfig::default(),
        ));
        let server = Server::bind(&path, svc.clone())
            .map_err(|e| format!("bind {}: {e}", path.display()))?;
        // Warm-up: every query shape once.
        let mut conn = Conn::open(&path)?;
        for line in POOL
            .iter()
            .map(|p| query(p, ""))
            .chain([query(RECURSIVE, "")])
        {
            let reply = conn.call(&line)?;
            if status(&reply) != "ok" {
                return Err(format!("warm-up {line} got {reply:?}"));
            }
        }
        drop(conn);
        out.setup_s.push(t.elapsed().as_secs_f64());
        state = Some((server, svc, inp.churn, edb_bytes));
    }
    let (server, svc, churn, edb_bytes) = state.expect("at least one set-up");

    let tracing = ctx.tracer.enabled();
    let budget = ctx.budget();
    let seed = ctx.seed;
    let warm = Barrier::new(CLIENTS as usize);
    let results: Vec<(Result<ClientLog, String>, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|id| {
                let (path, churn, warm) = (&path, &churn, &warm);
                s.spawn(move || {
                    let mut tracer = Tracer::new(tracing);
                    let log = client(id, path, seed, churn, budget, warm, &mut tracer);
                    (log, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads return their errors"))
            .collect()
    });

    let mut logs = Vec::new();
    for (log, tracer) in results {
        logs.push(log?);
        ctx.tracer.absorb(tracer);
    }
    let checked = check_final(&path, &svc)?;
    let replay_lines = std::mem::take(&mut logs[0].replay);
    let mut interleave = Interleave::new(&ctx.tracer);
    out.main.windows = vec![Sample::default(); WINDOWS];
    out.side.windows = vec![Sample::default(); WINDOWS];
    let mut rates = [0.0; WINDOWS];
    for log in logs {
        out.attempted += log.attempted;
        out.measured_s = out.measured_s.max(log.measured_s);
        for (w, win) in log.windows.iter().enumerate() {
            out.main.ms.extend(&win.reads);
            out.side.ms.extend(&win.writes);
            out.main.windows[w].extend(&win.reads);
            out.side.windows[w].extend(&win.writes);
            rates[w] += win.rate();
        }
        interleave.merge(&log.interleave);
    }
    for r in rates {
        out.window_rates.push(r);
    }

    let (hits, misses, coalesced) = svc.cache().stats();
    let hit_rate = (hits + coalesced) as f64 / (hits + misses + coalesced).max(1) as f64;
    let snap = svc.epochs().pin();
    out.note(format!(
        "whole run: req_per_s {:.1} 1/s; read p50 {:.4} ms, p99 {:.4} ms (n={}); write p50 {:.4} ms, p90 {:.4} ms (n={})",
        out.attempted as f64 / out.measured_s,
        out.main.ms.median(),
        out.main.ms.quantile(0.99),
        out.main.ms.len(),
        out.side.ms.median(),
        out.side.ms.quantile(0.9),
        out.side.ms.len()
    ));
    out.note(format!(
        "cache hit rate {hit_rate:.3} ({hits} hits, {misses} misses, {coalesced} coalesced); \
         {} epochs; {} shed; final epoch checked on {checked} queries",
        snap.epoch,
        svc.gate().shed_count()
    ));

    if tracing {
        out.overhead(&interleave);
        out.layer("structures.build_ms", build_ms.median());
        out.layer("structures.edb_bytes", edb_bytes as f64);
        out.layer("serve.cache_hit_rate", hit_rate);
        out.layer("serve.coalesced", coalesced as f64);
        out.layer("serve.shed", svc.gate().shed_count() as f64);
        out.layer("serve.admitted", svc.gate().admitted_count() as f64);
        out.layer("serve.snapshot_bytes", snap.structure.heap_bytes() as f64);
        out.layer("serve.epochs", snap.epoch as f64);
        let replay_svc = QueryService::new(snap.structure.clone(), ServiceConfig::default());
        replay(&mut out, &mut ctx.tracer, &replay_svc, &replay_lines)?;
    }
    drop(snap);
    server.shutdown();
    Ok(out)
}

/// Microseconds per span name, gathered by the replay.
#[derive(Default)]
struct Replay {
    us: BTreeMap<&'static str, Sample>,
    eval_by_shape: BTreeMap<String, Sample>,
    keys: u64,
    key_bypasses: u64,
}

impl Replay {
    /// Run `f` inside a span and add its microseconds to `us[name]`.
    fn timed(
        &mut self,
        tracer: &mut Tracer,
        name: &'static str,
        req: u64,
        f: &mut dyn FnMut(),
    ) -> f64 {
        let t = Instant::now();
        tracer.span(name, req, f);
        let v = t.elapsed().as_secs_f64() * 1e6;
        self.us.entry(name).or_default().push(v);
        v
    }

    /// The layer calls `handle` makes for query `q`, made one by one on
    /// the service's pinned snapshot; returns their summed microseconds.
    fn layer_calls(
        &mut self,
        tracer: &mut Tracer,
        svc: &QueryService,
        q: &QueryRequest,
        req: u64,
    ) -> Result<f64, String> {
        let cfg = ServiceConfig::default();
        let snap = svc.epochs().pin();
        let text = q
            .program
            .as_deref()
            .ok_or("replayed queries carry a program")?;
        let mut program = None;
        let mut total = self.timed(tracer, "datalog.parse", req, &mut || {
            program = Some(Program::parse(text, snap.structure.vocab()))
        });
        let p = program
            .expect("closure ran")
            .map_err(|e| format!("replayed program {text}: {e}"))?;
        if !q.no_cache {
            let mut key = None;
            total += self.timed(tracer, "logic.core_key", req, &mut || {
                key = Some(goal_core_key(&p, &Budget::fuel(cfg.key_fuel)))
            });
            self.keys += 1;
            if !matches!(key, Some(Ok(Some(_)))) {
                self.key_bypasses += 1;
            }
        }
        let budget = Budget::fuel(q.fuel.unwrap_or(cfg.default_fuel));
        let eval_us = self.timed(tracer, "datalog.request_eval", req, &mut || {
            let _ = std::hint::black_box(p.evaluate_budgeted(
                &snap.structure,
                &EvalConfig::default(),
                &budget,
            ));
        });
        self.eval_by_shape
            .entry(text.to_string())
            .or_default()
            .push(eval_us);
        Ok(total + eval_us)
    }

    fn median(&self, name: &str) -> f64 {
        self.us.get(name).map_or(0.0, Sample::median)
    }
}

/// Replay `lines` one request at a time: `QueryService::handle` of each
/// request, timed by outcome, and for queries the layer calls it makes
/// (program parse, core key, evaluation), then rendering. Which of
/// `handle` and the layer calls goes first alternates, so neither always
/// runs on warm caches.
fn replay(
    out: &mut Outcome,
    tracer: &mut Tracer,
    svc: &QueryService,
    lines: &[String],
) -> Result<(), String> {
    let mut r = Replay::default();
    let interrupt = Interrupt::new();
    for (i, line) in lines.iter().enumerate() {
        let req_id = 1 << 40 | i as u64;
        let outer = tracer.enter("replay.request", req_id);
        let mut parsed = None;
        r.timed(tracer, "serve.parse", req_id, &mut || {
            parsed = Some(parse_request(line))
        });
        let req = parsed
            .expect("closure ran")
            .map_err(|e| format!("replayed line {line} does not parse: {e}"))?;
        let query = match &req {
            Request::Query(q) => Some(q),
            _ => None,
        };
        let mut layer_us = 0.0;
        if let (Some(q), true) = (query, i % 2 == 0) {
            layer_us = r.layer_calls(tracer, svc, q, req_id)?;
        }
        let mut resp = None;
        let t = Instant::now();
        tracer.span("serve.handle", req_id, || {
            resp = Some(svc.handle(&req, &interrupt))
        });
        let handle_us = t.elapsed().as_secs_f64() * 1e6;
        if let (Some(q), false) = (query, i % 2 == 0) {
            layer_us = r.layer_calls(tracer, svc, q, req_id)?;
        }
        let resp = resp.expect("closure ran");
        let outcome = match &resp {
            Response::Answer {
                cache: CacheOutcome::Hit | CacheOutcome::Coalesced,
                ..
            } => "serve.handle_us.hit",
            Response::Answer {
                cache: CacheOutcome::Miss,
                ..
            } => "serve.handle_us.miss",
            Response::Answer {
                cache: CacheOutcome::Bypass,
                ..
            } => "serve.handle_us.bypass",
            Response::Partial { .. } => "serve.handle_us.partial",
            Response::Updated { .. } => "serve.handle_us.update",
            other => return Err(format!("replayed {line} got {other:?}")),
        };
        r.us.entry(outcome).or_default().push(handle_us);
        if query.is_some() {
            r.us.entry("handle.read").or_default().push(handle_us);
        }
        if outcome == "serve.handle_us.miss" {
            r.us.entry("serve.unattributed_us")
                .or_default()
                .push(handle_us - layer_us);
        }
        r.timed(tracer, "serve.render", req_id, &mut || {
            std::hint::black_box(resp.render());
        });
        tracer.exit(outer);
    }

    for (metric, span) in [
        ("serve.parse_us", "serve.parse"),
        ("datalog.parse_us", "datalog.parse"),
        ("logic.core_key_us", "logic.core_key"),
        ("datalog.request_eval_us", "datalog.request_eval"),
        ("serve.render_us", "serve.render"),
        ("serve.handle_us.hit", "serve.handle_us.hit"),
        ("serve.handle_us.miss", "serve.handle_us.miss"),
        ("serve.handle_us.bypass", "serve.handle_us.bypass"),
        ("serve.handle_us.partial", "serve.handle_us.partial"),
        ("serve.handle_us.update", "serve.handle_us.update"),
        ("serve.unattributed_us", "serve.unattributed_us"),
    ] {
        out.layer(metric, r.median(span));
    }
    for (shape, sample) in &r.eval_by_shape {
        out.note(format!(
            "eval {:>10.1} us (n={:>4}) {shape}",
            sample.median(),
            sample.len()
        ));
    }
    let slowest = r
        .eval_by_shape
        .values()
        .map(Sample::median)
        .fold(0.0, f64::max);
    out.layer("datalog.request_eval_us.slowest", slowest);
    out.layer(
        "logic.key_bypass_rate",
        r.key_bypasses as f64 / r.keys.max(1) as f64,
    );
    let transport = out.main.ms.median() * 1e3 - r.median("handle.read");
    out.layer("serve.transport_us", transport);
    out.note(format!("{} requests replayed", lines.len()));
    out.note(format!(
        "read_p50_ms {:.4} ~ parse {:.1} us + handle {:.1} us (hit {:.1}, miss {:.1} = program parse {:.1} + key {:.1} + eval {:.1} + unattributed {:.1}) + render {:.1} us + transport {:.1} us",
        out.main.ms.median(),
        r.median("serve.parse"),
        r.median("handle.read"),
        r.median("serve.handle_us.hit"),
        r.median("serve.handle_us.miss"),
        r.median("datalog.parse"),
        r.median("logic.core_key"),
        r.median("datalog.request_eval"),
        r.median("serve.unattributed_us"),
        r.median("serve.render"),
        transport
    ));
    Ok(())
}
