//! The hompres benchmark: four workloads driven through the public APIs
//! of the library crates, with every output checked.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           [--root DIR] [--state-dir DIR]
//! ```
//!
//! Every workload has a *main* and a *side* operation (see README.md for
//! the mapping), and reports the same end-to-end metrics. `--trace 1`
//! runs the workload again with spans recorded around each call into a
//! layer and reports the per-layer metrics instead. The last line of
//! standard output is the JSON result; a failed correctness check exits
//! with status 1 and prints no result.

mod eval_batch;
mod gen;
mod ivm_stream;
mod lint_semantic;
mod serve_mixed;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use stats::{quantile_label, result_json, Metric, Sample};
use trace::Tracer;

pub const WORKLOADS: [&str; 4] = ["eval_batch", "ivm_stream", "serve_mixed", "lint_semantic"];

/// Every per-layer metric with its unit, in report order. A traced run
/// reports all of them; a layer the workload does not call reads 0.
pub const LAYER_METRICS: [(&str, &str); 51] = [
    ("structures.build_ms", "ms"),
    ("structures.edb_bytes", "bytes"),
    ("structures.idb_bytes", "bytes"),
    ("datalog.strata_ms.reach", "ms"),
    ("datalog.outside_strata_ms.reach", "ms"),
    ("datalog.stratum_max_ms.reach", "ms"),
    ("datalog.stages.reach", "count"),
    ("datalog.derived.reach", "count"),
    ("datalog.fuel.reach", "count"),
    ("datalog.strata_ms.winmove", "ms"),
    ("datalog.outside_strata_ms.winmove", "ms"),
    ("datalog.stratum_max_ms.winmove", "ms"),
    ("datalog.stages.winmove", "count"),
    ("datalog.derived.winmove", "count"),
    ("datalog.fuel.winmove", "count"),
    ("datalog.materialize_ms", "ms"),
    ("datalog.full_eval_ms", "ms"),
    ("datalog.insert_speedup", "ratio"),
    ("datalog.delete_speedup", "ratio"),
    ("datalog.idb_change_per_delta", "count"),
    ("datalog.inc_stages", "count"),
    ("datalog.unfold_ms", "ms"),
    ("logic.minimize_ms", "ms"),
    ("hom.canon_ms", "ms"),
    ("logic.core_key_us", "us"),
    ("logic.key_bypass_rate", "ratio"),
    ("analysis.syntactic_ms", "ms"),
    ("analysis.semantic_scan_ms", "ms"),
    ("analysis.fix_ms", "ms"),
    ("analysis.fixtures_ms", "ms"),
    ("analysis.findings", "count"),
    ("analysis.removed_atoms", "count"),
    ("serve.parse_us", "us"),
    ("datalog.parse_us", "us"),
    ("serve.render_us", "us"),
    ("datalog.request_eval_us", "us"),
    ("datalog.request_eval_us.slowest", "us"),
    ("serve.handle_us.hit", "us"),
    ("serve.handle_us.miss", "us"),
    ("serve.handle_us.bypass", "us"),
    ("serve.handle_us.partial", "us"),
    ("serve.handle_us.update", "us"),
    ("serve.unattributed_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.coalesced", "count"),
    ("serve.shed", "count"),
    ("serve.admitted", "count"),
    ("serve.snapshot_bytes", "bytes"),
    ("serve.epochs", "count"),
    ("trace.overhead_pct", "%"),
];

/// What a workload run needs.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
    /// Repository root (for the lint fixtures).
    pub root: PathBuf,
    /// Where the run may put its socket and its span file.
    pub state_dir: PathBuf,
}

impl Ctx {
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// One timed operation kind of a workload.
pub struct Op {
    /// The workload-level name of the operation, e.g. `reach` or `insert`.
    pub name: &'static str,
    /// The tail quantile reported. Fixed per operation, so that runs
    /// whose sample counts differ report the same percentile; lowered
    /// only when a run leaves fewer than ten samples beyond it.
    pub tail: f64,
    /// Latencies in ms.
    pub ms: Sample,
    /// The same latencies split by window of the measured phase, for a
    /// workload that reports medians over windows; empty otherwise.
    pub windows: Vec<Sample>,
}

impl Op {
    pub fn new(name: &'static str, tail: f64) -> Op {
        Op {
            name,
            tail,
            ms: Sample::default(),
            windows: Vec::new(),
        }
    }

    /// The windows that hold samples.
    fn filled(&self) -> impl Iterator<Item = &Sample> {
        self.windows.iter().filter(|w| w.len() > 0)
    }

    /// `f` of the whole sample, or the median of `f` over the windows.
    fn over_windows(&self, f: impl Fn(&Sample) -> f64) -> f64 {
        if self.windows.is_empty() {
            return f(&self.ms);
        }
        let mut per_window = Sample::default();
        for w in self.filled() {
            per_window.push(f(w));
        }
        per_window.median()
    }

    /// The reported median.
    fn p50(&self) -> f64 {
        self.over_windows(Sample::median)
    }

    /// The reported tail quantile and its value.
    fn tail(&self) -> (f64, f64) {
        let n = self.filled().map(Sample::len).min();
        let q = self
            .tail
            .min(stats::tail_quantile(n.unwrap_or(self.ms.len())));
        (q, self.over_windows(|s| s.quantile(q)))
    }
}

/// What a workload run measured.
///
/// Every attempted operation is checked, and a failed check ends the
/// run, so a run that reports has no failed operation.
pub struct Outcome {
    pub attempted: u64,
    /// Seconds per set-up repetition.
    pub setup_s: Sample,
    pub main: Op,
    pub side: Op,
    /// Wall-clock seconds of the measured phase.
    pub measured_s: f64,
    /// Operations per second in each window, for a workload that
    /// reports medians over windows; empty otherwise.
    pub window_rates: Sample,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Extra human-readable report lines.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new(main: Op, side: Op) -> Outcome {
        Outcome {
            attempted: 0,
            setup_s: Sample::default(),
            main,
            side,
            measured_s: 0.0,
            window_rates: Sample::default(),
            layers: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            LAYER_METRICS.iter().any(|(n, _)| *n == name),
            "undeclared layer metric {name}"
        );
        assert!(value.is_finite(), "layer metric {name} is not finite");
        self.layers.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Record the tracing overhead from interleaved traced and untraced
    /// repetitions of the main operation.
    pub fn overhead(&mut self, i: &Interleave) {
        if i.traced.len() == 0 || i.untraced.len() == 0 {
            return;
        }
        let (t, u) = (i.traced.median(), i.untraced.median());
        self.note(format!(
            "trace.overhead_pct: {} traced {t:.4} ms (n={}) against untraced {u:.4} ms (n={})",
            self.main.name,
            i.traced.len(),
            i.untraced.len()
        ));
        self.layer("trace.overhead_pct", (t / u - 1.0) * 100.0);
    }
}

/// In a traced run, traces the even repetitions of the main operation
/// and leaves the odd ones untraced, to price the tracing.
pub struct Interleave {
    on: bool,
    traced: Sample,
    untraced: Sample,
}

impl Interleave {
    pub fn new(tracer: &Tracer) -> Interleave {
        Interleave {
            on: tracer.enabled(),
            traced: Sample::default(),
            untraced: Sample::default(),
        }
    }

    /// Call before repetition `rep`.
    pub fn start(&self, tracer: &mut Tracer, rep: usize) {
        if self.on {
            tracer.set_enabled(rep.is_multiple_of(2));
        }
    }

    /// Record repetition `rep`'s main operation time.
    pub fn record(&mut self, rep: usize, ms: f64) {
        if self.on {
            let side = if rep.is_multiple_of(2) {
                &mut self.traced
            } else {
                &mut self.untraced
            };
            side.push(ms);
        }
    }

    pub fn merge(&mut self, other: &Interleave) {
        self.traced.extend(&other.traced);
        self.untraced.extend(&other.untraced);
    }
}

/// Run `f` until `budget` has passed and at least `min_reps` repetitions
/// are done; returns the wall-clock seconds spent.
pub fn measure_loop(
    budget: Duration,
    min_reps: usize,
    mut f: impl FnMut(usize) -> Result<(), String>,
) -> Result<f64, String> {
    let start = Instant::now();
    let mut rep = 0;
    while rep < min_reps || start.elapsed() < budget {
        f(rep)?;
        rep += 1;
    }
    Ok(start.elapsed().as_secs_f64())
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    root: PathBuf,
    state_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = gen::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut root = PathBuf::from(".");
    let mut state_dir = None;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes an unsigned integer")?
            }
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--root" => root = PathBuf::from(value()?),
            "--state-dir" => state_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let state_dir = state_dir.unwrap_or_else(|| root.join(".bench_build").join("perfbench"));
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        root,
        state_dir,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: FAILED: {e}");
            ExitCode::from(1)
        }
    }
}

fn run(args: Args) -> Result<(), String> {
    std::fs::create_dir_all(&args.state_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.state_dir.display()))?;
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tracer: Tracer::new(args.trace),
        root: args.root,
        state_dir: args.state_dir,
    };
    let wall = Instant::now();
    let out = match args.workload.as_str() {
        "eval_batch" => eval_batch::run(&mut ctx)?,
        "ivm_stream" => ivm_stream::run(&mut ctx)?,
        "serve_mixed" => serve_mixed::run(&mut ctx)?,
        "lint_semantic" => lint_semantic::run(&mut ctx)?,
        _ => unreachable!("workload names are checked in parse_args"),
    };
    if out.main.ms.len() == 0 || out.side.ms.len() == 0 || out.attempted == 0 {
        return Err("the workload measured nothing".to_string());
    }
    let peak_rss_mb = stats::peak_rss_mib()?;

    println!(
        "perfbench {} seed={} seconds={} trace={} wall={:.1}s",
        args.workload,
        ctx.seed,
        ctx.seconds,
        args.trace as u8,
        wall.elapsed().as_secs_f64()
    );
    println!(
        "  fail_rate            0 ratio (0 failed of {} attempted)",
        out.attempted
    );
    for line in &out.notes {
        println!("  {line}");
    }

    let metrics = if args.trace {
        let spans = ctx.tracer.spans().len();
        println!(
            "  {} {} samples, {} {} samples",
            out.main.name,
            out.main.ms.len(),
            out.side.name,
            out.side.ms.len()
        );
        let path = ctx
            .state_dir
            .join(format!("spans-{}-{}.tsv", args.workload, ctx.seed));
        ctx.tracer
            .write_tsv(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("  {spans} spans written to {}", path.display());
        LAYER_METRICS
            .iter()
            .map(|&(name, unit)| Metric {
                name: name.to_string(),
                value: out.layers.get(name).copied().unwrap_or(0.0),
                unit,
            })
            .collect::<Vec<_>>()
    } else {
        end_to_end(&out, peak_rss_mb)
    };
    for m in &metrics {
        println!("  {:<36} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_json(out.attempted, 0, &metrics));
    Ok(())
}

/// The end-to-end metrics of an untraced run, each printed with its
/// workload-level name and sample count first.
fn end_to_end(out: &Outcome, peak_rss_mb: f64) -> Vec<Metric> {
    let (main_q, main_tail) = out.main.tail();
    let (side_q, side_tail) = out.side.tail();
    let ops = if out.window_rates.len() > 0 {
        out.window_rates.median()
    } else {
        out.attempted as f64 / out.measured_s
    };
    let setup = out.setup_s.median();
    println!(
        "  setup_s              {setup:.4} s (median of {})",
        out.setup_s.len()
    );
    println!(
        "  ops_per_s            {ops:.4} 1/s ({} operations{})",
        out.attempted,
        match out.window_rates.len() {
            0 => String::new(),
            w => format!(", median of {w} windows"),
        }
    );
    for (op, q, tail) in [
        (&out.main, main_q, main_tail),
        (&out.side, side_q, side_tail),
    ] {
        let quarts = if op.ms.len() >= 2 {
            op.ms.quartiles()
        } else {
            [op.ms.median(); 3]
        };
        let over = match op.windows.len() {
            0 => String::new(),
            w => format!(", medians of {w} windows"),
        };
        println!(
            "  {:<20} p50 {:.4} ms (quartiles {:.4}..{:.4}), {} {:.4} ms (n={}{over})",
            format!("{}_ms", op.name),
            op.p50(),
            quarts[0],
            quarts[2],
            quantile_label(q),
            tail,
            op.ms.len()
        );
    }
    let m = |name: &str, value: f64, unit| Metric {
        name: name.to_string(),
        value,
        unit,
    };
    // The medians and the throughput are printed above but are not
    // metrics: on a host whose clock moves between two speeds about 1.45x
    // apart, a median follows the share of the run spent at the fast one,
    // while a p90 stays at the slow one (see README.md, Steadiness).
    vec![
        m("setup_s", setup, "s"),
        m("peak_rss_mb", peak_rss_mb, "MiB"),
        m("main_tail_ms", main_tail, "ms"),
        m("side_tail_ms", side_tail, "ms"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use hp_serve::json::{parse, Json};

    /// `(name, unit)` of every entry of a `BENCHMARK.json` list; the unit
    /// is empty for workloads.
    fn listed(bench: &Json, key: &str) -> Vec<(String, String)> {
        let text = |e: &Json, k| e.get(k).and_then(Json::as_str).unwrap_or("").to_string();
        let entries = bench.get(key).and_then(Json::as_arr).expect("list present");
        entries
            .iter()
            .map(|e| (text(e, "name"), text(e, "unit")))
            .collect()
    }

    fn sample(values: &[f64]) -> Sample {
        let mut s = Sample::default();
        for &v in values {
            s.push(v);
        }
        s
    }

    #[test]
    fn windowed_ops_report_medians_over_filled_windows() {
        let mut op = Op::new("read", 0.9);
        op.windows = vec![
            sample(&[1.0, 2.0, 3.0]),
            Sample::default(),
            sample(&[10.0, 20.0, 30.0]),
            sample(&[4.0, 5.0, 6.0]),
        ];
        for w in &op.windows {
            op.ms.extend(w);
        }
        // Window medians 2, 20 and 5; the empty window is skipped.
        assert_eq!(op.p50(), 5.0);
        // Three samples per window leave ten beyond no tail: p50.
        assert_eq!(op.tail(), (0.5, 5.0));
        op.windows.clear();
        assert_eq!(op.p50(), 5.0);
        assert_eq!(op.tail(), (0.5, 5.0));
    }

    #[test]
    fn benchmark_json_declares_what_the_runs_report() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let bench = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("JSON");

        let layers: Vec<(String, String)> = LAYER_METRICS
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed(&bench, "per_layer"), layers);

        let mut out = Outcome::new(Op::new("a", 0.9), Op::new("b", 0.5));
        out.attempted = 2;
        out.measured_s = 1.0;
        out.setup_s.push(1.0);
        out.main.ms.push(1.0);
        out.side.ms.push(1.0);
        let reported: Vec<(String, String)> = end_to_end(&out, 1.0)
            .into_iter()
            .map(|m| (m.name, m.unit.to_string()))
            .collect();
        assert_eq!(listed(&bench, "end_to_end"), reported);

        let workloads: Vec<String> = listed(&bench, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
