//! `lint_semantic`: the library form of `hompres-lint --fix=check` and
//! `--core-key` on `semantic_scale` chain programs (variables renamed
//! and rules shuffled by the seed). Main operation: lint and fix-check
//! the corpus of the 18-rule chain plus the `examples/lint/clean` and
//! `examples/lint/warn` fixtures. Side operation: `goal_core_key` of the
//! 34-rule chain. The 34-rule chain is also linted and fix-checked once,
//! against pinned counts, before the measurement; a pass over it takes
//! about 3 s, too long to sample often enough in one run.

use std::time::Instant;

use hp_analysis::{
    fix_check_source, goal_core_key, lint_datalog_source_with, lint_formula_source_with,
    semantic_scan, Analyzer, Code, Diagnostics, ProgramFacts, Severity,
};
use hp_datalog::{stage_ucq, Program};
use hp_guard::Budget;
use hp_structures::Vocabulary;

use crate::gen::XorShift;
use crate::stats::Sample;
use crate::{measure_loop, ms_since, Ctx, Interleave, Op, Outcome};

/// Chain lengths `P1 … Pn`: n + 2 rules with the subsumed `P1` rule and
/// the goal.
const LINT_CHAIN: usize = 16;
const KEY_CHAIN: usize = 32;
const PINNED_KEY: &str = "ck4facd6145e4e5cd532723c7f07094bd1";
const SETUPS: usize = 11;
/// Passes measured at the least, so that the p90s have ten samples beyond.
const MIN_PASSES: usize = 100;
const FIXTURE_DIRS: [&str; 2] = ["examples/lint/clean", "examples/lint/warn"];

/// The size-`n` chain program of `semantic_scale`, with every rule's
/// variables renamed and the rules shuffled by `rng`. Renaming and rule
/// order change neither the findings nor the canonical core key.
fn chain_program_text(n: usize, rng: &mut XorShift) -> String {
    let mut rules = vec![
        "P1(x,y) :- E(x,y), E(x,w).".to_string(),
        // Subsumed by the rule above: E(y,y) only restricts it.
        "P1(x,y) :- E(x,y), E(y,y).".to_string(),
    ];
    for i in 2..=n {
        rules.push(format!("P{i}(x,y) :- E(x,z), P{}(z,y), E(x,w).", i - 1));
    }
    rules.push(format!("Goal() :- P{n}(x,y)."));
    for i in (1..rules.len()).rev() {
        rules.swap(i, rng.below(i + 1) as usize);
    }
    let mut text = String::new();
    for rule in rules {
        let mut names = ["a", "b", "c", "d", "u", "v", "x", "y", "z", "w"];
        for i in (1..names.len()).rev() {
            names.swap(i, rng.below(i + 1) as usize);
        }
        for c in rule.chars() {
            match "xyzw".find(c) {
                Some(i) => text.push_str(names[i]),
                None => text.push(c),
            }
        }
        text.push('\n');
    }
    text
}

struct Input {
    path: String,
    text: String,
    formula: bool,
    /// `# expect-fix-check: changed|clean` of a fixture.
    fix_changes: Option<bool>,
    /// Codes a fixture's `# expect:` and `# expect-warn:` lines require.
    present: Vec<String>,
    /// Codes a fixture's `# expect-warn:` lines require at warning
    /// severity or above.
    warns: Vec<String>,
    /// Codes a fixture's `# expect-no-warn:` lines keep below warning.
    no_warns: Vec<String>,
    /// Codes a fixture's `# expect-not:` lines exclude.
    absent: Vec<String>,
}

fn fixture(path: String, text: String) -> Input {
    let pragma = |key: &str| -> Vec<String> {
        text.lines()
            .filter_map(|l| l.strip_prefix(key))
            .flat_map(|rest| rest.split(',').map(|c| c.trim().to_string()))
            .filter(|c| !c.is_empty())
            .collect()
    };
    let fix_changes = pragma("# expect-fix-check:")
        .first()
        .map(|v| v == "changed");
    let warns = pragma("# expect-warn:");
    let mut present = pragma("# expect:");
    present.extend(warns.iter().cloned());
    Input {
        formula: path.ends_with(".fo"),
        present,
        warns,
        no_warns: pragma("# expect-no-warn:"),
        absent: pragma("# expect-not:"),
        fix_changes,
        path,
        text,
    }
}

fn load_fixtures(ctx: &Ctx) -> Result<Vec<Input>, String> {
    let mut inputs = Vec::new();
    for dir in FIXTURE_DIRS {
        let dir = ctx.root.join(dir);
        let mut paths: Vec<_> = std::fs::read_dir(&dir)
            .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
            .map(|d| d.map(|d| d.path()))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
        paths.sort();
        for path in paths {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            inputs.push(fixture(path.display().to_string(), text));
        }
    }
    if inputs.is_empty() {
        return Err("no lint fixtures found".to_string());
    }
    Ok(inputs)
}

/// What one lint + fix-check of one input found.
#[derive(Clone, Debug, PartialEq)]
struct Verdict {
    codes: Vec<&'static str>,
    /// The codes reported at warning severity or above.
    warned: Vec<&'static str>,
    fix_changed: bool,
    removed_rules: usize,
    removed_atoms: usize,
}

fn lint_one(input: &Input, analyzer: &Analyzer) -> Result<Verdict, String> {
    let ds: Diagnostics = if input.formula {
        lint_formula_source_with(&input.text, None, &Budget::unlimited())
    } else {
        lint_datalog_source_with(&input.text, None, analyzer)
    };
    let mut v = Verdict {
        codes: ds.iter().map(|d| d.code.as_str()).collect(),
        warned: ds
            .iter()
            .filter(|d| d.severity >= Severity::Warning)
            .map(|d| d.code.as_str())
            .collect(),
        fix_changed: false,
        removed_rules: 0,
        removed_atoms: 0,
    };
    if !input.formula {
        let fix = fix_check_source(&input.text, None, &input.path)
            .map_err(|e| format!("fix-check of {} failed: {e}", input.path))?;
        v.fix_changed = fix.changed;
        v.removed_rules = fix.removed.len();
        v.removed_atoms = fix.removed_atoms.len();
    }
    Ok(v)
}

/// Checks a fixture's pragmas. A code required present is checked only
/// if a pass of the pipeline can report it (`runs`): the fixtures also
/// pin the opt-in boundedness pass (HP014), which `hompres-lint` runs
/// only under `--boundedness`.
fn check_fixture(input: &Input, v: &Verdict, runs: &[&str]) -> Result<(), String> {
    let has = |codes: &[&str], c: &String| codes.contains(&c.as_str());
    let required = |c: &&String| has(runs, c);
    if let Some(code) = input
        .present
        .iter()
        .filter(required)
        .find(|c| !has(&v.codes, c))
    {
        return Err(format!("{} does not report {code}", input.path));
    }
    if let Some(code) = input
        .warns
        .iter()
        .filter(required)
        .find(|c| !has(&v.warned, c))
    {
        return Err(format!("{} reports {code} below warning", input.path));
    }
    if let Some(code) = input.no_warns.iter().find(|c| has(&v.warned, c)) {
        return Err(format!("{} reports {code} as a warning", input.path));
    }
    if let Some(code) = input.absent.iter().find(|c| has(&v.codes, c)) {
        return Err(format!(
            "{} reports {code}, which it expects not to",
            input.path
        ));
    }
    if input.fix_changes.is_some_and(|want| want != v.fix_changed) {
        return Err(format!(
            "{}: fix-check changed = {}",
            input.path, v.fix_changed
        ));
    }
    Ok(())
}

/// The scan finds one redundant atom per rule and one subsumed rule of
/// a size-`n` chain; the fix removes those `n` atoms and that rule.
fn check_chain(n: usize, v: &Verdict) -> Result<(), String> {
    let semantic = v
        .codes
        .iter()
        .filter(|c| {
            [Code::Hp017, Code::Hp018, Code::Hp019, Code::Hp020]
                .iter()
                .any(|k| k.as_str() == **c)
        })
        .count();
    if (semantic, v.removed_atoms, v.removed_rules) != (n + 1, n, 1) {
        return Err(format!(
            "{n}-chain: {semantic} semantic findings, {} atoms and {} rules removed; pinned {}, {n}, 1",
            v.removed_atoms,
            v.removed_rules,
            n + 1
        ));
    }
    Ok(())
}

fn chain_input(n: usize, text: String) -> Input {
    Input {
        path: format!("chain{n}.dl"),
        text,
        formula: false,
        fix_changes: Some(true),
        present: Vec::new(),
        warns: Vec::new(),
        no_warns: Vec::new(),
        absent: Vec::new(),
    }
}

fn core_key(p: &Program) -> Result<(), String> {
    let key = goal_core_key(p, &Budget::unlimited())
        .map_err(|_| "an unlimited key budget ran out".to_string())?
        .ok_or("the chain program has no core key")?
        .to_string();
    if key != PINNED_KEY {
        return Err(format!("core key {key}, pinned {PINNED_KEY}"));
    }
    Ok(())
}

pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::new(Op::new("lint", 0.9), Op::new("core_key", 0.9));
    let vocab = Vocabulary::from_pairs([("E", 2)]);

    // Set-up: generate and parse both chains, read the fixtures, and warm
    // up with one core key.
    let mut state = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let mut rng = XorShift::derived(ctx.seed, 0x11A7);
        let lint_text = chain_program_text(LINT_CHAIN, &mut rng);
        let key_text = chain_program_text(KEY_CHAIN, &mut rng);
        let program =
            Program::parse(&key_text, &vocab).map_err(|e| format!("chain program: {e}"))?;
        let lint_program =
            Program::parse(&lint_text, &vocab).map_err(|e| format!("chain program: {e}"))?;
        let mut corpus = vec![chain_input(LINT_CHAIN, lint_text)];
        corpus.extend(load_fixtures(ctx)?);
        core_key(&program)?;
        out.setup_s.push(t.elapsed().as_secs_f64());
        state = Some((
            program,
            lint_program,
            corpus,
            chain_input(KEY_CHAIN, key_text),
        ));
    }
    let (program, lint_program, corpus, key_chain) = state.expect("at least one set-up");
    let analyzer = Analyzer::with_semantic_budget(Budget::unlimited());
    let syntactic = Analyzer::syntactic_pipeline();
    let runs: Vec<&str> = analyzer
        .passes()
        .flat_map(|p| p.codes())
        .map(|c| c.as_str())
        .collect();
    check_chain(KEY_CHAIN, &lint_one(&key_chain, &analyzer)?)?;

    let mut expected: Option<Vec<Verdict>> = None;
    let mut interleave = Interleave::new(&ctx.tracer);
    let mut parts: [Sample; 7] = Default::default();
    let mut findings = 0;
    let tracing = ctx.tracer.enabled();
    let budget = ctx.budget();
    let tracer = &mut ctx.tracer;
    out.measured_s = measure_loop(budget, MIN_PASSES, |rep| {
        interleave.start(tracer, rep);
        let t = Instant::now();
        let pass = tracer.enter("analysis.lint_pass", rep as u64);
        let mut verdicts = Vec::with_capacity(corpus.len());
        for input in &corpus {
            verdicts.push(tracer.span("analysis.lint_input", rep as u64, || {
                lint_one(input, &analyzer)
            })?);
        }
        tracer.exit(pass);
        let ms = ms_since(t);
        out.main.ms.push(ms);
        interleave.record(rep, ms);
        out.attempted += corpus.len() as u64;
        match &expected {
            None => {
                check_chain(LINT_CHAIN, &verdicts[0])?;
                for (input, v) in corpus.iter().zip(&verdicts).skip(1) {
                    check_fixture(input, v, &runs)?;
                }
                expected = Some(verdicts);
            }
            Some(first) if *first != verdicts => {
                return Err(format!("lint pass {rep} differs from the first pass"));
            }
            Some(_) => {}
        }

        let t = Instant::now();
        tracer.span("logic.core_key", rep as u64, || core_key(&program))?;
        out.side.ms.push(ms_since(t));
        out.attempted += 1;

        if tracing && rep % 2 == 0 {
            // The same work split at the layer functions' boundaries.
            let chain = &corpus[0];
            let t = Instant::now();
            tracer.span("analysis.syntactic", rep as u64, || {
                lint_datalog_source_with(&chain.text, None, &syntactic)
            });
            parts[0].push(ms_since(t));
            let t = Instant::now();
            let found = tracer.span("analysis.semantic_scan", rep as u64, || {
                semantic_scan(
                    &ProgramFacts::of_program(&lint_program),
                    &Budget::unlimited(),
                )
            });
            parts[1].push(ms_since(t));
            findings = found.map_err(|_| "an unlimited scan ran out")?.len();
            let t = Instant::now();
            tracer.span("analysis.fix", rep as u64, || {
                fix_check_source(&chain.text, None, &chain.path)
            })?;
            parts[2].push(ms_since(t));
            let t = Instant::now();
            for input in &corpus[1..] {
                tracer.span("analysis.fixture", rep as u64, || {
                    lint_one(input, &analyzer)
                })?;
            }
            parts[3].push(ms_since(t));

            let goal = program.goal_index().ok_or("chain program has a goal")?;
            let t = Instant::now();
            let ucq = tracer.span("datalog.unfold", rep as u64, || {
                stage_ucq(&program, goal, program.idbs().len())
            })?;
            parts[4].push(ms_since(t));
            let t = Instant::now();
            let min = tracer.span("logic.minimize", rep as u64, || ucq.minimize());
            parts[5].push(ms_since(t));
            let t = Instant::now();
            let key = tracer.span("hom.canon", rep as u64, || min.canonical_core_key());
            parts[6].push(ms_since(t));
            if key.to_string() != PINNED_KEY {
                return Err(format!("canonical key of the minimized UCQ is {key}"));
            }
        }
        Ok(())
    })?;

    let chain = &expected.as_ref().expect("at least one pass")[0];
    out.note(format!(
        "lint_ms {:.3} (n={}), core_key_ms {:.3} (n={}); {LINT_CHAIN}-chain: {} atoms and {} rule removed; \
         {KEY_CHAIN}-chain checked, key {PINNED_KEY}",
        out.main.ms.median(),
        out.main.ms.len(),
        out.side.ms.median(),
        out.side.ms.len(),
        chain.removed_atoms,
        chain.removed_rules
    ));
    if tracing {
        let [syn, scan, fix, fixtures, unfold, min, canon] = parts.map(|s| s.median());
        out.note(format!(
            "lint_ms ~ syntactic {syn:.3} + semantic_scan {scan:.3} + fix {fix:.3} + fixtures {fixtures:.3} = {:.3}",
            syn + scan + fix + fixtures
        ));
        out.note(format!(
            "core_key_ms ~ unfold {unfold:.3} + minimize {min:.3} + canon {canon:.3} = {:.3}",
            unfold + min + canon
        ));
        out.overhead(&interleave);
        out.layer("analysis.syntactic_ms", syn);
        out.layer("analysis.semantic_scan_ms", scan);
        out.layer("analysis.fix_ms", fix);
        out.layer("analysis.fixtures_ms", fixtures);
        out.layer("analysis.findings", findings as f64);
        out.layer("analysis.removed_atoms", chain.removed_atoms as f64);
        out.layer("datalog.unfold_ms", unfold);
        out.layer("logic.minimize_ms", min);
        out.layer("hom.canon_ms", canon);
    }
    Ok(out)
}
