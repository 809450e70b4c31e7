//! Wire robustness: random byte strings and mutations of valid request
//! lines go through [`parse_request`] and [`QueryService::handle`]. Every
//! outcome must be a parse error string or a typed [`Response`] whose
//! rendered line is valid JSON carrying its status — never a panic. No
//! faults are injected here, so a `fault` response (a caught worker
//! panic) fails the property too.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;

use hp_guard::Interrupt;
use hp_serve::{json, parse_request, QueryService, Response, ServiceConfig};
use hp_structures::generators::directed_path;

/// Valid request lines the mutations start from.
const TEMPLATES: &[&str] = &[
    r#"{"op":"query","program":"Goal(x,y) :- E(x,y).","fuel":1000}"#,
    r#"{"op":"query","program":"T(x,y) :- E(x,y).\nT(x,y) :- E(x,z), T(z,y).\nGoal(x,y) :- T(x,y).","timeout_ms":200}"#,
    r#"{"op":"query","program":"T(x,y) :- E(x,y).\nT(x,y) :- E(x,z), T(z,y).\nGoal(x,y) :- T(x,y).","fuel":3,"no_cache":true}"#,
    r#"{"op":"query","formula":"exists x (E(x,y))"}"#,
    r#"{"op":"query","resume":"r1","fuel":50}"#,
    r#"{"op":"update","insert":{"E":[[0,1],[1,2]]},"delete":{"E":[[2,0]]},"grow_universe":1}"#,
    r#"{"op":"update","delete":{"E":[[0,1]]}}"#,
    r#"{"op":"stats"}"#,
    r#"{"op":"shutdown"}"#,
];

/// Number literals at and past every range the protocol checks.
const HUGE_NUMBERS: &[&str] = &[
    "0",
    "-1",
    "1.5",
    "1e308",
    "4294967295",
    "4294967296",
    "9007199254740991",
    "9007199254740993",
    "18446744073709551616",
    "99999999999999999999999999999999999999",
];

fn service() -> QueryService {
    QueryService::new(
        directed_path(8),
        ServiceConfig {
            default_timeout_ms: 200,
            default_fuel: 50_000,
            ..ServiceConfig::default()
        },
    )
}

/// Run one line through the protocol and the service, and check the
/// outcome is typed.
fn check_line(svc: &QueryService, line: &str) -> Result<(), TestCaseError> {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        parse_request(line).map(|req| svc.handle(&req, &Interrupt::new()))
    }));
    let Ok(outcome) = outcome else {
        return Err(TestCaseError::fail(format!("panic on line {line:?}")));
    };
    match outcome {
        Err(message) => prop_assert!(!message.is_empty(), "empty parse error for {line:?}"),
        Ok(resp) => {
            prop_assert!(
                !matches!(resp, Response::Fault { .. }),
                "a worker panicked on {line:?}: {resp:?}"
            );
            let rendered = resp.render();
            let parsed = json::parse(&rendered);
            prop_assert!(parsed.is_ok(), "unparseable response {rendered:?}");
            let status = parsed
                .ok()
                .and_then(|v| v.get("status").and_then(|s| s.as_str()).map(str::to_owned));
            prop_assert_eq!(status.as_deref(), Some(resp.status()), "line {:?}", line);
        }
    }
    Ok(())
}

/// Replace every run of ASCII digits in `line` with `number`.
fn replace_numbers(line: &str, number: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut in_digits = false;
    for c in line.chars() {
        if c.is_ascii_digit() {
            if !in_digits {
                out.push_str(number);
            }
            in_digits = true;
        } else {
            in_digits = false;
            out.push(c);
        }
    }
    out
}

/// One mutation of template `t`, driven by the raw parameters `(pos, x)`.
fn mutate(kind: usize, t: usize, pos: usize, x: u8) -> String {
    let line = TEMPLATES[t % TEMPLATES.len()];
    let bytes = line.as_bytes();
    match kind {
        // Truncation anywhere, including to the empty line.
        0 => String::from_utf8_lossy(&bytes[..pos % (bytes.len() + 1)]).into_owned(),
        // One flipped byte (possibly into invalid UTF-8, which the server
        // would reject; the lossy decoding still exercises the parser).
        1 => {
            let mut b = bytes.to_vec();
            b[pos % bytes.len()] ^= x.max(1);
            String::from_utf8_lossy(&b).into_owned()
        }
        // One inserted byte.
        2 => {
            let mut b = bytes.to_vec();
            b.insert(pos % (bytes.len() + 1), x);
            String::from_utf8_lossy(&b).into_owned()
        }
        // Every number replaced by an out-of-range or non-integer literal.
        3 => replace_numbers(line, HUGE_NUMBERS[pos % HUGE_NUMBERS.len()]),
        // Universe growth at the u32 boundary.
        4 => {
            let grow = u64::from(u32::MAX) - 2 + (pos % 5) as u64;
            format!(r#"{{"op":"update","grow_universe":{grow}}}"#)
        }
        // Deep nesting in the tuple map and in the program field.
        5 => {
            let depth = 1 + pos % 200;
            let (open, close) = ("[".repeat(depth), "]".repeat(depth));
            if x.is_multiple_of(2) {
                format!(r#"{{"op":"update","insert":{{"E":{open}0{close}}}}}"#)
            } else {
                format!(r#"{{"op":"query","program":{open}"Goal() :- E(x,x)."{close}}}"#)
            }
        }
        // Two requests glued into one line.
        _ => format!("{line}{}", TEMPLATES[pos % TEMPLATES.len()]),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes: almost always a parse error, never a panic.
    #[test]
    fn random_bytes_are_typed(bytes in prop::collection::vec(any::<u8>(), 0..160)) {
        let svc = service();
        check_line(&svc, &String::from_utf8_lossy(&bytes))?;
    }

    /// Mutations of valid query/update/stats lines, each followed by a
    /// fixed query, update and stats round on the same service, so a
    /// mutation that leaves bad state behind is caught too.
    #[test]
    fn mutated_requests_are_typed(
        kind in 0usize..7,
        t in 0usize..64,
        pos in 0usize..4096,
        x in any::<u8>(),
    ) {
        let svc = service();
        check_line(&svc, &mutate(kind, t, pos, x))?;
        for follow_up in [TEMPLATES[1], TEMPLATES[3], TEMPLATES[5], TEMPLATES[7]] {
            check_line(&svc, follow_up)?;
        }
    }
}

/// The universe-boundary cases, deterministically: growth to exactly
/// `u32::MAX` elements succeeds, one more is a typed overflow, and queries
/// on the grown snapshot still answer.
#[test]
fn universe_growth_at_the_boundary_is_typed() {
    let svc = service();
    let to_max = u64::from(u32::MAX) - 8;
    for line in [
        format!(r#"{{"op":"update","grow_universe":{to_max}}}"#),
        r#"{"op":"update","grow_universe":1}"#.to_string(),
        r#"{"op":"update","insert":{"E":[[4294967294,0]]}}"#.to_string(),
        r#"{"op":"update","insert":{"E":[[4294967295,0]]}}"#.to_string(),
    ] {
        check_line(&svc, &line).unwrap();
    }
    let grown = parse_request(&format!(r#"{{"op":"update","grow_universe":{to_max}}}"#)).unwrap();
    let svc = service();
    assert_eq!(svc.handle(&grown, &Interrupt::new()).status(), "ok");
    let again = parse_request(r#"{"op":"update","grow_universe":1}"#).unwrap();
    assert_eq!(svc.handle(&again, &Interrupt::new()).status(), "error");
    for line in TEMPLATES {
        check_line(&svc, line).unwrap();
    }
}

/// A formula variable that occurs in no relational atom ranges over the
/// whole universe: `x = x` answers with one row per element, and the
/// answer enumeration runs outside the fuel and deadline checks, so a
/// grown universe turns one such query into unbounded time and memory.
/// Every disjunct must bind each of its variables, free or existential,
/// in some atom; otherwise the query is a typed `bad formula` error.
#[test]
fn formula_variables_outside_every_atom_are_rejected() {
    let svc = service();
    for formula in [
        "x = x",
        "exists y. y = y",
        "E(x,y) & z = z",
        "E(x,y) | E(y,z)",
        "exists w. (E(x,y) & w = w)",
    ] {
        let line = format!(r#"{{"op":"query","formula":"{formula}"}}"#);
        let resp = svc.handle(&parse_request(&line).unwrap(), &Interrupt::new());
        match &resp {
            Response::Error { message } => {
                assert!(message.starts_with("bad formula"), "{formula}: {message}")
            }
            other => panic!("{formula}: expected a bad-formula error, got {other:?}"),
        }
    }
    // Variables tied to an atom, directly or through an equality, still
    // answer.
    for formula in ["E(x,y)", "exists z. (E(x,z) & z = y)", "true"] {
        let line = format!(r#"{{"op":"query","formula":"{formula}"}}"#);
        let resp = svc.handle(&parse_request(&line).unwrap(), &Interrupt::new());
        assert_eq!(resp.status(), "ok", "{formula}: {resp:?}");
    }
}
