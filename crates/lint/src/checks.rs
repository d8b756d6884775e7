//! The six determinism-contract checks, as token-stream scanners.
//!
//! Each check receives the file's token stream with `#[cfg(test)]` /
//! `#[test]` regions already removed (see [`crate::test_regions`]) and
//! emits raw findings; pragma suppression happens in
//! [`crate::scan_source`].

use crate::lexer::{Tok, TokKind};
use crate::{Check, RawFinding};

/// Methods whose call on a hash container observes bucket order.
const HASH_ITER_METHODS: [&str; 8] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "retain",
];

/// Runs `check` over `toks`, appending findings to `out`.
pub fn run(check: Check, toks: &[Tok], out: &mut Vec<RawFinding>) {
    match check {
        Check::NoHashIter => no_hash_iter(toks, out),
        Check::NoAmbientEntropy => no_ambient_entropy(toks, out),
        Check::TickMathSaturates => tick_math_saturates(toks, out),
        Check::NoLibUnwrap => no_lib_unwrap(toks, out),
        Check::NoFloatEq => no_float_eq(toks, out),
        Check::NoNarrowingCast => no_narrowing_cast(toks, out),
    }
}

/// Collects identifiers declared with a type (or constructor) that
/// mentions any name in `types`: struct fields / params (`name: T<..>`)
/// and lets (`let [mut] name ... = T::...;`).
fn declared_names(toks: &[Tok], types: &[&str]) -> Vec<String> {
    let mut names = Vec::new();
    let is_type = |t: &Tok| types.iter().any(|ty| t.is_ident(ty));
    for i in 0..toks.len() {
        // `name : ... T` within a short lookahead (fields, params,
        // typed lets). The lookahead stops at declaration boundaries.
        if toks[i].kind == TokKind::Ident && i + 2 < toks.len() && toks[i + 1].is_punct(":") {
            for t in toks.iter().skip(i + 2).take(6) {
                if t.is_punct(",")
                    || t.is_punct(";")
                    || t.is_punct("{")
                    || t.is_punct("=")
                    || t.is_punct(")")
                {
                    break;
                }
                if is_type(t) {
                    names.push(toks[i].text.clone());
                    break;
                }
            }
        }
        // `let [mut] name = ... T ... ;`
        if toks[i].is_ident("let") {
            let mut j = i + 1;
            if j < toks.len() && toks[j].is_ident("mut") {
                j += 1;
            }
            if j < toks.len() && toks[j].kind == TokKind::Ident {
                let name = toks[j].text.clone();
                let mut k = j + 1;
                while k < toks.len() && !toks[k].is_punct(";") && k - j < 24 {
                    if is_type(&toks[k]) {
                        names.push(name.clone());
                        break;
                    }
                    k += 1;
                }
            }
        }
    }
    names.sort();
    names.dedup();
    names
}

/// **no-hash-iter** — iterating a `HashMap`/`HashSet` observes bucket
/// order, which varies across `RandomState` seeds and std versions: any
/// seeded path that does so replays differently run to run.
fn no_hash_iter(toks: &[Tok], out: &mut Vec<RawFinding>) {
    let hash_names = declared_names(toks, &["HashMap", "HashSet"]);
    if hash_names.is_empty() {
        return;
    }
    let is_hash = |t: &Tok| t.kind == TokKind::Ident && hash_names.contains(&t.text);
    for i in 0..toks.len() {
        // name.iter() / name.keys() / ...
        if is_hash(&toks[i])
            && i + 2 < toks.len()
            && toks[i + 1].is_punct(".")
            && HASH_ITER_METHODS.iter().any(|m| toks[i + 2].is_ident(m))
        {
            out.push(RawFinding {
                check: Check::NoHashIter,
                line: toks[i].line,
                message: format!(
                    "`{}.{}()` iterates hash-ordered state",
                    toks[i].text,
                    toks[i + 2].text
                ),
            });
        }
        // for pat in <expr mentioning a hash name> { ... }
        if toks[i].is_ident("for") {
            let mut j = i + 1;
            let mut saw_in = false;
            while j < toks.len() && j - i < 40 {
                if toks[j].is_punct("{") || toks[j].is_punct(";") {
                    break;
                }
                if toks[j].is_ident("in") {
                    saw_in = true;
                } else if saw_in && is_hash(&toks[j]) {
                    out.push(RawFinding {
                        check: Check::NoHashIter,
                        line: toks[j].line,
                        message: format!("`for` loop over hash-ordered `{}`", toks[j].text),
                    });
                    break;
                }
                j += 1;
            }
        }
    }
}

/// **no-ambient-entropy** — wall-clock time and OS randomness make a
/// run a function of the machine, not the seed.
fn no_ambient_entropy(toks: &[Tok], out: &mut Vec<RawFinding>) {
    for (i, t) in toks.iter().enumerate() {
        let hit = if t.is_ident("Instant")
            && toks.get(i + 1).is_some_and(|n| n.is_punct("::"))
            && toks.get(i + 2).is_some_and(|n| n.is_ident("now"))
        {
            Some("Instant::now")
        } else if t.is_ident("SystemTime") {
            Some("SystemTime")
        } else if t.is_ident("thread_rng") {
            Some("thread_rng")
        } else if t.is_ident("from_entropy") {
            Some("from_entropy")
        } else {
            None
        };
        if let Some(what) = hit {
            out.push(RawFinding {
                check: Check::NoAmbientEntropy,
                line: t.line,
                message: format!("`{what}` draws ambient entropy"),
            });
        }
    }
}

/// Identifier naming convention for virtual-time quantities.
fn is_tick_ident(t: &Tok) -> bool {
    if t.kind != TokKind::Ident {
        return false;
    }
    let s = t.text.as_str();
    s == "due"
        || s == "tick"
        || s == "ticks"
        || s.ends_with("_tick")
        || s.ends_with("_ticks")
        || s.starts_with("due_")
}

/// Token kinds that can legally end a binary operand (so a following
/// `*` is multiplication, not a dereference).
fn ends_operand(t: &Tok) -> bool {
    matches!(t.kind, TokKind::Ident | TokKind::IntLit | TokKind::FloatLit)
        || t.is_punct(")")
        || t.is_punct("]")
}

/// **tick-math-saturates** — raw `+`/`*` on virtual-time ticks can
/// overflow u64 under large delays and wrap the event heap's ordering;
/// `saturating_add`/`saturating_mul` keep due-times monotone.
fn tick_math_saturates(toks: &[Tok], out: &mut Vec<RawFinding>) {
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Punct {
            continue;
        }
        let op = t.text.as_str();
        if !matches!(op, "+" | "*" | "+=" | "*=") {
            continue;
        }
        let prev = if i > 0 { Some(&toks[i - 1]) } else { None };
        let next = toks.get(i + 1);
        let binary = prev.is_some_and(ends_operand);
        let prev_tick = prev.is_some_and(is_tick_ident);
        let next_tick = next.is_some_and(is_tick_ident);
        if (binary || op.ends_with('=')) && (prev_tick || (binary && next_tick)) {
            let name = if prev_tick {
                &toks[i - 1].text
            } else {
                // binary && next_tick: next exists by is_some_and above.
                &toks[i + 1].text
            };
            out.push(RawFinding {
                check: Check::TickMathSaturates,
                line: t.line,
                message: format!("raw `{op}` on tick quantity `{name}`"),
            });
        }
    }
}

/// **no-lib-unwrap** — a panic in library code tears down whole
/// campaigns and hides the invariant that actually broke; use typed
/// errors, or document the invariant in a pragma.
fn no_lib_unwrap(toks: &[Tok], out: &mut Vec<RawFinding>) {
    for i in 0..toks.len().saturating_sub(2) {
        if !toks[i].is_punct(".") {
            continue;
        }
        let m = &toks[i + 1];
        if (m.is_ident("unwrap") || m.is_ident("expect")) && toks[i + 2].is_punct("(") {
            out.push(RawFinding {
                check: Check::NoLibUnwrap,
                line: m.line,
                message: format!("`.{}(...)` in library code", m.text),
            });
        }
    }
}

/// **no-float-eq** — exact float comparison is representation-
/// dependent; in seeded paths a `==` that flips under a rounding-mode
/// or libm difference silently forks the replay.
fn no_float_eq(toks: &[Tok], out: &mut Vec<RawFinding>) {
    let float_names = declared_names(toks, &["f32", "f64"]);
    let is_float_operand = |t: &Tok| {
        t.kind == TokKind::FloatLit || (t.kind == TokKind::Ident && float_names.contains(&t.text))
    };
    for i in 0..toks.len() {
        let t = &toks[i];
        if !(t.is_punct("==") || t.is_punct("!=")) {
            continue;
        }
        let prev_hit = i > 0 && is_float_operand(&toks[i - 1]);
        let next_hit = toks.get(i + 1).is_some_and(&is_float_operand);
        if prev_hit || next_hit {
            out.push(RawFinding {
                check: Check::NoFloatEq,
                line: t.line,
                message: format!("float `{}` comparison", t.text),
            });
        }
    }
}

/// **no-narrowing-cast** — `as u32`/`as u16` silently truncates; on
/// node/edge indices in the congest hot path that turns an overflow at
/// scale into a wrong-but-plausible index. Route narrowing through a
/// checked helper or justify the bound.
fn no_narrowing_cast(toks: &[Tok], out: &mut Vec<RawFinding>) {
    for i in 0..toks.len().saturating_sub(1) {
        if !toks[i].is_ident("as") {
            continue;
        }
        let ty = &toks[i + 1];
        if !(ty.is_ident("u32") || ty.is_ident("u16")) {
            continue;
        }
        // Literal casts (`0 as u32`) carry their bound on their face.
        if i > 0 && matches!(toks[i - 1].kind, TokKind::IntLit | TokKind::CharLit) {
            continue;
        }
        out.push(RawFinding {
            check: Check::NoNarrowingCast,
            line: toks[i].line,
            message: format!("narrowing `as {}` on index expression", ty.text),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn findings(check: Check, src: &str) -> Vec<RawFinding> {
        let mut out = Vec::new();
        run(check, &lex(src).toks, &mut out);
        out
    }

    #[test]
    fn hash_iter_flags_declared_names_only() {
        let src = "struct S { m: HashMap<u64, u32>, v: Vec<u32> }\n\
                   fn f(s: &S) { for k in s.m.keys() {} for x in &s.v {} s.v.iter(); }";
        let f = findings(Check::NoHashIter, src);
        // The for-loop and method rules both anchor line 2; scan_source
        // dedups by (check, line), so raw hits just need to exist and
        // stay off the Vec.
        assert!(!f.is_empty(), "{f:?}");
        assert!(f.iter().all(|f| f.message.contains("`m")), "{f:?}");
        assert!(f.iter().all(|f| !f.message.contains("`v")), "{f:?}");
    }

    #[test]
    fn hash_iter_sees_let_bindings() {
        let src =
            "fn f() { let mut seen = HashSet::new(); seen.insert(1); for s in seen.drain() {} }";
        let f = findings(Check::NoHashIter, src);
        // `.drain()` method hit and the for-loop both anchor on `seen`.
        assert!(!f.is_empty(), "{f:?}");
    }

    #[test]
    fn entropy_hits_all_four() {
        let src = "let a = Instant::now(); let b = SystemTime::now(); let c = thread_rng(); let d = StdRng::from_entropy();";
        assert_eq!(findings(Check::NoAmbientEntropy, src).len(), 4);
    }

    #[test]
    fn tick_math_binary_only() {
        let f = findings(
            Check::TickMathSaturates,
            "let x = base_tick + 4; due *= 2; let p = *due_ref;",
        );
        // base_tick + 4, due *= 2 flagged; `*due_ref` deref position not.
        assert_eq!(f.len(), 2, "{f:?}");
    }

    #[test]
    fn unwrap_and_expect_but_not_unwrap_or() {
        let f = findings(
            Check::NoLibUnwrap,
            "a.unwrap(); b.expect(\"x\"); c.unwrap_or(3); d.unwrap_or_else(f);",
        );
        assert_eq!(f.len(), 2, "{f:?}");
    }

    #[test]
    fn float_eq_but_not_tuple_fields() {
        let f = findings(
            Check::NoFloatEq,
            "if x == 0.0 {} if pair.0 == usize::MAX {} let b: f64 = 1.0; if b != c {}",
        );
        assert_eq!(f.len(), 2, "{f:?}");
    }

    #[test]
    fn narrowing_cast_skips_literals_and_widening() {
        let f = findings(
            Check::NoNarrowingCast,
            "let a = dir as u32; let b = 0 as u32; let c = x as u64; let d = len() as u16;",
        );
        assert_eq!(f.len(), 2, "{f:?}");
    }
}
