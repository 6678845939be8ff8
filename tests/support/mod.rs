//! Shared test support: a minimal JSON parser for validating the repo's
//! hand-rolled JSON exports (figures, timings, Chrome traces) without
//! pulling a serde format crate into the dependency-free build, a
//! byte-identity assertion for comparing two exports, and the Quick
//! fig4+fig9 campaign replay under `simcore::ReferencePaths`.
//!
//! Each integration-test target uses a different subset of this module.
#![allow(dead_code)]

use std::collections::BTreeMap;

use interference::campaign::{run_set, CampaignOptions};
use interference::experiments::{self, Fidelity};
use interference::results::figures_to_json;
use simcore::reference_paths::{self, ReferencePaths};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    pub fn as_arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("expected array, got {:?}", kind(other)),
        }
    }

    pub fn as_obj(&self) -> &BTreeMap<String, Json> {
        match self {
            Json::Obj(o) => o,
            other => panic!("expected object, got {:?}", kind(other)),
        }
    }

    pub fn as_str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("expected string, got {:?}", kind(other)),
        }
    }

    pub fn get(&self, key: &str) -> &Json {
        self.as_obj()
            .get(key)
            .unwrap_or_else(|| panic!("missing key {:?}", key))
    }

    /// Sorted key set of an object.
    pub fn keys(&self) -> Vec<&str> {
        self.as_obj().keys().map(|k| k.as_str()).collect()
    }
}

fn kind(j: &Json) -> &'static str {
    match j {
        Json::Null => "null",
        Json::Bool(_) => "bool",
        Json::Num(_) => "number",
        Json::Str(_) => "string",
        Json::Arr(_) => "array",
        Json::Obj(_) => "object",
    }
}

/// Parse a complete JSON document, panicking (with position) on any syntax
/// error or trailing garbage — tests want loud failures.
pub fn parse(text: &str) -> Json {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let v = value(bytes, &mut pos);
    skip_ws(bytes, &mut pos);
    assert!(pos == bytes.len(), "trailing garbage at byte {}", pos);
    v
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) {
    assert!(
        *pos < b.len() && b[*pos] == c,
        "expected {:?} at byte {}",
        c as char,
        *pos
    );
    *pos += 1;
}

fn value(b: &[u8], pos: &mut usize) -> Json {
    skip_ws(b, pos);
    assert!(*pos < b.len(), "unexpected end of input");
    match b[*pos] {
        b'{' => {
            *pos += 1;
            let mut obj = BTreeMap::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Json::Obj(obj);
            }
            loop {
                skip_ws(b, pos);
                let key = match value(b, pos) {
                    Json::Str(s) => s,
                    _ => panic!("object key must be a string at byte {}", *pos),
                };
                skip_ws(b, pos);
                expect(b, pos, b':');
                let at = *pos;
                let v = value(b, pos);
                assert!(
                    obj.insert(key.clone(), v).is_none(),
                    "duplicate object key {:?} at byte {}",
                    key,
                    at
                );
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Json::Obj(obj);
                    }
                    _ => panic!("expected ',' or '}}' at byte {}", *pos),
                }
            }
        }
        b'[' => {
            *pos += 1;
            let mut arr = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Json::Arr(arr);
            }
            loop {
                arr.push(value(b, pos));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Json::Arr(arr);
                    }
                    _ => panic!("expected ',' or ']' at byte {}", *pos),
                }
            }
        }
        b'"' => {
            *pos += 1;
            let mut s = String::new();
            loop {
                assert!(*pos < b.len(), "unterminated string");
                match b[*pos] {
                    b'"' => {
                        *pos += 1;
                        return Json::Str(s);
                    }
                    b'\\' => {
                        *pos += 1;
                        match b[*pos] {
                            b'"' => s.push('"'),
                            b'\\' => s.push('\\'),
                            b'/' => s.push('/'),
                            b'n' => s.push('\n'),
                            b'r' => s.push('\r'),
                            b't' => s.push('\t'),
                            b'u' => {
                                let hex = std::str::from_utf8(&b[*pos + 1..*pos + 5])
                                    .expect("utf8 escape");
                                let code = u32::from_str_radix(hex, 16).expect("hex escape");
                                s.push(char::from_u32(code).expect("scalar escape"));
                                *pos += 4;
                            }
                            e => panic!("unsupported escape \\{}", e as char),
                        }
                        *pos += 1;
                    }
                    _ => {
                        // Consume one UTF-8 character.
                        let start = *pos;
                        *pos += 1;
                        while *pos < b.len() && (b[*pos] & 0xC0) == 0x80 {
                            *pos += 1;
                        }
                        s.push_str(std::str::from_utf8(&b[start..*pos]).expect("utf8"));
                    }
                }
            }
        }
        b't' => {
            assert!(b[*pos..].starts_with(b"true"), "bad literal at {}", *pos);
            *pos += 4;
            Json::Bool(true)
        }
        b'f' => {
            assert!(b[*pos..].starts_with(b"false"), "bad literal at {}", *pos);
            *pos += 5;
            Json::Bool(false)
        }
        b'n' => {
            assert!(b[*pos..].starts_with(b"null"), "bad literal at {}", *pos);
            *pos += 4;
            Json::Null
        }
        _ => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let s = std::str::from_utf8(&b[start..*pos]).expect("utf8");
            Json::Num(s.parse().unwrap_or_else(|_| panic!("bad number {:?}", s)))
        }
    }
}

/// Assert two exports are byte-identical, naming the first differing byte.
pub fn assert_identical(a: &str, b: &str, what: &str) {
    assert!(
        a == b,
        "{what}: first differing byte at {} ({} vs {} bytes)",
        a.bytes()
            .zip(b.bytes())
            .position(|(x, y)| x != y)
            .unwrap_or(a.len().min(b.len())),
        a.len(),
        b.len()
    );
}

/// The `--json` export of a serial Quick fig4+fig9 campaign, built on the
/// calling thread's reference paths.
///
/// fig4 runs the three-step protocol through mpisim clusters (message
/// matching, timer-heavy rendezvous/eager paths, the baseline cache); fig9
/// is the churn-heaviest experiment (polling flows and timers cancelled and
/// restarted constantly — the dirty-component tracking and the timer
/// queue's lazy tombstones).
pub fn quick_fig4_fig9_json() -> String {
    let exps: Vec<_> = ["fig4", "fig9"]
        .iter()
        .map(|n| experiments::find(n).expect("registered"))
        .collect();
    let figures: Vec<_> = run_set(&exps, &CampaignOptions::serial(Fidelity::Quick))
        .into_iter()
        .flat_map(|r| r.figures)
        .collect();
    figures_to_json(&figures)
}

/// Replay Quick fig4+fig9 under each `(what, paths)` row, one thread per
/// row, beside a run on the fast paths, and assert every export is
/// byte-identical to the fast one. Running side by side is sound because a
/// scoped value never reaches engines built on another thread
/// (`tests/reference_paths.rs` pins that down).
pub fn assert_replays_identical(replays: &[(&str, ReferencePaths)]) {
    std::thread::scope(|s| {
        let replays: Vec<_> = replays
            .iter()
            .map(|&(what, paths)| {
                (
                    what,
                    s.spawn(move || reference_paths::scoped(paths, quick_fig4_fig9_json)),
                )
            })
            .collect();
        let fast = quick_fig4_fig9_json();
        for (what, replay) in replays {
            let reference = replay.join().expect("replay thread");
            assert_identical(&fast, &reference, what);
        }
    });
}
