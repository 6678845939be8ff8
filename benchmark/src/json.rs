//! JSON text for the result line and the ledger, which this package only
//! writes.

use std::fmt::Write as _;

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit of `v` (shortest round-trip form).
/// Non-finite values have no JSON form and are written as `null`.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{:?}", v)
    } else {
        "null".into()
    }
}
