//! Route golden: every link and every route of the direct wire and of the
//! fabric unit tests' shapes, listed in full, then one FNV-1a-64 digest of
//! the same listing per (preset, nodes) for every routed preset from 2 to 64
//! nodes, plus the switch at 512 and 1024 nodes.
//!
//! A route is a fixed function of the fabric's shape and its endpoints, and
//! link indices are fixed by the order in which links are created; this
//! fixture pins both, so any change to how a fabric is built or routed shows
//! up here as a readable diff (or a changed digest line). Regenerate it after
//! an *intentional* routing change with
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test --test fabric_routes
//! ```
//!
//! and review the diff like any other code change.

use std::fmt::{self, Write};

use topology::fabric::{Fabric, FabricPreset, FabricSpec};

/// Write `f`'s links (index, name, bandwidth scale, endpoints) and then its
/// route for every ordered node pair, self-pairs included (empty), one line
/// each. Returns the total hop count.
fn list(f: &Fabric, out: &mut impl Write) -> Result<usize, fmt::Error> {
    for (i, l) in f.links().iter().enumerate() {
        writeln!(
            out,
            "link {i} {} x{} {} -> {}",
            l.name, l.bw_scale, l.src, l.dst
        )?;
    }
    let mut hops = 0;
    for s in 0..f.nodes() {
        for d in 0..f.nodes() {
            write!(out, "route {s} {d}:")?;
            for l in f.route(s, d) {
                write!(out, " {l}")?;
                hops += 1;
            }
            writeln!(out)?;
        }
    }
    Ok(hops)
}

/// FNV-1a-64 over the bytes written to it.
struct Fnv1a64(u64);

impl Write for Fnv1a64 {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for &b in s.as_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// The fabric unit tests' shapes (`fabric::tests::all_fabrics`).
fn unit_test_fabrics() -> Vec<(&'static str, Fabric)> {
    let preset = |p: FabricPreset, n: usize| p.spec(n).build_for(n);
    vec![
        ("direct", FabricSpec::Direct.build()),
        ("switch4", preset(FabricPreset::Switch, 4)),
        ("switch8", preset(FabricPreset::Switch, 8)),
        ("torus4x2", preset(FabricPreset::Torus, 8)),
        ("torus4x4", preset(FabricPreset::Torus, 16)),
        ("torus5x3", preset(FabricPreset::Torus, 15)),
        ("dfly2x4", preset(FabricPreset::Dragonfly, 8)),
        ("dfly3x3", preset(FabricPreset::Dragonfly, 9)),
        ("dfly4x4", preset(FabricPreset::Dragonfly, 16)),
    ]
}

fn routes_text() -> String {
    let mut out =
        String::from("# Every link and route of the fabric unit tests' shapes, in full.\n");
    for (name, f) in unit_test_fabrics() {
        writeln!(
            out,
            "== {name}: {} nodes, {} links",
            f.nodes(),
            f.links().len()
        )
        .unwrap();
        list(&f, &mut out).unwrap();
    }
    out.push_str("# FNV-1a-64 of the same listing, per preset and node count.\n");
    let sizes = FabricPreset::ALL
        .iter()
        .flat_map(|&p| (2..=64).map(move |n| (p, n)))
        .chain([(FabricPreset::Switch, 512), (FabricPreset::Switch, 1024)]);
    for (preset, n) in sizes {
        let f = preset.spec(n).build_for(n);
        let mut fnv = Fnv1a64(0xcbf2_9ce4_8422_2325);
        let hops = list(&f, &mut fnv).unwrap();
        writeln!(
            out,
            "{preset} {n}: {} links, {hops} hops, fnv1a64 {:016x}",
            f.links().len(),
            fnv.0
        )
        .unwrap();
    }
    out
}

#[test]
fn every_route_matches_the_golden() {
    let text = routes_text();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/fabric_routes.txt"
    );
    if std::env::var_os("GOLDEN_BLESS").is_some_and(|v| v == "1") {
        std::fs::write(path, &text).expect("bless golden fixture");
        return;
    }
    let expected = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!("missing golden fixture {path} ({e}); run GOLDEN_BLESS=1 cargo test --test fabric_routes")
    });
    if text != expected {
        let at = text
            .lines()
            .zip(expected.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| text.lines().count().min(expected.lines().count()));
        panic!(
            "routes diverged from {path} at line {} (got {} lines, fixture has {}).\n\
             got:      {:?}\nexpected: {:?}\n\
             If the routing change is intentional, re-bless with GOLDEN_BLESS=1.",
            at + 1,
            text.lines().count(),
            expected.lines().count(),
            text.lines().nth(at).unwrap_or("<eof>"),
            expected.lines().nth(at).unwrap_or("<eof>"),
        );
    }
}
