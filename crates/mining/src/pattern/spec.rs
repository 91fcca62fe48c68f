//! The canonical code's executable specification, compiled only for
//! tests: the original builder, which formats every permuted edge as an
//! `"s>d:p"` string and keeps the smallest sorted string list. The
//! properties below require [`Pattern::canonical_code`], which compares
//! packed `u64` edge keys and renders the winner once, to return exactly
//! its code.

use super::{permute_classes, Pattern};
use apex_ir::OpKind;
use std::collections::BTreeMap;

impl Pattern {
    /// The string-building canonical code, retained as the specification
    /// of [`Pattern::canonical_code`]; it is not used on any production
    /// path.
    #[allow(clippy::expect_used)]
    pub(super) fn canonical_code_reference(&self) -> String {
        let n = self.len();
        let mut outdeg = vec![0usize; n];
        for (s, _, _) in self.edges() {
            outdeg[s as usize] += 1;
        }
        // class key per node
        let keys: Vec<(OpKind, usize, usize)> = (0..n)
            .map(|i| (self.labels[i], self.in_edges[i].len(), outdeg[i]))
            .collect();
        // order classes canonically
        let mut class_of: BTreeMap<(OpKind, usize, usize), Vec<usize>> = BTreeMap::new();
        for (i, k) in keys.iter().enumerate() {
            class_of.entry(*k).or_default().push(i);
        }
        let classes: Vec<Vec<usize>> = class_of.values().cloned().collect();

        // base position for every class in the canonical numbering
        let mut base = Vec::with_capacity(classes.len());
        let mut acc = 0;
        for c in &classes {
            base.push(acc);
            acc += c.len();
        }

        let raw_edges: Vec<(usize, usize, i32)> = self
            .edges()
            .map(|(s, d, p)| (s as usize, d as usize, p.map_or(-1i32, i32::from)))
            .collect();
        let mut best: Option<Vec<String>> = None;
        let mut scratch: Vec<String> = Vec::with_capacity(raw_edges.len());
        let mut perm = vec![0usize; n]; // original node -> canonical index
        permute_classes(&classes, &base, 0, &mut perm, &mut |perm| {
            scratch.clear();
            for &(s, d, p) in &raw_edges {
                scratch.push(format!("{}>{}:{}", perm[s], perm[d], p));
            }
            scratch.sort();
            match &best {
                Some(b) if b.as_slice() <= scratch.as_slice() => {}
                _ => best = Some(scratch.clone()),
            }
        });
        // invariant: permute_classes always visits the identity permutation,
        // so `best` is set for every non-empty pattern (and single() makes
        // empty patterns unconstructible from the public API)
        let edges = best.expect("at least one permutation");
        let mut code = String::new();
        for c in &classes {
            let (l, i, o) = keys[c[0]];
            code.push_str(&format!("[{l:?}/{i}/{o}x{}]", c.len()));
        }
        code.push('|');
        code.push_str(&edges.join(","));
        code
    }
}

mod properties {
    use super::*;
    use crate::{mine, MinerConfig};
    use apex_fault::Budget;
    use proptest::prelude::*;

    const LABELS: [OpKind; 6] = [
        OpKind::Add,
        OpKind::Mul,
        OpKind::Sub,
        OpKind::Umax,
        OpKind::Lshr,
        OpKind::Const,
    ];

    fn assert_matches_reference(p: &Pattern) {
        assert_eq!(p.canonical_code(), p.canonical_code_reference(), "{p}");
    }

    #[test]
    fn codes_match_the_string_builder_on_every_mined_pattern_of_the_suite() {
        let apps = apex_apps::analyzed_apps()
            .into_iter()
            .chain(apex_apps::unseen_apps());
        let cfg = MinerConfig {
            budget: Budget::unlimited(),
            ..MinerConfig::default()
        };
        let mut coded = 0;
        for app in apps {
            for m in mine(&app.graph, &cfg).unwrap().subgraphs {
                assert_matches_reference(&m.pattern);
                coded += 1;
            }
        }
        assert!(coded > 1000, "{coded} patterns");
    }

    /// A chain of `n` nodes with labels cycling through [`LABELS`], plus
    /// a parallel edge and a port-constrained edge near the end, so the
    /// code's edges involve two-digit node indices.
    fn long_pattern(n: usize) -> Pattern {
        let mut p = Pattern::single(LABELS[0]);
        for i in 1..n {
            let port = (i % 3 == 0).then_some(1);
            p = p.extend_with_node(i as u32 - 1, LABELS[i % 5], true, port);
        }
        p.extend_with_edge(n as u32 - 3, n as u32 - 1, None)
            .extend_with_edge(0, n as u32 - 2, Some(0))
    }

    #[test]
    fn codes_match_the_string_builder_beyond_ten_nodes() {
        for n in [11, 12] {
            let p = long_pattern(n);
            assert_matches_reference(&p);
            // the string order the packed ranks must follow: "10>" before "1>"
            let code = p.canonical_code();
            let edges = &code[code.find('|').unwrap() + 1..];
            let ten = edges.find(",10>").unwrap();
            let one = edges.find(",1>").unwrap();
            assert!(ten < one, "{code}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn codes_match_the_string_builder_on_grown_patterns(
            steps in prop::collection::vec(
                (any::<bool>(), any::<u8>(), any::<u8>(), 0u8..6, any::<u8>()),
                0..9,
            ),
        ) {
            // random growth, ports included (two- and three-digit ones
            // exercise the port key's string order)
            let mut p = Pattern::single(LABELS[0]);
            for (node, a, b, label, port) in steps {
                let len = p.len() as u32;
                let port = match port % 4 {
                    0 => None,
                    1 => Some(port % 3),
                    _ => Some(port),
                };
                p = if node || len < 2 {
                    p.extend_with_node(u32::from(a) % len, LABELS[label as usize], b % 2 == 0, port)
                } else {
                    p.extend_with_edge(u32::from(a) % len, u32::from(b) % len, port)
                };
            }
            prop_assert_eq!(p.canonical_code(), p.canonical_code_reference());
        }
    }
}
