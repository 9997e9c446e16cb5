//! Property tests for the XNF decomposition algorithm (Theorem 2,
//! Propositions 6–8) over randomized simple DTDs and FD sets.

use proptest::prelude::*;
use xnf::core::lossless::verify_lossless;
use xnf::core::{is_xnf, normalize, NormalizeOptions};
use xnf_gen::doc::{random_document, DocParams};
use xnf_gen::dtd::{simple_dtd, SimpleDtdParams};
use xnf_gen::fd::{random_fds, FdParams};

fn dtd_params(elements: usize) -> SimpleDtdParams {
    SimpleDtdParams {
        elements,
        max_children: 3,
        max_attrs: 2,
        text_leaf_prob: 0.4,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Theorem 2 + Proposition 6: the algorithm terminates, the result is
    /// in XNF, and the anomalous-path count strictly decreases.
    #[test]
    fn normalization_terminates_in_xnf(seed in 0u64..100_000, elements in 3usize..9) {
        let mut rng = xnf_gen::rng(seed);
        let dtd = simple_dtd(&mut rng, &dtd_params(elements));
        let sigma = random_fds(&dtd, &mut rng, &FdParams { count: 3, max_lhs: 2 });
        let result = match normalize(&dtd, &sigma, &NormalizeOptions::default()) {
            Ok(r) => r,
            // Preprocessing may reject FDs that need an impossible fold
            // (e.g. text elements with multiplicity ≠ 1) — a typed error,
            // not a panic.
            Err(xnf::core::CoreError::BadFdPath(_)) => return Ok(()),
            Err(other) => return Err(TestCaseError::fail(format!("{other}"))),
        };
        prop_assert!(is_xnf(&result.dtd, &result.sigma).unwrap(), "seed {seed}");
        for w in result.ap_trace.windows(2) {
            prop_assert!(w[1] < w[0], "AP did not strictly decrease: {:?}", result.ap_trace);
        }
        prop_assert_eq!(*result.ap_trace.last().unwrap(), 0);
    }

    /// Proposition 7: the Σ-only variant also terminates in XNF.
    #[test]
    fn sigma_only_variant_reaches_xnf(seed in 0u64..100_000, elements in 3usize..9) {
        let mut rng = xnf_gen::rng(seed);
        let dtd = simple_dtd(&mut rng, &dtd_params(elements));
        let sigma = random_fds(&dtd, &mut rng, &FdParams { count: 3, max_lhs: 2 });
        let opts = NormalizeOptions { use_implication: false, ..NormalizeOptions::default() };
        let result = match normalize(&dtd, &sigma, &opts) {
            Ok(r) => r,
            Err(xnf::core::CoreError::BadFdPath(_)) => return Ok(()),
            Err(other) => return Err(TestCaseError::fail(format!("{other}"))),
        };
        prop_assert!(is_xnf(&result.dtd, &result.sigma).unwrap(), "seed {seed}");
    }

    /// Proposition 8: on documents that satisfy Σ, every normalization is
    /// lossless — forward transform conforms + satisfies Σ', and the
    /// inverse reconstructs the document.
    #[test]
    fn normalization_is_lossless(seed in 0u64..100_000, elements in 3usize..8) {
        let mut rng = xnf_gen::rng(seed);
        let dtd = simple_dtd(&mut rng, &dtd_params(elements));
        let sigma = random_fds(&dtd, &mut rng, &FdParams { count: 2, max_lhs: 2 });
        let result = match normalize(&dtd, &sigma, &NormalizeOptions::default()) {
            Ok(r) => r,
            Err(xnf::core::CoreError::BadFdPath(_)) => return Ok(()),
            Err(other) => return Err(TestCaseError::fail(format!("{other}"))),
        };
        if result.steps.is_empty() {
            return Ok(()); // already in XNF: nothing to verify
        }
        let paths = dtd.paths().unwrap();
        // Sample documents; check losslessness on the Σ-satisfying ones.
        let mut checked = 0;
        for doc_seed in 0..30u64 {
            let mut doc_rng = xnf_gen::rng(seed.wrapping_mul(17).wrapping_add(doc_seed));
            let doc = random_document(&dtd, &mut doc_rng, &DocParams {
                reps: (0, 2),
                value_alphabet: 2,
                max_nodes: 200,
            });
            if doc.num_nodes() >= 200 {
                continue;
            }
            let Ok(sat) = sigma.satisfied_by(&doc, &dtd, &paths) else { continue };
            if !sat {
                continue;
            }
            match verify_lossless(&dtd, &result, &doc) {
                Ok((report, _)) => {
                    prop_assert!(report.ok(), "seed {seed}/{doc_seed}: {report:?}");
                    checked += 1;
                }
                // A needed value can be ⊥ on partial documents — the
                // documented footnote-1 limitation.
                Err(xnf::core::CoreError::UnrepresentableNull { .. }) => continue,
                Err(other) => return Err(TestCaseError::fail(format!("{other}"))),
            }
            if checked >= 5 {
                break;
            }
        }
    }
}
