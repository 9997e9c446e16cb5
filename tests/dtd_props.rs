//! Property tests for the DTD substrate: the Glushkov automaton vs
//! Brzozowski derivatives as differential oracles (membership and
//! 1-unambiguity), and soundness of the Section 7 simplicity
//! classification.

use proptest::prelude::*;
use xnf_dtd::classify::{is_trivial, simple_multiplicities, Multiplicity};
use xnf_dtd::derivative;
use xnf_dtd::nfa::Matcher;
use xnf_dtd::Regex;
use xnf_lint::determinism::deterministic_via_derivatives;

/// A recursive strategy for random content-model regexes over a small
/// alphabet.
fn arb_regex() -> impl Strategy<Value = Regex> {
    let leaf = prop_oneof![
        Just(Regex::Epsilon),
        prop_oneof![Just("a"), Just("b"), Just("c")].prop_map(Regex::elem),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 2..4).prop_map(Regex::seq),
            prop::collection::vec(inner.clone(), 2..4).prop_map(Regex::alt),
            inner.clone().prop_map(Regex::star),
            inner.clone().prop_map(Regex::opt),
            inner.prop_map(Regex::plus),
        ]
    })
}

fn arb_word() -> impl Strategy<Value = Vec<&'static str>> {
    prop::collection::vec(prop_oneof![Just("a"), Just("b"), Just("c")], 0..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The Glushkov automaton and the derivative engine agree on every
    /// (regex, word).
    #[test]
    fn nfa_and_derivatives_agree(re in arb_regex(), word in arb_word()) {
        let nfa = Matcher::new(&re);
        prop_assert_eq!(
            nfa.matches(word.iter().copied()),
            derivative::matches(&re, word.iter().copied()),
            "engines disagree on {} vs {:?}", re, word
        );
    }

    /// The automaton's ambiguity witness and the derivative-based
    /// 1-unambiguity decision agree on every regex.
    #[test]
    fn first_ambiguity_agrees_with_derivatives(re in arb_regex()) {
        let derivatives = deterministic_via_derivatives(&re);
        prop_assume!(derivatives.is_some());
        prop_assert_eq!(
            Matcher::new(&re).first_ambiguity().is_none(),
            derivatives.unwrap_or_default(),
            "1-unambiguity verdicts disagree on {}", re
        );
    }

    /// `simplified()` preserves the language (checked via the automaton on
    /// random words).
    #[test]
    fn simplified_preserves_language(re in arb_regex(), word in arb_word()) {
        let s = re.simplified();
        prop_assert_eq!(
            Matcher::new(&re).matches(word.iter().copied()),
            Matcher::new(&s).matches(word.iter().copied()),
            "simplification changed the language: {} vs {}", re, s
        );
    }

    /// Display → parse preserves the language for *simplified*
    /// expressions (DTD syntax has no ε literal inside expressions; the
    /// simplifier rewrites interior ε into `?`, matching how real DTDs
    /// are written).
    #[test]
    fn regex_display_parse_roundtrip(raw in arb_regex()) {
        let re = raw.simplified();
        let text = re.to_string(); // "EMPTY" for ε, content-model syntax otherwise
        let cm = xnf_dtd::parse::parse_content_model(&text).unwrap();
        let reparsed = cm.as_regex().cloned().unwrap_or(Regex::Epsilon);
        // Compare languages on a deterministic word set rather than ASTs
        // (parentheses flattening may regroup).
        for word in [
            vec![], vec!["a"], vec!["b"], vec!["a", "a"], vec!["a", "b"],
            vec!["b", "a"], vec!["a", "b", "c"], vec!["c", "c"],
        ] {
            prop_assert_eq!(
                Matcher::new(&re).matches(word.iter().copied()),
                Matcher::new(&reparsed).matches(word.iter().copied()),
                "roundtrip changed the language of {}", re
            );
        }
    }

    /// Soundness of the simplicity test: when `simple_multiplicities`
    /// answers, every word of the language respects the per-letter
    /// multiplicity intervals.
    #[test]
    fn simplicity_is_sound(re in arb_regex(), word in arb_word()) {
        if let Some(m) = simple_multiplicities(&re) {
            if Matcher::new(&re).matches(word.iter().copied()) {
                for letter in ["a", "b", "c"] {
                    let count = word.iter().filter(|w| **w == letter).count();
                    match m.get(letter) {
                        None => prop_assert_eq!(count, 0, "{} not in the trivial form of {}", letter, re),
                        Some(Multiplicity::One) => prop_assert_eq!(count, 1),
                        Some(Multiplicity::Opt) => prop_assert!(count <= 1),
                        Some(Multiplicity::Plus) => prop_assert!(count >= 1),
                        Some(Multiplicity::Star) => {}
                    }
                }
            }
        }
    }

    /// Completeness on the trivial fragment: syntactically trivial
    /// expressions are always recognized as simple, with the syntactic
    /// multiplicities.
    #[test]
    fn trivial_expressions_are_simple(
        shape in prop::collection::vec(0usize..4, 1..4)
    ) {
        let letters = ["a", "b", "c"];
        let parts: Vec<Regex> = shape
            .iter()
            .enumerate()
            .map(|(i, &q)| {
                let leaf = Regex::elem(letters[i]);
                match q {
                    0 => leaf,
                    1 => leaf.opt(),
                    2 => leaf.star(),
                    _ => leaf.plus(),
                }
            })
            .collect();
        let re = Regex::seq(parts.clone());
        prop_assert!(is_trivial(&re) || parts.len() == 1);
        let m = simple_multiplicities(&re).expect("trivial implies simple");
        for (i, &q) in shape.iter().enumerate() {
            let expected = match q {
                0 => Multiplicity::One,
                1 => Multiplicity::Opt,
                2 => Multiplicity::Star,
                _ => Multiplicity::Plus,
            };
            prop_assert_eq!(m[&Box::from(letters[i])], expected);
        }
    }

    /// `shortest_word` always produces a member of the language.
    #[test]
    fn shortest_word_is_always_a_member(re in arb_regex()) {
        let w = derivative::shortest_word(&re);
        let refs: Vec<&str> = w.iter().map(String::as_str).collect();
        prop_assert!(
            Matcher::new(&re).matches(refs.iter().copied()),
            "{:?} is not in L({})", w, re
        );
    }
}

#[test]
fn multiplicity_helpers() {
    assert!(Multiplicity::Opt.optional());
    assert!(Multiplicity::Star.optional());
    assert!(!Multiplicity::One.optional());
    assert!(!Multiplicity::Plus.optional());
    assert!(Multiplicity::Star.repeatable());
    assert!(Multiplicity::Plus.repeatable());
    assert!(!Multiplicity::Opt.repeatable());
}
